"""Spans around calls into the program, recorded from outside it.

The tracer replaces a public function at every module attribute of the
package that holds it, so callers inside the program that looked the name
up with ``from .x import y`` reach the wrapper too (for example
``posdec.axioms.pessimistic_utility``, or ``posdec.scales.compare_binary``
as reached from ``BinaryUtility.__lt__``).  Closures inside a function,
such as the ``mix`` helper of ``check_substitutability``, cannot be
reached this way; their time stays in the enclosing span.
"""

from __future__ import annotations

import gzip
import time
from collections import Counter

SETUP = "setup"

# Wrapped layers, as "<module>.<attribute>" of the posdec package.
LAYERS = (
    "cli.parse_scenario",
    "lotteries.induced_distribution",
    "lotteries.mixture",
    "lotteries.enumerate_distributions",
    "utilities.binary_utility",
    "utilities.pessimistic_utility",
    "utilities.optimistic_utility",
    "utilities.rank_decisions",
    "scales.compare_binary",
    "axioms.LotteryUniverse",
    "axioms.verify_entailments",
    "axioms.induced_relation",
    "axioms.check_total_preorder",
    "axioms.check_uncertainty_attitude",
    "axioms.check_substitutability",
    "axioms.check_continuity",
    "axioms.check_qualitative_monotonicity",
    "axioms.enumerate_scalar_configs",
    "axioms.enumerate_assessments",
    "axioms.sample_scalar_configs",
    "axioms.format_report",
)
# The root span of each op; its self time is the op's time outside every
# wrapped layer (JSON decoding and the request glue on rank-serve).
OP = "op"
EVALUATORS = (
    "utilities.binary_utility", "utilities.pessimistic_utility", "utilities.optimistic_utility",
)
# Exact counts, taken over set-up plus the first op.
COMPUTED = (
    "utilities.evaluations",
    "axioms.universe_members",
    "axioms.relation_entries",
    "axioms.relations",
    "axioms.distinct_relation_ratio",
    "axioms.configs",
    "axioms.checks",
)


class Tracer:
    """Keeps every span in memory: (layer, start ns, end ns, parent span, op id)."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.stack = [-1]
        self.op = None  # None: not inside set-up or an op, so record nothing
        self.counting = False
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self._matrices: set = set()
        self._root = self._layer(OP)

    def _layer(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, fn, name: str, after=None):
        layer = self._layer(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            span = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[span] = (layer, start, end, parent, op)
            if after is not None and self.counting:
                after(args, result)
            return result

        return traced

    def install(self, package, modules: dict) -> None:
        """Wrap every layer at each attribute of the package that binds it."""
        hooks = {
            "axioms.LotteryUniverse": self._count_universe,
            "axioms.induced_relation": self._count_relation,
        }
        hooks.update(dict.fromkeys(EVALUATORS, self._count_evaluation))
        bound = [package, *modules.values()]
        for name in LAYERS:
            module, attr = name.split(".")
            original = getattr(modules[module], attr)
            traced = self.wrap(original, name, hooks.get(name))
            for m in bound:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, traced)

    def _count_evaluation(self, args, result) -> None:
        self.counts["utilities.evaluations"] += 1

    def _count_universe(self, args, result) -> None:
        self.counts["axioms.universe_members"] += len(result)

    def _count_relation(self, args, result) -> None:
        universe = args[0]
        self.counts["axioms.relations"] += 1
        self.counts["axioms.relation_entries"] += len(universe) ** 2
        self._matrices.add(
            (universe.scale.levels, universe.outcomes.labels, tuple(result.rows))
        )

    def begin_op(self, op, counting: bool) -> None:
        self.op = op
        self.counting = counting
        if op != SETUP:
            span = len(self.spans)
            self.spans.append(None)
            self.stack.append(span)
            self._op_start = (span, time.perf_counter_ns())

    def end_op(self) -> None:
        if self.op != SETUP:
            span, start = self._op_start
            self.stack.pop()
            self.spans[span] = (self._root, start, time.perf_counter_ns(), -1, self.op)
        self.op = None
        self.counting = False

    def computed(self, configs: int, checks: int) -> dict[str, float]:
        counts = dict(self.counts)
        counts["axioms.distinct_relation_ratio"] = (
            len(self._matrices) / counts["axioms.relations"] if counts.get("axioms.relations") else 0.0
        )
        counts["axioms.configs"] = configs
        counts["axioms.checks"] = checks
        return {name: counts.get(name, 0) for name in COMPUTED}

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Calls and self time per layer: set-up once plus the mean op."""
        spans = self.spans
        child = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = {SETUP: Counter(), None: Counter()}
        busy = {SETUP: Counter(), None: Counter()}
        for k, (layer, start, end, _, op) in enumerate(spans):
            phase = SETUP if op == SETUP else None
            calls[phase][layer] += 1
            busy[phase][layer] += end - start - child[k]
        out = {}
        for layer, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[SETUP][layer] + calls[None][layer] / ops
            out[f"{name}.busy_s"] = (busy[SETUP][layer] + busy[None][layer] / ops) / 1e9
            if name != OP:
                out[f"{name}.errors"] = self.errors[name]
        return out

    def write(self, path) -> None:
        """Every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("span\tname\tstart_ns\tend_ns\tparent\top\n")
            for k, (layer, start, end, parent, op) in enumerate(self.spans):
                handle.write(f"{k}\t{self.names[layer]}\t{start}\t{end}\t{parent}\t{op}\n")
