"""Command-line front end.

Subcommands: evaluate, rank, verify, convert-spohn, paper-example.
Scenario files are single JSON documents; levels appear as their decimal
label strings and pair utilities as two-element label arrays.  Exit codes:
0 success, 1 validation or parse error, 2 verification failure, 3 bound
exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Mapping
from functools import partial

from .lotteries import (
    BoundExceededError,
    Decision,
    OutcomeSet,
    PossibilityDistribution,
    StateSpace,
    check_enumerable,
    distribution_from_indices,
    induced_distribution,
)
from .scales import Scale, ScaleMap, _Record, check_binary_pair
from .utilities import (
    BinaryUtilityAssessment,
    Evaluator,
    ScalarUtilityConfig,
    binary_utility,
    optimistic_utility,
    pessimistic_utility,
    rank_decisions,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFICATION = 2
EXIT_BOUND = 3

HARD_CAP = 6
# Every sampled configuration keeps its reports and report lines (about
# 5 KB each), so memory grows with --sample.
SAMPLE_CAP = 10_000


class ScenarioError(ValueError):
    """A scenario file failed to parse or validate."""


class Scenario(_Record, frozen=False):
    """A fully validated scenario document, and where it was read from."""

    __slots__ = _fields = (
        "source", "scale_v", "scale_u", "outcomes", "states", "state_possibility",
        "decisions", "lotteries", "assessment", "pessimistic_config",
    )

    def __init__(
        self,
        source: str,
        scale_v: Scale,
        scale_u: Scale | None,
        outcomes: OutcomeSet,
        states: StateSpace | None,
        state_possibility: PossibilityDistribution | None,
        decisions: dict[str, Decision],
        lotteries: dict[str, PossibilityDistribution],
        assessment: BinaryUtilityAssessment | None,
        pessimistic_config: ScalarUtilityConfig | None,
    ) -> None:
        self.source, self.scale_v, self.scale_u, self.outcomes = source, scale_v, scale_u, outcomes
        self.states, self.state_possibility = states, state_possibility
        self.decisions, self.lotteries = decisions, lotteries
        self.assessment, self.pessimistic_config = assessment, pessimistic_config


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: parse error: {exc}") from exc
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def load_scenario(path: str) -> Scenario:
    """Read and validate a scenario file."""
    return parse_scenario(_load_json(path), source=path)


def _document_checks(source: str):
    """The checks every input document read from ``source`` shares:
    ``fail``, ``expect_object``, ``expect_labels`` and ``parse_scale``.
    Each failure is a ``ScenarioError`` whose message starts with ``source``."""

    def fail(message: str) -> ScenarioError:
        return ScenarioError(f"{source}: {message}")

    def expect_object(value, what: str) -> Mapping:
        if not isinstance(value, Mapping):
            raise fail(f"{what} must be a JSON object")
        return value

    def expect_labels(value, what: str) -> tuple[str, ...]:
        if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
            raise fail(f"{what} must be a JSON array of strings")
        return tuple(value)

    def parse_scale(document: Mapping, key: str, name: str) -> Scale:
        labels = expect_labels(document[key], key)
        try:
            return Scale(labels, name=name)
        except ValueError as exc:
            raise fail(f"{key}: {exc}") from exc

    return fail, expect_object, expect_labels, parse_scale


def parse_scenario(data: Mapping, source: str = "<scenario>") -> Scenario:
    """Build a Scenario from parsed JSON, running every module validator."""
    fail, expect_object, expect_labels, parse_scale = _document_checks(source)

    def optional_object(key: str) -> Mapping:
        value = data.get(key)
        return {} if value is None else expect_object(value, key)

    expect_object(data, "scenario")
    if "scale_v" not in data:
        raise fail("missing scale_v")
    if "outcomes" not in data:
        raise fail("missing outcomes")
    scale_v = parse_scale(data, "scale_v", "V")
    scale_u = parse_scale(data, "scale_u", "U") if data.get("scale_u") is not None else None

    decl = expect_object(data["outcomes"], "outcomes")
    # Each part's shape is checked before the outcome set is built from it,
    # so every error names the part in the document's terms.
    if "labels" in decl:
        expect_labels(decl["labels"], "outcomes labels")
    for key in ("labels", "best", "worst"):
        if key not in decl:
            raise fail(f"outcomes: {key!r}")
    for key in ("best", "worst"):
        if not isinstance(decl[key], str):
            raise fail(f"outcomes {key} must be a JSON string")
    preference = decl.get("preference")
    if preference is None:
        preference = ()
    elif not isinstance(preference, (list, tuple)) or not all(
        isinstance(c, (list, tuple)) and all(isinstance(x, str) for x in c) for c in preference
    ):
        raise fail("outcomes preference must be a JSON array of arrays of strings")
    try:
        outcomes = OutcomeSet(
            tuple(decl["labels"]), decl["best"], decl["worst"], tuple(map(tuple, preference))
        )
    except ValueError as exc:
        raise fail(f"outcomes: {exc}") from exc

    def parse_distribution(domain, table: Mapping[str, str], what: str):
        # Every level is looked up before any label is checked, so a level
        # off the scale is reported first.
        expect_object(table, what)
        indices = {label: scale_v.index(level) for label, level in table.items()}
        return distribution_from_indices(domain, scale_v, indices)

    # Everything below is read under one handler, with ``part`` naming the
    # part being read: a validator's KeyError is shown by its argument, and
    # its ValueError by its text, after the part.
    part = "states"
    try:
        states = None
        if data.get("states") is not None:
            states = StateSpace(expect_labels(data["states"], "states"))

        part = "state_possibility"
        state_possibility = None
        if data.get("state_possibility") is not None:
            if states is None:
                raise fail("state_possibility given without states")
            state_possibility = parse_distribution(states, data["state_possibility"], part)

        decisions: dict[str, Decision] = {}
        for name, table in optional_object("decisions").items():
            part = f"decision {name!r}"
            if states is None:
                raise fail(f"{part} given without states")
            decision = Decision.from_mapping(states, expect_object(table, part))
            for move in decision.moves:
                # Outcome labels are strings, so a move of any other type (an
                # unhashable one too) is unknown.
                if not isinstance(move, str) or move not in outcomes.index_of:
                    raise fail(f"{part} maps to unknown outcome {move!r}")
            decisions[name] = decision

        lotteries = {}
        for name, table in optional_object("lotteries").items():
            part = f"lottery {name!r}"
            lotteries[name] = parse_distribution(outcomes, table, part)

        assessment = None
        if data.get("assessment") is not None:
            table = {}
            for label, pair in expect_object(data["assessment"], "assessment").items():
                part = f"assessment for {label!r}"
                if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                    raise fail(f"{part} must be a two-element array")
                table[label] = first, second = scale_v.index(pair[0]), scale_v.index(pair[1])
                check_binary_pair(scale_v, first, second)
            part = "assessment"
            assessment = BinaryUtilityAssessment.from_indices(outcomes, scale_v, table)

        pessimistic_config = None
        if data.get("pessimistic_config") is not None:
            part = "pessimistic_config"
            cfg = expect_object(data["pessimistic_config"], part)
            for key in ("n", "h", "u"):
                # A missing key is a KeyError, which the handler names.
                expect_object(cfg[key], f"pessimistic_config {key}")
            target = scale_u if scale_u is not None else scale_v
            # n must be an order-reversing involution of U, and on a finite
            # chain only i -> top - i is one: the configuration derives it,
            # so the table is only checked.
            part = "pessimistic_config: n"
            n = ScaleMap.from_labels(target, target, cfg["n"]).images
            if n != tuple(range(target.top_index, -1, -1)):
                raise fail(f"{part} is not the order reversal of scale {target.name!r}")
            part = "pessimistic_config"
            scale_map = ScaleMap.from_labels(scale_v, target, cfg["h"])
            prize = {label: target.index(level) for label, level in cfg["u"].items()}
            pessimistic_config = ScalarUtilityConfig.from_indices(outcomes, scale_map, prize)
    except ScenarioError:
        raise
    except KeyError as exc:
        raise fail(f"{part}: {exc.args[0]}") from exc
    except ValueError as exc:
        raise fail(f"{part}: {exc}") from exc

    return Scenario(
        source, scale_v, scale_u, outcomes, states, state_possibility,
        decisions, lotteries, assessment, pessimistic_config,
    )


def _resolve_evaluator(scenario: Scenario, method: str) -> Evaluator:
    """The evaluator for one of the parser's ``--method`` choices."""
    if method == "binary":
        if scenario.assessment is None:
            raise ScenarioError(f"{scenario.source}: method 'binary' needs an assessment")
        return partial(binary_utility, a=scenario.assessment)
    if scenario.pessimistic_config is None:
        raise ScenarioError(f"{scenario.source}: method {method!r} needs a pessimistic_config")
    fn = pessimistic_utility if method == "pessimistic" else optimistic_utility
    return partial(fn, cfg=scenario.pessimistic_config)


def _resolve_targets(
    scenario: Scenario, names: list[str]
) -> list[tuple[str, PossibilityDistribution]]:
    if not scenario.lotteries and not scenario.decisions:
        raise ScenarioError(f"{scenario.source}: declares neither lotteries nor decisions")
    if not names:
        names = list(scenario.lotteries) + list(scenario.decisions)
    items = []
    for name in names:
        if name in scenario.lotteries:
            items.append((name, scenario.lotteries[name]))
        elif name in scenario.decisions:
            if scenario.state_possibility is None:
                raise ScenarioError(
                    f"{scenario.source}: decision {name!r} needs states and state_possibility"
                )
            items.append(
                (
                    name,
                    induced_distribution(
                        scenario.state_possibility,
                        scenario.decisions[name],
                        scenario.outcomes,
                    ),
                )
            )
        else:
            raise ScenarioError(f"{scenario.source}: unknown target {name!r}")
    return items


def cmd_evaluate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    evaluate = _resolve_evaluator(scenario, args.method)
    items = _resolve_targets(scenario, args.targets)
    width = max(len(name) for name, _ in items)
    for name, dist in items:
        print(f"{name.ljust(width)}  {evaluate(dist)}")
    return EXIT_OK


def cmd_rank(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    evaluate = _resolve_evaluator(scenario, args.method)
    items = _resolve_targets(scenario, [])
    ranking = rank_decisions(items, evaluate)
    for position, group in enumerate(ranking.classes, start=1):
        print(f"{position}. {', '.join(group)}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    # Only verify needs the checker; the other commands never load it.
    from .axioms import LotteryUniverse, format_report, verify_entailments

    if args.sample < 0:
        raise ValueError(f"--sample={args.sample} must be at least 0")
    for flag, value, cap in (
        ("--max-outcomes", args.max_outcomes, HARD_CAP),
        ("--max-levels", args.max_levels, HARD_CAP),
        ("--sample", args.sample, SAMPLE_CAP),
    ):
        if value > cap and not args.unsafe_bounds:
            raise BoundExceededError(
                f"{flag}={value} is above the hard cap of {cap}; "
                f"pass --unsafe-bounds to override"
            )
    scenario = load_scenario(args.scenario)
    n_outcomes = len(scenario.outcomes.outcomes)
    n_levels = len(scenario.scale_v)
    if n_outcomes > args.max_outcomes:
        raise BoundExceededError(
            f"{scenario.source}: {n_outcomes} outcomes, over the bound of {args.max_outcomes}"
        )
    if n_levels > args.max_levels:
        raise BoundExceededError(
            f"{scenario.source}: scale_v has {n_levels} levels, "
            f"over the bound of {args.max_levels}"
        )
    check_enumerable(scenario.source, n_outcomes, n_levels)
    universe = LotteryUniverse(scenario.outcomes, scenario.scale_v)
    run = verify_entailments(
        universe,
        scalar_config=scenario.pessimistic_config,
        assessment=scenario.assessment,
        seed=args.seed,
        sample_size=args.sample,
        fault=(0, 0) if args.inject_fault else None,
    )
    report = format_report(run)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(report)
    checks = sum(len(c.reports) for c in run.configs)
    unexpected = run.unexpected()
    if run.ok():
        print(
            f"verified {len(run.configs)} configurations, {checks} axiom checks: "
            f"all expected outcomes hold (report: {args.out})"
        )
        return EXIT_OK
    for config_id, axiom in unexpected:
        print(f"unexpected outcome: {config_id} {axiom}", file=sys.stderr)
    if not run.anomaly_exhibited():
        print("no mixed assessment violating both attitude axioms", file=sys.stderr)
    print(
        f"verified {len(run.configs)} configurations, {checks} axiom checks: "
        f"{len(unexpected)} unexpected outcomes (report: {args.out})"
    )
    return EXIT_VERIFICATION


def cmd_convert_spohn(args: argparse.Namespace) -> int:
    # Only convert-spohn needs the Spohn bridge; the other commands never load it.
    from .spohn import convert_document

    payload = convert_document(_load_json(args.input), args.direction, args.base, args.input)
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_paper_example(args: argparse.Namespace) -> int:
    # Only paper-example needs the worked example; the other commands never load it.
    from .worked_example import paper_example_lines

    for line in paper_example_lines():
        print(line)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posdec",
        description="Ordinal max-min decision engine over possibility distributions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    evaluate = sub.add_parser("evaluate", help="print the utility of named targets")
    evaluate.add_argument("--scenario", required=True, help="scenario JSON path")
    evaluate.add_argument(
        "--method",
        required=True,
        choices=("pessimistic", "optimistic", "binary"),
    )
    evaluate.add_argument("targets", nargs="*", help="lottery or decision names")
    evaluate.set_defaults(func=cmd_evaluate)

    rank = sub.add_parser("rank", help="rank every lottery and decision")
    rank.add_argument("--scenario", required=True)
    rank.add_argument(
        "--method", required=True, choices=("pessimistic", "optimistic", "binary")
    )
    rank.set_defaults(func=cmd_rank)

    verify = sub.add_parser("verify", help="run the axiom verification batteries")
    verify.add_argument("--scenario", required=True)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--sample", type=int, default=100, help="sampled config count")
    verify.add_argument("--max-outcomes", type=int, default=HARD_CAP)
    verify.add_argument("--max-levels", type=int, default=HARD_CAP)
    verify.add_argument("--unsafe-bounds", action="store_true")
    verify.add_argument("--inject-fault", action="store_true",
                        help="flip one relation entry to exercise the failure path")
    verify.add_argument("--out", default="verify-report.txt")
    verify.set_defaults(func=cmd_verify)

    convert = sub.add_parser("convert-spohn", help="convert between rankings")
    convert.add_argument("input", help="JSON file to convert")
    convert.add_argument(
        "--direction", required=True, choices=("to-possibility", "to-disbelief")
    )
    convert.add_argument("--base", default="2", help="rational base > 1")
    convert.add_argument("--out")
    convert.set_defaults(func=cmd_convert_spohn)

    example = sub.add_parser(
        "paper-example", help="print the bundled worked example with all steps"
    )
    example.set_defaults(func=cmd_paper_example)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BoundExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.modules["posdec.cli"] = sys.modules[__name__]  # one copy for the command modules
    entry_point()
