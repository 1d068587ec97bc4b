"""The names the benchmark harness in ``perfbench/`` reaches in the program.

``Tracer.install`` (``perfbench/tracing.py``) wraps every layer named in
``LAYERS`` and fails on a missing one, the workloads
(``perfbench/workloads.py``) call the program as ``p.<module>.<name>``, and
the tracer's counts read ``len(universe)`` and ``rows`` of each induced
relation.  A cut of the library that drops one of these fails here, not in
the benchmark.  The harness files are read as text and never imported.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

from posdec.axioms import canonical_outcomes, canonical_scale
from posdec.checker import LotteryUniverse, induced_relation

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def _source(name: str) -> str:
    return (PERFBENCH / name).read_text(encoding="utf-8")


def _layers() -> tuple[str, ...]:
    for node in ast.parse(_source("tracing.py")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py assigns no LAYERS")


LAYERS = _layers()
# Called directly or bound with ``functools.partial``.
CALLS = sorted({".".join(m) for m in re.findall(r"\bp\.(\w+)\.(\w+)", _source("workloads.py"))})


def _resolve(name: str):
    module, attr = name.split(".")
    return getattr(importlib.import_module(f"posdec.{module}"), attr)


def test_the_harness_names_are_found():
    assert "lotteries.enumerate_distributions" in LAYERS and "scales.compare_binary" in LAYERS
    assert "utilities.reduce_to_standard" in CALLS and "scales.pair_ge_indices" in CALLS
    assert len(CALLS) >= 13


@pytest.mark.parametrize("name", LAYERS)
def test_every_traced_layer_resolves(name):
    assert callable(_resolve(name))


@pytest.mark.parametrize("name", CALLS)
def test_every_workload_call_resolves(name):
    assert callable(_resolve(name))


def test_the_tracer_counts_read_an_induced_relation():
    universe = LotteryUniverse(canonical_outcomes(2), canonical_scale(3))
    keys = [sum(levels) for levels in universe.value_tuples]
    r = induced_relation(universe, keys)
    assert len(universe) == 5
    assert r.rows == [
        sum(1 << j for j, other in enumerate(keys) if key >= other) for key in keys
    ]
