"""The value semantics of posdec's records, and what importing them loads.

Records (levels, pairs, scales, outcome sets, configurations, reports) are
plain classes over one base that compares, hashes and shows them by their
fields: equal only within one class, hashed alike when equal, frozen unless
declared mutable, and mutable ones unhashable.  Importing the CLI or the
sweeps loads no code generator (``dataclasses``, ``inspect``), no
``typing`` and no ``random``, and no module is too large to compile below
the parser's token step.
"""

import copy
import importlib.util
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import posdec
from posdec.axioms import ConfigOutcome, EntailmentRun
from posdec.checker import AxiomReport
from posdec.cli import parse_scenario
from posdec.lotteries import Decision, OutcomeSet, StandardLottery, StateSpace
from posdec.scales import BinaryUtility, Level, Scale, ScaleMap, UtilityPair
from posdec.search import SearchResult
from posdec.spohn import INFINITY, DisbeliefFunction
from posdec.utilities import BinaryUtilityAssessment, Ranking, ScalarUtilityConfig
from posdec.worked_example import SCENARIO

V_REPR = "Scale(levels=('0', '.5', '1'), name='V')"


def frozen_records():
    """One of each frozen record, with a field to try to assign; each call
    builds them afresh."""
    v = Scale(("0", ".5", "1"), name="V")
    outcomes = OutcomeSet(("x1", "x2", "x3"), "x1", "x3", (("x1",), ("x2", "x3")))
    states = StateSpace(("s1", "s2"))
    scale_map = ScaleMap.identity(v)
    return [
        (v, "levels"),
        (Level(v, 1), "index"),
        (UtilityPair(v.bottom, v.bottom), "first"),
        (BinaryUtility(Level(v, 1), v.top), "second"),
        (scale_map, "images"),
        (outcomes, "best"),
        (states, "states"),
        (Decision(states, ("x1", "x3")), "moves"),
        (StandardLottery(v.top, Level(v, 1)), "worst_weight"),
        (DisbeliefFunction(("a", "b"), (0, INFINITY)), "values"),
        (ScalarUtilityConfig(outcomes, scale_map, (2, 0, 0)), "prize_indices"),
        (BinaryUtilityAssessment(outcomes, v, ((2, 0), (0, 2), (0, 2))), "require_anchors"),
        (Ranking((("a",), ("b", "c")), (v.top, v.bottom)), "classes"),
        (AxiomReport("B3", False, (0, 1), "detail"), "witness"),
        (SearchResult(None, 3, 2, 3), "pairs_checked"),
    ]


def mutable_records():
    """One of each mutable record; each call builds them afresh."""
    scenario = parse_scenario(SCENARIO, source="example")
    report = AxiomReport("B1", True)
    return [scenario, ConfigOutcome("c", "binary", [report]), EntailmentRun([])]


@pytest.mark.parametrize("record, expected", [
    (Scale(("0", ".5", "1"), name="V"), V_REPR),
    (Level(Scale(("0", ".5", "1"), name="V"), 1), f"Level(scale={V_REPR}, index=1)"),
    (
        BinaryUtility(Level(Scale(("0", ".5", "1"), name="V"), 1),
                      Level(Scale(("0", ".5", "1"), name="V"), 2)),
        f"BinaryUtility(first=Level(scale={V_REPR}, index=1), "
        f"second=Level(scale={V_REPR}, index=2))",
    ),
    (
        OutcomeSet(("x1", "x2", "x3"), "x1", "x3", (("x1",), ("x2", "x3"))),
        "OutcomeSet(outcomes=('x1', 'x2', 'x3'), best='x1', worst='x3', "
        "preference_classes=(('x1',), ('x2', 'x3')))",
    ),
    (
        ScaleMap.identity(Scale(("0", ".5", "1"), name="V")),
        f"ScaleMap(source={V_REPR}, target={V_REPR}, images=(0, 1, 2))",
    ),
    (
        AxiomReport("B1", False, (0, 1), "detail"),
        "AxiomReport(axiom='B1', satisfied=False, witness=(0, 1), detail='detail')",
    ),
    (AxiomReport("B1", True), "AxiomReport(axiom='B1', satisfied=True, witness=None, detail='')"),
    (EntailmentRun(), "EntailmentRun(configs=[])"),
], ids=[
    "Scale", "Level", "BinaryUtility", "OutcomeSet", "ScaleMap", "AxiomReport-violated",
    "AxiomReport-satisfied", "EntailmentRun",
])
def test_repr_shows_the_fields_in_order(record, expected):
    assert repr(record) == expected


def test_derived_attributes_take_no_part_in_equality():
    v, w = Scale(("0", "1")), Scale(("0", "1"))
    assert v.level_values  # cached on v only
    assert v == w and hash(v) == hash(w) and repr(v) == repr(w)


def test_equal_records_hash_alike_and_survive_copy_and_pickle():
    for (a, _), (b, _) in zip(frozen_records(), frozen_records()):
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert twin == a and hash(twin) == hash(a)
    for a, b in zip(mutable_records(), mutable_records()):
        assert a == b
        assert pickle.loads(pickle.dumps(a)) == a


def test_records_equal_only_within_their_class():
    v = Scale(("0", ".5", "1"))
    pair, binary = UtilityPair(Level(v, 1), v.top), BinaryUtility(Level(v, 1), v.top)
    assert pair != binary and binary != pair
    assert not pair == binary
    assert Level(v, 1) != Level(Scale(("0", ".5", "1"), name="W"), 1)
    assert AxiomReport("A1-", True) != AxiomReport("B1", True)
    assert Scale(("0", "1")) != ("0", "1")


def test_fresh_runs_do_not_share_their_configs():
    first, second = EntailmentRun(), EntailmentRun()
    first.configs.append(ConfigOutcome("c", "binary", []))
    assert second.configs == []


def test_frozen_records_refuse_assignment_and_deletion():
    for record, name in frozen_records():
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = None
        assert getattr(record, name) is before


def test_mutable_records_stay_unhashable():
    for record in mutable_records():
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    outcome = ConfigOutcome("c", "binary", [])
    outcome.family = "pessimistic"
    assert outcome.family == "pessimistic"


def test_cold_import_loads_no_code_generator_typing_or_random():
    """With no site packages and no bytecode, as a cold ``posdec`` process
    starts, importing the CLI and the sweeps leaves these modules unloaded:
    no record class generates code, and only a sampled sweep draws."""
    src = Path(posdec.__file__).resolve().parent.parent
    code = (
        "import sys\n"
        "import posdec.axioms, posdec.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'typing', 'random'} & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-B", "-c", code],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# The most tokens a module may have: the size of CPython's parser token
# array just before it doubles.
TOKEN_STEP = 8192


def test_every_module_is_below_the_parser_token_step():
    """No module of the package has more than ``TOKEN_STEP`` tokens as
    ``scripts/code_lines.py`` counts them.  CPython's PEG parser (3.11)
    keeps a module's tokens in an array that it doubles when full, and it
    allocates a zeroed token struct for every new slot at once.  So the
    8,193rd token grows the array to 16,384 and adds about 0.5 MB to the
    compile's peak, which every cold import pays and ``peak_rss_mb``
    shows.  ``tokenize`` also counts the comments and line breaks that the
    parser skips, so this bound is the stricter one."""
    package = Path(posdec.__file__).resolve().parent
    script = package.parents[1] / "scripts" / "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines", script)
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    tokens = {
        path.name: code_lines.sizes(path.read_text(encoding="utf-8"))[1]
        for path in sorted(package.glob("*.py"))
    }
    assert {name: n for name, n in tokens.items() if n > TOKEN_STEP} == {}
