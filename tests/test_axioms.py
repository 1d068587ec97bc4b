"""Relation materialization, axiom predicates, entailment sweeps, and the search."""

import gc
import hashlib
import itertools
import operator
import os
import subprocess
import sys
import time
import tracemalloc
import weakref
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axiom_oracles import check_standard_order_decomposition, standard_decomposition, standard_members
from axiom_oracles import check_substitutability as oracle_substitutability
from axiom_oracles import rows_of
from test_utilities import optimistic_key, pessimistic_key
from posdec import axioms, checker
from posdec.axioms import (
    FAMILIES,
    ConfigOutcome,
    EntailmentRun,
    canonical_outcomes,
    canonical_scale,
    enumerate_assessments,
    enumerate_scalar_configs,
    format_report,
    sample_scalar_configs,
    verify_entailments,
)
from posdec.checker import (
    CONTINUITY_VARIANTS,
    AxiomReport,
    LotteryUniverse,
    PreferenceRelation,
    binary_keys,
    check_continuity,
    check_qualitative_monotonicity,
    check_substitutability,
    check_total_preorder,
    check_uncertainty_attitude,
    induced_relation,
    member_keys,
)
from posdec.cli import load_scenario
from posdec.lotteries import BoundExceededError, mixture
from posdec.scales import Scale, ScaleMap, ScaleMismatchError, pair_ge_indices
from posdec.search import search_pair_counterexample
from posdec.utilities import (
    BinaryUtilityAssessment,
    ScalarUtilityConfig,
    binary_utility,
    optimistic_utility,
    pessimistic_utility,
    reduce_to_standard,
)


def induced_by(universe, evaluate):
    """The relation an evaluator induces, one evaluation per member."""
    return induced_relation(universe, map(evaluate, universe.members))


@pytest.fixture(scope="module")
def tiny_universe():
    """Two outcomes over the two-point scale: three lotteries, all standard."""
    return LotteryUniverse(canonical_outcomes(2), canonical_scale(2))


@pytest.fixture(scope="module")
def small_universe():
    return LotteryUniverse(canonical_outcomes(2), canonical_scale(3))


@pytest.fixture(scope="module")
def example_universe(example_scenario):
    return LotteryUniverse(example_scenario.outcomes, example_scenario.scale_v)


@pytest.fixture(scope="module")
def example_binary_relation(example_scenario, example_universe):
    return induced_by(example_universe, partial(binary_utility, a=example_scenario.assessment))


@pytest.fixture(scope="module")
def example_pessimistic_relation(example_scenario, example_universe):
    return induced_by(
        example_universe, partial(pessimistic_utility, cfg=example_scenario.pessimistic_config)
    )


def counting_preorder(monkeypatch) -> list:
    """Relations the preorder check sees through its module attribute, in call order."""
    seen = []

    def wrapper(r, *args):
        seen.append(r)
        return check_total_preorder(r, *args)

    monkeypatch.setattr(axioms, "check_total_preorder", wrapper)
    return seen


def tiny_assessment(universe):
    return enumerate_assessments(universe.outcomes, universe.scale)[0]


def fresh_sweep(seed, sample_size, enumerate_max, universe=None, scalar_config=None,
                assessment=None):
    """(config id, family, relation) per configuration a sweep checks, in
    report order, each relation built afresh through the public evaluators."""
    out = []

    def scalar(pess_id, opt_id, uni, cfg):
        for config_id, family, utility in (
            (pess_id, "pessimistic", pessimistic_utility),
            (opt_id, "optimistic", optimistic_utility),
        ):
            out.append((config_id, family, induced_by(uni, partial(utility, cfg=cfg))))

    if scalar_config is not None:
        scalar("scenario-pessimistic", "scenario-optimistic", universe, scalar_config)
    if assessment is not None:
        relation = induced_by(universe, partial(binary_utility, a=assessment))
        out.append(("scenario-binary", "binary", relation))
    for nx, nv in itertools.product(range(2, enumerate_max[0] + 1), range(2, enumerate_max[1] + 1)):
        uni = LotteryUniverse(canonical_outcomes(nx), canonical_scale(nv))
        for i, cfg in enumerate(enumerate_scalar_configs(uni.outcomes, uni.scale)):
            scalar(f"pess-enum-{nx}x{nv}-{i:03d}", f"opt-enum-{nx}x{nv}-{i:03d}", uni, cfg)
        for prefix, half in (
            ("binary-enum", None), ("binary-best-half", "best"), ("binary-worst-half", "worst")
        ):
            family = prefix if half else "binary"
            for i, a in enumerate(enumerate_assessments(uni.outcomes, uni.scale, half)):
                relation = induced_by(uni, partial(binary_utility, a=a))
                out.append((f"{prefix}-{nx}x{nv}-{i:03d}", family, relation))
    for i, (base, v_scale, cfg) in enumerate(sample_scalar_configs(seed, sample_size)):
        scalar(f"pess-sample-{i:03d}", f"opt-sample-{i:03d}", LotteryUniverse(base, v_scale), cfg)
    return out


def run_sweep_script(tmp_path, argv):
    """``scripts/axiom_sweep.py`` run on this test run's package, report in tmp_path."""
    script = Path(__file__).parents[1] / "scripts" / "axiom_sweep.py"
    env = {**os.environ, "PYTHONPATH": str(Path(axioms.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, str(script), *argv, "--out", str(tmp_path / "report.txt")],
        capture_output=True, text=True, env=env,
    )


# What a sweep builds once its arguments are accepted: the public generators,
# the draw streams the sweep reads, and relations.
SWEEP_WORK = (
    "enumerate_scalar_configs", "sample_scalar_configs", "_scalar_draws", "_sample_draws",
    "_assessment_draws", "induced_relation",
)


def content(r):
    """A relation's space and twin classes: equal for equal relations on one space."""
    return r.universe.outcomes, r.universe.scale, tuple(r.class_of), tuple(r.table)


class TestInducedRelation:
    def test_tiny_binary_total_order(self, tiny_universe):
        rel = induced_by(tiny_universe, partial(binary_utility, a=tiny_assessment(tiny_universe)))
        assert len(tiny_universe) == 3
        by_value = {vt: i for i, vt in enumerate(tiny_universe.value_tuples)}
        best = by_value[(1, 0)]
        both = by_value[(1, 1)]
        worst = by_value[(0, 1)]
        assert rel.at_least(best, both) and not rel.at_least(both, best)
        assert rel.at_least(both, worst) and not rel.at_least(worst, both)
        assert rel.at_least(best, worst) and not rel.at_least(worst, best)

    @pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
    def test_one_key_per_member(self, tiny_universe, extra):
        with pytest.raises(ValueError, match="relation size does not match the universe"):
            induced_relation(tiny_universe, range(len(tiny_universe) + extra))

    def test_reflexive(self, example_binary_relation):
        for i in range(example_binary_relation.size):
            assert example_binary_relation.at_least(i, i)

    def test_worked_example_strict_preference(
        self, example_scenario, example_universe, example_binary_relation
    ):
        i = example_universe.index(example_scenario.lotteries["pi1"].indices)
        j = example_universe.index(example_scenario.lotteries["pi2"].indices)
        assert example_binary_relation.at_least(i, j)
        assert not example_binary_relation.at_least(j, i)


class TestLotteryUniverse:
    @pytest.mark.parametrize(
        "nx, nv", [*itertools.product(range(2, 7), range(2, 7)), (2, 50)]
    )
    def test_members_are_addressed_by_grid_place(self, nx, nv):
        """``index`` gives each member's position.  In the full grid of
        level tuples (``grid_scatter``), each member sits at its place, no
        member at a tuple without the top level, ``grid_holes`` flags
        exactly the places no member holds, and a raise is the member one
        stride on, the member one level higher at one prize; the moves reach
        every place pointwise below.  ``base`` never outgrows the universe, even
        where the full grid is 25 times its size (2 prizes, 50 levels)."""
        labels = ("0", *(f".{v:02d}" for v in range(1, nv - 1)), "1")
        scale = canonical_scale(nv) if nv in axioms.SCALE_LABEL_PRESETS else Scale(labels)
        universe = LotteryUniverse(canonical_outcomes(nx), scale)
        vts = universe.value_tuples
        by_value = {vt: i for i, vt in enumerate(vts)}
        assert [universe.index(vt) for vt in vts] == list(range(len(universe)))
        assert len(universe.base) <= len(universe)
        top, span = nv - 1, nv**nx
        member_at = universe.grid_scatter([*range(len(universe)), None])
        strides = [nv ** (nx - 1 - p) for p in range(nx)]

        def place(levels):
            return sum(map(operator.mul, levels, strides))

        assert member_at.count(None) == top**nx
        assert universe.grid_holes == bytes(0xFF if i is None else 0 for i in member_at)
        for i, vt in enumerate(vts):
            assert member_at[place(vt)] == i
            assert [member_at[place(vt) + s] for s, v in zip(strides, vt) if v < top] == [
                by_value[vt[:p] + (v + 1,) + vt[p + 1:]] for p, v in enumerate(vt) if v < top
            ]
        for vt in vts[::max(1, len(vts) // 5)]:
            reach = 0xFF << 8 * (span - 1 - place(vt))
            for mask, by in universe.grid_moves:
                reach |= (reach & mask) << by
            below = bytearray(span)
            for levels in itertools.product(*(range(v + 1) for v in vt)):
                below[place(levels)] = 0xFF
            assert reach == int.from_bytes(below, "big")

    @pytest.mark.parametrize("levels", [(0, 0, 0), (0, 2), (2, 0, 0, 0), (3, 0, 0), (-1, 2, 0)])
    def test_index_rejects_a_non_member(self, levels):
        universe = LotteryUniverse(canonical_outcomes(3), canonical_scale(3))
        with pytest.raises(ValueError, match="name no member of this universe"):
            universe.index(levels)


    @pytest.mark.parametrize(
        "nx, nv", [*itertools.product(range(2, 5), range(2, 6)), (6, 6)]
    )
    def test_each_member_is_described_once(self, nx, nv):
        """``describe`` gives member i's text as ``#i`` and the member, and a
        second call the same text; the memo holds only the members
        described.  On 6x6 (31,031 members), the first and last alone."""
        universe = LotteryUniverse(canonical_outcomes(nx), canonical_scale(nv))
        described = range(len(universe)) if nx < 6 else (0, len(universe) - 1)
        for i in described:
            text = universe.describe(i)
            assert text == f"#{i}{universe.members[i]}"
            assert universe.describe(i) is text
        assert sorted(universe.descriptions) == list(described)


class TestPreferenceRelation:
    def test_rows_are_the_relation(self, tiny_universe):
        rel = PreferenceRelation(tiny_universe, (0b111, 0b110, 0b110))
        assert rel.rows == [0b111, 0b110, 0b110]
        assert rel.at_least(0, 2) and not rel.at_least(1, 0)
        assert rel.indifferent(1, 2) and not rel.indifferent(0, 1)

    def test_size_must_match_the_universe(self, tiny_universe):
        with pytest.raises(ValueError, match="size"):
            PreferenceRelation(tiny_universe, [0b111, 0b111])

    @pytest.mark.parametrize("row", [0b1000, 0b1111, -1])
    def test_no_bits_past_the_universe(self, tiny_universe, row):
        with pytest.raises(ValueError, match="past the universe"):
            PreferenceRelation(tiny_universe, [0b111, row, 0b111])

    def test_with_flipped_negates_one_entry(self, tiny_universe):
        rel = PreferenceRelation(tiny_universe, [0b111, 0b110, 0b110])
        flipped = rel.with_flipped(1, 0)
        assert flipped.rows == [0b111, 0b111, 0b110]
        assert rel.rows == [0b111, 0b110, 0b110]
        with pytest.raises(ValueError, match="past the universe"):
            rel.with_flipped(0, 3)

    @pytest.mark.parametrize("entry", [(-1, 0), (0, -1), (-3, -3), (3, 0)])
    def test_with_flipped_rejects_indices_outside_the_relation(self, tiny_universe, entry):
        rel = PreferenceRelation(tiny_universe, [0b111, 0b110, 0b110])
        with pytest.raises(ValueError, match="outside a relation of 3 members"):
            rel.with_flipped(*entry)

    def test_with_flipped_moves_the_flipped_members_to_classes_of_their_own(
        self, example_binary_relation
    ):
        rel = example_binary_relation
        # Two members of a class of at least three.
        big = max(range(len(rel.table)), key=rel.class_of.count)
        i, j = [m for m in range(rel.size) if rel.class_of[m] == big][:2]
        assert rel.class_of.count(big) >= 3
        flipped = rel.with_flipped(i, j)
        assert not flipped.at_least(i, j) and flipped.at_least(j, i)
        assert len(flipped.table) == len(rel.table) + 2
        assert all(
            flipped.class_of.count(flipped.class_of[m]) == 1 for m in (i, j)
        )
        # Flipped back, the relation is the original one with i and j split off.
        assert flipped.with_flipped(i, j).rows == rel.rows


class TestClassForm:
    """Every check runs on the twin classes and the class table."""

    @staticmethod
    def wide_relation():
        universe = LotteryUniverse(canonical_outcomes(4), canonical_scale(5))
        assessment = enumerate_assessments(universe.outcomes, universe.scale)[40]
        return induced_by(universe, partial(binary_utility, a=assessment))

    def test_one_class_per_distinct_utility(self, example_scenario, example_universe):
        evaluate = partial(binary_utility, a=example_scenario.assessment)
        rel = induced_by(example_universe, evaluate)
        values = [evaluate(m) for m in example_universe.members]
        assert len(rel.table) == len(set(values)) <= 2 * len(example_universe.scale) - 1
        assert rel.first_members == sorted(values.index(v) for v in set(values))

    @pytest.mark.parametrize("fault", [None, (0, 0)], ids=["sound", "faulted"])
    def test_batteries_never_build_rows(self, fault):
        rel = self.wide_relation()
        if fault is not None:
            rel = rel.with_flipped(*fault)
        for battery in FAMILIES.values():
            axioms._run_battery(rel, battery)
        assert "rows" not in rel.__dict__


class TestTotalPreorder:
    def test_induced_relations_pass(self, example_binary_relation, example_pessimistic_relation):
        assert check_total_preorder(example_binary_relation).satisfied
        assert check_total_preorder(example_pessimistic_relation).satisfied

    def test_empty_relation_fails_reflexivity(self, tiny_universe):
        rel = PreferenceRelation(tiny_universe, rows_of([[False] * 3 for _ in range(3)]))
        report = check_total_preorder(rel)
        assert not report.satisfied
        assert report.witness == (0, 0)
        assert "reflexivity" in report.detail

    def test_hand_built_intransitivity(self, tiny_universe):
        holds = [
            [True, True, False],
            [False, True, True],
            [True, False, True],
        ]
        report = check_total_preorder(PreferenceRelation(tiny_universe, rows_of(holds)))
        assert not report.satisfied
        assert "transitivity" in report.detail
        i, j, k = report.witness
        assert holds[i][j] and holds[j][k] and not holds[i][k]

    def test_incompleteness(self, tiny_universe):
        holds = [
            [True, False, False],
            [False, True, True],
            [False, True, True],
        ]
        report = check_total_preorder(PreferenceRelation(tiny_universe, rows_of(holds)))
        assert not report.satisfied
        assert "completeness" in report.detail


class TestUncertaintyAttitude:
    def test_pessimistic_is_averse(self, example_pessimistic_relation):
        assert check_uncertainty_attitude(example_pessimistic_relation, "aversion").satisfied

    def test_optimistic_is_attracted(self, example_scenario, example_universe):
        rel = induced_by(
            example_universe, partial(optimistic_utility, cfg=example_scenario.pessimistic_config)
        )
        assert check_uncertainty_attitude(rel, "attraction").satisfied

    def test_binary_violates_both_with_anomaly_witness(self, anomaly_scenario):
        universe = LotteryUniverse(anomaly_scenario.outcomes, anomaly_scenario.scale_v)
        rel = induced_by(universe, partial(binary_utility, a=anomaly_scenario.assessment))
        report = check_uncertainty_attitude(rel, "aversion")
        assert not report.satisfied
        smaller, larger = report.witness
        pair = {universe.value_tuples[smaller], universe.value_tuples[larger]}
        assert pair == {(0, 1), (1, 1)}
        assert not check_uncertainty_attitude(rel, "attraction").satisfied

    def test_witness_replays(self, example_scenario, example_universe):
        rel = induced_by(example_universe, partial(binary_utility, a=example_scenario.assessment))
        report = check_uncertainty_attitude(rel, "aversion")
        assert not report.satisfied
        i, j = report.witness
        a, b = example_universe.value_tuples[i], example_universe.value_tuples[j]
        assert all(x <= y for x, y in zip(a, b))
        assert not rel.at_least(i, j)

    def test_unknown_direction_is_rejected(self, example_pessimistic_relation):
        with pytest.raises(ValueError, match="^unknown direction 'neutral'$"):
            check_uncertainty_attitude(example_pessimistic_relation, "neutral")


def test_report_carries_a_witness_iff_violated():
    assert AxiomReport("B1", False, (0, 0)).witness == (0, 0)
    for satisfied, witness in ((True, (0, 0)), (False, None)):
        with pytest.raises(ValueError, match="witness iff it is violated"):
            AxiomReport("B1", satisfied, witness)


def test_unknown_half_is_rejected():
    with pytest.raises(ValueError, match="^unknown half 'middle'$"):
        enumerate_assessments(canonical_outcomes(3), canonical_scale(3), half="middle")


class TestSubstitutability:
    def test_induced_relations_pass(self, example_binary_relation, example_pessimistic_relation):
        assert check_substitutability(example_binary_relation).satisfied
        assert check_substitutability(example_pessimistic_relation).satisfied

    def test_equated_strict_pair_violates(self, small_universe):
        rel = induced_by(small_universe, partial(binary_utility, a=tiny_assessment(small_universe)))
        by_value = {vt: i for i, vt in enumerate(small_universe.value_tuples)}
        worst = by_value[(0, 2)]
        both = by_value[(2, 2)]
        broken = rel.with_flipped(worst, both)
        report = check_substitutability(broken)
        assert not report.satisfied
        i, j, k, wa, wb, m1, m2 = report.witness
        assert broken.indifferent(i, j)
        assert not broken.indifferent(m1, m2)

    @pytest.mark.parametrize(
        "shape", [(2, 3), (3, 4), (4, 5), (6, 6)], ids=["2x3", "3x4", "4x5", "6x6"]
    )
    def test_generator_maps_are_their_mixtures(self, shape):
        """Map (k, wa, wb) sends member i to its mixture with point mass k."""
        universe = LotteryUniverse(canonical_outcomes(shape[0]), canonical_scale(shape[1]))
        level, members = universe.scale.level, universe.members
        by_value = {vt: i for i, vt in enumerate(universe.value_tuples)}
        top = len(universe.scale) - 1
        assert len(universe.generators) == len(set(universe.generators)) == (2 * top - 1) * shape[0]
        for k, wa, wb in universe.generators:
            f = universe.generator_map(k, wa, wb)
            assert k in universe.point_masses
            assert len(set(f)) > 1, f"map {(k, wa, wb)} is constant"
            assert f == [
                by_value[mixture([(level(wa), m), (level(wb), members[k])]).indices]
                for m in members
            ]

    def test_every_generator_that_moves_members_is_needed(self):
        """Per generator map, the finest equivalence joining some pair that
        every other generator keeps and this one breaks: B3 fails there,
        named by this map."""
        universe = LotteryUniverse(canonical_outcomes(3), canonical_scale(3))
        n = len(universe)
        maps = {key: universe.generator_map(*key) for key in universe.generators}
        for key, f in maps.items():
            others = [g for other, g in maps.items() if other != key]
            for pair in itertools.combinations(range(n), 2):
                block = congruence(n, others, pair)
                if any(block[f[i]] != block[f[block[i]]] for i in range(n)):
                    break
            else:
                pytest.fail(f"generator {key} is implied by the others")
            rel = induced_relation(universe, block)
            assert check_substitutability(rel).witness[2:5] == key

    @pytest.fixture(scope="class")
    def wide_binary_relation(self):
        """The 6x6 relation of the last binary assessment, its grid tables built."""
        universe = LotteryUniverse(canonical_outcomes(6), canonical_scale(6))
        assessment = enumerate_assessments(universe.outcomes, universe.scale)[-1]
        rel = induced_by(universe, partial(binary_utility, a=assessment))
        # Built here, so the test times the check alone.
        universe.grid_scatter, universe.grid_caps
        return rel

    @pytest.mark.parametrize("end", ["first", "last"])
    def test_violated_6x6_stays_fast(self, wide_binary_relation, end):
        """One entry flipped between two members of the largest class: a
        violation, named and replayable, in well under a second."""
        rel = wide_binary_relation
        largest = max(set(rel.class_of), key=rel.class_of.count)
        in_class = [i for i, c in enumerate(rel.class_of) if c == largest]
        broken = rel.with_flipped(*(in_class[:2] if end == "first" else in_class[-2:]))
        start = time.perf_counter()
        report = check_substitutability(broken)
        assert time.perf_counter() - start < 1
        assert not report.satisfied
        i, j, k, wa, wb, m1, m2 = report.witness
        assert broken.indifferent(i, j)
        assert m1 != m2 and not broken.indifferent(m1, m2)
        universe = rel.universe
        level, members = universe.scale.level, universe.members
        for x, m in ((i, m1), (j, m2)):
            assert mixture([(level(wa), members[x]), (level(wb), members[k])]) == members[m]

    def test_grid_tables_stay_within_the_maps_they_replace(self):
        """2 prizes x 300 levels, whose full grid is 150 times the universe:
        building the grid tables and deciding substitutability (every
        mixture tested, none failing) and attitude peaks below one pointer
        per member per generator, what keeping every generator's member map
        took."""
        scale = Scale(("0", *(f".{v:03d}" for v in range(1, 299)), "1"))
        universe = LotteryUniverse(canonical_outcomes(2), scale)
        rel = induced_relation(universe, [(299 - vt[-1]) // 2 for vt in universe.value_tuples])
        tracemalloc.start()
        try:
            assert check_substitutability(rel).satisfied
            assert check_uncertainty_attitude(rel, "aversion").satisfied
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        closed = [row | 1 << a for a, row in enumerate(rel.indifference)]
        assert len(rel.grid_layouts) == 1 and checker._suspects(rel, closed, set(closed)) == []
        assert peak < 8 * len(universe) * len(universe.generators)


def congruence(n, maps, pair):
    """Per member, the first member of its block in the finest equivalence
    that joins ``pair`` and that every map in ``maps`` keeps."""
    parent = list(range(n))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    todo = [pair]
    while todo:
        a, b = todo.pop()
        ra, rb = root(a), root(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
            todo.extend((f[a], f[b]) for f in maps)
    return [root(x) for x in range(n)]


class TestContinuity:
    def test_pessimistic_scalar_continuity(self, example_pessimistic_relation):
        assert check_continuity(example_pessimistic_relation, "A4-").satisfied

    def test_optimistic_scalar_continuity(self, example_scenario, example_universe):
        rel = induced_by(
            example_universe, partial(optimistic_utility, cfg=example_scenario.pessimistic_config)
        )
        assert check_continuity(rel, "A4+").satisfied

    def test_mixed_assessment_halves(self, example_binary_relation):
        assert check_continuity(example_binary_relation, "B4").satisfied
        assert not check_continuity(example_binary_relation, "B4-").satisfied
        assert not check_continuity(example_binary_relation, "B4+").satisfied

    def test_best_half_assessment_satisfies_weakened_form(self, small_universe):
        assessment = enumerate_assessments(
            small_universe.outcomes, small_universe.scale, half="best"
        )[0]
        rel = induced_by(small_universe, partial(binary_utility, a=assessment))
        assert check_continuity(rel, "B4-").satisfied

    def test_unknown_variant(self, example_binary_relation):
        with pytest.raises(ValueError, match="variant"):
            check_continuity(example_binary_relation, "B5")


class TestQualitativeMonotonicity:
    def test_binary_relation_passes(self, example_binary_relation):
        assert check_qualitative_monotonicity(example_binary_relation).satisfied

    def test_scalar_relation_ties_break_the_biconditional(self, example_pessimistic_relation):
        # The pessimistic criterion collapses every lottery whose worst
        # prize is fully possible, so it ties standard lotteries the pair
        # order separates strictly.
        report = check_qualitative_monotonicity(example_pessimistic_relation)
        assert not report.satisfied
        ia, ib = report.witness
        assert example_pessimistic_relation.at_least(ia, ib)

    def test_flipped_standard_pair_violates(self, tiny_universe):
        rel = induced_by(tiny_universe, partial(binary_utility, a=tiny_assessment(tiny_universe)))
        by_value = {vt: i for i, vt in enumerate(tiny_universe.value_tuples)}
        best = by_value[(1, 0)]
        both = by_value[(1, 1)]
        broken = rel.with_flipped(best, both).with_flipped(both, best)
        report = check_qualitative_monotonicity(broken)
        assert not report.satisfied


class TestDecomposition:
    @pytest.mark.parametrize("size", range(2, 7))
    def test_binary_relation_decomposes(self, size):
        universe = LotteryUniverse(canonical_outcomes(2), canonical_scale(size))
        rel = induced_by(universe, partial(binary_utility, a=tiny_assessment(universe)))
        assert check_standard_order_decomposition(rel).satisfied

    def test_tiny_case_has_nine_pairs(self, tiny_universe):
        assert len(tiny_universe.standard) == 3
        rel = induced_by(tiny_universe, partial(binary_utility, a=tiny_assessment(tiny_universe)))
        assert check_standard_order_decomposition(rel).satisfied

    def test_flipped_cross_pair_violates(self, small_universe):
        rel = induced_by(small_universe, partial(binary_utility, a=tiny_assessment(small_universe)))
        by_value = {vt: i for i, vt in enumerate(small_universe.value_tuples)}
        in_minus = by_value[(2, 1)]
        in_plus = by_value[(1, 2)]
        broken = rel.with_flipped(in_minus, in_plus)
        report = check_standard_order_decomposition(broken)
        assert not report.satisfied


class TestUniquenessOfStandardEquivalent:
    def test_each_lottery_matches_exactly_one(self, example_scenario, example_universe,
                                               example_binary_relation):
        assessment = example_scenario.assessment
        for i, member in enumerate(example_universe.members):
            partners = [
                s for s in example_universe.standard if example_binary_relation.indifferent(i, s)
            ]
            assert len(partners) == 1
            reduced = reduce_to_standard(member, assessment)
            expected = reduced.as_distribution(example_universe.outcomes).indices
            assert example_universe.value_tuples[partners[0]] == expected


class TestVerifyEntailments:
    def test_small_sweep_is_clean(self, example_scenario, example_universe):
        run = verify_entailments(
            example_universe,
            scalar_config=example_scenario.pessimistic_config,
            assessment=example_scenario.assessment,
            seed=7,
            sample_size=10,
        )
        assert run.unexpected() == []
        assert run.anomaly_exhibited()
        assert run.ok()

    def test_satisfied_axiom_expected_violated_is_unexpected(self):
        run = EntailmentRun([ConfigOutcome("c", "binary", [AxiomReport("A2-", True)])])
        assert run.unexpected() == [("c", "A2-")]

    def test_anomaly_needs_one_binary_config_violating_both_attitudes(self):
        both = [AxiomReport("A2-", False, (0, 1)), AxiomReport("A2+", False, (1, 0))]
        run = EntailmentRun([
            ConfigOutcome("p", "pessimistic", both),
            ConfigOutcome("b1", "binary", [both[0], AxiomReport("A2+", True)]),
            ConfigOutcome("b2", "binary", [AxiomReport("A2-", True), both[1]]),
        ])
        assert not run.anomaly_exhibited()
        assert not run.ok()

    def test_two_outcome_anchor_families_hold(self):
        run = verify_entailments(seed=0, sample_size=0, enumerate_max=(2, 2))
        assert run.ok()
        families = {c.family for c in run.configs}
        assert families == {
            "pessimistic", "optimistic", "binary", "binary-best-half",
            "binary-worst-half",
        }

    def test_fault_injection_is_detected(self, tiny_universe):
        cfg = enumerate_scalar_configs(tiny_universe.outcomes, tiny_universe.scale)[0]
        run = verify_entailments(
            tiny_universe,
            scalar_config=cfg,
            sample_size=0,
            enumerate_max=(2, 2),
            fault=(0, 0),
        )
        assert not run.ok()
        assert ("scenario-pessimistic", "A1-") in run.unexpected()

    def test_fault_outside_the_relation_is_rejected(self, tiny_universe):
        cfg = enumerate_scalar_configs(tiny_universe.outcomes, tiny_universe.scale)[0]
        with pytest.raises(ValueError, match="outside a relation"):
            verify_entailments(
                tiny_universe, scalar_config=cfg, sample_size=0, fault=(-1, 0)
            )

    def test_report_format(self, example_scenario, example_universe):
        run = verify_entailments(
            example_universe,
            assessment=example_scenario.assessment,
            sample_size=0,
            enumerate_max=(2, 2),
        )
        lines = format_report(run).strip().splitlines()
        assert len(lines) == sum(len(c.reports) for c in run.configs)
        first = lines[0].split("\t")
        assert first[0] == "scenario-binary"
        assert first[1] == "B1"
        assert first[2] in ("satisfied", "violated")

    def test_seeded_sample_reproducible(self):
        a = sample_scalar_configs(42, 10)
        b = sample_scalar_configs(42, 10)
        assert [cfg.prize_indices for _, _, cfg in a] == [
            cfg.prize_indices for _, _, cfg in b
        ]
        assert [cfg.scale_map.images for _, _, cfg in a] == [
            cfg.scale_map.images for _, _, cfg in b
        ]

    @pytest.mark.parametrize(
        "given, named", [("scalar_config", "config"), ("assessment", "assessment")]
    )
    def test_scenario_family_needs_a_universe(self, example_scenario, given, named):
        value = {
            "scalar_config": example_scenario.pessimistic_config,
            "assessment": example_scenario.assessment,
        }[given]
        with pytest.raises(ValueError, match=f"required to check the scenario {named}$"):
            verify_entailments(sample_size=0, enumerate_max=(2, 2), **{given: value})

    @pytest.mark.parametrize("given", ["scalar_config", "assessment"])
    @pytest.mark.parametrize(
        "space, error, match",
        [
            pytest.param((2, 3), ValueError, "does not match the configured outcomes",
                         id="other-outcomes"),
            pytest.param((3, 4), ScaleMismatchError, "scale mismatch", id="other-scale"),
        ],
    )
    def test_mismatched_configuration_is_rejected_before_a_relation(
        self, monkeypatch, given, space, error, match
    ):
        universe = LotteryUniverse(canonical_outcomes(3), canonical_scale(3))
        outcomes, scale = canonical_outcomes(space[0]), canonical_scale(space[1])
        value = {
            "scalar_config": enumerate_scalar_configs(outcomes, scale)[0],
            "assessment": enumerate_assessments(outcomes, scale)[0],
        }[given]
        built = []
        monkeypatch.setattr(axioms, "induced_relation", lambda *args: built.append(args))
        with pytest.raises(error, match=match):
            verify_entailments(universe, sample_size=0, enumerate_max=(2, 2), **{given: value})
        assert built == []

    def test_checks_are_reached_by_module_name(self, monkeypatch):
        """Wrappers set on the module attributes see one call per distinct
        relation and need.

        A1-/B1 share one preorder call per relation; each continuity variant
        that some configuration inducing the relation needs is one call, in
        the order the sweep first needs it.
        """
        calls = {"preorder": [], "continuity": []}

        def counting(kind, check):
            def wrapper(r, *args):
                calls[kind].append((r, args))
                return check(r, *args)
            return wrapper

        monkeypatch.setattr(
            axioms, "check_total_preorder", counting("preorder", check_total_preorder)
        )
        monkeypatch.setattr(axioms, "check_continuity", counting("continuity", check_continuity))
        run = verify_entailments(sample_size=0, enumerate_max=(2, 2))
        needs: dict = {}
        for _, family, r in fresh_sweep(0, 0, (2, 2)):
            wanted = needs.setdefault(content(r), [])
            wanted += [a for a in FAMILIES[family] if a in CONTINUITY_VARIANTS and a not in wanted]
        # Every battery starts with the preorder check, so its calls follow
        # the distinct relations in the order the sweep meets them.
        relations = [r for r, _ in calls["preorder"]]
        assert [content(r) for r in relations] == list(needs)
        assert len(relations) == 4 < len(run.configs) == 9
        for key, wanted in needs.items():
            assert [args[0] for r, args in calls["continuity"] if content(r) == key] == wanted
        assert len(calls["continuity"]) == sum(map(len, needs.values()))

    def test_repeated_configurations_are_checked_once_per_call(self, monkeypatch):
        seed, sample_size = 3, 100
        distinct = {content(r) for _, _, r in fresh_sweep(seed, sample_size, (3, 3))}
        kwargs = {"seed": seed, "sample_size": sample_size, "enumerate_max": (3, 3)}
        seen = counting_preorder(monkeypatch)
        run = verify_entailments(**kwargs)
        assert len(seen) == len(distinct) == 84 < len(run.configs)
        assert {content(r) for r in seen} == distinct
        # A reused verdict is copied, never shared between two outcomes.
        assert len({id(c.reports) for c in run.configs}) == len(run.configs)
        # Nothing is kept across calls: the same sweep checks as many relations again.
        assert format_report(verify_entailments(**kwargs)) == format_report(run)
        assert len(seen) == 2 * len(distinct)

    def test_reused_reports_match_a_fresh_check(self, example_scenario, example_universe):
        given = {
            "scalar_config": example_scenario.pessimistic_config,
            "assessment": example_scenario.assessment,
        }
        seed, sample_size = 3, 100
        run = verify_entailments(
            example_universe, seed=seed, sample_size=sample_size, enumerate_max=(3, 3), **given
        )
        fresh = fresh_sweep(seed, sample_size, (3, 3), example_universe, **given)
        assert [c.config_id for c in run.configs] == [cid for cid, _, _ in fresh]
        for config, (_, family, relation) in zip(run.configs, fresh):
            assert config.family == family
            assert config.reports == axioms._run_battery(relation, FAMILIES[family])

    def test_caller_universe_is_checked_on_every_call(
        self, monkeypatch, example_scenario, example_universe
    ):
        kwargs = {
            "scalar_config": example_scenario.pessimistic_config,
            "assessment": example_scenario.assessment,
            "sample_size": 10,
            "enumerate_max": (2, 2),
        }
        seen = counting_preorder(monkeypatch)
        for _ in range(2):
            verify_entailments(example_universe, **kwargs)
        assert sum(r.universe is example_universe for r in seen) == 6

    def test_fault_is_not_reused_by_a_repeat_of_the_first_configuration(self):
        kwargs = {"sample_size": 30, "sample_max_outcomes": 2, "sample_max_levels": 2}
        first_cfg = enumerate_scalar_configs(canonical_outcomes(2), canonical_scale(2))[0]
        assert first_cfg in [cfg for _, _, cfg in sample_scalar_configs(0, 30, 2, 2)]
        clean = verify_entailments(enumerate_max=(2, 2), **kwargs)
        faulted = verify_entailments(enumerate_max=(2, 2), fault=(0, 0), **kwargs)
        first = faulted.configs[0]
        assert first.config_id == "pess-enum-2x2-000"
        assert first.reports[0].witness == (0, 0)
        assert {cid for cid, _ in faulted.unexpected()} == {"pess-enum-2x2-000"}
        assert faulted.configs[1:] == clean.configs[1:]

    def test_fault_is_not_reused_by_another_configuration_with_its_relation(self):
        kwargs = {"sample_size": 0, "enumerate_max": (2, 2)}
        (first_id, _, first), *rest = fresh_sweep(0, 0, (2, 2))
        twins = [cid for cid, _, r in rest if content(r) == content(first)]
        assert twins and first_id not in twins
        clean = verify_entailments(**kwargs)
        faulted = verify_entailments(fault=(0, 0), **kwargs)
        assert faulted.configs[0].reports[0].witness == (0, 0)
        assert {cid for cid, _ in faulted.unexpected()} == {first_id}
        assert faulted.configs[1:] == clean.configs[1:]

    def test_enumeration_past_three_by_three_is_pinned(self):
        """The 4x4 enumeration and a seed-3 sample, as ``scripts/axiom_sweep.py
        --enumerate-to 4 4 --sample 100 --seed 3`` writes them."""
        run = verify_entailments(enumerate_max=(4, 4), sample_size=100, seed=3)
        report = format_report(run).encode("utf-8")
        assert hashlib.sha256(report).hexdigest() == (
            "cb81e3872663f67f5da601fdf9edb56f17616e0aee97bb4f2d4fe941cab3aba0"
        )

    def test_sampler_at_wider_bounds_is_pinned(self):
        """300 samples over up to 4 prizes by 5 levels and no enumeration:
        600 configurations."""
        run = verify_entailments(
            sample_size=300, seed=7, sample_max_outcomes=4, sample_max_levels=5,
            enumerate_max=(1, 1),
        )
        assert len(run.configs) == 600
        report = format_report(run).encode("utf-8")
        assert hashlib.sha256(report).hexdigest() == (
            "68d616dfecd3b8322baea179ea934b14e7cc8293a2d0dcbe2a42189fa9d1ca07"
        )

    def test_a_run_with_no_configurations_has_an_empty_report(self, tmp_path):
        assert format_report(EntailmentRun()) == ""
        assert format_report(verify_entailments(sample_size=0, enumerate_max=(1, 1))) == ""
        done = run_sweep_script(tmp_path, ["--enumerate-to", "1", "1", "--sample", "0"])
        assert "configurations: 0" in done.stdout.splitlines()
        assert (tmp_path / "report.txt").read_text() == ""

    @pytest.mark.parametrize("flip", [(5, 6), (6, 5)])
    def test_off_diagonal_fault_is_reported_with_the_oracle_witness(self, monkeypatch, flip):
        """A flipped entry between two members of one class of the first
        relation: "equal or indifferent" is no equivalence, so B3 walks the
        member maps, one per generator in key order up to the one that breaks
        it, where the sound relation's grid test builds none; its lines name
        the plain-loop oracle's witness."""
        scenario = load_scenario(str(Path(__file__).parents[1] / "scenarios" / "wide_4x5.json"))
        universe = LotteryUniverse(scenario.outcomes, scenario.scale_v)
        cfg = scenario.pessimistic_config
        kwargs = {"scalar_config": cfg, "assessment": scenario.assessment, "seed": 0}
        first = induced_relation(universe, checker.pessimistic_keys(universe, cfg))
        i, j = flip
        assert i != j and first.class_of[i] == first.class_of[j]
        faulted = first.with_flipped(i, j)
        built, generator_map = [], universe.generator_map
        monkeypatch.setattr(
            universe, "generator_map", lambda *g: built.append(g) or generator_map(*g)
        )
        assert check_substitutability(first).satisfied and built == []
        want = oracle_substitutability(faulted)
        assert not want.satisfied and check_substitutability(faulted) == want
        generators = universe.generators
        assert len(built) > 1 and built == generators[:generators.index(want.witness[2:5]) + 1]
        run = verify_entailments(universe, fault=flip, **kwargs)
        head, *rest = run.configs
        assert head.config_id == "scenario-pessimistic"
        for axiom in ("A3-", "B3"):
            (report,) = [r for r in head.reports if r.axiom == axiom]
            assert (report.witness, report.detail) == (want.witness, want.detail)
        assert {cid for cid, _ in run.unexpected()} == {"scenario-pessimistic"}
        assert rest == verify_entailments(universe, **kwargs).configs[1:]

    def test_scenario_relation_with_more_classes_than_a_byte_holds(self):
        """The anchored assessment on 2 prizes x 130 levels ranks each of
        its 259 members apart: the sweep checks that relation as it would
        any other."""
        scale = Scale(("0", *(f".{v:03d}" for v in range(1, 129)), "1"))
        universe = LotteryUniverse(canonical_outcomes(2), scale)
        assessment = tiny_assessment(universe)
        run = verify_entailments(
            universe, assessment=assessment, sample_size=0, enumerate_max=(1, 1)
        )
        relation = induced_relation(universe, checker.binary_keys(universe, assessment))
        assert len(relation.table) == len(universe) > 256
        assert run.configs[0].reports == axioms._run_battery(relation, FAMILIES["binary"])
        assert not run.unexpected() and run.anomaly_exhibited()

    @pytest.mark.parametrize("levels", [128, 129])
    def test_reports_at_the_byte_key_limit_match_a_per_member_battery(self, levels):
        """2 prizes x 128 levels is the widest space whose keys fit a byte
        (binary keys to 254, the anchored assessment's 255 classes, a
        layout more than 248 hold); at 129 levels the keys are folded per
        member.  Either way, the sweep reports as a battery on relations
        built afresh from the public evaluators."""
        scale = Scale(("0", *(f".{v:03d}" for v in range(1, levels - 1)), "1"))
        universe = LotteryUniverse(canonical_outcomes(2), scale)
        identity = ScaleMap(scale, Scale(scale.levels, name="U"), tuple(range(levels)))
        utility = {"x1": levels - 1, "x2": 0}
        cfg = ScalarUtilityConfig.from_indices(universe.outcomes, identity, utility)
        assessment = tiny_assessment(universe)
        run = verify_entailments(
            universe, scalar_config=cfg, assessment=assessment, sample_size=0, enumerate_max=(1, 1)
        )
        families = [
            ("pessimistic", partial(pessimistic_utility, cfg=cfg)),
            ("optimistic", partial(optimistic_utility, cfg=cfg)),
            ("binary", partial(binary_utility, a=assessment)),
        ]
        for config, (family, evaluate) in zip(run.configs, families, strict=True):
            fresh = induced_by(universe, evaluate)
            assert config.reports == axioms._run_battery(fresh, FAMILIES[family])
        keys = checker.binary_keys(universe, assessment)
        assert isinstance(keys, bytes) == (levels <= checker.BYTE_KEY_LEVELS)
        assert len(induced_relation(universe, keys).table) == len(universe) == 2 * levels - 1
        assert not run.unexpected() and run.anomaly_exhibited()

    def test_one_partition_in_two_orders_is_checked_twice(self, monkeypatch, small_universe):
        """The relation memo keys on the whole class table, not the classes alone."""
        cfg = enumerate_scalar_configs(small_universe.outcomes, small_universe.scale)[0]
        keys = checker.member_keys(checker.pessimistic_keys(small_universe, cfg))
        reversed_keys = [-k for k in keys]
        fold = axioms._keys

        # The sweep folds every family's keys here; only the binary fold
        # joins a second set of tables.
        def binary_reversed(universe, tables, second=(), through=()):
            return reversed_keys if second else fold(universe, tables, through=through)

        monkeypatch.setattr(axioms, "_keys", binary_reversed)
        run = verify_entailments(
            small_universe, scalar_config=cfg, assessment=tiny_assessment(small_universe),
            sample_size=0, enumerate_max=(1, 1),
        )
        pessimistic, _, binary = (c.reports for c in run.configs)
        relation = induced_relation(small_universe, reversed_keys)
        assert binary == axioms._run_battery(relation, FAMILIES["binary"])
        # Reversed, the pessimistic order is no longer averse to uncertainty.
        aversion = [r.satisfied for r in (*pessimistic, *binary) if r.axiom == "A2-"]
        assert aversion == [True, False]

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"sample_size": -5}, "sample_size=-5 must be at least 0"),
            ({"sample_max_outcomes": 1}, "sample_max_outcomes=1 must be at least 2"),
            ({"sample_max_levels": 7}, "sample_max_levels=7: no canonical scale"),
            ({"sample_max_levels": 1}, "sample_max_levels=1: no canonical scale"),
            ({"enumerate_max": (3, 7)}, r"enumerate_max=\(3, 7\): no canonical scale of size 7"),
        ],
    )
    def test_sweep_arguments_are_rejected_before_any_work(self, monkeypatch, kwargs, match):
        work = []
        for name in SWEEP_WORK:
            monkeypatch.setattr(axioms, name, lambda *args, name=name: work.append(name))
        with pytest.raises(ValueError, match=match):
            verify_entailments(**kwargs)
        assert work == []

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"sample_max_outcomes": 8, "sample_max_levels": 6},
             "sampled spaces: 8 outcomes by 6 levels"),
            ({"sample_max_outcomes": 10**9}, "sampled spaces: 1000000000 outcomes by 4 levels"),
            ({"sample_size": 0, "enumerate_max": (7, 6)},
             r"enumerate_max=\(7, 6\): 7 outcomes by 6 levels"),
            ({"sample_size": 0, "enumerate_max": (10**9, 2)},
             r"enumerate_max=\(1000000000, 2\): 1000000000 outcomes by 2 levels"),
        ],
        ids=["sampled", "sampled-huge", "enumerated", "enumerated-huge"],
    )
    def test_spaces_over_the_enumeration_limit_are_rejected_before_any_work(
        self, monkeypatch, kwargs, match
    ):
        work = []
        for name in SWEEP_WORK:
            monkeypatch.setattr(axioms, name, lambda *args, name=name: work.append(name))
        with pytest.raises(BoundExceededError, match=f"^{match} are over the enumeration limit"):
            verify_entailments(**kwargs)
        assert work == []

    @pytest.mark.parametrize("enumerate_max", [(1, 1), (1, 7), (7, 1), (0, -3)])
    def test_enumerate_max_below_two_means_no_enumeration(self, enumerate_max):
        run = verify_entailments(seed=1, sample_size=3, enumerate_max=enumerate_max)
        assert [c.config_id for c in run.configs] == [
            f"{p}-sample-{i:03d}" for i in range(3) for p in ("pess", "opt")
        ]

    def test_no_sample_draws_nothing(self, monkeypatch, tiny_universe):
        """A sweep with no sample seeds no draw stream."""
        monkeypatch.setattr(axioms, "_sample_draws", lambda *args: pytest.fail("drew"))
        run = verify_entailments(tiny_universe, sample_size=0)
        assert run.configs and not any("sample" in c.config_id for c in run.configs)

    @pytest.mark.parametrize(
        "argv",
        [["--sample", "-5"], ["--max-outcomes", "1"], ["--max-levels", "7"],
         ["--enumerate-to", "3", "7"]],
        ids=["sample", "max-outcomes", "max-levels", "enumerate-to"],
    )
    def test_sweep_script_rejects_bad_arguments_in_one_line(self, tmp_path, argv):
        done = run_sweep_script(tmp_path, argv)
        assert done.returncode == 1
        assert done.stdout == ""
        assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: ")
        assert not (tmp_path / "report.txt").exists()

    def test_sweep_script_fails_a_run_without_the_anomaly_pair(self, tmp_path):
        done = run_sweep_script(tmp_path, ["--enumerate-to", "1", "7", "--sample", "2"])
        assert done.returncode == 1
        lines = done.stdout.splitlines()
        assert "anomaly pair exhibited: False" in lines
        assert "no mixed assessment violating both attitude axioms" in lines
        assert "all expected outcomes hold" not in lines

    def test_sweep_script_rejects_a_space_over_the_enumeration_limit(self, tmp_path):
        argv = ["--max-outcomes", "8", "--max-levels", "6", "--sample", "50",
                "--enumerate-to", "1", "1"]
        done = run_sweep_script(tmp_path, argv)
        assert done.returncode == 3
        assert done.stdout == ""
        assert done.stderr == (
            "error: sampled spaces: 8 outcomes by 6 levels are over the enumeration "
            "limit of 200000 lotteries\n"
        )
        assert not (tmp_path / "report.txt").exists()

    def test_caller_universe_is_not_retained(self, example_scenario):
        universe = LotteryUniverse(example_scenario.outcomes, example_scenario.scale_v)
        alive = weakref.ref(universe)
        verify_entailments(
            universe,
            scalar_config=example_scenario.pessimistic_config,
            assessment=example_scenario.assessment,
            sample_size=10,
            enumerate_max=(2, 2),
        )
        del universe
        gc.collect()
        assert alive() is None

    def test_expectations_are_the_family_table(self):
        run = verify_entailments(seed=0, sample_size=0, enumerate_max=(2, 2))
        for config in run.configs:
            assert config.expectations is FAMILIES[config.family]

    def test_enumerated_config_counts(self):
        outcomes = canonical_outcomes(3)
        scale = canonical_scale(3)
        configs = enumerate_scalar_configs(outcomes, scale)
        assert len(configs) == 7
        assessments = enumerate_assessments(outcomes, scale)
        assert len(assessments) == 5

    @pytest.mark.parametrize("nx,nv", [(2, 4), (3, 4)])
    def test_binary_battery_at_four_levels(self, nx, nv):
        universe = LotteryUniverse(canonical_outcomes(nx), canonical_scale(nv))
        for assessment in enumerate_assessments(universe.outcomes, universe.scale):
            rel = induced_by(universe, partial(binary_utility, a=assessment))
            assert check_total_preorder(rel).satisfied
            assert check_qualitative_monotonicity(rel).satisfied
            assert check_substitutability(rel).satisfied
            assert check_continuity(rel, "B4").satisfied


def replay_witness(rel, report):
    """Re-evaluate a violated report's witness against the raw relation."""
    universe = rel.universe
    at_least = rel.at_least
    axiom = report.axiom
    w = report.witness
    if axiom in ("A1-", "B1"):
        if "reflexivity" in report.detail:
            i, j = w
            return i == j and not at_least(i, i)
        if "transitivity" in report.detail:
            i, j, k = w
            return at_least(i, j) and at_least(j, k) and not at_least(i, k)
        i, j = w
        return not at_least(i, j) and not at_least(j, i)
    if axiom in ("A2-", "A2+"):
        i, j = w
        a, b = universe.value_tuples[i], universe.value_tuples[j]
        if axiom == "A2-":
            premise = all(x <= y for x, y in zip(a, b))
        else:
            premise = all(x >= y for x, y in zip(a, b))
        return premise and not at_least(i, j)
    if axiom in ("A3-", "B3"):
        i, j, k, wa, wb, m1, m2 = w
        vt = universe.value_tuples
        by_value = {t: m for m, t in enumerate(vt)}

        def mix(w1, t1, w2, t2):
            return by_value[tuple(max(min(w1, x), min(w2, y)) for x, y in zip(t1, t2))]

        return (
            rel.indifferent(i, j)
            and mix(wa, vt[i], wb, vt[k]) == m1
            and mix(wa, vt[j], wb, vt[k]) == m2
            and not rel.indifferent(m1, m2)
        )
    if axiom in ("A4-", "A4+", "B4", "B4-", "B4+"):
        (src,) = w
        top = len(universe.scale) - 1
        targets = [
            i for i, l, m in standard_members(universe)
            if not axiom.endswith("-") or l == top
            if not axiom.endswith("+") or m == top
        ]
        return not any(rel.indifferent(src, t) for t in targets)
    if axiom == "B2":
        ia, ib = w
        info = {i: (l, m) for i, l, m in standard_members(universe)}
        la, ma = info[ia]
        lb, mb = info[ib]
        top = len(universe.scale) - 1
        return at_least(ia, ib) != pair_ge_indices(la, ma, lb, mb, top)
    raise AssertionError(f"no replay rule for {axiom}")


def naive_substitutability_holds(rel):
    """Direct quantification, independent of the production checker."""
    universe = rel.universe
    vt = universe.value_tuples
    by_value = {t: m for m, t in enumerate(vt)}
    n = rel.size
    scale_top = len(universe.scale) - 1
    pairs = [(i, scale_top) for i in range(scale_top + 1)]
    pairs.extend((scale_top, j) for j in range(scale_top - 1, -1, -1))
    for i in range(n):
        for j in range(i + 1, n):
            if not rel.indifferent(i, j):
                continue
            for wa, wb in pairs:
                for k in range(n):
                    m1 = by_value[
                        tuple(max(min(wa, x), min(wb, y)) for x, y in zip(vt[i], vt[k]))
                    ]
                    m2 = by_value[
                        tuple(max(min(wa, x), min(wb, y)) for x, y in zip(vt[j], vt[k]))
                    ]
                    if m1 != m2 and not rel.indifferent(m1, m2):
                        return False
    return True


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_substitutability_matches_naive_oracle(data):
    universe = LotteryUniverse(canonical_outcomes(2), canonical_scale(3))
    assessment = enumerate_assessments(universe.outcomes, universe.scale)[0]
    rel = induced_by(universe, partial(binary_utility, a=assessment))
    n = rel.size
    flips = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=0,
            max_size=4,
        )
    )
    for i, j in flips:
        rel = rel.with_flipped(i, j)
    assert check_substitutability(rel).satisfied == naive_substitutability_holds(rel)


def draw_flipped_relation(data):
    """A binary-induced relation on 2x3 with one to three entries flipped."""
    universe = LotteryUniverse(canonical_outcomes(2), canonical_scale(3))
    assessment = enumerate_assessments(universe.outcomes, universe.scale)[0]
    rel = induced_by(universe, partial(binary_utility, a=assessment))
    n = rel.size
    flips = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=1,
            max_size=3,
        )
    )
    for i, j in flips:
        rel = rel.with_flipped(i, j)
    return rel


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_violated_reports_always_replay(data):
    rel = draw_flipped_relation(data)
    reports = [
        check_total_preorder(rel),
        check_uncertainty_attitude(rel, "aversion"),
        check_uncertainty_attitude(rel, "attraction"),
        check_substitutability(rel),
        check_qualitative_monotonicity(rel),
    ]
    reports.extend(check_continuity(rel, v) for v in ("A4-", "A4+", "B4", "B4-", "B4+"))
    for report in reports:
        if report.satisfied:
            assert report.witness is None
        else:
            assert report.witness is not None
            assert replay_witness(rel, report), (report.axiom, report.witness)


@pytest.mark.parametrize("size", range(2, 9))
@pytest.mark.parametrize("expected", [pair_ge_indices, standard_decomposition])
def test_standard_orders_are_chains(size, expected):
    """The universe holds the standard member of each binary rank r, with
    weights (min(r, top), min(2 * top - r, top)), and each expected order
    on standard lotteries orders every standard pair as their ranks do."""
    scale = Scale(tuple(f".{v}" if 0 < v < size - 1 else str(v // (size - 1)) for v in range(size)))
    universe = LotteryUniverse(canonical_outcomes(3), scale)
    top = size - 1
    weights = {i: (l, m) for i, l, m in standard_members(universe)}
    assert len(universe.standard) == len(weights) == 2 * size - 1
    ranked = [(weights[i], r) for r, i in enumerate(universe.standard)]
    assert all(w == (min(r, top), min(2 * top - r, top)) for w, r in ranked)
    for (la, ma), ra in ranked:
        for (lb, mb), rb in ranked:
            assert expected(la, ma, lb, mb, top) == (ra >= rb)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_monotonicity_and_decomposition_agree(data):
    """B2 and B2-decomposition state one order on standard lotteries."""
    rel = draw_flipped_relation(data)
    b2 = check_qualitative_monotonicity(rel)
    union = check_standard_order_decomposition(rel)
    assert (b2.satisfied, b2.witness) == (union.satisfied, union.witness)


def test_scalar_criteria_are_binary_on_one_half():
    """The pessimistic key is n∘h[2 top - r], r the binary rank under the
    best-half assessment <top, h⁻(n(u(x)))>, and the optimistic key is
    h[r], r the rank under the worst-half assessment <h⁻(u(x)), top>, where
    h⁻(w) is the highest level h sends to at most w: on every member, for
    every enumerated configuration on 2..5 prizes by 2..5 levels.  The
    scalar keys come from the plain-loop oracles."""
    checked = 0
    for prizes, levels in itertools.product(range(2, 6), repeat=2):
        universe = LotteryUniverse(canonical_outcomes(prizes), canonical_scale(levels))
        top = levels - 1
        for cfg in enumerate_scalar_configs(universe.outcomes, universe.scale):
            h, u_top = cfg.scale_map.images, cfg.utility_scale.top_index
            nh = [u_top - w for w in h]

            def below(w):
                return max(v for v in range(levels) if h[v] <= w)

            u = cfg.prize_indices
            for oracle, pairs, read in [
                (pessimistic_key, [(top, below(u_top - w)) for w in u], lambda r: nh[2 * top - r]),
                (optimistic_key, [(below(w), top) for w in u], lambda r: h[r]),
            ]:
                half = BinaryUtilityAssessment(cfg.outcomes, universe.scale, tuple(pairs), False)
                ranks = member_keys(binary_keys(universe, half))
                assert [read(r) for r in ranks] == [oracle(m, cfg) for m in universe.members]
            checked += 1
    assert checked == 1131


class TestCounterexampleSearch:
    def test_tiny_space_completes(self, tiny_universe):
        cfg = enumerate_scalar_configs(tiny_universe.outcomes, tiny_universe.scale)[0]
        assessment = tiny_assessment(tiny_universe)
        result = search_pair_counterexample(tiny_universe, cfg, assessment)
        assert result.pairs_checked == 3
        assert "no witness found" in result.summary() or "witness found" in result.summary()

    def test_three_outcome_search_is_deterministic(self):
        universe = LotteryUniverse(canonical_outcomes(3), canonical_scale(3))
        cfg = enumerate_scalar_configs(universe.outcomes, universe.scale)[-1]
        assessment = enumerate_assessments(universe.outcomes, universe.scale)[1]
        first = search_pair_counterexample(universe, cfg, assessment)
        second = search_pair_counterexample(universe, cfg, assessment)
        assert first == second
        assert first.pairs_checked == 19 * 18 // 2 or first.found
        assert "scale (|X|=3, |V|=3)" in first.summary()
