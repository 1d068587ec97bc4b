"""The class-table checks against the plain-loop reference oracles.

Every check must return the same report as its oracle, witness and detail
included, on total preorders, product orders and relations with a few
entries flipped.  Together these reach both of substitutability's grid
tests (one map of blocks where "equal or indifferent" is an equivalence on
one byte layout, the class pairs each mixture moves otherwise) and compare
their decision and witness with the oracle's, which tries the mixtures
with a point mass first and then every weight pair and companion.
Substitutability is also compared on faulted relations over the 4x4 and
4x5 universes.  A check names its report by the B axiom; relabeled for
the A axiom, as the entailment battery does, it must match the oracle
asked for that axiom.  Relations whose twins are split into classes of
their own, or rebuilt from their rows, must report exactly as the
relation they came from.
"""

import hashlib
import itertools
import operator
import random
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import axiom_oracles as oracle
from posdec import axioms, checker
from posdec.axioms import (
    canonical_outcomes,
    canonical_scale,
    enumerate_assessments,
    enumerate_scalar_configs,
    sample_scalar_configs,
)
from posdec.checker import (
    BYTE_KEY_LEVELS,
    CONTINUITY_VARIANTS,
    AxiomReport,
    LotteryUniverse,
    binary_keys,
    check_continuity,
    check_qualitative_monotonicity,
    check_substitutability,
    check_total_preorder,
    check_uncertainty_attitude,
    induced_relation,
    member_keys,
    optimistic_keys,
    pessimistic_keys,
)
from posdec.cli import load_scenario
from posdec.lotteries import OutcomeSet
from posdec.scales import Scale
from posdec.search import search_pair_counterexample
from posdec.utilities import (
    binary_term_tables,
    binary_utility,
    optimistic_utility,
    pessimistic_utility,
    scalar_term_tables,
)

SHAPES = ((3, 3), (3, 4), (2, 5))
UNIVERSES = {
    shape: LotteryUniverse(canonical_outcomes(shape[0]), canonical_scale(shape[1]))
    for shape in SHAPES
}


def fields(report):
    return report.axiom, report.satisfied, report.witness, report.detail


def relabelled(report, axiom_id):
    """The report under another axiom's name, as the battery relabels it."""
    return AxiomReport(axiom_id, report.satisfied, report.witness, report.detail)


def closed_sets(rel):
    """Each class with the classes indifferent to it, as B3 builds them."""
    return [row | 1 << a for a, row in enumerate(rel.indifference)]


def grid_suspects(rel):
    """B3's block test on a relation whose "equal or indifferent" is an
    equivalence on one layout: the first generator that breaks it, if any."""
    closed = closed_sets(rel)
    generator = checker._blocks_break(rel, closed)
    return [] if generator is None else [generator]


def pair_suspects(rel):
    """B3's pair test, on any relation: the first generator that breaks
    "equal or indifferent", if any."""
    generator = checker._pairs_break(rel, closed_sets(rel))
    return [] if generator is None else [generator]


def map_breaks(rel, f, closed):
    """Whether the member map f sends two indifferent members to members
    neither equal nor indifferent, tried on every two of its (class, image
    class) pairs."""
    cls, ind = rel.class_of, rel.indifference
    groups = set(zip(cls, map(cls.__getitem__, f)))
    return any(ind[a] >> b & 1 and not closed[c] >> d & 1 for a, c in groups for b, d in groups)


def naive_matrix(universe, evaluate):
    values = [evaluate(m) for m in universe.members]
    return [[a >= b for b in values] for a in values]


@st.composite
def relations(draw):
    """A relation induced by random integer keys, with 0-3 entries flipped."""
    universe = UNIVERSES[draw(st.sampled_from(SHAPES))]
    n = len(universe)
    keys = draw(st.lists(st.integers(0, draw(st.integers(1, 6))), min_size=n, max_size=n))
    evaluate = lambda m: keys[universe.index(m.indices)]  # noqa: E731
    rel = induced_relation(universe, map(evaluate, universe.members))
    # Diagonal flips leave members indifferent to nothing (class -1).
    entry = st.one_of(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        st.integers(0, n - 1).map(lambda i: (i, i)),
    )
    flips = draw(st.lists(entry, max_size=3))
    for i, j in flips:
        rel = rel.with_flipped(i, j)
    return rel, evaluate, flips


@settings(max_examples=150, deadline=None)
@given(relations())
def test_checks_match_oracles(case):
    rel, evaluate, flips = case
    if not flips:
        reference = oracle.induced_relation(rel.universe, evaluate)
        assert oracle.matrix_of(rel) == oracle.matrix_of(reference)
        assert rel.rows == reference.rows
    for axiom_id in ("A1-", "B1"):
        assert fields(relabelled(check_total_preorder(rel), axiom_id)) == fields(
            oracle.check_total_preorder(rel, axiom_id)
        )
    for direction in ("aversion", "attraction"):
        report = fields(check_uncertainty_attitude(rel, direction))
        assert report == fields(oracle.check_uncertainty_attitude(rel, direction))
        assert report == fields(oracle.check_uncertainty_attitude_by_steps(rel, direction))
    for axiom_id in ("A3-", "B3"):
        report = fields(relabelled(check_substitutability(rel), axiom_id))
        assert report == fields(oracle.check_substitutability(rel, axiom_id=axiom_id))
        assert report == fields(oracle.check_substitutability_by_generators(rel, axiom_id))
    assert_standard_orders_match_oracles(rel)


def check_reports(rel):
    """The report of every check of the batteries on ``rel``."""
    return [
        check_total_preorder(rel),
        check_substitutability(rel),
        check_qualitative_monotonicity(rel),
        *(check_uncertainty_attitude(rel, d) for d in ("aversion", "attraction")),
        *(check_continuity(rel, v) for v in CONTINUITY_VARIANTS),
    ]


def assert_holding_reports_are_shared(rel):
    """Each check that holds on ``rel`` returns its axiom's report from
    ``checker.HOLDS``, equal field for field to a fresh one; returns the
    axioms that hold."""
    held = [report for report in check_reports(rel) if report.satisfied]
    for report in held:
        assert report is checker.HOLDS[report.axiom]
        assert fields(report) == fields(AxiomReport(report.axiom, True))
    return {report.axiom for report in held}


@settings(max_examples=150, deadline=None)
@given(relations())
def test_holding_reports_are_shared(case):
    """On the oracle cases, a check that holds returns its axiom's shared
    report.  A battery renames a twin's holding report to the shared one,
    and a violated one to a fresh report."""
    rel = case[0]
    assert_holding_reports_are_shared(rel)
    for battery in (("B1", "A1-", "B3", "A3-"), ("A1-", "B1", "A3-", "B3")):
        done = axioms._run_battery(rel, battery)
        for checked, renamed, axiom in zip(done[::2], done[1::2], battery[1::2]):
            assert fields(renamed) == fields(relabelled(checked, axiom))
            assert (renamed is checker.HOLDS[axiom]) == checked.satisfied
            assert renamed is not checked


def test_family_relations_share_every_holding_report():
    """On the relations of every family to 3 prizes by 3 levels, where
    each check holds somewhere, a check that holds returns its axiom's
    shared report."""
    universe = UNIVERSES[(3, 3)]
    space = universe.outcomes, universe.scale
    keys = [
        *(fold(universe, cfg) for cfg in enumerate_scalar_configs(*space)
          for fold in (pessimistic_keys, optimistic_keys)),
        *(binary_keys(universe, a) for half in (None, "best", "worst")
          for a in enumerate_assessments(*space, half)),
    ]
    held = set().union(*(assert_holding_reports_are_shared(induced_relation(universe, k))
                         for k in keys))
    assert held == set(checker.HOLDS) - {"A1-", "A3-"}


def assert_standard_orders_match_oracles(rel):
    """B2 reports as the oracle's scan of every standard pair, and its
    decomposition fails on the same pair; every continuity variant reports
    as the oracle's scan of its sources.  Returns whether B2 holds."""
    report = fields(check_qualitative_monotonicity(rel))
    assert report == fields(oracle.check_qualitative_monotonicity(rel))
    assert fields(oracle.check_standard_order_decomposition(rel))[1:3] == report[1:3]
    for variant in CONTINUITY_VARIANTS:
        assert fields(check_continuity(rel, variant)) == fields(oracle.check_continuity(rel, variant))
    return report[1]


def every_report(rel):
    """Every check's report, each continuity variant's matched against
    the oracle's."""
    continuity = [fields(check_continuity(rel, v)) for v in CONTINUITY_VARIANTS]
    assert continuity == [fields(oracle.check_continuity(rel, v)) for v in CONTINUITY_VARIANTS]
    checks = [
        check_total_preorder,
        partial(check_uncertainty_attitude, direction="aversion"),
        partial(check_uncertainty_attitude, direction="attraction"),
        check_substitutability,
        check_qualitative_monotonicity,
        oracle.check_standard_order_decomposition,
    ]
    return [fields(check(rel)) for check in checks] + continuity


@settings(max_examples=80, deadline=None)
@given(relations(), st.data())
def test_split_classes_give_the_same_reports(case, data):
    """Twins split into classes of their own, and the relation rebuilt from
    its rows (maximal twin classes), report exactly as the relation does."""
    rel, _, _ = case
    n = rel.size
    entries = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
    split = rel
    for i, j in entries:
        # Flipped twice, an entry is as it was, with i and j split off.
        split = split.with_flipped(i, j).with_flipped(i, j)
    from_rows = oracle.relation_of_rows(rel.universe, rel.rows)
    assert len(from_rows.table) <= len(rel.table) <= len(split.table)
    assert split.rows == rel.rows
    expected = every_report(rel)
    assert every_report(split) == expected
    assert every_report(from_rows) == expected


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_product_orders_match_oracles(data):
    """Reflexive and transitive but incomplete: the completeness witness."""
    universe = UNIVERSES[data.draw(st.sampled_from(SHAPES))]
    n = len(universe)
    keys = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    a, b = data.draw(keys), data.draw(keys)
    holds = [[a[i] >= a[j] and b[i] >= b[j] for j in range(n)] for i in range(n)]
    rel = oracle.relation_of_rows(universe, oracle.rows_of(holds))
    assert fields(check_total_preorder(rel)) == fields(oracle.check_total_preorder(rel))
    assert fields(check_substitutability(rel)) == fields(oracle.check_substitutability(rel))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_induced_relation_matches_naive_matrix(data):
    universe = UNIVERSES[data.draw(st.sampled_from(SHAPES))]
    kind = data.draw(st.sampled_from(("pessimistic", "optimistic", "binary")))
    if kind == "binary":
        assessments = enumerate_assessments(universe.outcomes, universe.scale)
        evaluate = partial(binary_utility, a=data.draw(st.sampled_from(assessments)))
    else:
        configs = enumerate_scalar_configs(universe.outcomes, universe.scale)
        criterion = pessimistic_utility if kind == "pessimistic" else optimistic_utility
        evaluate = partial(criterion, cfg=data.draw(st.sampled_from(configs)))
    rel = induced_relation(universe, map(evaluate, universe.members))
    matrix = naive_matrix(universe, evaluate)
    assert oracle.matrix_of(rel) == matrix
    assert rel.rows == oracle.rows_of(matrix)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_flipped_fold_relations_match_oracles(data):
    """A relation built from a universe's folded keys, with 1-3 entries
    flipped, reports as the oracles do on its flipped copy."""
    universe = UNIVERSES[data.draw(st.sampled_from(SHAPES))]
    kind = data.draw(st.sampled_from((pessimistic_keys, optimistic_keys, binary_keys)))
    if kind is binary_keys:
        given = enumerate_assessments(universe.outcomes, universe.scale)
    else:
        given = enumerate_scalar_configs(universe.outcomes, universe.scale)
    rel = induced_relation(universe, kind(universe, data.draw(st.sampled_from(given))))
    n = rel.size
    flips = data.draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1, max_size=3)
    )
    for i, j in flips:
        rel = rel.with_flipped(i, j)
    assert fields(check_total_preorder(rel)) == fields(oracle.check_total_preorder(rel))
    for direction in ("aversion", "attraction"):
        assert fields(check_uncertainty_attitude(rel, direction)) == fields(
            oracle.check_uncertainty_attitude(rel, direction)
        )
    assert fields(check_substitutability(rel)) == fields(oracle.check_substitutability(rel))
    assert_standard_orders_match_oracles(rel)


def test_mixtures_onto_two_members_indifferent_to_nothing():
    # Every member is in one class except 4 and 9, which are not at least
    # as good as themselves and so are indifferent to nothing (class -1).
    # A map sending two class members onto 4 and 9 breaks indifference,
    # although both results carry class -1.
    universe = UNIVERSES[(3, 3)]
    keys = [0] * len(universe)
    keys[4], keys[9] = 1, 2
    rel = induced_relation(universe, keys)
    rel = rel.with_flipped(4, 4).with_flipped(9, 9)
    report = check_substitutability(rel)
    assert fields(report) == fields(oracle.check_substitutability(rel))
    assert report.witness == (0, 2, 2, 2, 2, 4, 2)
    # Both grid tests name the generator that breaks it first.  Member 0
    # goes to 4, the rest of its class to 9, every other member stays put:
    # the pair finder flags (0, 1).  No class is indifferent to another.
    assert grid_suspects(rel) == pair_suspects(rel) == [(2, 2, 2)]
    onto = [9 if c == rel.class_of[0] else i for i, c in enumerate(rel.class_of)]
    onto[0] = 4
    closed = closed_sets(rel)
    assert all(c.bit_count() == 1 for c in closed)
    assert checker._first_broken_pair(rel, onto, closed) == (0, 1)
    # A map that leaves each class in one group breaks nothing.
    groups = [*dict.fromkeys(zip(rel.class_of, rel.class_of))]
    assert next(checker._breaks(groups, rel.indifference, closed), None) is None


@pytest.mark.parametrize("top_key", [0, 1], ids=["indifferent-to-the-rest", "above-the-rest"])
def test_twins_not_indifferent_to_each_other(top_key):
    """Members 4 and 9 have the same row and column but are not at least as
    good as each other or themselves, so each has a class of its own.
    Above the rest they are indifferent to no one; level with the rest they
    are indifferent to every other member, so indifference is no
    equivalence."""
    universe = UNIVERSES[(3, 3)]
    keys = [0] * len(universe)
    keys[4] = keys[9] = top_key
    rel = induced_relation(universe, keys)
    for entry in itertools.product((4, 9), repeat=2):
        rel = rel.with_flipped(*entry)
    rel = oracle.relation_of_rows(universe, rel.rows)
    assert rel.rows[4] == rel.rows[9] and not oracle.at_least(rel, 4, 9)
    assert rel.class_of[4] != rel.class_of[9]
    assert fields(check_substitutability(rel)) == fields(oracle.check_substitutability(rel))
    assert fields(check_total_preorder(rel)) == fields(oracle.check_total_preorder(rel))


@pytest.mark.parametrize("shape", [(3, 3), (2, 5)])
def test_counterexample_search_matches_pairwise_scan(shape):
    universe = UNIVERSES[shape]
    configs = enumerate_scalar_configs(universe.outcomes, universe.scale)
    assessments = enumerate_assessments(universe.outcomes, universe.scale)
    found = 0
    for cfg in configs:
        pess = [pessimistic_utility(m, cfg) for m in universe.members]
        opt = [optimistic_utility(m, cfg) for m in universe.members]
        for assessment in assessments:
            pairs = [binary_utility(m, assessment) for m in universe.members]
            witness, checked = oracle.search_pair_counterexample_witness(pess, opt, pairs)
            result = search_pair_counterexample(universe, cfg, assessment)
            assert (result.witness, result.pairs_checked) == (witness, checked)
            found += witness is not None
    # Both outcomes occur, so both branches are compared.
    assert 0 < found < len(configs) * len(assessments)


@pytest.mark.parametrize(
    "shape, seed, off_diagonal",
    [pytest.param((4, 4), seed, 3, id=f"4x4-seed{seed}") for seed in range(3)]
    + [pytest.param((4, 5), 0, 0, id="4x5")],
)
def test_faulted_binary_relations_match_oracles(shape, seed, off_diagonal):
    """A binary relation with (0, 0) and a few seeded off-diagonal entries flipped.

    Member 0 is then not at least as good as itself but stays indifferent
    to its class, so the oracle takes its direct scan.
    """
    universe = LotteryUniverse(canonical_outcomes(shape[0]), canonical_scale(shape[1]))
    rng = random.Random(seed)
    assessment = rng.choice(enumerate_assessments(universe.outcomes, universe.scale))
    rel = induced_relation(universe, binary_keys(universe, assessment)).with_flipped(0, 0)
    for _ in range(off_diagonal):
        rel = rel.with_flipped(*rng.sample(range(len(universe)), 2))
    assert fields(check_total_preorder(rel)) == fields(oracle.check_total_preorder(rel))
    for direction in ("aversion", "attraction"):
        assert fields(check_uncertainty_attitude(rel, direction)) == fields(
            oracle.check_uncertainty_attitude(rel, direction)
        )
    assert fields(check_substitutability(rel)) == fields(oracle.check_substitutability(rel))


def wide_relations(shape):
    """Relations over a wide universe, by kind: induced by each criterion,
    induced by random keys, those with an entry flipped, and one with more
    classes than a byte layout holds (aversion holding on 4x5, random keys
    on 5x5), also with an entry flipped."""
    universe = LotteryUniverse(canonical_outcomes(shape[0]), canonical_scale(shape[1]))
    rng, n = random.Random(f"wide-{shape}"), len(universe)
    configs = enumerate_scalar_configs(universe.outcomes, universe.scale)
    assessments = enumerate_assessments(universe.outcomes, universe.scale)
    induced = [
        induced_relation(universe, keys(universe, given))
        for keys, given in [
            (pessimistic_keys, configs[-1]), (optimistic_keys, configs[len(configs) // 2]),
            (binary_keys, assessments[-1]), (binary_keys, assessments[len(assessments) // 3]),
        ]
    ]
    random_keys = [induced_relation(universe, [rng.randrange(m) for _ in range(n)]) for m in (2, 5)]
    flipped = [rel.with_flipped(*rng.sample(range(n), 2)) for rel in induced + random_keys]
    flipped += [induced[0].with_flipped(0, 0), induced[2].with_flipped(n - 1, n - 1)]
    if shape == (4, 5):
        many = [-1000 * sum(vt) + rng.randrange(1000) for vt in universe.value_tuples]
    else:
        many = [rng.randrange(300) for _ in range(n)]
    many = induced_relation(universe, many)
    return {
        "induced": induced, "random-key": random_keys, "flipped": flipped,
        "many-classes": [many, many.with_flipped(*rng.sample(range(n), 2))],
    }


@pytest.mark.parametrize("shape", [(4, 5), (5, 5)], ids=["4x5", "5x5"])
def test_grid_decisions_match_the_stepwise_oracles(shape):
    """Uncertainty attitude and substitutability, decided on the level grid,
    give the step oracles' reports, and B2 and its decomposition, decided
    on class rows, the pair scans', witness and detail included, on every
    kind of relation; both outcomes occur, so both are compared."""
    outcomes = set()
    for kind, rels in wide_relations(shape).items():
        for rel in rels:
            if kind == "many-classes":
                assert len(rel.table) > 255 and len(rel.grid_layouts) > 1
            for direction in ("aversion", "attraction"):
                report = check_uncertainty_attitude(rel, direction)
                expected = oracle.check_uncertainty_attitude_by_steps(rel, direction)
                assert fields(report) == fields(expected), (kind, direction)
                outcomes.add(("A2", report.satisfied))
            report = check_substitutability(rel)
            assert fields(report) == fields(oracle.check_substitutability_by_generators(rel)), kind
            outcomes.add(("B3", report.satisfied))
            outcomes.add(("B2", assert_standard_orders_match_oracles(rel)))
    checks = ("A2", "B3", "B2")
    assert outcomes == {(check, sat) for check in checks for sat in (True, False)}


@pytest.mark.parametrize(
    "end, witness, digest",
    [
        ("first", (55, 57, 55, 1, 5, 55, 56),
         "89805f6024042b7bc11412534b5375d799c39e087ece0487637cbae9e85b3b2b"),
        ("last", (4649, 4650, 23255, 5, 5, 31029, 31030),
         "50710c399a326e74ae093c68ddb3549de1382ec110cdc5a84eeead6b0f2e789d"),
    ],
    ids=["first", "last"],
)
def test_flipped_6x6_substitutability_is_pinned(end, witness, digest):
    """The scenario's 6x6 binary relation with an entry flipped between the
    first, or the last, two members of its largest class: "equal or
    indifferent" is no equivalence, and B3 gives the generator oracle's
    report, pinned here since the oracle takes seconds on 6x6: its
    witness, and its detail byte for byte."""
    scenario = load_scenario(str(Path(__file__).parents[1] / "scenarios" / "wide_6x6.json"))
    universe = LotteryUniverse(scenario.outcomes, scenario.scale_v)
    rel = induced_relation(universe, binary_keys(universe, scenario.assessment))
    largest = max(set(rel.class_of), key=rel.class_of.count)
    in_class = [i for i, c in enumerate(rel.class_of) if c == largest]
    flipped = rel.with_flipped(*(in_class[:2] if end == "first" else in_class[-2:]))
    report = check_substitutability(flipped)
    assert report.witness == witness
    assert hashlib.sha256(report.detail.encode("utf-8")).hexdigest() == digest


def cap_universe(shape):
    """The universe of ``shape``; a scale past the canonical presets has
    evenly spaced labels."""
    prizes, levels = shape
    if levels in axioms.SCALE_LABEL_PRESETS:
        scale = canonical_scale(levels)
    else:
        scale = Scale(("0", *(f".{v:03d}" for v in range(1, levels - 1)), "1"))
    return LotteryUniverse(canonical_outcomes(prizes), scale)


CAP_SHAPES = {"4x5": (4, 5), "5x5": (5, 5), "6x6": (6, 6), "2x300": (2, 300)}


@pytest.mark.parametrize(
    "shape, block",
    [(CAP_SHAPES[k], b) for k, b in zip(CAP_SHAPES, (125, 125, 216, 1))] + [((5, 4), 64)],
    ids=[*CAP_SHAPES, "5x4"],
)
def test_cap_images_are_the_capped_gathers(shape, block):
    """Every cap of a random top slice is its gather at the capped places,
    and the slice punched at the top is 0xff wherever no prize is at the
    top and the slice elsewhere: one translate of a 125-place block (4x5),
    slices over the outer prizes of 125-, 216- and 64-place blocks (5x5,
    6x6, and 5x4, whose 256 places are one more than a block holds), and
    one prize of 300 levels over single places (2x300)."""
    universe = cap_universe(shape)
    size = len(universe.scale)
    top = size - 1
    places = list(itertools.product(range(size), repeat=shape[0] - 1))
    place_of = {levels: p for p, levels in enumerate(places)}
    rng = random.Random(f"caps-{shape}")
    top_slice = bytes(rng.randrange(256) for _ in places)
    assert [len(cap) for cap in universe.grid_caps] == [block] * top
    for wa, cap in enumerate(universe.grid_caps[:-1], 1):
        gathered = bytes(top_slice[place_of[tuple(min(v, wa) for v in p)]] for p in places)
        assert checker._capped(top_slice, cap, size, wa) == gathered
    punched = bytes(top_slice[i] if top in p else 0xFF for i, p in enumerate(places))
    assert checker._capped(top_slice, universe.grid_caps[-1], size, top) == punched


@pytest.mark.parametrize(
    "name, kinds",
    [
        ("4x5", ("sound", "cap-broken", "in-class-flip")),
        ("5x5", ("sound", "cap-broken", "in-class-flip")),
        ("6x6", ("cap-broken",)),
        ("2x300", ("sound", "in-class-flip")),
    ],
    ids=list(CAP_SHAPES),
)
def test_substitutability_on_the_cap_shapes_matches_the_oracle(name, kinds):
    """B3 gives the generator oracle's report, witness included, on a sound
    relation, on one whose classes are split so that a cap breaks it first,
    and on one with an entry flipped inside its largest class.  Two prizes
    have no such split: there every partition that the raises keep, the
    caps keep too."""
    universe = cap_universe(CAP_SHAPES[name])
    top, levels = len(universe.scale) - 1, universe.value_tuples
    if top < BYTE_KEY_LEVELS:
        assessment = enumerate_assessments(universe.outcomes, universe.scale)[-1]
        keys = member_keys(binary_keys(universe, assessment))
    else:
        keys = [(top - vt[-1]) // 2 for vt in levels]
    sound = induced_relation(universe, keys)
    largest = max(set(sound.class_of), key=sound.class_of.count)
    in_class = [i for i, c in enumerate(sound.class_of) if c == largest]
    relations = {
        "sound": sound,
        "cap-broken": induced_relation(universe, [2 * k + (vt[1] == 2) for k, vt in zip(keys, levels)]),
        "in-class-flip": sound.with_flipped(*in_class[:2]),
    }
    for kind in kinds:
        rel = relations[kind]
        report = check_substitutability(rel)
        assert fields(report) == fields(oracle.check_substitutability_by_generators(rel)), kind
        assert report.satisfied == (kind == "sound"), kind
        if kind == "cap-broken":
            # A cap generator, weights (wa, top) with wa < top, is named.
            [(_, wa, _)] = grid_suspects(rel)
            assert wa < top and report.witness[3] == wa


IMAGE_SHAPES = [(nx, nv) for nx in (2, 3, 4) for nv in (2, 3, 4, 5)] + [(5, 4), (5, 5), (2, 300)]


@pytest.mark.parametrize("shape", IMAGE_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_moved_rows_are_the_generator_gathers(shape):
    """For every generator, the rows the grid test moves, their image and
    the rows it keeps (``_moves``) are cut from the layout turned so that
    the generator's prize is outermost, and the image is that layout
    gathered through ``generator_map`` at the moved rows' members, with
    0xff at every place that holds none.  The layouts number each member
    by its base-255 digits, one layout per digit, so equal digits at every
    place mean the same member.  5x4 has rows of 256 places, one more than
    a block holds; 5x5 has rows of five blocks; 2x300 a prize longer than a
    block."""
    universe = cap_universe(shape)
    prizes, top = shape[0], len(universe.scale) - 1
    size, n = top + 1, len(universe)
    level = size ** (prizes - 1)
    member_at = universe.grid_scatter([*range(n), None])
    strides = [size ** (prizes - 1 - p) for p in range(prizes)]
    masses = universe.point_masses
    # Per prize q, the member at each place of the grid with prize q outermost.
    turned = [
        [member_at[sum(map(operator.mul, levels, strides[q:] + strides[:q]))]
         for levels in itertools.product(range(size), repeat=prizes)]
        for q in range(prizes)
    ]
    assert n <= 255**2
    for d in range(2):
        def digits(members):
            return bytes(0xFF if m is None else m // 255**d % 255 for m in members)

        layouts = [digits(members) for members in turned]
        moves = checker._moves(universe, layouts[0])
        for (k, wa, wb), (head, image, tail) in zip(universe.generators, moves, strict=True):
            q = masses.index(k)
            # A raise to v moves row v - 1; a cap, the top row.
            start = top * level if wa < top else (wb - 1) * level
            moved = slice(start, start + level)
            assert head == layouts[q][moved], (k, wa, wb)
            assert tail == (b"" if wa < top else layouts[q][moved.stop:]), (k, wa, wb)
            f = universe.generator_map(k, wa, wb)
            assert image == digits(None if m is None else f[m] for m in turned[q][moved]), (k, wa, wb)


def first_breaking_generator(rel, maps):
    """The first generator, in key order, whose member map in ``maps``
    breaks "equal or indifferent", found by trying each."""
    closed = closed_sets(rel)
    for generator, f in zip(rel.universe.generators, maps):
        if map_breaks(rel, f, closed):
            return [generator]
    return []


def enumerated_relations(universe):
    """Every distinct relation the enumerated scalar configurations and
    assessments induce on the universe."""
    outcomes, scale = universe.outcomes, universe.scale
    keys = [fold(universe, cfg) for cfg in enumerate_scalar_configs(outcomes, scale)
            for fold in (pessimistic_keys, optimistic_keys)]
    keys += [binary_keys(universe, a) for a in enumerate_assessments(outcomes, scale)]
    relations = {}
    for key in keys:
        rel = induced_relation(universe, key)
        relations.setdefault((bytes(rel.class_of), tuple(rel.table)), rel)
    return list(relations.values())


@pytest.mark.parametrize(
    "shape, flips",
    [((nx, nv), True) for nx in (2, 3) for nv in (2, 3, 4)] + [((5, 4), False)],
    ids=lambda v: f"{v[0]}x{v[1]}" if isinstance(v, tuple) else ("flips" if v else "no-flips"),
)
def test_grid_suspect_is_the_first_generator_that_breaks(shape, flips):
    """Both grid tests name the generator that trying every generator's
    member map names first, or none when none breaks, on every relation
    the enumerated configurations induce and, up to 3x4, on every one-entry
    flip of them: the pair test on each, the block test on those that
    leave "equal or indifferent" an equivalence."""
    universe = cap_universe(shape)
    maps = [universe.generator_map(*generator) for generator in universe.generators]
    relations = enumerated_relations(universe)
    if flips:
        relations += [rel.with_flipped(i, j) for rel in relations
                      for i, j in itertools.product(range(len(universe)), repeat=2)]
    decided, broken = [0, 0], [0, 0]
    for rel in relations:
        closed = closed_sets(rel)
        first = first_breaking_generator(rel, maps)
        assert pair_suspects(rel) == first
        blocks = len(rel.grid_layouts) == 1 and sum(map(int.bit_count, set(closed))) == len(closed)
        if blocks:
            assert grid_suspects(rel) == first
        for test in {0, blocks}:
            decided[test], broken[test] = decided[test] + 1, broken[test] + bool(first)
    assert all(decided) and (all(broken) or not flips)


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 4), (4, 5)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_key_tables_match_the_relation_rebuilt_from_rows(shape):
    """The table, columns, indifference and first members that sorted keys
    give, as grid bytes or as a member list, are what a relation derives
    from its rows, for random keys with ties."""
    universe = LotteryUniverse(canonical_outcomes(shape[0]), canonical_scale(shape[1]))
    rng = random.Random(f"keys-{shape}")
    for distinct in (1, 2, 5, 40, 255):
        keys = bytes(255 if hole else rng.randrange(distinct) for hole in universe.grid_holes)
        values = member_keys(keys)
        rows = [sum(1 << j for j, b in enumerate(values) if a >= b) for a in values]
        expected = oracle.relation_of_rows(universe, rows)
        for given in (keys, list(values)):
            rel = induced_relation(universe, given)
            assert list(rel.class_of) == expected.class_of
            for name in ("table", "columns", "indifference", "first_members"):
                assert getattr(rel, name) == getattr(expected, name), (distinct, name)


# Every space up to 3 prizes by 4 levels, and one whose best prize is not
# its first label and whose labels are not in preference order.
GENERATOR_SPACES = [
    (canonical_outcomes(nx), canonical_scale(nv)) for nx in (2, 3) for nv in (2, 3, 4)
] + [(
    OutcomeSet(("x2", "x0", "x3", "x1"), "x3", "x0", (("x3",), ("x1",), ("x2",), ("x0",))),
    Scale(("0", ".3", ".7", "1"), name="V"),
)]


@pytest.mark.parametrize(
    "outcomes, scale", GENERATOR_SPACES,
    ids=[f"{'-'.join(o.labels)}x{len(v)}" for o, v in GENERATOR_SPACES],
)
def test_enumerators_match_the_dict_oracles(outcomes, scale):
    """Configurations built from key tuples equal, in order, those built
    through label-keyed dicts and the public constructors."""
    assert enumerate_scalar_configs(outcomes, scale) == oracle.enumerate_scalar_configs(
        outcomes, scale
    )
    for half in (None, "best", "worst"):
        got = enumerate_assessments(outcomes, scale, half)
        assert got == oracle.enumerate_assessments(outcomes, scale, half)
        assert all(a.require_anchors == (half is None) for a in got)


@pytest.mark.parametrize("seed", range(10))
def test_sampler_matches_the_dict_oracle(seed):
    assert sample_scalar_configs(seed, 100) == oracle.sample_scalar_configs(seed, 100)
    assert sample_scalar_configs(seed, 40, 5, 6) == oracle.sample_scalar_configs(seed, 40, 5, 6)


@pytest.mark.parametrize("nx, nv", list(itertools.product(range(2, 5), range(2, 5))))
def test_enumeration_draws_give_the_validated_configurations_tables(nx, nv):
    """The sweep folds the term tables of each draw it reads; in order, they
    are the tables of the configurations the public generators validate."""
    outcomes, scale = canonical_outcomes(nx), canonical_scale(nv)
    drawn = [scalar_term_tables(*draw) for draw in axioms._scalar_draws(outcomes, nv)]
    configs = enumerate_scalar_configs(outcomes, scale)
    assert drawn == [(c.reversed_map, c.pessimistic_terms, c.optimistic_terms) for c in configs]
    for half in (None, "best", "worst"):
        drawn = [
            binary_term_tables(pairs, nv - 1)
            for _, pairs in axioms._assessment_draws(outcomes, nv - 1, half)
        ]
        assessments = enumerate_assessments(outcomes, scale, half)
        assert drawn == [(a.first_terms, a.second_terms) for a in assessments]


@pytest.mark.parametrize("bounds", [(3, 4), (4, 5)], ids=lambda b: f"{b[0]}x{b[1]}")
@pytest.mark.parametrize("seed", range(10))
def test_sample_draws_give_the_sampled_configurations_tables(seed, bounds):
    """Each sampled draw's tables, and the canonical space the sweep checks
    it on, are those of the sampler's validated entry."""
    drawn = [
        (canonical_outcomes(len(keys)), canonical_scale(len(images)),
         scalar_term_tables(images, keys))
        for images, keys in axioms._sample_draws(seed, 100, *bounds)
    ]
    assert drawn == [
        (base, scale, (c.reversed_map, c.pessimistic_terms, c.optimistic_terms))
        for base, scale, c in sample_scalar_configs(seed, 100, *bounds)
    ]
