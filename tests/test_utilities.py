"""The three utility criteria, standard-lottery reduction, and ranking."""

import itertools
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posdec import axioms, checker, utilities
from posdec.axioms import (
    canonical_outcomes,
    canonical_scale,
    enumerate_assessments,
    enumerate_scalar_configs,
    enumerate_scale_maps,
)
from posdec.checker import (
    LotteryUniverse,
    binary_keys,
    induced_relation,
    member_keys,
    optimistic_keys,
    pessimistic_keys,
)
from posdec.lotteries import (
    OutcomeSet,
    PossibilityDistribution,
    StandardLottery,
    enumerate_distributions,
    mixture,
    point_mass,
    standard_lotteries,
)
from posdec.scales import (
    BinaryUtility,
    Scale,
    ScaleMap,
    ScaleMismatchError,
    binary_rank,
    ext_max,
    ext_min,
    pair_rank,
)
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


def anchors_only_assessment(outcomes: OutcomeSet, scale: Scale) -> BinaryUtilityAssessment:
    table = {label: BinaryUtility.of(scale.bottom, scale.top) for label in outcomes.labels}
    table[outcomes.best] = BinaryUtility.of(scale.top, scale.bottom)
    classes = (
        (outcomes.best,),
        tuple(l for l in outcomes.labels if l != outcomes.best),
    )
    ranked = OutcomeSet(outcomes.labels, outcomes.best, outcomes.worst, classes)
    return BinaryUtilityAssessment.from_mapping(ranked, scale, table)


# Plain-loop oracles for each criterion's key: one pass over the prizes,
# reading the configuration's level indices, never its term tables.


def pessimistic_key(pi, cfg: ScalarUtilityConfig) -> int:
    """Index of the pessimistic utility: min over prizes of max(n∘h(v), u(x))."""
    worst = cfg.utility_scale.top_index
    nh = [worst - i for i in cfg.scale_map.images]
    for v_idx, u_idx in zip(pi.indices, cfg.prize_indices):
        term = nh[v_idx]
        if term < u_idx:
            term = u_idx
        if term < worst:
            worst = term
    return worst


def optimistic_key(pi, cfg: ScalarUtilityConfig) -> int:
    """Index of the optimistic utility: max over prizes of min(h(v), u(x))."""
    h = cfg.scale_map.images
    best = 0
    for v_idx, u_idx in zip(pi.indices, cfg.prize_indices):
        term = h[v_idx]
        if term > u_idx:
            term = u_idx
        if term > best:
            best = term
    return best


def binary_key(pi, a: BinaryUtilityAssessment) -> int:
    """``binary_rank`` of the pair-valued utility: the max over prizes of
    min(possibility, each component of the prize's pair), joined by
    ``pair_rank``."""
    first = second = 0
    for v_idx, (p_first, p_second) in zip(pi.indices, a.pair_indices):
        term = v_idx if v_idx < p_first else p_first
        if term > first:
            first = term
        term = v_idx if v_idx < p_second else p_second
        if term > second:
            second = term
    return pair_rank(first, second, a.scale.top_index)


def binary_utility_by_pair_algebra(pi, a: BinaryUtilityAssessment) -> BinaryUtility:
    """Reference fold on Level and UtilityPair values: ext_max of ext_min terms."""
    acc = None
    for label, level in pi.items():
        term = ext_min(level, a.utility_for(label))
        acc = term if acc is None else ext_max(acc, term)
    return BinaryUtility(acc.first, acc.second)


class TestPessimistic:
    def test_worked_example_values(self, example_scenario):
        cfg = example_scenario.pessimistic_config
        assert pessimistic_utility(example_scenario.lotteries["pi1"], cfg).label == ".5"
        assert pessimistic_utility(example_scenario.lotteries["pi2"], cfg).label == "0"

    def test_point_mass_at_best(self, example_scenario):
        cfg = example_scenario.pessimistic_config
        pi = point_mass(example_scenario.outcomes, "x1", example_scenario.scale_v)
        assert pessimistic_utility(pi, cfg).label == "1"

    def test_both_anchors_fully_possible(self, example_scenario):
        s = example_scenario
        cfg = s.pessimistic_config
        both = mixture(
            [
                (s.scale_v["1"], point_mass(s.outcomes, "x1", s.scale_v)),
                (s.scale_v["1"], point_mass(s.outcomes, "x4", s.scale_v)),
            ]
        )
        assert pessimistic_utility(both, cfg).label == "0"

    def test_collapse_when_worst_fully_possible(self, example_scenario):
        # Any weight on the best prize is ignored once the worst is fully possible.
        s = example_scenario
        cfg = s.pessimistic_config
        worst = point_mass(s.outcomes, "x4", s.scale_v)
        for sl in standard_lotteries(s.scale_v):
            if not sl.worst_weight.is_top():
                continue
            value = pessimistic_utility(sl.as_distribution(s.outcomes), cfg)
            assert value == pessimistic_utility(worst, cfg)
            assert value.label == "0"

    def test_config_validation(self, example_scenario):
        s = example_scenario
        u_scale = s.pessimistic_config.utility_scale
        bad_prize = {
            "x1": u_scale.index("1"), "x2": u_scale.index(".3"), "x3": u_scale.index(".5"),
            "x4": u_scale.index("0"),
        }
        with pytest.raises(ValueError, match="inconsistent"):
            ScalarUtilityConfig.from_indices(
                s.outcomes, s.pessimistic_config.scale_map, bad_prize,
            )

    def test_anchor_validation(self, example_scenario):
        s = example_scenario
        u_scale = s.pessimistic_config.utility_scale
        bad_prize = {
            "x1": u_scale.index(".5"), "x2": u_scale.index(".5"), "x3": u_scale.index(".3"),
            "x4": u_scale.index("0"),
        }
        with pytest.raises(ValueError, match="utility 1"):
            ScalarUtilityConfig.from_indices(
                s.outcomes, s.pessimistic_config.scale_map, bad_prize,
            )


class TestOptimistic:
    def test_point_mass_at_worst(self, example_scenario):
        s = example_scenario
        pi = point_mass(s.outcomes, "x4", s.scale_v)
        assert optimistic_utility(pi, s.pessimistic_config).label == "0"

    def test_best_fully_possible_dominates(self, example_scenario):
        s = example_scenario
        for sl in standard_lotteries(s.scale_v):
            if not sl.best_weight.is_top():
                continue
            value = optimistic_utility(sl.as_distribution(s.outcomes), s.pessimistic_config)
            assert value.label == "1"

    def test_partial_hope(self, example_scenario):
        s = example_scenario
        sl = StandardLottery(s.scale_v[".7"], s.scale_v["1"])
        value = optimistic_utility(sl.as_distribution(s.outcomes), s.pessimistic_config)
        assert value.label == ".5"


class TestDecomposition:
    def test_anchor_blend(self, example_scenario):
        s = example_scenario
        cfg = s.pessimistic_config
        best = point_mass(s.outcomes, "x1", s.scale_v)
        worst = point_mass(s.outcomes, "x4", s.scale_v)
        value = pessimistic_utility_decomposed(
            s.scale_v["1"], best, s.scale_v["1"], worst, cfg
        )
        assert value.label == "0"

    def test_same_lottery_absorbs(self, example_scenario):
        s = example_scenario
        cfg = s.pessimistic_config
        pi = s.lotteries["pi1"]
        value = pessimistic_utility_decomposed(s.scale_v["1"], pi, s.scale_v[".5"], pi, cfg)
        assert value == pessimistic_utility(pi, cfg)

    def test_mismatched_weight_names_its_scale(self, example_scenario):
        s = example_scenario
        other = Scale(("0", ".5", "1"), name="W")
        pi = s.lotteries["pi1"]
        for weights in ((s.scale_v["1"], other["1"]), (other["1"], s.scale_v["1"])):
            with pytest.raises(ScaleMismatchError) as caught:
                pessimistic_utility_decomposed(weights[0], pi, weights[1], pi, s.pessimistic_config)
            assert caught.value.first is other
            assert str(caught.value).startswith("scale mismatch: 'W' ('0', '.5', '1') vs 'V'")

    @pytest.mark.parametrize("nv", [2, 3])
    def test_matches_mixture_path_exhaustive(self, nv):
        outcomes = canonical_outcomes(2)
        scale = canonical_scale(nv)
        cfg = enumerate_scalar_configs(outcomes, scale)[-1]
        members = enumerate_distributions(outcomes, scale)
        top = len(scale) - 1
        weights = [
            (scale.level(i), scale.level(j))
            for i in range(len(scale))
            for j in range(len(scale))
            if max(i, j) == top
        ]
        for p1, p2 in itertools.product(members, repeat=2):
            for w1, w2 in weights:
                via_mixture = pessimistic_utility(
                    mixture([(w1, p1), (w2, p2)]), cfg
                )
                via_decomposition = pessimistic_utility_decomposed(w1, p1, w2, p2, cfg)
                assert via_mixture == via_decomposition


class TestBinaryUtility:
    def test_worked_example_values(self, example_scenario):
        s = example_scenario
        assert str(binary_utility(s.lotteries["pi1"], s.assessment)) == "⟨1,.5⟩"
        assert str(binary_utility(s.lotteries["pi2"], s.assessment)) == "⟨1,1⟩"

    def test_point_mass_at_best(self, example_scenario):
        s = example_scenario
        pi = point_mass(s.outcomes, "x1", s.scale_v)
        assert str(binary_utility(pi, s.assessment)) == "⟨1,0⟩"

    @pytest.mark.parametrize("size", range(2, 7))
    def test_standard_lottery_identity(self, size):
        # The pair-valued utility of a standard lottery is its weight pair.
        scale = canonical_scale(size)
        outcomes = canonical_outcomes(2)
        assessment = anchors_only_assessment(outcomes, scale)
        for sl in standard_lotteries(scale):
            value = binary_utility(sl.as_distribution(outcomes), assessment)
            assert value.first == sl.best_weight
            assert value.second == sl.worst_weight

    def test_closure_under_fold(self, example_scenario):
        s = example_scenario
        members = enumerate_distributions(s.outcomes, s.scale_v)
        top = s.scale_v.top
        for pi in members:
            value = binary_utility(pi, s.assessment)
            assert value.first == top or value.second == top

    @pytest.mark.parametrize("nx, nv", [(nx, nv) for nx in (2, 3) for nv in (2, 3, 4)])
    @pytest.mark.parametrize("half", [None, "best", "worst"])
    def test_index_fold_matches_pair_algebra(self, nx, nv, half):
        outcomes, scale = canonical_outcomes(nx), canonical_scale(nv)
        members = enumerate_distributions(outcomes, scale)
        for a in enumerate_assessments(outcomes, scale, half=half):
            for pi in members:
                expected = binary_utility_by_pair_algebra(pi, a)
                assert binary_utility(pi, a) == expected
                sl = reduce_to_standard(pi, a)
                assert (sl.best_weight, sl.worst_weight) == (expected.first, expected.second)

    def test_assessment_anchor_validation(self, example_scenario):
        s = example_scenario
        table = {
            label: s.assessment.utility_for(label) for label in s.outcomes.labels
        }
        table["x4"] = BinaryUtility.of(s.scale_v["1"], s.scale_v["1"])
        with pytest.raises(ValueError, match="worst outcome"):
            BinaryUtilityAssessment.from_mapping(s.outcomes, s.scale_v, table)
        # The same table is a legitimate half-encoded assessment.
        relaxed = BinaryUtilityAssessment.from_mapping(
            s.outcomes, s.scale_v, table, require_anchors=False
        )
        top = len(s.scale_v) - 1
        assert all(first == top for first, _ in relaxed.pair_indices)


class TestReduceToStandard:
    def test_worked_example(self, example_scenario):
        s = example_scenario
        sl = reduce_to_standard(s.lotteries["pi1"], s.assessment)
        assert (sl.best_weight.label, sl.worst_weight.label) == ("1", ".5")

    def test_point_mass_returns_encoding(self, example_scenario):
        s = example_scenario
        for label in s.outcomes.labels:
            sl = reduce_to_standard(point_mass(s.outcomes, label, s.scale_v), s.assessment)
            assessed = s.assessment.utility_for(label)
            assert sl.best_weight == assessed.first
            assert sl.worst_weight == assessed.second

    def test_both_anchors_fully_possible(self, example_scenario):
        s = example_scenario
        both = mixture(
            [
                (s.scale_v["1"], point_mass(s.outcomes, "x1", s.scale_v)),
                (s.scale_v["1"], point_mass(s.outcomes, "x4", s.scale_v)),
            ]
        )
        sl = reduce_to_standard(both, s.assessment)
        assert (sl.best_weight.label, sl.worst_weight.label) == ("1", "1")

    def test_reduction_preserves_utility(self, example_scenario):
        s = example_scenario
        for pi in enumerate_distributions(s.outcomes, s.scale_v):
            sl = reduce_to_standard(pi, s.assessment)
            assert binary_utility(sl.as_distribution(s.outcomes), s.assessment) == \
                binary_utility(pi, s.assessment)


class TestRanking:
    def test_nothing_to_rank(self, example_scenario):
        with pytest.raises(ValueError, match="^nothing to rank$"):
            rank_decisions([], partial(binary_utility, a=example_scenario.assessment))

    def test_worked_example_binary(self, example_scenario):
        s = example_scenario
        ranking = rank_decisions(
            list(s.lotteries.items()), partial(binary_utility, a=s.assessment)
        )
        assert ranking.classes == (("pi1",), ("pi2",))

    def test_worked_example_pessimistic(self, example_scenario):
        s = example_scenario
        ranking = rank_decisions(
            list(s.lotteries.items()),
            partial(pessimistic_utility, cfg=s.pessimistic_config),
        )
        assert ranking.classes == (("pi1",), ("pi2",))
        assert [u.label for u in ranking.utilities] == [".5", "0"]

    def test_anomaly_tie_under_pessimistic(self, anomaly_scenario):
        s = anomaly_scenario
        ranking = rank_decisions(
            list(s.lotteries.items()),
            partial(pessimistic_utility, cfg=s.pessimistic_config),
        )
        assert ranking.classes == (("hope", "sure_worst"),)

    def test_anomaly_strict_under_binary(self, anomaly_scenario):
        s = anomaly_scenario
        ranking = rank_decisions(
            list(s.lotteries.items()), partial(binary_utility, a=s.assessment)
        )
        assert ranking.classes == (("hope",), ("sure_worst",))

    def test_single_item(self, example_scenario):
        s = example_scenario
        ranking = rank_decisions(
            [("pi1", s.lotteries["pi1"])],
            partial(pessimistic_utility, cfg=s.pessimistic_config),
        )
        assert ranking.classes == (("pi1",),)

    def test_mixed_domains_rejected(self, example_scenario, anomaly_scenario):
        with pytest.raises(ValueError, match="does not match"):
            rank_decisions(
                [
                    ("a", example_scenario.lotteries["pi1"]),
                    ("b", anomaly_scenario.lotteries["hope"]),
                ],
                partial(binary_utility, a=example_scenario.assessment),
            )

    def test_stable_within_class(self, anomaly_scenario):
        s = anomaly_scenario
        items = [("z_first", s.lotteries["hope"]), ("a_second", s.lotteries["hope"])]
        ranking = rank_decisions(
            items, partial(pessimistic_utility, cfg=s.pessimistic_config)
        )
        assert ranking.classes == (("z_first", "a_second"),)


class TestMixtureAbsorption:
    """Dominated components vanish from scalar mixtures."""

    @pytest.mark.parametrize("nx,nv", [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4)])
    def test_pessimistic_rule(self, nx, nv):
        # If pi1 is weakly better, blending it at any weight against a fully
        # weighted pi2 changes nothing.
        outcomes = canonical_outcomes(nx)
        scale = canonical_scale(nv)
        cfg = enumerate_scalar_configs(outcomes, scale)[-1]
        members = enumerate_distributions(outcomes, scale)
        top = scale.top
        for p1, p2 in itertools.product(members, repeat=2):
            if not pessimistic_utility(p1, cfg) >= pessimistic_utility(p2, cfg):
                continue
            for weight in scale.level_values:
                blended = mixture([(weight, p1), (top, p2)])
                assert pessimistic_utility(blended, cfg) == pessimistic_utility(p2, cfg)

    @pytest.mark.parametrize("nx,nv", [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4)])
    def test_optimistic_dual(self, nx, nv):
        outcomes = canonical_outcomes(nx)
        scale = canonical_scale(nv)
        cfg = enumerate_scalar_configs(outcomes, scale)[-1]
        members = enumerate_distributions(outcomes, scale)
        top = scale.top
        for p1, p2 in itertools.product(members, repeat=2):
            if not optimistic_utility(p1, cfg) >= optimistic_utility(p2, cfg):
                continue
            for weight in scale.level_values:
                blended = mixture([(top, p1), (weight, p2)])
                assert optimistic_utility(blended, cfg) == optimistic_utility(p1, cfg)


class TestRestrictedAgreement:
    """Half-encoded assessments rank exactly like the matching scalar criterion."""

    @pytest.mark.parametrize("nx,nv", [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4)])
    def test_best_half_matches_pessimistic(self, nx, nv):
        outcomes = canonical_outcomes(nx)
        scale = canonical_scale(nv)
        members = enumerate_distributions(outcomes, scale)
        identity = ScaleMap.identity(scale)
        interior = outcomes.labels[1:-1]
        for combo in itertools.product(range(len(scale)), repeat=len(interior)):
            worst_weights = {outcomes.best: 0, outcomes.worst: len(scale) - 1}
            worst_weights.update(dict(zip(interior, combo)))
            classes = _classes_from_keys(outcomes, {l: -w for l, w in worst_weights.items()})
            ranked = OutcomeSet(outcomes.labels, outcomes.best, outcomes.worst, classes)
            assessment = BinaryUtilityAssessment.from_mapping(
                ranked,
                scale,
                {
                    label: BinaryUtility.of(scale.top, scale.level(w))
                    for label, w in worst_weights.items()
                },
                require_anchors=False,
            )
            # The prize utility is the order reversal of the worst weight.
            cfg = ScalarUtilityConfig.from_indices(
                ranked,
                identity,
                {label: scale.top_index - w for label, w in worst_weights.items()},
            )
            for p1, p2 in itertools.product(members, repeat=2):
                binary_order = binary_utility(p1, assessment) >= binary_utility(p2, assessment)
                scalar_order = pessimistic_utility(p1, cfg) >= pessimistic_utility(p2, cfg)
                assert binary_order == scalar_order

    @pytest.mark.parametrize("nx,nv", [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4)])
    def test_worst_half_matches_optimistic(self, nx, nv):
        outcomes = canonical_outcomes(nx)
        scale = canonical_scale(nv)
        members = enumerate_distributions(outcomes, scale)
        identity = ScaleMap.identity(scale)
        interior = outcomes.labels[1:-1]
        for combo in itertools.product(range(len(scale)), repeat=len(interior)):
            best_weights = {outcomes.best: len(scale) - 1, outcomes.worst: 0}
            best_weights.update(dict(zip(interior, combo)))
            classes = _classes_from_keys(outcomes, best_weights)
            ranked = OutcomeSet(outcomes.labels, outcomes.best, outcomes.worst, classes)
            assessment = BinaryUtilityAssessment.from_mapping(
                ranked,
                scale,
                {
                    label: BinaryUtility.of(scale.level(w), scale.top)
                    for label, w in best_weights.items()
                },
                require_anchors=False,
            )
            cfg = ScalarUtilityConfig.from_indices(ranked, identity, best_weights)
            for p1, p2 in itertools.product(members, repeat=2):
                binary_order = binary_utility(p1, assessment) >= binary_utility(p2, assessment)
                scalar_order = optimistic_utility(p1, cfg) >= optimistic_utility(p2, cfg)
                assert binary_order == scalar_order


def _classes_from_keys(outcomes, keys):
    distinct = sorted(set(keys.values()), reverse=True)
    return tuple(
        tuple(label for label in outcomes.labels if keys[label] == key)
        for key in distinct
    )


KEY_SPACES = [(nx, nv) for nx in (2, 3) for nv in (2, 3, 4)]
WIDE = [LotteryUniverse(canonical_outcomes(nx), canonical_scale(nv)) for nx, nv in ((4, 5), (5, 5))]


# A universe whose best prize is not its first label and whose labels are
# not in preference order, as perfbench's shuffled prizes make them.
SHUFFLED = LotteryUniverse(
    OutcomeSet(("x2", "x0", "x3", "x1"), "x3", "x0", (("x3",), ("x1",), ("x2",), ("x0",))),
    Scale(("0", ".3", ".7", "1"), name="V"),
)


def assert_folds_agree(universe, keys, given):
    """The byte fold and the per-member fold, which scales past
    ``BYTE_KEY_LEVELS`` levels take, give the same keys, and relations
    with the same classes, table, grid layouts and memo key."""
    by_grid = keys(universe, given)
    with mock.patch.object(checker, "BYTE_KEY_LEVELS", 1):
        by_member = keys(universe, given)
    assert isinstance(by_grid, bytes) and len(by_grid) == universe.grid_size
    assert isinstance(by_member, list) and list(member_keys(by_grid)) == by_member
    grid_relation, member_relation = (induced_relation(universe, k) for k in (by_grid, by_member))
    assert list(grid_relation.class_of) == member_relation.class_of
    assert grid_relation.table == member_relation.table
    # Laid out by the byte fold's translate, and through the grid scatter.
    assert grid_relation.grid_layouts == member_relation.grid_layouts
    assert axioms._content(grid_relation) == axioms._content(member_relation)


def assert_ranked_by(ranking, items, keys, key_of_value):
    """``ranking`` groups ``items`` by ``keys`` (one per item), best first
    and in input order within a class, and its values carry those keys."""
    groups = {}
    for (name, _), key in zip(items, keys):
        groups.setdefault(key, []).append(name)
    ordered = sorted(groups, reverse=True)
    assert ranking.classes == tuple(tuple(groups[key]) for key in ordered)
    assert [key_of_value(value) for value in ranking.utilities] == ordered


def member_items(universe):
    return [(f"m{i}", m) for i, m in enumerate(universe.members)]


def assert_scalar_keys(universe, cfg):
    """The sweep folds, the public evaluators and the ranking keys agree
    with the plain-loop oracles on every member, and so do the relations
    built from the folded keys and from the values."""
    items = member_items(universe)
    for keys, oracle, public in (
        (pessimistic_keys, pessimistic_key, pessimistic_utility),
        (optimistic_keys, optimistic_key, optimistic_utility),
    ):
        expected = [oracle(m, cfg) for m in universe.members]
        folded = keys(universe, cfg)
        assert list(member_keys(folded)) == expected
        assert [public(m, cfg).index for m in universe.members] == expected
        ranking = rank_decisions(items, partial(public, cfg=cfg))
        assert_ranked_by(ranking, items, expected, lambda value: value.index)
        from_values = induced_relation(universe, map(partial(public, cfg=cfg), universe.members))
        assert induced_relation(universe, folded).rows == from_values.rows
        assert_folds_agree(universe, keys, cfg)


def assert_binary_keys(universe, a):
    """As ``assert_scalar_keys``, for the pair-valued criterion."""
    items = member_items(universe)
    expected = [binary_key(m, a) for m in universe.members]
    folded = binary_keys(universe, a)
    assert list(member_keys(folded)) == expected
    values = [binary_utility(m, a) for m in universe.members]
    assert [binary_rank(value) for value in values] == expected
    ranking = rank_decisions(items, partial(binary_utility, a=a))
    assert_ranked_by(ranking, items, expected, binary_rank)
    assert induced_relation(universe, folded).rows == induced_relation(universe, values).rows
    assert_folds_agree(universe, binary_keys, a)


@st.composite
def drawn_configs(draw, outcomes, scale):
    """A scalar configuration and an assessment over the outcomes on the
    scale, each with preference classes that follow its prize utilities."""
    interior = [x for x in outcomes.labels if x not in (outcomes.best, outcomes.worst)]
    u_size = draw(st.integers(2, len(scale)))
    h = draw(st.sampled_from(enumerate_scale_maps(scale, canonical_scale(u_size, name="U"))))
    utility = {outcomes.best: u_size - 1, outcomes.worst: 0}
    utility.update((x, draw(st.integers(0, u_size - 1))) for x in interior)
    ranked = OutcomeSet(outcomes.labels, outcomes.best, outcomes.worst,
                        _classes_from_keys(outcomes, utility))
    cfg = ScalarUtilityConfig.from_indices(ranked, h, utility)
    top = scale.top_index
    pairs = {outcomes.best: (top, 0), outcomes.worst: (0, top)}
    for x in interior:
        rank = draw(st.integers(0, 2 * top))
        pairs[x] = (rank, top) if rank <= top else (top, 2 * top - rank)
    ranks = {x: pair_rank(*pair, top) for x, pair in pairs.items()}
    ranked = OutcomeSet(outcomes.labels, outcomes.best, outcomes.worst,
                        _classes_from_keys(outcomes, ranks))
    return cfg, BinaryUtilityAssessment.from_indices(ranked, scale, pairs)


class TestKeyCores:
    """A universe's folded keys, the public evaluators and the ranking keys
    agree with the plain-loop key oracles on every member."""

    @pytest.mark.parametrize("nx,nv", KEY_SPACES)
    def test_scalar_cores(self, nx, nv):
        universe = LotteryUniverse(canonical_outcomes(nx), canonical_scale(nv))
        for cfg in enumerate_scalar_configs(universe.outcomes, universe.scale):
            assert_scalar_keys(universe, cfg)

    @pytest.mark.parametrize("nx,nv", KEY_SPACES)
    @pytest.mark.parametrize("half", [None, "best", "worst"])
    def test_binary_core(self, nx, nv, half):
        universe = LotteryUniverse(canonical_outcomes(nx), canonical_scale(nv))
        for a in enumerate_assessments(universe.outcomes, universe.scale, half):
            for m in universe.members:
                assert binary_utility(m, a) == binary_utility_by_pair_algebra(m, a)
            assert_binary_keys(universe, a)

    def test_shuffled_prizes(self):
        outcomes, scale = SHUFFLED.outcomes, SHUFFLED.scale
        assert outcomes.labels[0] != outcomes.best
        for cfg in enumerate_scalar_configs(outcomes, scale):
            assert_scalar_keys(SHUFFLED, cfg)
        for half in (None, "best", "worst"):
            for a in enumerate_assessments(outcomes, scale, half):
                assert_binary_keys(SHUFFLED, a)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_drawn_configs_on_wide_universes(self, data):
        universe = data.draw(st.sampled_from(WIDE))
        cfg, a = data.draw(drawn_configs(universe.outcomes, universe.scale))
        assert_scalar_keys(universe, cfg)
        assert_binary_keys(universe, a)


class TestDomainMismatch:
    """The public evaluators reject a lottery on another domain or scale."""

    def test_evaluators_reject_other_spaces(self):
        outcomes, scale = canonical_outcomes(3), canonical_scale(3)
        cfg = enumerate_scalar_configs(outcomes, scale)[-1]
        assessment = enumerate_assessments(outcomes, scale)[-1]
        other_domain = point_mass(canonical_outcomes(2), "x1", scale)
        other_scale = point_mass(outcomes, "x1", canonical_scale(4))
        evaluators = [
            partial(pessimistic_utility, cfg=cfg),
            partial(optimistic_utility, cfg=cfg),
            partial(binary_utility, a=assessment),
            partial(reduce_to_standard, a=assessment),
        ]
        for evaluate in evaluators:
            with pytest.raises(ValueError, match="does not match the configured outcomes"):
                evaluate(other_domain)
            with pytest.raises(ScaleMismatchError) as caught:
                evaluate(other_scale)
            assert caught.value.first == canonical_scale(4)
            assert caught.value.second == scale


def assert_same_ranking(table, generic):
    """Same classes in the same order, and the very same value objects."""
    assert table.classes == generic.classes
    assert len(table.utilities) == len(generic.utilities)
    assert all(t is g for t, g in zip(table.utilities, generic.utilities))


def assert_paths_agree(items, cfg, a):
    """Each criterion ranks ``items`` alike from the term tables (public
    evaluator bound by keyword) and per item (the same evaluator behind a
    lambda)."""
    for evaluator, kwargs in (
        (pessimistic_utility, {"cfg": cfg}),
        (optimistic_utility, {"cfg": cfg}),
        (binary_utility, {"a": a}),
    ):
        if None in kwargs.values():
            continue
        table = rank_decisions(items, partial(evaluator, **kwargs))
        generic = rank_decisions(items, lambda pi: evaluator(pi, **kwargs))
        assert_same_ranking(table, generic)


@st.composite
def requests(draw, prizes=8):
    """An 8-prize ranking request: a configuration, an assessment and up to
    64 drawn lotteries, with repeats, on a drawn scale."""
    outcomes = canonical_outcomes(prizes)
    scale = canonical_scale(draw(st.integers(2, 6)))
    cfg, a = draw(drawn_configs(outcomes, scale))
    top = scale.top_index
    items = []
    for k in range(draw(st.integers(1, 64))):
        indices = draw(st.lists(st.integers(0, top), min_size=prizes, max_size=prizes))
        indices[draw(st.integers(0, prizes - 1))] = top
        items.append((f"i{k}", PossibilityDistribution(outcomes, scale, indices)))
    return items, cfg, a


class TestRankingParity:
    """Ranking from the term tables and ranking item by item through the
    evaluator give the same classes, order and value objects."""

    @pytest.mark.parametrize("nx,nv", KEY_SPACES)
    def test_enumerated_universes(self, nx, nv):
        universe = LotteryUniverse(canonical_outcomes(nx), canonical_scale(nv))
        items = member_items(universe)
        for cfg in enumerate_scalar_configs(universe.outcomes, universe.scale):
            assert_paths_agree(items, cfg, None)
        for half in (None, "best", "worst"):
            for a in enumerate_assessments(universe.outcomes, universe.scale, half):
                assert_paths_agree(items, None, a)

    @settings(max_examples=40, deadline=None)
    @given(requests())
    def test_drawn_requests(self, request):
        assert_paths_agree(*request)

    def test_tables_skip_the_evaluator(self, monkeypatch, example_scenario):
        """A wrapper set on the module attribute is still recognised, and
        never called; a positional partial and any other callable are called
        once per item."""
        s = example_scenario
        items = list(s.lotteries.items())
        calls = []

        def counted(original):
            def wrapper(*args, **kwargs):
                calls.append(original)
                return original(*args, **kwargs)
            return wrapper

        for name in ("pessimistic_utility", "optimistic_utility", "binary_utility"):
            monkeypatch.setattr(utilities, name, counted(getattr(utilities, name)))
        cfg = s.pessimistic_config
        bound = [
            partial(utilities.pessimistic_utility, cfg=cfg),
            partial(utilities.optimistic_utility, cfg=cfg),
            partial(utilities.binary_utility, a=s.assessment),
        ]
        tabled = [rank_decisions(items, evaluate) for evaluate in bound]
        assert calls == []

        def flipped(cfg, pi):
            return utilities.pessimistic_utility(pi, cfg)

        def by_keyword(pi, cfg):
            return utilities.pessimistic_utility(pi, cfg)

        # A keyword partial of a function that is no public evaluator ranks
        # item by item, as the table path ranks.
        for evaluate in (
            partial(flipped, cfg),
            partial(by_keyword, cfg=cfg),
            lambda pi: utilities.pessimistic_utility(pi, cfg),
        ):
            assert_same_ranking(rank_decisions(items, evaluate), tabled[0])
            assert len(calls) == len(items)
            calls.clear()
        # A public evaluator with a positional argument bound is called as
        # given, and fails as that call fails.
        with pytest.raises(TypeError, match="multiple values"):
            rank_decisions(items, partial(utilities.pessimistic_utility, items[0][1], cfg=cfg))
        assert len(calls) == 1

    @pytest.mark.parametrize("evaluator", ["pessimistic", "optimistic", "binary"])
    def test_errors_unchanged(self, evaluator):
        """The first misfit item raises the evaluator's own error on both paths."""
        outcomes, scale = canonical_outcomes(3), canonical_scale(3)
        cfg = enumerate_scalar_configs(outcomes, scale)[-1]
        a = enumerate_assessments(outcomes, scale)[-1]
        bound, configured = {
            "pessimistic": (partial(pessimistic_utility, cfg=cfg), cfg.outcomes),
            "optimistic": (partial(optimistic_utility, cfg=cfg), cfg.outcomes),
            "binary": (partial(binary_utility, a=a), a.outcomes),
        }[evaluator]
        # On the configured outcomes themselves, so only the scale differs.
        fits = ("fits", point_mass(configured, "x1", scale))
        other_domain = ("domain", point_mass(canonical_outcomes(2), "x1", scale))
        other_scale = ("scale", point_mass(configured, "x1", canonical_scale(4)))
        for items, error, message in (
            ([fits, other_domain, other_scale], ValueError, "does not match the configured"),
            ([fits, other_scale, other_domain], ScaleMismatchError, "scale mismatch"),
        ):
            raised = []
            for evaluate in (bound, lambda pi: bound(pi)):
                with pytest.raises(error, match=message) as caught:
                    rank_decisions(items, evaluate)
                raised.append(caught.value)
            assert type(raised[0]) is type(raised[1]) and str(raised[0]) == str(raised[1])


def preference_order_problem(outcomes, keys, noun):
    """Plain-loop oracle of ``_check_preference_order``: the message for
    the first pair, in label order, that ``keys`` order unlike the
    declared preference, else None."""
    labels, ranks = outcomes.labels, [outcomes.class_of[x] for x in outcomes.labels]
    for x, x_rank, x_key in zip(labels, ranks, keys):
        for y, y_rank, y_key in zip(labels, ranks, keys):
            if (x_rank <= y_rank) != (x_key >= y_key):
                return f"{noun} is inconsistent with the preference order on {x!r} and {y!r}"
    return None


@st.composite
def ranked_outcomes(draw):
    """Up to 6 shuffled labels cut into preference classes, with a key each."""
    labels = draw(st.permutations([f"x{k}" for k in range(draw(st.integers(2, 6)))]))
    cuts = sorted(draw(st.sets(st.integers(1, len(labels) - 1), min_size=1)))
    classes = [labels[a:b] for a, b in zip([0, *cuts], [*cuts, len(labels)])]
    outcomes = OutcomeSet(labels, classes[0][0], classes[-1][-1], classes)
    keys = draw(st.lists(st.integers(0, 4), min_size=len(labels), max_size=len(labels)))
    return outcomes, keys


class TestPreferenceOrder:
    @settings(max_examples=300, deadline=None)
    @given(ranked_outcomes())
    def test_matches_pairwise_walk(self, drawn):
        outcomes, keys = drawn
        expected = preference_order_problem(outcomes, keys, "prize utility")
        if expected is None:
            utilities._check_preference_order(outcomes, keys, "prize utility")
        else:
            with pytest.raises(ValueError) as caught:
                utilities._check_preference_order(outcomes, keys, "prize utility")
            assert str(caught.value) == expected

    def test_class_with_two_keys_fails(self):
        outcomes = OutcomeSet(("a", "b", "c"), "a", "c", (("a",), ("b", "c")))
        with pytest.raises(ValueError, match="on 'c' and 'b'"):
            utilities._check_preference_order(outcomes, [2, 1, 0], "assessment")
        utilities._check_preference_order(outcomes, [2, 0, 0], "assessment")

    def test_equal_keys_across_classes_fail(self):
        outcomes = OutcomeSet(("a", "b", "c"), "a", "c")
        with pytest.raises(ValueError, match="on 'b' and 'a'"):
            utilities._check_preference_order(outcomes, [1, 1, 0], "prize utility")
