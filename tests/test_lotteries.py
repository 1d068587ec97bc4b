"""Distributions, mixtures, decisions, enumeration, and the disbelief bridge."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from axiom_oracles import level_at, point_mass, standard_distribution, standard_lotteries
from posdec.checker import LotteryUniverse
from posdec.lotteries import (
    BoundExceededError,
    Decision,
    NormalizationError,
    OutcomeSet,
    StandardLottery,
    StateSpace,
    distribution_from_indices,
    enumerate_distributions,
    enumeration_count,
    induced_distribution,
    mixture,
)
from posdec.scales import Scale
from posdec.spohn import (
    INFINITY,
    MAX_DISBELIEF,
    DisbeliefBoundError,
    DisbeliefFunction,
    format_fraction_label,
    from_disbelief,
    to_disbelief,
)

V4 = Scale(("0", ".5", ".7", "1"), name="V")
X4 = OutcomeSet(("x1", "x2", "x3", "x4"), best="x1", worst="x4")
X2 = OutcomeSet(("good", "bad"), best="good", worst="bad")


def dist(domain, scale, *labels):
    return distribution_from_indices(
        domain, scale, {l: scale.index(v) for l, v in zip(domain.labels, labels)}
    )


class TestOutcomeSet:
    def test_needs_two(self):
        with pytest.raises(ValueError, match="at least 2"):
            OutcomeSet(("x",), best="x", worst="x")

    def test_best_differs_from_worst(self):
        with pytest.raises(ValueError, match="differ"):
            OutcomeSet(("a", "b"), best="a", worst="a")

    def test_default_preference_is_declaration_order(self):
        assert X4.class_of["x1"] < X4.class_of["x3"]
        assert X4.preference_classes == (("x1",), ("x2",), ("x3",), ("x4",))

    def test_classes_must_partition(self):
        with pytest.raises(ValueError, match="partition"):
            OutcomeSet(("a", "b"), "a", "b", (("a",), ("a", "b")))

    def test_best_must_lead(self):
        with pytest.raises(ValueError, match="first class"):
            OutcomeSet(("a", "b"), "a", "b", (("b",), ("a",)))


class TestMakeDistribution:
    def test_worked_example_lottery(self):
        pi1 = dist(X4, V4, ".7", "1", ".5", ".5")
        assert level_at(pi1, "x2").label == "1"

    def test_all_zero_rejected(self):
        with pytest.raises(NormalizationError, match="max level is '0'"):
            dist(X4, V4, "0", "0", "0", "0")

    def test_point_mass_at_worst(self):
        pi2 = point_mass(X4, "x4", V4)
        assert level_at(pi2, "x4").label == "1"
        assert level_at(pi2, "x1").label == "0"

    def test_missing_label(self):
        with pytest.raises(ValueError, match="missing value for label 'x4'"):
            distribution_from_indices(X4, V4, {"x1": 3, "x2": 0, "x3": 0})

    def test_unknown_label(self):
        values = dict.fromkeys(X4.labels, 3)
        values["x9"] = 0
        with pytest.raises(ValueError, match="unknown label 'x9'"):
            distribution_from_indices(X4, V4, values)

    def test_under_normalized_reports_actual_max(self):
        with pytest.raises(NormalizationError, match="'.7'"):
            dist(X4, V4, ".7", ".5", "0", "0")


class TestMixture:
    def test_self_absorption(self):
        pi = dist(X4, V4, ".7", "1", ".5", ".5")
        assert mixture([(V4[".5"], pi), (V4["1"], pi)]) == pi

    def test_point_mass_blend(self):
        best = point_mass(X2, "good", V4)
        worst = point_mass(X2, "bad", V4)
        blended = mixture([(V4["1"], best), (V4[".5"], worst)])
        assert level_at(blended, "good").label == "1"
        assert level_at(blended, "bad").label == ".5"

    def test_both_fully_possible(self):
        best = point_mass(X2, "good", V4)
        worst = point_mass(X2, "bad", V4)
        blended = mixture([(V4["1"], best), (V4["1"], worst)])
        assert level_at(blended, "good").label == "1"
        assert level_at(blended, "bad").label == "1"

    def test_weights_must_normalize(self):
        pi = point_mass(X2, "good", V4)
        with pytest.raises(NormalizationError, match="weights"):
            mixture([(V4[".5"], pi), (V4[".7"], pi)])

    def test_domain_mismatch(self):
        with pytest.raises(ValueError, match="share"):
            mixture([(V4["1"], point_mass(X2, "good", V4)), (V4["1"], point_mass(X4, "x1", V4))])

    def test_commutativity_exhaustive(self):
        scale = Scale(("0", ".5", "1"))
        members = enumerate_distributions(X2, scale)
        weights = [(scale.level(i), scale.level(j)) for i in range(3) for j in range(3)
                   if max(i, j) == 2]
        for p1, p2 in itertools.product(members, repeat=2):
            for w1, w2 in weights:
                assert mixture([(w1, p1), (w2, p2)]) == mixture([(w2, p2), (w1, p1)])

    def test_outputs_always_normalized_exhaustive(self):
        # Postcondition sweep covering the unchecked construction inside
        # mixture: binary and ternary blends over a small space.
        scale = Scale(("0", ".5", "1"))
        members = enumerate_distributions(X2, scale)
        top = len(scale) - 1
        levels = scale.level_values
        pairs = [(a, b) for a in levels for b in levels
                 if max(a.index, b.index) == top]
        for p1, p2 in itertools.product(members, repeat=2):
            for w1, w2 in pairs:
                out = mixture([(w1, p1), (w2, p2)])
                assert max(out.indices) == top
                assert min(out.indices) >= 0
                assert len(out.indices) == len(X2.labels)
        for p1, p2, p3 in itertools.product(members, repeat=3):
            for w1, w2 in pairs:
                for w3 in levels:
                    out = mixture([(w1, p1), (w2, p2), (w3, p3)])
                    assert max(out.indices) == top
                    assert min(out.indices) >= 0
                    assert len(out.indices) == len(X2.labels)

    def test_self_absorption_exhaustive(self):
        scale = Scale(("0", ".3", ".7", "1"))
        outcomes = OutcomeSet(("a", "b", "c"), best="a", worst="c")
        members = enumerate_distributions(outcomes, scale)
        top = len(scale) - 1
        weights = [(scale.level(i), scale.level(j))
                   for i in range(len(scale)) for j in range(len(scale))
                   if max(i, j) == top]
        for pi in members:
            for w1, w2 in weights:
                assert mixture([(w1, pi), (w2, pi)]) == pi

    def test_flattening_depth_two_exhaustive(self):
        scale = Scale(("0", ".5", "1"))
        members = enumerate_distributions(X2, scale)
        top = len(scale) - 1
        pairs = [(i, j) for i in range(len(scale)) for j in range(len(scale))
                 if max(i, j) == top]
        for p1, p2, p3 in itertools.product(members, repeat=3):
            for b1, b2 in pairs:
                inner = mixture([(scale.level(b1), p1), (scale.level(b2), p2)])
                for a, c in pairs:
                    nested = mixture([(scale.level(a), inner), (scale.level(c), p3)])
                    flat = mixture(
                        [
                            (scale.level(min(a, b1)), p1),
                            (scale.level(min(a, b2)), p2),
                            (scale.level(c), p3),
                        ]
                    )
                    assert nested == flat


@st.composite
def mixture_cases(draw):
    scale = Scale(("0", ".3", ".7", "1"))
    outcomes = OutcomeSet(("a", "b", "c"), best="a", worst="c")
    members = enumerate_distributions(outcomes, scale)
    p1 = draw(st.sampled_from(members))
    p2 = draw(st.sampled_from(members))
    top = len(scale) - 1
    w1 = draw(st.integers(min_value=0, max_value=top))
    w2 = draw(st.integers(min_value=0, max_value=top))
    if max(w1, w2) != top:
        w1 = top
    return scale, p1, p2, scale.level(w1), scale.level(w2)


@given(mixture_cases())
def test_mixture_commutative_and_normalized(case):
    scale, p1, p2, w1, w2 = case
    left = mixture([(w1, p1), (w2, p2)])
    assert left == mixture([(w2, p2), (w1, p1)])
    assert max(left.indices) == len(scale) - 1


class TestInducedDistribution:
    STATES = StateSpace(("s1", "s2", "s3"))

    def test_constant_decision(self):
        pi = dist(self.STATES, V4, "1", ".7", ".5")
        d = Decision.from_mapping(self.STATES, {"s1": "x2", "s2": "x2", "s3": "x2"})
        assert induced_distribution(pi, d, X4) == point_mass(X4, "x2", V4)

    def test_merging_decision(self):
        pi = dist(self.STATES, V4, "1", ".7", ".5")
        d = Decision.from_mapping(self.STATES, {"s1": "x2", "s2": "x2", "s3": "x4"})
        induced = induced_distribution(pi, d, X4)
        assert level_at(induced, "x2").label == "1"
        assert level_at(induced, "x4").label == ".5"
        assert level_at(induced, "x1").label == "0"
        assert level_at(induced, "x3").label == "0"

    def test_injective_decision_relabels(self):
        pi = dist(self.STATES, V4, "1", ".7", ".5")
        d = Decision.from_mapping(self.STATES, {"s1": "x1", "s2": "x2", "s3": "x3"})
        induced = induced_distribution(pi, d, X4)
        assert [level_at(induced, x).label for x in ("x1", "x2", "x3", "x4")] == [
            "1", ".7", ".5", "0",
        ]

    def test_unknown_outcome(self):
        pi = dist(self.STATES, V4, "1", ".7", ".5")
        d = Decision(self.STATES, ("x1", "x9", "x1"))
        with pytest.raises(ValueError, match="unknown outcome 'x9'"):
            induced_distribution(pi, d, X4)

    def test_decision_must_cover_states(self):
        with pytest.raises(ValueError, match="state 's3'"):
            Decision.from_mapping(self.STATES, {"s1": "x1", "s2": "x2"})


class TestEnumeration:
    def test_tiny_counts(self):
        two = Scale(("0", "1"))
        three = Scale(("0", ".5", "1"))
        assert len(enumerate_distributions(X2, two)) == 3
        assert len(enumerate_distributions(X2, three)) == 5

    def test_worked_example_count(self):
        assert len(enumerate_distributions(X4, V4)) == 175

    @pytest.mark.parametrize("nx", range(2, 5))
    @pytest.mark.parametrize("nv", range(2, 5))
    def test_count_formula(self, nx, nv):
        outcomes = OutcomeSet(
            tuple(f"x{i}" for i in range(nx)), best="x0", worst=f"x{nx - 1}"
        )
        labels = {2: ("0", "1"), 3: ("0", ".5", "1"), 4: ("0", ".3", ".7", "1")}
        scale = Scale(labels[nv])
        members = enumerate_distributions(outcomes, scale)
        assert len(members) == enumeration_count(nx, nv) == nv**nx - (nv - 1) ** nx
        assert len(set(members)) == len(members)
        top = nv - 1
        assert all(max(m.indices) == top for m in members)

    def test_bound_exceeded_states_count(self):
        with pytest.raises(BoundExceededError, match="175"):
            enumerate_distributions(X4, V4, limit=100)

    def test_bound_exceeded_names_the_space(self):
        """Worded as the up-front checks word it, so a universe built
        directly names its space; the limit is the largest count allowed."""
        with pytest.raises(BoundExceededError, match=(
            r"^a universe of 175 lotteries: 4 outcomes by 4 levels are over the "
            r"enumeration limit of 174 lotteries$"
        )):
            enumerate_distributions(X4, V4, limit=174)
        assert len(enumerate_distributions(X4, V4, limit=175)) == 175
        seven = OutcomeSet(tuple(f"x{i}" for i in range(7)), best="x0", worst="x6")
        six = Scale(("0", ".1", ".3", ".5", ".7", "1"))
        with pytest.raises(BoundExceededError, match=(
            r"^a universe of 201811 lotteries: 7 outcomes by 6 levels are over the "
            r"enumeration limit of 200000 lotteries$"
        )):
            LotteryUniverse(seven, six)


class TestStandardLotteries:
    def test_count_and_halves(self):
        lots = standard_lotteries(V4)
        assert len(lots) == 7
        assert sum(1 for s in lots if s.best_weight.is_top()) == 4
        assert sum(1 for s in lots if s.worst_weight.is_top()) == 4

    def test_needs_top_weight(self):
        with pytest.raises(ValueError, match="standard lottery"):
            StandardLottery(V4[".5"], V4[".7"])

    def test_as_distribution(self):
        sl = StandardLottery(V4["1"], V4[".5"])
        d = standard_distribution(sl, X4)
        assert level_at(d, "x1").label == "1"
        assert level_at(d, "x4").label == ".5"
        assert level_at(d, "x2").label == "0"


class TestDisbeliefBridge:
    def test_zero_ranking_gives_full_possibility(self):
        delta = DisbeliefFunction.from_mapping({"s1": 0, "s2": 0})
        pi = from_disbelief(delta, 2)
        assert all(level.label == "1" for _, level in pi.items())

    def test_base_two_example(self):
        delta = DisbeliefFunction.from_mapping({"s1": 0, "s2": 1, "s3": INFINITY})
        pi = from_disbelief(delta, 2)
        assert [level.label for _, level in pi.items()] == ["1", ".5", "0"]

    def test_base_two_squared(self):
        delta = DisbeliefFunction.from_mapping({"s1": 0, "s2": 2})
        pi = from_disbelief(delta, 2)
        assert level_at(pi, "s2").label == ".25"

    def test_to_disbelief(self):
        scale = Scale(("0", ".5", "1"))
        states = StateSpace(("s1", "s2", "s3"))
        pi = dist(states, scale, "1", ".5", "0")
        delta = to_disbelief(pi, 2)
        assert delta.values == (0, 1, INFINITY)

    def test_non_normalized_rejected(self):
        with pytest.raises(NormalizationError, match="min value"):
            DisbeliefFunction.from_mapping({"s1": 1, "s2": 2})

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            DisbeliefFunction.from_mapping({"s1": 0, "s2": -1})

    def test_base_must_exceed_one(self):
        delta = DisbeliefFunction.from_mapping({"s1": 0})
        with pytest.raises(ValueError, match="> 1"):
            from_disbelief(delta, 1)

    def test_round_trip_exhaustive_small(self):
        options = list(range(0, 9)) + [INFINITY]
        for combo in itertools.product(options, repeat=3):
            if min(combo) != 0:
                continue
            delta = DisbeliefFunction(("s1", "s2", "s3"), combo)
            assert to_disbelief(from_disbelief(delta, 2), 2) == delta

    def test_ranks_are_bounded_both_ways(self):
        delta = DisbeliefFunction.from_mapping({"s1": 0, "s2": MAX_DISBELIEF})
        assert to_disbelief(from_disbelief(delta, 5), 5) == delta
        with pytest.raises(DisbeliefBoundError, match="3000000 for 's2' is over the bound"):
            DisbeliefFunction.from_mapping({"s1": 0, "s2": 3_000_000})
        tiny = f"1/{2 ** (MAX_DISBELIEF + 1)}"
        pi = dist(StateSpace(("s1", "s2")), Scale(("0", tiny, "1")), "1", tiny)
        with pytest.raises(DisbeliefBoundError, match="for 's2' at base 2 is over the bound"):
            to_disbelief(pi, 2)

    def test_round_trip_non_terminating_base(self):
        # Base 3 yields 1/3 and 1/9, which have no finite decimal form.
        delta = DisbeliefFunction.from_mapping({"s1": 0, "s2": 1, "s3": 2})
        pi = from_disbelief(delta, 3)
        assert level_at(pi, "s2").label == "1/3"
        assert to_disbelief(pi, 3) == delta

    @given(
        st.lists(
            st.one_of(st.integers(min_value=0, max_value=12), st.just(INFINITY)),
            min_size=1,
            max_size=4,
        ).filter(lambda vs: 0 in vs),
        st.integers(min_value=2, max_value=5),
    )
    def test_round_trip_property(self, values, base):
        labels = tuple(f"s{i}" for i in range(len(values)))
        delta = DisbeliefFunction(labels, tuple(values))
        assert to_disbelief(from_disbelief(delta, base), base) == delta


class TestFractionLabels:
    @pytest.mark.parametrize(
        "num, den, expected",
        [(1, 2, ".5"), (1, 4, ".25"), (1, 20, ".05"), (3, 4, ".75"), (1, 3, "1/3")],
    )
    def test_formatting(self, num, den, expected):
        from fractions import Fraction

        assert format_fraction_label(Fraction(num, den)) == expected
