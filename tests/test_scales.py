"""Scale construction, the pair algebra, and the table validators."""

import itertools
import re
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from axiom_oracles import identity_map
from posdec.scales import (
    MAX_DECIMAL_EXPONENT,
    BinaryUtility,
    Scale,
    ScaleMap,
    ScaleMismatchError,
    UtilityPair,
    binary_rank,
    compare_binary,
    ext_max,
    ext_min,
    level_max,
    level_min,
    parse_label,
    validate_scale_map,
)

V4 = Scale(("0", ".5", ".7", "1"), name="V")
U4 = Scale(("0", ".3", ".5", "1"), name="U")


def scale_of_size(size: int, name: str = "V") -> Scale:
    presets = {
        2: ("0", "1"),
        3: ("0", ".5", "1"),
        4: ("0", ".3", ".7", "1"),
        5: ("0", ".2", ".5", ".7", "1"),
        6: ("0", ".1", ".3", ".5", ".7", "1"),
    }
    return Scale(presets[size], name=name)


class TestScaleConstruction:
    def test_valid_scale(self):
        assert len(V4) == 4
        assert V4.level_values[0].label == "0"
        assert V4.level_values[-1].label == "1"

    def test_too_few_levels(self):
        with pytest.raises(ValueError, match="at least 2"):
            Scale(("1",))

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError, match="start at 0"):
            Scale((".1", "1"))

    def test_must_end_at_one(self):
        with pytest.raises(ValueError, match="end at 1"):
            Scale(("0", ".9"))

    def test_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increase"):
            Scale(("0", ".5", ".5", "1"))
        with pytest.raises(ValueError, match="strictly increase"):
            Scale(("0", ".7", ".5", "1"))

    def test_non_numeric_label(self):
        with pytest.raises(ValueError, match="rational"):
            Scale(("0", "mid", "1"))

    def test_decimal_exponent_is_bounded(self):
        # Past the bound the label is rejected before Fraction builds the
        # power: 10**1000000000 would take minutes and about 415 MB.
        start = time.perf_counter()
        with pytest.raises(ValueError, match="decimal exponent over the bound"):
            Scale(("0", "1e-1000000000", "1"))
        # Fraction also reads underscores and any Unicode decimal digits.
        for label in (
            f"1e-{MAX_DECIMAL_EXPONENT + 1}", "1E+9999999", "1e-1_000_000", "1e-\u0661" + "0" * 9
        ):
            with pytest.raises(ValueError, match=re.escape(f"label '{label}' has a decimal")):
                parse_label(label)
        assert time.perf_counter() - start < 1.0
        assert parse_label(f"1e-{MAX_DECIMAL_EXPONENT}").denominator == 10**MAX_DECIMAL_EXPONENT
        assert parse_label("25e-0000000000000000002") == parse_label(".25")

    def test_fraction_labels_accepted(self):
        scale = Scale(("0", "1/3", "1"))
        assert scale.numeric(1).numerator == 1

    def test_lookup_by_label(self):
        assert V4[".7"].index == 2
        with pytest.raises(KeyError):
            V4[".9"]


class TestLevelOrder:
    def test_min_max(self):
        assert level_min(V4[".7"], V4[".5"]) == V4[".5"]
        assert level_max(V4[".7"], V4[".5"]) == V4[".7"]

    def test_bottom_identity(self):
        for label in V4.levels:
            assert level_max(V4[label], V4["0"]) == V4[label]
            assert level_min(V4[label], V4["1"]) == V4[label]

    def test_idempotence(self):
        for label in V4.levels:
            assert level_min(V4[label], V4[label]) == V4[label]

    def test_cross_scale_comparison_rejected(self):
        with pytest.raises(ScaleMismatchError) as err:
            level_min(V4[".5"], U4[".5"])
        assert "V" in str(err.value) and "U" in str(err.value)


@st.composite
def scale_and_level_pairs(draw):
    size = draw(st.integers(min_value=2, max_value=6))
    scale = scale_of_size(size)
    i = draw(st.integers(min_value=0, max_value=size - 1))
    j = draw(st.integers(min_value=0, max_value=size - 1))
    return scale.level(i), scale.level(j)


@given(scale_and_level_pairs())
def test_level_lattice_laws(pair):
    a, b = pair
    assert level_min(a, b) == level_min(b, a)
    assert level_max(a, b) == level_max(b, a)
    assert level_max(level_min(a, b), a) == a
    assert level_min(level_max(a, b), a) == a


class TestBinaryOrder:
    def test_top_vs_bottom(self):
        top = BinaryUtility(V4["1"], V4["0"])
        bottom = BinaryUtility(V4["0"], V4["1"])
        assert compare_binary(top, bottom) == 1

    def test_within_best_half(self):
        a = BinaryUtility(V4["1"], V4[".5"])
        b = BinaryUtility(V4["1"], V4["1"])
        assert compare_binary(a, b) == 1

    def test_across_halves(self):
        a = BinaryUtility(V4["1"], V4[".7"])
        b = BinaryUtility(V4[".7"], V4["1"])
        assert compare_binary(a, b) == 1

    def test_within_worst_half(self):
        a = BinaryUtility(V4[".5"], V4["1"])
        b = BinaryUtility(V4[".7"], V4["1"])
        assert compare_binary(a, b) == -1

    def test_pair_needs_top_component(self):
        with pytest.raises(ValueError, match="binary utility"):
            BinaryUtility(V4[".5"], V4[".7"])

    def test_scale_mismatch(self):
        with pytest.raises(ScaleMismatchError):
            compare_binary(
                BinaryUtility(V4["1"], V4["0"]), BinaryUtility(U4["1"], U4["0"])
            )

    @pytest.mark.parametrize("size", range(2, 7))
    def test_total_order(self, size):
        scale = scale_of_size(size)
        elements = scale.binary_values
        assert len(elements) == 2 * size - 1
        for a in elements:
            for b in elements:
                c = compare_binary(a, b)
                assert c == -compare_binary(b, a)
                assert (c == 0) == (a == b)
        for a, b, c in itertools.product(elements, repeat=3):
            if compare_binary(a, b) >= 0 and compare_binary(b, c) >= 0:
                assert compare_binary(a, c) >= 0

    @pytest.mark.parametrize("size", range(2, 7))
    def test_extremes(self, size):
        scale = scale_of_size(size)
        elements = scale.binary_values
        top = BinaryUtility(scale["1"], scale["0"])
        bottom = BinaryUtility(scale["0"], scale["1"])
        assert all(compare_binary(top, e) >= 0 for e in elements)
        assert all(compare_binary(e, bottom) >= 0 for e in elements)

    @pytest.mark.parametrize("size", range(2, 7))
    def test_rank_agrees_with_comparison(self, size):
        scale = scale_of_size(size)
        elements = scale.binary_values
        for a in elements:
            for b in elements:
                lhs = compare_binary(a, b)
                rhs = (binary_rank(a) > binary_rank(b)) - (binary_rank(a) < binary_rank(b))
                assert lhs == rhs


class TestPairAlgebra:
    def test_ext_min_worked_values(self):
        # min(.5, <1,.7>) = <.5,.5>
        result = ext_min(V4[".5"], UtilityPair(V4["1"], V4[".7"]))
        assert (result.first.label, result.second.label) == (".5", ".5")

    def test_ext_min_top_identity(self):
        p = UtilityPair(V4[".7"], V4[".5"])
        assert ext_min(V4["1"], p) == p

    def test_ext_min_bottom_annihilates(self):
        p = UtilityPair(V4["1"], V4["1"])
        result = ext_min(V4["0"], p)
        assert (result.first.label, result.second.label) == ("0", "0")

    def test_ext_max_componentwise(self):
        result = ext_max(UtilityPair(V4[".7"], V4["0"]), UtilityPair(V4["0"], V4[".5"]))
        assert (result.first.label, result.second.label) == (".7", ".5")

    def test_ext_max_fold_worked_example(self):
        rows = [(".7", "0"), ("1", ".5"), (".5", ".5"), (".5", ".5")]
        pairs = [UtilityPair(V4[a], V4[b]) for a, b in rows]
        acc = pairs[0]
        for p in pairs[1:]:
            acc = ext_max(acc, p)
        assert (acc.first.label, acc.second.label) == ("1", ".5")

    def test_ext_max_idempotent(self):
        p = UtilityPair(V4[".7"], V4[".5"])
        assert ext_max(p, p) == p

    @pytest.mark.parametrize("size", range(2, 5))
    def test_algebra_laws_exhaustive(self, size):
        scale = scale_of_size(size)
        pairs = [
            UtilityPair(scale.level(i), scale.level(j))
            for i in range(size)
            for j in range(size)
        ]
        for p, q in itertools.product(pairs, repeat=2):
            assert ext_max(p, q) == ext_max(q, p)
        for p, q, r in itertools.product(pairs, repeat=3):
            assert ext_max(ext_max(p, q), r) == ext_max(p, ext_max(q, r))
        for alpha in scale.level_values:
            for p, q in itertools.product(pairs, repeat=2):
                assert ext_min(alpha, ext_max(p, q)) == ext_max(
                    ext_min(alpha, p), ext_min(alpha, q)
                )

    def test_scale_mismatch(self):
        with pytest.raises(ScaleMismatchError):
            ext_min(U4[".3"], UtilityPair(V4["1"], V4["0"]))
        with pytest.raises(ScaleMismatchError):
            UtilityPair(V4["1"], U4["0"])


class TestScaleMap:
    def test_worked_example_table(self):
        h = ScaleMap.from_labels(
            V4, U4, {"1": "1", ".7": ".5", ".5": ".3", "0": "0"}
        )
        assert validate_scale_map(h) is None
        assert U4.levels[h.images[V4.index(".7")]] == ".5"

    def test_identity(self):
        assert validate_scale_map(identity_map(V4)) is None

    def test_not_onto(self):
        target = Scale(("0", ".3", "1"), name="U")
        source = V4
        h = ScaleMap.from_labels(
            source, target, {"1": "1", ".7": "1", ".5": "0", "0": "0"}
        )
        report = validate_scale_map(h)
        assert report is not None and "onto" in report and ".3" in report

    def test_monotonicity_violation(self):
        h = ScaleMap.from_labels(
            V4, U4, {"1": "1", ".7": ".3", ".5": ".5", "0": "0"}
        )
        assert "monotonicity" in validate_scale_map(h)

    def test_incomplete_table(self):
        with pytest.raises(ValueError, match="incomplete"):
            ScaleMap.from_labels(V4, U4, {"1": "1", "0": "0"})

    @pytest.mark.parametrize(
        "images, message",
        [
            ((0, 3), "^scale map table is incomplete: 2 images for 4 levels$"),
            ((0, 1, 2, 4), "^scale map image index 4 out of range$"),
            ((0, -1, 2, 3), "^scale map image index -1 out of range$"),
        ],
        ids=["incomplete", "past-the-top", "negative"],
    )
    def test_image_table_is_checked(self, images, message):
        with pytest.raises(ValueError, match=message):
            ScaleMap(V4, U4, images)

    @pytest.mark.parametrize(
        "images, report",
        [
            ((1, 1, 2, 3), "anchor violated: image of '0' is '.3', not '0'"),
            ((0, 1, 2, 2), "anchor violated: image of '1' is '.5', not '1'"),
        ],
        ids=["bottom", "top"],
    )
    def test_anchor_violations(self, images, report):
        assert validate_scale_map(ScaleMap(V4, U4, images)) == report
