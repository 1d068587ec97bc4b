"""Finite ordinal scales and the max-min algebra on levels and level pairs.

Everything here is purely ordinal: labels are display metadata parsed once
for validation, and every operation works on positions inside a declared
scale.  Mixing levels from different scales is a hard error, never a
coercion.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property
from operator import attrgetter

# The largest decimal exponent a rational may be written with.  Fraction
# builds 10**|exponent| before any other bound applies, in time that grows
# faster than the exponent (about 2 s at 3,000,000).  Any exponent past a few
# thousand already gives a level over the MAX_LEVEL_BITS bound of
# ``spohn``, which rejects it once built; this bound keeps that build
# to milliseconds and rejects a larger exponent unparsed.
MAX_DECIMAL_EXPONENT = 2**18


class ScaleMismatchError(ValueError):
    """An operation mixed values from two different scales."""

    def __init__(self, first: "Scale", second: "Scale"):
        super().__init__(
            f"scale mismatch: {first.name!r} {first.levels} vs "
            f"{second.name!r} {second.levels}"
        )
        self.first = first
        self.second = second


def check_same_scale(first: "Scale", second: "Scale") -> None:
    """Raise ``ScaleMismatchError(first, second)`` unless the scales are equal,
    testing identity first."""
    if first is not second and first != second:
        raise ScaleMismatchError(first, second)


class _Record:
    """A value compared, hashed and shown by the fields named in ``_fields``.

    A subclass lists its fields in constructor order, and its ``__init__``
    validates its arguments and sets the fields and any derived attributes.
    Records are equal only to records of their own class with equal
    fields, hash as the tuple of their fields and show as
    ``Name(field=value, ...)``; derived attributes take no part.  A record
    is frozen: setting or deleting an attribute raises ``AttributeError``,
    so ``__init__`` sets them through ``object.__setattr__``.  A class
    declared ``frozen=False`` is mutable and unhashable instead.  A record
    pickles and copies by calling its class with its fields.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls, frozen: bool = True) -> None:
        get = attrgetter(*cls._fields)
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda record: (get(record),))
        if not frozen:
            cls.__hash__ = None
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__

    def __eq__(self, other: object) -> bool:
        if other is self:  # as the field tuples would say, without building them
            return True
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self) -> tuple:
        return type(self), self._values(self)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def parse_rational(text, what: str) -> Fraction:
    """``Fraction(text)``, with a decimal exponent over ``MAX_DECIMAL_EXPONENT``
    rejected before its power is built.

    Every failure is a ``ValueError`` whose message starts with ``what``.
    """
    if isinstance(text, str):
        _, marker, exponent = text.upper().rpartition("E")
        digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
        # Fraction reads any Unicode decimal digits, and so does int.
        if marker and digits.isdecimal() and (
            len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits) > MAX_DECIMAL_EXPONENT
        ):
            raise ValueError(
                f"{what} has a decimal exponent over the bound of {MAX_DECIMAL_EXPONENT}"
            )
    try:
        return Fraction(text)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ValueError(f"{what} is not a rational number") from exc


def parse_label(label: str) -> Fraction:
    """Parse a level label into an exact rational (no floats anywhere)."""
    return parse_rational(label, f"level label {label!r}")


class Scale(_Record):
    """A finite totally ordered set of levels with bottom 0 and top 1.

    Labels must be distinct rational strings (decimals such as ".5"
    preferred), strictly increasing, starting at 0 and ending at 1.
    Immutable after construction; all validation happens here so every
    downstream operation is total on valid inputs.
    """

    # Not slotted: the cached properties below keep their values in the
    # instance dict.  ``top_index`` and ``index_of`` are cached for hot
    # paths; derived, so excluded from equality and repr.
    _fields = ("levels", "name")

    def __init__(self, levels: tuple[str, ...], name: str = "scale") -> None:
        object.__setattr__(self, "levels", tuple(levels))
        object.__setattr__(self, "name", name)
        if len(self.levels) < 2:
            raise ValueError(f"scale {self.name!r} needs at least 2 levels")
        object.__setattr__(self, "top_index", len(self.levels) - 1)
        values = [parse_label(label) for label in self.levels]
        if values[0] != 0:
            raise ValueError(f"scale {self.name!r} must start at 0, got {self.levels[0]!r}")
        if values[-1] != 1:
            raise ValueError(f"scale {self.name!r} must end at 1, got {self.levels[-1]!r}")
        for i, (a, b) in enumerate(zip(values, values[1:])):
            if a >= b:
                raise ValueError(
                    f"scale {self.name!r} labels must strictly increase: "
                    f"{self.levels[i]!r} >= {self.levels[i + 1]!r}"
                )
        object.__setattr__(self, "index_of", {label: i for i, label in enumerate(self.levels)})

    def __len__(self) -> int:
        return len(self.levels)

    def index(self, label: str) -> int:
        """Index of the level labelled ``label``."""
        try:
            return self.index_of[label]
        except (KeyError, TypeError):
            raise KeyError(f"scale {self.name!r} has no level {label!r}") from None

    def __getitem__(self, label: str) -> "Level":
        """Look a level up by its label."""
        return self.level_values[self.index(label)]

    def level(self, index: int) -> "Level":
        return Level(self, index)

    def numeric(self, index: int) -> Fraction:
        """Exact rational value of the level at ``index``."""
        return parse_label(self.levels[index])

    # Built once per scale so evaluators return values without building them;
    # not fields, so equality and hashing ignore them.
    @cached_property
    def level_values(self) -> tuple["Level", ...]:
        """Each level, by index."""
        return tuple(Level(self, i) for i in range(len(self.levels)))

    @cached_property
    def binary_values(self) -> tuple["BinaryUtility", ...]:
        """Each binary utility over the scale, by ``binary_rank``: all 2|V|-1,
        ascending."""
        top = self.level_values[-1]
        out = [BinaryUtility(level, top) for level in self.level_values]
        out.extend(BinaryUtility(top, level) for level in self.level_values[-2::-1])
        return tuple(out)


class Level(_Record):
    """A position on a scale.  Comparable only within its own scale."""

    __slots__ = _fields = ("scale", "index")

    def __init__(self, scale: Scale, index: int) -> None:
        check_level_index(scale, index)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "index", index)

    @property
    def label(self) -> str:
        return self.scale.levels[self.index]

    def is_top(self) -> bool:
        return self.index == len(self.scale) - 1

    def __lt__(self, other: "Level") -> bool:
        check_same_scale(self.scale, other.scale)
        return self.index < other.index

    def __le__(self, other: "Level") -> bool:
        check_same_scale(self.scale, other.scale)
        return self.index <= other.index

    def __gt__(self, other: "Level") -> bool:
        check_same_scale(self.scale, other.scale)
        return self.index > other.index

    def __ge__(self, other: "Level") -> bool:
        check_same_scale(self.scale, other.scale)
        return self.index >= other.index

    def __str__(self) -> str:
        return self.label


def check_level_index(scale: Scale, index: int) -> None:
    """Raise unless ``index`` is the position of a level of ``scale``."""
    if not 0 <= index < len(scale):
        raise ValueError(
            f"level index {index} out of range for scale {scale.name!r} of size {len(scale)}"
        )


def check_binary_pair(scale: Scale, first: int, second: int) -> None:
    """Raise unless (first, second) are the level indices of a binary utility
    on ``scale``: two of its levels, the larger one its top."""
    check_level_index(scale, first)
    check_level_index(scale, second)
    if scale.top_index not in (first, second):
        raise ValueError(
            f"not a binary utility: max component of "
            f"⟨{scale.levels[first]},{scale.levels[second]}⟩ is not the top of scale {scale.name!r}"
        )


def level_min(a: Level, b: Level) -> Level:
    """Smaller of two levels on the same scale."""
    return a if a <= b else b


def level_max(a: Level, b: Level) -> Level:
    """Larger of two levels on the same scale."""
    return a if a >= b else b


class UtilityPair(_Record):
    """An ordered pair of levels from one scale.

    Intermediate results of the pair algebra live here; they need not
    satisfy the top-normalization required of BinaryUtility.
    """

    __slots__ = _fields = ("first", "second")

    def __init__(self, first: Level, second: Level) -> None:
        check_same_scale(first.scale, second.scale)
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)

    @property
    def scale(self) -> Scale:
        return self.first.scale

    def __str__(self) -> str:
        return f"⟨{self.first.label},{self.second.label}⟩"


class BinaryUtility(UtilityPair):
    """A utility pair whose larger component is the top of its scale.

    These are the values of the pair-valued utility scale: one component
    always fully possible, totally ordered with <1,0> on top and <0,1>
    at the bottom.
    """

    __slots__ = ()

    def __init__(self, first: Level, second: Level) -> None:
        super().__init__(first, second)
        check_binary_pair(self.scale, first.index, second.index)

    def __lt__(self, other: "BinaryUtility") -> bool:
        return compare_binary(self, other) < 0

    def __le__(self, other: "BinaryUtility") -> bool:
        return compare_binary(self, other) <= 0

    def __gt__(self, other: "BinaryUtility") -> bool:
        return compare_binary(self, other) > 0

    def __ge__(self, other: "BinaryUtility") -> bool:
        return compare_binary(self, other) >= 0


def pair_ge_indices(first: int, second: int, first2: int, second2: int, top: int) -> bool:
    """The three-case order on top-normalized pairs, on raw indices.

    (first, second) is at least as high as (first2, second2) iff
      - both seconds are top and first >= first2, or
      - first is top and first2 is not, or
      - both firsts are top and second <= second2.
    """
    return (
        (second == top and second2 == top and first >= first2)
        or (first == top and first2 < top)
        or (first == top and first2 == top and second <= second2)
    )


def compare_binary(u: BinaryUtility, u2: BinaryUtility) -> int:
    """Compare two binary utilities: -1 below, 0 equal, 1 above.

    Implements exactly the three-case disjunction of the pair order,
    which is total, antisymmetric and transitive on the binary scale.
    """
    check_same_scale(u.scale, u2.scale)
    top = len(u.scale) - 1
    ge = pair_ge_indices(u.first.index, u.second.index, u2.first.index, u2.second.index, top)
    le = pair_ge_indices(u2.first.index, u2.second.index, u.first.index, u.second.index, top)
    if ge and le:
        return 0
    if ge:
        return 1
    if le:
        return -1
    raise AssertionError(f"pair order failed to compare {u} and {u2}")


def pair_rank(first: int, second: int, top: int) -> int:
    """``binary_rank`` of the top-normalized pair (first, second), on raw indices."""
    return first if second == top else 2 * top - second


def binary_rank(u: BinaryUtility) -> int:
    """Integer sort key agreeing with compare_binary.

    <x,1> ranks at index(x); <1,y> ranks at 2*(top) - index(y).  The
    three-case comparison stays the normative definition; tests prove the
    two agree exhaustively.
    """
    return pair_rank(u.first.index, u.second.index, u.scale.top_index)


def ext_min(alpha: Level, p: UtilityPair) -> UtilityPair:
    """Min of a level with both components; the result may leave the binary scale."""
    check_same_scale(alpha.scale, p.scale)
    return UtilityPair(level_min(alpha, p.first), level_min(alpha, p.second))


def ext_max(p: UtilityPair, q: UtilityPair) -> UtilityPair:
    """Componentwise max of two pairs; associative, commutative, idempotent."""
    check_same_scale(p.scale, q.scale)
    return UtilityPair(level_max(p.first, q.first), level_max(p.second, q.second))


class ScaleMap(_Record):
    """A total map from one scale onto another, given by a full image table."""

    __slots__ = _fields = ("source", "target", "images")

    def __init__(self, source: Scale, target: Scale, images: tuple[int, ...]) -> None:
        if len(images) != len(source):
            raise ValueError(
                f"scale map table is incomplete: {len(images)} images "
                f"for {len(source)} levels"
            )
        for i in images:
            if not 0 <= i < len(target):
                raise ValueError(f"scale map image index {i} out of range")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "images", images)

    @classmethod
    def from_labels(cls, source: Scale, target: Scale, table: Mapping[str, str]) -> "ScaleMap":
        """The map with ``table``'s images, which must cover every source level
        and nothing else."""
        for label in source.levels:
            if label not in table:
                raise ValueError(f"scale map table is incomplete: no image for level {label!r}")
        extra = set(table) - set(source.levels)
        if extra:
            raise ValueError(f"scale map table maps unknown levels: {sorted(extra)}")
        return cls(source, target, tuple(target.index(table[label]) for label in source.levels))


def validate_scale_map(h: ScaleMap) -> str | None:
    """Return None if valid, else a report naming the first violation.

    Valid means: order preserving, 0 to 0, 1 to 1, and onto the target.
    """
    src, tgt = h.source, h.target
    if h.images[0] != 0:
        return f"anchor violated: image of '0' is {tgt.levels[h.images[0]]!r}, not '0'"
    if h.images[-1] != len(tgt) - 1:
        return (
            f"anchor violated: image of '1' is {tgt.levels[h.images[-1]]!r}, "
            f"not {tgt.levels[-1]!r}"
        )
    for i in range(len(src) - 1):
        if h.images[i] > h.images[i + 1]:
            return (
                f"monotonicity violated: {src.levels[i]!r} < {src.levels[i + 1]!r} "
                f"but images {tgt.levels[h.images[i]]!r} > {tgt.levels[h.images[i + 1]]!r}"
            )
    missing = set(range(len(tgt))) - set(h.images)
    if missing:
        label = tgt.levels[min(missing)]
        return f"not onto: target level {label!r} is never hit"
    return None
