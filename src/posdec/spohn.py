"""Integer disbelief rankings (Spohn) and their exact conversion to and
from possibility distributions, and the ``convert-spohn`` command body.

A disbelief rank k corresponds to the possibility level c**-k at a
rational base c > 1, computed on exact rationals both ways.  Only
``posdec convert-spohn`` and the tests import this module, so no other
command compiles it.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction

from .lotteries import NormalizationError, PossibilityDistribution, StateSpace
from .scales import Scale, _Record, parse_rational

INFINITY = float("inf")

# The largest disbelief rank converted either way.  Building c**-rank costs
# time and digits that grow with the rank, so a rank over this is rejected,
# given or computed, before its power is built.
MAX_DISBELIEF = 64

# The most bits a level's denominator may have to be written as a label.
# Writing costs time and digits that grow with the denominator, so a finer
# level is rejected before it is written.
MAX_LEVEL_BITS = 4096


class DisbeliefBoundError(ValueError):
    """A disbelief rank, given or computed, is over ``MAX_DISBELIEF``."""


class LevelBoundError(ValueError):
    """A level's denominator has more than ``MAX_LEVEL_BITS`` bits."""


class DisbeliefFunction(_Record):
    """Integer-valued implausibility ranking with minimum 0.

    Values are non-negative integers or INFINITY for impossible labels.
    """

    __slots__ = _fields = ("labels", "values")

    def __init__(self, labels: tuple[str, ...], values: tuple[int | float, ...]) -> None:
        if len(labels) != len(values):
            raise ValueError("disbelief function labels and values differ in length")
        for label, v in zip(labels, values):
            if v is INFINITY or v == INFINITY:
                continue
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"disbelief values must be non-negative integers, got {v!r}")
            if v > MAX_DISBELIEF:
                raise DisbeliefBoundError(
                    f"disbelief value {v} for {label!r} is over the bound of {MAX_DISBELIEF}"
                )
        if min(values) != 0:
            raise NormalizationError(
                f"disbelief function is not normalized: min value is {min(values)}"
            )
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_mapping(cls, table: Mapping[str, int | float]) -> "DisbeliefFunction":
        labels = tuple(table)
        return cls(labels, tuple(table[label] for label in labels))


def _as_base(c: int | str | Fraction) -> Fraction:
    base = parse_rational(c, f"conversion base {c!r}")
    if base <= 1:
        raise ValueError(f"conversion base must be a rational > 1, got {c!r}")
    return base


def format_fraction_label(value: Fraction) -> str:
    """Render an exact rational in [0, 1] as a scale label.

    Terminating decimals come out in the ".25" house style; anything else
    falls back to a "p/q" label, which the scale parser also accepts.  A
    denominator over ``MAX_LEVEL_BITS`` bits raises ``LevelBoundError``.
    """
    if value == 0:
        return "0"
    if value == 1:
        return "1"
    den = value.denominator
    if den.bit_length() > MAX_LEVEL_BITS:
        raise LevelBoundError(
            f"a level with a {den.bit_length()}-bit denominator is over the bound "
            f"of {MAX_LEVEL_BITS} bits"
        )
    twos = (den & -den).bit_length() - 1
    den >>= twos
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{value.numerator}/{value.denominator}"
    digits = max(twos, fives)
    scaled = value.numerator * 10**digits // value.denominator
    text = str(scaled).rjust(digits, "0").rstrip("0")
    return f".{text}"


def synthesize_scale(points: Sequence[Fraction]) -> tuple[Scale, tuple[int, ...]]:
    """A scale holding 0, 1 and every distinct point in [0, 1], and the index
    of each point on it.

    Labels come from ``format_fraction_label``, so a point too fine to label
    raises ``LevelBoundError``.
    """
    levels = sorted(set(points) | {Fraction(0), Fraction(1)})
    scale = Scale(tuple(format_fraction_label(p) for p in levels), name="synthesized")
    index_of = {p: i for i, p in enumerate(levels)}
    return scale, tuple(index_of[p] for p in points)


def from_disbelief(
    delta: DisbeliefFunction, c: int | str | Fraction
) -> PossibilityDistribution:
    """Convert a disbelief ranking to a possibility distribution via c**-value.

    The result lives on a freshly synthesized scale holding 0, 1 and every
    distinct image value; INFINITY maps to 0.  An image too fine to label
    raises ``LevelBoundError``.
    """
    base = _as_base(c)
    scale, indices = synthesize_scale(
        [Fraction(0) if v == INFINITY else base ** -int(v) for v in delta.values]
    )
    return PossibilityDistribution(StateSpace(delta.labels), scale, indices)


def to_disbelief(
    pi: PossibilityDistribution, c: int | str | Fraction
) -> DisbeliefFunction:
    """Convert a possibility distribution to its integer disbelief ranking.

    Each value v becomes the integer part of -log_c(v), computed exactly on
    rationals; v = 0 becomes INFINITY.  A rank over ``MAX_DISBELIEF`` raises
    before the next power is built.
    """
    base = _as_base(c)
    values: list[int | float] = []
    for label, idx in zip(pi.domain.labels, pi.indices):
        v = pi.scale.numeric(idx)
        if v == 0:
            values.append(INFINITY)
            continue
        inverse = 1 / v
        k = 0
        power = Fraction(1)
        while power * base <= inverse:
            if k == MAX_DISBELIEF:
                raise DisbeliefBoundError(
                    f"disbelief of level {pi.scale.levels[idx]!r} for {label!r} at base "
                    f"{c} is over the bound of {MAX_DISBELIEF}"
                )
            power *= base
            k += 1
        values.append(k)
    return DisbeliefFunction(tuple(pi.domain.labels), tuple(values))


def convert_document(data, direction: str, base: str, source: str) -> dict:
    """The ``posdec convert-spohn`` output for the input document ``data``
    read from ``source``: converted ``to-possibility`` or ``to-disbelief``
    at ``base`` as typed, which bound messages quote.

    A document whose ``values`` member is a JSON object is the wrapped form
    ``{"values": {...}, "scale": [...]}``, and only it supplies ``values``
    and ``scale``.  No label's value is an object, so any other document is
    a bare label table, which may label a state ``values`` or ``scale``.
    Each error is a ``ScenarioError`` naming ``source``.
    """
    # Only the CLI calls this, and it has loaded its document checks.
    from .cli import ScenarioError, _document_checks

    fail, expect_object, _, parse_scale = _document_checks(source)
    wrapped = isinstance(data, dict) and isinstance(data.get("values"), dict)
    values = data["values"] if wrapped else data
    if not expect_object(values, "values"):
        raise fail("values: the table is empty")
    # The body is read under one handler, which names the values, except
    # while the base is read: its error names the base alone.
    reading_base = False
    try:
        if direction == "to-possibility":
            table = {}
            for label, value in values.items():
                if value == "infinity":
                    table[label] = INFINITY
                elif isinstance(value, int) and not isinstance(value, bool):
                    table[label] = value
                else:
                    raise fail(
                        f"values: disbelief value for {label!r} must be a non-negative "
                        f"integer or \"infinity\""
                    )
            delta = DisbeliefFunction.from_mapping(table)
        else:
            if wrapped and "scale" in data:
                scale = parse_scale(data, "scale", "V")
                indices = []
                for label, value in values.items():
                    if value not in scale.levels:
                        raise fail(f"values: level {value!r} for {label!r} is not on the scale")
                    indices.append(scale.levels.index(value))
            else:
                # No scale given: synthesize it from the values present.
                points = []
                for label, value in values.items():
                    point = parse_rational(value, f"level {value!r} for {label!r}")
                    if not 0 <= point <= 1:
                        raise fail(f"values: level {value!r} for {label!r} is outside [0, 1]")
                    points.append(point)
                scale, indices = synthesize_scale(points)
            pi = PossibilityDistribution(StateSpace(tuple(values)), scale, tuple(indices))
        reading_base = True
        _as_base(base)
        reading_base = False
        # The conversion is given the base as typed, which its messages quote.
        if direction == "to-possibility":
            pi = from_disbelief(delta, base)
            return {
                "scale": list(pi.scale.levels),
                "values": {label: level.label for label, level in pi.items()},
            }
        delta = to_disbelief(pi, base)
        return {
            "values": {
                label: ("infinity" if value == INFINITY else value)
                for label, value in zip(delta.labels, delta.values)
            }
        }
    except ValueError as exc:
        if reading_base or isinstance(exc, ScenarioError):
            raise
        raise fail(f"values: {exc}") from exc
