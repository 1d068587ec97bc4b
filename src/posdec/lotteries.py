"""Possibility distributions over outcomes or states, and operations on them.

A distribution ("lottery") assigns each label of its domain a level of an
uncertainty scale, normalized so the maximum assigned level is the top.
The module also hosts the possibilistic mixture, decision-induced
distributions, exhaustive enumeration at desk scale, and the exact
conversion to and from integer disbelief rankings.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Mapping, Sequence
from fractions import Fraction

from .scales import Level, Scale, _Record, check_same_scale, parse_rational

INFINITY = float("inf")

DEFAULT_ENUMERATION_LIMIT = 200_000

# The largest disbelief rank converted either way.  Building c**-rank costs
# time and digits that grow with the rank, so a rank over this is rejected,
# given or computed, before its power is built.
MAX_DISBELIEF = 64

# The most bits a level's denominator may have to be written as a label.
# Writing costs time and digits that grow with the denominator, so a finer
# level is rejected before it is written.
MAX_LEVEL_BITS = 4096


class NormalizationError(ValueError):
    """A distribution or weight vector fails max-is-top normalization."""


class BoundExceededError(RuntimeError):
    """A desk-scale enumeration would blow past its configured limit."""


class DisbeliefBoundError(ValueError):
    """A disbelief rank, given or computed, is over ``MAX_DISBELIEF``."""


class LevelBoundError(ValueError):
    """A level's denominator has more than ``MAX_LEVEL_BITS`` bits."""


class OutcomeSet(_Record):
    """Prizes with distinguished best and worst elements and a preference preorder.

    preference_classes lists equivalence classes best-first; together they
    must partition the outcome labels, with the best prize in the first
    class and the worst in the last.
    """

    _fields = ("outcomes", "best", "worst", "preference_classes")
    # Built once the classes are validated; derived, so excluded from
    # equality and repr.  Label -> class index, and label -> position.
    __slots__ = (*_fields, "class_of", "index_of")

    def __init__(
        self,
        outcomes: tuple[str, ...],
        best: str,
        worst: str,
        preference_classes: tuple[tuple[str, ...], ...] = (),
    ) -> None:
        object.__setattr__(self, "outcomes", tuple(outcomes))
        object.__setattr__(self, "best", best)
        object.__setattr__(self, "worst", worst)
        if len(self.outcomes) < 2:
            raise ValueError("an outcome set needs at least 2 outcomes")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise ValueError("outcome labels must be distinct")
        if self.best == self.worst:
            raise ValueError("best and worst outcomes must differ")
        for anchor in (self.best, self.worst):
            if anchor not in self.outcomes:
                raise ValueError(f"anchor outcome {anchor!r} is not declared")
        # No classes given: one class per label, in label order.
        classes = preference_classes or [(o,) for o in self.outcomes]
        object.__setattr__(self, "preference_classes", tuple(tuple(c) for c in classes))
        flat = [o for cls in self.preference_classes for o in cls]
        if sorted(flat) != sorted(self.outcomes):
            raise ValueError("preference classes must partition the outcomes")
        if self.best not in self.preference_classes[0]:
            raise ValueError(f"best outcome {self.best!r} must sit in the first class")
        if self.worst not in self.preference_classes[-1]:
            raise ValueError(f"worst outcome {self.worst!r} must sit in the last class")
        ranks = {o: i for i, cls in enumerate(self.preference_classes) for o in cls}
        object.__setattr__(self, "class_of", ranks)
        object.__setattr__(self, "index_of", {o: i for i, o in enumerate(self.outcomes)})

    @property
    def labels(self) -> tuple[str, ...]:
        return self.outcomes

    def rank(self, label: str) -> int:
        """Class index of a label; smaller is better."""
        try:
            return self.class_of[label]
        except (KeyError, TypeError):
            raise KeyError(f"unknown outcome {label!r}") from None

    def prefers(self, x: str, y: str) -> bool:
        """True if x is weakly preferred to y."""
        return self.rank(x) <= self.rank(y)


class StateSpace(_Record):
    """The possible situations a decision can face."""

    __slots__ = _fields = ("states",)

    def __init__(self, states: tuple[str, ...]) -> None:
        object.__setattr__(self, "states", tuple(states))
        if not self.states:
            raise ValueError("a state space must be non-empty")
        if len(set(self.states)) != len(self.states):
            raise ValueError("state labels must be distinct")

    @property
    def labels(self) -> tuple[str, ...]:
        return self.states


Domain = OutcomeSet | StateSpace


class PossibilityDistribution:
    """A normalized mapping from domain labels to levels of one scale.

    Values are stored as level indices aligned with the domain's label
    order, which keeps distributions hashable and comparisons exact.
    Instances are immutable by convention; nothing mutates them after
    construction.
    """

    __slots__ = ("domain", "scale", "indices")

    def __init__(self, domain: Domain, scale: Scale, indices: tuple[int, ...]):
        indices = tuple(indices)
        labels = domain.labels
        if len(indices) != len(labels):
            raise ValueError(
                f"distribution has {len(indices)} values for {len(labels)} labels"
            )
        top = scale.top_index
        highest = max(indices)
        if min(indices) < 0 or highest > top:
            raise ValueError(f"level index out of range for scale {scale.name!r}")
        if highest != top:
            raise NormalizationError(
                f"distribution is not normalized: max level is "
                f"{scale.levels[highest]!r}, not {scale.levels[top]!r}"
            )
        self.domain = domain
        self.scale = scale
        self.indices = indices

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PossibilityDistribution):
            return NotImplemented
        return (
            self.indices == other.indices
            and (self.scale is other.scale or self.scale == other.scale)
            and (self.domain is other.domain or self.domain == other.domain)
        )

    def __hash__(self) -> int:
        return hash((self.domain, self.scale, self.indices))

    def value(self, label: str) -> Level:
        try:
            pos = self.domain.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown label {label!r}") from None
        return self.scale.level(self.indices[pos])

    def items(self) -> Iterator[tuple[str, Level]]:
        for label, idx in zip(self.domain.labels, self.indices):
            yield label, self.scale.level(idx)

    def __repr__(self) -> str:
        return f"PossibilityDistribution({self.domain!r}, {self.scale!r}, {self.indices!r})"

    def __str__(self) -> str:
        inner = ", ".join(
            f"{label}:{self.scale.levels[i]}"
            for label, i in zip(self.domain.labels, self.indices)
        )
        return f"({inner})"


def aligned(labels: Sequence[str], table: Mapping, missing: str, unknown: str) -> tuple:
    """``table``'s values in ``labels`` order.

    Raises ``ValueError`` ``"<missing> <label>"`` for the first label the
    table lacks, else ``"<unknown> <key>"`` for its first other key, sorted.
    """
    try:
        values = tuple(map(table.__getitem__, labels))
    except KeyError as exc:
        raise ValueError(f"{missing} {exc.args[0]!r}") from None
    if len(table) > len(values):
        raise ValueError(f"{unknown} {sorted(set(table) - set(labels))[0]!r}")
    return values


def distribution_from_indices(
    domain: Domain, scale: Scale, table: Mapping[str, int]
) -> PossibilityDistribution:
    """The distribution giving each domain label its level index in ``table``.

    Every domain label must be assigned, and the maximum must be the top.
    """
    return PossibilityDistribution(
        domain, scale, aligned(domain.labels, table, "missing value for label", "unknown label")
    )


def make_distribution(domain: Domain, values: Mapping[str, Level]) -> PossibilityDistribution:
    """Build a distribution from a label-to-level mapping, whose levels
    must share one scale."""
    scales = [level.scale for level in values.values()]
    for scale in scales[1:]:
        check_same_scale(scales[0], scale)
    table = {label: level.index for label, level in values.items()}
    return distribution_from_indices(domain, scales[0] if scales else None, table)


def point_mass(domain: Domain, label: str, scale: Scale) -> PossibilityDistribution:
    """The distribution fully possible at one label and impossible elsewhere."""
    labels = domain.labels
    if label not in labels:
        raise ValueError(f"unknown label {label!r}")
    top = len(scale) - 1
    return PossibilityDistribution(
        domain, scale, tuple(top if l == label else 0 for l in labels)
    )


def mixture(
    components: Sequence[tuple[Level, PossibilityDistribution]],
) -> PossibilityDistribution:
    """Max-min combination of lotteries under a normalized weight vector.

    result(x) = max over components of min(weight, dist(x)).  Weights must
    share the distributions' scale and their maximum must be the top; this
    is a precondition, never an automatic rescale.
    """
    if not components:
        raise ValueError("mixture needs at least one component")
    first = components[0][1]
    domain, scale = first.domain, first.scale
    top = scale.top_index

    # Fold the components into one list: clip each to its weight, keep the
    # pointwise max.  Levels are plain indices, so min and max are compares.
    highest = 0
    mixed = None
    for weight, dist in components:
        if (
            (dist.domain is not domain and dist.domain != domain)
            or (dist.scale is not scale and dist.scale != scale)
        ):
            raise ValueError("mixture components must share one domain and scale")
        check_same_scale(weight.scale, scale)
        w = weight.index
        if w > highest:
            highest = w
        if mixed is None:
            mixed = list(dist.indices)
            if w != top:
                for j, v in enumerate(mixed):
                    if v > w:
                        mixed[j] = w
            continue
        j = 0
        for v in dist.indices:
            if v > w:
                v = w
            if v > mixed[j]:
                mixed[j] = v
            j += 1
    if highest != top:
        raise NormalizationError(
            f"mixture weights are not normalized: max weight is "
            f"{scale.levels[highest]!r}"
        )
    # A normalized weight vector over normalized inputs cannot produce a
    # denormalized output (the exhaustive postcondition tests cover this),
    # so the result skips the constructor's validation.
    result = object.__new__(PossibilityDistribution)
    result.domain = domain
    result.scale = scale
    result.indices = tuple(mixed)
    return result


def event_possibility(pi: PossibilityDistribution, event: Sequence[str]) -> Level:
    """Possibility of a set of labels: the max over members, bottom if empty."""
    labels = pi.domain.labels
    best = 0
    for label in event:
        if label not in labels:
            raise ValueError(f"unknown label {label!r}")
        best = max(best, pi.indices[labels.index(label)])
    return pi.scale.level(best)


class Decision(_Record):
    """A total assignment of an outcome to every state."""

    __slots__ = _fields = ("states", "moves")

    def __init__(self, states: StateSpace, moves: tuple[str, ...]) -> None:
        if len(moves) != len(states.states):
            raise ValueError("decision must map every state")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "moves", moves)

    @classmethod
    def from_mapping(cls, states: StateSpace, table: Mapping[str, str]) -> "Decision":
        missing, unknown = "decision maps no outcome for state", "decision mentions unknown state"
        return cls(states, aligned(states.states, table, missing, unknown))


def induced_distribution(
    pi_states: PossibilityDistribution, d: Decision, outcomes: OutcomeSet
) -> PossibilityDistribution:
    """The lottery a decision induces from uncertainty over states.

    Each outcome receives the possibility of its preimage; outcomes no
    state maps to get 0.
    """
    if pi_states.domain is not d.states and pi_states.domain != d.states:
        raise ValueError("distribution and decision disagree on the state space")
    index_of = outcomes.index_of
    best = [0] * len(index_of)
    for move, v in zip(d.moves, pi_states.indices):
        try:
            pos = index_of[move]
        except (KeyError, TypeError):
            raise ValueError(f"decision maps to unknown outcome {move!r}") from None
        if v > best[pos]:
            best[pos] = v
    return PossibilityDistribution(outcomes, pi_states.scale, tuple(best))


def enumeration_count(domain_size: int, scale_size: int) -> int:
    """How many normalized distributions exist: |V|^|X| - (|V|-1)^|X|."""
    return scale_size**domain_size - (scale_size - 1) ** domain_size


def check_enumerable(
    what: str, domain_size: int, scale_size: int, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> None:
    """Raise ``BoundExceededError``, naming ``what``, if a space of this many
    outcomes and levels holds more lotteries than ``limit``.

    A space holds at least 2^|X| - 1 lotteries, so past as many outcomes as
    ``limit`` has bits it is over the limit without building that power.
    """
    if domain_size > limit.bit_length() or enumeration_count(domain_size, scale_size) > limit:
        raise BoundExceededError(
            f"{what}: {domain_size} outcomes by {scale_size} levels are over the "
            f"enumeration limit of {limit} lotteries"
        )


def enumerate_distributions(
    domain: Domain, scale: Scale, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> tuple[PossibilityDistribution, ...]:
    """Every normalized distribution over (domain, scale), in a fixed order.

    Raises, naming the space and its count, if the count would exceed ``limit``.
    """
    n = len(domain.labels)
    m = len(scale)
    check_enumerable(f"a universe of {enumeration_count(n, m)} lotteries", n, m, limit)
    top = m - 1
    out = []
    for combo in itertools.product(range(m), repeat=n):
        if max(combo) == top:
            out.append(PossibilityDistribution(domain, scale, combo))
    return tuple(out)


class StandardLottery(_Record):
    """A lottery supported only on the best and worst prizes.

    Weights live on the uncertainty scale and the larger one must be the
    top.  The set of these is in one-to-one correspondence with the
    binary utility scale.
    """

    __slots__ = _fields = ("best_weight", "worst_weight")

    def __init__(self, best_weight: Level, worst_weight: Level) -> None:
        check_same_scale(best_weight.scale, worst_weight.scale)
        if not (best_weight.is_top() or worst_weight.is_top()):
            raise ValueError(
                f"not a standard lottery: neither weight of "
                f"({best_weight}, {worst_weight}) is the top"
            )
        object.__setattr__(self, "best_weight", best_weight)
        object.__setattr__(self, "worst_weight", worst_weight)

    @property
    def scale(self) -> Scale:
        return self.best_weight.scale

    def as_distribution(self, outcomes: OutcomeSet) -> PossibilityDistribution:
        values = {label: self.scale.bottom for label in outcomes.outcomes}
        values[outcomes.best] = self.best_weight
        values[outcomes.worst] = self.worst_weight
        return make_distribution(outcomes, values)

    def __str__(self) -> str:
        return f"({self.best_weight}/best, {self.worst_weight}/worst)"


def standard_lotteries(scale: Scale) -> tuple[StandardLottery, ...]:
    """All standard lotteries over ``scale``, worst-first.  There are 2|V|-1."""
    top = len(scale) - 1
    out = [StandardLottery(scale.level(i), scale.top) for i in range(top + 1)]
    out.extend(StandardLottery(scale.top, scale.level(j)) for j in range(top - 1, -1, -1))
    return tuple(out)


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

    def value(self, label: str) -> int | float:
        return self.values[self.labels.index(label)]


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
