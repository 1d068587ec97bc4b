"""Possibility distributions over outcomes or states, and operations on them.

A distribution ("lottery") assigns each label of its domain a level of an
uncertainty scale, normalized so the maximum assigned level is the top.
The module also hosts the possibilistic mixture, decision-induced
distributions, and exhaustive enumeration at desk scale.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Mapping, Sequence

from .scales import Level, Scale, _Record, check_same_scale

DEFAULT_ENUMERATION_LIMIT = 200_000


class NormalizationError(ValueError):
    """A distribution or weight vector fails max-is-top normalization."""


class BoundExceededError(RuntimeError):
    """A desk-scale enumeration would blow past its configured limit."""


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
