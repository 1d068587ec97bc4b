"""Qualitative utility criteria over lotteries, and decision ranking.

Three evaluators live here.  The pessimistic criterion takes the min over
prizes of max(reversed mapped possibility, prize utility); the optimistic
criterion is its max-min dual; the pair-valued criterion folds the
extended max of extended mins into the binary utility scale and needs no
auxiliary maps at all.

All three are ordinal, so each has an integer key core that reads only the
lottery's level indices: the pessimistic and optimistic ones give a
position on the utility scale, the pair-valued one the ``binary_rank`` of
its value.  The cores check nothing; the public evaluators check the
lottery's domain and scale, then return the scale's cached value for the
key.  Hot paths check a whole universe once and run the cores, and
rankings group and order the keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence, Union

from .lotteries import Domain, OutcomeSet, PossibilityDistribution, StandardLottery, aligned
from .scales import (
    BinaryUtility,
    Level,
    Scale,
    ScaleMap,
    ScaleMismatchError,
    binary_rank,
    check_binary_pair,
    pair_rank,
    validate_scale_map,
)

UtilityValue = Union[Level, BinaryUtility]
Evaluator = Callable[[PossibilityDistribution], UtilityValue]


def check_domain(domain: Domain, scale: Scale, outcomes: OutcomeSet, expected: Scale) -> None:
    """Raise unless lotteries over ``domain`` on ``scale`` fit a criterion
    configured for ``outcomes`` on ``expected``."""
    if domain is not outcomes and domain.labels != outcomes.labels:
        raise ValueError(
            f"distribution domain {domain.labels} does not match the "
            f"configured outcomes {outcomes.labels}"
        )
    if scale is not expected and scale != expected:
        raise ScaleMismatchError(scale, expected)


def _check_preference_order(outcomes: OutcomeSet, keys: Sequence[int], noun: str) -> None:
    """Raise unless, on every pair of prizes, ``keys`` (one per label, in
    label order) order them as the declared preference does; ``noun`` names
    the keys in the message."""
    labels, ranks = outcomes.labels, [outcomes.class_of[x] for x in outcomes.labels]
    for x, x_rank, x_key in zip(labels, ranks, keys):
        for y, y_rank, y_key in zip(labels, ranks, keys):
            if (x_rank <= y_rank) != (x_key >= y_key):
                raise ValueError(
                    f"{noun} is inconsistent with the preference order on {x!r} and {y!r}"
                )


@dataclass(frozen=True)
class ScalarUtilityConfig:
    """Everything the scalar (pessimistic/optimistic) criteria need.

    Bundles a prize utility into the utility scale and an onto map from the
    uncertainty scale, both validated at construction, including consistency
    of the prize utility with the declared preference preorder.  The
    pessimistic criterion also reverses the utility scale; on a finite chain
    the only order-reversing involution is i -> top - i, so it is derived,
    not configured.
    """

    outcomes: OutcomeSet
    scale_map: ScaleMap
    prize_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        problem = validate_scale_map(self.scale_map)
        if problem:
            raise ValueError(f"invalid scale map: {problem}")
        labels = self.outcomes.labels
        if len(self.prize_indices) != len(labels):
            raise ValueError("prize utility must cover every outcome")
        u_top = len(self.scale_map.target) - 1
        index_of = self.outcomes.index_of
        if self.prize_indices[index_of[self.outcomes.best]] != u_top:
            raise ValueError(f"best outcome {self.outcomes.best!r} must have utility 1")
        if self.prize_indices[index_of[self.outcomes.worst]] != 0:
            raise ValueError(f"worst outcome {self.outcomes.worst!r} must have utility 0")
        _check_preference_order(self.outcomes, self.prize_indices, "prize utility")

    @classmethod
    def from_indices(
        cls, outcomes: OutcomeSet, scale_map: ScaleMap, prize_utility: Mapping[str, int]
    ) -> "ScalarUtilityConfig":
        """The configuration with these prize utilities, utility-scale indices."""
        missing, unknown = "prize utility missing outcome", "prize utility names unknown outcome"
        return cls(outcomes, scale_map, aligned(outcomes.labels, prize_utility, missing, unknown))

    @property
    def uncertainty_scale(self) -> Scale:
        return self.scale_map.source

    @property
    def utility_scale(self) -> Scale:
        return self.scale_map.target

    @cached_property
    def reversed_map(self) -> tuple[int, ...]:
        """Composition n∘h as target-scale indices per uncertainty level, n
        the order reversal of the utility scale."""
        top = self.utility_scale.top_index
        return tuple(top - i for i in self.scale_map.images)

    def prize_utility_for(self, label: str) -> Level:
        return self.utility_scale.level(self.prize_indices[self.outcomes.index_of[label]])


def pessimistic_key(pi: PossibilityDistribution, cfg: ScalarUtilityConfig) -> int:
    """Index of the pessimistic utility; no domain check."""
    nh = cfg.reversed_map
    worst = cfg.utility_scale.top_index
    for v_idx, u_idx in zip(pi.indices, cfg.prize_indices):
        term = nh[v_idx]
        if term < u_idx:
            term = u_idx
        if term < worst:
            worst = term
    return worst


def optimistic_key(pi: PossibilityDistribution, cfg: ScalarUtilityConfig) -> int:
    """Index of the optimistic utility; no domain check."""
    h = cfg.scale_map.images
    best = 0
    for v_idx, u_idx in zip(pi.indices, cfg.prize_indices):
        term = h[v_idx]
        if term > u_idx:
            term = u_idx
        if term > best:
            best = term
    return best


def pessimistic_utility(pi: PossibilityDistribution, cfg: ScalarUtilityConfig) -> Level:
    """Min over prizes of max(reversed mapped possibility, prize utility)."""
    check_domain(pi.domain, pi.scale, cfg.outcomes, cfg.uncertainty_scale)
    return cfg.utility_scale.level_values[pessimistic_key(pi, cfg)]


def optimistic_utility(pi: PossibilityDistribution, cfg: ScalarUtilityConfig) -> Level:
    """Max over prizes of min(mapped possibility, prize utility)."""
    check_domain(pi.domain, pi.scale, cfg.outcomes, cfg.uncertainty_scale)
    return cfg.utility_scale.level_values[optimistic_key(pi, cfg)]


def pessimistic_utility_decomposed(
    weight1: Level,
    pi1: PossibilityDistribution,
    weight2: Level,
    pi2: PossibilityDistribution,
    cfg: ScalarUtilityConfig,
) -> Level:
    """Pessimistic utility of a two-way mixture, without building the mixture.

    min(max(nh(w1), value of pi1), max(nh(w2), value of pi2)).  Exists as a
    separately callable path purely so the mixture identity can be
    cross-checked; the mixture route stays normative.
    """
    scale = cfg.uncertainty_scale
    for weight in (weight1, weight2):
        if weight.scale != scale:
            raise ScaleMismatchError(weight.scale, scale)
    if max(weight1.index, weight2.index) != len(scale) - 1:
        raise ValueError("mixture weights must include the top level")
    nh = cfg.reversed_map
    left = max(nh[weight1.index], pessimistic_utility(pi1, cfg).index)
    right = max(nh[weight2.index], pessimistic_utility(pi2, cfg).index)
    return cfg.utility_scale.level(min(left, right))


@dataclass(frozen=True)
class BinaryUtilityAssessment:
    """A binary utility for each prize, consistent with the preference order.

    By default the best prize must sit at <1,0> and the worst at <0,1>.
    Families that encode every prize as an equivalent best/worst lottery
    (all weights on one half of the binary scale) relax the anchors via
    ``require_anchors=False``; order consistency is always enforced.
    """

    outcomes: OutcomeSet
    scale: Scale
    pair_indices: tuple[tuple[int, int], ...]
    require_anchors: bool = True

    def __post_init__(self) -> None:
        labels = self.outcomes.labels
        if len(self.pair_indices) != len(labels):
            raise ValueError("assessment must cover every outcome")
        for first, second in self.pair_indices:
            check_binary_pair(self.scale, first, second)
        by_label = dict(zip(labels, self.pair_indices))
        top = self.scale.top_index
        if self.require_anchors:
            if by_label[self.outcomes.best] != (top, 0):
                raise ValueError(
                    f"best outcome {self.outcomes.best!r} must be assessed at "
                    f"{self.scale.levels[top]!r},'0'"
                )
            if by_label[self.outcomes.worst] != (0, top):
                raise ValueError(
                    f"worst outcome {self.outcomes.worst!r} must be assessed at "
                    f"'0',{self.scale.levels[top]!r}"
                )
        ranks = [pair_rank(first, second, top) for first, second in self.pair_indices]
        _check_preference_order(self.outcomes, ranks, "assessment")

    @classmethod
    def from_mapping(
        cls,
        outcomes: OutcomeSet,
        scale: Scale,
        table: Mapping[str, BinaryUtility],
        require_anchors: bool = True,
    ) -> "BinaryUtilityAssessment":
        """The assessment with these binary utilities, values on ``scale``."""
        for value in table.values():
            if value.scale != scale:
                raise ScaleMismatchError(value.scale, scale)
        pairs = {label: (value.first.index, value.second.index) for label, value in table.items()}
        return cls.from_indices(outcomes, scale, pairs, require_anchors)

    @classmethod
    def from_indices(
        cls, outcomes: OutcomeSet, scale: Scale, table: Mapping[str, tuple[int, int]],
        require_anchors: bool = True,
    ) -> "BinaryUtilityAssessment":
        """The assessment with these binary utilities, pairs of level indices."""
        missing, unknown = "assessment missing outcome", "assessment names unknown outcome"
        pairs = aligned(outcomes.labels, table, missing, unknown)
        return cls(outcomes, scale, pairs, require_anchors)

    def utility_for(self, label: str) -> BinaryUtility:
        pair = self.pair_indices[self.outcomes.index_of[label]]
        return self.scale.binary_values[pair_rank(*pair, self.scale.top_index)]


def _fold_pairs(pi: PossibilityDistribution, a: BinaryUtilityAssessment) -> tuple[int, int]:
    """Max over prizes of min(possibility, each component of the prize's pair).

    On scale indices: the extended max of extended mins, one component at
    a time.  No domain check.
    """
    first = second = 0
    for v_idx, (p_first, p_second) in zip(pi.indices, a.pair_indices):
        term = v_idx if v_idx < p_first else p_first
        if term > first:
            first = term
        term = v_idx if v_idx < p_second else p_second
        if term > second:
            second = term
    return first, second


def binary_key(pi: PossibilityDistribution, a: BinaryUtilityAssessment) -> int:
    """``binary_rank`` of the pair-valued utility; no domain check."""
    # Normalization of pi guarantees the fold lands back on the binary scale.
    return pair_rank(*_fold_pairs(pi, a), a.scale.top_index)


def binary_utility(
    pi: PossibilityDistribution, a: BinaryUtilityAssessment
) -> BinaryUtility:
    """Extended max over prizes of extended min(possibility, prize pair)."""
    check_domain(pi.domain, pi.scale, a.outcomes, a.scale)
    return a.scale.binary_values[binary_key(pi, a)]


def reduce_to_standard(
    pi: PossibilityDistribution, a: BinaryUtilityAssessment
) -> StandardLottery:
    """The unique standard lottery indifferent to the given lottery.

    Folds each prize's weight against its assessed pair: the best-prize
    weight is max min(possibility, first component), the worst-prize
    weight is max min(possibility, second component).
    """
    check_domain(pi.domain, pi.scale, a.outcomes, a.scale)
    levels = a.scale.level_values
    best, worst = _fold_pairs(pi, a)
    return StandardLottery(levels[best], levels[worst])


@dataclass(frozen=True)
class Ranking:
    """Decision ids grouped into ties, best class first."""

    classes: tuple[tuple[str, ...], ...]
    utilities: tuple[UtilityValue, ...]


def rank_decisions(
    items: Sequence[tuple[str, PossibilityDistribution]], evaluate: Evaluator
) -> Ranking:
    """Group items by exact utility equality and sort classes best-first.

    Items are grouped and ordered by the value's integer key: a level's
    index, or a binary utility's ``binary_rank``.  Within a class the input
    order is preserved, so output is fully deterministic.  The evaluator
    checks each item's domain and scale against its configuration, so items
    that do not fit it are rejected there.
    """
    if not items:
        raise ValueError("nothing to rank")
    groups: dict[int, list[str]] = {}
    values: dict[int, UtilityValue] = {}
    for item_id, dist in items:
        value = evaluate(dist)
        key = value.index if isinstance(value, Level) else binary_rank(value)
        if key not in groups:
            groups[key] = []
            values[key] = value
        groups[key].append(item_id)
    ordered = sorted(groups, reverse=True)
    return Ranking(
        tuple(tuple(groups[key]) for key in ordered),
        tuple(values[key] for key in ordered),
    )
