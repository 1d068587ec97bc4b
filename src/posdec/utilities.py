"""Qualitative utility criteria over lotteries, and decision ranking.

Three evaluators live here.  The pessimistic criterion takes the min over
prizes of max(reversed mapped possibility, prize utility); the optimistic
criterion is its max-min dual; the pair-valued criterion folds the
extended max of extended mins into the binary utility scale and needs no
auxiliary maps at all.

All three are ordinal, and all three are one fold: the max over prizes
of a level cut min(v, cap) of the prize's possibility level v.  Since
the scale map h is monotone and onto, min(h(v), w) = h(min(v, h⁻(w)))
with h⁻(w) the highest level h sends to at most w: up to that level
both sides are h(v), and above it both are w, since h(h⁻(w)) = w.  The
order reversal n of the utility scale turns max(n∘h(v), u) into
n∘h(min(v, h⁻(top - u))), and n∘h is antitone, so its min over prizes
is n∘h of the max.  So the pessimistic utility is n∘h of the fold with
caps h⁻(top - u(x)), the optimistic one h of the fold with caps
h⁻(u(x)), and the pair-valued criterion folds twice, with caps the
prize pair's components f and s, whose ``binary_rank`` is f + top - s.

Each criterion is thus defined by per-prize term tables: the level cut
at each possibility level, the prize's tables in label order, on
``ScalarUtilityConfig.pessimistic_terms`` and ``optimistic_terms`` and
on ``BinaryUtilityAssessment.first_terms`` and ``second_terms``.  A
lottery's key is the max over its prizes of the table entry at the
prize's level, read through ``reversed_map`` (n∘h) or the map's
``images`` (h) for the scalar criteria.  ``scalar_term_tables`` and
``binary_term_tables`` are their one definition: the configurations build
them once validated, and the checker's sweep builds them for the
configurations it draws without building those.  The public evaluators
check the lottery's domain and scale, then return the scale's cached value
for the key.  ``rank_decisions`` reads a public evaluator's tables
directly, and the checker's sweep folds them over the whole level grid.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from collections.abc import Callable, Iterable, Mapping, Sequence
from functools import partial
from itertools import product
from operator import getitem, gt

from .lotteries import Domain, OutcomeSet, PossibilityDistribution, StandardLottery, aligned
from .scales import (
    BinaryUtility,
    Level,
    Scale,
    ScaleMap,
    _Record,
    binary_rank,
    check_binary_pair,
    check_same_scale,
    pair_rank,
    validate_scale_map,
)

UtilityValue = Level | BinaryUtility
Evaluator = Callable[[PossibilityDistribution], UtilityValue]
Items = Sequence[tuple[str, PossibilityDistribution]]


def check_domain(domain: Domain, scale: Scale, outcomes: OutcomeSet, expected: Scale) -> None:
    """Raise unless lotteries over ``domain`` on ``scale`` fit a criterion
    configured for ``outcomes`` on ``expected``."""
    if domain is not outcomes and domain.labels != outcomes.labels:
        raise ValueError(
            f"distribution domain {domain.labels} does not match the "
            f"configured outcomes {outcomes.labels}"
        )
    check_same_scale(scale, expected)


def _check_preference_order(outcomes: OutcomeSet, keys: Sequence[int], noun: str) -> None:
    """Raise unless, on every pair of prizes, ``keys`` (one per label, in
    label order) order them as the declared preference does; ``noun`` names
    the keys in the message.

    That holds iff each class has one key and the keys fall strictly class
    by class, that is iff the distinct (class, key) pairs, sorted, have
    strictly falling keys: two keys in one class would rise.  Only a
    failure walks the pairs, to name the first in label order.
    """
    labels, ranks = outcomes.labels, [outcomes.class_of[x] for x in outcomes.labels]
    ladder = [key for _, key in sorted(set(zip(ranks, keys)))]
    if all(map(gt, ladder, ladder[1:])):
        return
    for (x, x_rank, x_key), (y, y_rank, y_key) in product(zip(labels, ranks, keys), repeat=2):
        if (x_rank <= y_rank) != (x_key >= y_key):
            raise ValueError(f"{noun} is inconsistent with the preference order on {x!r} and {y!r}")


def _term_tables(size: int, caps: Iterable[int]) -> tuple:
    """Per prize, the level cut min(v, cap) at each of ``size`` levels v."""
    return tuple([tuple(range(cap)) + (cap,) * (size - cap) for cap in caps])


def scalar_term_tables(images: tuple[int, ...], prizes: Sequence[int]) -> tuple:
    """The composition n∘h and the scalar criteria's term tables, from a
    valid scale map's ``images`` (utility-scale indices per uncertainty
    level, monotone, anchored and onto) and the prizes' utility indices in
    label order.  n is the order reversal of the utility scale.  Per prize,
    the level cuts with caps h⁻(top - u(x)), whose max over the prizes at
    their levels n∘h reads as the pessimistic utility, and with caps
    h⁻(u(x)), whose max h reads as the optimistic one.  h⁻(w), the
    highest level whose image is at most w, exists for every w on the
    utility scale, since the images start at 0."""
    top, size = images[-1], len(images)
    reversed_map = tuple([top - i for i in images])
    pessimistic = _term_tables(size, [bisect_right(images, top - u) - 1 for u in prizes])
    optimistic = _term_tables(size, [bisect_right(images, u) - 1 for u in prizes])
    return reversed_map, pessimistic, optimistic


def binary_term_tables(pairs: Sequence[tuple[int, int]], top: int) -> tuple:
    """The pair-valued criterion's term tables, from the prizes' index pairs
    in label order on a scale whose top index is ``top``: per prize, the
    level cuts min(v, first) and min(v, second), whose maxes over the
    prizes at their levels are the components f and s of the binary
    utility."""
    firsts, seconds = zip(*pairs)
    return _term_tables(top + 1, firsts), _term_tables(top + 1, seconds)


class ScalarUtilityConfig(_Record):
    """Everything the scalar (pessimistic/optimistic) criteria need.

    Bundles a prize utility into the utility scale and an onto map from the
    uncertainty scale, both validated at construction, including consistency
    of the prize utility with the declared preference preorder.  The
    pessimistic criterion also reverses the utility scale; on a finite chain
    the only order-reversing involution is i -> top - i, so it is derived,
    not configured.
    """

    _fields = ("outcomes", "scale_map", "prize_indices")
    # ``scalar_term_tables``, built once the configuration is validated;
    # derived, so excluded from equality and repr.
    __slots__ = (*_fields, "reversed_map", "pessimistic_terms", "optimistic_terms")

    def __init__(
        self, outcomes: OutcomeSet, scale_map: ScaleMap, prize_indices: tuple[int, ...]
    ) -> None:
        problem = validate_scale_map(scale_map)
        if problem:
            raise ValueError(f"invalid scale map: {problem}")
        labels = outcomes.labels
        if len(prize_indices) != len(labels):
            raise ValueError("prize utility must cover every outcome")
        u_top = len(scale_map.target) - 1
        index_of = outcomes.index_of
        if prize_indices[index_of[outcomes.best]] != u_top:
            raise ValueError(f"best outcome {outcomes.best!r} must have utility 1")
        if prize_indices[index_of[outcomes.worst]] != 0:
            raise ValueError(f"worst outcome {outcomes.worst!r} must have utility 0")
        _check_preference_order(outcomes, prize_indices, "prize utility")
        tables = scalar_term_tables(scale_map.images, prize_indices)
        values = (outcomes, scale_map, prize_indices, *tables)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

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

    def prize_utility_for(self, label: str) -> Level:
        return self.utility_scale.level(self.prize_indices[self.outcomes.index_of[label]])


def pessimistic_utility(pi: PossibilityDistribution, cfg: ScalarUtilityConfig) -> Level:
    """Min over prizes of max(reversed mapped possibility, prize utility):
    n∘h of the max of the prizes' level cuts."""
    check_domain(pi.domain, pi.scale, cfg.outcomes, cfg.uncertainty_scale)
    key = cfg.reversed_map[max(map(getitem, cfg.pessimistic_terms, pi.indices))]
    return cfg.utility_scale.level_values[key]


def optimistic_utility(pi: PossibilityDistribution, cfg: ScalarUtilityConfig) -> Level:
    """Max over prizes of min(mapped possibility, prize utility): h of the
    max of the prizes' level cuts."""
    check_domain(pi.domain, pi.scale, cfg.outcomes, cfg.uncertainty_scale)
    key = cfg.scale_map.images[max(map(getitem, cfg.optimistic_terms, pi.indices))]
    return cfg.utility_scale.level_values[key]


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
        check_same_scale(weight.scale, scale)
    if max(weight1.index, weight2.index) != len(scale) - 1:
        raise ValueError("mixture weights must include the top level")
    nh = cfg.reversed_map
    left = max(nh[weight1.index], pessimistic_utility(pi1, cfg).index)
    right = max(nh[weight2.index], pessimistic_utility(pi2, cfg).index)
    return cfg.utility_scale.level(min(left, right))


class BinaryUtilityAssessment(_Record):
    """A binary utility for each prize, consistent with the preference order.

    By default the best prize must sit at <1,0> and the worst at <0,1>.
    Families that encode every prize as an equivalent best/worst lottery
    (all weights on one half of the binary scale) relax the anchors via
    ``require_anchors=False``; order consistency is always enforced.
    """

    _fields = ("outcomes", "scale", "pair_indices", "require_anchors")
    # ``binary_term_tables``, built once the assessment is validated;
    # derived, so excluded from equality and repr.  A normalized lottery
    # lands back on the binary scale, so its utility's ``binary_rank`` is
    # f + top - s.
    __slots__ = (*_fields, "first_terms", "second_terms")

    def __init__(
        self,
        outcomes: OutcomeSet,
        scale: Scale,
        pair_indices: tuple[tuple[int, int], ...],
        require_anchors: bool = True,
    ) -> None:
        labels = outcomes.labels
        if len(pair_indices) != len(labels):
            raise ValueError("assessment must cover every outcome")
        for first, second in pair_indices:
            check_binary_pair(scale, first, second)
        by_label = dict(zip(labels, pair_indices))
        top = scale.top_index
        if require_anchors:
            if by_label[outcomes.best] != (top, 0):
                raise ValueError(
                    f"best outcome {outcomes.best!r} must be assessed at "
                    f"{scale.levels[top]!r},'0'"
                )
            if by_label[outcomes.worst] != (0, top):
                raise ValueError(
                    f"worst outcome {outcomes.worst!r} must be assessed at "
                    f"'0',{scale.levels[top]!r}"
                )
        ranks = [pair_rank(first, second, top) for first, second in pair_indices]
        _check_preference_order(outcomes, ranks, "assessment")
        tables = binary_term_tables(pair_indices, top)
        values = (outcomes, scale, pair_indices, require_anchors, *tables)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

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


def binary_utility(pi: PossibilityDistribution, a: BinaryUtilityAssessment) -> BinaryUtility:
    """Extended max over prizes of extended min(possibility, prize pair)."""
    check_domain(pi.domain, pi.scale, a.outcomes, a.scale)
    first = max(map(getitem, a.first_terms, pi.indices))
    second = max(map(getitem, a.second_terms, pi.indices))
    return a.scale.binary_values[first + a.scale.top_index - second]


def reduce_to_standard(pi: PossibilityDistribution, a: BinaryUtilityAssessment) -> StandardLottery:
    """The unique standard lottery indifferent to the given lottery.

    Its weights are the binary utility's components: the best-prize weight
    is max min(possibility, first component), the worst-prize weight is
    max min(possibility, second component).
    """
    value = binary_utility(pi, a)
    return StandardLottery(value.first, value.second)


class Ranking(_Record):
    """Decision ids grouped into ties, best class first."""

    __slots__ = _fields = ("classes", "utilities")

    def __init__(
        self, classes: tuple[tuple[str, ...], ...], utilities: tuple[UtilityValue, ...]
    ) -> None:
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "utilities", utilities)


def _table_keys(items: Items, evaluate: Evaluator) -> tuple[list[int], Sequence] | None:
    """Each item's key and the values by key, read from the term tables,
    when ``evaluate`` binds a public evaluator to its configuration by
    keyword (``partial(binary_utility, a=...)`` and its kin); else None.

    The evaluators are looked up as module attributes at call time, so a
    wrapper set on one is recognised too.  Items are checked as the
    evaluator checks them, so the first misfit raises its error.
    """
    if type(evaluate) is not partial or evaluate.args:
        return None
    func, bound = evaluate.func, evaluate.keywords
    if func is binary_utility and bound.keys() == {"a"}:
        config = bound["a"]
        scale = config.scale
    elif func in (pessimistic_utility, optimistic_utility) and bound.keys() == {"cfg"}:
        config = bound["cfg"]
        scale = config.uncertainty_scale
    else:
        return None
    outcomes = config.outcomes
    for _, dist in items:
        if dist.domain is not outcomes or dist.scale is not scale:
            check_domain(dist.domain, dist.scale, outcomes, scale)
    indices = [dist.indices for _, dist in items]
    if func is binary_utility:
        f, s, top = config.first_terms, config.second_terms, scale.top_index
        keys = [max(map(getitem, f, ix)) + top - max(map(getitem, s, ix)) for ix in indices]
        return keys, scale.binary_values
    if func is pessimistic_utility:
        tables, through = config.pessimistic_terms, config.reversed_map
    else:
        tables, through = config.optimistic_terms, config.scale_map.images
    keys = [through[max(map(getitem, tables, ix))] for ix in indices]
    return keys, config.utility_scale.level_values


def rank_decisions(items: Items, evaluate: Evaluator) -> Ranking:
    """Group items by exact utility equality and sort classes best-first.

    Items are grouped and ordered by the value's integer key: a level's
    index, or a binary utility's ``binary_rank``.  Within a class the input
    order is preserved, so output is fully deterministic.  Items that do
    not fit the configuration's domain and scale are rejected, the first
    with the evaluator's error.  A public evaluator bound by keyword is not
    called: the keys come from its configuration's term tables.  Any other
    evaluator is called once per item.
    """
    if not items:
        raise ValueError("nothing to rank")
    tabled = _table_keys(items, evaluate)
    if tabled is None:
        found = [evaluate(dist) for _, dist in items]
        keys = [v.index if isinstance(v, Level) else binary_rank(v) for v in found]
        # A class's value is its first item's.
        tabled = keys, dict(zip(reversed(keys), reversed(found)))
    keys, values = tabled
    groups: defaultdict[int, list[str]] = defaultdict(list)
    for (item_id, _), key in zip(items, keys):
        groups[key].append(item_id)
    ordered = sorted(groups, reverse=True)
    return Ranking(tuple(tuple(groups[k]) for k in ordered), tuple(values[k] for k in ordered))
