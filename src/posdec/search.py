"""Search for lotteries the pair of scalar utilities cannot separate.

Only ``scripts/counterexample_search.py`` and the tests import this
module, so no ``posdec`` command compiles it.
"""

from __future__ import annotations

from .checker import LotteryUniverse, binary_keys, member_keys, optimistic_keys, pessimistic_keys
from .scales import _Record
from .utilities import BinaryUtilityAssessment, ScalarUtilityConfig, check_domain


class SearchResult(_Record):
    """Outcome of the counterexample search; never a universal claim."""

    __slots__ = _fields = ("witness", "pairs_checked", "outcome_count", "scale_size")

    def __init__(
        self, witness: tuple[int, int] | None, pairs_checked: int, outcome_count: int,
        scale_size: int,
    ) -> None:
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "pairs_checked", pairs_checked)
        object.__setattr__(self, "outcome_count", outcome_count)
        object.__setattr__(self, "scale_size", scale_size)

    @property
    def found(self) -> bool:
        return self.witness is not None


def search_pair_counterexample(
    universe: LotteryUniverse,
    cfg: ScalarUtilityConfig,
    assessment: BinaryUtilityAssessment,
) -> SearchResult:
    """Look for two lotteries the scalar pair cannot tell apart but the
    pair-valued utility can.

    Decides every member pair: only members with equal scalar values can
    form a witness, so members are compared within their group.  Reports
    the first witness in (i, j) order with the number of pairs up to it,
    or an explicit none-found-at-this-scale marker.
    """
    check_domain(universe.outcomes, universe.scale, cfg.outcomes, cfg.uncertainty_scale)
    check_domain(universe.outcomes, universe.scale, assessment.outcomes, assessment.scale)
    n, scope = len(universe), (len(universe.outcomes.labels), len(universe.scale))
    # Members sharing (pessimistic, optimistic) values, groups in order of
    # their first member.  A first witness (i, j) has i first in its group:
    # any earlier member of the group would pair with i or with j.
    groups: dict[tuple[int, int], list[int]] = {}
    scalar_keys = zip(
        member_keys(pessimistic_keys(universe, cfg)), member_keys(optimistic_keys(universe, cfg))
    )
    for i, key in enumerate(scalar_keys):
        groups.setdefault(key, []).append(i)
    pair_key = member_keys(binary_keys(universe, assessment))
    for members in groups.values():
        i = members[0]
        for j in members:
            if pair_key[j] != pair_key[i]:
                # Pairs (a, b) with a < i come first, then (i, i+1) .. (i, j).
                checked = i * (n - 1) - i * (i - 1) // 2 + (j - i)
                return SearchResult((i, j), checked, *scope)
    return SearchResult(None, n * (n - 1) // 2, *scope)
