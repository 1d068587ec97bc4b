"""Exhaustive desk-scale verification of preference axioms.

A preference relation over a complete universe of lotteries is its rows:
one bitset per member (``rows``), the only form stored and the one every
check reads.  Lotteries are thermometer-coded, one run of low ones per
prize, so the max-min mixture of two lotteries is two masks
and an ``|`` on their codes.  Every axiom is a decidable predicate over
the relation and every check stays complete: it skips only cases whose
result repeats one already decided (members with equal rows, companions
or class members with equal masked codes), so a violated predicate still
returns the first concrete witness, which can be replayed.  The mixtures
with a point mass generate every other, so substitutability is decided
on those and scans for its witness only after a violation.  Continuity
tests each source's row, column and target set with one ``&``.  A1-/B1
and A3-/B3 name the same predicates: each check names its report by the B
axiom, and a battery evaluates it once per relation and relabels the
report for the A axiom.  Entailment sweeps check each configuration's
domain and scale once against its universe and build its relation from
the criterion's integer key core, so no value object is built per member.
Each configuration is checked against its family in ``FAMILIES`` (the
family's battery is the key order of its expectations) across enumerated
or seeded-sampled configuration families, with one report line per axiom
per configuration; a (family, universe, configuration) repeated within
one sweep is checked once.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass, field, replace
from functools import cache, cached_property, partial
from typing import Callable, Iterable, Sequence

from .lotteries import (
    OutcomeSet,
    enumerate_distributions,
)
from .scales import Scale, ScaleMap, binary_rank, pair_ge_indices
from .utilities import (
    BinaryUtilityAssessment,
    ScalarUtilityConfig,
    binary_key,
    check_domain,
    optimistic_key,
    pessimistic_key,
)

def _lowest_bit(bits: int) -> int:
    """Position of the lowest set bit of a nonzero bitset."""
    return (bits & -bits).bit_length() - 1


def _bits(bits: int) -> list[int]:
    """Positions of the set bits, lowest first."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def _row_groups(rows: Iterable[int]) -> dict[int, int]:
    """Bitset of the members with each distinct row, keyed by row, first seen first."""
    groups: dict[int, int] = {}
    for i, row in enumerate(rows):
        groups[row] = groups.get(row, 0) | 1 << i
    return groups


class LotteryUniverse:
    """Every normalized lottery over one outcome set and scale, indexed.

    Precomputes the raw value tuples, a reverse index for mixture lookups,
    the point masses, and the standard-lottery members with their weights.
    The bit encodings the axiom checks run on are built on first use.
    """

    def __init__(self, outcomes: OutcomeSet, scale: Scale):
        self.outcomes = outcomes
        self.scale = scale
        self.members = enumerate_distributions(outcomes, scale)
        self.value_tuples = tuple(m.indices for m in self.members)
        self.index_of = {vt: i for i, vt in enumerate(self.value_tuples)}
        labels = outcomes.labels
        top = len(scale) - 1
        self.point_mass_index = {}
        for label in labels:
            key = tuple(top if l == label else 0 for l in labels)
            self.point_mass_index[label] = self.index_of[key]
        best_pos = labels.index(outcomes.best)
        worst_pos = labels.index(outcomes.worst)
        self.standard_info: list[tuple[int, int, int]] = []
        for i, vt in enumerate(self.value_tuples):
            if all(v == 0 for pos, v in enumerate(vt) if pos not in (best_pos, worst_pos)):
                self.standard_info.append((i, vt[best_pos], vt[worst_pos]))
        self.best_half_ids = tuple(i for i, l, m in self.standard_info if l == top)
        self.worst_half_ids = tuple(i for i, l, m in self.standard_info if m == top)

    def __len__(self) -> int:
        return len(self.members)

    def describe(self, index: int) -> str:
        return f"#{index}{self.members[index]}"

    @cached_property
    def codes(self) -> tuple[int, ...]:
        """Thermometer code per member: ``top`` bits per prize, level v as v low ones.

        On these codes the level min is ``&`` and the level max is ``|``, so
        the mixture with weights (wa, wb) of members i and k has the code
        ``(codes[i] & weight_masks[wa]) | (codes[k] & weight_masks[wb])``.
        """
        top = len(self.scale) - 1
        return tuple(
            sum(((1 << v) - 1) << (pos * top) for pos, v in enumerate(vt))
            for vt in self.value_tuples
        )

    @cached_property
    def weight_masks(self) -> tuple[int, ...]:
        """The code of level w at every prize, per level w."""
        top = len(self.scale) - 1
        prizes = len(self.outcomes.labels)
        return tuple(
            sum(((1 << w) - 1) << (pos * top) for pos in range(prizes))
            for w in range(top + 1)
        )

    @cached_property
    def index_of_code(self) -> dict[int, int]:
        return {code: i for i, code in enumerate(self.codes)}

    @cached_property
    def generator_maps(self) -> tuple[tuple[int, ...], ...]:
        """Member maps of the mixtures with a point mass, 2 * top per prize.

        Weights (top, v), v >= 1, raise the prize to at least v; weights
        (wa, top), wa < top, cap every prize at wa and raise the prize to
        the top.  Under a default weight pair (wa, wb) the mixture with k is
        a chain of these: a cap at wa raising one of k's top prizes if
        wa < top, then a raise to k's level, capped at wb, per prize.
        """
        top = len(self.scale) - 1
        codes, masks, index_of_code = self.codes, self.weight_masks, self.index_of_code
        weights = [(top, v) for v in range(1, top + 1)] + [(wa, top) for wa in range(top)]
        return tuple(
            tuple(index_of_code[(code & masks[wa]) | (codes[k] & masks[wb])] for code in codes)
            for k in self.point_mass_index.values()
            for wa, wb in weights
        )

    @cached_property
    def above(self) -> tuple[int, ...]:
        """Bitset per member of the other members pointwise at least as high."""
        return self._dominance(operator.ge)

    @cached_property
    def below(self) -> tuple[int, ...]:
        """Bitset per member of the other members pointwise at most as high."""
        return self._dominance(operator.le)

    def _dominance(self, compare) -> tuple[int, ...]:
        vts = self.value_tuples
        levels = range(len(self.scale))
        # by_level[pos][level]: members j with compare(vt_j[pos], level).
        by_level = [
            [
                sum(1 << j for j, vt in enumerate(vts) if compare(vt[pos], level))
                for level in levels
            ]
            for pos in range(len(self.outcomes.labels))
        ]
        out = []
        for i, vt in enumerate(vts):
            bits = ~(1 << i)
            for pos, v in enumerate(vt):
                bits &= by_level[pos][v]
            out.append(bits)
        return tuple(out)


class PreferenceRelation:
    """An 'at least as good as' relation over a lottery universe.

    The relation is its ``rows``, one bitset per member: bit j of
    ``rows[i]`` is set iff member i is at least as good as member j.
    """

    def __init__(self, universe: LotteryUniverse, rows: Sequence[int]):
        self.universe = universe
        self.rows = list(rows)
        self.size = len(self.rows)
        if self.size != len(universe):
            raise ValueError("relation size does not match the universe")
        if any(row >> self.size for row in self.rows):
            raise ValueError("relation row has bits past the universe")

    def at_least(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def indifferent(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & self.rows[j] >> i & 1)

    def with_flipped(self, i: int, j: int) -> "PreferenceRelation":
        """Copy with one entry negated; used for fault injection."""
        # A column past the last member is caught by the constructor.
        if min(i, j) < 0 or i >= self.size:
            raise ValueError(f"entry ({i}, {j}) is outside a relation of {self.size} members")
        rows = list(self.rows)
        rows[i] ^= 1 << j
        return PreferenceRelation(self.universe, rows)

    @cached_property
    def row_groups(self) -> list[tuple[int, int]]:
        """(row, bitset of the members with that row) per distinct row, first seen first."""
        return list(_row_groups(self.rows).items())

    @cached_property
    def columns(self) -> list[int]:
        """Bitset per member j of the members i at least as good as j."""
        cols = [0] * self.size
        for row, members in self.row_groups:
            for j in _bits(row):
                cols[j] |= members
        return cols


def induced_relation(universe: LotteryUniverse, evaluate: Callable) -> PreferenceRelation:
    """Member i is at least as good as member j iff its utility is at least j's.

    ``evaluate`` maps a member to anything hashable that ``>=`` compares: a
    public evaluator's value, or a key core's integer.  Each member is
    evaluated once and members with equal utility share one row, so only
    the distinct utilities are compared with each other.
    """
    group_of: dict = {}
    values = []
    members: list[int] = []
    group = []
    for i, m in enumerate(universe.members):
        value = evaluate(m)
        g = group_of.get(value)
        if g is None:
            g = group_of[value] = len(values)
            values.append(value)
            members.append(0)
        members[g] |= 1 << i
        group.append(g)
    row_of = [sum(bits for bits, b in zip(members, values) if a >= b) for a in values]
    return PreferenceRelation(universe, [row_of[g] for g in group])


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of one axiom check; a witness is present iff it failed."""

    axiom: str
    satisfied: bool
    witness: tuple | None = None
    detail: str = ""

    def __post_init__(self) -> None:
        if self.satisfied and self.witness is not None:
            raise ValueError("a satisfied report cannot carry a witness")
        if not self.satisfied and self.witness is None:
            raise ValueError("a violated report must carry a witness")


def check_total_preorder(r: PreferenceRelation) -> AxiomReport:
    """Reflexive, transitive and complete; first failure wins, in that order.

    Transitivity is decided per distinct row: members with equal rows pass
    or fail together, so each row is tested once against each other row.
    """
    n = r.size
    rows = r.rows
    describe = r.universe.describe
    for i in range(n):
        if not rows[i] >> i & 1:
            return AxiomReport(
                "B1", False, (i, i),
                f"reflexivity fails at {describe(i)}",
            )
    groups = r.row_groups
    passed = set()
    for i, row_i in enumerate(rows):
        if row_i in passed:
            continue
        # A j that i is at least as good as, whose row reaches past row_i,
        # breaks transitivity.
        bad = 0
        for row_j, members in groups:
            if row_j & ~row_i:
                bad |= members
        bad &= row_i
        if bad:
            j = _lowest_bit(bad)
            k = _lowest_bit(rows[j] & ~row_i)
            return AxiomReport(
                "B1", False, (i, j, k),
                f"transitivity fails: {describe(i)} >= {describe(j)} >= "
                f"{describe(k)} but not {describe(i)} >= {describe(k)}",
            )
        passed.add(row_i)
    cols = r.columns
    full = (1 << n) - 1
    for i in range(n):
        # Unrelated members j > i, in neither direction.
        missing = full & ~(rows[i] | cols[i]) & ~((2 << i) - 1)
        if missing:
            j = _lowest_bit(missing)
            return AxiomReport(
                "B1", False, (i, j),
                f"completeness fails on {describe(i)} and {describe(j)}",
            )
    return AxiomReport("B1", True)


def check_uncertainty_attitude(r: PreferenceRelation, direction: str) -> AxiomReport:
    """Aversion: pointwise smaller must be weakly preferred.  Attraction: dual.

    Implication only, per the axiom statements; the biconditional lives in
    qualitative monotonicity.
    """
    if direction not in ("aversion", "attraction"):
        raise ValueError(f"unknown direction {direction!r}")
    axiom_id = "A2-" if direction == "aversion" else "A2+"
    universe = r.universe
    premise = universe.above if direction == "aversion" else universe.below
    for i, row in enumerate(r.rows):
        bad = premise[i] & ~row
        if bad:
            j = _lowest_bit(bad)
            return AxiomReport(
                axiom_id, False, (i, j),
                f"{direction} fails: {universe.describe(i)} must be weakly "
                f"preferred to {universe.describe(j)}",
            )
    return AxiomReport(axiom_id, True)


def default_weight_pairs(scale: Scale) -> tuple[tuple[int, int], ...]:
    """Every normalized weight pair over the scale, as index pairs."""
    top = len(scale) - 1
    pairs = [(i, top) for i in range(top + 1)]
    pairs.extend((top, j) for j in range(top - 1, -1, -1))
    return tuple(pairs)


def _distinct_parts(codes: Sequence[int], mask: int) -> dict[int, int]:
    """First index of each distinct masked code, keyed by that code, in order."""
    seen: dict[int, int] = {}
    for i, code in enumerate(codes):
        seen.setdefault(code & mask, i)
    return seen


def check_substitutability(r: PreferenceRelation) -> AxiomReport:
    """Mixing two indifferent lotteries with any third must stay indifferent.

    Complete over every normalized weight pair, indifferent pair and
    companion, never a sample; mixtures that coincide count as indifferent,
    and self-indifference is the total-preorder check's job.  So each
    mixture's member map must keep ``same`` ("equal or indifferent"), and
    maps that keep it compose.  Every mixture is a chain of
    ``universe.generator_maps``, each a mixture too, so the axiom holds iff
    each generator sends the members of every distinct ``same`` row into
    one row or, failing that, into the row of each image of a member with
    that row.

    Only after a violation does a scan in the order of quantification
    return the first witness: per class when indifference is an
    equivalence of members at least as good as themselves, else per weight
    pair and companion, scanning indifferent pairs only under a mixture
    that fails the test.  Companions and class members whose masked code
    repeats an earlier one's are skipped.
    """
    universe = r.universe
    rows = r.rows
    same = [row & col | 1 << i for i, (row, col) in enumerate(zip(rows, r.columns))]
    groups = _row_groups(same)
    gathers = [
        (operator.itemgetter(*_bits(row)), members)
        for row, members in groups.items()
        if row & (row - 1)
    ]

    def keeps_same(f: Sequence[int]) -> bool:
        images = operator.itemgetter(*f)(same)
        for gather, members in gathers:
            ids = gather(images)
            if ids.count(ids[0]) == len(ids):
                continue
            image = sum({1 << m for m in gather(f)})
            if any(image & ~same[f[i]] for i in _bits(members)):
                return False
        return True

    if all(map(keeps_same, universe.generator_maps)):
        return AxiomReport("B3", True)

    pairs = default_weight_pairs(universe.scale)
    codes = universe.codes
    masks = universe.weight_masks
    companions = {wb: _distinct_parts(codes, masks[wb]) for wb in {wb for _, wb in pairs}}
    # Indifference is an equivalence of the members at least as good as
    # themselves, and the rest are indifferent to nothing: scan per class.
    if all(row == members for row, members in groups.items()) and all(
        same[i] == 1 << i for i, row in enumerate(rows) if not row >> i & 1
    ):
        same_of_code = dict(zip(codes, same))
        for row in groups:
            members = _bits(row)
            member_codes = [codes[m] for m in members]
            for wa, wb in pairs:
                # The first member, then each member whose masked code is
                # new; the rest mix exactly as one before them.
                (first, _), *others = _distinct_parts(member_codes, masks[wa]).items()
                if not others:
                    continue
                for k_part, k in companions[wb].items():
                    want = same_of_code[first | k_part]
                    for part, pos in others:
                        if same_of_code[part | k_part] != want:
                            return _substitution_violation(
                                r, members[0], members[pos], k, wa, wb
                            )
    else:
        index_of_code = universe.index_of_code
        for wa, wb in pairs:
            parts = [code & masks[wa] for code in codes]
            for k_part, k in companions[wb].items():
                mixed = [index_of_code[part | k_part] for part in parts]
                if keeps_same(mixed):
                    continue
                for i, m1 in enumerate(mixed):
                    for j in _bits(same[i] >> i + 1 << i + 1):
                        if not same[m1] >> mixed[j] & 1:
                            return _substitution_violation(r, i, j, k, wa, wb)
    raise AssertionError(
        "substitutability: a generator map breaks indifference, "
        "yet no weight pair and companion does"
    )


def _substitution_violation(r, i, j, k, wa, wb) -> AxiomReport:
    universe = r.universe
    codes, masks = universe.codes, universe.weight_masks
    k_part = codes[k] & masks[wb]
    m1 = universe.index_of_code[(codes[i] & masks[wa]) | k_part]
    m2 = universe.index_of_code[(codes[j] & masks[wa]) | k_part]
    labels = universe.scale.levels
    return AxiomReport(
        "B3", False, (i, j, k, wa, wb, m1, m2),
        f"substitutability fails: {universe.describe(i)} ~ {universe.describe(j)} "
        f"but weights ({labels[wa]}, {labels[wb]}) with {universe.describe(k)} "
        f"mix to {universe.describe(m1)} vs {universe.describe(m2)}",
    )


CONTINUITY_VARIANTS = ("A4-", "A4+", "B4", "B4-", "B4+")


def check_continuity(r: PreferenceRelation, variant: str) -> AxiomReport:
    """Existence of an indifferent standard lottery in the variant's target set.

    The scalar-style variants quantify over every lottery in the universe;
    the weakened ones only over the point masses of prizes.  Targets are
    the full standard set or one of its halves.
    """
    if variant not in CONTINUITY_VARIANTS:
        raise ValueError(f"unknown continuity variant {variant!r}")
    universe = r.universe
    if variant.startswith("A4"):
        sources: Iterable[int] = range(r.size)
    else:
        sources = universe.point_mass_index.values()
    if variant.endswith("-"):
        targets = universe.best_half_ids
    elif variant.endswith("+"):
        targets = universe.worst_half_ids
    else:
        targets = tuple(i for i, _, _ in universe.standard_info)
    target_bits = sum(1 << t for t in targets)
    rows, cols = r.rows, r.columns
    for src in sources:
        # The targets src is indifferent to: at least as good as src, and src
        # at least as good as them.
        if not rows[src] & cols[src] & target_bits:
            return AxiomReport(
                variant, False, (src,),
                f"continuity fails: no indifferent standard lottery for "
                f"{universe.describe(src)}",
            )
    return AxiomReport(variant, True)


def _first_standard_mismatch(r: PreferenceRelation, expected) -> tuple[int, int] | None:
    """First standard pair (ia, ib) whose entry differs from ``expected``.

    ``expected(la, ma, lb, mb)`` gives the entry required of standard
    members with weights (la, ma) and (lb, mb); pairs are scanned in
    ``standard_info`` order, ia outer.
    """
    std = r.universe.standard_info
    for ia, la, ma in std:
        for ib, lb, mb in std:
            if r.at_least(ia, ib) != expected(la, ma, lb, mb):
                return ia, ib
    return None


def check_qualitative_monotonicity(r: PreferenceRelation) -> AxiomReport:
    """On standard lotteries, preference must equal the three-case pair order.

    Both directions are checked: the biconditional, not just sufficiency.
    """
    universe = r.universe
    top = len(universe.scale) - 1
    bad = _first_standard_mismatch(r, partial(pair_ge_indices, top=top))
    if bad is None:
        return AxiomReport("B2", True)
    ia, ib = bad
    direction = "holds but the pair order denies it" if r.at_least(ia, ib) \
        else "fails but the pair order requires it"
    return AxiomReport(
        "B2", False, bad,
        f"qualitative monotonicity fails: {universe.describe(ia)} >= "
        f"{universe.describe(ib)} {direction}",
    )


def check_standard_order_decomposition(r: PreferenceRelation) -> AxiomReport:
    """Preference on standard lotteries must equal the three-part union.

    The union joins the within-half orders (worst-weight order on the
    best-possible half, best-weight order on the worst-possible half) with
    every cross pair from the best-possible half to the worst-possible one.
    """
    universe = r.universe
    top = len(universe.scale) - 1
    bad = _first_standard_mismatch(
        r,
        lambda la, ma, lb, mb: (
            (la == top and lb == top and ma <= mb)
            or (ma == top and mb == top and la >= lb)
            or (la == top and mb == top)
        ),
    )
    if bad is None:
        return AxiomReport("B2-decomposition", True)
    ia, ib = bad
    return AxiomReport(
        "B2-decomposition", False, bad,
        f"decomposition fails on {universe.describe(ia)} vs {universe.describe(ib)}",
    )


# ---------------------------------------------------------------------------
# Configuration families


SCALE_LABEL_PRESETS = {
    2: ("0", "1"),
    3: ("0", ".5", "1"),
    4: ("0", ".3", ".7", "1"),
    5: ("0", ".2", ".5", ".7", "1"),
    6: ("0", ".1", ".3", ".5", ".7", "1"),
}


@cache
def canonical_scale(size: int, name: str = "V") -> Scale:
    if size not in SCALE_LABEL_PRESETS:
        raise ValueError(f"no canonical scale of size {size}")
    return Scale(SCALE_LABEL_PRESETS[size], name=name)


@cache
def canonical_outcomes(count: int) -> OutcomeSet:
    labels = tuple(f"x{i}" for i in range(1, count + 1))
    return OutcomeSet(labels, best=labels[0], worst=labels[-1])


def _outcomes_with_ranks(base: OutcomeSet, rank_key: dict[str, int]) -> OutcomeSet:
    """Rebuild an outcome set whose preference classes follow the given keys.

    Larger keys are better.  The best prize must carry the largest key and
    the worst the smallest; generators arrange that.
    """
    distinct = sorted(set(rank_key.values()), reverse=True)
    classes = tuple(
        tuple(label for label in base.labels if rank_key[label] == key)
        for key in distinct
    )
    return OutcomeSet(base.labels, base.best, base.worst, classes)


def enumerate_scale_maps(source: Scale, target: Scale) -> list[ScaleMap]:
    """All order-preserving onto maps with the 0/1 anchors fixed."""
    n, m = len(source), len(target)
    maps = []
    for mid in itertools.combinations_with_replacement(range(m), n - 2):
        images = (0,) + mid + (m - 1,)
        if set(images) != set(range(m)):
            continue
        maps.append(ScaleMap(source, target, images))
    return maps


def _scalar_config(
    outcomes: OutcomeSet, h: ScaleMap, rank_key: dict[str, int]
) -> ScalarUtilityConfig:
    """The configuration whose prize utilities are the rank keys on h's target.

    Preference classes follow the keys.
    """
    return ScalarUtilityConfig(
        _outcomes_with_ranks(outcomes, rank_key),
        h,
        tuple(rank_key[label] for label in outcomes.labels),
    )


def enumerate_scalar_configs(
    outcomes: OutcomeSet, scale: Scale
) -> list[ScalarUtilityConfig]:
    """Every valid scalar configuration over canonical utility scales.

    Ranges over utility-scale sizes up to the uncertainty scale, every
    valid onto map, and every anchored prize assignment.  Each utility
    scale has one order-reversing involution, so there is none to range over.
    """
    configs = []
    interior = tuple(
        l for l in outcomes.labels if l not in (outcomes.best, outcomes.worst)
    )
    for u_size in range(2, len(scale) + 1):
        for h in enumerate_scale_maps(scale, canonical_scale(u_size, name="U")):
            for combo in itertools.product(range(u_size), repeat=len(interior)):
                rank_key = {outcomes.best: u_size - 1, outcomes.worst: 0}
                rank_key.update(zip(interior, combo))
                configs.append(_scalar_config(outcomes, h, rank_key))
    return configs


def sample_scalar_configs(
    seed: int,
    count: int,
    max_outcomes: int = 3,
    max_levels: int = 4,
) -> list[tuple[OutcomeSet, Scale, ScalarUtilityConfig]]:
    """A reproducible sample of valid scalar configurations.

    Dimensions, utility scale, onto map and prize assignment are all drawn
    from one seeded generator, so a fixed seed pins the whole family.
    """
    rng = random.Random(seed)
    out = []
    scale_maps: dict[tuple[int, int], list[ScaleMap]] = {}
    for _ in range(count):
        nx = rng.randint(2, max_outcomes)
        nv = rng.randint(2, max_levels)
        nu = rng.randint(2, nv)
        base = canonical_outcomes(nx)
        v_scale = canonical_scale(nv)
        if (nv, nu) not in scale_maps:
            scale_maps[nv, nu] = enumerate_scale_maps(v_scale, canonical_scale(nu, name="U"))
        h = rng.choice(scale_maps[nv, nu])
        rank_key = {base.best: nu - 1, base.worst: 0}
        for label in base.labels:
            if label not in (base.best, base.worst):
                rank_key[label] = rng.randrange(nu)
        out.append((base, v_scale, _scalar_config(base, h, rank_key)))
    return out


def enumerate_assessments(
    outcomes: OutcomeSet, scale: Scale, half: str | None = None
) -> list[BinaryUtilityAssessment]:
    """Every consistent assessment over the given space.

    With ``half=None`` the anchors are fixed at <1,0> and <0,1> and interior
    prizes range over the whole binary scale.  With ``half="best"`` or
    ``half="worst"`` every prize is encoded inside that half of the scale
    (anchors relaxed), best prize highest and worst prize lowest.
    """
    values = scale.binary_values
    interior = [l for l in outcomes.labels if l not in (outcomes.best, outcomes.worst)]
    if half is None:
        anchors = {outcomes.best: values[-1], outcomes.worst: values[0]}
        tables = [
            {**anchors, **dict(zip(interior, combo))}
            for combo in itertools.product(values, repeat=len(interior))
        ]
    else:
        if half == "best":
            pool = values[scale.top_index:]
        elif half == "worst":
            pool = values[: scale.top_index + 1]
        else:
            raise ValueError(f"unknown half {half!r}")
        # pool is ascending, so each multiset comes out ascending: reversed,
        # it runs from the best prize down to the worst.
        labels = [outcomes.best, *interior, outcomes.worst]
        tables = [
            dict(zip(labels, reversed(combo)))
            for combo in itertools.combinations_with_replacement(pool, len(labels))
        ]
    result = []
    for table in tables:
        rank_key = {label: binary_rank(table[label]) for label in outcomes.labels}
        variant = _outcomes_with_ranks(outcomes, rank_key)
        result.append(
            BinaryUtilityAssessment.from_mapping(
                variant, scale, table, require_anchors=half is None
            )
        )
    return result


# ---------------------------------------------------------------------------
# Entailment sweeps


# Each family's axioms with the outcome expected of each; a family's battery
# is the key order of its expectations, and reports follow that order.
FAMILIES: dict[str, dict[str, str]] = {
    "pessimistic": {
        "A1-": "satisfied", "A2-": "satisfied", "A3-": "satisfied", "A4-": "satisfied",
        "B1": "satisfied", "B2": "informational", "B3": "satisfied", "B4": "satisfied",
    },
    "optimistic": {
        "A1-": "satisfied", "A2+": "satisfied", "A3-": "satisfied", "A4+": "satisfied",
        "B1": "satisfied", "B2": "informational", "B3": "satisfied", "B4": "satisfied",
    },
    "binary": {
        "B1": "satisfied", "B2": "satisfied", "B3": "satisfied", "B4": "satisfied",
        "A2-": "violated", "A2+": "violated",
        "A4-": "informational", "A4+": "informational",
        "B4-": "informational", "B4+": "informational",
    },
    "binary-best-half": {
        "B1": "satisfied", "B2": "informational", "B3": "satisfied", "B4": "satisfied",
        "A2-": "satisfied", "A2+": "informational",
        "A4-": "satisfied", "A4+": "informational",
        "B4-": "satisfied", "B4+": "informational",
    },
    "binary-worst-half": {
        "B1": "satisfied", "B2": "informational", "B3": "satisfied", "B4": "satisfied",
        "A2-": "informational", "A2+": "satisfied",
        "A4-": "informational", "A4+": "satisfied",
        "B4-": "informational", "B4+": "satisfied",
    },
}


@dataclass
class ConfigOutcome:
    """All axiom reports for one configuration of a family in ``FAMILIES``."""

    config_id: str
    family: str
    reports: list[AxiomReport]

    @property
    def expectations(self) -> dict[str, str]:
        return FAMILIES[self.family]

    def unexpected(self) -> list[str]:
        bad = []
        for report in self.reports:
            want = self.expectations.get(report.axiom, "informational")
            if want == "satisfied" and not report.satisfied:
                bad.append(report.axiom)
            elif want == "violated" and report.satisfied:
                bad.append(report.axiom)
        return bad


@dataclass
class EntailmentRun:
    """The full outcome of an entailment sweep."""

    configs: list[ConfigOutcome] = field(default_factory=list)

    def unexpected(self) -> list[tuple[str, str]]:
        return [
            (c.config_id, axiom) for c in self.configs for axiom in c.unexpected()
        ]

    def anomaly_exhibited(self) -> bool:
        """Some mixed assessment must violate both attitude axioms."""
        for c in self.configs:
            if c.family != "binary":
                continue
            down = {r.axiom: r.satisfied for r in c.reports}
            if down.get("A2-") is False and down.get("A2+") is False:
                return True
        return False

    def ok(self) -> bool:
        return not self.unexpected() and self.anomaly_exhibited()


# The check behind each axiom.  Entries look their check up by module name at
# call time, so a wrapper set on the module attribute sees every check a sweep
# runs; a (family, universe, configuration) repeated within a sweep is not
# checked again.
_CHECKS = {
    "A1-": lambda r: check_total_preorder(r),
    "A2-": lambda r: check_uncertainty_attitude(r, "aversion"),
    "A2+": lambda r: check_uncertainty_attitude(r, "attraction"),
    "A3-": lambda r: check_substitutability(r),
    "A4-": lambda r: check_continuity(r, "A4-"),
    "A4+": lambda r: check_continuity(r, "A4+"),
    "B2": lambda r: check_qualitative_monotonicity(r),
    "B4": lambda r: check_continuity(r, "B4"),
    "B4-": lambda r: check_continuity(r, "B4-"),
    "B4+": lambda r: check_continuity(r, "B4+"),
}
# B1 and B3 restate A1- and A3-: one entry each, so one evaluation per
# relation.  A check names its report by the B axiom; the battery relabels
# it (no witness or detail names the axiom).
_CHECKS["B1"], _CHECKS["B3"] = _CHECKS["A1-"], _CHECKS["A3-"]


def _run_battery(r: PreferenceRelation, battery: Iterable[str]) -> list[AxiomReport]:
    done: dict = {}
    reports = []
    for axiom in battery:
        check = _CHECKS[axiom]
        if check not in done:
            done[check] = check(r)
        report = done[check]
        reports.append(report if report.axiom == axiom else replace(report, axiom=axiom))
    return reports


def verify_entailments(
    universe: LotteryUniverse | None = None,
    *,
    scalar_config: ScalarUtilityConfig | None = None,
    assessment: BinaryUtilityAssessment | None = None,
    seed: int = 0,
    sample_size: int = 100,
    sample_max_outcomes: int = 3,
    sample_max_levels: int = 4,
    enumerate_max: tuple[int, int] = (3, 3),
    fault: tuple[int, int] | None = None,
) -> EntailmentRun:
    """Run the axiom batteries across configuration families.

    Families: the caller's own configuration over its universe (if given);
    fully enumerated configurations for every space within
    ``enumerate_max``; and a seeded sample of scalar configurations drawn
    within the sample bounds.  Each configuration runs its family's battery
    from ``FAMILIES``, the key order of the family's expectations.
    ``fault`` flips one entry of the first relation built, for exercising
    the failure path end to end.  A (family, universe, configuration) met
    again reuses its reports within the call, never across calls; the
    reports of a faulted relation are never stored.
    """
    for given, what in ((scalar_config, "config"), (assessment, "assessment")):
        if given is not None and universe is None:
            raise ValueError(f"a universe is required to check the scenario {what}")

    @cache
    def universe_for(nx: int, nv: int) -> LotteryUniverse:
        return LotteryUniverse(canonical_outcomes(nx), canonical_scale(nv))

    # Every member of a universe shares its domain and scale, so one check per
    # (universe, configuration) stands for the public evaluators' check per
    # member, and the relation is built from the integer key cores.
    def scalar(pess_id: str, opt_id: str, uni: LotteryUniverse, cfg: ScalarUtilityConfig):
        check_domain(uni.outcomes, uni.scale, cfg.outcomes, cfg.uncertainty_scale)
        yield pess_id, "pessimistic", uni, cfg, partial(pessimistic_key, cfg=cfg)
        yield opt_id, "optimistic", uni, cfg, partial(optimistic_key, cfg=cfg)

    def binary(config_id: str, family: str, uni: LotteryUniverse, a: BinaryUtilityAssessment):
        check_domain(uni.outcomes, uni.scale, a.outcomes, a.scale)
        yield config_id, family, uni, a, partial(binary_key, a=a)

    def configs():
        """(config id, family, universe, config or assessment, key core), in report order."""
        if scalar_config is not None:
            yield from scalar(
                "scenario-pessimistic", "scenario-optimistic", universe, scalar_config
            )
        if assessment is not None:
            yield from binary("scenario-binary", "binary", universe, assessment)
        max_x, max_v = enumerate_max
        for nx, nv in itertools.product(range(2, max_x + 1), range(2, max_v + 1)):
            uni = universe_for(nx, nv)
            for i, cfg in enumerate(enumerate_scalar_configs(uni.outcomes, uni.scale)):
                tag = f"enum-{nx}x{nv}-{i:03d}"
                yield from scalar(f"pess-{tag}", f"opt-{tag}", uni, cfg)
            for prefix, family, half in (
                ("binary-enum", "binary", None),
                ("binary-best-half", "binary-best-half", "best"),
                ("binary-worst-half", "binary-worst-half", "worst"),
            ):
                for i, a in enumerate(enumerate_assessments(uni.outcomes, uni.scale, half)):
                    yield from binary(f"{prefix}-{nx}x{nv}-{i:03d}", family, uni, a)
        if sample_size > 0:
            sampled = sample_scalar_configs(
                seed, sample_size, sample_max_outcomes, sample_max_levels
            )
            for i, (base, v_scale, cfg) in enumerate(sampled):
                uni = universe_for(len(base.labels), len(v_scale))
                yield from scalar(f"pess-sample-{i:03d}", f"opt-sample-{i:03d}", uni, cfg)

    verdicts: dict[tuple, list[AxiomReport]] = {}
    run = EntailmentRun()
    for config_id, family, uni, given, evaluate in configs():
        key = family, uni, given
        reports = verdicts.get(key)
        if reports is None:
            relation = induced_relation(uni, evaluate)
            if fault is None:
                reports = verdicts[key] = _run_battery(relation, FAMILIES[family])
            else:
                reports = _run_battery(relation.with_flipped(*fault), FAMILIES[family])
                fault = None
        run.configs.append(ConfigOutcome(config_id, family, list(reports)))
    return run


def format_report(run: EntailmentRun) -> str:
    """One record per axiom per configuration, tab separated."""
    lines = []
    for config in run.configs:
        for report in config.reports:
            status = "satisfied" if report.satisfied else "violated"
            expectation = config.expectations.get(report.axiom, "informational")
            witness = report.detail if report.detail else "-"
            lines.append(
                f"{config.config_id}\t{report.axiom}\t{status}\t"
                f"expected={expectation}\t{witness}"
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Pair-of-scalar-utilities versus pair-valued utility search


@dataclass(frozen=True)
class SearchResult:
    """Outcome of the counterexample search; never a universal claim."""

    witness: tuple[int, int] | None
    pairs_checked: int
    outcome_count: int
    scale_size: int

    @property
    def found(self) -> bool:
        return self.witness is not None

    def summary(self) -> str:
        scope = f"|X|={self.outcome_count}, |V|={self.scale_size}"
        if self.witness is None:
            return (
                f"no witness found at scale ({scope}); "
                f"{self.pairs_checked} pairs checked"
            )
        i, j = self.witness
        return f"witness found at scale ({scope}): members {i} and {j}"


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
    n = len(universe)
    # Members sharing (pessimistic, optimistic) values, groups in order of
    # their first member.  A first witness (i, j) has i first in its group:
    # any earlier member of the group would pair with i or with j.
    groups: dict[tuple[int, int], list[int]] = {}
    for i, m in enumerate(universe.members):
        groups.setdefault((pessimistic_key(m, cfg), optimistic_key(m, cfg)), []).append(i)
    pair_key = [binary_key(m, assessment) for m in universe.members]
    for members in groups.values():
        i = members[0]
        for j in members:
            if pair_key[j] != pair_key[i]:
                # Pairs (a, b) with a < i come first, then (i, i+1) .. (i, j).
                checked = i * (n - 1) - i * (i - 1) // 2 + (j - i)
                return SearchResult(
                    (i, j), checked, len(universe.outcomes.labels), len(universe.scale)
                )
    return SearchResult(
        None, n * (n - 1) // 2, len(universe.outcomes.labels), len(universe.scale)
    )
