"""The axiom checker: lottery universes, preference relations, the key
folds that induce them, and the axiom predicates.

A preference relation over a complete universe of lotteries is stored as
its twin classes: members with the same row and the same column share a
class, and a class table says which classes are at least as good as
which.  A relation a criterion induces has one class per distinct
utility, at most 2|V| - 1 whatever the size of the universe, and a
flipped entry adds at most two.  Every axiom holds or fails for whole
classes, so no check reads the n^2 member rows (``rows``, built only on
request): total preorder, continuity and the standard-lottery order are
decided on the table.  The last two read the standard members indexed by
binary rank (``LotteryUniverse.standard``): one table per relation
holds the classes of the ranks up to and above each rank as bitsets
(``standard_ranks``), the order reads each standard member's class row
against its rank's, and continuity's targets are three of its entries.
Uncertainty attitude and substitutability read the classes laid out over
the full grid of level tuples.  Attitude gives each place a byte, a bit
per class for eight classes at a time, and closes it under level shifts:
every place then sees the classes above (or below) it.  Substitutability builds each class's "equal or
indifferent" set once and tries each mixture with a point mass, which
generate every other, once: where those sets are the blocks of an
equivalence on one layout, it tests the mixtures in order, each on the
rows of the blocks' layout that it moves once the mixtures before it
keep the sets.  Their image, cut by slicing and translates with 0xff
left at the places that hold no member, must follow from one map of
blocks, which one maketrans and a translate or two decide; otherwise it
tries every mixture's member map.  One pair finder, reading the same
sets, names the witness from the first mixture that breaks it.
Members are addressed by their place in the level grid: a mixture with
a point mass folds per-prize image tables over it, and a raise is one
stride.  Every check stays complete and returns the first concrete
witness, which can be replayed.
Each check names its report by the B axiom; A1-/B1 and A3-/B3 name the
same predicates, and the sweeps (``posdec.axioms``) relabel a report for
the A axiom.  Only a violation builds a report: a check that holds
returns its axiom's shared report (``HOLDS``), and a witness names each
member by text a universe builds once, on first use (``describe``).
A criterion's keys, one utility per member, are its per-prize term
tables, each a level cut min(v, cap), max-folded over the full grid of
level tuples as bytes, one translate per level per prize
(``pessimistic_keys`` and its kin).  The scalar criteria read their
fold through a map, n∘h or h, by one more translate, since n∘h and h
of the max fold are the pessimistic and optimistic utilities
(``posdec.utilities``); the binary criterion joins two folds as
f + top - s.
The classes come from the keys by one translate, which is the relation's
grid layout, with no per-member loop.  Keys fit a byte, with 0xff left
to mark places that hold no member, up to |V| = 128
(``BYTE_KEY_LEVELS``); ``_keys`` decides the layout once per fold, and
wider scales fold per member into a list in member order.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property, reduce

from . import lotteries
from .lotteries import OutcomeSet
from .scales import Scale, _Record
from .utilities import BinaryUtilityAssessment, ScalarUtilityConfig


def _lowest_bit(bits: int) -> int:
    """Position of the lowest set bit of a nonzero bitset."""
    return (bits & -bits).bit_length() - 1


# 256 bytes from 248 - v translate v .. v + 7 to bits 0 .. 7, others to 0.
_ONE_BITS = bytes(248) + bytes(1 << b for b in range(8)) + bytes(248)


def _dense(keys: Iterable) -> tuple[list[int], list]:
    """An id per key, numbered by first occurrence, and the distinct keys in that order."""
    ids: dict = {}
    return [ids.setdefault(key, len(ids)) for key in keys], list(ids)


class LotteryUniverse:
    """Every normalized lottery over one outcome set and scale, indexed.

    Members run in lexicographic order of their levels, first label
    outermost.  Member ``base[g] + v`` has level v at the last prize and
    place g in the grid of the other prizes' levels, a grid never larger
    than the universe; ``base[g]`` is the first member with prefix g, less
    top if g holds no top level (then v can only be top).
    """

    def __init__(self, outcomes: OutcomeSet, scale: Scale):
        self.outcomes = outcomes
        self.scale = scale
        # Looked up on the module at call time, so a wrapper set there is reached.
        self.members = lotteries.enumerate_distributions(outcomes, scale)
        self.value_tuples = tuple(m.indices for m in self.members)
        labels, size, top = outcomes.labels, len(scale), len(scale) - 1
        self.grid_size = size ** len(labels)
        prefixes = itertools.product(range(size), repeat=len(labels) - 1)
        lasts = [range(size) if top in prefix else (top,) for prefix in prefixes]
        firsts = itertools.accumulate(map(len, lasts), initial=0)
        self.base = [first - last[0] for first, last in zip(firsts, lasts)]
        places = [g for g, last in enumerate(lasts) for _ in last]
        # The last prize is gathered per member, so no grid outgrows the universe.
        last_levels = [v for last in lasts for v in last]
        self.grid_gathers = operator.itemgetter(*places), operator.itemgetter(*last_levels)

        def at(levels: dict) -> int:
            return self.index([levels.get(x, 0) for x in labels])

        self.point_masses = [at({x: top}) for x in labels]
        # The standard member at each binary rank r (``pair_rank``), lowest
        # first: weights (r, top) up to the top rank, (top, 2 * top - r) on.
        self.standard = [
            at({outcomes.best: min(r, top), outcomes.worst: min(2 * top - r, top)})
            for r in range(2 * top + 1)
        ]
        # (member, rank) per standard member in member order: B2's witness scan.
        self.standard_scan = sorted((i, r) for r, i in enumerate(self.standard))
        weights = [(top, v) for v in range(1, size)] + [(wa, top) for wa in range(1, top)]
        self.generators = [(k, *w) for k in self.point_masses for w in weights]
        # Witness text per member, built on first use (``describe``).
        self.descriptions = {}

    def __len__(self) -> int:
        return len(self.members)

    def describe(self, index: int) -> str:
        """Member ``index`` as witness text, built once per universe."""
        text = self.descriptions.get(index)
        if text is None:
            text = self.descriptions[index] = f"#{index}{self.members[index]}"
        return text

    def index(self, levels: Sequence[int]) -> int:
        """Position of the member with these levels, one per prize in label order."""
        top = len(self.scale) - 1
        if len(levels) != len(self.outcomes.labels) or not 0 <= min(levels) <= max(levels) == top:
            raise ValueError(f"levels {tuple(levels)} name no member of this universe")
        return self.base[reduce(lambda g, v: g * (top + 1) + v, levels[:-1], 0)] + levels[-1]

    def generator_map(self, k: int, wa: int, wb: int) -> list[int]:
        """Member map of generator (k, wa, wb), one of ``generators``.

        It sends member i to its mixture with point mass k under weights
        (wa, wb); there are 2 * top - 1 per prize, point masses in label
        order.  Weights (top, v), v >= 1, raise the prize to at least v;
        weights (wa, top), 0 < wa < top, cap every prize at wa and raise the
        prize to the top.  Under any normalized weight pair but (0, top),
        whose map is constant and keeps every relation, the mixture with k is
        a chain of these: a cap at wa raising one of k's top prizes if
        wa < top, then a raise to k's level, capped at wb, per prize: level
        v goes to min(v, wa), and at k's top prize to max(min(v, wa), wb).
        """
        images = [[min(v, wa) for v in range(len(self.scale))]] * len(self.outcomes.labels)
        q = self.point_masses.index(k)
        images[q] = [max(v, wb) for v in images[q]]
        places, last_levels = self.grid_gathers
        grid = operator.itemgetter(*_places(len(self.scale), images[:-1]))(self.base)
        return list(map(operator.add, places(grid), last_levels(images[-1])))

    # The grid tables cover the full grid of |V|^|X| level tuples, first
    # prize outermost, which holds about |V|/|X| places per member at large
    # |V|.  Each is built on first use by the check that reads it, and none
    # is kept per generator.

    @cached_property
    def grid_scatter(self) -> operator.itemgetter:
        """Gather of a member sequence, one entry appended, onto the grid:
        member i's entry at its place, the appended one where no member is."""
        cells = zip(itertools.product(self.base, range(len(self.scale))), self.grid_holes)
        places = [len(self) if h else b + v for (b, v), h in cells]
        # Gathered from one int per member, so places share them.
        return operator.itemgetter(*operator.itemgetter(*places)([*range(len(self) + 1)]))

    @cached_property
    def grid_holes(self) -> bytes:
        """Byte 0xff at each grid place that holds no member, 0 elsewhere."""
        top = len(self.scale) - 1
        # Below the top, a first prize's places are holes where the rest's are.
        return reduce(
            lambda f, d: f * top + bytes((top + 1)**d), range(len(self.outcomes.labels)), b"\xff"
        )

    @cached_property
    def grid_moves(self) -> list[tuple[int, int]]:
        """(mask, shift) pairs moving a byte per place d = 1, 2, 4, ... <=
        top levels down a prize, first place highest: ``seen |= (seen &
        mask) << shift`` over them in turn reaches every place below."""
        size, top, prizes = len(self.scale), len(self.scale) - 1, len(self.outcomes.labels)
        moves = []
        for k, d in itertools.product(range(prizes), [1 << e for e in range(top.bit_length())]):
            s = size ** (prizes - 1 - k)
            pattern = (b"\0" * d * s + b"\xff" * (size - d) * s) * size**k
            moves.append((int.from_bytes(pattern, "big"), 8 * d * s))
        return moves

    @cached_property
    def grid_caps(self) -> list[bytes]:
        """Per level wa = 1 .. top, position bytes over a block of the
        innermost prizes' levels, as many prizes as fit 255 places and at
        most |X| - 1: below the top, each place's place capped at wa; at the
        top, each place that holds a top level, and 255 at the others.  A
        capped block, or at the top one punched to 0xff where no prize is
        at the top, is the position bytes translated through the block."""
        size, others = len(self.scale), len(self.outcomes.labels) - 1
        inner = next(m for m in range(others, -1, -1) if size**m < 256)
        caps = [bytes(_places(size, [[min(v, wa) for v in range(size)]] * inner))
                for wa in range(1, size - 1)]
        # The grid's first places run over the innermost prizes' levels.
        return caps + [bytes(map(max, range(size**inner), self.grid_holes))]


def _places(size: int, tables: Sequence[Sequence[int]]) -> list[int]:
    """Places of a |V|-level grid, each sent to the place whose levels
    are the prizes' table entries at its own."""
    grid = [0]
    for table in tables:
        grid = [a * size + b for a in grid for b in table]
    return grid


class PreferenceRelation:
    """An 'at least as good as' relation over a lottery universe.

    The relation is its twin classes: members with the same row and the
    same column of the relation share a class, and a member not at least
    as good as itself has a class of its own.  ``class_of[i]`` is member
    i's class, classes numbered in order of their first member, and bit b
    of ``table[a]`` is set iff class a is at least as good as class b.
    ``rows`` (bit j of ``rows[i]`` set iff member i is at least as good as
    member j) is built on first read; no check reads it.
    """

    def __init__(self, universe: LotteryUniverse, rows: Sequence[int]):
        rows = list(rows)
        if len(rows) != len(universe):
            raise ValueError("relation size does not match the universe")
        if any(row >> len(rows) for row in rows):
            raise ValueError("relation row has bits past the universe")
        self.universe, self.size, self.rows = universe, len(rows), rows
        # Twins share a row and a column, a member's column read as its bit
        # in each distinct row; a member not at least as good as itself is
        # keyed apart.
        distinct = list(dict.fromkeys(rows))
        self.class_of, classes = _dense(
            (row, tuple(d >> i & 1 for d in distinct)) if row >> i & 1 else i
            for i, row in enumerate(rows)
        )
        firsts = [self.class_of.index(a) for a in range(len(classes))]
        self.table = [sum((rows[f] >> g & 1) << b for b, g in enumerate(firsts)) for f in firsts]

    @classmethod
    def _of_classes(cls, universe: LotteryUniverse, class_of: list[int], table: list[int]):
        """The relation with these classes, numbered in order of their first member."""
        r = cls.__new__(cls)
        r.universe, r.size, r.class_of, r.table = universe, len(class_of), class_of, table
        return r

    @cached_property
    def rows(self) -> list[int]:
        """Bitset per member of the members it is at least as good as."""
        members = [0] * len(self.table)
        for i, c in enumerate(self.class_of):
            members[c] |= 1 << i
        row_of = [sum(m for b, m in enumerate(members) if row >> b & 1) for row in self.table]
        return [row_of[c] for c in self.class_of]

    @cached_property
    def indifference(self) -> list[int]:
        """Bitset per class of the classes indifferent to it; itself iff reflexive."""
        return [row & col for row, col in zip(self.table, self.columns)]

    @cached_property
    def columns(self) -> list[int]:
        """Bitset per class b of the classes at least as good as b."""
        table = self.table
        return [sum((row >> b & 1) << a for a, row in enumerate(table)) for b in range(len(table))]

    @cached_property
    def first_members(self) -> list[int]:
        """First member of each class, ascending."""
        return [self.class_of.index(a) for a in range(len(self.table))]

    @cached_property
    def standard_ranks(self) -> tuple[list[int], list[int]]:
        """Per binary rank q, the classes of the standard members
        (``universe.standard``) of rank q or below, and of the ranks above
        q, as bitsets: the prefix and suffix ORs of each rank's class bit."""
        placed = [1 << self.class_of[i] for i in self.universe.standard]
        below = [*itertools.accumulate(placed, operator.or_)]
        return below, [*itertools.accumulate(placed[:0:-1], operator.or_)][::-1] + [0]

    @cached_property
    def grid_layouts(self) -> list[bytes]:
        """Class ids over the full level grid (``universe.grid_scatter``),
        248 classes a layout: id - 248q in layout q, else 255."""
        scatter, cls, count = self.universe.grid_scatter, self.class_of, len(self.table)
        if count <= 248:
            return [bytes(scatter([*cls, 255]))]
        return [bytes(scatter([c - lo if lo <= c < lo + 248 else 255 for c in cls] + [255]))
                for lo in range(0, count, 248)]

    def at_least(self, i: int, j: int) -> bool:
        return bool(self.table[self.class_of[i]] >> self.class_of[j] & 1)

    def indifferent(self, i: int, j: int) -> bool:
        a, b = self.class_of[i], self.class_of[j]
        return bool(self.table[a] >> b & self.table[b] >> a & 1)

    def with_flipped(self, i: int, j: int) -> "PreferenceRelation":
        """Copy with one entry negated; used for fault injection.

        Members i and j move to classes of their own, so the copy has at
        most two classes more than this relation.
        """
        if min(i, j) < 0 or i >= self.size:
            raise ValueError(f"entry ({i}, {j}) is outside a relation of {self.size} members")
        if j >= self.size:
            raise ValueError("relation row has bits past the universe")
        k = len(self.table)
        origin = [*range(k), self.class_of[i], self.class_of[j]]
        class_of = list(self.class_of)
        class_of[i], class_of[j] = k, k + 1
        # Renumber by first member, dropping a class the move left empty.
        class_of, kept = _dense(class_of)
        origin = [origin[c] for c in kept]
        table = [sum((self.table[a] >> b & 1) << c for c, b in enumerate(origin)) for a in origin]
        table[class_of[i]] ^= 1 << class_of[j]
        return PreferenceRelation._of_classes(self.universe, class_of, table)


# A key below 255 fits a byte and leaves 0xff to mark the grid places that
# hold no member: binary keys run to 2 * top, so scales of up to 128 levels.
BYTE_KEY_LEVELS = 128
_IDENTITY = bytes(range(256))
# Per table entry t, which is a level below BYTE_KEY_LEVELS, the byte table
# that takes each byte b to max(b, t).
_MAX_WITH = [bytes([t]) * t + _IDENTITY[t:] for t in range(BYTE_KEY_LEVELS)]


def _fold(tables: Sequence[Sequence[int]], through: bytes | None = None) -> int:
    """The max over prizes of each prize's term at its level, a term table
    per prize in label order, read through the byte table ``through`` if
    given, on scales of up to ``BYTE_KEY_LEVELS`` levels: a byte per place
    of the full level grid, first place highest, as one int.  The grid of
    the last prizes gains the prize before them as its outermost, one
    translate per level through the byte table of that level's term."""
    grid = bytes(tables[-1])
    for table in reversed(tables[:-1]):
        grid = b"".join([grid.translate(_MAX_WITH[t]) for t in table])
    return int.from_bytes(grid.translate(through), "big")


def _keys(
    universe: LotteryUniverse, tables: Sequence, second: Sequence = (), through: Sequence = ()
) -> bytes | list[int]:
    """Every member's key from per-prize term tables: the max fold of
    ``tables``, read through ``through`` (a key per fold value) if given,
    or given ``second`` tables, the max folds f of ``tables`` and s of
    ``second`` joined as f + top - s.  On scales of up to
    ``BYTE_KEY_LEVELS`` levels, the ``_fold`` bytes with 0xff at each place
    that holds no member; past that, a list in member order, each member's
    terms at its levels (``universe.value_tuples``)."""
    top = len(universe.scale) - 1
    if len(universe.scale) > BYTE_KEY_LEVELS:
        # With no map, keys are read as they are; with no ``second``
        # tables, s is top and the join is f.
        terms, through = operator.getitem, through or range(2 * top + 1)
        return [through[max(map(terms, tables, v)) + top - max(map(terms, second, v), default=top)]
                for v in universe.value_tuples]
    folded = _fold(tables, bytes(through).ljust(256) if through else None)
    if second:
        # No byte borrows: at every place, f + top - s is at least 0.
        folded += int.from_bytes(bytes([top]) * universe.grid_size, "big") - _fold(second)
    return (folded | int.from_bytes(universe.grid_holes, "big")).to_bytes(universe.grid_size, "big")


def pessimistic_keys(universe: LotteryUniverse, cfg: ScalarUtilityConfig) -> bytes | list[int]:
    """The pessimistic utility's index for every member: the max fold of
    ``cfg.pessimistic_terms`` read through n∘h (``_keys``).  On scales of
    up to ``BYTE_KEY_LEVELS`` levels, a byte per place of the full level
    grid, 0xff where no member is; past that, a list in member order.  No
    domain check."""
    return _keys(universe, cfg.pessimistic_terms, through=cfg.reversed_map)


def optimistic_keys(universe: LotteryUniverse, cfg: ScalarUtilityConfig) -> bytes | list[int]:
    """The optimistic utility's index for every member, laid out as
    ``pessimistic_keys`` lays them: the max fold of ``cfg.optimistic_terms``
    read through h.  No domain check."""
    return _keys(universe, cfg.optimistic_terms, through=cfg.scale_map.images)


def binary_keys(universe: LotteryUniverse, a: BinaryUtilityAssessment) -> bytes | list[int]:
    """The binary utility's ``binary_rank`` for every member, laid out as
    ``pessimistic_keys`` lays them: the max folds f of ``a.first_terms``
    and s of ``a.second_terms``, joined as f + top - s.  No domain check."""
    return _keys(universe, a.first_terms, a.second_terms)


def member_keys(keys: bytes | Sequence) -> Sequence:
    """Keys in member order, from ``pessimistic_keys`` and its kin."""
    return keys.replace(b"\xff", b"") if isinstance(keys, bytes) else keys


def induced_relation(universe: LotteryUniverse, keys: Iterable) -> PreferenceRelation:
    """Member i is at least as good as member j iff its utility is at least j's.

    ``keys`` holds one utility per member, in member order: anything
    hashable and totally ordered by ``<``, such as a public evaluator's
    value or an integer key.  Each distinct utility is one class, and one
    sort of the distinct utilities gives the table and its columns.
    ``keys`` may also be the byte per grid place that ``pessimistic_keys``
    and its kin give on scales of up to ``BYTE_KEY_LEVELS`` levels: then
    one translate numbers the classes by first place, which is the
    relation's grid layout, and ``class_of`` is that layout with the places
    that hold no member cut.
    """
    layout = None
    if isinstance(keys, bytes) and len(keys) == universe.grid_size:
        members = keys.translate(None, b"\xff")
        values = [*dict.fromkeys(members)]
        numbered = bytes.maketrans(bytes(values), _IDENTITY[:len(values)])
        layout, class_of = keys.translate(numbered), members.translate(numbered)
    else:
        class_of, values = _dense(keys)
    if len(class_of) != len(universe):
        raise ValueError("relation size does not match the universe")
    table, columns, below = [0] * len(values), [0] * len(values), 0
    full = (1 << len(values)) - 1
    # A class is at least as good as the classes up to it in ascending
    # order, and the rest are at least as good as it.
    for c in sorted(range(len(values)), key=values.__getitem__):
        below |= 1 << c
        table[c], columns[c] = below, full ^ below | 1 << c
    r = PreferenceRelation._of_classes(universe, class_of, table)
    r.columns = columns
    if layout is not None and len(values) <= 248:
        r.grid_layouts = [layout]
    return r


class AxiomReport(_Record):
    """Outcome of one axiom check; a witness is present iff it failed."""

    __slots__ = _fields = ("axiom", "satisfied", "witness", "detail")

    def __init__(
        self, axiom: str, satisfied: bool, witness: tuple | None = None, detail: str = ""
    ) -> None:
        if satisfied != (witness is None):
            raise ValueError("a report carries a witness iff it is violated")
        object.__setattr__(self, "axiom", axiom)
        object.__setattr__(self, "satisfied", satisfied)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "detail", detail)

    def named(self, axiom: str) -> AxiomReport:
        """This report under another axiom's name: that axiom's shared
        report (``HOLDS``) if it holds, else a new one with its witness."""
        if self.satisfied:
            return HOLDS[axiom]
        return AxiomReport(axiom, False, self.witness, self.detail)


CONTINUITY_VARIANTS = ("A4-", "A4+", "B4", "B4-", "B4+")
# One shared report per axiom a check or battery names: a check that holds
# returns its axiom's, so only a violation builds a report.
HOLDS = {axiom: AxiomReport(axiom, True)
         for axiom in ("B1", "A1-", "B3", "A3-", "B2", "A2-", "A2+", *CONTINUITY_VARIANTS)}


def check_total_preorder(r: PreferenceRelation) -> AxiomReport:
    """Reflexive, transitive and complete; first failure wins, in that order.

    Twins pass or fail together, so each property is decided on the class
    table.  Classes are numbered in order of their first member, so the
    first witness is read off the first members of the classes that fail.
    """
    table, first = r.table, r.first_members
    describe = r.universe.describe
    for a, row in enumerate(table):
        if not row >> a & 1:
            i = first[a]
            return AxiomReport(
                "B1", False, (i, i),
                f"reflexivity fails at {describe(i)}",
            )
    for a, row in enumerate(table):
        # A class b that a is at least as good as, whose row reaches past
        # a's, breaks transitivity.
        for b, other in enumerate(table):
            if row >> b & 1 and other & ~row:
                i, j, k = first[a], first[b], first[_lowest_bit(other & ~row)]
                return AxiomReport(
                    "B1", False, (i, j, k),
                    f"transitivity fails: {describe(i)} >= {describe(j)} >= "
                    f"{describe(k)} but not {describe(i)} >= {describe(k)}",
                )
    full = (1 << len(table)) - 1
    for a, (row, col) in enumerate(zip(table, r.columns)):
        # Classes unrelated to the first such class come after it, so
        # their first members pair with its first member.
        unrelated = full & ~(row | col)
        if unrelated:
            i, j = first[a], first[_lowest_bit(unrelated)]
            return AxiomReport(
                "B1", False, (i, j),
                f"completeness fails on {describe(i)} and {describe(j)}",
            )
    return HOLDS["B1"]


def check_uncertainty_attitude(r: PreferenceRelation, direction: str) -> AxiomReport:
    """Aversion: pointwise smaller must be weakly preferred.  Attraction: dual.

    Implication only, per the axiom statements; the biconditional lives in
    qualitative monotonicity.  Each place of the level grid gets the
    classes of the places at or above it (aversion) or at or below it
    (attraction), by shifts over the grid, and a member must be at least
    as good as each of them but its own class: a class not at least as
    good as itself has one member.  That is exact on any relation,
    transitive or not.  The first failing place is the first failing
    member i.
    """
    if direction not in ("aversion", "attraction"):
        raise ValueError(f"unknown direction {direction!r}")
    axiom_id, below, order = (
        ("A2-", operator.le, "big") if direction == "aversion" else ("A2+", operator.ge, "little")
    )
    universe = r.universe
    cls, table, layouts = r.class_of, r.table, r.grid_layouts
    full = (1 << len(table)) - 1
    # A class not at least as good as itself has one member.
    bads = [(full ^ 1 << a) & ~row for a, row in enumerate(table)]
    failing = 0
    # Eight classes at a time, a bit each in a byte per place.
    for g in range(0, len(table), 8):
        seen = int.from_bytes(layouts[g // 248].translate(_ONE_BITS[248 - g % 248:][:256]), order)
        for mask, by in universe.grid_moves:
            seen |= (seen & mask) << by
        for q, layout in enumerate(layouts):
            bad = bytes([b >> g & 255 for b in bads[248 * q:248 * q + 248]]).ljust(256, b"\0")
            failing |= seen & int.from_bytes(layout.translate(bad), order)
    if failing:
        failing = failing.to_bytes(len(layouts[0]), order)
        place, size = len(failing) - len(failing.lstrip(b"\0")), len(universe.scale)
        i = universe.base[place // size] + place % size
        bad, levels = full & ~table[cls[i]], universe.value_tuples
        j = next(j for j, other in enumerate(levels)
                 if j != i and bad >> cls[j] & 1 and all(map(below, levels[i], other)))
        return AxiomReport(
            axiom_id, False, (i, j),
            f"{direction} fails: {universe.describe(i)} must be weakly "
            f"preferred to {universe.describe(j)}",
        )
    return HOLDS[axiom_id]


def check_substitutability(r: PreferenceRelation) -> AxiomReport:
    """Mixing two indifferent lotteries with any third must stay indifferent.

    Complete over every normalized weight pair, indifferent pair and
    companion, never a sample; mixtures that coincide count as indifferent,
    and self-indifference is the total-preorder check's job.  So each
    mixture's member map must keep "equal or indifferent", and maps that
    keep it compose.  Every mixture is a chain of the universe's
    ``generators``, each a mixture too, so the axiom holds iff each
    generator keeps it.  Where "equal or indifferent" is an equivalence on
    one grid layout, the grid test (``_suspects``) finds the first
    generator that breaks it; otherwise every generator is tried.  The
    first that breaks it, in key order (point mass, then weights), gives
    the witness: its first broken pair (i, j), mixed with point mass k
    under weights (wa, wb).
    """
    universe = r.universe
    # A class not indifferent to itself has one member: equal images.
    closed = [row | 1 << a for a, row in enumerate(r.indifference)]
    # Each class is in its own set, so the sets are blocks iff they are
    # disjoint; blocks of one class each are classes indifferent to no other.
    blocks = set(closed)
    covered = sum(map(int.bit_count, blocks))
    suspects = universe.generators
    if len(r.grid_layouts) == 1 and covered == len(closed):
        suspects = _suspects(r, closed, blocks)
    for k, wa, wb in suspects:
        f = universe.generator_map(k, wa, wb)
        pair = _first_broken_pair(r, f, closed, covered == len(blocks))
        if pair is not None:
            i, j = pair
            describe, labels = universe.describe, universe.scale.levels
            return AxiomReport(
                "B3", False, (i, j, k, wa, wb, f[i], f[j]),
                f"substitutability fails: {describe(i)} ~ {describe(j)} "
                f"but weights ({labels[wa]}, {labels[wb]}) with {describe(k)} "
                f"mix to {describe(f[i])} vs {describe(f[j])}",
            )
    return HOLDS["B3"]


def _suspects(r: PreferenceRelation, closed: list[int], blocks: set[int]) -> list[tuple]:
    """The first generator, in key order, that breaks "equal or
    indifferent", if any, where it is an equivalence whose ``blocks`` are
    the distinct ``closed`` sets and r's classes fill one layout: the first
    whose moved rows (``_moves``) go to their image by no one map of
    blocks that also sends each block of the rows it keeps to itself.
    0xff marks the places that hold no member in the rows and the images
    alike; it is no block's number, and a generator sends members to
    members, so 0xff goes to itself and the test is exact.
    """
    layout = r.grid_layouts[0]
    if len(blocks) < len(closed):
        # Classes indifferent to others: each block is numbered by its first class.
        layout = layout.translate(bytes(map(closed.index, closed)).ljust(256, b"\xff"))
    for generator, (head, image, tail) in zip(r.universe.generators, _moves(r.universe, layout)):
        moved = bytes.maketrans(head, image)
        if head.translate(moved) != image or tail.translate(moved) != tail:
            return [generator]
    return []


def _moves(universe: LotteryUniverse, layout: bytes) -> Iterator[tuple]:
    """Per generator, in key order, the rows of ``layout`` it moves, their
    image, and the rows it keeps.  The layout is turned so that the
    generator's prize is outermost, a row per level of it.  A raise to v
    is itself after the raise to v - 1 (the raise to 0 moves nothing), and
    a cap is itself after the raise to the top.  So once the generators
    before it keep "equal or indifferent", a generator keeps it iff it
    keeps it on the rows the one before maps onto: a raise to v sends row
    v - 1 to row v, whose holes it shares below the top and is punched to
    at the top (``_capped``), and keeps the rows from v; a cap sends the
    top row, which holds no hole, to itself capped (``_capped``)."""
    caps, size = universe.grid_caps, len(universe.scale)
    level = len(layout) // size
    for _ in universe.outcomes.labels:
        *rows, row = parts = [layout[v * level:(v + 1) * level] for v in range(size)]
        *capped, punched = [_capped(row, cap, size, wa) for wa, cap in enumerate(caps, 1)]
        for v, image in enumerate([*rows[1:], punched], 1):
            yield rows[v - 1], image, layout[v * level:]
        for image in capped:
            yield row, image, b""
        # The outermost prize moves innermost: the next prize is outermost.
        layout = bytearray(len(layout))
        for v, part in enumerate(parts):
            layout[v::size] = part


def _capped(part: bytes, block: bytes, size: int, wa: int) -> bytes:
    """A slice over the grid of some prizes' levels with each level capped
    at wa < top, or at wa = top punched: 0xff at each place where no prize
    is at the top.  Slices per level of the outermost prize, down to the
    innermost prizes' blocks, each one translate through its position bytes
    ``block`` (``grid_caps``); a punched slice at the top level holds the
    top everywhere and is kept.  Under a prize of more levels than 255 the
    blocks are single places."""
    if len(part) == len(block):
        return block.translate(part.ljust(256, b"\xff"))
    sub, top = len(part) // size, size - 1
    head = b"".join(
        [_capped(part[v * sub:][:sub], block, size, wa) for v in range(min(wa + 1, top))]
    )
    return head + (head[-sub:] * (top - wa) if wa < top else part[-sub:])


def _first_broken_pair(r: PreferenceRelation, f: list, closed: list, alone: bool) -> tuple | None:
    """First (i, j), i < j, of members indifferent to each other whose
    images under f are neither equal nor indifferent; None if f keeps
    "equal or indifferent".  ``closed`` is each class with the classes
    indifferent to it, and ``alone`` says that none is indifferent to
    another class.

    Members sharing a class and an image class form a group, numbered in
    order of its first member.  Two groups break f iff their classes are
    indifferent and their image classes are neither equal nor indifferent.
    That is symmetric, so the first broken pair is the first members of the
    first group that breaks with a later one and of the first such later
    group.
    """
    cls, ind = r.class_of, r.indifference
    images = operator.itemgetter(*f)(cls)
    groups = list(dict.fromkeys(zip(cls, images)))
    # One group per class, and no class indifferent to another (as in a
    # total preorder): no two groups can break f.
    if alone and len(groups) == len(closed):
        return None
    for g, (a, c) in enumerate(groups):
        for b, d in groups[g + 1:]:
            if ind[a] >> b & 1 and not closed[c] >> d & 1:
                pairs = list(zip(cls, images))
                return pairs.index((a, c)), pairs.index((b, d))
    return None


def check_continuity(r: PreferenceRelation, variant: str) -> AxiomReport:
    """Existence of an indifferent standard lottery in the variant's target set.

    The scalar-style variants quantify over every lottery in the universe;
    the weakened ones only over the point masses of prizes.  Targets are
    the standard members (``universe.standard``) of every binary rank, of
    the best-possible half (ranks from top on, for A4-/B4-) or of the
    worst-possible half (ranks up to top, for A4+/B4+).  A source passes
    iff its class is indifferent to the class of some target.
    """
    if variant not in CONTINUITY_VARIANTS:
        raise ValueError(f"unknown continuity variant {variant!r}")
    universe, (below, above) = r.universe, r.standard_ranks
    top = len(universe.scale) - 1
    # The classes of the ranks from top on ("-"), up to top ("+"), or of every rank.
    target_classes = {"-": above[top - 1], "+": below[top]}.get(variant[-1], below[-1])
    # Twins pass or fail together: the first member of each class.
    sources = r.first_members if variant.startswith("A4") else universe.point_masses
    cls, ind = r.class_of, r.indifference
    for src in sources:
        if not ind[cls[src]] & target_classes:
            return AxiomReport(
                variant, False, (src,),
                f"continuity fails: no indifferent standard lottery for "
                f"{universe.describe(src)}",
            )
    return HOLDS[variant]


def check_qualitative_monotonicity(r: PreferenceRelation) -> AxiomReport:
    """On standard lotteries, preference must equal the three-case pair order.

    Both directions are checked: the biconditional, not just sufficiency.
    The pair order is the order of binary ranks, so the standard member of
    rank q (``universe.standard``) must be at least as good as exactly the
    standard members of rank q or below.  The witness is the first
    mismatched pair (ia, ib) in member order, ia outer.
    """
    universe, cls, table = r.universe, r.class_of, r.table
    # Member ia of rank q matches iff its class row holds the class of
    # every standard member up to rank q and of none above it.
    below, above = r.standard_ranks
    scan = universe.standard_scan
    for ia, q in scan:
        row = table[cls[ia]]
        if row & below[q] != below[q] or row & above[q]:
            ib = next(i for i, p in scan if (row >> cls[i] & 1) != (p <= q))
            direction = "holds but the pair order denies it" if row >> cls[ib] & 1 \
                else "fails but the pair order requires it"
            return AxiomReport(
                "B2", False, (ia, ib),
                f"qualitative monotonicity fails: {universe.describe(ia)} >= "
                f"{universe.describe(ib)} {direction}",
            )
    return HOLDS["B2"]
