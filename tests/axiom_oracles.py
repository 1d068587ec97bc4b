"""Reference versions of the axiom checker's hot core, as plain loops.

These are matrix-scanning implementations of the checks that run on twin
classes, class tables and level-grid places.  They read the relation one
entry at a time through ``at_least`` and ``indifferent`` (the transitivity
witness alone takes a row), and the universe's value tuples through a
lookup of their own built from them, never the universe's grid
arithmetic, so they share no code with the class-table paths they are
compared against.  ``check_uncertainty_attitude_by_steps`` and
``check_substitutability_by_generators``, fast enough for universes of a
few thousand members, also group members by ``class_of``.

The configuration generators here label each prize through a dict and
build every configuration through its public constructor, one outcome
set per configuration; the sweep's generators build them from key tuples.

The standard lotteries are found here by their levels
(``standard_members``), never read from the universe.  No battery checks
the decomposition of the standard-lottery order into its two halves, so
that check lives here alone, on the plain pair scan.
"""

import itertools
import random

from posdec.axioms import canonical_outcomes, canonical_scale, enumerate_scale_maps
from posdec.checker import AxiomReport, PreferenceRelation
from posdec.lotteries import OutcomeSet, standard_lotteries
from posdec.scales import binary_rank
from posdec.utilities import BinaryUtilityAssessment, ScalarUtilityConfig


def rows_of(matrix):
    """Bitset rows of a boolean matrix: bit j of row i set iff ``matrix[i][j]``."""
    return [sum(1 << j for j, v in enumerate(row) if v) for row in matrix]


def matrix_of(r):
    """The relation as a boolean matrix, read entry by entry."""
    return [[r.at_least(i, j) for j in range(r.size)] for i in range(r.size)]


def induced_relation(universe, evaluate):
    """Member i is at least as good as member j iff its utility is at least j's."""
    values = [evaluate(m) for m in universe.members]
    holds = [[values[i] >= values[j] for j in range(len(values))] for i in range(len(values))]
    return PreferenceRelation(universe, rows_of(holds))


def check_total_preorder(r, axiom_id="B1"):
    n = r.size
    at_least = r.at_least
    for i in range(n):
        if not at_least(i, i):
            return AxiomReport(
                axiom_id, False, (i, i),
                f"reflexivity fails at {r.universe.describe(i)}",
            )
    rows = r.rows
    for i in range(n):
        row_i = rows[i]
        for j in range(n):
            if at_least(i, j):
                extra = rows[j] & ~row_i
                if extra:
                    k = (extra & -extra).bit_length() - 1
                    return AxiomReport(
                        axiom_id, False, (i, j, k),
                        f"transitivity fails: {r.universe.describe(i)} >= "
                        f"{r.universe.describe(j)} >= {r.universe.describe(k)} "
                        f"but not {r.universe.describe(i)} >= {r.universe.describe(k)}",
                    )
    for i in range(n):
        for j in range(i + 1, n):
            if not at_least(i, j) and not at_least(j, i):
                return AxiomReport(
                    axiom_id, False, (i, j),
                    f"completeness fails on {r.universe.describe(i)} and "
                    f"{r.universe.describe(j)}",
                )
    return AxiomReport(axiom_id, True)


def check_uncertainty_attitude(r, direction):
    axiom_id = "A2-" if direction == "aversion" else "A2+"
    vt = r.universe.value_tuples
    n = r.size
    for i in range(n):
        a = vt[i]
        for j in range(n):
            if i == j:
                continue
            b = vt[j]
            if direction == "aversion":
                premise = all(x <= y for x, y in zip(a, b))
            else:
                premise = all(x >= y for x, y in zip(a, b))
            if premise and not r.at_least(i, j):
                return AxiomReport(
                    axiom_id, False, (i, j),
                    f"{direction} fails: {r.universe.describe(i)} must be weakly "
                    f"preferred to {r.universe.describe(j)}",
                )
    return AxiomReport(axiom_id, True)


def check_substitutability(r, axiom_id="B3"):
    """First witness over point masses k (label order), then the generator
    weights (wa, wb), then indifferent pair (i, j) with i < j.

    If no mixture with a point mass breaks indifference, every normalized
    weight pair and every companion is scanned, and any witness found is
    returned, so a checker that misses a violation still disagrees.
    """
    universe = r.universe
    vt = universe.value_tuples
    index_of = {t: i for i, t in enumerate(vt)}
    n = r.size
    top = len(universe.scale) - 1

    def mix(w1, t1, w2, t2):
        out = []
        for x, y in zip(t1, t2):
            a = x if x < w1 else w1
            b = y if y < w2 else w2
            out.append(a if a >= b else b)
        return index_of[tuple(out)]

    indifferent = [[r.indifferent(i, j) for j in range(n)] for i in range(n)]
    later = [[j for j in range(i + 1, n) if indifferent[i][j]] for i in range(n)]
    point_masses = [
        index_of[tuple(top if p == q else 0 for q in range(len(vt[0])))]
        for p in range(len(vt[0]))
    ]
    generator_weights = [(top, v) for v in range(1, top + 1)] + [(wa, top) for wa in range(top)]
    weight_pairs = [
        (s.best_weight.index, s.worst_weight.index) for s in standard_lotteries(universe.scale)
    ]
    mixtures = [(k, wa, wb) for k in point_masses for wa, wb in generator_weights]
    mixtures += [(k, wa, wb) for wa, wb in weight_pairs for k in range(n)]
    seen = set()
    for k, wa, wb in mixtures:
        tk = vt[k]
        mixed = tuple(mix(wa, ti, wb, tk) for ti in vt)
        # An earlier mixture that maps the members the same way came first.
        if mixed in seen:
            continue
        seen.add(mixed)
        for i, js in enumerate(later):
            m1 = mixed[i]
            for j in js:
                m2 = mixed[j]
                if m1 != m2 and not indifferent[m1][m2]:
                    return _substitution_violation(r, axiom_id, i, j, k, wa, wb, mix)
    return AxiomReport(axiom_id, True)


def _substitution_violation(r, axiom_id, i, j, k, wa, wb, mix):
    universe = r.universe
    vt = universe.value_tuples
    m1 = mix(wa, vt[i], wb, vt[k])
    m2 = mix(wa, vt[j], wb, vt[k])
    labels = universe.scale.levels
    return AxiomReport(
        axiom_id, False, (i, j, k, wa, wb, m1, m2),
        f"substitutability fails: {universe.describe(i)} ~ {universe.describe(j)} "
        f"but weights ({labels[wa]}, {labels[wb]}) with {universe.describe(k)} "
        f"mix to {universe.describe(m1)} vs {universe.describe(m2)}",
    )


def check_uncertainty_attitude_by_steps(r, direction):
    """``check_uncertainty_attitude``'s report, from one-level steps.

    Each member collects the classes of the members one level above it at
    some prize (aversion; below, attraction) and of everything they
    collect: chains of such steps through members reach every member
    pointwise beyond.  The first member with a collected class it is not
    at least as good as fails, against the first such member beyond it.
    """
    universe = r.universe
    vt = universe.value_tuples
    index_of = {t: i for i, t in enumerate(vt)}
    n, cls = r.size, r.class_of
    first = {c: i for i, c in reversed(list(enumerate(cls)))}
    rows = {}
    step, order = (1, range(n - 1, -1, -1)) if direction == "aversion" else (-1, range(n))
    beyond = [0] * n
    for i in order:
        for p in range(len(vt[i])):
            j = index_of.get(vt[i][:p] + (vt[i][p] + step,) + vt[i][p + 1:])
            if j is not None:
                beyond[i] |= beyond[j] | 1 << cls[j]
    for i in range(n):
        if cls[i] not in rows:
            rows[cls[i]] = sum(1 << b for b in first if r.at_least(i, first[b]))
        bad = beyond[i] & ~rows[cls[i]]
        if bad:
            for j in range(n):
                pairs = zip(vt[i], vt[j]) if direction == "aversion" else zip(vt[j], vt[i])
                if j != i and bad >> cls[j] & 1 and all(x <= y for x, y in pairs):
                    return _attitude_violation(r, direction, i, j)
    return AxiomReport("A2-" if direction == "aversion" else "A2+", True)


def _attitude_violation(r, direction, i, j):
    return AxiomReport(
        "A2-" if direction == "aversion" else "A2+", False, (i, j),
        f"{direction} fails: {r.universe.describe(i)} must be weakly "
        f"preferred to {r.universe.describe(j)}",
    )


def check_substitutability_by_generators(r, axiom_id="B3"):
    """``check_substitutability``'s report, from the mixtures with a point
    mass alone, in key order (point mass, then weights (top, v), then
    (wa, top)): the first whose member map breaks "equal or indifferent"
    names the witness by its first broken pair (i, j), i < j.

    A map that sends each class into one class, and indifferent classes
    into equal or indifferent ones, keeps it; any other is scanned pair by
    pair, each member against the later members of classes indifferent
    to its own.
    """
    universe = r.universe
    vt = universe.value_tuples
    index_of = {t: i for i, t in enumerate(vt)}
    n, cls, top = r.size, r.class_of, len(universe.scale) - 1
    first = {c: i for i, c in reversed(list(enumerate(cls)))}
    members = {c: [i for i in range(n) if cls[i] == c] for c in first}
    near = {a: [b for b in first if r.indifferent(first[a], first[b])] for a in first}

    def equal_or_indifferent(i, j):
        return i == j or r.indifferent(i, j)

    weights = [(top, v) for v in range(1, top + 1)] + [(wa, top) for wa in range(1, top)]
    for p in range(len(vt[0])):
        k = index_of[tuple(top if q == p else 0 for q in range(len(vt[0])))]
        for wa, wb in weights:
            mixed = [
                index_of[tuple(max(min(x, wa), min(y, wb)) for x, y in zip(t, vt[k]))]
                for t in vt
            ]
            image = {}
            if all(image.setdefault(cls[i], mixed[i]) == mixed[i]
                   or cls[image[cls[i]]] == cls[mixed[i]] for i in range(n)) and all(
                equal_or_indifferent(image[a], image[b]) for a in near for b in near[a]
            ):
                continue
            for i in range(n):
                for j in sorted(j for b in near[cls[i]] for j in members[b] if j > i):
                    if not equal_or_indifferent(mixed[i], mixed[j]):
                        return _substitution_violation(
                            r, axiom_id, i, j, k, wa, wb,
                            lambda w1, t1, w2, t2: index_of[
                                tuple(max(min(x, w1), min(y, w2)) for x, y in zip(t1, t2))
                            ],
                        )
    return AxiomReport(axiom_id, True)


def standard_members(universe):
    """(member, best weight, worst weight) of each standard lottery, in
    member order: the members at level 0 on every prize but the best and
    the worst, with one of those two at the top."""
    labels, top = universe.outcomes.labels, len(universe.scale) - 1
    best, worst = labels.index(universe.outcomes.best), labels.index(universe.outcomes.worst)
    return [
        (i, t[best], t[worst]) for i, t in enumerate(universe.value_tuples)
        if top in (t[best], t[worst])
        and not any(v for p, v in enumerate(t) if p not in (best, worst))
    ]


def _first_standard_mismatch(r, expected):
    """First standard pair (ia, ib), ia outer, whose entry is not ``expected``'s."""
    std, top = standard_members(r.universe), len(r.universe.scale) - 1
    for ia, la, ma in std:
        for ib, lb, mb in std:
            if r.at_least(ia, ib) != expected(la, ma, lb, mb, top):
                return ia, ib
    return None


def check_qualitative_monotonicity(r):
    """Every standard pair against the three-case pair order."""

    def pair_order(la, ma, lb, mb, top):
        return (
            (ma == top and mb == top and la >= lb)
            or (la == top and lb < top)
            or (la == top and lb == top and ma <= mb)
        )

    bad = _first_standard_mismatch(r, pair_order)
    if bad is None:
        return AxiomReport("B2", True)
    ia, ib = bad
    describe = r.universe.describe
    direction = "holds but the pair order denies it" if r.at_least(ia, ib) \
        else "fails but the pair order requires it"
    return AxiomReport(
        "B2", False, bad,
        f"qualitative monotonicity fails: {describe(ia)} >= {describe(ib)} {direction}",
    )


def standard_decomposition(la, ma, lb, mb, top):
    """The three-part union: the worst-weight order on the best-possible
    half, the best-weight order on the worst-possible half, and every pair
    from the best-possible half to the worst-possible one."""
    best_half = la == top and lb == top and ma <= mb
    worst_half = ma == top and mb == top and la >= lb
    return best_half or worst_half or (la == top and mb == top)


def check_standard_order_decomposition(r):
    """Every standard pair against the three-part union
    (``standard_decomposition``), one pair at a time."""
    bad = _first_standard_mismatch(r, standard_decomposition)
    if bad is None:
        return AxiomReport("B2-decomposition", True)
    ia, ib = bad
    describe = r.universe.describe
    return AxiomReport(
        "B2-decomposition", False, bad,
        f"decomposition fails on {describe(ia)} vs {describe(ib)}",
    )


def check_continuity(r, variant):
    """Each source in order, the members (A4) or the point masses in label
    order (B4), against the standard members of the variant's targets:
    those at the top best weight (A4-/B4-), at the top worst weight
    (A4+/B4+) or all (B4).  The first source indifferent to none fails."""
    universe = r.universe
    top, prizes = len(universe.scale) - 1, len(universe.outcomes.labels)
    index_of = {t: i for i, t in enumerate(universe.value_tuples)}
    if variant.startswith("A4"):
        sources = range(r.size)
    else:
        sources = [index_of[tuple(top if q == p else 0 for q in range(prizes))]
                   for p in range(prizes)]
    targets = [
        i for i, l, m in standard_members(universe)
        if not variant.endswith("-") or l == top
        if not variant.endswith("+") or m == top
    ]
    for src in sources:
        if not any(r.indifferent(src, t) for t in targets):
            return AxiomReport(
                variant, False, (src,),
                f"continuity fails: no indifferent standard lottery for "
                f"{universe.describe(src)}",
            )
    return AxiomReport(variant, True)


def search_pair_counterexample_witness(pess, opt, pairs):
    """(witness, pairs checked) of the pairwise scan over all member pairs."""
    checked = 0
    n = len(pess)
    for i in range(n):
        for j in range(i + 1, n):
            checked += 1
            if pess[i] == pess[j] and opt[i] == opt[j] and pairs[i] != pairs[j]:
                return (i, j), checked
    return None, checked


def outcomes_with_ranks(base, rank_key):
    """The outcome set whose preference classes follow ``rank_key`` (label
    -> key, larger better)."""
    classes = tuple(
        tuple(label for label in base.labels if rank_key[label] == key)
        for key in sorted(set(rank_key.values()), reverse=True)
    )
    return OutcomeSet(base.labels, base.best, base.worst, classes)


def scalar_config(outcomes, h, rank_key):
    """The configuration whose prize utilities are the rank keys on h's target."""
    return ScalarUtilityConfig.from_indices(outcomes_with_ranks(outcomes, rank_key), h, rank_key)


def enumerate_scalar_configs(outcomes, scale):
    """Per utility-scale size, onto map and interior assignment, in that order."""
    configs = []
    interior = [x for x in outcomes.labels if x not in (outcomes.best, outcomes.worst)]
    for u_size in range(2, len(scale) + 1):
        for h in enumerate_scale_maps(scale, canonical_scale(u_size, name="U")):
            for combo in itertools.product(range(u_size), repeat=len(interior)):
                rank_key = {outcomes.best: u_size - 1, outcomes.worst: 0}
                rank_key.update(zip(interior, combo))
                configs.append(scalar_config(outcomes, h, rank_key))
    return configs


def sample_scalar_configs(seed, count, max_outcomes=3, max_levels=4):
    """The seeded draws, one (outcomes, scale, configuration) per draw."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        nx = rng.randint(2, max_outcomes)
        nv = rng.randint(2, max_levels)
        nu = rng.randint(2, nv)
        base, v_scale = canonical_outcomes(nx), canonical_scale(nv)
        h = rng.choice(enumerate_scale_maps(v_scale, canonical_scale(nu, name="U")))
        rank_key = {base.best: nu - 1, base.worst: 0}
        for label in base.labels:
            if label not in (base.best, base.worst):
                rank_key[label] = rng.randrange(nu)
        out.append((base, v_scale, scalar_config(base, h, rank_key)))
    return out


def enumerate_assessments(outcomes, scale, half=None):
    """Anchored assessments with the interior prizes over the whole binary
    scale, or every prize inside one half, best prize highest."""
    values = scale.binary_values
    interior = [x for x in outcomes.labels if x not in (outcomes.best, outcomes.worst)]
    tables = []
    if half is None:
        for combo in itertools.product(values, repeat=len(interior)):
            table = {outcomes.best: values[-1], outcomes.worst: values[0]}
            table.update(zip(interior, combo))
            tables.append(table)
    else:
        pool = values[scale.top_index:] if half == "best" else values[:scale.top_index + 1]
        labels = [outcomes.best, *interior, outcomes.worst]
        for combo in itertools.combinations_with_replacement(pool, len(labels)):
            tables.append(dict(zip(labels, reversed(combo))))
    result = []
    for table in tables:
        rank_key = {label: binary_rank(table[label]) for label in outcomes.labels}
        result.append(BinaryUtilityAssessment.from_mapping(
            outcomes_with_ranks(outcomes, rank_key), scale, table, require_anchors=half is None
        ))
    return result
