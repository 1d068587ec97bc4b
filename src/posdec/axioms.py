"""Configuration families and entailment sweeps over the axiom checker
(``posdec.checker``).

A1-/B1 and A3-/B3 name the same predicates: each check names its report
by the B axiom, and a battery evaluates it once per relation and relabels
the report for the A axiom.
An entailment sweep checks each enumerated or seeded-sampled
configuration against its family in ``FAMILIES`` (the battery is the key
order of its expectations), one report line per axiom per configuration.
It checks the caller's configuration and assessment against their
universe once, before any relation.  The enumerated and sampled families
come from draw streams, the image tables and integer keys the public
generators build their configurations from, in their order; the sweep
builds no configuration from them, only its per-prize term tables, once
per distinct draw.  The public generators build each configuration's
outcome set and scale map from its draw.  Draws are valid by
construction: images are anchored, monotone and onto, keys put the best
prize at the top and the worst at 0, and an outcome set's classes would
come from the keys.  Reports are reused by (family, universe, term
tables and the map the scalar keys are read through).  A relation is the
term tables max-folded over the full grid of level tuples as bytes, one
translate per level per prize, and each check runs once per distinct
relation.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterable
from functools import cache

from .checker import (
    AxiomReport,
    LotteryUniverse,
    PreferenceRelation,
    _keys,
    check_continuity,
    check_qualitative_monotonicity,
    check_substitutability,
    check_total_preorder,
    check_uncertainty_attitude,
    induced_relation,
)
from .lotteries import OutcomeSet, check_enumerable
from .scales import Scale, ScaleMap, _Record
from .utilities import BinaryUtilityAssessment, ScalarUtilityConfig, check_domain
from .utilities import binary_term_tables, scalar_term_tables


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


def _ranked(base: OutcomeSet, keys: tuple[int, ...]) -> OutcomeSet:
    """The outcome set whose classes follow the keys, one per label in
    label order, larger keys better: the best prize must carry the largest
    key and the worst the smallest, and the generators arrange that."""
    return OutcomeSet(base.labels, base.best, base.worst, tuple(
        tuple(label for label, k in zip(base.labels, keys) if k == key)
        for key in sorted(set(keys), reverse=True)
    ))


def _scalar(base: OutcomeSet, source: Scale, images: tuple, keys: tuple) -> ScalarUtilityConfig:
    """The configuration of a scalar draw over ``base`` and ``source``."""
    scale_map = ScaleMap(source, canonical_scale(images[-1] + 1, name="U"), images)
    return ScalarUtilityConfig(_ranked(base, keys), scale_map, keys)


def _anchored(outcomes: OutcomeSet, top: int) -> Iterable[tuple[int, ...]]:
    """Every key tuple, one key per label in label order, with the best
    prize at ``top``, the worst at 0 and each other prize anywhere from 0
    to ``top``: the other prizes' keys in lexicographic order."""
    ends = {outcomes.best: (top,), outcomes.worst: (0,)}
    return itertools.product(*[ends.get(x, range(top + 1)) for x in outcomes.labels])


def _onto_images(n: int, m: int) -> Iterable[tuple[int, ...]]:
    """The image table of every order-preserving map from n levels onto m,
    with the 0/1 anchors fixed, in lexicographic order."""
    return (
        (0, *mid, m - 1) for mid in itertools.combinations_with_replacement(range(m), n - 2)
        if len({0, *mid, m - 1}) == m
    )


def enumerate_scale_maps(source: Scale, target: Scale) -> list[ScaleMap]:
    """All order-preserving onto maps with the 0/1 anchors fixed."""
    return [ScaleMap(source, target, images) for images in _onto_images(len(source), len(target))]


def _scalar_draws(outcomes: OutcomeSet, size: int) -> Iterable[tuple]:
    """(images, keys) per scalar configuration over ``size`` uncertainty
    levels: per utility-scale size, per onto map, per anchored prize
    assignment."""
    for u_size in range(2, size + 1):
        yield from itertools.product(_onto_images(size, u_size), _anchored(outcomes, u_size - 1))


def enumerate_scalar_configs(
    outcomes: OutcomeSet, scale: Scale
) -> list[ScalarUtilityConfig]:
    """Every valid scalar configuration over canonical utility scales.

    Ranges over utility-scale sizes up to the uncertainty scale, every
    valid onto map, and every anchored prize assignment.  Each utility
    scale has one order-reversing involution, so there is none to range over.
    """
    return [_scalar(outcomes, scale, *draw) for draw in _scalar_draws(outcomes, len(scale))]


def _sample_draws(seed: int, count: int, max_outcomes: int, max_levels: int) -> Iterable[tuple]:
    """(images, keys) per sampled scalar configuration, as ``_scalar_draws``
    yields them, all drawn from one generator seeded with ``seed``: images
    over the sampled levels, keys over the sampled prizes."""
    # Imported here, so a process that draws no sample never loads it.
    import random

    rng = random.Random(seed)
    # A size with no canonical scale is rejected before its maps are listed.
    onto = cache(lambda nv, nu: list(_onto_images(len(canonical_scale(nv)), nu)))
    for _ in range(count):
        nx = rng.randint(2, max_outcomes)
        nv = rng.randint(2, max_levels)
        nu = rng.randint(2, nv)
        images = rng.choice(onto(nv, nu))
        # Canonical labels run from the best prize to the worst.
        yield images, (nu - 1, *[rng.randrange(nu) for _ in range(nx - 2)], 0)


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
    sample = []
    for images, keys in _sample_draws(seed, count, max_outcomes, max_levels):
        base, v_scale = canonical_outcomes(len(keys)), canonical_scale(len(images))
        sample.append((base, v_scale, _scalar(base, v_scale, images, keys)))
    return sample


def _assessment_draws(outcomes: OutcomeSet, top: int, half: str | None) -> Iterable[tuple]:
    """(keys, index pairs) per assessment over a scale whose top index is
    ``top``: each prize's ``binary_rank`` key and the pair it reads back as."""
    pairs = [(v, top) for v in range(top)] + [(top, v) for v in range(top, -1, -1)]
    if half is None:
        keyed = _anchored(outcomes, 2 * top)
    else:
        if half == "best":
            pool = range(top, 2 * top + 1)
        elif half == "worst":
            pool = range(top + 1)
        else:
            raise ValueError(f"unknown half {half!r}")
        # pool is ascending, so each multiset comes out ascending: reversed,
        # it runs from the best prize through the interior ones to the worst.
        ends = (outcomes.best, outcomes.worst)
        order = [outcomes.best, *(x for x in outcomes.labels if x not in ends), outcomes.worst]
        at = operator.itemgetter(*[len(order) - 1 - order.index(x) for x in outcomes.labels])
        keyed = map(at, itertools.combinations_with_replacement(pool, len(order)))
    return ((keys, tuple(map(pairs.__getitem__, keys))) for keys in keyed)


def enumerate_assessments(
    outcomes: OutcomeSet, scale: Scale, half: str | None = None
) -> list[BinaryUtilityAssessment]:
    """Every consistent assessment over the given space.

    With ``half=None`` the anchors are fixed at <1,0> and <0,1> and interior
    prizes range over the whole binary scale.  With ``half="best"`` or
    ``half="worst"`` every prize is encoded inside that half of the scale
    (anchors relaxed), best prize highest and worst prize lowest.  Prizes
    range over ``binary_rank`` keys, each read back as its index pair.
    """
    return [
        BinaryUtilityAssessment(_ranked(outcomes, keys), scale, pairs, half is None)
        for keys, pairs in _assessment_draws(outcomes, scale.top_index, half)
    ]


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


class ConfigOutcome(_Record, frozen=False):
    """All axiom reports for one configuration of a family in ``FAMILIES``."""

    __slots__ = _fields = ("config_id", "family", "reports")

    def __init__(self, config_id: str, family: str, reports: list[AxiomReport]) -> None:
        self.config_id, self.family, self.reports = config_id, family, reports

    @property
    def expectations(self) -> dict[str, str]:
        return FAMILIES[self.family]

    def unexpected(self) -> list[str]:
        """Axioms expected satisfied or violated whose report says otherwise."""
        want = {"satisfied": True, "violated": False}
        return [r.axiom for r in self.reports
                if want.get(self.expectations.get(r.axiom), r.satisfied) != r.satisfied]


class EntailmentRun(_Record, frozen=False):
    """The full outcome of an entailment sweep; by default, a fresh empty one."""

    __slots__ = _fields = ("configs",)

    def __init__(self, configs: list[ConfigOutcome] | None = None) -> None:
        self.configs = [] if configs is None else configs

    def unexpected(self) -> list[tuple[str, str]]:
        return [
            (c.config_id, axiom) for c in self.configs for axiom in c.unexpected()
        ]

    def anomaly_exhibited(self) -> bool:
        """Some mixed assessment must violate both attitude axioms."""
        return any(
            c.family == "binary" and {"A2-", "A2+"} <= {r.axiom for r in c.reports if not r.satisfied}
            for c in self.configs
        )

    def ok(self) -> bool:
        return not self.unexpected() and self.anomaly_exhibited()


# The check behind each axiom.  Entries look their check up by module name at
# call time, so a wrapper set on the module attribute sees every check a sweep
# runs.
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
# B1 and B3 restate A1- and A3-: one evaluation per relation serves both.  A
# check names its report by the B axiom; the battery relabels it (no witness
# or detail names the axiom).
_CHECKS["B1"], _CHECKS["B3"] = _CHECKS["A1-"], _CHECKS["A3-"]
_TWIN = {"A1-": "B1", "B1": "A1-", "A3-": "B3", "B3": "A3-"}


def _run_battery(r: PreferenceRelation, battery: Iterable[str], done=None) -> list[AxiomReport]:
    """r's reports in battery order; ``done`` (axiom -> report) gains the new
    ones, a twin's report renamed for the axiom (``AxiomReport.named``)."""
    done = {} if done is None else done
    for axiom in battery:
        if axiom not in done:
            report = done.get(_TWIN.get(axiom)) or _CHECKS[axiom](r)
            if report.axiom != axiom:
                report = report.named(axiom)
            done[axiom] = report
    return [done[axiom] for axiom in battery]


def _content(r: PreferenceRelation) -> tuple:
    """The relation's classes and table, as a memo key: class ids as bytes
    where they fit one, as on every swept space."""
    return bytes(r.class_of) if len(r.table) <= 256 else tuple(r.class_of), tuple(r.table)


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
    the failure path end to end.  Within the call, never across calls, a
    (family, universe, term tables) or relation met again reuses its
    reports; a faulted relation's are never stored.  An ``enumerate_max``
    part below 2 means no enumeration.  A space to enumerate or sample
    over the enumeration limit is rejected before any work, and a caller's
    configuration that does not fit its universe before any relation.
    """
    for given, what in ((scalar_config, "config"), (assessment, "assessment")):
        if given is not None and universe is None:
            raise ValueError(f"a universe is required to check the scenario {what}")
    max_x, max_v = enumerate_max
    if sample_size < 0:
        raise ValueError(f"sample_size={sample_size} must be at least 0")
    if sample_max_outcomes < 2:
        raise ValueError(f"sample_max_outcomes={sample_max_outcomes} must be at least 2")
    if sample_max_levels not in SCALE_LABEL_PRESETS:
        raise ValueError(f"sample_max_levels={sample_max_levels}: no canonical scale")
    if min(enumerate_max) > 1:
        if max_v not in SCALE_LABEL_PRESETS:
            raise ValueError(f"enumerate_max={enumerate_max}: no canonical scale of size {max_v}")
        check_enumerable(f"enumerate_max={enumerate_max}", max_x, max_v)
    if sample_size > 0:
        check_enumerable("sampled spaces", sample_max_outcomes, sample_max_levels)

    if scalar_config is not None:
        scale = scalar_config.uncertainty_scale
        check_domain(universe.outcomes, universe.scale, scalar_config.outcomes, scale)
    if assessment is not None:
        check_domain(universe.outcomes, universe.scale, assessment.outcomes, assessment.scale)

    @cache
    def universe_for(nx: int, nv: int) -> LotteryUniverse:
        return LotteryUniverse(canonical_outcomes(nx), canonical_scale(nv))

    # Every member of a universe shares its domain and scale, so one check per
    # universe stands for the public evaluators' check per member.  Drawn
    # configurations fit their canonical universe by construction, and equal
    # draws share tables.  Reports are reused by family, universe and the
    # arguments of the ``_keys`` fold: the term tables, and for the scalar
    # families the map their fold is read through.
    scalar_tables = cache(scalar_term_tables)

    def scalar(tag: str, uni: LotteryUniverse, draw: tuple):
        reversed_map, pessimistic, optimistic = scalar_tables(*draw)
        yield f"pess-{tag}", "pessimistic", uni, (pessimistic, (), reversed_map)
        yield f"opt-{tag}", "optimistic", uni, (optimistic, (), draw[0])

    def configs():
        """(config id, family, universe, ``_keys`` arguments), in report order."""
        if scalar_config is not None:
            yield "scenario-pessimistic", "pessimistic", universe, (
                scalar_config.pessimistic_terms, (), scalar_config.reversed_map
            )
            yield "scenario-optimistic", "optimistic", universe, (
                scalar_config.optimistic_terms, (), scalar_config.scale_map.images
            )
        if assessment is not None:
            tables = assessment.first_terms, assessment.second_terms
            yield "scenario-binary", "binary", universe, tables
        for nx, nv in itertools.product(range(2, max_x + 1), range(2, max_v + 1)):
            uni = universe_for(nx, nv)
            for i, draw in enumerate(_scalar_draws(uni.outcomes, nv)):
                yield from scalar(f"enum-{nx}x{nv}-{i:03d}", uni, draw)
            for prefix, family, half in (
                ("binary-enum", "binary", None),
                ("binary-best-half", "binary-best-half", "best"),
                ("binary-worst-half", "binary-worst-half", "worst"),
            ):
                for i, (_, pairs) in enumerate(_assessment_draws(uni.outcomes, nv - 1, half)):
                    tables = binary_term_tables(pairs, nv - 1)
                    yield f"{prefix}-{nx}x{nv}-{i:03d}", family, uni, tables
        # An empty draw stream would still seed its generator when read.
        if not sample_size:
            return
        drawn = _sample_draws(seed, sample_size, sample_max_outcomes, sample_max_levels)
        for i, draw in enumerate(drawn):
            yield from scalar(f"sample-{i:03d}", universe_for(len(draw[1]), len(draw[0])), draw)

    verdicts: dict[tuple, list[AxiomReport]] = {}
    checked: dict[tuple, dict[str, AxiomReport]] = {}
    run = EntailmentRun()
    for config_id, family, uni, tables in configs():
        key = family, uni, tables
        reports = verdicts.get(key)
        if reports is None:
            r = induced_relation(uni, _keys(uni, *tables))
            if fault is None:
                done = checked.setdefault((uni, *_content(r)), {})
                reports = verdicts[key] = _run_battery(r, FAMILIES[family], done)
            else:
                reports = _run_battery(r.with_flipped(*fault), FAMILIES[family])
                fault = None
        run.configs.append(ConfigOutcome(config_id, family, list(reports)))
    return run


def format_report(run: EntailmentRun) -> str:
    """One record per axiom per configuration, tab separated, each ending in
    a newline, so a run with no configurations has an empty report; each
    run of reports a family shares is formatted once."""
    chunks, tails = [], {}
    for config in run.configs:
        key = config.family, *map(id, config.reports)
        if key not in tails:
            want = FAMILIES[config.family]
            tails[key] = [
                f"{r.axiom}\t{'satisfied' if r.satisfied else 'violated'}\t"
                f"expected={want.get(r.axiom, 'informational')}\t{r.detail or '-'}"
                for r in config.reports
            ]
        chunks.append(f"{config.config_id}\t" + f"\n{config.config_id}\t".join(tails[key]))
    return "\n".join(chunks) + "\n" if chunks else ""
