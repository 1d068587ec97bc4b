"""Seeded inputs and the three benchmark workloads.

Every input is generated here from the workload seed; the program only
ever sees the generated scenario documents.  A workload builds its state
once (``__init__``, timed as set-up), then for each operation makes an
input (untimed), runs the operation through the program's public API
(timed) and checks the output (untimed).
"""

from __future__ import annotations

import json
import random
from functools import partial


def scale_labels(rng: random.Random, size: int) -> list[str]:
    """``size`` strictly increasing decimal labels from "0" to "1"."""
    inner = sorted(rng.sample(range(1, 100), size - 2))
    return ["0"] + [f".{v:02d}".rstrip("0") for v in inner] + ["1"]


def onto_map(rng: random.Random, n_source: int, n_target: int) -> list[int]:
    """A random order-preserving onto map with both anchors fixed."""
    steps = set(rng.sample(range(1, n_source), n_target - 1))
    images, level = [], 0
    for i in range(n_source):
        level += i in steps
        images.append(level)
    return images


def normalized(rng: random.Random, size: int, levels: list[str]) -> list[str]:
    values = [rng.randrange(len(levels)) for _ in range(size)]
    values[rng.randrange(size)] = len(levels) - 1
    return [levels[v] for v in values]


def scenario(
    rng: random.Random,
    v_labels: list[str],
    ranked: list[str],
    states: int = 0,
    decisions: int = 0,
    lotteries: int = 0,
    mixtures: int = 0,
) -> dict:
    """A valid scenario document over the prizes ``ranked`` (best first, worst last).

    The scalar config and the assessment induce the same preference
    classes, so the document passes every validator of ``parse_scenario``.
    Two-way mixtures ride along under a ``mixtures`` key the parser ignores.
    """
    top = len(v_labels) - 1
    u_labels = scale_labels(rng, rng.randint(2, len(v_labels)))
    u_top = len(u_labels) - 1
    n_classes = rng.randint(2, min(len(ranked), len(u_labels)))
    rank = {ranked[0]: 0, ranked[-1]: n_classes - 1}
    interior = ranked[1:-1]
    for c, prize in zip(range(1, n_classes - 1), interior):
        rank[prize] = c
    for prize in interior[n_classes - 2:]:
        rank[prize] = rng.randrange(n_classes)
    labels = sorted(ranked)
    classes = [[x for x in labels if rank[x] == c] for c in range(n_classes)]
    # Per class, best first: a utility index and a binary-scale rank.
    middle = n_classes - 2
    utility = [u_top] + sorted(rng.sample(range(1, u_top), middle), reverse=True) + [0]
    pair_rank = [2 * top] + sorted(rng.sample(range(1, 2 * top), middle), reverse=True) + [0]

    def pair(r: int) -> list[str]:
        return [v_labels[r], "1"] if r <= top else ["1", v_labels[2 * top - r]]

    h = onto_map(rng, len(v_labels), len(u_labels))
    doc: dict = {
        "scale_v": v_labels,
        "scale_u": u_labels,
        "outcomes": {
            "labels": labels, "best": ranked[0], "worst": ranked[-1],
            "preference": classes,
        },
        "assessment": {x: pair(pair_rank[rank[x]]) for x in labels},
        "pessimistic_config": {
            "u": {x: u_labels[utility[rank[x]]] for x in labels},
            "n": {u_labels[i]: u_labels[u_top - i] for i in range(u_top + 1)},
            "h": {v_labels[i]: u_labels[h[i]] for i in range(top + 1)},
        },
    }
    if states:
        state_names = [f"s{i}" for i in range(states)]
        doc["states"] = state_names
        doc["state_possibility"] = dict(zip(state_names, normalized(rng, states, v_labels)))
        doc["decisions"] = {
            f"d{i}": {s: rng.choice(labels) for s in state_names} for i in range(decisions)
        }
    lottery_names = [f"l{i}" for i in range(lotteries)]
    doc["lotteries"] = {
        name: dict(zip(labels, normalized(rng, len(labels), v_labels)))
        for name in lottery_names
    }
    doc["mixtures"] = []
    for i in range(mixtures):
        weights = ["1", rng.choice(v_labels)]
        rng.shuffle(weights)
        doc["mixtures"].append(
            {"name": f"m{i}", "of": rng.sample(lottery_names, 2), "weights": weights}
        )
    return doc


# -- independent reference for the scalar criteria --------------------------


def reference_vectors(doc: dict) -> dict[str, list[int]]:
    """Every ranked item's lottery as level indices, computed from the document alone."""
    v = {label: i for i, label in enumerate(doc["scale_v"])}
    labels = doc["outcomes"]["labels"]
    items = {
        name: [v[table[x]] for x in labels] for name, table in doc["lotteries"].items()
    }
    for m in doc["mixtures"]:
        (wa, wb), (a, b) = [v[w] for w in m["weights"]], m["of"]
        items[m["name"]] = [
            max(min(wa, x), min(wb, y)) for x, y in zip(items[a], items[b])
        ]
    possibility = doc.get("state_possibility", {})
    for name, table in doc.get("decisions", {}).items():
        vec = dict.fromkeys(labels, 0)
        for state, prize in table.items():
            vec[prize] = max(vec[prize], v[possibility[state]])
        items[name] = [vec[x] for x in labels]
    return items


def reference_scalar(doc: dict, vec: list[int]) -> tuple[int, int]:
    """(pessimistic, optimistic) utility indices of one lottery."""
    cfg = doc["pessimistic_config"]
    u = {label: i for i, label in enumerate(doc["scale_u"])}
    h = [u[cfg["h"][label]] for label in doc["scale_v"]]
    n = {u[a]: u[b] for a, b in cfg["n"].items()}
    prize = [u[cfg["u"][x]] for x in doc["outcomes"]["labels"]]
    pess = min(max(n[h[x]], p) for x, p in zip(vec, prize))
    opt = max(min(h[x], p) for x, p in zip(vec, prize))
    return pess, opt


def ranking_problems(ranking, names: set[str], key, what: str) -> list[str]:
    """Classes must partition ``names``; keys must tie inside a class and fall across."""
    seen = [x for cls in ranking.classes for x in cls]
    if sorted(seen) != sorted(names):
        return [f"{what}: classes do not partition the ranked items"]
    keys = [[key(x) for x in cls] for cls in ranking.classes]
    for cls_keys in keys:
        if len(set(cls_keys)) != 1:
            return [f"{what}: a class mixes different utilities"]
    for upper, lower in zip(keys, keys[1:]):
        if not upper[0] > lower[0]:
            return [f"{what}: classes are not strictly best-first"]
    return []


# -- workloads ---------------------------------------------------------------


class RankServe:
    """One ranking request per op: JSON text in, three rankings out."""

    name = "rank-serve"
    PERCENTILES = (50, 99)
    PRIZES, LEVELS, STATES, DECISIONS, LOTTERIES, MIXTURES = 8, 8, 12, 32, 16, 16

    def __init__(self, p, seed: int):
        self.p = p
        self.seed = seed

    def make_input(self, i: int) -> str:
        rng = random.Random(f"{self.name}/{self.seed}/{i}")
        prizes = [f"x{k}" for k in range(self.PRIZES)]
        rng.shuffle(prizes)
        doc = scenario(
            rng, scale_labels(rng, self.LEVELS), prizes, self.STATES,
            self.DECISIONS, self.LOTTERIES, self.MIXTURES,
        )
        return json.dumps(doc)

    def run(self, text: str):
        p = self.p
        doc = json.loads(text)
        sc = p.cli.parse_scenario(doc, source="request")
        items = list(sc.lotteries.items())
        for name, decision in sc.decisions.items():
            items.append(
                (name, p.lotteries.induced_distribution(sc.state_possibility, decision, sc.outcomes))
            )
        for m in doc["mixtures"]:
            components = [
                (sc.scale_v[w], sc.lotteries[name]) for w, name in zip(m["weights"], m["of"])
            ]
            items.append((m["name"], p.lotteries.mixture(components)))
        cfg = sc.pessimistic_config
        return sc, items, {
            "binary": p.utilities.rank_decisions(items, partial(p.utilities.binary_utility, a=sc.assessment)),
            "pessimistic": p.utilities.rank_decisions(items, partial(p.utilities.pessimistic_utility, cfg=cfg)),
            "optimistic": p.utilities.rank_decisions(items, partial(p.utilities.optimistic_utility, cfg=cfg)),
        }

    def check(self, text: str, out) -> list[str]:
        p = self.p
        sc, items, rankings = out
        doc = json.loads(text)
        dists = dict(items)
        names = set(dists)
        if len(names) != self.LOTTERIES + self.DECISIONS + self.MIXTURES:
            return ["request produced the wrong number of ranked items"]
        # Pair-valued criterion against the index-only reduction.
        top = len(sc.scale_v) - 1
        standard = {}
        for name, dist in items:
            s = p.utilities.reduce_to_standard(dist, sc.assessment)
            standard[name] = (s.best_weight.index, s.worst_weight.index)

        class PairKey(tuple):
            def __gt__(self, other):
                return p.scales.pair_ge_indices(*self, *other, top) and not (
                    p.scales.pair_ge_indices(*other, *self, top)
                )

        problems = ranking_problems(
            rankings["binary"], names, lambda x: PairKey(standard[x]), "binary"
        )
        for cls, value in zip(rankings["binary"].classes, rankings["binary"].utilities):
            if (value.first.index, value.second.index) != standard[cls[0]]:
                problems.append("binary: class utility differs from its standard lottery")
                break
        # Scalar criteria against a reference computed from the document alone.
        reference = {
            name: reference_scalar(doc, vec) for name, vec in reference_vectors(doc).items()
        }
        value_of = {}
        for crit, pos in (("pessimistic", 0), ("optimistic", 1)):
            ranking = rankings[crit]
            problems += ranking_problems(ranking, names, lambda x: reference[x][pos], crit)
            value_of[crit] = {
                x: v.index for cls, v in zip(ranking.classes, ranking.utilities) for x in cls
            }
            if any(value_of[crit].get(x) != reference[x][pos] for x in names):
                problems.append(f"{crit}: a utility differs from the reference")
        # Two-way mixtures against the decomposed pessimistic path.
        for m in doc["mixtures"]:
            (w1, w2), (a, b) = [sc.scale_v[w] for w in m["weights"]], m["of"]
            value = p.utilities.pessimistic_utility_decomposed(
                w1, dists[a], w2, dists[b], sc.pessimistic_config
            )
            if value.index != value_of["pessimistic"].get(m["name"]):
                problems.append(f"pessimistic: mixture {m['name']} differs from the decomposed value")
        return problems

    def counts(self, out) -> tuple[int, int]:
        return 0, 0


class Verify:
    """One ``verify_entailments`` call plus ``format_report`` per op.

    The scenario's V scale and its best and worst prizes are fixed for the
    run, so the universe is built once in set-up; the scalar config, the
    assessment and the sample seed are fresh for every op.
    """

    name: str
    PERCENTILES: tuple[int, ...]
    PRIZES: int
    LEVELS: int
    VERIFY_ARGS: dict
    # Configs and axiom checks per op, as the seed code produces them.
    EXPECTED: tuple[int, int]

    def __init__(self, p, seed: int):
        self.p = p
        self.seed = seed
        rng = random.Random(f"{self.name}/{seed}")
        self.v_labels = scale_labels(rng, self.LEVELS)
        self.ranked = [f"x{k}" for k in range(self.PRIZES)]
        rng.shuffle(self.ranked)
        sc = p.cli.parse_scenario(scenario(rng, self.v_labels, self.ranked), source="setup")
        self.universe = p.axioms.LotteryUniverse(sc.outcomes, sc.scale_v)

    def make_input(self, i: int):
        rng = random.Random(f"{self.name}/{self.seed}/{i}")
        sc = self.p.cli.parse_scenario(scenario(rng, self.v_labels, self.ranked), source="config")
        return sc.pessimistic_config, sc.assessment, rng.randrange(2**32)

    def run(self, inp):
        cfg, assessment, sample_seed = inp
        run = self.p.axioms.verify_entailments(
            self.universe, scalar_config=cfg, assessment=assessment,
            seed=sample_seed, **self.VERIFY_ARGS,
        )
        return run, self.p.axioms.format_report(run)

    def check(self, inp, out) -> list[str]:
        run, report = out
        problems = []
        if not run.ok():
            problems.append(f"unexpected outcomes: {run.unexpected()[:3]}")
        counts = self.counts(out)
        if counts != self.EXPECTED:
            problems.append(f"configs and checks {counts}, expected {self.EXPECTED}")
        if report.count("\n") != counts[1]:
            problems.append("report does not hold one line per check")
        return problems

    def counts(self, out) -> tuple[int, int]:
        """(configs, axiom checks) of one op."""
        configs = out[0].configs
        return len(configs), sum(len(c.reports) for c in configs)


class VerifySweep(Verify):
    """Scenario configs on 4 prizes x 4 levels, enumerated families, 100 samples."""

    name = "verify-sweep"
    PERCENTILES = (50,)
    PRIZES, LEVELS = 4, 4
    VERIFY_ARGS = {"sample_size": 100, "enumerate_max": (3, 3)}
    EXPECTED = (285, 2394)


class VerifyWide(Verify):
    """Scenario configs only, on one 369-lottery universe (4 prizes x 5 levels)."""

    name = "verify-wide"
    # Too few ops in a run for a percentile of their latency.
    PERCENTILES = ()
    PRIZES, LEVELS = 4, 5
    VERIFY_ARGS = {"sample_size": 0, "enumerate_max": (1, 1)}
    EXPECTED = (3, 26)


WORKLOADS = {w.name: w for w in (RankServe, VerifySweep, VerifyWide)}
