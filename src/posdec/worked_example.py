"""Bundled worked-example data, and the transcript ``posdec paper-example``
prints from it.

One scenario with four ranked prizes, a four-level uncertainty scale, two
named lotteries, a scalar configuration and a pair-valued assessment.
The transcript additionally uses ENCODED_ASSESSMENT, which writes
every prize as its equivalent best/worst lottery (all weights on the
best-fully-possible half), so each table row shows the prize's own
standard-lottery weight pair.
"""

from .cli import parse_scenario
from .scales import ext_min, level_max
from .utilities import BinaryUtilityAssessment, binary_utility, pessimistic_utility

SCENARIO = {
    "scale_v": ["0", ".5", ".7", "1"],
    "scale_u": ["0", ".3", ".5", "1"],
    "outcomes": {
        "labels": ["x1", "x2", "x3", "x4"],
        "best": "x1",
        "worst": "x4",
        "preference": [["x1"], ["x2"], ["x3"], ["x4"]],
    },
    "lotteries": {
        "pi1": {"x1": ".7", "x2": "1", "x3": ".5", "x4": ".5"},
        "pi2": {"x1": "1", "x2": ".7", "x3": "0", "x4": "1"},
    },
    "assessment": {
        "x1": ["1", "0"],
        "x2": ["1", ".5"],
        "x3": ["1", ".7"],
        "x4": ["0", "1"],
    },
    "pessimistic_config": {
        "u": {"x1": "1", "x2": ".5", "x3": ".3", "x4": "0"},
        "n": {"1": "0", ".5": ".3", ".3": ".5", "0": "1"},
        "h": {"1": "1", ".7": ".5", ".5": ".3", "0": "0"},
    },
}

# Prize-by-prize encoding as standard lotteries; x4 sits at the bottom of
# the best-fully-possible half rather than at the anchored <0,1>.
ENCODED_ASSESSMENT = {
    "x1": ["1", "0"],
    "x2": ["1", ".5"],
    "x3": ["1", ".7"],
    "x4": ["1", "1"],
}


def paper_example_lines() -> list[str]:
    """The bundled worked example, every intermediate table recomputed."""
    scenario = parse_scenario(SCENARIO, source="<bundled>")
    cfg = scenario.pessimistic_config
    assert cfg is not None
    scale_v = scenario.scale_v
    encoded = BinaryUtilityAssessment.from_indices(
        scenario.outcomes, scale_v,
        {x: (scale_v.index(a), scale_v.index(b)) for x, (a, b) in ENCODED_ASSESSMENT.items()},
        require_anchors=False,
    )
    labels = scenario.outcomes.outcomes
    u_scale = cfg.utility_scale
    lines = [
        "worked example: two lotteries over four ranked prizes",
        f"uncertainty scale V: {' < '.join(scale_v.levels)}",
        f"utility scale U: {' < '.join(u_scale.levels)}",
        f"prizes, best first: {', '.join(labels)}",
    ]
    for name in ("pi1", "pi2"):
        lines.append(f"{name} = {scenario.lotteries[name]}")
    lines.append("")
    lines.append("pessimistic criterion")
    prize_text = ", ".join(
        f"u({label})={cfg.prize_utility_for(label)}" for label in labels
    )
    lines.append(f"  prize utilities: {prize_text}")
    nh_text = ", ".join(
        f"{scale_v.levels[i]}->{u_scale.levels[cfg.reversed_map[i]]}"
        for i in range(len(scale_v) - 1, -1, -1)
    )
    lines.append(f"  reversed scale map: {nh_text}")
    for name in ("pi1", "pi2"):
        dist = scenario.lotteries[name]
        terms = []
        for label, level in dist.items():
            nh_level = u_scale.level(cfg.reversed_map[level.index])
            u_level = cfg.prize_utility_for(label)
            terms.append((nh_level, u_level, level_max(nh_level, u_level)))
        term_text = ", ".join(f"max({nh},{u})={t}" for nh, u, t in terms)
        lines.append(f"  {name} terms: {term_text}")
        value = pessimistic_utility(dist, cfg)
        arg_text = ", ".join(str(t) for _, _, t in terms)
        lines.append(f"  pessimistic({name}) = min{{{arg_text}}} = {value}")
    lines.append("")
    lines.append("pair-valued criterion")
    pair_text = ", ".join(f"u({label})={encoded.utility_for(label)}" for label in labels)
    lines.append(f"  prize pairs: {pair_text}")
    for name in ("pi1", "pi2"):
        dist = scenario.lotteries[name]
        terms = []
        for label, level in dist.items():
            pair = encoded.utility_for(label)
            terms.append((level, pair, ext_min(level, pair)))
        term_text = ", ".join(f"min({lv},{pr})={cut}" for lv, pr, cut in terms)
        lines.append(f"  {name} terms: {term_text}")
        value = binary_utility(dist, encoded)
        arg_text = ", ".join(str(cut) for _, _, cut in terms)
        lines.append(f"  pair-valued({name}) = max{{{arg_text}}} = {value}")
    lines.append("")
    pess_1 = pessimistic_utility(scenario.lotteries["pi1"], cfg)
    pess_2 = pessimistic_utility(scenario.lotteries["pi2"], cfg)
    pair_1 = binary_utility(scenario.lotteries["pi1"], encoded)
    pair_2 = binary_utility(scenario.lotteries["pi2"], encoded)
    if pess_1 > pess_2 and pair_1 > pair_2:
        lines.append("pi1 is strictly preferred to pi2 under both criteria")
    else:
        lines.append("criteria disagree; see the tables above")
    return lines
