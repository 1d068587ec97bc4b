#!/usr/bin/env python3
"""Search small spaces for lotteries the scalar pair cannot separate.

For each space and each enumerated assessment, looks for two lotteries
with equal pessimistic and equal optimistic utility whose pair-valued
utilities differ.  Witnesses show that recording both scalar utilities is
not enough to reconstruct the pair-valued ranking; absence of a witness
is only ever reported for the scale it was checked at.
"""

import argparse
import itertools
import sys

from posdec.axioms import (
    canonical_outcomes,
    canonical_scale,
    enumerate_assessments,
    enumerate_scalar_configs,
)
from posdec.checker import LotteryUniverse
from posdec.search import search_pair_counterexample


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-outcomes", type=int, default=3)
    parser.add_argument("--max-levels", type=int, default=4)
    args = parser.parse_args()

    witnesses = 0
    runs = 0
    for nx in range(2, args.max_outcomes + 1):
        for nv in range(2, args.max_levels + 1):
            universe = LotteryUniverse(canonical_outcomes(nx), canonical_scale(nv))
            configs = enumerate_scalar_configs(universe.outcomes, universe.scale)
            assessments = enumerate_assessments(universe.outcomes, universe.scale)
            found_here = None
            for cfg, assessment in itertools.product(configs, assessments):
                runs += 1
                result = search_pair_counterexample(universe, cfg, assessment)
                if result.found and found_here is None:
                    found_here = result
                    witnesses += 1
            if found_here is None:
                print(f"|X|={nx} |V|={nv}: no witness in any configuration")
            else:
                i, j = found_here.witness
                print(
                    f"|X|={nx} |V|={nv}: witness {universe.members[i]} vs "
                    f"{universe.members[j]} (equal scalar pair, different "
                    f"pair-valued utility)"
                )
    print(f"{runs} configuration runs, witnesses at {witnesses} space(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
