#!/usr/bin/env python3
"""Sweep the axiom batteries over generated configuration families.

Runs the enumerated families plus a seeded sample of scalar
configurations, prints a summary, and writes the full line-per-axiom
report.  Useful for poking at larger spaces than the default test runs.
Exits 0 when every expected outcome holds and some mixed assessment
violates both attitude axioms, as ``posdec verify`` requires; 1 when
not, or on a rejected argument; 3, with one ``error:`` line, when a
space to enumerate or sample is over the enumeration limit.
"""

import argparse
import sys

from posdec.axioms import format_report, verify_entailments
from posdec.lotteries import BoundExceededError


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sample", type=int, default=100)
    parser.add_argument("--max-outcomes", type=int, default=3,
                        help="largest outcome count for sampled configs")
    parser.add_argument("--max-levels", type=int, default=4,
                        help="largest scale size for sampled configs")
    parser.add_argument("--enumerate-to", type=int, nargs=2, default=(3, 3),
                        metavar=("X", "V"), help="fully enumerate spaces up to this size")
    parser.add_argument("--out", default="axiom-sweep-report.txt")
    args = parser.parse_args()

    try:
        run = verify_entailments(
            seed=args.seed,
            sample_size=args.sample,
            sample_max_outcomes=args.max_outcomes,
            sample_max_levels=args.max_levels,
            enumerate_max=tuple(args.enumerate_to),
        )
    except BoundExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(format_report(run))

    checks = sum(len(c.reports) for c in run.configs)
    unexpected = run.unexpected()
    print(f"configurations: {len(run.configs)}")
    print(f"axiom checks:   {checks}")
    print(f"anomaly pair exhibited: {run.anomaly_exhibited()}")
    if unexpected:
        print(f"unexpected outcomes ({len(unexpected)}):")
        for config_id, axiom in unexpected:
            print(f"  {config_id} {axiom}")
    if not run.anomaly_exhibited():
        print("no mixed assessment violating both attitude axioms")
    if not run.ok():
        return 1
    print("all expected outcomes hold")
    print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
