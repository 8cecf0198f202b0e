#!/usr/bin/env python3
"""Seeded random verification campaign with adjustable sampling sizes.

Example:
    python scripts/run_campaign.py --seed 42 --count 100 --format json > report.json
"""

import argparse
import sys

from vlpdual.harness import CampaignConfig, emit_report, run_random_campaign


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--dual-samples", type=int, default=50)
    parser.add_argument("--primal-samples", type=int, default=50)
    parser.add_argument("--value-samples", type=int, default=50)
    parser.add_argument("--format", choices=("human", "json"), default="human")
    args = parser.parse_args()
    try:
        config = CampaignConfig(
            dual_samples=args.dual_samples,
            primal_samples=args.primal_samples,
            value_samples=args.value_samples,
        )
        if args.count < 1:
            raise ValueError(f"count must be >= 1, got {args.count}")
    except ValueError as exc:
        parser.error(str(exc))
    report = run_random_campaign(args.seed, args.count, config)
    print(emit_report(report, args.format))
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
