#!/usr/bin/env python3
"""Run the four stock simulation sweeps and emit CSV plus SVG curves.

Desk-scale defaults (4 grid points, 5 replicates) finish in a few minutes;
pass --grid-points 8 --replicates 20 to match the published setups.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from alma.cli import positive_int
from alma.harness import emit_results, run_scenario, scenario_config


def scenario_list(text: str) -> list:
    """argparse type for --scenarios: a comma list of stock scenario numbers."""
    out = []
    for part in text.split(","):
        try:
            value = int(part)
        except ValueError:
            raise argparse.ArgumentTypeError(f"needs integers, got {part!r}") from None
        try:
            scenario_config(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        out.append(value)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenarios", type=scenario_list, default="1,2,3,4",
                    help="comma list from 1-4")
    ap.add_argument("--grid-points", type=positive_int, default=4)
    ap.add_argument("--replicates", type=positive_int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--threads", type=positive_int, default=max(os.cpu_count() - 1, 1))
    ap.add_argument("--out", default="results")
    args = ap.parse_args()

    for s in args.scenarios:
        cfg = scenario_config(
            s,
            grid_points=args.grid_points,
            replicates=args.replicates,
            master_seed=args.seed,
            threads=args.threads,
        )
        t0 = time.perf_counter()
        records = run_scenario(cfg)
        out_dir = os.path.join(args.out, f"scenario_{s}")
        paths = emit_results(
            records, out_dir, formats=("csv", "svg"), sweep_param=cfg.sweep_param
        )
        print(
            f"scenario {s}: {len(records)} runs over {cfg.sweep_param} grid "
            f"{cfg.grid} in {time.perf_counter() - t0:.1f}s"
        )
        for path in paths.values():
            print(f"  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
