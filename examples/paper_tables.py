"""Regenerate the paper's Tables 1-4, side by side with its numbers.

This is the complete reproduction in one script: the sequential stage
times (Table 1) and the best-configuration comparisons on the 4-, 8-
and 32-core machines (Tables 2-4), each rendered next to the values
Meder & Tichy report.

Run:  python examples/paper_tables.py          (full sweep, ~3 minutes)
      python examples/paper_tables.py --fast   (narrow sweep, ~30s)
"""

import sys

from repro.experiments import (
    render_best_config_table,
    render_table1,
    run_best_config_table,
    run_table1,
)
from repro.platforms import ALL_PLATFORMS
from repro.simengine import Workload


def main() -> None:
    fast = "--fast" in sys.argv
    sweep = (
        dict(max_extractors=8, max_updaters=4, batches_per_extractor=60)
        if fast
        else {}
    )
    workload = Workload.synthesize()
    print(f"workload: {len(workload.files)} files, "
          f"{workload.total_bytes / 1e6:.0f} MB, "
          f"{workload.total_unique_pairs / 1e6:.1f}M (term, file) pairs\n")

    print(render_table1(run_table1(workload)))
    for platform in ALL_PLATFORMS:
        print()
        table = run_best_config_table(platform, workload, **sweep)
        print(render_best_config_table(table))


if __name__ == "__main__":
    main()
