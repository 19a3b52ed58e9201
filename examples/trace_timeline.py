"""Visualize where a simulated build spends its time.

Attaches a tracer to the simulator and renders ASCII timelines of the
same configuration under Implementation 1 (shared, locked) and
Implementation 3 (replicated, unjoined) on the 32-core machine — the
lock convoy that destroys Implementation 1 is directly visible as the
wall of ``L`` glyphs.

Run:  python examples/trace_timeline.py
"""

from repro import ThreadConfig
from repro.corpus import PAPER_PROFILE
from repro.engine import Implementation
from repro.platforms import MANYCORE_32
from repro.simengine import SimPipeline, Workload, WorkloadSpec
from repro.sim.trace import Tracer, render_timeline

CONFIG = ThreadConfig(4, 2, 0)


def traced_run(implementation: Implementation) -> Tracer:
    # A scaled workload with few batches keeps the timeline readable.
    workload = Workload.synthesize(
        WorkloadSpec(profile=PAPER_PROFILE.scaled(0.2, name="trace"))
    )
    tracer = Tracer()
    pipeline = SimPipeline(MANYCORE_32, workload, batches_per_extractor=12,
                           tracer=tracer)
    result = pipeline.run(implementation, CONFIG)
    print(f"{implementation.paper_name} {CONFIG}: {result.total_s:.1f}s "
          f"(lock wait {result.lock_wait_s:.1f}s, "
          f"disk {result.disk_utilization:.0%} busy)")
    return tracer


def main() -> None:
    for implementation in (
        Implementation.SHARED_LOCKED,
        Implementation.REPLICATED_UNJOINED,
    ):
        tracer = traced_run(implementation)
        workers = [
            name for name in tracer.processes()
            if name.startswith(("extractor", "updater"))
        ]
        print(render_timeline(tracer, width=64, processes=workers))
        print()
    print("Legend: # = compute/disk service, L = lock acquire (waiting "
          "or holding), < > = buffer traffic, B = barrier, . = sleep")


if __name__ == "__main__":
    main()
