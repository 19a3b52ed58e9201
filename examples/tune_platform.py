"""Auto-tune thread configurations on the simulated 32-core machine.

Reproduces the paper's methodology interactively: sweep the (x, y, z)
space for each implementation on the Intel Manycore Testing Lab machine
and inspect *why* the results differ — the shared index's lock
statistics make Implementation 1's collapse visible.

Run:  python examples/tune_platform.py
"""

from repro import ThreadConfig
from repro.autotune import ConfigurationSpace, ExhaustiveSearch, HillClimbing
from repro.engine import Implementation
from repro.platforms import MANYCORE_32
from repro.simengine import SimPipeline, Workload


def main() -> None:
    workload = Workload.synthesize()  # the 51,000-file / 869 MB benchmark
    pipeline = SimPipeline(MANYCORE_32, workload)
    sequential = pipeline.run_sequential().total_s
    print(f"platform: {MANYCORE_32.description}")
    print(f"sequential baseline: {sequential:.1f}s\n")

    for implementation in Implementation:
        space = ConfigurationSpace(implementation, max_extractors=12,
                                   max_updaters=6)

        def objective(config: ThreadConfig) -> float:
            return pipeline.run(implementation, config).total_s

        # Hill climbing finds the optimum with ~5x fewer evaluations
        # than the exhaustive sweep the paper ran.
        result = HillClimbing(restarts=4, seed=0).run(space, objective)
        best = pipeline.run(implementation, result.best_config)
        print(f"{implementation.paper_name}: best {result.best_config} "
              f"-> {best.total_s:.1f}s "
              f"(speed-up {sequential / best.total_s:.2f}, "
              f"{result.evaluations} evaluations)")
        if best.lock_acquires:
            print(f"    shared-index lock: {best.lock_contended} contended "
                  f"acquires, {best.lock_wait_s:.1f}s total wait "
                  f"-> that is where the time goes")
        if best.join_s:
            print(f"    join phase: {best.join_s:.1f}s after the build")
        print(f"    disk {best.disk_utilization:.0%} busy, "
              f"cpu {best.cpu_utilization:.0%} busy")

    # For reference: what the exhaustive sweep (the paper's method) says
    # for Implementation 3, and how close hill climbing got.
    space = ConfigurationSpace(Implementation.REPLICATED_UNJOINED,
                               max_extractors=12, max_updaters=6)
    exhaustive = ExhaustiveSearch().run(
        space,
        lambda config: pipeline.run(
            Implementation.REPLICATED_UNJOINED, config
        ).total_s,
    )
    print(f"\nexhaustive optimum for Implementation 3: "
          f"{exhaustive.best_config} -> {exhaustive.best_value:.1f}s "
          f"({exhaustive.evaluations} evaluations)")


if __name__ == "__main__":
    main()
