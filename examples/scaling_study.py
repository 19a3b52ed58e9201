"""Core-count scaling study with ASCII charts.

Holds the 32-core machine's disk constant, sweeps hypothetical 2..64
core variants, auto-tunes every design at every point, and plots the
result: the paper's "the disk is the ceiling" story as a curve.

Run:  python examples/scaling_study.py
"""

from repro.autotune import ConfigurationSpace, HillClimbing
from repro.engine import Implementation
from repro.experiments.textplot import bar_chart, line_chart
from repro.platforms import MANYCORE_32, hypothetical
from repro.simengine import SimPipeline, Workload

CORE_COUNTS = (2, 4, 8, 16, 32, 64)


def main() -> None:
    workload = Workload.synthesize()
    series = {impl.paper_name: [] for impl in Implementation}
    for cores in CORE_COUNTS:
        platform = hypothetical(MANYCORE_32, cores=cores)
        pipeline = SimPipeline(platform, workload, batches_per_extractor=60)
        sequential = pipeline.run_sequential().total_s
        for implementation in Implementation:
            space = ConfigurationSpace(implementation, max_extractors=10,
                                       max_updaters=4)
            result = HillClimbing(restarts=3, seed=0).run(
                space,
                lambda config, impl=implementation: pipeline.run(
                    impl, config
                ).total_s,
            )
            speedup = sequential / result.best_value
            series[implementation.paper_name].append((cores, speedup))
        print(f"cores={cores:>3}: " + "  ".join(
            f"{name.split()[-1]}: x{points[-1][1]:.2f}"
            for name, points in series.items()
        ))

    print()
    print(line_chart(
        series,
        width=58,
        height=14,
        title="Best speed-up vs core count (manycore-32 disk held fixed)",
        x_label="cores",
        y_label="speed-up",
    ))

    print()
    final = [(name, points[-1][1]) for name, points in series.items()]
    print(bar_chart(final, width=40,
                    title="At 64 cores (disk-bound plateau):", unit="x"))


if __name__ == "__main__":
    main()
