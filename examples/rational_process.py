"""The paper's six-step rational design process, executed end to end.

Section 5 of Meder & Tichy distils the case study into a process:

1. use benchmarks and measurements to find the parallelization potential;
2. beware of bottlenecks (I/O, shared data structures with locks);
3. develop alternative parallel designs;
4. explore alternatives with back-of-the-envelope analysis;
5. experiment where analysis is not enough;
6. use an auto-tuner to speed up exploring the design space.

This example runs each step on the simulated 8-core machine, printing
what the paper's authors would have seen.

Run:  python examples/rational_process.py
"""

from repro import ThreadConfig
from repro.autotune import ConfigurationSpace, HillClimbing
from repro.engine import Implementation
from repro.platforms import OCTO_CORE
from repro.simengine import SimPipeline, Workload

MB = 1_000_000


def main() -> None:
    workload = Workload.synthesize()
    pipeline = SimPipeline(OCTO_CORE, workload)
    platform = OCTO_CORE
    print(f"platform: {platform.description}\n")

    # Step 1 — measure the stages (the paper's Table 1).
    print("step 1: measure the components")
    times = pipeline.stage_times()
    sequential = pipeline.run_sequential().total_s
    print(f"  filename generation {times.filename_generation:.0f}s, "
          f"read {times.read_files:.0f}s, "
          f"read+extract {times.read_and_extract:.0f}s, "
          f"update {times.index_update:.0f}s; "
          f"naive sequential total {sequential:.0f}s")
    share = times.filename_generation / sequential
    print(f"  -> stage 1 is {share:.0%} of the runtime: not worth "
          f"parallelizing (the paper's first decision)\n")

    # Step 2 — bottleneck analysis.
    print("step 2: beware of bottlenecks")
    single_stream = platform.per_stream_mbps
    aggregate = platform.aggregate_mbps
    print(f"  disk: one stream {single_stream:.1f} MB/s of an "
          f"{aggregate:.1f} MB/s ceiling -> parallel reads buy only "
          f"{aggregate / single_stream:.2f}x")
    floor = workload.total_bytes / (aggregate * MB)
    print(f"  -> no configuration can beat ~{floor:.0f}s of pure disk "
          f"time; speed-up is capped near "
          f"{sequential / (floor + platform.filename_gen_s):.1f}x\n")

    # Step 3 — alternative designs.
    print("step 3: develop alternatives (the three implementations)")
    candidates = {
        Implementation.SHARED_LOCKED: "one shared index under a lock",
        Implementation.REPLICATED_JOINED: "private replicas, joined at the end",
        Implementation.REPLICATED_UNJOINED: "private replicas, never joined",
    }
    for implementation, description in candidates.items():
        print(f"  {implementation.paper_name}: {description}")
    print()

    # Step 4 — back-of-the-envelope.
    print("step 4: back-of-the-envelope analysis")
    critical = platform.update_critical_s
    handoff = len(workload.files) * platform.lock_handoff_us / 1e6
    print(f"  Impl 1's serialized work: {critical:.1f}s of critical "
          f"sections + {handoff:.1f}s of lock handoffs "
          f"(x coherence as writers grow)")
    print(f"  vs the {floor:.0f}s disk floor: the lock is the binding "
          f"constraint -> expect Implementation 1 to lose here\n")

    # Step 5 — experiment.
    print("step 5: experiment (one configuration, all three designs)")
    config = ThreadConfig(6, 2, 0)
    for implementation in (Implementation.SHARED_LOCKED,
                           Implementation.REPLICATED_UNJOINED):
        result = pipeline.run(implementation, config)
        note = (f", {result.lock_wait_s:.0f}s lock wait"
                if result.lock_acquires else "")
        print(f"  {implementation.paper_name} {config}: "
              f"{result.total_s:.1f}s{note}")
    joined = pipeline.run(Implementation.REPLICATED_JOINED,
                          ThreadConfig(6, 2, 1))
    print(f"  {Implementation.REPLICATED_JOINED.paper_name} (6, 2, 1): "
          f"{joined.total_s:.1f}s (join adds {joined.join_s:.1f}s)\n")

    # Step 6 — auto-tune.
    print("step 6: auto-tune the thread allocation")
    for implementation in Implementation:
        space = ConfigurationSpace(implementation, max_extractors=10,
                                   max_updaters=5)
        best = HillClimbing(restarts=3, seed=0).run(
            space,
            lambda cfg, impl=implementation: pipeline.run(impl, cfg).total_s,
        )
        print(f"  {implementation.paper_name}: best {best.best_config} -> "
              f"{best.best_value:.1f}s (x{sequential / best.best_value:.2f}) "
              f"in {best.evaluations} evaluations")
    print("\nconclusion: replicate, don't lock — and never join what "
          "the query engine can search in parallel.")


if __name__ == "__main__":
    main()
