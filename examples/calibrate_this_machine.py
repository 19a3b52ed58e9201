"""Calibrate a platform model for *this* machine and simulate it.

The paper's methodology, closed into a loop on whatever computer runs
this script:

1. generate a scaled benchmark corpus on disk;
2. measure the four Table-1 stage times and the naive sequential total
   with the *real* engine (real files, real tokenizing, real index);
3. derive a :class:`~repro.platforms.profile.PlatformProfile` from the
   measurements (exactly how the three paper machines were calibrated);
4. run the simulator on the derived profile and check it reproduces the
   measured stage times — the same consistency the paper's Table 1
   gives the built-in profiles.

Python's GIL means the *parallel* speed-ups of this machine cannot be
measured with threads, but the sequential calibration path is fully
real.

Run:  python examples/calibrate_this_machine.py
"""

import os
import shutil
import tempfile
import time

from repro.corpus import PAPER_PROFILE, CorpusGenerator, materialize
from repro.engine import SequentialIndexer
from repro.engine.runner import measure_stage_times
from repro.fsmodel import OsFileSystem
from repro.platforms import StageMeasurements, derive_profile
from repro.simengine import SimPipeline, Workload, WorkloadSpec

SCALE = 0.004  # ~200 files, ~3.5 MB: seconds, not minutes


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="calibrate-")
    try:
        profile = PAPER_PROFILE.scaled(SCALE)
        documents = os.path.join(workdir, "corpus")
        materialize(CorpusGenerator(profile).generate().fs, documents)
        fs = OsFileSystem(documents)
        print(f"corpus: {profile.file_count} files, "
              f"{profile.total_bytes / 1e6:.1f} MB on disk")

        # 2. Real measurements (the paper's Table 1 methodology).
        stage = measure_stage_times(fs)
        t0 = time.perf_counter()
        SequentialIndexer(fs, naive=True).build()
        sequential_total = time.perf_counter() - t0
        print(f"measured: filename {stage.filename_generation:.3f}s, "
              f"read {stage.read_files:.3f}s, "
              f"read+extract {stage.read_and_extract:.3f}s, "
              f"update {stage.index_update:.3f}s, "
              f"naive sequential {sequential_total:.3f}s")

        # 3. Derive this machine's platform model.
        this_machine = derive_profile(
            "this-machine",
            cores=os.cpu_count() or 1,
            clock_ghz=0.0,  # informational only
            measurements=StageMeasurements(
                filename_generation=stage.filename_generation,
                read_files=stage.read_files,
                read_and_extract=stage.read_and_extract,
                index_update=stage.index_update,
                sequential_total=sequential_total,
            ),
            corpus_megabytes=profile.total_bytes / 1e6,
            file_count=profile.file_count,
            seek_ms=0.001,  # page cache, not a spinning disk
        )
        print(f"derived profile: {this_machine.per_stream_mbps:.0f} MB/s "
              f"single stream, scan {this_machine.scan_cpu_s:.3f}s, "
              f"naive update {this_machine.naive_update_s:.3f}s")

        # 4. Simulate the derived profile; stage times must match.
        workload = Workload.synthesize(WorkloadSpec(profile=profile))
        pipeline = SimPipeline(this_machine, workload,
                               batches_per_extractor=40)
        simulated = pipeline.stage_times()
        print("consistency check (measured -> simulated):")
        for label, real, sim in (
            ("read files", stage.read_files, simulated.read_files),
            ("read+extract", stage.read_and_extract,
             simulated.read_and_extract),
            ("index update", stage.index_update, simulated.index_update),
        ):
            deviation = abs(sim / real - 1) * 100
            print(f"  {label:<13} {real:7.3f}s -> {sim:7.3f}s "
                  f"({deviation:.0f}% off)")

        sequential_sim = pipeline.run_sequential().total_s
        print(f"  {'sequential':<13} {sequential_total:7.3f}s -> "
              f"{sequential_sim:7.3f}s")
    finally:
        shutil.rmtree(workdir)


if __name__ == "__main__":
    main()
