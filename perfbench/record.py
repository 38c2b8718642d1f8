"""Record the reference artifacts the benchmark checks against.

    python3 perfbench/record.py [WORKLOAD ...]

Runs each workload once per input set in ``workloads.BANK`` (once for an
unseeded workload) and stores the artifact in ``perfbench/reference``.
Run it only on a commit whose outputs are trusted.  For ``mass_grid`` it
appends the independent oracle value of each disk (``oracle.py``), which
is the reference for disks the program fails on, and it refuses to
record a disk whose computed mass disagrees with the oracle.
"""

from __future__ import annotations

import csv
import shutil
import sys
import time

from run import ROOT, ChildFailed, spawn
from workloads import (BANK, PROBES, REFERENCE_DIR, WORKLOADS, MassGrid,
                       read_csv_artifact)


def record(workload):
    seeds = range(BANK) if workload.seeded else [0]
    for seed in seeds:
        workdir = ROOT / ".perfbench_work" / f"record-{workload.name}-{seed}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        job = workload.make_job(workdir, seed)
        job.update(seed=seed, trace=False)
        t0 = time.monotonic()
        _, result, _ = spawn(job, workdir, "record", t0 + 600.0)
        dest = workload.reference_path(seed)
        if isinstance(workload, MassGrid):
            write_grid_reference(workload, seed, job["out"], dest)
        else:
            shutil.copy(job["out"], dest)
        if workload.name == "classify_bumps":
            chk = workload.check(job, result)
            if chk.failed:
                raise ChildFailed(f"classify reference fails its own "
                                  f"check: {chk.notes}")
        print(f"{workload.name} input set {seed}: exit {result['exit']}, "
              f"{time.monotonic() - t0:.1f} s -> {dest.name}", flush=True)
        shutil.rmtree(workdir, ignore_errors=True)


def write_grid_reference(workload, seed, artifact, dest):
    header, cols, rows = read_csv_artifact(artifact)
    oracle = workload.oracle(seed)
    for row, want in zip(rows, oracle):
        if not row[4] and abs(float(row[3]) - want) > \
                workload.rel_tol * abs(want):
            raise ChildFailed(f"disk {row[:3]}: mass {row[3]} disagrees "
                              f"with the oracle {want!r}")
    with open(dest, "w", newline="") as fh:
        fh.write("\n".join(header) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols + ["oracle"])
        writer.writerows(row + [repr(w)] for row, w in zip(rows, oracle))


def main(names):
    REFERENCE_DIR.mkdir(exist_ok=True)
    known = {**WORKLOADS, **PROBES}
    for name in names or sorted(WORKLOADS):
        record(known[name])


if __name__ == "__main__":
    main(sys.argv[1:])
