"""ccstruct benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Each repetition runs in a fresh child interpreter (see
``child.py``) with BLAS and OpenMP pinned to one thread.  Whole
repetitions run until ``--seconds`` have passed, at least one; then
extra set-up-only children run until there are ``SETUP_SAMPLES`` set-up
times.  Every repetition's artifact is checked against the recorded
reference (``workloads.py``).

The time metrics are in reference-host seconds.  Each child times a
fixed calibration kernel (``calibrate.py``) after set-up and after the
command; its set-up and command times are multiplied by
``calibrate.REFERENCE_S`` over its mean kernel time, which takes out the
shared host's changes of speed.  The measured seconds are in the details.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it carries the details: sample counts, the wall-time tail percentile,
the failed operations and the software versions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibrate import REFERENCE_S  # noqa: E402
from layers import PER_LAYER, layer_values  # noqa: E402
from workloads import PROBES, WORKLOADS  # noqa: E402

END_TO_END = [
    ("wall_s", "s"), ("setup_s", "s"), ("ops_per_s", "ops/s"),
    ("ok_frac", "ratio"), ("peak_rss_mb", "MB"),
]
SETUP_SAMPLES = 3
#: a run must end within 180 s; no repetition may start after this
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class ChildFailed(Exception):
    pass


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(job, workdir, tag, deadline):
    """Run one child; return (spawn time, its result, its rusage)."""
    job_path = workdir / f"job-{tag}.json"
    result_path = workdir / f"result-{tag}.json"
    job_path.write_text(json.dumps(job))
    with open(workdir / f"stderr-{tag}.txt", "w") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-s", str(HERE / "child.py"), str(job_path),
             str(result_path)],
            env=child_env(), cwd=workdir, stdout=subprocess.DEVNULL,
            stderr=err)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    raise ChildFailed(f"{tag}: killed at the run's time limit")
                time.sleep(0.005)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not result_path.exists():
        tail = (workdir / f"stderr-{tag}.txt").read_text()[-2000:]
        raise ChildFailed(f"{tag}: exit {proc.returncode}\n{tail}")
    result = json.loads(result_path.read_text())
    src = Path(result["ccstruct_file"]).resolve()
    if not src.is_relative_to(ROOT / "src"):
        raise ChildFailed(f"ccstruct was imported from {src}, not src/")
    return t_spawn, result, usage


def tail_percentile(values):
    """The highest nearest-rank percentile with at least ten samples
    above it, or None with fewer than eleven samples."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    k = len(ordered) - 11
    return {"pct": round(100.0 * (k + 1) / len(ordered), 1),
            "value": ordered[k]}


def run(workload, seed, seconds, trace):
    work_root = ROOT / ".perfbench_work"
    workdir = work_root / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return measure(workload, seed, seconds, trace, workdir, work_root)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


@dataclass
class Rep:
    """One finished repetition."""
    traced: bool
    t_spawn: float
    result: dict
    usage: object       # the child's resource usage, from wait4
    check: object       # workloads.Check

    @property
    def wall(self):
        return self.result["t1"] - self.result["t0"]

    @property
    def setup(self):
        return self.result["t_ready"] - self.t_spawn

    @property
    def scale(self):
        """Reference kernel time over this child's kernel time: the factor
        that turns the child's seconds into reference-host seconds."""
        kernel = self.result["kernel_s"]
        return REFERENCE_S / (sum(kernel) / len(kernel))


def measure(workload, seed, seconds, trace, workdir, work_root):
    t_begin = time.monotonic()
    deadline = t_begin + RUN_LIMIT_S
    job = workload.make_job(workdir, seed)
    job.update(seed=seed, trace=False, spans=str(workdir / "spans.npz"))
    setup_job = dict(job, kind="setup")

    # warm-up: fills the bytecode and file caches; not measured
    spawn(setup_job, workdir, "warmup", deadline)

    reps, crashes = [], []

    def need_more():
        if len(crashes) >= 3:
            return False
        if reps and time.monotonic() > deadline - 2.0 * max(
                r.wall + r.setup for r in reps):
            return False
        return (not reps or time.monotonic() - t_measure < seconds
                or (trace and {r.traced for r in reps} != {False, True}))

    t_measure = time.monotonic()
    while need_more():
        # a traced run alternates untraced and traced repetitions
        traced = trace and len(reps) % 2 == 1
        tag = f"rep{len(reps) + len(crashes)}"
        try:
            rep = Rep(traced, *spawn(dict(job, trace=traced), workdir, tag,
                                     deadline), check=None)
        except ChildFailed as exc:
            crashes.append(str(exc))
            continue
        rep.check = workload.check(job, rep.result)
        reps.append(rep)
        if traced:
            shutil.copy(workdir / "spans.npz",
                        work_root / f"spans-{workload.name}.npz")
    plain = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    if not plain or (trace and not traced):
        raise ChildFailed("no repetition finished:\n" + "\n".join(crashes))

    setups = [Rep(False, *spawn(setup_job, workdir, f"setup{i}", deadline),
                  check=None)
              for i in range(SETUP_SAMPLES - len(plain))
              if time.monotonic() < deadline - 10] + plain

    attempted = sum(r.check.attempted for r in reps) + job["ops"] * len(crashes)
    failed = sum(r.check.failed for r in reps) + job["ops"] * len(crashes)
    correct = not crashes and all(r.check.wrong == 0 for r in reps)
    walls = [r.wall for r in plain]
    ops = [r.check.attempted - r.check.failed for r in plain]
    if trace:
        per_rep = [layer_values(r.result["layers"]) for r in traced]
        values = {name: statistics.median(v[name] for v in per_rep)
                  for name, _, _ in PER_LAYER if not name.startswith("trace.")}
        values["trace.wall_s"] = statistics.median(r.wall * r.scale
                                                   for r in traced)
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(
            r.wall * r.scale for r in plain)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        values = {
            "wall_s": statistics.median(r.wall * r.scale for r in plain),
            "setup_s": statistics.median(r.setup * r.scale for r in setups),
            "ops_per_s": statistics.median(
                n / (r.wall * r.scale) for n, r in zip(ops, plain)),
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": statistics.median(r.usage.ru_maxrss / 1024.0
                                             for r in plain),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}

    detail = {
        "workload": workload.name, "seed": seed,
        "input_set": workload.bank(seed), "trace": trace,
        "repetitions": len(reps), "traced_repetitions": len(traced),
        # measured seconds; the metrics are these times scaled to the
        # reference host speed
        "wall_s": {"median": statistics.median(walls), "n": len(walls),
                   "tail": tail_percentile(walls), "samples": walls},
        "setup_s": {"median": statistics.median(r.setup for r in setups),
                    "n": len(setups)},
        "ops_per_s": statistics.median(n / w for n, w in zip(ops, walls)),
        "kernel_s": {"median": statistics.median(
            k for r in plain for k in r.result["kernel_s"]),
            "reference": REFERENCE_S,
            "samples": [r.result["kernel_s"] for r in plain]},
        # child user + sys CPU time; not a bounded metric, because on a
        # shared host it does not repeat within a tenth
        "cpu_s": statistics.median(r.usage.ru_utime + r.usage.ru_stime
                                   for r in plain),
        "cpu_sys_s": statistics.median(r.usage.ru_stime for r in plain),
        "ops_per_repetition": job["ops"],
        "fail_frac": failed / attempted,
        "failures": sorted({n for r in reps for n in r.check.notes}),
        "crashes": crashes,
        "exit_codes": sorted({r.result["exit"] for r in reps}),
        "environment": dict(reps[0].result["versions"], nproc=os.cpu_count(),
                            threads={k: "1" for k in THREAD_VARS}),
        "run_s": time.monotonic() - t_begin,
    }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, detail


def main(argv=None):
    known = {**WORKLOADS, **PROBES}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(known))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not (ROOT / "src" / "ccstruct" / "__init__.py").is_file():
        print(f"perfbench: no ccstruct source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        result, detail = run(known[args.workload], args.seed,
                             args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
