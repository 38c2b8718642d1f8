"""One benchmark repetition, run in a fresh interpreter so that no cache of
the program (the per-field lambda_sup memo, the radial potential caches,
the Gauss-Legendre rule cache) survives from one repetition to the next.

Usage: python3 child.py JOB.json RESULT.json

Set-up is importing ccstruct and loading the workload's density spec,
which also constructs the field.  The command then runs on that field
until its artifact is written.  The result file records the monotonic
clock at the end of set-up and around the command; the parent stamps the
spawn time on the same clock.
"""

import json
import math
import sys
import time


def run_disks(field, job):
    import csv

    import ccstruct
    from ccstruct.errors import QuadratureFailure

    rows = []
    for x, y, r in job["disks"]:
        try:
            mass, error = ccstruct.disk_mass(field, complex(x, y), r), ""
        except QuadratureFailure as exc:
            mass, error = math.nan, f"QuadratureFailure: {exc}"
        rows.append([repr(x), repr(y), repr(r), repr(float(mass)), error])
    with open(job["out"], "w", newline="") as fh:
        fh.write(f"# ccstruct {ccstruct.__version__}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["re(z)", "im(z)", "r", "mass", "error"])
        writer.writerows(rows)
    return 0


def main(job_path, result_path):
    with open(job_path) as fh:
        job = json.load(fh)

    import numpy
    import scipy

    import calibrate
    import ccstruct
    from ccstruct import cli, specfile

    tracer = None
    if job["trace"]:
        from layers import Tracer
        tracer = Tracer()
        tracer.install()
    field = specfile.load_density_spec(job["spec"])
    t_ready = time.monotonic()
    result = {"t_ready": t_ready, "ccstruct_file": ccstruct.__file__,
              "kernel_s": [calibrate.timed()]}

    if job["kind"] != "setup":
        t0 = time.monotonic()
        if job["kind"] == "cli":
            # the spec was loaded during set-up; the command reuses that field
            spec, load = job["spec"], cli.load_density_spec
            cli.load_density_spec = (
                lambda p: field if str(p) == spec else load(p))
            code = cli.main(job["argv"])
        else:
            code = run_disks(field, job)
        t1 = time.monotonic()
        result.update(t0=t0, t1=t1, exit=code)
        result["kernel_s"].append(calibrate.timed())
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.summary()
            numpy.savez_compressed(job["spans"], **tracer.span_table())
        if job.get("oracle"):
            result["oracle_mu"] = [field.disk_mass(complex(x, y), d)
                                   for x, y, d in job["oracle"]]

    result["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__,
                          "scipy": scipy.__version__,
                          "ccstruct": ccstruct.__version__}
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
