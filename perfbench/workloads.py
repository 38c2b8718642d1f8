"""The benchmark's workloads: seeded inputs, the job each repetition runs,
and the check of its artifact against the recorded reference.

A seed selects one of ``BANK`` input sets (``seed % BANK``), so that
every input a run can see has a reference artifact recorded in
``perfbench/reference``.  The program sees only the generated spec and
CSV files.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from oracle import grid_disk_mass

BANK = 10
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: the c12 acceptance criterion's lattice extent, ladder and bracketing
#: oracle
C12_EXTENT = 70
C12_DELTAS = "0.4:40:9"
C12_ORACLE = [(0.0, 0.0, 5.0), (10.0, 3.0, 8.0), (-15.0, -15.0, 3.0)]


def _fmt(x):
    return repr(float(x))


def _close(a, b, rel, floor=1e-12):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rel * max(abs(a), abs(b), floor)


def read_csv_artifact(path):
    """Header lines, column names and data rows of a ccstruct CSV."""
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    rows = list(csv.reader(body))
    return header, rows[0], rows[1:]


class Check:
    """Outcome of checking one repetition's artifact."""

    def __init__(self, attempted):
        self.attempted = attempted
        self.failed = 0
        self.wrong = 0          # ops whose output differs from the reference
        self.notes = []

    def fail(self, n, note, wrong=True):
        self.failed += n
        if wrong:
            self.wrong += n
        if len(self.notes) < 20:
            self.notes.append(note)


class Workload:
    name = ""
    #: artifact file type, which is also the reference's
    suffix = ""
    seeded = False
    #: relative tolerance on numbers compared with the reference
    rel_tol = 1e-6

    def bank(self, seed):
        return seed % BANK if self.seeded else 0

    def reference_path(self, seed):
        return REFERENCE_DIR / f"{self.name}-{self.bank(seed)}.{self.suffix}"

    def make_job(self, workdir, seed):
        """Write the inputs under ``workdir``; return the child's job."""
        raise NotImplementedError

    def check(self, job, result):
        """Compare a repetition's artifact with the reference."""
        raise NotImplementedError


# ---------------------------------------------------------------------------

def bump_lattice(extent):
    """Centers, masses and radii of ``decaying_bump_lattice(extent)``."""
    ks = np.arange(-int(extent), int(extent) + 1)
    grid = (ks[None, :] + 1j * ks[:, None]).ravel()
    masses = 1.0 / (1.0 + np.abs(grid))
    radii = np.minimum(0.25, masses)
    return grid, masses, radii


class ClassifyBumps(Workload):
    """``classify`` on a bump lattice of half c12's extent, at the single
    base point 0: on c12's lattice a repetition takes 18 s, not 6 s."""

    name = "classify_bumps"
    suffix = "json"
    window = "0,0,0,0,1"
    extent = C12_EXTENT // 2

    def make_job(self, workdir, seed):
        centers, masses, radii = bump_lattice(self.extent)
        spec = workdir / "bumps.spec"
        bumps = "; ".join(f"{_fmt(c.real)},{_fmt(c.imag)},{_fmt(m)},{_fmt(r)}"
                          for c, m, r in zip(centers, masses, radii))
        spec.write_text(f"family = bump_lattice\nbumps = {bumps}\n")
        out = workdir / "classify.json"
        n = int(self.window.split(",")[-1])
        return {"spec": str(spec), "out": str(out), "kind": "cli",
                "argv": ["classify", "--density", str(spec),
                         f"--window={self.window}", "--delta", C12_DELTAS,
                         "--out", str(out)],
                "ops": n * n * int(C12_DELTAS.split(":")[-1]),
                "oracle": C12_ORACLE}

    def check(self, job, result):
        chk = Check(job["ops"])
        try:
            with open(job["out"]) as fh:
                got = json.load(fh)["report"]
        except (OSError, ValueError, KeyError) as exc:
            chk.fail(job["ops"], f"no artifact: {exc}", wrong=False)
            return chk
        with open(self.reference_path(job["seed"])) as fh:
            ref = json.load(fh)["report"]
        n_delta = len(ref["deltas"])
        if got["verdict"] != "Linear" or got["verdict"] != ref["verdict"]:
            chk.fail(job["ops"], f"verdict {got['verdict']}, expected "
                                 f"{ref['verdict']}")
            return chk
        for cg, cr in zip(got["checks"], ref["checks"]):
            if (cg["name"], cg["verdict"]) != (cr["name"], cr["verdict"]) \
                    or not _close(cg["statistic"], cr["statistic"],
                                  self.rel_tol):
                chk.fail(job["ops"], f"check {cr['name']} differs")
                return chk
        if not self.oracle_holds(result.get("oracle_mu"), chk, self.extent):
            chk.fail(job["ops"], "c12 bracketing oracle violated")
            return chk
        for key, slope in ref["slopes"].items():
            if key not in got["slopes"] or not _close(
                    got["slopes"][key], slope, self.rel_tol):
                chk.fail(n_delta, f"slope at {key} differs")
        return chk

    @staticmethod
    def oracle_holds(mus, chk, extent):
        centers, masses, radii = bump_lattice(extent)
        if mus is None or len(mus) != len(C12_ORACLE):
            return False
        for (x, y, d), mu in zip(C12_ORACLE, mus):
            dist = np.abs(centers - complex(x, y))
            lower = masses[dist + radii <= d].sum()
            upper = masses[dist - radii <= d].sum()
            if not lower - 1e-9 <= mu <= upper + 1e-9:
                chk.notes.append(f"mu({x},{y};{d}) = {mu} outside "
                                 f"[{lower}, {upper}]")
                return False
        return True


RADIAL_SPEC = "family = radial_alpha\nalpha = 0.5\n"


class ClassifyBumpsC12(ClassifyBumps):
    """The known sys-time defect: ``classify`` on c12's full lattice
    (19,881 bumps), where over a fifth of the CPU time is sys time, from
    page faults on the dense queries x bumps distance matrices.

    Not a benchmarked workload: a repetition takes 18 s.  Run it by name;
    the details report ``cpu_sys_s`` beside ``cpu_s``.
    """

    name = "classify_bumps_c12"
    extent = C12_EXTENT


class VolumeRadial(Workload):
    """``volume`` on radial_alpha 0.5 at z = 1+1i."""

    name = "volume_radial"
    seeded = True
    suffix = "csv"
    deltas = "0.5:2:3"
    n_paths = 2000
    #: columns that must match exactly, and columns compared at rel_tol
    keys = ("re(z)", "im(z)", "delta", "in_sandwich")
    values = ("lower", "upper", "mc_estimate", "mc_lo", "mc_hi")

    def make_job(self, workdir, seed):
        spec = workdir / "radial.spec"
        spec.write_text(RADIAL_SPEC)
        out = workdir / "volume.csv"
        return {"spec": str(spec), "out": str(out), "kind": "cli",
                "argv": ["volume", "--density", str(spec), "--z", "1,1",
                         "--delta", self.deltas,
                         "--n-paths", str(self.n_paths),
                         "--seed", str(self.bank(seed)), "--out", str(out)],
                "ops": self.n_paths * int(self.deltas.split(":")[-1])}

    def check(self, job, result):
        """One row per delta, worth ``n_paths`` ops."""
        chk = Check(job["ops"])
        try:
            _, cols, rows = read_csv_artifact(job["out"])
        except (OSError, IndexError) as exc:
            chk.fail(job["ops"], f"no artifact (exit {result.get('exit')}): "
                                 f"{exc}", wrong=False)
            return chk
        _, rcols, rrows = read_csv_artifact(self.reference_path(job["seed"]))
        if cols != rcols or len(rows) != len(rrows):
            chk.fail(job["ops"], "artifact layout differs from reference")
            return chk
        idx = {c: i for i, c in enumerate(cols)}
        for row, ref in zip(rows, rrows):
            where = ",".join(row[idx[k]] for k in self.keys)
            if any(row[idx[k]] != ref[idx[k]] for k in self.keys):
                chk.fail(self.n_paths, f"row {where}: key columns differ")
                continue
            want = [float(ref[idx[v]]) for v in self.values]
            try:
                got = [float(row[idx[v]]) for v in self.values]
            except ValueError:
                chk.fail(self.n_paths, f"row {where}: not a number")
                continue
            if not all(_close(g, w, self.rel_tol)
                       for g, w in zip(got, want)):
                chk.fail(self.n_paths, f"row {where}: {got} != {want}")
        return chk


class MassGrid(Workload):
    """Library ``disk_mass`` on a 33x33 grid of random node values.

    One input set for every seed: the quadrature work depends on the node
    values, and across ten seeded grids it differed by up to 1.4x, which
    would read as run-to-run noise.  The disks sit at fixed offsets within
    random grid cells.
    """

    name = "mass_grid"
    suffix = "csv"
    rel_tol = 1e-5
    origin = complex(-8.0, -8.0)
    cell = 0.5
    radii = (0.5, 0.6, 0.7)
    offset = (0.3, 0.7)

    def inputs(self, seed):
        rng = np.random.default_rng(self.bank(seed))
        values = rng.uniform(0.0, 1.0, (33, 33))
        cells = rng.integers(-6, 6, (len(self.radii), 2))
        disks = [(self.cell * (i + self.offset[0]),
                  self.cell * (j + self.offset[1]), r)
                 for (i, j), r in zip(cells.tolist(), self.radii)]
        return values, disks

    def make_job(self, workdir, seed):
        values, disks = self.inputs(seed)
        grid_csv = workdir / "grid.csv"
        grid_csv.write_text("".join(",".join(_fmt(v) for v in row) + "\n"
                                    for row in values))
        spec = workdir / "grid.spec"
        spec.write_text(f"family = grid\ngrid_file = grid.csv\n"
                        f"origin = {_fmt(self.origin.real)},"
                        f"{_fmt(self.origin.imag)}\n"
                        f"cell_size = {_fmt(self.cell)}\n")
        out = workdir / "mass.csv"
        return {"spec": str(spec), "out": str(out), "kind": "disks",
                "disks": disks, "ops": len(disks)}

    def oracle(self, seed):
        values, disks = self.inputs(seed)
        return [grid_disk_mass(self.origin, self.cell, values,
                               complex(x, y), r) for x, y, r in disks]

    def check(self, job, result):
        chk = Check(job["ops"])
        try:
            _, cols, rows = read_csv_artifact(job["out"])
        except (OSError, IndexError) as exc:
            chk.fail(job["ops"], f"no artifact: {exc}", wrong=False)
            return chk
        _, rcols, rrows = read_csv_artifact(self.reference_path(job["seed"]))
        if cols != rcols[:5] or len(rows) != len(rrows):
            chk.fail(job["ops"], "artifact layout differs from reference")
            return chk
        for row, ref in zip(rows, rrows):
            x, y, r, mass, error = row
            where = f"disk ({x}, {y}, r={float(r):.4g})"
            if row[:3] != ref[:3]:
                chk.fail(1, f"{where}: inputs differ from reference")
            elif error:
                chk.fail(1, f"{where}: {error}", wrong=False)
            else:
                # a disk that failed at the reference commit is held to the
                # independent oracle value recorded beside it
                want = float(ref[3]) if not ref[4] else float(ref[5])
                if not _close(float(mass), want, self.rel_tol):
                    chk.fail(1, f"{where}: mass {mass} != {want}")
        return chk


class MassGridR3(MassGrid):
    """The known grid defect: four seeded disks, the last of radius in
    [3, 3.5], which raises ``QuadratureFailure`` after 40,000 patches.

    Not a benchmarked workload: the failing disk alone takes 35-65 s, and
    the benchmarked workloads are ones on which no operation fails.  Run it
    by name to see the defect; each input set fails on its last disk.
    """

    name = "mass_grid_r3"
    seeded = True
    #: one disk per radius band; the last band is the failing one
    radius_bands = ((0.5, 0.75), (0.75, 1.0), (1.0, 1.5), (3.0, 3.5))

    def inputs(self, seed):
        rng = np.random.default_rng(self.bank(seed))
        values = rng.uniform(0.0, 1.0, (33, 33))
        disks = [(float(x), float(y), float(rng.uniform(lo, hi)))
                 for lo, hi in self.radius_bands
                 for x, y in [rng.uniform(-3.0, 3.0, 2)]]
        return values, disks


#: the benchmarked workloads, in BENCHMARK.json's order
WORKLOADS = {w.name: w for w in (ClassifyBumps(), VolumeRadial(),
                                 MassGrid())}
#: workloads that run by name but are not benchmarked
PROBES = {w.name: w for w in (ClassifyBumpsC12(), MassGridR3())}
