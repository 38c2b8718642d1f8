"""The benchmark's own tests.

    python3 perfbench/selftest.py

Not collected by the repository's pytest run (the file name does not
match ``test_*.py``): these tests cover the benchmark, not the program.
They take a few seconds.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from layers import PER_LAYER, Tracer, layer_values  # noqa: E402
from oracle import grid_disk_mass  # noqa: E402
from workloads import (C12_ORACLE, PROBES, WORKLOADS, Check,  # noqa: E402
                       bump_lattice, read_csv_artifact)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def scratch(name):
    path = ROOT / ".perfbench_work" / f"selftest-{name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Names(unittest.TestCase):
    def setUp(self):
        self.bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_names_are_well_formed_and_unique(self):
        names = [w["name"] for w in self.bench["workloads"]]
        names += [m["name"] for m in self.bench["end_to_end"]]
        names += [m["name"] for m in self.bench["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME)
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_json_matches_the_code(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(WORKLOADS))
        self.assertEqual([(m["name"], m["unit"])
                          for m in self.bench["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in self.bench["per_layer"]], PER_LAYER)
        for w in self.bench["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)


class Tracing(unittest.TestCase):
    """Every per-layer metric is recorded by the tracer on small versions
    of the three workloads."""

    def test_every_layer_is_seen(self):
        import ccstruct
        from ccstruct import cli, quadrature, specfile

        work = scratch("trace")
        bumps = work / "bumps.spec"
        bumps.write_text("family = bump_lattice\nbumps = 0,0,1,0.25; "
                         "1,0,0.5,0.25; 0,1,0.5,0.25; -1,-1,0.3,0.25\n")
        radial = work / "radial.spec"
        radial.write_text("family = radial_alpha\nalpha = 0.5\n")
        (work / "grid.csv").write_text("0,1,0\n1,0.5,1\n0,1,0\n")
        grid = work / "grid.spec"
        grid.write_text("family = grid\ngrid_file = grid.csv\n"
                        "origin = -1,-1\ncell_size = 1\n")

        tracer = Tracer()
        tracer.install()
        try:
            field = specfile.load_density_spec(str(grid))
            ccstruct.disk_mass(field, 0.1 + 0.2j, 0.4)
            with self.assertRaises(ccstruct.QuadratureFailure):
                quadrature.polar_sector(field.density, 0j, 0.0, 0.9, 0.0,
                                        6.0, rel_tol=1e-14, max_patches=8)
            with contextlib.redirect_stdout(io.StringIO()):
                for argv in (
                        ["classify", "--density", str(bumps),
                         "--window=0,0,0,0,1", "--delta", "0.4:40:3"],
                        ["volume", "--density", str(radial), "--z", "1,1",
                         "--delta", "0.5", "--n-paths", "1000"]):
                    self.assertEqual(cli.main(argv + ["--out", str(
                        work / "out.txt")]), 0)
        finally:
            tracer.uninstall()
        self.assertFalse(hasattr(cli.main, "__wrapped__"))
        values = layer_values(tracer.summary())
        expected = {name for name, _, _ in PER_LAYER
                    if not name.startswith("trace.")}
        self.assertEqual(set(values), expected)
        unseen = sorted(n for n in expected if not values[n] > 0)
        self.assertEqual(unseen, [])
        spans = tracer.span_table()
        self.assertEqual(len(spans["parent"]), len(spans["start"]))
        self.assertTrue(np.all(spans["end"] >= spans["start"]))


class Checks(unittest.TestCase):
    """A corrupted reference row or a flipped verdict counts as failed."""

    def artifact(self, workload, text):
        path = scratch(workload.name) / f"artifact.{workload.suffix}"
        path.write_text(text)
        return path

    def check_against(self, workload, artifact, reference_text, ops,
                      result=None):
        ref_dir = scratch(workload.name + "-ref")
        ref = ref_dir / workload.reference_path(0).name
        ref.write_text(reference_text)
        saved = type(workload).reference_path
        type(workload).reference_path = lambda self, seed: ref
        try:
            return workload.check({"out": str(artifact), "ops": ops,
                                   "seed": 0}, result or {"exit": 0})
        finally:
            type(workload).reference_path = saved

    def test_csv_reference_row_corruption(self):
        # (workload, column of a checked number in its artifact)
        for name, col in (("volume_radial", "mc_estimate"),
                          ("mass_grid", "mass")):
            w = WORKLOADS[name]
            header, cols, rows = read_csv_artifact(w.reference_path(0))
            n_out = 5 if name == "mass_grid" else len(cols)  # drop oracle

            def csv_text(cols, rows):
                buf = io.StringIO()
                buf.write("\n".join(header) + "\n")
                csv.writer(buf, lineterminator="\n").writerows([cols] + rows)
                return buf.getvalue()

            ref_text = csv_text(cols, rows)
            art = self.artifact(w, csv_text(cols[:n_out],
                                            [r[:n_out] for r in rows]))
            ok = self.check_against(w, art, ref_text, 64)
            self.assertEqual(ok.wrong, 0, ok.notes)
            i = cols.index(col)
            rows[1][i] = repr(float(rows[1][i]) * (1 + 1e-3))
            chk = self.check_against(w, art, csv_text(cols, rows), 64)
            self.assertGreater(chk.failed, ok.failed, name)
            self.assertGreater(chk.wrong, 0, name)

    def test_flipped_verdict(self):
        w = WORKLOADS["classify_bumps"]
        text = w.reference_path(0).read_text()
        doc = json.loads(text)
        # masses at the bracket midpoints satisfy the c12 oracle
        centers, masses, radii = bump_lattice(w.extent)
        mus = []
        for x, y, d in C12_ORACLE:
            dist = np.abs(centers - complex(x, y))
            mus.append(0.5 * (masses[dist + radii <= d].sum()
                              + masses[dist - radii <= d].sum()))
        result = {"exit": 0, "oracle_mu": mus}
        art = self.artifact(w, text)
        ok = self.check_against(w, art, text, 9, result)
        self.assertEqual((ok.failed, ok.wrong), (0, 0), ok.notes)
        doc["report"]["verdict"] = "Quadratic"
        art = self.artifact(w, json.dumps(doc))
        chk = self.check_against(w, art, text, 9, result)
        self.assertEqual((chk.failed, chk.wrong), (9, 9))
        result["oracle_mu"] = [m + 1.0 for m in mus]
        chk = self.check_against(w, self.artifact(w, text), text, 9, result)
        self.assertEqual(chk.failed, 9)

    def test_grid_defect_probe_fails_on_its_last_disk(self):
        # the references of mass_grid_r3 hold the QuadratureFailure of its
        # r >= 3 disk, with the oracle mass a fixed program must match
        w = PROBES["mass_grid_r3"]
        self.assertNotIn(w.name, WORKLOADS)
        for seed in range(10):
            header, cols, rows = read_csv_artifact(w.reference_path(seed))
            self.assertEqual([bool(r[4]) for r in rows],
                             [False, False, False, True])
            self.assertGreaterEqual(float(rows[-1][2]), 3.0)
            self.assertIn("QuadratureFailure", rows[-1][4])
            buf = io.StringIO()   # the artifact: the reference less oracle
            buf.write("\n".join(header) + "\n")
            csv.writer(buf, lineterminator="\n").writerows(
                [r[:5] for r in [cols] + rows])
            chk = w.check({"out": str(self.artifact(w, buf.getvalue())),
                           "ops": 4, "seed": seed}, {"exit": 0})
            self.assertEqual((chk.failed, chk.wrong), (1, 0), chk.notes)

    def test_failure_counts_into_fail_frac(self):
        chk = Check(4)
        chk.fail(1, "raised", wrong=False)
        self.assertEqual((chk.failed, chk.wrong), (1, 0))


class Oracle(unittest.TestCase):
    def test_constant_and_ramp(self):
        ones = np.ones((33, 33))
        mass = grid_disk_mass(complex(-8, -8), 0.5, ones, 0.3 - 0.2j, 2.5)
        self.assertAlmostEqual(mass / (math.pi * 2.5 ** 2), 1.0, places=12)
        ramp = np.tile(-8 + 0.5 * np.arange(33) + 10.0, (33, 1))
        mass = grid_disk_mass(complex(-8, -8), 0.5, ramp, 1 + 2j, 3.0)
        self.assertAlmostEqual(mass / (math.pi * 9 * 11), 1.0, places=12)

    def test_zero_outside_the_grid(self):
        ones = np.ones((3, 3))   # covers [0, 2]^2
        mass = grid_disk_mass(0j, 1.0, ones, 0j, 1.0)
        self.assertAlmostEqual(mass, math.pi / 4, places=12)


class Calibration(unittest.TestCase):
    def test_times_scale_to_the_reference_host(self):
        # a child whose kernel ran at half the reference speed measured
        # its command at twice its reference-host time
        k = 2.0 * run.REFERENCE_S
        rep = run.Rep(False, 0.0, {"t0": 1.0, "t1": 5.0, "t_ready": 0.5,
                                   "kernel_s": [0.5 * k, 1.5 * k]},
                      usage=None, check=None)
        self.assertAlmostEqual(rep.wall * rep.scale, 2.0)


class Runner(unittest.TestCase):
    def test_tail_percentile(self):
        self.assertIsNone(run.tail_percentile(list(range(10))))
        tail = run.tail_percentile(list(range(40)))
        self.assertEqual(tail["value"], 29)
        self.assertEqual(sum(v > tail["value"] for v in range(40)), 10)

    def test_fails_without_the_program(self):
        bare = scratch("bare")
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "volume_radial",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


def tearDownModule():
    for path in (ROOT / ".perfbench_work").glob("selftest-*"):
        shutil.rmtree(path, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
