"""Command-line interface: exit codes, output format, determinism."""

import json
import math
import warnings

import pytest

from ccstruct import geometry, structure
from ccstruct.cli import main
from ccstruct.errors import QuadratureFailure

CONSTANT_SPEC = "family = constant\nc = 4\n"
ZERO_SPEC = "family = constant\nc = 0\n"
ALPHA_SPEC = "family = radial_alpha\nalpha = 0.5\n"


@pytest.fixture
def constant_spec(tmp_path):
    p = tmp_path / "constant.spec"
    p.write_text(CONSTANT_SPEC)
    return str(p)


def read_rows(path):
    lines = [ln for ln in path.read_text().splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


# ---------------------------------------------------------------------------

def test_lambda_constant_value(tmp_path, constant_spec):
    out = tmp_path / "out.csv"
    code = main(["lambda", "--density", constant_spec, "--z", "0,0",
                 "--delta", "2", "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 1
    assert float(rows[0]["value_sup"]) == pytest.approx(16 * math.pi,
                                                        rel=1e-6)


def test_lambda_missing_spec_exit_2(tmp_path, capsys):
    code = main(["lambda", "--density", str(tmp_path / "nope.spec"),
                 "--z", "0,0", "--delta", "1"])
    assert code == 2
    assert "nope.spec" in capsys.readouterr().err


def test_lambda_method_all_direct_below_sup(tmp_path):
    spec = tmp_path / "alpha.spec"
    spec.write_text(ALPHA_SPEC)
    out = tmp_path / "out.csv"
    code = main(["lambda", "--density", str(spec), "--z", "1,0",
                 "--delta", "1:4:3", "--method", "all", "--out", str(out)])
    assert code == 0
    for row in read_rows(out):
        assert float(row["value_direct"]) <= float(row["value_sup"]) + 1e-9


def test_lambda_failing_method_row(tmp_path, constant_spec, monkeypatch):
    # one failing method leaves nan in its column and its message in
    # the row's error, keeps the other methods' values, and exits 3
    def fail(*args, **kwargs):
        raise QuadratureFailure("injected stockyard failure")

    monkeypatch.setattr(structure, "lambda_stockyard", fail)
    out = tmp_path / "out.csv"
    code = main(["lambda", "--density", constant_spec, "--z", "0.5,0",
                 "--delta", "2", "--method", "all", "--out", str(out)])
    assert code == 3
    (row,) = read_rows(out)
    assert row["value_stockyard"] == "nan"
    assert row["error"] == "QuadratureFailure: injected stockyard failure"
    assert math.isfinite(float(row["value_sup"]))
    assert math.isfinite(float(row["value_direct"]))


def test_output_has_version_and_config_header(tmp_path, constant_spec):
    out = tmp_path / "out.csv"
    main(["lambda", "--density", constant_spec, "--z", "0,0",
          "--delta", "1", "--out", str(out)])
    head = out.read_text().splitlines()[:2]
    assert head[0].startswith("# ccstruct ")
    assert head[1].startswith("# config ")


def test_bad_delta_exit_2(constant_spec, capsys):
    for delta in ("-1", "nan", "inf", "1:nan:3", "1:inf:3", "nan:2:3",
                  "1:1.0000000000000002:3"):
        assert main(["lambda", "--density", constant_spec, "--z", "0,0",
                     "--delta", delta]) == 2, delta


def test_nonfinite_z_and_window_exit_2(constant_spec):
    assert main(["lambda", "--density", constant_spec, "--z", "nan,0",
                 "--delta", "1"]) == 2
    for window in ("0,0,inf,1,2", "1,0,0,1,2", "0,0,1,1,0"):
        assert main(["sweep", "--density", constant_spec,
                     "--window", window, "--delta", "1"]) == 2, window


def test_nonfinite_value_exit_3(tmp_path, constant_spec):
    # c pi delta^2 overflows at delta = 1e200: the row carries the error
    # and the command exits 3, in seconds, with no overflow warning
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["lambda", "--density", constant_spec, "--z", "0,0",
                     "--delta", "1e200", "--out", str(out)])
        assert main(["volume", "--density", constant_spec, "--z", "0,0",
                     "--delta", "1e200", "--n-paths", "1000"]) == 3
    assert code == 3
    (row,) = read_rows(out)
    assert row["value_sup"] == "nan"
    assert row["error"].startswith(
        "CCStructError: disk mass of constant field is inf")


def test_polynomial_overflow_exit_3(tmp_path):
    # r^4 of the |z|^4 field's disk mass overflows at delta = 1e100: the
    # mass is inf, not a traceback or a warning, and it becomes a row
    # error and exit 3, as for the constant field
    spec = tmp_path / "z4.spec"
    spec.write_text("family = polynomial\ncoeffs = 2,2,1,0\n")
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["lambda", "--density", str(spec), "--z", "0,0",
                     "--delta", "1e100", "--out", str(out)])
        assert main(["volume", "--density", str(spec), "--z", "0,0",
                     "--delta", "1e100", "--n-paths", "1000"]) == 3
    assert code == 3
    (row,) = read_rows(out)
    assert row["value_sup"] == "nan"
    assert row["error"].startswith(
        "CCStructError: disk mass of polynomial field is inf")


@pytest.mark.parametrize("coeffs", [
    # (a + 1) (a!)^2 of the disk-mass series leaves the float range
    "1,1,1,0; 120,120,1e-300,0",
    # a coefficient table of 14.6 TiB
    "1000000,1000000,1,0",
])
def test_polynomial_degree_above_bound_exit_2(tmp_path, coeffs, capsys):
    spec = tmp_path / "poly.spec"
    spec.write_text(f"family = polynomial\ncoeffs = {coeffs}\n")
    code = main(["lambda", "--density", str(spec), "--z", "0,0",
                 "--delta", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 2: exponent" in err and "Traceback" not in err


def test_periodic_grid_huge_delta_exit_3(tmp_path, capsys):
    # the rungs whose disks meet too many lattice lines raise: a row error
    # and exit 3, not a MemoryError's traceback
    (tmp_path / "grid.csv").write_text("1,2,1\n0.5,1,0.5\n1,2,1\n")
    spec = tmp_path / "grid.spec"
    spec.write_text("family = grid\ngrid_file = grid.csv\norigin = -1,-1\n"
                    "cell_size = 2\nextension = periodic\n")
    out = tmp_path / "out.csv"
    code = main(["lambda", "--density", str(spec), "--z", "0,0",
                 "--delta", "1e12", "--out", str(out)])
    assert code == 3
    (row,) = read_rows(out)
    assert row["value_sup"] == "nan"
    assert row["error"].startswith("QuadratureFailure: periodic grid disk")
    assert "Traceback" not in capsys.readouterr().err


def test_zero_density_huge_delta_all_methods(tmp_path):
    # the direct sampler's polygons span ~1e200, whose triangle areas
    # overflow: each is dropped at once, and every method gives 0
    spec = tmp_path / "zero.spec"
    spec.write_text(ZERO_SPEC)
    out = tmp_path / "out.csv"
    code = main(["lambda", "--density", str(spec), "--z", "0,0",
                 "--delta", "1e200", "--method", "all", "--out", str(out)])
    assert code == 0
    (row,) = read_rows(out)
    assert [float(row[f"value_{m}"]) for m in
            ("sup", "stockyard", "direct")] == [0.0, 0.0, 0.0]


def test_volume_too_few_paths_exit_2(constant_spec, capsys):
    assert main(["volume", "--density", constant_spec, "--z", "0,0",
                 "--delta", "1", "--n-paths", "999"]) == 2
    assert "--n-paths" in capsys.readouterr().err


#: each subcommand's arguments, and the options it does not read
UNREAD_FLAGS = {
    "lambda": (["--z", "0,0", "--delta", "1"], ["--jobs=2", "--tol=9"]),
    "sweep": (["--window=0,0,1,1,2", "--delta", "1"],
              ["--jobs=2", "--tol=9"]),
    "classify": (["--window=0,0,1,1,2", "--delta", "1"],
                 ["--seed=5", "--jobs=2", "--format=csv", "--tol=9",
                  "--slope-tol=0.15", "--spread-tol=0.3"]),
    "volume": (["--z", "0,0", "--delta", "1", "--n-paths", "1000"],
               ["--jobs=2", "--tol=9"]),
    "validate": (None, ["--density=nope.spec", "--seed=5", "--jobs=2",
                        "--out=report.txt", "--format=csv",
                        "--inject-orientation-flip"]),
}


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, (_, flags) in UNREAD_FLAGS.items()
    for flag in flags])
def test_unread_flag_refused(command, flag, constant_spec, capsys):
    args, _ = UNREAD_FLAGS[command]
    argv = [command] + ([] if args is None
                        else ["--density", constant_spec] + args)
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag])
    assert exc.value.code == 2
    assert flag.split("=")[0] in capsys.readouterr().err


@pytest.mark.parametrize("command,args", [
    ("lambda", ["--z", "0,0", "--delta", "1", "--method", "direct"]),
    ("sweep", ["--window=0,0,1,1,2", "--delta", "1", "--method", "direct"]),
    ("volume", ["--z", "0,0", "--delta", "1", "--n-paths", "1000"])])
def test_negative_seed_refused_at_parse_exit_2(command, args, constant_spec,
                                               capsys):
    # numpy seeds are non-negative: a negative one is a configuration
    # error before any work, not a traceback or an error row
    with pytest.raises(SystemExit) as exc:
        main([command, "--density", constant_spec, *args, "--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_direct_sampler_small_delta(tmp_path, constant_spec):
    out = tmp_path / "out.csv"
    code = main(["lambda", "--density", constant_spec, "--z", "0,0",
                 "--delta", "0.01", "--method", "all", "--out", str(out)])
    assert code == 0
    row = read_rows(out)[0]
    assert float(row["value_direct"]) <= float(row["value_sup"])


def test_sweep_schema_and_determinism(tmp_path, constant_spec):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "--density", constant_spec, "--window", "0,0,1,1,2",
            "--delta", "1:4:2", "--seed", "7"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = [ln for ln in out1.read_text().splitlines()
              if not ln.startswith("#")][0]
    assert header == ("re(z),im(z),delta,method,value,"
                      "witness_re,witness_im,witness_radius")


@pytest.mark.parametrize("command,args", [
    ("lambda", ["--z", "1,0", "--delta", "1:4:2", "--method", "all"]),
    ("sweep", ["--window=0,0,1,1,2", "--delta", "1:4:2"]),
    ("volume", ["--z", "0,0", "--delta", "1:2:2", "--n-paths", "1000"]),
])
def test_json_rows_are_the_csv_rows(tmp_path, constant_spec, command, args):
    # --format json writes the CSV table's rows: the same columns and,
    # through the CSV's lossless cell format, the same values
    from ccstruct.cli import _fmt
    csv_out, json_out = tmp_path / "out.csv", tmp_path / "out.json"
    argv = [command, "--density", constant_spec, *args, "--seed", "3"]
    assert main(argv + ["--out", str(csv_out)]) == 0
    assert main(argv + ["--format", "json", "--out", str(json_out)]) == 0
    rows = json.loads(json_out.read_text())["rows"]
    assert len(rows) > 1
    assert [{k: _fmt(v) for k, v in row.items()}
            for row in rows] == read_rows(csv_out)


def test_classify_constant_quadratic(tmp_path, constant_spec, capsys):
    out = tmp_path / "report.json"
    code = main(["classify", "--density", constant_spec,
                 "--window=-1,-1,1,1,2", "--delta", "1:100:6",
                 "--out", str(out)])
    assert code == 0
    assert "Quadratic" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["report"]["verdict"] == "Quadratic"
    assert doc["tool"].startswith("ccstruct ")


def test_grid_periodic_classify_and_sweep(tmp_path, capsys):
    # a periodic grid is the paper's uniform global structure; its last
    # row and column repeat the first, so the density is continuous
    (tmp_path / "grid.csv").write_text("1,2,1\n0.5,1,0.5\n1,2,1\n")
    spec = tmp_path / "grid.spec"
    spec.write_text("family = grid\ngrid_file = grid.csv\norigin = -1,-1\n"
                    "cell_size = 2\nextension = periodic\n")
    report = tmp_path / "report.json"
    code = main(["classify", "--density", str(spec), "--window=-1,-1,1,1,3",
                 "--delta", "0.2:20:3", "--out", str(report)])
    assert code == 0
    assert "Quadratic" in capsys.readouterr().out
    assert json.loads(report.read_text())["report"]["verdict"] == "Quadratic"
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--density", str(spec), "--window=0,0,0,0,1",
                 "--delta", "0.2:20:3", "--method", "sup", "--out", str(out)])
    assert code == 0
    values = [float(row["value"]) for row in read_rows(out)]
    assert len(values) == 3 and values == sorted(values) and values[0] > 0


def test_classify_tiny_ladder_inconclusive(tmp_path, constant_spec, capsys):
    code = main(["classify", "--density", constant_spec,
                 "--window=-1,-1,1,1,2", "--delta", "2"])
    assert code == 0
    assert "Inconclusive" in capsys.readouterr().out


def test_volume_zero_density(tmp_path):
    spec = tmp_path / "zero.spec"
    spec.write_text(ZERO_SPEC)
    out = tmp_path / "vol.csv"
    code = main(["volume", "--density", str(spec), "--z", "0,0",
                 "--delta", "1", "--n-paths", "1000", "--out", str(out)])
    assert code == 0
    row = read_rows(out)[0]
    assert float(row["lower"]) == 0.0
    assert float(row["mc_estimate"]) == pytest.approx(0.0, abs=1e-200)


def test_volume_constant_in_sandwich(tmp_path, constant_spec):
    out = tmp_path / "vol.csv"
    code = main(["volume", "--density", constant_spec, "--z", "0,0",
                 "--delta", "1", "--n-paths", "2000", "--out", str(out)])
    assert code == 0
    assert read_rows(out)[0]["in_sandwich"] == "true"


def test_validate_default_passes(capsys):
    assert main(["validate"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_validate_orientation_flip_fails(monkeypatch, capsys):
    # a line integral of the wrong orientation breaks the Green identity
    line_integral = geometry.boundary_line_integral
    monkeypatch.setattr(geometry, "boundary_line_integral",
                        lambda field, curve: -line_integral(field, curve))
    assert main(["validate"]) == 1
    assert "green_identity" in capsys.readouterr().out


def test_validate_zero_tolerance_fails(capsys):
    # degenerate tolerance: the residual report must flag the identities
    assert main(["validate", "--tol", "0"]) == 1
    assert "residual" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_validate_bad_tolerance_exit_2(tol, capsys):
    # a residual limit that is negative or not finite is a bad option, not
    # a failed identity
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--tol", tol])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# start-up

_SCIPY_PROBE = """
import json, sys
from pathlib import Path

import ccstruct.cli
from ccstruct import SupOptions, lambda_sup, load_density_spec


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


seen = {"import": scipy_modules()}
opts = SupOptions(n_rungs=3, grid=5, n_polish=2, polish_maxiter=20)
for spec in sys.argv[1:]:
    field = load_density_spec(spec)
    lambda_sup(field, 0.5 + 0.25j, 1.5, opts)
    seen[Path(spec).stem] = scipy_modules()
print(json.dumps(seen))
"""


def test_startup_loads_no_scipy(tmp_path):
    # scipy is a set-up cost of about a second: importing the CLI, running
    # the polish and building any of these fields (a bump lattice's cell
    # list included) must not load it
    import os
    import subprocess
    import sys

    import ccstruct

    (tmp_path / "vals.csv").write_text("1,2,1\n0.5,1,0.5\n1,2,1\n")
    specs = {
        "radial": ALPHA_SPEC,
        "grid": ("family = grid\ngrid_file = vals.csv\norigin = -1,-1\n"
                 "cell_size = 1\nextension = periodic\n"),
        "polynomial": "family = polynomial\ncoeffs = 1,1,1,0; 2,2,0.5,0\n",
        "bumps": "family = bump_lattice\nbumps = 0,0,1,0.25; 1,0,0.5,0.25\n",
    }
    for name, text in specs.items():
        (tmp_path / f"{name}.spec").write_text(text)
    src = os.path.dirname(os.path.dirname(ccstruct.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE]
        + [str(tmp_path / f"{name}.spec") for name in specs],
        env=env, capture_output=True, text=True, check=True).stdout
    seen = json.loads(out)
    for step in ("import", "radial", "grid", "polynomial", "bumps"):
        assert seen[step] == [], step


_NUMPY_MA_PROBE = """
import json, sys

from ccstruct.cli import main

seen = {}
for args in json.loads(sys.argv[1]):
    if main(args) != 0:
        sys.exit(f"{args[0]} failed")
    seen[args[0]] = "numpy.ma" in sys.modules
print(json.dumps(seen))
"""


def test_commands_load_no_numpy_ma(tmp_path):
    # numpy.ma costs 10-17 ms and about 1 MB to import; np.median and a
    # plain np.unique load it on their first call, so the commands avoid
    # both
    import os
    import subprocess
    import sys

    import ccstruct

    bumps = tmp_path / "bumps.spec"
    bumps.write_text("family = bump_lattice\n"
                     "bumps = 0,0,1,0.25; 1,0,0.5,0.25\n")
    radial = tmp_path / "radial.spec"
    radial.write_text(ALPHA_SPEC)
    commands = [
        ["classify", "--density", str(bumps), "--window=0,0,0,0,1",
         "--delta", "0.4:40:3", "--out", str(tmp_path / "classify.json")],
        ["volume", "--density", str(radial), "--z", "1,1", "--delta",
         "0.5:2:2", "--n-paths", "1000", "--out", str(tmp_path / "vol.csv")],
        ["sweep", "--density", str(bumps), "--window=0,0,1,1,2", "--delta",
         "0.4:4:2", "--out", str(tmp_path / "sweep.csv")],
    ]
    src = os.path.dirname(os.path.dirname(ccstruct.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _NUMPY_MA_PROBE, json.dumps(commands)],
        env=env, capture_output=True, text=True, check=True).stdout
    # the commands print their summaries first
    seen = json.loads(out.splitlines()[-1])
    assert seen == {"classify": False, "volume": False, "sweep": False}
