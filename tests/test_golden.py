"""Golden outputs: CLI artifacts and line-integral values that must stay
byte-identical across refactors.

Each CLI case reruns one command from ``tests/golden`` (so the spec path,
and with it the ``# config`` hash, is the same on every checkout) and
compares the artifact byte for byte, headers included.  The value cases
compare ``twist_many`` (one endpoint a call) and ``boundary_line_integral``
bit for bit, since no CLI artifact runs them; the recorded twists also
lie within 3e-15 relative of the quad reference of ``reference.py``, and
the line integrals within 1e-13 of the reference's integral of |omega|.

To re-record after a deliberate change of output:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import json
import sys
from pathlib import Path

import pytest

from ccstruct.cli import main
from ccstruct.density import (ConstantDensity, PolynomialPotential,
                              RadialAlphaDensity)
from ccstruct.geometry import (Pen, boundary_line_integral, circle_curve,
                               polygon_curve, split_loop_into_seven)
from ccstruct.structure import twist_many

import reference

GOLDEN = Path(__file__).parent / "golden"

#: artifact file -> CLI arguments (run from GOLDEN; ``--out`` is added)
CLI_CASES = {
    "lambda_all_constant.csv": [
        "lambda", "--density", "constant.spec", "--z", "0.5,0.25",
        "--delta", "1:4:3", "--method", "all"],
    "sweep_radial_alpha.csv": [
        "sweep", "--density", "radial_alpha.spec", "--window=-1,-1,1,1,2",
        "--delta", "0.5:2:3"],
    "volume_radial_alpha.csv": [
        "volume", "--density", "radial_alpha.spec", "--z", "1,1",
        "--delta", "0.5:2:3", "--n-paths", "1000"],
    "classify_constant.json": [
        "classify", "--density", "constant.spec", "--window=-2,-2,2,2,2",
        "--delta", "1:100:7"],
    # decaying_bump_lattice(8), the c12 regime on a smaller lattice
    "classify_bump_lattice.json": [
        "classify", "--density", "bump_lattice.spec", "--window=0,0,0,0,1",
        "--delta", "0.4:40:5"],
    # the certified lower bound over a window of the same lattice
    "sweep_stockyard_bump_lattice.csv": [
        "sweep", "--density", "bump_lattice.spec", "--window=-1,-1,1,1,2",
        "--delta", "0.4:4:3", "--method", "stockyard"],
}

#: stdout of ``validate`` (its residuals come from boundary_line_integral)
VALIDATE_FILE = "validate.txt"
VALUES_FILE = "line_integrals.json"


def _run_cli(args, out):
    code = main(args + ["--out", str(out)])
    assert code == 0
    return Path(out).read_bytes()


#: the fields of the value cases, and the (z, w) segments of their twists
FIELDS = {"constant": ConstantDensity(4.0),
          "z4": PolynomialPotential({(2, 2): 1.0}),
          "radial_alpha": RadialAlphaDensity(0.5)}
TWIST_PAIRS = [(0j, 1 + 1j), (1 + 0j, 1j), (0.5 - 0.25j, -2 + 3j),
               (3 + 1j, 3.5 + 1.5j)]


def _curves():
    """The curves of the line-integral value cases, by name."""
    loop = circle_curve(0.3 - 0.2j, 1.1)
    return {"circle": Pen.circle(1 - 1j, 0.7).boundary,
            "circle_far": Pen.circle(4 + 2j, 2.5).boundary,
            "triangle": polygon_curve([0.25 + 0.1j, 2 + 0.5j, 0.5 + 1.5j]),
            "split_piece": split_loop_into_seven(loop)[3]}


def _line_integral_values():
    """(label, value) pairs of twist_many and boundary_line_integral on
    the constant, |z|^4 and radial_alpha fields."""
    out = []
    for fname, field in FIELDS.items():
        for z, w in TWIST_PAIRS:
            out.append((f"twist_many/{fname}/{z}/{w}",
                        float(twist_many(field, z, [w])[0])))
        for cname, curve in _curves().items():
            out.append((f"line/{fname}/{cname}",
                        boundary_line_integral(field, curve)))
    return out


# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_artifact_byte_identical(name, tmp_path, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    got = _run_cli(CLI_CASES[name], tmp_path / name)
    assert got == (GOLDEN / name).read_bytes()


def test_validate_output_identical(monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    assert main(["validate"]) == 0
    assert capsys.readouterr().out == (GOLDEN / VALIDATE_FILE).read_text()


def test_line_integral_values_bitwise():
    want = json.loads((GOLDEN / VALUES_FILE).read_text())
    got = _line_integral_values()
    assert [label for label, _ in got] == [label for label, _ in want]
    for (label, value), (_, ref) in zip(got, want):
        assert value.hex() == ref.hex(), label


def test_twist_values_match_the_reference():
    want = dict(json.loads((GOLDEN / VALUES_FILE).read_text()))
    for fname, field in FIELDS.items():
        for z, w in TWIST_PAIRS:
            got = want[f"twist_many/{fname}/{z}/{w}"]
            assert got == pytest.approx(reference.twist(field, z, w),
                                        rel=3e-15, abs=0.0), (fname, z, w)


def test_line_values_match_the_reference():
    want = dict(json.loads((GOLDEN / VALUES_FILE).read_text()))
    for fname, field in FIELDS.items():
        for cname, curve in _curves().items():
            got = want[f"line/{fname}/{cname}"]
            size = reference.line_integral(field, curve, absolute=True)
            assert abs(got - reference.line_integral(field, curve)) <= (
                1e-13 * size), (fname, cname)


def _record():
    import contextlib
    import io
    import os
    import tempfile

    os.chdir(GOLDEN)
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in CLI_CASES.items():
            data = _run_cli(args, Path(tmp) / name)
            (GOLDEN / name).write_bytes(data)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["validate"]) == 0
    (GOLDEN / VALIDATE_FILE).write_text(buf.getvalue())
    (GOLDEN / VALUES_FILE).write_text(
        json.dumps(_line_integral_values(), indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    _record()
