"""Density spec file parsing: families, errors with line numbers."""

import pytest

from ccstruct.density import (BumpLattice, ConstantDensity, GridDensity,
                              PolynomialPotential, RadialAlphaDensity,
                              ZeroDensity)
from ccstruct.errors import DensitySpecError
from ccstruct.specfile import load_density_spec


def write(tmp_path, text, name="field.spec"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_constant_spec(tmp_path):
    f = load_density_spec(write(tmp_path, "family = constant\nc = 4\n"))
    assert isinstance(f, ConstantDensity) and f.c == 4.0


def test_zero_spec(tmp_path):
    f = load_density_spec(write(tmp_path, "family = constant\nc = 0\n"))
    assert isinstance(f, ZeroDensity)


def test_radial_alpha_spec(tmp_path):
    f = load_density_spec(write(tmp_path,
                                "# example 1.5 family\n"
                                "family = radial_alpha\nalpha = 0.5\n"))
    assert isinstance(f, RadialAlphaDensity) and f.alpha == 0.5


def test_polynomial_spec(tmp_path):
    text = "family = polynomial\ncoeffs = 1,1,1,0; 2,2,0.5,0\n"
    f = load_density_spec(write(tmp_path, text))
    assert isinstance(f, PolynomialPotential)
    assert f.coeffs[1, 1] == 1.0 and f.coeffs[2, 2] == 0.5


def test_bump_lattice_spec(tmp_path):
    text = "family = bump_lattice\nbumps = 0,0,1,0.25; 1,0,0.5,0.25\n"
    f = load_density_spec(write(tmp_path, text))
    assert isinstance(f, BumpLattice)


def test_grid_spec(tmp_path):
    (tmp_path / "vals.csv").write_text("0,1\n2,3\n")
    text = ("family = grid\ngrid_file = vals.csv\n"
            "origin = 0,0\ncell_size = 1\nextension = zero\n")
    f = load_density_spec(write(tmp_path, text))
    assert isinstance(f, GridDensity)


def test_missing_file():
    with pytest.raises(DensitySpecError):
        load_density_spec("/no/such/file.spec")


def test_unknown_key_reports_line(tmp_path):
    with pytest.raises(DensitySpecError) as err:
        load_density_spec(write(tmp_path, "family = constant\nbogus = 1\n"))
    assert err.value.line == 2


@pytest.mark.parametrize("text,line", [
    ("family = constant\nc = 4\nalpha = 0.5\n", 3),
    ("family = radial_alpha\nc = 4\nalpha = 0.5\n", 2),
    ("family = bump_lattice\nextension = zero\n"
     "bumps = 0,0,1,0.25\n", 2),
])
def test_key_its_family_does_not_read_is_refused(tmp_path, text, line):
    # a key of another family is not ignored: it is refused at its line
    with pytest.raises(DensitySpecError, match="unknown key") as err:
        load_density_spec(write(tmp_path, text))
    assert err.value.line == line


def test_bad_number_reports_line(tmp_path):
    with pytest.raises(DensitySpecError) as err:
        load_density_spec(write(tmp_path, "family = constant\nc = many\n"))
    assert err.value.line == 2


def test_nonfinite_bump_center_rejected(tmp_path):
    with pytest.raises(DensitySpecError):
        load_density_spec(write(tmp_path, "family = bump_lattice\n"
                                          "bumps = nan,0,1,0.25\n"))


def test_duplicate_key_rejected(tmp_path):
    with pytest.raises(DensitySpecError):
        load_density_spec(write(tmp_path, "family = constant\nc = 1\nc = 2\n"))


def test_unknown_family_rejected(tmp_path):
    with pytest.raises(DensitySpecError):
        load_density_spec(write(tmp_path, "family = fractal\n"))


def test_negative_constant_rejected(tmp_path):
    with pytest.raises(DensitySpecError):
        load_density_spec(write(tmp_path, "family = constant\nc = -1\n"))


@pytest.mark.parametrize("text", [
    "family = constant\nc = nan\n",
    "family = constant\nc = inf\n",
    "family = bump_lattice\nbumps = 0,0,inf,0.25\n",
    "family = bump_lattice\nbumps = 0,0,1,nan\n",
])
def test_nonfinite_number_rejected(tmp_path, text):
    with pytest.raises(DensitySpecError) as err:
        load_density_spec(write(tmp_path, text))
    assert err.value.line == 2


@pytest.mark.parametrize("csv_text,message", [
    ("0,1\n2,abc\n", "line 2"),
    ("0,1,2\n", "2 x 2"),
    ("0\n1\n", "2 x 2"),
    ("0,1\n2,nan\n", "finite"),
    # a ragged table: refused at its short row, not by numpy
    ("0,1\n2\n", "line 2: 1 values where the first row has 2"),
])
def test_bad_grid_rejected(tmp_path, csv_text, message):
    (tmp_path / "vals.csv").write_text(csv_text)
    text = "family = grid\ngrid_file = vals.csv\norigin = 0,0\ncell_size = 1\n"
    with pytest.raises(DensitySpecError, match=message):
        load_density_spec(write(tmp_path, text))
