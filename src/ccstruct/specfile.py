"""Plain-text density spec files.

Sectioned ``key = value`` format, one key per line, ``#`` comments.
Keys:

    family    constant | polynomial | radial_alpha | bump_lattice | grid
    c         constant value (family=constant); c = 0 selects the zero
              test double
    alpha     exponent (family=radial_alpha)
    coeffs    semicolon-separated quadruples j,k,re,im, j and k at most
              64 (family=polynomial)
    bumps     semicolon-separated quadruples x,y,mass,radius
    grid_file path to a CSV of node values (family=grid)
    origin    x,y of the grid origin
    cell_size grid spacing
    extension zero | periodic

A key that its family does not read is refused.  Parse errors report
1-based line numbers.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from .density import (BumpLattice, ConstantDensity, GridDensity,
                      PolynomialPotential, RadialAlphaDensity, ZeroDensity)
from .errors import DensitySpecError

#: the keys each family reads, besides ``family``
_FAMILY_KEYS = {"constant": {"c"}, "radial_alpha": {"alpha"},
                "polynomial": {"coeffs"}, "bump_lattice": {"bumps"},
                "grid": {"grid_file", "origin", "cell_size", "extension"}}


def _parse_lines(text):
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DensitySpecError(f"expected 'key = value', got {raw!r}",
                                   line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key in entries:
            raise DensitySpecError(f"duplicate key {key!r}", line=lineno)
        entries[key] = (value, lineno)
    return entries


def _need(entries, key):
    if key not in entries:
        raise DensitySpecError(f"missing required key {key!r}")
    return entries[key]


def _float(value, lineno, key):
    try:
        x = float(value)
    except ValueError:
        raise DensitySpecError(f"key {key!r}: not a number: {value!r}",
                               line=lineno) from None
    if not math.isfinite(x):
        raise DensitySpecError(f"key {key!r}: not finite: {value!r}",
                               line=lineno)
    return x


def _tuples(value, lineno, key, width):
    out = []
    for item in value.split(";"):
        item = item.strip()
        if not item:
            continue
        parts = [p.strip() for p in item.split(",")]
        if len(parts) != width:
            raise DensitySpecError(
                f"key {key!r}: expected {width} comma-separated numbers "
                f"per entry, got {item!r}", line=lineno)
        out.append([_float(p, lineno, key) for p in parts])
    if not out:
        raise DensitySpecError(f"key {key!r}: no entries", line=lineno)
    return out


def _build(family, lineno, *args):
    """``family(*args)``, its ValueError raised as a DensitySpecError at
    ``lineno``."""
    try:
        return family(*args)
    except ValueError as exc:
        raise DensitySpecError(str(exc), line=lineno) from None


def load_density_spec(path):
    """Build a density field from a spec file."""
    path = Path(path)
    if not path.exists():
        raise DensitySpecError(f"density spec file not found: {path}")
    entries = _parse_lines(path.read_text())
    family, fam_line = _need(entries, "family")
    if family not in _FAMILY_KEYS:
        raise DensitySpecError(f"unknown family {family!r}", line=fam_line)
    for key, (_, lineno) in entries.items():
        if key != "family" and key not in _FAMILY_KEYS[family]:
            raise DensitySpecError(
                f"unknown key {key!r} for family {family!r}", line=lineno)

    if family == "constant":
        value, lineno = _need(entries, "c")
        c = _float(value, lineno, "c")
        if c == 0.0:
            return ZeroDensity()
        if c < 0.0:
            raise DensitySpecError("constant density must be non-negative",
                                   line=lineno)
        return ConstantDensity(c)

    if family == "radial_alpha":
        value, lineno = _need(entries, "alpha")
        alpha = _float(value, lineno, "alpha")
        return _build(RadialAlphaDensity, lineno, alpha)

    if family == "polynomial":
        value, lineno = _need(entries, "coeffs")
        coeffs = {}
        for j, k, re, im in _tuples(value, lineno, "coeffs", 4):
            if j != int(j) or k != int(k) or j < 0 or k < 0:
                raise DensitySpecError(
                    "coeffs: j and k must be non-negative integers",
                    line=lineno)
            coeffs[(int(j), int(k))] = complex(re, im)
        return _build(PolynomialPotential, lineno, coeffs)

    if family == "bump_lattice":
        value, lineno = _need(entries, "bumps")
        rows = _tuples(value, lineno, "bumps", 4)
        centers = [complex(x, y) for x, y, _, _ in rows]
        masses = [m for _, _, m, _ in rows]
        radii = [r for _, _, _, r in rows]
        return _build(BumpLattice, lineno, centers, masses, radii)

    # family == "grid"
    value, lineno = _need(entries, "grid_file")
    grid_path = Path(value)
    if not grid_path.is_absolute():
        grid_path = path.parent / grid_path
    if not grid_path.exists():
        raise DensitySpecError(f"grid_file not found: {grid_path}",
                               line=lineno)
    with open(grid_path, newline="") as fh:
        reader = csv.reader(fh)
        values = []
        try:
            for row in filter(None, reader):
                values.append([float(cell) for cell in row])
                if len(row) != len(values[0]):
                    raise ValueError(f"{len(row)} values where the first "
                                     f"row has {len(values[0])}")
        except ValueError as exc:
            raise DensitySpecError(
                f"{grid_path}, line {reader.line_num}: {exc}") from None
    ov, ol = _need(entries, "origin")
    parts = [p.strip() for p in ov.split(",")]
    if len(parts) != 2:
        raise DensitySpecError("origin must be 'x,y'", line=ol)
    origin = complex(_float(parts[0], ol, "origin"),
                     _float(parts[1], ol, "origin"))
    cv, cl = _need(entries, "cell_size")
    cell = _float(cv, cl, "cell_size")
    extension = "zero"
    if "extension" in entries:
        extension, el = entries["extension"]
        if extension not in ("zero", "periodic"):
            raise DensitySpecError(
                "extension must be 'zero' or 'periodic'", line=el)
    return _build(GridDensity, None, origin, cell, np.asarray(values),
                  extension)
