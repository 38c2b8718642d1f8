"""Command-line frontend.

Subcommands: ``lambda`` (structure estimates at points), ``sweep``
(estimator over a window), ``classify`` (UGS dichotomy probe),
``volume`` (ball-volume sandwich + Monte Carlo), ``validate``
(self-check identity suite).

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 numeric failure.  Each subcommand takes only the options it reads.
Output files embed a tool-version line and a hash of those options
(``--out`` excepted), and are byte-identical for identical configuration
and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__, ccpath, classify, density, geometry, structure
from .errors import CCStructError, DensitySpecError
from .specfile import load_density_spec

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _fmt(x):
    """Floating-point cell at 17 significant digits (lossless)."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return format(x, ".17g")
    return str(x)


class ConfigError(Exception):
    pass


def _check_finite(flag, text, values):
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"--{flag} must be finite, got {text!r}")


def _parse_z(text):
    try:
        re_, im_ = (float(p) for p in text.split(","))
    except ValueError:
        raise ConfigError(f"--z expects 're,im', got {text!r}") from None
    _check_finite("z", text, (re_, im_))
    return complex(re_, im_)


def _parse_deltas(text):
    """Either a single value or a geometric ladder 'a:b:n'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"--delta ladder expects 'a:b:n', got {text!r}")
        try:
            a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigError(f"--delta ladder expects numbers: {text!r}") from None
        _check_finite("delta", text, (a, b))
        if a <= 0 or b <= a or n < 2:
            raise ConfigError("--delta ladder needs 0 < a < b and n >= 2")
        ladder = [float(d) for d in np.geomspace(a, b, n)]
        if any(e <= d for d, e in zip(ladder, ladder[1:])):
            raise ConfigError(f"--delta ladder {text!r} repeats a value")
        return ladder
    try:
        d = float(text)
    except ValueError:
        raise ConfigError(f"--delta expects a number or ladder, got {text!r}") from None
    _check_finite("delta", text, (d,))
    if d <= 0:
        raise ConfigError("--delta must be positive")
    return [d]


def _parse_window(text):
    parts = text.split(",")
    if len(parts) != 5:
        raise ConfigError(f"--window expects 'x0,y0,x1,y1,n', got {text!r}")
    try:
        x0, y0, x1, y1 = (float(p) for p in parts[:4])
        n = int(parts[4])
    except ValueError:
        raise ConfigError(f"--window expects numbers: {text!r}") from None
    try:
        return structure.Window(x0, y0, x1, y1, n)
    except ValueError as exc:
        raise ConfigError(f"--window: {exc}") from None


def _seed(text):
    """A --seed value: a non-negative integer, as numpy seeds take."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects an integer, got {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(
            f"must be non-negative, got {text!r}")
    return seed


def _tol(text):
    """A --tol value: a finite residual limit, 0 asking for exact
    identities."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects a number, got {text!r}") from None
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(
            f"must be non-negative and finite, got {text!r}")
    return tol


def _config_hash(args):
    payload = sorted((k, repr(v)) for k, v in vars(args).items()
                     if k not in ("func", "out"))
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def _write(args, text):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_json(args, payload):
    doc = {"tool": f"ccstruct {__version__}",
           "config": _config_hash(args),
           **payload}
    _write(args, json.dumps(doc, indent=2, sort_keys=True, allow_nan=True)
           + "\n")


def _write_rows(args, columns, rows):
    """The table as CSV, or as JSON under ``--format json``."""
    if args.format == "json":
        _write_json(args, {"rows": [dict(zip(columns, r)) for r in rows]})
        return
    lines = [f"# ccstruct {__version__}", f"# config {_config_hash(args)}",
             ",".join(columns)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    _write(args, "\n".join(lines) + "\n")


def _load_field(args):
    try:
        return load_density_spec(args.density)
    except DensitySpecError as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------

def cmd_lambda(args):
    field = _load_field(args)
    z = _parse_z(args.z)
    deltas = _parse_deltas(args.delta)
    methods = (["sup", "stockyard", "direct"] if args.method == "all"
               else [args.method])
    # one single-point sweep per method, pivoted to a row per delta whose
    # error is the last failing method's
    point = structure.Window(z.real, z.imag, z.real, z.imag, 1)
    runs = [structure.lambda_sweep(field, point, deltas, method=m,
                                   seed=args.seed) for m in methods]
    columns = (["re(z)", "im(z)", "delta"] + [f"value_{m}" for m in methods]
               + ["error"])
    rows = [[z.real, z.imag, cells[0].delta] + [c.value for c in cells]
            + [next((c.error for c in reversed(cells) if c.error), "")]
            for cells in zip(*runs)]
    _write_rows(args, columns, rows)
    return EXIT_NUMERIC if any(row[-1] for row in rows) else EXIT_OK


def cmd_sweep(args):
    field = _load_field(args)
    window = _parse_window(args.window)
    deltas = _parse_deltas(args.delta)
    rows_out = structure.lambda_sweep(field, window, deltas,
                                      method=args.method, seed=args.seed)
    columns = ["re(z)", "im(z)", "delta", "method", "value",
               "witness_re", "witness_im", "witness_radius"]
    rows = [[r.z.real, r.z.imag, r.delta, r.method, r.value,
             r.witness_center.real, r.witness_center.imag, r.witness_radius]
            for r in rows_out]
    _write_rows(args, columns, rows)
    if any(r.error for r in rows_out):
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_classify(args):
    field = _load_field(args)
    window = _parse_window(args.window)
    deltas = _parse_deltas(args.delta)
    report = classify.dichotomy_probe(field, window, deltas)
    _write_json(args, {"report": report.as_dict()})
    print(report.verdict)
    return EXIT_OK


def cmd_volume(args):
    if args.n_paths < ccpath.MIN_PATHS:
        raise ConfigError(f"--n-paths must be at least {ccpath.MIN_PATHS}")
    field = _load_field(args)
    z = _parse_z(args.z)
    deltas = _parse_deltas(args.delta)
    columns = ["re(z)", "im(z)", "delta", "lower", "upper",
               "mc_estimate", "mc_lo", "mc_hi", "in_sandwich"]
    rows = []
    # every delta's searches in one polish
    structure.prime_lambda_sup(field, [
        cell for d in deltas for cell in structure.volume_search_cells(z, d)])
    for d in deltas:
        try:
            lower, upper = structure.volume_estimate(field, z, d)
            est, (blo, bhi) = ccpath.ball_volume_mc(
                field, z, 0.0, d, n_paths=args.n_paths, seed=args.seed)
        except CCStructError as exc:
            print(f"numeric failure at delta={d}: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        rows.append([z.real, z.imag, d, lower, upper, est, blo, bhi,
                     lower <= est <= upper])
    _write_rows(args, columns, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# self-validation suite

def _validate_checks(tol):
    """The internal identity suite.  Yields (name, residual, limit)."""
    rng = np.random.default_rng(12345)
    fields = [
        density.ConstantDensity(4.0),
        density.PolynomialPotential({(1, 1): 1.0, (2, 2): 1.0}),
        density.RadialAlphaDensity(0.5),
    ]

    # Green identity on random circular pens
    worst = 0.0
    for field in fields:
        for _ in range(6):
            c = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            r = rng.uniform(0.3, 2.0)
            pen = geometry.Pen.circle(c, r)
            mass = geometry.pen_mass(field, pen)
            line = geometry.boundary_line_integral(field, pen.boundary)
            worst = max(worst, abs(line - mass) / max(abs(mass), 1e-12))
    yield ("green_identity_circles", worst, tol)

    # packing bound
    worst = 0.0
    for _ in range(20):
        a = rng.uniform(0.05, 1.0)
        b = a * rng.uniform(1.0, 30.0)
        centers = geometry.pack_disks(b, a)
        need = b * b / (16.0 * a * a)
        if len(centers) < need:
            worst = max(worst, need - len(centers))
    yield ("packing_count_bound", worst, 0.0)

    # seven-curve split mass conservation
    field = fields[1]
    worst = 0.0
    for _ in range(6):
        c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        r = rng.uniform(0.5, 1.5)
        loop = geometry.circle_curve(c, r)
        total = geometry.boundary_line_integral(field, loop)
        parts = sum(geometry.boundary_line_integral(field, piece)
                    for piece in geometry.split_loop_into_seven(loop))
        worst = max(worst, abs(parts - total) / max(abs(total), 1e-12))
    yield ("seven_curve_split", worst, tol)

    # sandwich: stockyard lower vs sup proxy
    worst = 0.0
    cells = [(0.3 + 0.1j, 1.0), (0.3 + 0.1j, 5.0)]
    for field in fields:
        structure.prime_lambda_sup(field, cells)
        for z, d in cells:
            sup = structure.lambda_sup(field, z, d)
            low = structure.lambda_stockyard(field, z, d)
            if sup.value > 0:
                worst = max(worst, max(0.0, 0.4 - low.value / sup.value))
    yield ("stockyard_sandwich", worst, 0.0)

    # bridge identity: lifted displacement vs line integral
    field = fields[1]
    worst = 0.0
    for _ in range(5):
        k = int(rng.integers(3, 6))
        vs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
              for _ in range(k)]
        perim = sum(abs(w - v) for v, w in zip(vs, vs[1:] + vs[:1]))
        if perim <= 1e-6:
            continue
        delta = perim * 1.25
        control = ccpath.control_from_polygon(vs, delta)
        _, _, t = ccpath.integrate_path(
            field, (vs[0].real, vs[0].imag, 0.0), control, delta)
        line = geometry.boundary_line_integral(
            field, geometry.polygon_curve(vs))
        worst = max(worst, abs(t - line))
    yield ("bridge_identity", worst, tol)


def cmd_validate(args):
    failures = []
    for name, residual, limit in _validate_checks(args.tol):
        ok = residual <= limit
        print(f"{'PASS' if ok else 'FAIL'} {name}: residual {residual:.3e} "
              f"(limit {limit:.3e})")
        if not ok:
            failures.append(name)
    if failures:
        print(f"{len(failures)} identity check(s) failed: "
              + ", ".join(failures), file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


# ---------------------------------------------------------------------------

#: options that several subcommands take, by name
_SHARED_FLAGS = {
    "density": dict(required=True, help="path to a density spec file"),
    "z": dict(required=True, help="base point 're,im'"),
    "window": dict(required=True, help="'x0,y0,x1,y1,n'"),
    "delta": dict(required=True,
                  help="delta value or geometric ladder 'a:b:n'"),
    "seed": dict(type=_seed, default=0),
    "out": dict(default=None, help="output path (default: stdout)"),
    "format": dict(choices=("csv", "json"), default="csv"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ccstruct",
        description="Global structure of the Carnot-Caratheodory metric "
                    "on model hypersurfaces: estimates, sweeps, UGS "
                    "classification, and self-validation.")
    parser.add_argument("--version", action="version",
                        version=f"ccstruct {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, func, help_text, *flags):
        """A subparser taking exactly ``flags``, the options shared by
        several subcommands; the caller adds the rest."""
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(f"--{flag}", **_SHARED_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    p = subcommand("lambda", cmd_lambda, "structure estimates at a point",
                   "density", "z", "delta", "seed", "out", "format")
    p.add_argument("--method", choices=("sup", "stockyard", "direct", "all"),
                   default="sup")

    p = subcommand("sweep", cmd_sweep, "estimator over a window",
                   "density", "window", "delta", "seed", "out", "format")
    p.add_argument("--method", choices=("sup", "stockyard", "direct"),
                   default="sup")

    subcommand("classify", cmd_classify, "UGS dichotomy probe",
               "density", "window", "delta", "out")

    p = subcommand("volume", cmd_volume, "ball-volume sandwich + Monte Carlo",
                   "density", "z", "delta", "seed", "out", "format")
    p.add_argument("--n-paths", type=int, default=10000)

    p = subcommand("validate", cmd_validate,
                   "run the internal identity suite")
    p.add_argument("--tol", type=_tol, default=1e-6,
                   help="residual limit of the identity checks")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CCStructError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
