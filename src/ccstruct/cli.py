"""Command-line frontend.

Subcommands: ``lambda`` (structure estimates at points), ``sweep``
(estimator over a window), ``classify`` (UGS dichotomy probe),
``volume`` (ball-volume sandwich + Monte Carlo), ``validate``
(self-check identity suite).

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 numeric failure.  Output files embed a tool-version line and a hash of
the effective configuration, and are byte-identical for identical
configuration and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__, ccpath, classify, density, geometry, structure
from .errors import CCStructError, DensitySpecError, QuadratureFailure
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


def _parse_z(text):
    try:
        re_, im_ = (float(p) for p in text.split(","))
    except ValueError:
        raise ConfigError(f"--z expects 're,im', got {text!r}") from None
    if not (math.isfinite(re_) and math.isfinite(im_)):
        raise ConfigError(f"--z must be finite, got {text!r}")
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
        if a <= 0 or b <= a or n < 2:
            raise ConfigError("--delta ladder needs 0 < a < b and n >= 2")
        return [float(d) for d in np.geomspace(a, b, n)]
    try:
        d = float(text)
    except ValueError:
        raise ConfigError(f"--delta expects a number or ladder, got {text!r}") from None
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
    if not all(math.isfinite(v) for v in (x0, y0, x1, y1)):
        raise ConfigError(f"--window must be finite, got {text!r}")
    if x1 < x0 or y1 < y0 or n < 1:
        raise ConfigError("--window is empty")
    return structure.Window(x0, y0, x1, y1, n)


def _config_hash(args):
    payload = sorted((k, repr(v)) for k, v in vars(args).items()
                     if k not in ("func", "out"))
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def _header_lines(args):
    return [f"# ccstruct {__version__}",
            f"# config {_config_hash(args)}"]


def _write_csv(args, columns, rows):
    lines = _header_lines(args)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_json(args, payload):
    doc = {"tool": f"ccstruct {__version__}",
           "config": _config_hash(args),
           **payload}
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
    columns = ["re(z)", "im(z)", "delta"] + [f"value_{m}" for m in methods]
    columns += ["error"]
    rows = []
    had_numeric_failure = False
    for d in deltas:
        values = []
        err = ""
        for m in methods:
            try:
                if m == "sup":
                    est = structure.lambda_sup(field, z, d)
                elif m == "stockyard":
                    est = structure.lambda_stockyard(field, z, d)
                else:
                    est = ccpath.sample_lambda_direct(field, z, d,
                                                      seed=args.seed)
                values.append(est.value)
            except (QuadratureFailure, CCStructError) as exc:
                values.append(math.nan)
                err = f"{type(exc).__name__}: {exc}"
                had_numeric_failure = True
        rows.append([z.real, z.imag, d] + values + [err])
    if args.format == "json":
        _write_json(args, {"rows": [dict(zip(columns, r)) for r in rows]})
    else:
        _write_csv(args, columns, rows)
    return EXIT_NUMERIC if had_numeric_failure else EXIT_OK


def cmd_sweep(args):
    field = _load_field(args)
    window = _parse_window(args.window)
    deltas = _parse_deltas(args.delta)
    rows_out = structure.lambda_sweep(field, window, deltas,
                                      method=args.method, seed=args.seed,
                                      jobs=args.jobs)
    columns = ["re(z)", "im(z)", "delta", "method", "value",
               "witness_re", "witness_im", "witness_radius"]
    rows = [[r.z.real, r.z.imag, r.delta, r.method, r.value,
             r.witness_center.real, r.witness_center.imag, r.witness_radius]
            for r in rows_out]
    if args.format == "json":
        _write_json(args, {"rows": [dict(zip(columns, r)) for r in rows]})
    else:
        _write_csv(args, columns, rows)
    if any(r.error for r in rows_out):
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_classify(args):
    field = _load_field(args)
    window = _parse_window(args.window)
    deltas = _parse_deltas(args.delta)
    report = classify.dichotomy_probe(field, window, deltas,
                                      slope_tol=args.slope_tol,
                                      spread_tol=args.spread_tol)
    _write_json(args, {"report": report.as_dict()})
    print(report.verdict)
    return EXIT_OK


def cmd_volume(args):
    field = _load_field(args)
    z = _parse_z(args.z)
    deltas = _parse_deltas(args.delta)
    columns = ["re(z)", "im(z)", "delta", "lower", "upper",
               "mc_estimate", "mc_lo", "mc_hi", "in_sandwich"]
    rows = []
    for d in deltas:
        try:
            lower, upper = structure.volume_estimate(field, z, d)
            est, (blo, bhi) = ccpath.ball_volume_mc(
                field, z, 0.0, d, n_paths=args.n_paths, seed=args.seed,
                jobs=args.jobs)
        except (QuadratureFailure, CCStructError) as exc:
            print(f"numeric failure at delta={d}: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        rows.append([z.real, z.imag, d, lower, upper, est, blo, bhi,
                     lower <= est <= upper])
    if args.format == "json":
        _write_json(args, {"rows": [dict(zip(columns, r)) for r in rows]})
    else:
        _write_csv(args, columns, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# self-validation suite

def _validate_checks(tol, flip_orientation=False):
    """The internal identity suite.  Yields (name, residual, limit)."""
    rng = np.random.default_rng(12345)
    fields = [
        density.ConstantDensity(4.0),
        density.PolynomialPotential({(1, 1): 1.0, (2, 2): 1.0}),
        density.RadialAlphaDensity(0.5),
    ]
    sign = -1.0 if flip_orientation else 1.0

    # Green identity on random circular pens
    worst = 0.0
    for field in fields:
        for _ in range(6):
            c = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            r = rng.uniform(0.3, 2.0)
            pen = geometry.Pen.circle(c, r)
            mass = geometry.pen_mass(field, pen)
            line = sign * geometry.boundary_line_integral(field, pen.boundary)
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
    for field in fields:
        for d in (1.0, 5.0):
            sup = structure.lambda_sup(field, 0.3 + 0.1j, d)
            low = structure.lambda_stockyard(field, 0.3 + 0.1j, d)
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
        traj = ccpath.integrate_path(field, (vs[0].real, vs[0].imag, 0.0),
                                     control, delta, steps=64)
        line = geometry.boundary_line_integral(
            field, geometry.polygon_curve(vs))
        worst = max(worst, abs(traj.end[2] - line))
    yield ("bridge_identity", worst, tol)


def cmd_validate(args):
    failures = []
    for name, residual, limit in _validate_checks(
            args.tol, flip_orientation=args.inject_orientation_flip):
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

def build_parser():
    parser = argparse.ArgumentParser(
        prog="ccstruct",
        description="Global structure of the Carnot-Caratheodory metric "
                    "on model hypersurfaces: estimates, sweeps, UGS "
                    "classification, and self-validation.")
    parser.add_argument("--version", action="version",
                        version=f"ccstruct {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, density_required=True):
        p.add_argument("--density", required=density_required,
                       help="path to a density spec file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--out", default=None,
                       help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--tol", type=float, default=1e-6,
                       help="tolerance override where applicable")

    p = sub.add_parser("lambda", help="structure estimates at a point")
    common(p)
    p.add_argument("--z", required=True, help="base point 're,im'")
    p.add_argument("--delta", required=True,
                   help="delta value or geometric ladder 'a:b:n'")
    p.add_argument("--method", choices=("sup", "stockyard", "direct", "all"),
                   default="sup")
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser("sweep", help="estimator over a window")
    common(p)
    p.add_argument("--window", required=True, help="'x0,y0,x1,y1,n'")
    p.add_argument("--delta", required=True)
    p.add_argument("--method", choices=("sup", "stockyard", "direct"),
                   default="sup")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("classify", help="UGS dichotomy probe")
    common(p)
    p.add_argument("--window", required=True, help="'x0,y0,x1,y1,n'")
    p.add_argument("--delta", required=True,
                   help="geometric delta ladder 'a:b:n'")
    p.add_argument("--slope-tol", type=float, default=0.15)
    p.add_argument("--spread-tol", type=float, default=0.3)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("volume", help="ball-volume sandwich + Monte Carlo")
    common(p)
    p.add_argument("--z", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--n-paths", type=int, default=10000)
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("validate", help="run the internal identity suite")
    common(p, density_required=False)
    p.add_argument("--inject-orientation-flip", action="store_true",
                   help=argparse.SUPPRESS)  # forced-failure test hook
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QuadratureFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
