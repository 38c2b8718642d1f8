"""Outside-in layer tracing for the benchmark's traced repetitions.

Wraps public functions and methods of the ``ccstruct`` modules without
touching the package source.  A function imported by name into several
modules (``classify.lambda_sup``, ``ccpath.lambda_sup``, ...) has one
binding per module; every binding that is the same object is replaced,
so each call is seen once whichever module makes it.

Each wrapped call records a span (name, parent span, start, end) in
compact arrays, plus per-name counts (``points``, ``centers``, ``paths``,
``pens``, ``nfev``, ``failures``, ``cache_hits``).  ``summary()`` turns
the spans into per-name call counts and self times, where a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import sys
import time
import types
from array import array
from collections import defaultdict

import numpy as np

_clock = time.perf_counter


def _size(x):
    return int(np.size(x))


def _centers(args, kwargs):
    return _size(args[1] if len(args) > 1 else kwargs["centers"])


def _points(args, kwargs):
    return _size(args[1] if len(args) > 1 else kwargs["z"])


def _paths(args, kwargs):
    a = args[2] if len(args) > 2 else kwargs["controls_alpha"]
    return int(np.shape(a)[0])


def _pens(args, kwargs):
    yard = args[1] if len(args) > 1 else kwargs["s"]
    return len(yard.pens)


#: public functions, as (module under ccstruct, name); the span name is
#: "module.name"
FUNCTIONS = [
    ("quadrature", "polar_sector"), ("quadrature", "adaptive_1d"),
    ("structure", "optimize_weighted_disk"), ("structure", "lambda_stockyard"),
    ("structure", "twist_many"), ("geometry", "validate_stockyard"),
    ("geometry", "stockyard_mass"), ("ccpath", "integrate_endpoints"),
    ("classify", "check_linear_conditions"),
    ("classify", "check_quadratic_conditions"),
    ("classify", "dichotomy_probe"), ("specfile", "load_density_spec"),
    ("cli", "main"),
]

#: density-field methods, wrapped on every class of ccstruct.density that
#: defines them; the span name is "density.method"
METHODS = ["disk_mass", "disk_mass_many", "density", "potential_gradient"]

#: span name -> (count name, the count one call adds)
COUNTS = {
    "density.disk_mass_many": ("centers", _centers),
    "density.density": ("points", _points),
    "density.potential_gradient": ("points", _points),
    "geometry.stockyard_mass": ("pens", _pens),
    "ccpath.integrate_endpoints": ("paths", _paths),
}

#: every span name the tracer can record
SPAN_NAMES = ([f"density.{m}" for m in METHODS]
              + ["structure.lambda_sup", "structure.polish"]
              + [f"{mod}.{attr}" for mod, attr in FUNCTIONS])


class Tracer:
    """Span recorder; one per traced child process."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = defaultdict(int)
        self._stack = [-1]
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        """``fn`` recording one span per call, plus its count and its
        failures (calls that raised)."""
        nid = self._ids[name]
        count, count_fn = COUNTS.get(name, (None, None))
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        stack, counts = self._stack, self.counts
        count_key, fail_key = f"{name}.{count}", f"{name}.failures"

        def wrapper(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            if count_fn is not None:
                counts[count_key] += count_fn(args, kwargs)
            stack.append(sid)
            start.append(_clock())
            try:
                return fn(*args, **kwargs)
            except Exception:
                counts[fail_key] += 1
                raise
            finally:
                end[sid] = _clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation ------------------------------------------------------

    def _rebind(self, original, replacement):
        """Replace every module-level binding of ``original`` in the
        loaded ccstruct modules."""
        n = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "ccstruct"
                                   or modname.startswith("ccstruct.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patched.append((mod, attr, original))
                    n += 1
        return n

    def install(self):
        # every importer must be loaded before its bindings are replaced
        modules = {mod: importlib.import_module(f"ccstruct.{mod}")
                   for mod, _ in FUNCTIONS}
        for mod, attr in FUNCTIONS:
            original = getattr(modules[mod], attr)
            if not self._rebind(original,
                                self._wrap(f"{mod}.{attr}", original)):
                raise RuntimeError(f"no binding of ccstruct.{mod}.{attr}")
        self._install_methods()
        self._install_lambda_sup()
        self._install_polish()

    def _install_methods(self):
        density = sys.modules["ccstruct.density"]
        base = density.DensityField
        for cls in vars(density).values():
            if not (isinstance(cls, type) and issubclass(cls, base)):
                continue
            for meth in METHODS:
                fn = cls.__dict__.get(meth)
                if fn is None:
                    continue
                setattr(cls, meth, self._wrap(f"density.{meth}", fn))
                self._patched.append((cls, meth, fn))

    def _install_lambda_sup(self):
        structure = sys.modules["ccstruct.structure"]
        original = structure.lambda_sup
        traced = self._wrap("structure.lambda_sup", original)
        counts = self.counts

        def lambda_sup(field, *args, **kwargs):
            # a call that adds no entry to the field's memo was a hit
            before = len(getattr(field, "_lambda_cache", ()))
            out = traced(field, *args, **kwargs)
            if len(getattr(field, "_lambda_cache", ())) == before:
                counts["structure.lambda_sup.cache_hits"] += 1
            return out

        lambda_sup.__wrapped__ = original
        self._rebind(original, lambda_sup)

    def _install_polish(self):
        structure = sys.modules["ccstruct.structure"]
        sciopt = structure._sciopt
        traced = self._wrap("structure.polish", sciopt.minimize)
        counts = self.counts

        def minimize(*args, **kwargs):
            res = traced(*args, **kwargs)
            counts["structure.polish.nfev"] += int(res.nfev)
            return res

        proxy = types.SimpleNamespace(minimize=minimize)
        structure._sciopt = proxy
        self._patched.append((structure, "_sciopt", sciopt))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reporting ---------------------------------------------------------

    def summary(self):
        """Per-name ``calls``, ``total_s`` and ``self_s`` from the spans,
        plus the recorded counts."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        par = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        child = np.zeros(len(dur))
        has_parent = par >= 0
        np.add.at(child, par[has_parent], dur[has_parent])
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        total = np.bincount(ids, weights=dur, minlength=n)
        self_s = np.bincount(ids, weights=dur - child, minlength=n)
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.total_s"] = float(total[i])
            out[f"{name}.self_s"] = float(self_s[i])
        out.update(self.counts)
        return out

    def span_table(self):
        """The raw spans as parallel arrays, with the span-name table."""
        return {"names": np.array(self.names),
                "name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}


#: the per-layer metrics of a traced run: (name, unit, better).  The
#: comment before each group names the end-to-end metric it should move and
#: the workload it moves on; perfbench/README.md has the full map.
PER_LAYER = [
    # wall_s and peak_rss_mb on classify_bumps; flat on volume_radial
    ("density.disk_mass_many.calls", "count", "lower"),
    ("density.disk_mass_many.centers", "count", "lower"),
    ("density.disk_mass_many.self_s", "s", "lower"),
    # wall_s on classify_bumps and volume_radial
    ("density.disk_mass.calls", "count", "lower"),
    ("density.disk_mass.self_s", "s", "lower"),
    # wall_s on mass_grid; ok_frac on the mass_grid_r3 probe
    ("density.density.points", "count", "lower"),
    ("density.density.self_s", "s", "lower"),
    ("quadrature.polar_sector.calls", "count", "lower"),
    ("quadrature.polar_sector.self_s", "s", "lower"),
    ("quadrature.polar_sector.failures", "count", "lower"),
    # wall_s on volume_radial
    ("density.potential_gradient.points", "count", "lower"),
    ("density.potential_gradient.self_s", "s", "lower"),
    # wall_s on volume_radial (the Nelder-Mead polish of its radial disks)
    ("quadrature.adaptive_1d.calls", "count", "lower"),
    ("quadrature.adaptive_1d.self_s", "s", "lower"),
    # wall_s on both CLI workloads; the hit ratio on volume_radial
    ("structure.lambda_sup.calls", "count", "lower"),
    ("structure.lambda_sup.self_s", "s", "lower"),
    ("structure.lambda_sup.cache_hit_ratio", "ratio", "higher"),
    # wall_s on classify_bumps and volume_radial
    ("structure.optimize_weighted_disk.calls", "count", "lower"),
    ("structure.optimize_weighted_disk.self_s", "s", "lower"),
    ("structure.polish.calls", "count", "lower"),
    ("structure.polish.nfev", "count", "lower"),
    ("structure.polish.self_s", "s", "lower"),
    # wall_s on volume_radial
    ("structure.lambda_stockyard.calls", "count", "lower"),
    ("structure.lambda_stockyard.self_s", "s", "lower"),
    ("geometry.validate_stockyard.self_s", "s", "lower"),
    ("geometry.stockyard_mass.pens", "count", "lower"),
    # wall_s and peak_rss_mb on volume_radial
    ("structure.twist_many.self_s", "s", "lower"),
    ("ccpath.integrate_endpoints.calls", "count", "lower"),
    ("ccpath.integrate_endpoints.paths", "count", "lower"),
    ("ccpath.integrate_endpoints.self_s", "s", "lower"),
    # wall_s on classify_bumps
    ("classify.check_linear_conditions.self_s", "s", "lower"),
    ("classify.check_quadratic_conditions.self_s", "s", "lower"),
    ("classify.dichotomy_probe.self_s", "s", "lower"),
    # setup_s on classify_bumps and mass_grid
    ("specfile.load_density_spec.self_s", "s", "lower"),
    # wall_s on both CLI workloads
    ("cli.main.self_s", "s", "lower"),
    # the tracing itself: traced wall_s, and it minus the untraced median
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def layer_values(summary):
    """The PER_LAYER values of one traced repetition, except the
    ``trace.*`` pair, which compares traced and untraced repetitions."""
    out = {}
    for name, _, _ in PER_LAYER:
        if name.startswith("trace."):
            continue
        if name == "structure.lambda_sup.cache_hit_ratio":
            calls = summary["structure.lambda_sup.calls"]
            hits = summary.get("structure.lambda_sup.cache_hits", 0)
            out[name] = hits / calls if calls else 0.0
        else:
            out[name] = float(summary.get(name, 0))
    return out
