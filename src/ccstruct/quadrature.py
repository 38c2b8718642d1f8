"""Low-level quadrature helpers: Gauss-Legendre rules, adaptive 1D
integration and an adaptive triangle rule.

``polar_sector``, an adaptive integrator over polar sectors, has no caller
in the package: it stays only for the benchmark's tracer, which binds it
by name.
"""

from __future__ import annotations

import heapq
import math
from functools import lru_cache

import numpy as np
# numpy imports its submodules on first use; this one comes with ccstruct
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureFailure

#: Most float64 values (96 KB) an array kernel's temporaries hold at once.
#: The kernels that build (points x nodes) arrays (the rows of
#: ``adaptive_1d``, the grid, radial annulus and bump overlap kernels in
#: ``density``, and ``structure.twist_many``) run in blocks of points
#: within it (at least one point a block), and the bump lattice's cell list
#: in blocks of at most half as many rim (query, bump) pairs and cell-row
#: runs (a pair's complex difference is two values), its runs formed at
#: most a quarter as many at a time (four cell indices a run), so each
#: temporary stays near or under 128 KB, glibc's default threshold for
#: mapping fresh pages per allocation; above it every temporary is a new
#: mapping whose pages fault in one by one.  With 20,000 nodes a call a
#: grid classify took 2.2 million page faults, a fifth of its run time
#: spent as system time, and a 16-rung coarse stage of 797 radial centers
#: took 28,176 minor faults (none when blocked).
KERNEL_BUDGET = 12_000


@lru_cache(maxsize=None)
def gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    return leggauss(n)


def gl_nodes(a: float, b: float, n: int):
    """Nodes and weights of the n-point GL rule mapped to [a, b]."""
    x, w = gauss_legendre(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


#: ``adaptive_1d``'s Gauss-Legendre orders, each group one call of f.  On a
#: 2-core host numpy's eigenvalue rule takes 0.6 s at 2048 nodes, 45 s at 8192
_ADAPTIVE_ORDERS = ((16, 32),) + tuple((2 ** k,) for k in range(6, 12))


def adaptive_1d(f, a, b, rel_tol=1e-9, abs_floor=1e-14, rows=None):
    """Integrate a smooth scalar function on [a, b]; ``f`` maps an array
    of nodes to its values elementwise.

    Runs the Gauss-Legendre orders of ``_ADAPTIVE_ORDERS`` until two
    successive estimates agree to ``rel_tol`` (relative, with an absolute
    floor for near-zero integrals).  The 16- and 32-node rules share one
    call of ``f`` on both rules' nodes, and each estimate is a weighted
    sum over its own slice, so an elementwise ``f`` gives the same value
    as one call per rule.  Raises QuadratureFailure when the 2048-node
    estimate has not settled.

    With ``rows`` = k, k integrands on [a, b] run in one doubling loop:
    ``f(x, live)`` maps the nodes to a (len(live), len(x)) array, the
    integrands of the rows ``live`` (ascending indices below k), and an
    array of k integrals is returned.  ``f`` sees blocks of rows within
    ``KERNEL_BUDGET`` values, each block reduced to its rows' estimates at
    once, so only the estimates grow with k.  Each row stops at its own
    order, and one einsum forms a block's estimates with its own sum over
    each row, so a row's integral has the bits of a lone call of that row.
    """
    lone = rows is None
    # a lone integrand is a batch of one row (not copied: the einsum's
    # rounding may depend on its buffer's alignment)
    fun = (lambda x, live: np.asarray(f(x), dtype=float)[None]) if lone else f
    out = np.zeros(1 if lone else rows)
    if b == a or not len(out):
        return 0.0 if lone else out
    live = np.arange(len(out))
    prev = None
    for group in _ADAPTIVE_ORDERS:
        rules = [gl_nodes(a, b, m) for m in group]
        x = np.concatenate([x for x, _ in rules])
        step = max(1, KERNEL_BUDGET // len(x))
        ests = np.empty((len(rules), len(live)))
        for lo in range(0, len(live), step):
            vals = np.asarray(fun(x, live[lo:lo + step]), dtype=float)
            at = 0
            for est, (xk, w) in zip(ests, rules):
                est[lo:lo + step] = np.einsum("ij,j->i",
                                              vals[:, at:at + len(xk)], w)
                at += len(xk)
        for k in range(len(rules)):
            est = ests[k]
            if prev is not None:
                done = np.abs(est - prev) <= rel_tol * np.maximum(
                    np.abs(est), abs_floor)
                out[live[done]] = est[done]
                live, prev, ests = live[~done], est[~done], ests[:, ~done]
                if not len(live):
                    return float(out[0]) if lone else out
            else:
                prev = est
    raise QuadratureFailure(f"1D quadrature on [{a}, {b}] did not converge to "
                            f"rel_tol={rel_tol}")


# polar_sector and its helper stay for perfbench alone, which binds
# polar_sector by name; the benchmark rework of ROADMAP item 1 drops that
def _patch_estimates(fn, center, r0, r1, t0, t1, n=6):
    """Coarse integral estimate and value spread over one polar patch."""
    rx, rw = gl_nodes(r0, r1, n)
    tx, tw = gl_nodes(t0, t1, n)
    rr, tt = np.meshgrid(rx, tx, indexing="ij")
    pts = center + rr * np.exp(1j * tt)
    vals = np.asarray(fn(pts), dtype=float)
    integral = float(np.einsum("i,j,ij->", rw, tw, vals * rr))
    vmax = float(vals.max())
    vmin = float(vals.min())
    return integral, vmin, vmax


def polar_sector(fn, center, r0, r1, t0, t1, rel_tol=1e-6, max_patches=40000):
    """Integrate ``fn`` (a plane density, vectorized over complex points)
    over the polar sector {r0 <= |w - center| <= r1, t0 <= arg <= t1}.

    Adaptive: each patch carries a two-level error indicator (coarse rule
    vs. the sum over its 4 children); patches are refined worst-first
    until the total indicated error is below tolerance.  Patches whose
    sampled values vary by more than 10% are refined at least once.
    """
    if r1 <= r0 or t1 <= t0:
        return 0.0

    def children(patch):
        _, pr0, pr1, pt0, pt1, _, _ = patch
        rm = 0.5 * (pr0 + pr1)
        tm = 0.5 * (pt0 + pt1)
        out = []
        for (a0, a1) in ((pr0, rm), (rm, pr1)):
            for (b0, b1) in ((pt0, tm), (tm, pt1)):
                est, vmin, vmax = _patch_estimates(fn, center, a0, a1, b0, b1)
                out.append([est, a0, a1, b0, b1, vmin, vmax])
        return out

    est, vmin, vmax = _patch_estimates(fn, center, r0, r1, t0, t1)
    root = [est, r0, r1, t0, t1, vmin, vmax]
    kids = children(root)
    total = sum(k[0] for k in kids)
    # heap of (-error, tiebreak, patch, child-sum) entries, and the sum of
    # their errors
    heap = []
    counter = 0
    err_total = 0.0

    coarse_r = (r1 - r0) / 16.0
    coarse_t = (t1 - t0) / 16.0

    def push(patch):
        nonlocal counter, err_total
        kid = children(patch)
        refined = sum(k[0] for k in kid)
        err = abs(refined - patch[0])
        # force refinement of *coarse* patches with strong value variation
        # (a feature could hide between sample points); fine patches rely
        # on the two-level indicator alone, else boundary layers of
        # compactly supported densities never converge
        is_coarse = (patch[2] - patch[1] > coarse_r
                     or patch[4] - patch[3] > coarse_t)
        vmin_, vmax_ = patch[5], patch[6]
        varies = vmax_ > 0 and (vmax_ - vmin_) > 0.1 * vmax_
        if varies and is_coarse:
            err = max(err, 1e-3 * abs(refined) + 1e-30)
        heapq.heappush(heap, (-err, counter, patch, kid, refined))
        counter += 1
        err_total += err

    for k in kids:
        push(k)

    n_patches = len(kids)
    while heap:
        if err_total <= rel_tol * max(abs(total), 1e-300):
            break
        neg_err, _, patch, kid, refined = heapq.heappop(heap)
        total += refined - patch[0]
        if n_patches + 4 > max_patches:
            raise QuadratureFailure(
                f"polar quadrature exceeded {max_patches} patches "
                f"(remaining error {err_total:.3e})"
            )
        err_total += neg_err
        for k in kid:
            push(k)
        n_patches += 4
    return total


#: ``triangle_integral`` stops refining where the 4-child refinement agrees
#: with its parent to this relative tolerance, or at this depth
_TRIANGLE_REL_TOL = 1e-7
_TRIANGLE_MAX_DEPTH = 12


def _triangle_fixed(fn, a, b, c, n=8):
    """Fixed-order integral of ``fn`` over triangle (a, b, c) via a Duffy
    mapping of a tensor GL rule.  Uses the absolute area (unsigned)."""
    u, wu = gl_nodes(0.0, 1.0, n)
    v, wv = gl_nodes(0.0, 1.0, n)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    pts = a + uu * (b - a) + uu * vv * (c - b)
    area2 = abs((b - a).real * (c - a).imag - (b - a).imag * (c - a).real)
    vals = np.asarray(fn(pts), dtype=float)
    return area2 * float(np.einsum("i,j,ij->", wu, wv, vals * uu))


def triangle_integral(fn, a, b, c):
    """Integrate a plane density over a triangle, refining by midpoint
    subdivision until the 4-child refinement agrees with the parent.
    Raises QuadratureFailure when a refinement is not finite."""
    rel_tol, max_depth = _TRIANGLE_REL_TOL, _TRIANGLE_MAX_DEPTH

    def recurse(a, b, c, coarse, depth):
        ab, bc, ca = 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)
        parts = [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
        fine_vals = [_triangle_fixed(fn, *t) for t in parts]
        fine = sum(fine_vals)
        if not math.isfinite(fine):
            raise QuadratureFailure(
                f"triangle quadrature gave a non-finite value ({fine})")
        if abs(fine - coarse) <= rel_tol * max(abs(fine), 1e-300) or depth >= max_depth:
            if depth >= max_depth and abs(fine - coarse) > 100 * rel_tol * max(abs(fine), 1e-300):
                raise QuadratureFailure("triangle quadrature did not converge")
            return fine
        return sum(recurse(*t, cv, depth + 1) for t, cv in zip(parts, fine_vals))

    return recurse(a, b, c, _triangle_fixed(fn, a, b, c), 0)
