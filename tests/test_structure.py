"""Structure estimators: sup proxy, stockyard lower bound, twist (against
the quad reference of ``tests/reference.py``), volume sandwich, sweeps."""

import gc
import math
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ccstruct.ccpath import sample_lambda_direct
from ccstruct.classify import CLASSIFY_OPTS
from ccstruct.density import (BumpLattice, ConstantDensity,
                              PolynomialPotential, RadialAlphaDensity,
                              ZeroDensity)
from ccstruct.errors import CCStructError, QuadratureFailure
from ccstruct import geometry
from ccstruct.geometry import pen_mass, validate_stockyard
from ccstruct.structure import (SupOptions, Window, _nelder_mead, _project,
                                lambda_stockyard, lambda_sup, lambda_sweep,
                                prime_lambda_sup, twist_many,
                                volume_estimate)
from test_density import _bits

import reference


# ---------------------------------------------------------------------------
# lambda_sup

def test_lambda_sup_constant_exact():
    # (delta/h) * c pi h^2 is increasing in h, so the optimum sits at
    # h = delta with value c pi delta^2
    f = ConstantDensity(4.0)
    est = lambda_sup(f, 1 - 2j, 10.0)
    assert est.value == pytest.approx(400 * math.pi, rel=1e-6)
    assert est.witness.radius == pytest.approx(10.0, rel=1e-6)
    assert est.method == "sup" and est.bound == "upper_comparable"


def test_lambda_sup_zero_density():
    est = lambda_sup(ZeroDensity(), 0j, 5.0)
    assert est.value == 0.0


def test_lambda_sup_monotone_in_delta():
    f = RadialAlphaDensity(0.5)
    vals = [lambda_sup(f, 1 + 1j, d, CLASSIFY_OPTS).value
            for d in (1.0, 2.0, 4.0)]
    assert vals[0] <= vals[1] <= vals[2]


def test_lambda_sup_rejects_bad_delta():
    f = ConstantDensity(1.0)
    for estimator in (lambda_sup, lambda_stockyard, sample_lambda_direct,
                      volume_estimate):
        for delta in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                estimator(f, 0j, delta)


@pytest.mark.parametrize("budget", [
    dict(n_rungs=0), dict(n_polish=0), dict(grid=0), dict(grid=1),
    dict(grid=2), dict(polish_maxiter=-1)])
def test_sup_options_reject_empty_search(budget):
    # under these budgets the coarse stage has no candidate (the search
    # returned 0 for the first five), or the polish a negative step limit
    with pytest.raises(ValueError):
        SupOptions(**budget)


def test_smallest_sup_options_still_search():
    # the optimum c pi delta^2 = 16 pi, to the bit of the full budget
    f = ConstantDensity(4.0)
    for budget in (dict(grid=3), dict(n_rungs=1), {}):
        est = lambda_sup(f, 0j, 2.0, SupOptions(**budget))
        assert est.value == 50.26548245743669, budget


def test_lambda_sup_rejects_nonfinite_value():
    # c pi delta^2 overflows at delta = 1e200: an error naming the
    # overflowing disk mass, not inf or an overflow warning, and no
    # stockyard of ~1e201 witness copies
    f = ConstantDensity(4.0)
    for estimator in (lambda_sup, lambda_stockyard, volume_estimate):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CCStructError,
                               match="disk mass of constant field is inf"):
                estimator(f, 0j, 1e200)


def test_lambda_sup_finds_offcenter_bump():
    # single bump of mass 3 at distance 5: within reach at delta = 10
    f = BumpLattice([5 + 0j], [3.0], [0.5])
    est = lambda_sup(f, 0j, 10.0)
    assert abs(est.witness.center - 5) <= 1.0
    # weight (delta/h) rewards small enclosing disks: value >> mass
    assert est.value >= 3.0


def test_lambda_sup_deterministic():
    f = RadialAlphaDensity(0.5)
    a = lambda_sup(f, 2 + 1j, 7.0, CLASSIFY_OPTS)
    f2 = RadialAlphaDensity(0.5)    # fresh instance, fresh cache
    b = lambda_sup(f2, 2 + 1j, 7.0, CLASSIFY_OPTS)
    assert a.value == b.value


def test_lambda_sup_meta_counts_the_polish(monkeypatch):
    # meta records the polish's evaluations (over its starts) and its
    # lock-step rounds; a fresh field runs the search, the memo repeats it
    from ccstruct import structure
    seen = []
    minimize = structure._sciopt.minimize

    def recording(*args, **kwargs):
        seen.append(minimize(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(structure._sciopt, "minimize", recording)
    est = lambda_sup(RadialAlphaDensity(0.5), 1 + 1j, 2.0)
    (res,) = seen
    assert len(res.start_nfev) == SupOptions().n_polish
    assert est.meta == {"polish_nfev": res.nfev,
                        "polish_rounds": max(res.start_rounds)}
    assert 0 < est.meta["polish_rounds"] < est.meta["polish_nfev"]
    assert est.meta["polish_nfev"] == sum(res.start_nfev)


def test_primed_lambda_sup_repeats_lone_searches():
    # searches polished together give each cell the value, witness and
    # counts of its lone search; a cell already in the memo is not re-run
    f, g = RadialAlphaDensity(0.5), RadialAlphaDensity(0.5)
    cells = [(z, d) for z in (0j, 1 + 1j, -2 + 0.5j) for d in (0.5, 4.0)]
    lambda_sup(f, 0j, 0.5, CLASSIFY_OPTS)
    prime_lambda_sup(f, cells + [(0j, math.nan)], CLASSIFY_OPTS)
    for z, d in cells:
        got, want = lambda_sup(f, z, d, CLASSIFY_OPTS), lambda_sup(
            g, z, d, CLASSIFY_OPTS)
        assert _bits(got.value) == _bits(want.value)
        assert got.witness == want.witness and got.meta == want.meta
    with pytest.raises(ValueError):
        lambda_sup(f, 0j, math.nan, CLASSIFY_OPTS)


def test_failed_prime_leaves_the_memo(monkeypatch):
    # a failing batch stores nothing: each cell's lone search then raises
    # its own error, as without the batch
    from ccstruct import structure

    def failing(*args, **kwargs):
        raise QuadratureFailure("no convergence")

    f = RadialAlphaDensity(0.5)
    lambda_sup(f, 0j, 0.5, CLASSIFY_OPTS)
    memo = dict(structure._MEMO[f])
    monkeypatch.setattr(structure, "optimize_weighted_disk", failing)
    prime_lambda_sup(f, [(0j, 0.5), (1j, 2.0)], CLASSIFY_OPTS)
    assert structure._MEMO[f] == memo
    with pytest.raises(QuadratureFailure):
        lambda_sup(f, 1j, 2.0, CLASSIFY_OPTS)


class _FailsAbove(ConstantDensity):
    """The constant density 1 whose disk masses raise QuadratureFailure,
    naming the radius, on any batch with a radius above 1.5."""

    def __init__(self):
        super().__init__(1.0)

    def _disk_masses(self, centers, radii):
        r = float(radii.max())
        if r > 1.5:
            raise QuadratureFailure(f"no mass at radius {r!r}")
        return super()._disk_masses(centers, radii)


def test_searches_evaluate_each_point_once(monkeypatch):
    # each search evaluates its lattice once per rung and then only the
    # points of its polish: no start cell is evaluated a second time
    f = RadialAlphaDensity(0.5)
    sizes = {"disk_mass": [], "disk_mass_many": []}
    for name, seen in sizes.items():
        def counting(centers, r, method=getattr(f, name), seen=seen):
            seen.append(np.size(centers))
            return method(centers, r)
        monkeypatch.setattr(f, name, counting)
    cells = [(0j, 0.5), (1 + 1j, 4.0), (-2j, 1e-3)]
    prime_lambda_sup(f, cells, CLASSIFY_OPTS)
    ests = [lambda_sup(f, z, d, CLASSIFY_OPTS) for z, d in cells]
    ax = np.arange(CLASSIFY_OPTS.grid) - CLASSIFY_OPTS.grid // 2
    lattice = np.count_nonzero(np.hypot(*np.meshgrid(ax, ax)) <= ax[-1])
    # delta = 1e-3 is DELTA_HAT_MIN: a ladder of one rung
    rungs = [CLASSIFY_OPTS.n_rungs, CLASSIFY_OPTS.n_rungs, 1]
    assert sizes["disk_mass_many"] == [lattice] * sum(rungs)
    assert sum(sizes["disk_mass"]) == sum(e.meta["polish_nfev"]
                                          for e in ests)


def test_coarse_failures_stay_with_their_searches(monkeypatch):
    # a search whose coarse stage raises keeps its error in the memo, and
    # the others are polished: one search call, each failed cell raising
    # its own error when read, and the other cell the bits of its lone
    # search; where every search fails no polish runs
    from ccstruct import structure
    f, g = _FailsAbove(), _FailsAbove()
    want = lambda_sup(ConstantDensity(1.0), 1j, 0.5, CLASSIFY_OPTS)
    calls = []
    search = structure.optimize_weighted_disk

    def counting(field, searches, opts):
        calls.append(len(searches))
        return search(field, searches, opts)

    monkeypatch.setattr(structure, "optimize_weighted_disk", counting)
    prime_lambda_sup(f, [(0j, 2.0), (1j, 0.5), (1j, 3.0)], CLASSIFY_OPTS)
    prime_lambda_sup(g, [(0j, 2.0), (1j, 3.0)], CLASSIFY_OPTS)
    for field in (f, g):
        for z, d in [(0j, 2.0), (1j, 3.0)]:
            with pytest.raises(QuadratureFailure, match=f"radius {d!r}$"):
                lambda_sup(field, z, d, CLASSIFY_OPTS)
    got = lambda_sup(f, 1j, 0.5, CLASSIFY_OPTS)
    assert calls == [3, 2]
    assert _bits(got.value) == _bits(want.value)
    assert got.witness == want.witness and got.meta == want.meta


def test_a_failed_cell_does_not_keep_its_field_alive():
    # the memo is keyed weakly on the field: the error it keeps must not
    # hold the field through a traceback
    f = _FailsAbove()
    prime_lambda_sup(f, [(0j, 2.0)], CLASSIFY_OPTS)
    for _ in range(2):
        with pytest.raises(QuadratureFailure):
            lambda_sup(f, 0j, 2.0, CLASSIFY_OPTS)
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None


#: each cell's lone search on a fresh field, shared by the examples below
_LONE = {}


def _lone_sup(z, delta):
    if (z, delta) not in _LONE:
        _LONE[z, delta] = lambda_sup(RadialAlphaDensity(0.5), z, delta,
                                     CLASSIFY_OPTS)
    return _LONE[z, delta]


@settings(max_examples=8, deadline=None)
@example([(1j, 0.5), (1j, 0.5), (0j, math.nan), (0j, 3.0)])
@given(st.lists(st.tuples(st.sampled_from([0j, 1j, 1.5 - 2j]),
                          st.sampled_from([0.5, 3.0, 0.0, math.nan])),
                min_size=1, max_size=5))
def test_primed_estimates_do_not_depend_on_the_batch(cells):
    # a batch, repeats and invalid deltas included, gives each valid cell
    # the value, witness and counts of its lone search, bit for bit
    from ccstruct import structure
    f = RadialAlphaDensity(0.5)
    prime_lambda_sup(f, cells, CLASSIFY_OPTS)
    for z, d in cells:
        if d > 0:
            assert (z, d, CLASSIFY_OPTS) in structure._MEMO[f]
            got, want = lambda_sup(f, z, d, CLASSIFY_OPTS), _lone_sup(z, d)
            assert _bits(got.value) == _bits(want.value)
            assert got.witness == want.witness and got.meta == want.meta
        else:
            with pytest.raises(ValueError):
                lambda_sup(f, z, d, CLASSIFY_OPTS)


def _nm_objectives():
    # each objective takes the leading coordinates of c for its dimension
    c = np.array([0.3, -1.2, 0.7, -0.15])
    a = np.array([[2.0, 0.3, 0.0, 0.1], [0.3, 1.0, -0.2, 0.0],
                  [0.0, -0.2, 0.5, 0.0], [0.1, 0.0, 0.0, 0.8]])

    def quadratic(x):
        d = x - c[:len(x)]
        return float(d @ a[:len(x), :len(x)] @ d)

    return {
        "quadratic": quadratic,
        # integer steps: many exact ties among the simplex values
        "plateau": lambda x: float(np.floor(4.0 * np.sum(np.abs(
            x - c[:len(x)])))),
        "clipped": lambda x: -max(0.0, 1.0 - float(np.sum(
            (x - c[:len(x)]) ** 2))),
        "flat": lambda x: 0.0,
    }


@pytest.mark.parametrize("name", sorted(_nm_objectives()))
@pytest.mark.parametrize("x0", [(1.0, 2.0, -0.5), (0.0, 0.0, 0.0),
                                (0.0, -3.0, 1e-3), (-2.5, 0.0, 4.0),
                                (-0.9, -0.4, -4.0, -0.5)])
@pytest.mark.parametrize("maxiter", [0, 1, 5, 60, 160])
def test_nelder_mead_repeats_scipy_bitwise(name, x0, maxiter):
    # the polish's port must take scipy's steps: the same x to the bit and
    # the same evaluation count, on ties (the 4-D plateau start meets ties
    # that a stable sort orders differently), zero start coordinates and
    # iteration limits that stop it before any step
    from scipy.optimize import minimize
    fun = _nm_objectives()[name]
    ref = minimize(fun, np.array(x0), method="Nelder-Mead",
                   options={"maxiter": maxiter, "xatol": 1e-8,
                            "fatol": 1e-12, "adaptive": True})
    got = _nelder_mead(_batch(fun), np.array([x0]), maxiter=maxiter,
                       xatol=1e-8, fatol=1e-12)
    got.x, got.fun = got.x[0], got.fun[0]
    assert _bits(got.x).tolist() == _bits(ref.x).tolist()
    assert got.nfev == ref.nfev
    assert _bits(got.fun) == _bits(ref.fun)
    assert got.fun == fun(got.x)


def _batch(fun):
    """``fun`` of one point as the polish's ``fun(points, owners)``."""
    return lambda points, owners: [fun(x) for x in points]


@pytest.mark.parametrize("name", sorted(_nm_objectives()))
@pytest.mark.parametrize("maxiter", [0, 5, 160])
def test_nelder_mead_lock_step_starts_repeat_lone_runs(name, maxiter):
    # k starts in lock step take the steps of k lone runs, whatever the
    # others do: the same x, fun and evaluation count, bit for bit; and
    # every round asks for each live start's points once, in start order
    fun = _nm_objectives()[name]
    starts = np.array([(1.0, 2.0, -0.5), (0.0, 0.0, 0.0), (0.0, -3.0, 1e-3),
                       (-2.5, 0.0, 4.0), (1.0, 2.0, -0.5), (0.3, -1.2, 0.7)])
    calls = []

    def recording(points, owners):
        calls.append(list(owners))
        return [fun(x) for x in points]

    got = _nelder_mead(recording, starts, maxiter=maxiter, xatol=1e-8,
                       fatol=1e-12)
    lone = [_nelder_mead(_batch(fun), x0[None], maxiter=maxiter, xatol=1e-8,
                         fatol=1e-12) for x0 in starts]
    for i, one in enumerate(lone):
        assert _bits(got.x[i]).tolist() == _bits(one.x[0]).tolist()
        assert _bits(got.fun[i]) == _bits(one.fun[0])
        assert got.start_nfev[i] == one.nfev == one.start_nfev[0]
        assert got.start_rounds[i] == one.start_rounds[0]
    assert got.nfev == sum(one.nfev for one in lone)
    assert len(calls) == max(got.start_rounds)
    assert all(owners == sorted(owners) for owners in calls)
    assert calls[0] == sorted(list(range(len(starts))) * 4)


def _nm_hostile():
    # objectives that are nan or inf in part of the space, and a plateau
    # whose values tie
    c = np.array([0.3, -1.2, 0.7])

    def bowl(x):
        return float(np.sum((x - c) ** 2))

    return {
        "nan": lambda x: math.nan if x[0] > 0.5 else bowl(x),
        "inf": lambda x: math.inf if x[1] + x[2] < -1.0 else bowl(x),
        "plateau": lambda x: float(np.floor(2.0 * np.sum(np.abs(x - c)))),
    }


def _recording(fun, calls):
    def batch(points, owners):
        calls.append(np.asarray(owners).tolist())
        return [fun(x) for x in points]
    return batch


@pytest.mark.parametrize("name", sorted(_nm_hostile()))
@pytest.mark.parametrize("maxiter", [5, 160])
def test_nelder_mead_random_starts_repeat_scipy_and_lone_runs(name, maxiter):
    # 40 random 3-D starts in lock step: each takes scipy's steps (x, fun
    # and evaluation count to the bit) and the rounds of its lone run, also
    # where the values are nan, inf or tied; the stopping test subtracts
    # infinite values, in scipy as in the polish
    from scipy.optimize import minimize
    fun = _nm_hostile()[name]
    starts = np.random.default_rng(21).uniform(-2.0, 2.0, (40, 3))
    calls = []
    opts = {"maxiter": maxiter, "xatol": 1e-8, "fatol": 1e-12}
    with np.errstate(invalid="ignore"):
        got = _nelder_mead(_recording(fun, calls), starts, **opts)
        for i, x0 in enumerate(starts):
            ref = minimize(fun, x0, method="Nelder-Mead",
                           options={**opts, "adaptive": True})
            lone = _nelder_mead(_batch(fun), x0[None], **opts)
            assert _bits(got.x[i]).tolist() == _bits(ref.x).tolist()
            assert _bits(got.fun[i]) == _bits(ref.fun)
            assert got.start_nfev[i] == ref.nfev
            assert got.start_rounds[i] == lone.start_rounds[0]
    assert got.nfev == sum(got.start_nfev)
    assert len(calls) == max(got.start_rounds)
    assert all(owners == sorted(owners) for owners in calls)


def test_nelder_mead_shrinks_ask_for_n_points_at_once():
    # a flat objective contracts inside and shrinks at every iteration: a
    # start asks for 1, 1 and then N points, and stops on the x test
    starts = np.array([(1.0, 2.0, -0.5), (0.0, 0.0, 0.0), (-2.5, 0.0, 4.0)])
    calls = []
    got = _nelder_mead(_recording(lambda x: 0.0, calls), starts,
                       maxiter=160, xatol=1e-8, fatol=1e-12)
    per_start = np.array([np.bincount(owners, minlength=3)
                          for owners in calls[1:]]).T
    for i, asked in enumerate(per_start):
        asked = asked[asked > 0].tolist()
        assert asked == [1, 1, 3] * (len(asked) // 3)
        assert got.start_nfev[i] == 4 + sum(asked) < 4 + 5 * 159


def test_nelder_mead_maxiter_0_evaluates_the_start_simplex_only():
    from scipy.optimize import minimize
    fun = _nm_objectives()["quadratic"]
    starts = np.array([(1.0, 2.0, -0.5), (0.0, -3.0, 1e-3), (-0.0, 0.0, 2.0)])
    calls = []
    got = _nelder_mead(_recording(fun, calls), starts, maxiter=0,
                       xatol=1e-8, fatol=1e-12)
    assert calls == [[0] * 4 + [1] * 4 + [2] * 4]
    assert got.start_nfev == [4, 4, 4] and got.start_rounds == [1, 1, 1]
    for i, x0 in enumerate(starts):
        ref = minimize(fun, x0, method="Nelder-Mead",
                       options={"maxiter": 0, "adaptive": True})
        assert _bits(got.x[i]).tolist() == _bits(ref.x).tolist()
        assert _bits(got.fun[i]) == _bits(ref.fun)


def _project_scalar(x, center, radius, log_lo, log_hi, lo, hi):
    """The polish's projection in Python's scalar arithmetic: the reference
    of ``_project``."""
    zhat = complex(x[0], x[1])
    off = zhat - center
    r = abs(off)
    if r > radius:
        zhat = center + off * (radius / r)
    h = math.exp(min(max(x[2], log_lo), log_hi))
    return zhat, min(max(h, lo), hi)


def test_projection_repeats_the_scalar_steps_bitwise():
    # points in and outside the search disks, coordinates of -0.0 (also
    # on the line through a center, where x - c is -0.0) and log h beyond
    # both clips: zhat and h have the bits of the scalar steps
    searches = [(0j, 1.0, 1e-3, 1.0), (complex(-0.0, 0.0), 2.5, 1e-3, 7.0),
                (1.5 - 2.25j, 0.3, 0.2, 0.2), (complex(0.0, -0.0), 1e-3,
                                              1e-3, 4.0)]
    bounds = [(c, r, math.log(lo), math.log(hi), lo, hi)
              for c, r, lo, hi in searches]
    box = np.array([(c.real, c.imag, *rest) for c, *rest in bounds]).T
    rng = np.random.default_rng(12)
    m = 4000
    owner = rng.integers(0, len(searches), m)
    x = rng.standard_normal((m, 3)) * rng.choice([0.01, 1.0, 10.0], (m, 1))
    x[:, 2] += rng.choice([-30.0, 0.0, 30.0], m)
    x[rng.random((m, 3)) < 0.1] = -0.0
    x[rng.random((m, 3)) < 0.05] = 0.0
    on_line = rng.random(m) < 0.05
    x[on_line, 0] = box[0, owner[on_line]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zhat, h = _project(x, box[:, owner])
    # an infinite coordinate scales the offset by 0: Python's complex
    # product gives nan in both parts, from inf * 0
    rim = np.array([(math.inf, 0.5, 0.0), (0.5, -math.inf, 0.0),
                    (-math.inf, math.inf, 0.0)])
    with np.errstate(invalid="ignore"):
        rim_z, rim_h = _project(rim, box[:, :3])
    x = np.concatenate([x, rim])
    owner = np.concatenate([owner, [0, 1, 2]])
    zhat = np.concatenate([zhat, rim_z])
    h = np.concatenate([h, rim_h])
    want = [_project_scalar(xi, *bounds[s]) for xi, s in zip(x, owner)]
    assert _bits(zhat.real).tolist() == _bits([z.real for z, _ in want]).tolist()
    assert _bits(zhat.imag).tolist() == _bits([z.imag for z, _ in want]).tolist()
    assert _bits(h).tolist() == _bits([hi for _, hi in want]).tolist()
    # the cases are met: points moved onto a rim, zeros of either sign,
    # and h at each clip
    off = np.hypot(x[:, 0] - box[0, owner], x[:, 1] - box[1, owner])
    assert np.sum(off > box[2, owner]) > m // 4
    assert np.any(np.signbit(zhat.real) & (zhat.real == 0.0))
    assert np.any(~np.signbit(zhat.real) & (zhat.real == 0.0))
    assert np.any(h == box[5, owner]) and np.any(h == box[6, owner])


# ---------------------------------------------------------------------------
# lambda_stockyard

def test_stockyard_constant_lower_bound():
    f = ConstantDensity(4.0)
    est = lambda_stockyard(f, 0.5 + 0.5j, 10.0)
    assert est.method == "stockyard" and est.bound == "lower"
    assert est.value >= 400 * math.pi * (1 - 1e-6)
    report = validate_stockyard(est.witness)
    assert report.ok
    assert est.meta["budget"] == pytest.approx(40 * math.pi)


def test_stockyard_encircles_remote_bump():
    # bump mass 3 at distance 5, delta = 10: the stockyard reaches the
    # bump and winds the witness disk k times, so its mass is k times the
    # witness-disk mass plus the connector's (disk_mass oracle)
    f = BumpLattice([5 + 0j], [3.0], [0.5])
    est = lambda_stockyard(f, 0j, 10.0)
    k = est.meta["copies"]
    w = est.meta["witness"]
    assert k >= 1
    assert abs(w.center - 5) <= 0.5          # witness sits on the bump
    copy_mass = f.disk_mass(w.center, w.radius)
    connector_mass = est.value - k * copy_mass
    assert 0 <= connector_mass <= 3.0 + 1e-9
    assert est.value >= 3.0                  # beats encircling the bump once


def test_stockyard_zero_density_still_valid():
    est = lambda_stockyard(ZeroDensity(), 0j, 2.0)
    assert est.value == 0.0
    assert validate_stockyard(est.witness).ok


def test_stockyard_lists_one_pen_per_copy(monkeypatch):
    # a 0.001-radius bump keeps the witness at h = 0.001, so delta = 10
    # winds it 19,999 times: one pen object, validated and massed once
    f = BumpLattice([0j], [1.0], [0.001])
    lambda_sup(f, 0j, 10.0)               # the search is not timed
    calls = []
    monkeypatch.setattr(geometry, "pen_mass",
                        lambda field, pen: calls.append(pen) or
                        pen_mass(field, pen))
    t0 = time.perf_counter()
    est = lambda_stockyard(f, 0j, 10.0)
    assert time.perf_counter() - t0 < 1.0
    k, pens = est.meta["copies"], est.witness.pens
    assert k == 19_999 and len(pens) == k + 1
    assert all(p is pens[1] for p in pens[1:]) and len(calls) == 2
    # the copies' masses are added one by one, as k separate pens would be
    assert est.value == sum([pen_mass(f, pens[0])]
                            + [pen_mass(f, pens[1])] * k)


def test_stockyard_rejects_too_many_copies():
    f = BumpLattice([0j], [1.0], [0.001])
    with pytest.raises(CCStructError, match="witness copies"):
        lambda_stockyard(f, 0j, 1000.0)   # about 2e6 copies


# ---------------------------------------------------------------------------
# twist

def test_twist_same_point():
    assert twist_many(ConstantDensity(4.0), 1 + 1j, [1 + 1j])[0] == 0.0


def test_twist_z2_example():
    # P = |z|^2, z = 1, w = i: T = -2 Im(integral (i-1)(r(i-1)+1) dr) = -2
    f = PolynomialPotential({(1, 1): 1.0})
    assert twist_many(f, 1, [1j])[0] == pytest.approx(-2.0, abs=1e-9)


def test_twist_from_origin_vanishes():
    f = PolynomialPotential({(1, 1): 1.0})
    for v in twist_many(f, 0, [1 + 1j, -2j, 0.3 - 0.7j]):
        assert v == pytest.approx(0.0, abs=1e-12)


def test_twist_many_matches_scalar():
    # each endpoint against the scalar quad reference
    f = PolynomialPotential({(1, 1): 1.0, (2, 2): 0.25})
    ws = np.array([1j, 2 + 1j, -0.5 + 0.25j])
    many = twist_many(f, 1 + 0j, ws)
    for w, v in zip(ws, many):
        assert v == pytest.approx(reference.twist(f, 1 + 0j, w), rel=1e-13,
                                  abs=1e-15)


def test_twist_many_is_per_endpoint_across_blocks():
    # twist_many runs in blocks of endpoints; each value must not depend on
    # the batch it came in, one endpoint alone included
    f = RadialAlphaDensity(0.5)
    rng = np.random.default_rng(4)
    ws = rng.normal(0.0, 4.0, 1000) + 1j * rng.normal(0.0, 4.0, 1000)
    for z in (0j, 0.3 + 0.2j):
        many = _bits(twist_many(f, z, ws))
        assert np.array_equal(many, _bits([twist_many(f, z, [w])[0]
                                           for w in ws]))
        assert np.array_equal(many, _bits(twist_many(f, z, ws[::-1])[::-1]))


def test_twist_many_temporaries_stay_small():
    # unblocked, 5,000 endpoints x 96 complex nodes peaked at 39 MB
    f = RadialAlphaDensity(0.5)
    rng = np.random.default_rng(6)
    ws = rng.normal(0.0, 4.0, 5000) + 1j * rng.normal(0.0, 4.0, 5000)
    tracemalloc.start()
    try:
        twist_many(f, 0.3 + 0.2j, ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


# ---------------------------------------------------------------------------
# volume sandwich

def test_volume_zero_density():
    lo, hi = volume_estimate(ZeroDensity(), 0j, 1.0)
    assert lo == 0.0 and hi == 0.0


def test_volume_constant_sandwich():
    f = ConstantDensity(4.0)
    lo, hi = volume_estimate(f, 0j, 1.0)
    assert 0 < lo <= hi
    assert hi == pytest.approx(
        math.pi * 9 * 2 * lambda_sup(f, 0j, 3.0).value, rel=1e-9)


def test_volume_upper_monotone():
    f = ConstantDensity(4.0)
    _, hi1 = volume_estimate(f, 0j, 1.0)
    _, hi2 = volume_estimate(f, 0j, 2.0)
    assert hi2 >= hi1
    # the delta^2 * Lambda law: doubling delta scales the upper bound by 16
    assert 8.0 <= hi2 / hi1 <= 32.0


# ---------------------------------------------------------------------------
# sweeps

def test_sweep_grid_validation():
    f = ConstantDensity(4.0)
    with pytest.raises(ValueError):
        lambda_sweep(f, Window(0, 0, 1, 1, 2), (2.0, 1.0))  # not increasing
    with pytest.raises(ValueError):
        Window(1, 0, 0, 1, 2)                               # empty window
    with pytest.raises(ValueError):
        lambda_sweep(f, Window(0, 0, 1, 1, 2), (-1.0, 1.0))  # non-positive
    with pytest.raises(ValueError):
        lambda_sweep(f, Window(0, 0, 1, 1, 2), (math.nan,))  # not finite


def test_sweep_single_cell_equals_direct_call():
    f = ConstantDensity(4.0)
    rows = lambda_sweep(f, Window(0.5, 0.5, 0.5, 0.5, 1), (2.0,),
                        method="sup")
    assert len(rows) == 1
    direct = lambda_sup(f, 0.5 + 0.5j, 2.0)
    assert rows[0].value == pytest.approx(direct.value, rel=1e-12)
    assert rows[0].witness_radius == pytest.approx(direct.witness.radius)


def test_sweep_constant_translation_invariance():
    f = ConstantDensity(4.0)
    rows = lambda_sweep(f, Window(-1, -1, 1, 1, 3), (1.0, 2.0, 4.0, 8.0),
                        method="sup")
    assert len(rows) == 36
    by_delta = {}
    for r in rows:
        by_delta.setdefault(r.delta, []).append(r.value)
    for d, vals in by_delta.items():
        assert max(vals) <= min(vals) * 1.01


def _row_bits(value, center, radius):
    return [_bits(v) for v in (value, center.real, center.imag, radius)]


def test_sweep_rows_repeat_lone_calls():
    # a sweep searches its whole window x ladder at once; each row keeps
    # the bits of a lone estimate on a fresh field
    from ccstruct.density import decaying_bump_lattice
    window, deltas = Window(-1, -1, 1, 1, 2), (0.4, 4.0)
    sup = lambda_sweep(decaying_bump_lattice(8), window, deltas, "sup")
    yard = lambda_sweep(decaying_bump_lattice(8), window, deltas, "stockyard")
    assert len(sup) == len(yard) == 8
    for a, b in zip(sup, yard):
        g = decaying_bump_lattice(8)
        lone, lone_yard = (lambda_sup(g, a.z, a.delta),
                           lambda_stockyard(g, a.z, a.delta))
        w, yw = lone.witness, lone_yard.meta["witness"]
        for row, want in ((a, (lone.value, w.center, w.radius)),
                          (b, (lone_yard.value, yw.center, yw.radius))):
            assert row.error is None and _row_bits(
                row.value, row.witness_center,
                row.witness_radius) == _row_bits(*want)
    row, = lambda_sweep(ConstantDensity(4.0), Window(0.5, 0.25, 0.5, 0.25, 1),
                        (2.0,), "direct", seed=3)
    lone = sample_lambda_direct(ConstantDensity(4.0), 0.5 + 0.25j, 2.0, seed=3)
    assert row.error is None and _bits(row.value) == _bits(lone.value)


def test_sweep_records_errors_per_row():
    f = ConstantDensity(4.0)
    rows = lambda_sweep(f, Window(0, 0, 0, 0, 1), (1.0,),
                        method="no-such-method")
    assert rows[0].error is not None and "ValueError" in rows[0].error
