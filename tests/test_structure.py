"""Structure estimators: sup proxy, stockyard lower bound, twist,
volume sandwich, sweeps."""

import math

import numpy as np
import pytest

from ccstruct.density import (BumpLattice, ConstantDensity,
                              PolynomialPotential, RadialAlphaDensity,
                              ZeroDensity)
from ccstruct.geometry import validate_stockyard
from ccstruct.structure import (SupOptions, Window, lambda_stockyard,
                                lambda_sup, lambda_sweep, twist, twist_many,
                                volume_estimate)

FAST = SupOptions(n_rungs=10, grid=17, n_polish=2, polish_maxiter=60)


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
    vals = [lambda_sup(f, 1 + 1j, d, FAST).value for d in (1.0, 2.0, 4.0)]
    assert vals[0] <= vals[1] <= vals[2]


def test_lambda_sup_rejects_bad_delta():
    with pytest.raises(ValueError):
        lambda_sup(ConstantDensity(1.0), 0j, 0.0)


def test_lambda_sup_finds_offcenter_bump():
    # single bump of mass 3 at distance 5: within reach at delta = 10
    f = BumpLattice([5 + 0j], [3.0], [0.5])
    est = lambda_sup(f, 0j, 10.0)
    assert abs(est.witness.center - 5) <= 1.0
    # weight (delta/h) rewards small enclosing disks: value >> mass
    assert est.value >= 3.0


def test_lambda_sup_deterministic():
    f = RadialAlphaDensity(0.5)
    a = lambda_sup(f, 2 + 1j, 7.0, FAST)
    f2 = RadialAlphaDensity(0.5)    # fresh instance, fresh cache
    b = lambda_sup(f2, 2 + 1j, 7.0, FAST)
    assert a.value == b.value


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


def test_stockyard_vs_sup_ratio():
    # constructive lower bound captures at least 0.4 of the proxy
    for f in (ConstantDensity(4.0), RadialAlphaDensity(0.5),
              PolynomialPotential({(2, 2): 1.0})):
        for d in (1.0, 10.0):
            sup = lambda_sup(f, 0.3 - 0.2j, d, FAST)
            low = lambda_stockyard(f, 0.3 - 0.2j, d, FAST)
            assert low.value >= 0.4 * sup.value


# ---------------------------------------------------------------------------
# twist

def test_twist_same_point():
    assert twist(ConstantDensity(4.0), 1 + 1j, 1 + 1j) == 0.0


def test_twist_z2_example():
    # P = |z|^2, z = 1, w = i: T = -2 Im(integral (i-1)(r(i-1)+1) dr) = -2
    f = PolynomialPotential({(1, 1): 1.0})
    assert twist(f, 1, 1j) == pytest.approx(-2.0, abs=1e-9)


def test_twist_from_origin_vanishes():
    f = PolynomialPotential({(1, 1): 1.0})
    for w in (1 + 1j, -2j, 0.3 - 0.7j):
        assert twist(f, 0, w) == pytest.approx(0.0, abs=1e-12)


def test_twist_many_matches_scalar():
    f = PolynomialPotential({(1, 1): 1.0, (2, 2): 0.25})
    ws = np.array([1j, 2 + 1j, -0.5 + 0.25j])
    many = twist_many(f, 1 + 0j, ws)
    for w, v in zip(ws, many):
        assert v == pytest.approx(twist(f, 1 + 0j, w), abs=1e-9)


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
                        method="sup", opts=FAST)
    assert len(rows) == 36
    by_delta = {}
    for r in rows:
        by_delta.setdefault(r.delta, []).append(r.value)
    for d, vals in by_delta.items():
        assert max(vals) <= min(vals) * 1.01


def test_sweep_records_errors_per_row():
    f = ConstantDensity(4.0)
    rows = lambda_sweep(f, Window(0, 0, 0, 0, 1), (1.0,),
                        method="no-such-method")
    assert rows[0].error is not None and "ValueError" in rows[0].error
