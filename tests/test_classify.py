"""UGS classification: condition checks, slope fits, verdict logic."""

import math

import numpy as np
import pytest

from ccstruct import classify, structure
from ccstruct.classify import (Window, check_linear_conditions,
                               check_quadratic_conditions, dichotomy_probe,
                               doubling_ratio, fit_loglog_slope, mass_table,
                               track_slope)
from ccstruct.density import (ConstantDensity, PolynomialPotential,
                              RadialAlphaDensity, ZeroDensity,
                              decaying_bump_lattice)

SMALL_WINDOW = Window(-2, -2, 2, 2, 3)


def test_window_validation():
    for bounds in ((1, 0, 0, 1), (math.nan, 0, 1, 1), (0, 0, math.inf, 1)):
        with pytest.raises(ValueError):
            Window(*bounds, 3)
    assert len(Window(-1, -1, 1, 1, 3).points()) == 9


def test_fit_loglog_slope_power_law():
    d = np.geomspace(1, 100, 8)
    assert fit_loglog_slope(d, 3.0 * d ** 1.7) == pytest.approx(1.7,
                                                                abs=1e-12)
    assert math.isnan(fit_loglog_slope([1.0], [2.0]))


def test_median_is_np_median_bitwise():
    rng = np.random.default_rng(4)
    for n in (1, 2, 9, 16, 25):
        v = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.uniform(-300, 300, n)
        want = np.median(v)
        assert classify._median(v).hex() == float(want).hex()
        v[n // 2] = math.nan
        assert math.isnan(classify._median(v))


# ---------------------------------------------------------------------------
# linear conditions

def test_linear_a_fails_for_constant():
    # mu/delta = 4 pi delta grows linearly: clear trend
    f, deltas = ConstantDensity(4.0), np.geomspace(1, 100, 7)
    a, _ = check_linear_conditions(f, SMALL_WINDOW, deltas,
                                   mass_table(f, SMALL_WINDOW, deltas))
    assert a.verdict == "fail"
    assert a.context["trend_slope"] == pytest.approx(1.0, abs=1e-6)


def test_linear_b_fails_for_zero():
    f, deltas = ZeroDensity(), np.geomspace(1, 100, 7)
    _, b = check_linear_conditions(f, SMALL_WINDOW, deltas,
                                   mass_table(f, SMALL_WINDOW, deltas))
    assert b.verdict == "fail"
    assert b.statistic == 0.0


def test_linear_passes_for_decaying_lattice():
    f, deltas = decaying_bump_lattice(70), np.geomspace(0.4, 40, 9)
    window = Window(-20, -20, 20, 20, 3)
    a, b = check_linear_conditions(f, window, deltas,
                                   mass_table(f, window, deltas))
    assert a.verdict == "pass"
    assert b.verdict == "pass"
    assert b.statistic > 0


# ---------------------------------------------------------------------------
# quadratic conditions

def test_quadratic_passes_for_constant():
    f, deltas = ConstantDensity(4.0), np.geomspace(1, 100, 7)
    a, b = check_quadratic_conditions(SMALL_WINDOW, deltas,
                                      mass_table(f, SMALL_WINDOW, deltas))
    assert a.verdict == "pass" and b.verdict == "pass"
    assert b.statistic == pytest.approx(1.0, rel=1e-9)   # band ratio


def test_quadratic_fails_for_radial_alpha():
    # mu(0, delta)/delta^2 decays like delta^(-alpha): drift, not a band
    f, deltas = RadialAlphaDensity(0.5), np.geomspace(1, 1000, 8)
    a, b = check_quadratic_conditions(SMALL_WINDOW, deltas,
                                      mass_table(f, SMALL_WINDOW, deltas))
    assert b.verdict == "fail"


def test_quadratic_fails_for_z4():
    # mu(z, delta)/delta^2 grows with |z| at fixed delta: no uniform band
    f, deltas = PolynomialPotential({(2, 2): 1.0}), np.geomspace(0.5, 50, 8)
    window = Window(-10, -10, 10, 10, 3)
    a, b = check_quadratic_conditions(window, deltas,
                                      mass_table(f, window, deltas))
    assert b.verdict == "fail"


def test_checks_reject_mismatched_table():
    f, deltas = ConstantDensity(4.0), np.geomspace(1, 100, 7)
    table = mass_table(f, SMALL_WINDOW, deltas)
    for bad in (table[:-1], table[:, :-1], table.ravel()):
        with pytest.raises(ValueError):
            check_linear_conditions(f, SMALL_WINDOW, deltas, bad)
        with pytest.raises(ValueError):
            check_quadratic_conditions(SMALL_WINDOW, deltas, bad)


# ---------------------------------------------------------------------------
# dichotomy probe

def test_probe_constant_quadratic():
    rep = dichotomy_probe(ConstantDensity(4.0), SMALL_WINDOW,
                          np.geomspace(1, 100, 7))
    assert rep.verdict == "Quadratic"
    for s in rep.slopes.values():
        assert s == pytest.approx(2.0, abs=0.02)
    assert rep.slope_spread <= 0.02


def test_probe_radial_alpha_no_ugs():
    rep = dichotomy_probe(RadialAlphaDensity(0.5), Window(-5, -5, 5, 5, 3),
                          np.geomspace(1, 1000, 8))
    assert rep.verdict == "NoUGS"
    # growth exponent 2 - alpha = 1.5: outside both admissible bands
    mean = np.mean(list(rep.slopes.values()))
    assert 1.3 <= mean <= 1.7


def test_probe_z4_no_ugs():
    f = PolynomialPotential({(2, 2): 1.0})
    rep = dichotomy_probe(f, Window(-10, -10, 10, 10, 3),
                          np.geomspace(0.5, 50, 8))
    assert rep.verdict == "NoUGS"
    assert rep.slope_spread > 0.3


def test_probe_short_ladder_inconclusive():
    rep = dichotomy_probe(ConstantDensity(4.0), SMALL_WINDOW, [1.0, 2.0])
    assert rep.verdict == "Inconclusive"
    assert "reason" in rep.meta


def test_probe_mutual_exclusion():
    # at most one of Linear/Quadratic on every probed field
    for f in (ConstantDensity(4.0), RadialAlphaDensity(0.5)):
        rep = dichotomy_probe(f, SMALL_WINDOW, np.geomspace(1, 200, 7))
        assert rep.verdict in ("Linear", "Quadratic", "NoUGS",
                               "Inconclusive")


def test_probe_scaling_covariance():
    # scaling the density must not change the verdict or the slopes
    rep1 = dichotomy_probe(ConstantDensity(1.0), SMALL_WINDOW,
                           np.geomspace(1, 100, 7))
    rep5 = dichotomy_probe(ConstantDensity(5.0), SMALL_WINDOW,
                           np.geomspace(1, 100, 7))
    assert rep1.verdict == rep5.verdict == "Quadratic"
    for z in rep1.slopes:
        assert rep1.slopes[z] == pytest.approx(rep5.slopes[z], abs=1e-9)


def test_track_slope_radial_alpha():
    f = RadialAlphaDensity(0.5)
    deltas = np.geomspace(100, 10000, 6)
    s = track_slope(f, lambda d: complex(d ** 1.5), deltas)
    assert s <= 2 - 3 * 0.5 / 2 + 0.1     # moving base point slows growth


# ---------------------------------------------------------------------------
# doubling ratios

def test_doubling_constant_is_four():
    rows = doubling_ratio(ConstantDensity(4.0), SMALL_WINDOW,
                          [1.0, 2.0, 4.0, 8.0])
    assert len(rows) == 3   # (1,2), (2,4), (4,8)
    for row in rows:
        assert row["max_ratio"] == pytest.approx(4.0, abs=0.05)
        assert not row["flagged"]


def test_doubling_zero_density_skipped():
    rows = doubling_ratio(ZeroDensity(), SMALL_WINDOW, [1.0, 2.0])
    assert len(rows) == 1
    assert math.isnan(rows[0]["max_ratio"])
    assert rows[0]["skipped"] == len(SMALL_WINDOW.points())


def test_doubling_and_track_search_their_cells_at_once(monkeypatch):
    # each hands all its cells to one search call, (z, d) and (z, 2 d) for
    # doubling_ratio, and its rows keep the bits of lone searches made on a
    # fresh field
    window, deltas = Window(-1, -1, 1, 1, 2), [0.5, 1.0, 2.0, 3.0]

    def track(d):
        return complex(0.3 * d, 0.1)

    with monkeypatch.context() as m:
        m.setattr(classify, "prime_lambda_sup", lambda *args: None)
        lone = decaying_bump_lattice(3)
        want = (doubling_ratio(lone, window, deltas),
                track_slope(lone, track, deltas))
    calls = []
    search = structure.optimize_weighted_disk

    def counting(field, searches, opts):
        calls.append(len(searches))
        return search(field, searches, opts)

    monkeypatch.setattr(structure, "optimize_weighted_disk", counting)
    rows = doubling_ratio(decaying_bump_lattice(3), window, deltas)
    # ladder rungs 0.5, 1 and 2 at each of the four points
    assert calls == [12] and len(rows) == 2
    assert rows == want[0]
    calls.clear()
    assert track_slope(decaying_bump_lattice(3), track, deltas) == want[1]
    assert calls == [4]


def test_doubling_lattice_within_chain_bound():
    f = decaying_bump_lattice(30)
    rows = doubling_ratio(f, Window(-5, -5, 5, 5, 2), [2.0, 4.0, 8.0])
    for row in rows:
        assert 1.0 <= row["max_ratio"] <= 49.0
        assert not row["flagged"]
