"""UGS classification: condition checks, slope fits, verdict logic."""

import math
import warnings

import numpy as np
import pytest

from ccstruct import classify, structure
from ccstruct.classify import (CLASSIFY_OPTS, Window,
                               check_linear_conditions,
                               check_quadratic_conditions, dichotomy_probe,
                               doubling_ratio, fit_loglog_slope, mass_table,
                               track_slope)
from ccstruct.density import (ConstantDensity, DensityField,
                              PolynomialPotential, RadialAlphaDensity,
                              ZeroDensity, decaying_bump_lattice)
from ccstruct.errors import CCStructError, QuadratureFailure
from ccstruct.structure import lambda_sup

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


class _HugeMasses(DensityField):
    """Every disk holds mass 1e308: finite, but mu/h overflows at h < 1."""

    family = "huge"

    def _disk_masses(self, centers, radii):
        return np.full(centers.shape, 1e308)


def test_linear_b_rejects_a_sup_that_is_not_finite():
    # the small-scale sup of mu/h is inf: an error, not a statistic of inf,
    # and no overflow warning
    f, deltas = _HugeMasses(), np.geomspace(1, 100, 7)
    table = mass_table(f, SMALL_WINDOW, deltas)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CCStructError, match="small-scale sup at z="):
            check_linear_conditions(f, SMALL_WINDOW, deltas, table)


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


def _wrap_search(monkeypatch, wrap):
    # every module binding of the search, so that each call goes through
    # ``wrap(search)`` whichever module makes it
    search = structure.optimize_weighted_disk
    for mod in (structure, classify):
        if getattr(mod, "optimize_weighted_disk", None) is search:
            monkeypatch.setattr(mod, "optimize_weighted_disk", wrap(search))


def _count_searches(monkeypatch):
    """The number of searches of each search call, as a list."""
    calls = []

    def wrap(search):
        def counting(field, searches, opts):
            calls.append(len(searches))
            return search(field, searches, opts)
        return counting

    _wrap_search(monkeypatch, wrap)
    return calls


@pytest.mark.parametrize("make, window, deltas", [
    (lambda: decaying_bump_lattice(8), Window(0, 0, 0, 0, 1),
     np.geomspace(0.4, 40, 5)),
    (lambda: RadialAlphaDensity(0.5), Window(-5, -5, 5, 5, 2),
     np.geomspace(1, 1000, 4))])
def test_probe_runs_every_search_in_one_call(monkeypatch, make, window,
                                             deltas):
    # the window x ladder searches and linear condition (b)'s searches run
    # in one call, and the report keeps the bits of every search run alone
    # on a fresh field; a following check of the linear conditions reads
    # its searches from the memo
    def alone(search):
        return lambda field, searches, opts: [
            got for one in searches for got in search(field, [one], opts)]

    with monkeypatch.context() as m:
        _wrap_search(m, alone)
        want = dichotomy_probe(make(), window, deltas).as_dict()
    calls = _count_searches(monkeypatch)
    f = make()
    rep = dichotomy_probe(f, window, deltas)
    n = len(window.points())
    assert calls == [n * len(deltas) + n * len(classify.DELTA_STAR_LADDER)]
    assert repr(rep.as_dict()) == repr(want)
    checks = check_linear_conditions(f, window, deltas,
                                     mass_table(f, window, deltas))
    assert len(calls) == 1
    assert repr(list(checks)) == repr(rep.checks[:2])


#: a one-point window and a ladder whose searches stay at radii up to 1
_POINT, _LADDER = Window(0, 0, 0, 0, 1), [0.01, 0.1, 1.0]


def _assert_lone_ladder(f, make):
    # each ladder cell holds the bits of its lone search on a fresh field
    from test_density import _bits
    for z in _POINT.points():
        for d in _LADDER:
            got = lambda_sup(f, z, d, CLASSIFY_OPTS)
            want = lambda_sup(make(), z, d, CLASSIFY_OPTS)
            assert _bits(got.value) == _bits(want.value)
            assert got.witness == want.witness and got.meta == want.meta


def test_probe_raises_a_coarse_error_of_linear_b(monkeypatch):
    # (b)'s searches at delta* = 4, 8 and 16 fail in their coarse stages
    # (radius 2, 4 and 8): the one call polishes the others, and the probe
    # raises the first error of (b)'s searches
    from test_structure import _FailsAbove
    f = _FailsAbove()
    calls = _count_searches(monkeypatch)
    with pytest.raises(QuadratureFailure, match="radius 2.0$"):
        dichotomy_probe(f, _POINT, _LADDER)
    assert calls == [len(_LADDER) + len(classify.DELTA_STAR_LADDER)]
    _assert_lone_ladder(f, _FailsAbove)


def test_probe_raises_a_polish_error_of_linear_b(monkeypatch):
    # only the polish of (b)'s search at delta* = 16 asks for radii in
    # (7, 7.5): the one call fails and stores nothing, the ladder cells run
    # alone, and (b)'s searches run again in one call, raising its error
    from test_structure import _FailsInside

    def make():
        return _FailsInside(7.0, 7.5)

    with pytest.raises(QuadratureFailure) as want:
        structure.optimize_weighted_disk(
            make(), classify._linear_b_searches(_POINT), CLASSIFY_OPTS)
    f = make()
    calls = _count_searches(monkeypatch)
    with pytest.raises(QuadratureFailure) as got:
        dichotomy_probe(f, _POINT, _LADDER)
    assert str(got.value) == str(want.value)
    n_b = len(classify.DELTA_STAR_LADDER)
    assert calls == [len(_LADDER) + n_b] + [1] * len(_LADDER) + [n_b]
    _assert_lone_ladder(f, make)


def test_probe_refuses_a_rung_that_is_not_finite():
    # the one call leaves the infinite rung out, and its read raises
    # lambda_sup's error, not the error of a search with infinite radii
    with pytest.raises(ValueError, match="delta must be positive and finite"):
        dichotomy_probe(ConstantDensity(1.0), _POINT, [1.0, 10.0, math.inf])


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


def test_linear_b_raises_the_first_error_of_its_searches():
    # the searches at delta* = 4, 8 and 16 fail in their coarse stages
    # (radius 2, 4 and 8); the check raises the first of their errors
    from test_structure import _FailsAbove
    f, window, deltas = _FailsAbove(), Window(0, 0, 0, 0, 1), [0.5, 1.0]
    with pytest.raises(QuadratureFailure, match="radius 2.0$"):
        check_linear_conditions(f, window, deltas,
                                mass_table(f, window, deltas))


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
