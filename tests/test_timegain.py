"""Time-varying gain calculus: clock, kappa factors, growth criteria."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dptco import chain_ctrl, generator, scenario, strictfb_ctrl
from dptco.errors import DptcoError
from dptco.generator import check_generator_criterion
from dptco.timegain import (GainFunction, PrescribedClock, _adaptive_simpson,
                            check_growth_criterion, gain_integral, kappa,
                            log_grid)

import oracles
from conftest import scenario_path
from oracles import (dc2_gain, exp_gain, gain_to_dict, linear_gain, log_gain,
                     power_gain)


# --- clock -------------------------------------------------------------------

def test_mu_at_start():
    clock = PrescribedClock(T=1.0, guard_frac=0.999)
    assert clock.mu(0.0) == 1.0


def test_mu_midpoint():
    clock = PrescribedClock(T=1.0, guard_frac=0.999)
    assert clock.mu(0.5) == 2.0


def test_mu_rejects_deadline():
    clock = PrescribedClock(T=1.0, guard_frac=0.999)
    with pytest.raises(DptcoError,
                       match=re.escape("t=1.0 outside [0.0, 1.0)")):
        clock.mu(1.0)


def test_mu0_is_inverse_deadline():
    for T in (0.5, 1.0, 2.0, 7.25):
        clock = PrescribedClock(T=T, guard_frac=0.999)
        assert clock.mu0 == pytest.approx(1.0 / T)


def test_mu_derivative_is_mu_squared():
    # numerical check of d(mu)/dt = mu^2
    clock = PrescribedClock(T=1.0, guard_frac=0.999)
    h = 1e-6
    for t in (0.0, 0.3, 0.7, 0.9):
        fd = (clock.mu(t + h) - clock.mu(t)) / h
        assert fd == pytest.approx(clock.mu(t) ** 2, rel=1e-4)


def test_mu_strictly_increasing():
    clock = PrescribedClock(T=3.0, guard_frac=0.999)
    ts = np.linspace(0.0, 3.0 * 0.999, 200)
    mus = [clock.mu(t) for t in ts]
    assert all(b > a for a, b in zip(mus, mus[1:]))


def test_clock_rejects_bad_params():
    for T, guard_frac, msg in (
            (0.0, 0.999, "T must be finite and > 0"),
            (1.0, 1.0, "guard_frac must be in"),
            (math.nan, 0.9, "T must be finite and > 0"),
            (math.inf, 0.9, "T must be finite and > 0"),
            (1.0, math.nan, "guard_frac must be in")):
        with pytest.raises(DptcoError, match=msg):
            PrescribedClock(T, guard_frac)


# --- kappa -------------------------------------------------------------------

def test_kappa_zero_iota():
    clock = PrescribedClock(T=1.0, guard_frac=0.999)
    assert kappa(clock, linear_gain(3.0), 0.0, 0.7) == 1.0


def test_kappa_at_start():
    clock = PrescribedClock(T=1.0, guard_frac=0.999)
    assert kappa(clock, linear_gain(3.0), -2.5, 0.0) == 1.0


def test_kappa_linear_closed_form():
    # alpha(s) = 2s, iota = -1: integral is 2 ln(mu/mu0), kappa = (mu0/mu)^2
    clock = PrescribedClock(T=1.0, guard_frac=0.999)
    assert kappa(clock, linear_gain(2.0), -1.0, 0.5) == pytest.approx(0.25)


def test_kappa_linear_power_law():
    rng = np.random.default_rng(3)
    clock = PrescribedClock(T=1.0, guard_frac=0.999)
    k = 1.7
    alpha = linear_gain(k)
    for t in rng.uniform(0.0, 0.99, size=100):
        expected = (clock.mu(0.0) / clock.mu(t)) ** k
        assert kappa(clock, alpha, -1.0, float(t)) == pytest.approx(
            expected, rel=1e-8)


def test_kappa_multiplicative_in_iota():
    clock = PrescribedClock(T=2.0, guard_frac=0.999)
    alpha = power_gain(0.8, 1.5)
    for i1, i2 in ((-1.0, -0.5), (0.3, 0.7), (-2.0, 1.0)):
        prod = (kappa(clock, alpha, i1, 1.4) * kappa(clock, alpha, i2, 1.4))
        assert prod == pytest.approx(
            kappa(clock, alpha, i1 + i2, 1.4), rel=1e-9)


def test_kappa_underflows_to_zero():
    clock = PrescribedClock(T=1.0, guard_frac=1.0 - 1e-9)
    assert kappa(clock, linear_gain(100.0), -10.0, 1.0 - 1e-8) == 0.0


# --- gain families and quadrature -------------------------------------------

def test_gain_integral_linear_closed_form():
    assert gain_integral(linear_gain(3.0), 1.0, math.e) == pytest.approx(3.0)


def test_gain_integral_power_closed_form():
    # k s^a / s^2 integrates to k s^{a-1}/(a-1)
    got = gain_integral(power_gain(2.0, 3.0), 1.0, 2.0)
    assert got == pytest.approx(2.0 * (4.0 - 1.0) / 2.0)


def test_gain_integral_simpson_matches_closed_form():
    # the quadrature behind gain_integral's log, exp and dc2 families, on
    # the integrand of linear_gain(3.0): 3/s over [1, 10] is 3 ln 10
    assert _adaptive_simpson(lambda s: 3.0 / s, 1.0, 10.0) == pytest.approx(
        3.0 * math.log(10.0), rel=1e-6)


def test_gain_roundtrip_serialization():
    for g in (linear_gain(2.0), power_gain(1.5, 1.5), log_gain(0.3),
              exp_gain(1.0, 1.0)):
        assert GainFunction.from_dict(gain_to_dict(g)) == g
    dc2 = dc2_gain(power_gain(1.5, 1.5), 2.0, 2, 1.0)
    back = GainFunction.from_dict(gain_to_dict(dc2))
    assert back == dc2 and back.base == dc2.base


def test_construction_refuses_a_nonzero_origin():
    with pytest.raises(DptcoError, match="a > 0"):
        GainFunction("power", (1.0, 0.0))  # constant 1, alpha(0) != 0


# each family's parameters at the edge of their range, and just inside it
RANGE_EDGES = [
    ("linear", (0.0,), (1e-300,)),
    ("power", (0.0, 1.5), (1e-300, 1.5)),
    ("power", (1.0, 0.0), (1.0, 1e-300)),
    ("log", (0.0,), (1e-300,)),
    ("exp", (0.0, 1.0), (1e-300, 1.0)),
    ("exp", (1.0, -1e-4), (1.0, 0.0)),
]


@pytest.mark.parametrize("family, bad, good", RANGE_EDGES)
def test_construction_refuses_each_bound_of_each_family(family, bad, good):
    GainFunction(family, good)
    with pytest.raises(DptcoError, match=f"{family} gain needs"):
        GainFunction(family, bad)


@pytest.mark.parametrize("params", [
    (0.0, 2, 1.0), (1.0, 0, 1.0), (1.0, 1.5, 1.0), (1.0, 2, 0.0),
], ids=["v1", "m", "integer_m", "mu0"])
def test_construction_refuses_each_bound_of_dc2(params):
    GainFunction("dc2", (1.0, 2, 1.0), base=linear_gain(1.0))
    with pytest.raises(DptcoError, match=re.escape(
            f"dc2 gain needs finite params with v1 > 0, an integer m >= 1 "
            f"and mu0 > 0, got {list(params)}")):
        GainFunction("dc2", params, base=linear_gain(1.0))


def test_construction_refuses_a_dc2_gain_without_a_base():
    with pytest.raises(ValueError, match="base"):
        GainFunction("dc2", (1.0, 2, 1.0))


@pytest.mark.parametrize("family, params", [
    ("linear", ()), ("linear", (1.0, 2.0)), ("power", (1.0,)),
    ("log", (1.0, 1.0)), ("exp", (1.0, 1.0, 1.0)), ("dc2", (1.0, 2)),
])
def test_construction_refuses_the_wrong_count(family, params):
    with pytest.raises(ValueError, match=f"{family} gain takes"):
        GainFunction(family, params, base=linear_gain(1.0))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("family, params", [
    ("linear", (1.0,)), ("power", (1.0, 1.5)), ("log", (1.0,)),
    ("exp", (1.0, 1.0)), ("dc2", (1.0, 2, 1.0)),
])
def test_construction_refuses_a_non_finite_param(family, params, value):
    for i in range(len(params)):
        bad = params[:i] + (value,) + params[i + 1:]
        with pytest.raises(DptcoError, match="finite"):
            GainFunction(family, bad, base=linear_gain(1.0))


def test_from_dict_checks_a_dc2_gain_and_its_base():
    base = {"family": "linear", "params": [1.0]}
    assert GainFunction.from_dict(
        {"family": "dc2", "params": [1.0, 2, 1.0], "base": base}).base == \
        linear_gain(1.0)
    with pytest.raises(DptcoError, match="v1 > 0"):
        GainFunction.from_dict(
            {"family": "dc2", "params": [-1.0, 2, 1.0], "base": base})
    with pytest.raises(DptcoError, match="k1 > 0"):
        GainFunction.from_dict({"family": "dc2", "params": [1.0, 2, 1.0],
                                "base": {"family": "exp",
                                         "params": [-1.0, 1.0]}})


@given(st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=1.0, max_value=3.0))
@settings(max_examples=30, deadline=None)
def test_power_gain_deriv_matches_fd(k, a):
    g = power_gain(k, a)
    for s in (0.5, 1.0, 4.0):
        h = 1e-6 * s
        fd = (g.eval(s + h) - g.eval(s - h)) / (2.0 * h)
        assert g.deriv(s) == pytest.approx(fd, rel=1e-5)


@pytest.mark.parametrize("a, at_zero", [(0.5, math.inf), (1.0, 2.0),
                                         (1.5, 0.0)])
def test_power_gain_slope_at_zero(a, at_zero):
    # k s^a with k = 2: its slope k a s^(a-1) grows without bound toward
    # s = 0 for a < 1, is k for a = 1 and falls to 0 for a > 1; a float and
    # an array entry agree
    g = power_gain(2.0, a)
    assert g.deriv(0.0) == at_zero
    got = g.deriv(np.array([0.0, 1e-12, 1.0]))
    assert got[0] == at_zero
    assert got[1:].tolist() == [g.deriv(1e-12), g.deriv(1.0)]
    if a < 1.0:
        assert g.deriv(1e-12) == pytest.approx(1e6)


# one gain of each family, every value finite on [1e-2, 1e3]
FAMILY_GAINS = {
    "linear": linear_gain(2.0),
    "power": power_gain(1.5, 1.5),
    "log": log_gain(0.3),
    "exp": exp_gain(1.0, 0.5),
    "dc2": dc2_gain(power_gain(1.0, 0.5), 2.0, 2, 1e-2),
}


def test_deriv_matches_a_finite_difference_in_every_family():
    # deriv against a central difference, to 1e-5 relative, on 50
    # log-spaced points of [1e-2, 1e3]
    s = oracles.log_grid(1e-2, 1e3, 50)
    h = 1e-6 * s
    for name, g in FAMILY_GAINS.items():
        fd = (g.eval(s + h) - g.eval(s - h)) / (2.0 * h)
        assert np.isfinite(fd).all(), name
        np.testing.assert_array_less(np.abs(g.deriv(s) - fd),
                                     1e-5 * np.maximum(1.0, np.abs(fd)),
                                     err_msg=name)


# --- growth criteria ---------------------------------------------------------

def test_linear_boundary_exact():
    # k s' satisfies k <= (c*/2) k^2 exactly when k >= 2/c*
    c_star = 0.1
    grid = log_grid(1.0, 1000.0)
    k_pass = 2.0 / c_star
    assert check_generator_criterion(linear_gain(k_pass), c_star, grid).passed
    assert not check_generator_criterion(
        linear_gain(1.0 / c_star), c_star, grid).passed


def test_linear_boundary_resolution():
    # the pass/fail boundary sits at k = 2/c* within 1e-6 relative
    c_star = 0.1
    grid = log_grid(1.0, 1000.0)
    k_b = 2.0 / c_star
    assert check_generator_criterion(
        linear_gain(k_b * (1.0 + 1e-6)), c_star, grid).passed
    assert not check_generator_criterion(
        linear_gain(k_b * (1.0 - 1e-6)), c_star, grid).passed


def test_log_family_passes():
    # alpha(s) = k s ln(s+2); k = 2/(c* ln 2) passes for all s >= 0 with
    # equality exactly at s = 0 (half that k fails for s below about 5)
    c_star = 0.1
    grid = oracles.log_grid(1e-2, 1000.0, 2000)
    k = 2.0 / (c_star * math.log(2.0))
    assert check_generator_criterion(log_gain(k), c_star, grid).passed
    assert not check_generator_criterion(log_gain(0.5 * k), c_star,
                                         grid).passed


def test_exp_family_passes():
    # alpha(s) = k1 s e^{k2 s} passes for k1 large enough on s >= 1
    c_star = 0.1
    grid = oracles.log_grid(1.0, 500.0, 2000)
    k1 = 4.0 / c_star
    assert check_generator_criterion(exp_gain(k1, 1.0), c_star, grid).passed


def test_criterion_report_carries_worst_point():
    grid = oracles.log_grid(1.0, 100.0, 500)
    rep = check_generator_criterion(linear_gain(10.0), 0.1, grid)
    assert not rep.passed
    assert rep.worst_margin < 0
    d = rep.to_dict()
    assert d["pass"] is False and "worst_s" in d


def test_coupling_bound_checked():
    # chain gain must stay below (c*/v1) alpha, here 0.1 alpha
    grid = oracles.log_grid(1.0, 100.0, 500)
    alpha_main = linear_gain(20.0)
    ok = check_growth_criterion("chain_dc1", linear_gain(1.0), 0.125, grid,
                                (0.1, alpha_main))
    assert ok.coupling_passed
    bad = check_growth_criterion("chain_dc1", linear_gain(3.0), 0.125, grid,
                                 (0.1, alpha_main))
    assert not bad.coupling_passed


# --- derived chain gain ------------------------------------------------------

def test_dc2_closed_form_linear_base():
    # alpha_x(s) = s, v1 = 2, m = 2, mu0 = 1: at s = e the integral of
    # 1/tau over [1, e] is 1, so alpha_s(e) = e^2 * e^1
    alpha_s = dc2_gain(linear_gain(1.0), v1=2.0, m=2, mu0=1.0)
    assert alpha_s.eval(math.e) == pytest.approx(math.e ** 3, rel=1e-8)


def test_dc2_closed_form_power_base():
    # alpha_x(s) = s^{3/2}: integral of tau^{-1/2} over [1, 4] is 2,
    # so alpha_s(4) = 4^3 * e^2
    alpha_s = dc2_gain(power_gain(1.0, 1.5), v1=2.0, m=2, mu0=1.0)
    assert alpha_s.eval(4.0) == pytest.approx(64.0 * math.e ** 2, rel=1e-8)


def test_dc2_at_lower_limit():
    alpha_s = dc2_gain(power_gain(2.0, 1.5), v1=1.0, m=3, mu0=1.5)
    assert alpha_s.eval(1.5) == pytest.approx(
        power_gain(2.0, 1.5).eval(1.5) ** 3)


def test_dc2_rejects_bad_inputs():
    with pytest.raises(DptcoError, match=re.escape("got [0.0, 2, 1.0]")):
        dc2_gain(linear_gain(1.0), v1=0.0, m=2, mu0=1.0)
    with pytest.raises(DptcoError, match=re.escape("got [1.0, 0, 1.0]")):
        dc2_gain(linear_gain(1.0), v1=1.0, m=0, mu0=1.0)


def test_dc2_deriv_matches_fd():
    alpha_s = dc2_gain(linear_gain(1.0), v1=2.0, m=2, mu0=1.0)
    for s in (1.5, 3.0, 8.0):
        h = 1e-6 * s
        fd = (alpha_s.eval(s + h) - alpha_s.eval(s - h)) / (2.0 * h)
        assert alpha_s.deriv(s) == pytest.approx(fd, rel=1e-5)


# --- array arguments ---------------------------------------------------------

# every family, with a grid for it; exp reaches past its overflow point
# (k2 s > 709), and the dc2 gains go through their base's closed form
# (power) or through adaptive Simpson one point at a time (log)
ARRAY_GAINS = {
    "linear": (linear_gain(3.0), log_grid(1.0, 1000.0)),
    "power": (power_gain(10.0, 1.5), log_grid(1.0, 1000.0)),
    "power_below_one": (power_gain(2.0, 0.5), log_grid(1e-3, 1e3)),
    "log": (log_gain(0.7), log_grid(1e-2, 1000.0)),
    "exp": (exp_gain(2.0, 1.0), log_grid(1.0, 1000.0)),
    "dc2_power": (dc2_gain(power_gain(1.0, 1.5), 2.0, 2, 1.0),
                  log_grid(1.0, 100.0)),
    "dc2_log": (dc2_gain(log_gain(0.5), 1.0, 2, 1.0),
                oracles.log_grid(1.0, 50.0, 60)),
}


@pytest.mark.parametrize("name", ARRAY_GAINS)
def test_gain_on_an_array_equals_the_float_path_bitwise(name):
    g, grid = ARRAY_GAINS[name]
    s = np.concatenate([[0.0], grid]).reshape(-1, 1)  # s = 0, and a 2-D shape
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning, overflow included
        vals, slopes = g.eval(s), g.deriv(s)
    assert vals.shape == slopes.shape == s.shape
    np.testing.assert_array_equal(vals, [[g.eval(float(x))] for x in s[:, 0]])
    np.testing.assert_array_equal(slopes,
                                  [[g.deriv(float(x))] for x in s[:, 0]])


def test_exp_gain_on_an_array_reads_inf_past_overflow():
    # 709 s e^s overflows in the product, 709.5 and 800 in the exponential
    g = exp_gain(1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = g.eval(np.array([700.0, 709.0, 709.5, 800.0]))
    assert np.isfinite(vals[0]) and (vals[1:] == math.inf).all()


def test_gain_on_an_array_refuses_a_negative_entry():
    with pytest.raises(ValueError, match="negative"):
        linear_gain(1.0).eval(np.array([1.0, -0.5]))


@pytest.mark.parametrize("name", ["linear", "power", "log", "exp"])
def test_integral_and_kappa_on_an_array_equal_the_float_path(name):
    g, _ = ARRAY_GAINS[name]
    clock = PrescribedClock(T=2.0, guard_frac=0.99)
    times = np.linspace(0.0, clock.t_guard, 40)
    mus = clock.mu(times)
    np.testing.assert_array_equal(mus, [clock.mu(float(t)) for t in times])
    np.testing.assert_array_equal(
        gain_integral(g, clock.mu0, mus),
        [gain_integral(g, clock.mu0, float(m)) for m in mus])
    for iota in (-0.5, 0.0):
        np.testing.assert_array_equal(
            kappa(clock, g, iota, times),
            [kappa(clock, g, iota, float(t)) for t in times])


def test_array_outside_the_window_refused():
    clock = PrescribedClock(T=1.0, guard_frac=0.999)
    with pytest.raises(DptcoError, match=re.escape("outside [0.0, 1.0)")):
        clock.mu(np.array([0.5, 1.0]))
    with pytest.raises(DptcoError, match="outside the prescribed window"):
        kappa(clock, linear_gain(1.0), -1.0, np.array([-0.1, 0.5]))


def test_log_grid_equals_its_scalar_formula():
    for lo, hi in ((1.0, 1000.0), (1e-2, 1e3), (0.5, 199.9)):
        assert log_grid(lo, hi).tolist() == \
            oracles.log_grid(lo, hi, 1000).tolist()


def test_construction_refuses_a_decreasing_gain():
    with pytest.raises(DptcoError,
                       match=r"power gain needs finite params with k > 0"):
        GainFunction("power", (-1.0, 1.5))


# kind -> (C, the coupling coefficient or None): the generator's at
# c* = 0.1, DC1's at v1 = 1, v2 = 4, DCxi's at L2 = 1
CRITERIA = {
    "generator": (0.05, None),
    "chain_dc1": (0.125, 0.1),
    "strict_dcxi": (1.0, 0.05),
}


def _check(check, kind, g, grid, main):
    coef, c = CRITERIA[kind]
    return check(kind, g, coef, grid, None if c is None else (c, main))


def _same_report(got, want):
    # repr compares every float bit for bit and takes NaN as equal to NaN
    assert repr(got) == repr(want)


@pytest.mark.parametrize("kind", CRITERIA)
@pytest.mark.parametrize("name", ARRAY_GAINS)
def test_growth_criterion_equals_the_point_by_point_check(name, kind):
    g, grid = ARRAY_GAINS[name]
    main = linear_gain(20.0)
    _same_report(_check(check_growth_criterion, kind, g, grid, main),
                 _check(oracles.check_growth_criterion, kind, g, grid, main))


def test_growth_criterion_refuses_a_grid_point_at_or_below_zero():
    for grid in ([0.0, 1.0, 2.0], [1.0, -2.0]):
        with pytest.raises(DptcoError,
                           match="grid points must be > 0"):
            check_growth_criterion("generator", linear_gain(1.0), 0.05, grid)


def test_growth_criterion_with_no_finite_margin():
    # every margin and slack of exp past its overflow point is NaN: no
    # worst point
    grid = oracles.log_grid(800.0, 1000.0, 20)
    g = exp_gain(1.0, 1.0)
    rep = _check(check_growth_criterion, "chain_dc1", g, grid, g)
    assert rep.worst_margin == math.inf and rep.worst_s == 800.0
    assert rep.coupling_worst_margin == math.inf and rep.coupling_passed
    _same_report(rep, _check(oracles.check_growth_criterion, "chain_dc1", g,
                             grid, g))


@pytest.mark.parametrize("name", ["ring", "example2_generator", "example1",
                                  "example2"])
def test_bundled_criteria_equal_the_point_by_point_check(name, monkeypatch):
    calls = []

    def recording(*args):
        calls.append(args)
        return check_growth_criterion(*args)

    for module in (generator, chain_ctrl, strictfb_ctrl):
        monkeypatch.setattr(module, "check_growth_criterion", recording)
    build = scenario.load_scenario(scenario_path(name)).build()
    assert len(calls) == len(build.criterion_reports) >= 1
    for report, args in zip(build.criterion_reports, calls):
        _same_report(report, oracles.check_growth_criterion(*args))
    # each criterion's C and coupling coefficient, as its theorem states
    c = build.constants
    coefs = {"generator": (0.5 * c["c_star"], None)}
    if "v1" in c:
        coefs["chain_dc1"] = (c["v1"] / (2.0 * c["v2"]),
                              c["c_star"] / c["v1"])
    if name == "example2":
        L2 = float(build.sys.agents.cfg.L[1])
        coefs["strict_dcxi"] = (1.0, c["c_star"] / (2.0 * L2))
    assert {args[0]: (args[2], args[4][0] if len(args) > 4 else None)
            for args in calls} == coefs
