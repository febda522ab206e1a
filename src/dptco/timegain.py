"""Time-varying gain calculus for prescribed-time control.

The central objects are the blow-up gain mu(t) = 1/(T - t), the decay
factor kappa(iota * alpha(mu)) = exp(iota * int_0^t alpha(mu(tau)) dtau),
class-K-infinity gain functions alpha(s), whose family parameters are
checked against their ranges when a gain is built, and the check of a
pointwise growth criterion d(alpha)/ds <= C s**-2 alpha(s)**2.  Each
criterion's C and coupling coefficient are computed in the module of its
theorem: generator, chain_ctrl (DC1) and strictfb_ctrl (DCxi).

All types are immutable after construction and every operation is pure.

The clock's mu, the gains' eval and deriv, gain_integral and kappa take a
float or an ndarray.  A float stays on math, as the right-hand side needs,
and is told apart from an array by its exact type first.  An array goes
through numpy ufuncs, and every entry equals the float result bit for bit:
powers use np.float_power, which calls libm's pow as Python's ** does, and
exp and log call math's functions entry by entry (`_each`).  numpy's own
power, exp and log run SIMD code that differs from libm in the last place
on a few per cent of inputs, which would move the growth criteria's worst
points and the monitors' ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import DptcoError

_SIMPSON_REL_TOL = 1e-9
_SIMPSON_MAX_DEPTH = 20  # interval subdivision cap 2**20


@dataclass(frozen=True)
class PrescribedClock:
    """Prescribed-time window [0, T) with a singularity guard.

    The simulation never evaluates anything at or beyond T, where mu blows
    up; runs stop at guard_frac * T.
    """

    T: float
    guard_frac: float
    # the window's start, for readers outside the package: the benchmark's
    # tail counter (perfbench/child.py) reads it
    t0 = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.T) and self.T > 0):
            raise DptcoError(f"T must be finite and > 0, got {self.T}")
        if not 0.0 < self.guard_frac < 1.0:
            raise DptcoError(f"guard_frac must be in (0,1), got {self.guard_frac}")

    @property
    def t_guard(self) -> float:
        return self.guard_frac * self.T

    @property
    def mu0(self) -> float:
        return 1.0 / self.T

    @property
    def mu_guard(self) -> float:
        return self.mu(self.t_guard)

    def mu(self, t):
        """Time-varying gain mu(t) = 1/(T - t), at a float t or at every
        entry of an ndarray t; strictly increasing."""
        if not self.in_window(t):
            raise DptcoError(f"t={t} outside [0.0, {self.T})")
        return 1.0 / (self.T - t)

    def in_window(self, t) -> bool:
        """Whether t, or every entry of an ndarray t, lies in [0, T)."""
        if type(t) is not float and isinstance(t, np.ndarray):
            return bool(((0.0 <= t) & (t < self.T)).all())
        return 0.0 <= t < self.T


def _exp(x: float) -> float:
    """math.exp, but inf past 709 instead of an OverflowError."""
    return math.inf if x > 709.0 else math.exp(x)


def _each(f):
    """f, a function of a float, applied to every entry of an ndarray x."""
    def each(x):
        out = map(f, x.ravel().tolist())
        return np.fromiter(out, float, x.size).reshape(x.shape)
    return each


# the transcendental functions and the select that a gain formula uses,
# for floats and for arrays
_FLOAT = SimpleNamespace(log=math.log, exp=_exp, pow=pow,
                         where=lambda c, a, b: a if c else b)
_ARRAY = SimpleNamespace(log=_each(math.log), exp=_each(_exp),
                         pow=np.float_power, where=np.where)


def _adaptive_simpson(f, a, b):
    """Adaptive Simpson quadrature to relative tolerance 1e-9, refusing
    more than 20 levels of subdivision."""
    if a == b:
        return 0.0

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, depth, scale):
        xm = 0.5 * (x0 + x2)
        xl = 0.5 * (x0 + xm)
        xr = 0.5 * (xm + x2)
        fl = f(xl)
        fr = f(xr)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        err = left + right - whole
        if abs(err) <= 15.0 * _SIMPSON_REL_TOL * max(scale, abs(left + right)):
            return left + right + err / 15.0
        if depth >= _SIMPSON_MAX_DEPTH:
            raise DptcoError(
                f"adaptive Simpson hit subdivision cap on [{x0}, {x2}]")
        return (recurse(x0, xm, f0, fl, f1, left, depth + 1, scale)
                + recurse(xm, x2, f1, fr, f2, right, depth + 1, scale))

    fa, fb = f(a), f(b)
    mid = 0.5 * (a + b)
    fm = f(mid)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, 0, abs(whole))


# family -> (parameter count, the range in which alpha is class-K-infinity
# (alpha(0) = 0, strictly increasing, unbounded), a test of that range)
_RANGES = {
    "linear": (1, "k > 0", lambda k: k > 0),
    "power": (2, "k > 0 and a > 0", lambda k, a: k > 0 and a > 0),
    "log": (1, "k > 0", lambda k: k > 0),
    "exp": (2, "k1 > 0 and k2 >= 0", lambda k1, k2: k1 > 0 and k2 >= 0),
    "dc2": (3, "v1 > 0, an integer m >= 1 and mu0 > 0",
            lambda v1, m, mu0: v1 > 0 and m >= 1 and m == int(m) and mu0 > 0),
}


@dataclass(frozen=True)
class GainFunction:
    """Class-K-infinity scalar gain alpha(s) with its derivative.

    Families:
      linear   alpha(s) = k*s               params (k,)      k > 0
      power    alpha(s) = k*s**a            params (k, a)    k > 0, a > 0
      log      alpha(s) = k*s*ln(s+2)       params (k,)      k > 0
      exp      alpha(s) = k1*s*exp(k2*s)    params (k1, k2)  k1 > 0, k2 >= 0
      dc2      chain gain alpha_s(s) = alpha_x(s)**m * exp((v1/2) I(mu0, s))
               derived from base = alpha_x, params (v1, m, mu0);
               v1 > 0, an integer m >= 1, mu0 > 0

    I(mu0, s) = int_{mu0}^{s} tau**-2 alpha_x(tau) dtau starts at
    mu0 = mu(0) = 1/T, not at 0: from 0 it diverges for gains linear near
    the origin, and only ratios alpha_s(mu(t))/alpha_s(mu0) enter a bound.

    Scenarios give a gain as {"family": ..., "params": [...]} (from_dict).
    Construction refuses any other family, the wrong number of params
    (ValueError), a non-finite param, and a param outside its family's
    range (DptcoError): every gain that builds is class-K-infinity.
    """

    family: str
    params: tuple
    # dc2 carries the base gain it was derived from
    base: "GainFunction | None" = field(default=None, compare=False)

    def __post_init__(self):
        if self.family not in _RANGES:
            raise ValueError(f"unknown gain family {self.family!r}")
        count, rule, holds = _RANGES[self.family]
        p = self.params
        if len(p) != count:
            raise ValueError(f"{self.family} gain takes {count} params, "
                             f"got {len(p)}")
        if not (all(map(math.isfinite, p)) and holds(*p)):
            raise DptcoError(f"{self.family} gain needs finite "
                             f"params with {rule}, got {list(p)}")
        if self.family == "dc2" and not isinstance(self.base, GainFunction):
            raise ValueError("dc2 gain needs a base gain")

    def eval(self, s):
        """alpha(s) at a float s, or at every entry of an ndarray s.

        exp, and a dc2 gain's exponential factor, read inf past exp(709),
        without a RuntimeWarning.
        """
        if type(s) is not float and isinstance(s, np.ndarray):
            if (s < 0).any():
                raise ValueError(f"gain evaluated at negative s={s.min()}")
            with np.errstate(over="ignore"):
                return self._value(s, _ARRAY)
        if s < 0:
            raise ValueError(f"gain evaluated at negative s={s}")
        return self._value(s, _FLOAT)

    def _value(self, s, ops):
        fam, p = self.family, self.params
        if fam == "linear":
            return p[0] * s
        if fam == "power":
            return p[0] * ops.pow(s, p[1])
        if fam == "log":
            return p[0] * s * ops.log(s + 2.0)
        if fam == "exp":
            return p[0] * s * ops.exp(p[1] * s)
        # dc2, 0 where s or alpha_x(s) is
        v1, m, mu0 = p
        ax = self.base.eval(s)
        zero = (s == 0.0) | (ax == 0.0)
        rise = ops.exp(0.5 * v1 * gain_integral(self.base, mu0,
                                                ops.where(zero, mu0, s)))
        return ops.where(zero, 0.0, ops.pow(ax, m) * rise)

    def deriv(self, s):
        """d(alpha)/ds at a float s, or at every entry of an ndarray s."""
        if type(s) is not float and isinstance(s, np.ndarray):
            with np.errstate(over="ignore", invalid="ignore"):
                return self._slope(s, _ARRAY)
        return self._slope(s, _FLOAT)

    def _slope(self, s, ops):
        fam, p = self.family, self.params
        if fam == "linear":
            return p[0] + 0.0 * s  # k, shaped like s
        if fam == "power":
            # at s = 0: 0 for a > 1, k for a = 1, inf for a < 1
            k, a = p
            pos = s > 0.0
            at_zero = 0.0 if a > 1.0 else k if a == 1.0 else math.inf
            return ops.where(pos, k * a * ops.pow(ops.where(pos, s, 1.0),
                                                  a - 1.0), at_zero)
        if fam == "log":
            return p[0] * (ops.log(s + 2.0) + s / (s + 2.0))
        if fam == "exp":
            x = p[1] * s
            return p[0] * ops.exp(x) * (1.0 + x)
        # dc2: d/ds = alpha_s(s) * (m ax'(s)/ax(s) + (v1/2) s^-2 ax(s)), 0
        # where s or alpha_s(s) is; those entries are computed at mu0
        v1, m, mu0 = p
        val = self.eval(s)
        zero = (s == 0.0) | (val == 0.0)
        at = ops.where(zero, mu0, s)
        ax = self.base.eval(at)
        return ops.where(zero, 0.0, val * (m * self.base.deriv(at) / ax
                                           + 0.5 * v1 * ax / ops.pow(at, 2)))

    @staticmethod
    def from_dict(d: dict) -> "GainFunction":
        dc2 = d["family"] == "dc2"
        return GainFunction(d["family"], tuple(d["params"]),
                            GainFunction.from_dict(d["base"]) if dc2 else None)


def gain_integral(alpha: GainFunction, s0: float, s1):
    """Integral of alpha(s)/s**2 over [s0, s1], or over [s0, x] for every
    entry x of an ndarray s1.

    This is the time integral int alpha(mu(tau)) dtau rewritten through the
    substitution s = mu(tau), ds = s**2 dtau.  Closed forms exist for the
    linear and power families; everything else goes through adaptive
    Simpson, one upper limit at a time.
    """
    if isinstance(s1, np.ndarray):
        if s0 <= 0 or (s1 <= 0).any():
            raise DptcoError("gain_integral limits must be positive")
        return np.where(s1 == s0, 0.0, _integral(alpha, s0, s1, _ARRAY))
    if s0 <= 0 or s1 <= 0:
        raise DptcoError("gain_integral limits must be positive")
    if s0 == s1:
        return 0.0
    return _integral(alpha, s0, s1, _FLOAT)


def _integral(alpha: GainFunction, s0: float, s1, ops):
    fam, p = alpha.family, alpha.params
    if fam == "linear":
        return p[0] * ops.log(s1 / s0)
    if fam == "power":
        k, a = p
        if a == 1.0:
            return k * ops.log(s1 / s0)
        return k * (ops.pow(s1, a - 1.0) - s0 ** (a - 1.0)) / (a - 1.0)

    def simpson(s):
        return _adaptive_simpson(lambda x: alpha.eval(x) / (x * x), s0, s)

    # log, exp and dc2: adaptive Simpson, one upper limit at a time
    return _each(simpson)(s1) if ops is _ARRAY else simpson(s1)


def kappa(clock: PrescribedClock, alpha: GainFunction, iota: float, t):
    """Decay factor exp(iota * int_0^t alpha(mu(tau)) dtau), at a float
    t or at every entry of an ndarray t.

    Converges to zero as t approaches the deadline for any iota < 0.
    """
    if not clock.in_window(t):
        raise DptcoError(f"t={t} outside the prescribed window")
    array = isinstance(t, np.ndarray)
    if iota == 0.0:
        return np.ones(t.shape) if array else 1.0
    # the integral is 0 at t = 0, where kappa is 1
    x = iota * gain_integral(alpha, clock.mu0, clock.mu(t))
    ops = _ARRAY if array else _FLOAT
    return ops.where(x < -745.0, 0.0, ops.exp(x))


def kappa_series(times, clock: PrescribedClock, alpha: GainFunction,
                 iota: float) -> np.ndarray:
    """kappa(iota alpha(mu(t))) at every logged time t, in one kappa call."""
    return kappa(clock, alpha, iota, np.asarray(times, dtype=float))


@dataclass(frozen=True)
class CriterionReport:
    kind: str
    passed: bool
    worst_margin: float
    worst_s: float
    coupling_passed: bool
    coupling_worst_margin: float

    @property
    def ok(self) -> bool:
        """The verdict: the growth and the coupling bound both hold."""
        return bool(self.passed and self.coupling_passed)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "pass": self.ok,
            "worst_margin": self.worst_margin,
            "worst_s": self.worst_s,
            "coupling_pass": bool(self.coupling_passed),
            "coupling_worst_margin": self.coupling_worst_margin,
        }


def log_grid(s_lo: float, s_hi: float) -> np.ndarray:
    """1000 log-spaced points covering [s_lo, s_hi], 0 < s_lo < s_hi as a
    clock's mu0 and mu_guard are: s_lo (s_hi/s_lo)**(i/999), i = 0 .. 999."""
    return s_lo * np.float_power(s_hi / s_lo, np.arange(1000) / 999)


def check_growth_criterion(kind: str, alpha: GainFunction, coef: float, grid,
                           coupling: tuple | None = None) -> CriterionReport:
    """Check the growth bound d(alpha)/ds <= coef * s**-2 * alpha(s)**2 at
    every grid point, all of them > 0; never raises on fail.

    The margin at s is coef * s**-2 * alpha(s)**2 - d(alpha)/ds, normalized
    by max(1, d(alpha)/ds); the report, labelled kind, carries the minimum
    over the grid and the first point where it is reached (the first grid
    point when no margin is finite).  coupling, when given, is a pair
    (c, alpha_main), and the coupling slack c * alpha_main(s) - alpha(s)
    must stay >= 0 as well.  NaN margins and slacks are skipped.
    """
    s = np.asarray(grid, dtype=float)
    if not (s > 0.0).all():
        raise DptcoError("growth criterion grid points must be > 0")
    with np.errstate(over="ignore", invalid="ignore"):
        a = alpha._value(s, _ARRAY)
        da = alpha._slope(s, _ARRAY)
        # NaN reads inf; argmin takes the first of equal minima
        margin = np.fmin((coef * a * a / (s * s) - da)
                         / np.maximum(1.0, np.abs(da)), math.inf)
        i = int(margin.argmin())
        worst = float(margin[i])
        c_worst = math.inf
        if coupling is not None:
            c, alpha_main = coupling
            c_worst = float(np.fmin(c * alpha_main._value(s, _ARRAY) - a,
                                    math.inf).min())
    return CriterionReport(kind, worst >= -1e-12, worst, float(s[i]),
                           c_worst >= -1e-12, c_worst)
