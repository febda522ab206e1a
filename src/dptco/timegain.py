"""Time-varying gain calculus for prescribed-time control.

The central objects are the blow-up gain mu(t) = 1/(T + t0 - t), the decay
factor kappa(iota * alpha(mu)) = exp(iota * int_{t0}^{t} alpha(mu(tau)) dtau),
class-K-infinity gain functions alpha(s), and the pointwise growth criteria
that a gain must satisfy for the convergence envelopes to hold.

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
from itertools import repeat
from types import SimpleNamespace

import numpy as np

from .errors import NonPositiveInput, QuadratureFailure, TimeOutOfWindow

_SIMPSON_REL_TOL = 1e-9
_SIMPSON_MAX_DEPTH = 20  # interval subdivision cap 2**20


@dataclass(frozen=True)
class PrescribedClock:
    """Prescribed-time window [t0, t0 + T) with a singularity guard.

    The simulation never evaluates anything at or beyond t0 + T, where mu
    blows up; runs stop at t0 + guard_frac * T.
    """

    t0: float = 0.0
    T: float = 1.0
    guard_frac: float = 0.999

    def __post_init__(self):
        if self.T <= 0:
            raise NonPositiveInput(f"T must be > 0, got {self.T}")
        if not 0.0 < self.guard_frac < 1.0:
            raise NonPositiveInput(f"guard_frac must be in (0,1), got {self.guard_frac}")

    @property
    def t_guard(self) -> float:
        return self.t0 + self.guard_frac * self.T

    @property
    def mu0(self) -> float:
        return 1.0 / self.T

    @property
    def mu_guard(self) -> float:
        return self.mu(self.t_guard)

    def mu(self, t):
        """Time-varying gain mu(t) = 1/(T + t0 - t), at a float t or at
        every entry of an ndarray t; strictly increasing."""
        if not self.in_window(t):
            raise TimeOutOfWindow(f"t={t} outside [{self.t0}, {self.t0 + self.T})")
        return 1.0 / (self.T + self.t0 - t)

    def in_window(self, t) -> bool:
        """Whether t, or every entry of an ndarray t, lies in [t0, t0 + T)."""
        if type(t) is not float and isinstance(t, np.ndarray):
            return bool(((self.t0 <= t) & (t < self.t0 + self.T)).all())
        return self.t0 <= t < self.t0 + self.T


def _exp(x: float) -> float:
    """math.exp, but inf past 709 instead of an OverflowError."""
    return math.inf if x > 709.0 else math.exp(x)


def _each(f):
    """f, a function of floats, applied to every entry of an ndarray x
    (further arguments are the same floats for every entry)."""
    def each(x, *args):
        out = map(f, x.ravel().tolist(), *map(repeat, args))
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
            raise QuadratureFailure(
                f"adaptive Simpson hit subdivision cap on [{x0}, {x2}]")
        return (recurse(x0, xm, f0, fl, f1, left, depth + 1, scale)
                + recurse(xm, x2, f1, fr, f2, right, depth + 1, scale))

    fa, fb = f(a), f(b)
    mid = 0.5 * (a + b)
    fm = f(mid)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, 0, abs(whole))


@dataclass(frozen=True)
class GainFunction:
    """Class-K-infinity scalar gain alpha(s) with its derivative.

    Families:
      linear   alpha(s) = k*s               params (k,)
      power    alpha(s) = k*s**a            params (k, a)
      log      alpha(s) = k*s*ln(s+2)       params (k,)
      exp      alpha(s) = k1*s*exp(k2*s)    params (k1, k2)
      dc2      derived chain gain alpha_x(s)**m * exp((v1/2) I(mu0, s))
               params (v1, m, mu0), built by alpha_s_from_dc2 from base

    Scenarios give a gain as {"family": ..., "params": [...]} (from_dict);
    any other family is refused at construction.
    """

    family: str
    params: tuple = ()
    # dc2 carries the base gain it was derived from
    base: "GainFunction | None" = field(default=None, compare=False)

    def __post_init__(self):
        if self.family not in ("linear", "power", "log", "exp", "dc2"):
            raise ValueError(f"unknown gain family {self.family!r}")

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
            # at s = 0: k for a = 1, else 0
            k, a = p
            pos = s > 0.0
            return ops.where(pos, k * a * ops.pow(ops.where(pos, s, 1.0),
                                                  a - 1.0),
                             k if a == 1.0 else 0.0)
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
        fam = d["family"]
        if fam == "dc2":
            return GainFunction("dc2", tuple(d["params"]),
                                base=GainFunction.from_dict(d["base"]))
        return GainFunction(fam, tuple(d["params"]))

    def validate(self) -> None:
        """Check alpha(0)=0, strict increase, and eval/deriv consistency.

        deriv is compared against a central finite difference, to 1e-5
        relative, on 50 log-spaced points of [1e-2, 1e3].
        """
        if self.eval(0.0) != 0.0:
            raise ValueError("class K-infinity gain must satisfy alpha(0) = 0")
        s = log_grid(1e-2, 1e3, 50)
        h = 1e-6 * s
        with np.errstate(over="ignore", invalid="ignore"):
            v = self._value(s, _ARRAY)
            fd = ((self._value(s + h, _ARRAY) - self._value(s - h, _ARRAY))
                  / (2.0 * h))
            d = self._slope(s, _ARRAY)
            off = np.abs(d - fd) > 1e-6 * np.maximum(1.0, np.abs(fd)) * 10.0
        prev = -math.inf
        for i, (val, bad) in enumerate(zip(v.tolist(), off.tolist())):
            if not math.isfinite(val):
                break  # overflowed upward; increase already established
            if val <= prev:
                raise ValueError(
                    f"gain not strictly increasing near s={float(s[i])}")
            if bad:
                raise ValueError(f"deriv inconsistent with eval at "
                                 f"s={float(s[i])}: {float(d[i])} vs FD "
                                 f"{float(fd[i])}")
            prev = val


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
            raise NonPositiveInput("gain_integral limits must be positive")
        return np.where(s1 == s0, 0.0, _integral(alpha, s0, s1, _ARRAY))
    if s0 <= 0 or s1 <= 0:
        raise NonPositiveInput("gain_integral limits must be positive")
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
    """Decay factor exp(iota * int_{t0}^{t} alpha(mu(tau)) dtau), at a float
    t or at every entry of an ndarray t.

    Converges to zero as t approaches the deadline for any iota < 0.
    """
    if not clock.in_window(t):
        raise TimeOutOfWindow(f"t={t} outside the prescribed window")
    array = isinstance(t, np.ndarray)
    if iota == 0.0:
        return np.ones(t.shape) if array else 1.0
    # the integral is 0 at t = t0, where kappa is 1
    x = iota * gain_integral(alpha, clock.mu(clock.t0), clock.mu(t))
    ops = _ARRAY if array else _FLOAT
    return ops.where(x < -745.0, 0.0, ops.exp(x))


def kappa_series(times, clock: PrescribedClock, alpha: GainFunction,
                 iota: float) -> np.ndarray:
    """kappa(iota alpha(mu(t))) at every logged time t, in one kappa call."""
    return kappa(clock, alpha, iota, np.asarray(times, dtype=float))


@dataclass(frozen=True)
class GrowthCriterion:
    """Pointwise growth bound d(alpha)/ds <= C * s**-2 * alpha(s)**2.

    kind selects the coefficient C and an optional coupling bound against a
    second (main) gain:

      generator    C = c_star / 2,  no coupling
      chain_dc1    C = v1 / (2 v2), coupling alpha_x(s) <= (c_star/v1) alpha(s)
      strict_dcxi  C = 1,           coupling alpha_xi(s) <= (c_star/(2 L2)) alpha(s)
    """

    kind: str
    c_star: float = 0.0
    v1: float = 0.0
    v2: float = 0.0
    coupling_coef: float = 0.0

    def __post_init__(self):
        if self.kind not in ("generator", "chain_dc1", "strict_dcxi"):
            raise ValueError(f"unknown criterion kind {self.kind!r}")
        if self.kind == "generator" and self.c_star <= 0:
            raise NonPositiveInput("c_star must be > 0")
        if self.kind == "chain_dc1" and (self.v1 <= 0 or self.v2 <= 0):
            raise NonPositiveInput("v1, v2 must be > 0")

    @property
    def growth_coef(self) -> float:
        if self.kind == "generator":
            return 0.5 * self.c_star
        if self.kind == "chain_dc1":
            return self.v1 / (2.0 * self.v2)
        return 1.0


@dataclass(frozen=True)
class CriterionReport:
    kind: str
    passed: bool
    worst_margin: float
    worst_s: float
    coupling_passed: bool = True
    coupling_worst_margin: float = math.inf
    coupling_worst_s: float = math.nan

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "pass": bool(self.passed and self.coupling_passed),
            "worst_margin": self.worst_margin,
            "worst_s": self.worst_s,
            "coupling_pass": bool(self.coupling_passed),
            "coupling_worst_margin": self.coupling_worst_margin,
        }


def log_grid(s_lo: float, s_hi: float, n: int = 1000) -> np.ndarray:
    """n log-spaced points covering [s_lo, s_hi]: s_lo (s_hi/s_lo)**(i/(n-1))
    for i = 0 .. n-1."""
    if s_lo <= 0 or s_hi <= s_lo:
        raise NonPositiveInput("grid endpoints must satisfy 0 < s_lo < s_hi")
    return s_lo * np.float_power(s_hi / s_lo, np.arange(n) / (n - 1))


def check_growth_criterion(alpha: GainFunction, crit: GrowthCriterion,
                           grid,
                           alpha_main: GainFunction | None = None) -> CriterionReport:
    """Verify the growth bound at every grid point, all of them > 0; never
    raises on fail.

    The margin at s is C * s**-2 * alpha(s)**2 - d(alpha)/ds, normalized by
    max(1, d(alpha)/ds); the report carries the minimum over the grid and
    the first point where it is reached.  When the criterion has a
    coupling bound and alpha_main is supplied, the coupling slack
    coef * alpha_main(s) - alpha(s) is also checked.  NaN margins and
    slacks are skipped.
    """
    s = np.asarray(grid, dtype=float)
    if not (s > 0.0).all():
        raise NonPositiveInput("growth criterion grid points must be > 0")
    with np.errstate(over="ignore", invalid="ignore"):
        a = alpha._value(s, _ARRAY)
        da = alpha._slope(s, _ARRAY)
        margin = ((crit.growth_coef * a * a / (s * s) - da)
                  / np.maximum(1.0, np.abs(da)))
        worst, worst_s = _first_min(margin, s, float(s[0]))
        if crit.coupling_coef > 0.0 and alpha_main is not None:
            slack = crit.coupling_coef * alpha_main._value(s, _ARRAY) - a
            c_worst, c_worst_s = _first_min(slack, s, math.nan)
            c_pass = c_worst >= -1e-12
        else:
            c_worst, c_worst_s, c_pass = math.inf, math.nan, True
    return CriterionReport(crit.kind, worst >= -1e-12, worst, worst_s,
                           c_pass, c_worst, c_worst_s)


def _first_min(values: np.ndarray, s: np.ndarray,
               default_s: float) -> tuple[float, float]:
    """The least non-NaN value below inf and the first s where it occurs;
    (inf, default_s) when there is none."""
    values = np.fmin(values, math.inf)  # NaN reads inf
    i = int(values.argmin())
    if values[i] == math.inf:
        return math.inf, default_s
    return float(values[i]), float(s[i])


def alpha_s_from_dc2(alpha_x: GainFunction, v1: float, m: int, mu0: float) -> GainFunction:
    """Chain-controller scaling gain derived from alpha_x.

    alpha_s(s) = alpha_x(s)**m * exp((v1/2) * int_{mu0}^{s} tau**-2 alpha_x(tau) dtau)

    The lower integration limit is mu0 = mu(t0) rather than 0: for gains
    linear near the origin the integral from 0 diverges, and only the ratio
    alpha_s(mu(t))/alpha_s(mu(t0)) ever enters a bound.
    """
    if v1 <= 0 or m < 1 or mu0 <= 0:
        raise NonPositiveInput("alpha_s_from_dc2 needs v1 > 0, m >= 1, mu0 > 0")
    return GainFunction("dc2", (float(v1), int(m), float(mu0)), base=alpha_x)
