"""Time-varying gain calculus for prescribed-time control.

The central objects are the blow-up gain mu(t) = 1/(T + t0 - t), the decay
factor kappa(iota * alpha(mu)) = exp(iota * int_{t0}^{t} alpha(mu(tau)) dtau),
class-K-infinity gain functions alpha(s), and the pointwise growth criteria
that a gain must satisfy for the convergence envelopes to hold.

All types are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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

    def mu(self, t: float) -> float:
        """Time-varying gain mu(t) = 1/(T + t0 - t); strictly increasing."""
        if t < self.t0 or t >= self.t0 + self.T:
            raise TimeOutOfWindow(f"t={t} outside [{self.t0}, {self.t0 + self.T})")
        return 1.0 / (self.T + self.t0 - t)

    def in_window(self, t: float) -> bool:
        return self.t0 <= t < self.t0 + self.T


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

    def eval(self, s: float) -> float:
        if s < 0:
            raise ValueError(f"gain evaluated at negative s={s}")
        fam, p = self.family, self.params
        if fam == "linear":
            return p[0] * s
        if fam == "power":
            return p[0] * s ** p[1]
        if fam == "log":
            return p[0] * s * math.log(s + 2.0)
        if fam == "exp":
            x = p[1] * s
            if x > 709.0:  # exp overflows; the gain is effectively infinite
                return math.inf
            return p[0] * s * math.exp(x)
        # dc2
        v1, m, mu0 = p
        if s == 0.0:
            return 0.0
        ax = self.base.eval(s)
        if ax == 0.0:
            return 0.0
        return ax ** m * math.exp(0.5 * v1 * gain_integral(self.base, mu0, s))

    def deriv(self, s: float) -> float:
        fam, p = self.family, self.params
        if fam == "linear":
            return p[0]
        if fam == "power":
            return p[0] * p[1] * s ** (p[1] - 1.0) if s > 0 else (p[0] if p[1] == 1.0 else 0.0)
        if fam == "log":
            return p[0] * (math.log(s + 2.0) + s / (s + 2.0))
        if fam == "exp":
            x = p[1] * s
            if x > 709.0:
                return math.inf
            return p[0] * math.exp(x) * (1.0 + x)
        # dc2: d/ds = alpha_s(s) * (m ax'(s)/ax(s) + (v1/2) s^-2 ax(s))
        v1, m, _ = p
        val = self.eval(s)
        if s == 0.0 or val == 0.0:
            return 0.0
        ax = self.base.eval(s)
        return val * (m * self.base.deriv(s) / ax + 0.5 * v1 * ax / s ** 2)

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
        prev = None
        for s in log_grid(1e-2, 1e3, 50):
            v = self.eval(s)
            if not math.isfinite(v):
                break  # overflowed upward; increase already established
            if prev is not None and v <= prev:
                raise ValueError(f"gain not strictly increasing near s={s}")
            prev = v
            h = 1e-6 * s
            fd = (self.eval(s + h) - self.eval(s - h)) / (2.0 * h)
            d = self.deriv(s)
            if abs(d - fd) > 1e-6 * max(1.0, abs(fd)) * 10.0:
                raise ValueError(
                    f"deriv inconsistent with eval at s={s}: {d} vs FD {fd}")


def gain_integral(alpha: GainFunction, s0: float, s1: float) -> float:
    """Integral of alpha(s)/s**2 over [s0, s1].

    This is the time integral int alpha(mu(tau)) dtau rewritten through the
    substitution s = mu(tau), ds = s**2 dtau.  Closed forms exist for the
    linear and power families; everything else goes through adaptive Simpson.
    """
    if s0 <= 0 or s1 <= 0:
        raise NonPositiveInput("gain_integral limits must be positive")
    if s0 == s1:
        return 0.0
    fam, p = alpha.family, alpha.params
    if fam == "linear":
        return p[0] * math.log(s1 / s0)
    if fam == "power":
        k, a = p
        if a == 1.0:
            return k * math.log(s1 / s0)
        return k * (s1 ** (a - 1.0) - s0 ** (a - 1.0)) / (a - 1.0)
    return _adaptive_simpson(lambda s: alpha.eval(s) / (s * s), s0, s1)


def kappa(clock: PrescribedClock, alpha: GainFunction, iota: float, t: float) -> float:
    """Decay factor exp(iota * int_{t0}^{t} alpha(mu(tau)) dtau).

    Converges to zero as t approaches the deadline for any iota < 0.
    """
    if not clock.in_window(t):
        raise TimeOutOfWindow(f"t={t} outside the prescribed window")
    if iota == 0.0 or t == clock.t0:
        return 1.0
    integral = gain_integral(alpha, clock.mu(clock.t0), clock.mu(t))
    x = iota * integral
    if x < -745.0:
        return 0.0
    return math.exp(x)


def kappa_series(times, clock: PrescribedClock, alpha: GainFunction,
                 iota: float) -> np.ndarray:
    """kappa(iota alpha(mu(t))) at every logged time t, one scalar kappa
    call each."""
    return np.array([kappa(clock, alpha, iota, t) for t in times])


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


def log_grid(s_lo: float, s_hi: float, n: int = 1000) -> list[float]:
    """Log-spaced grid covering [s_lo, s_hi]."""
    if s_lo <= 0 or s_hi <= s_lo:
        raise NonPositiveInput("grid endpoints must satisfy 0 < s_lo < s_hi")
    return [s_lo * (s_hi / s_lo) ** (i / (n - 1)) for i in range(n)]


def check_growth_criterion(alpha: GainFunction, crit: GrowthCriterion,
                           grid: list[float],
                           alpha_main: GainFunction | None = None) -> CriterionReport:
    """Verify the growth bound pointwise on the grid; never raises on fail.

    The margin at s is C * s**-2 * alpha(s)**2 - d(alpha)/ds, normalized by
    max(1, d(alpha)/ds); the report carries the minimum over the grid.  When
    the criterion has a coupling bound and alpha_main is supplied, the
    coupling slack coef * alpha_main(s) - alpha(s) is also checked.
    """
    coef = crit.growth_coef
    coupled = crit.coupling_coef > 0.0 and alpha_main is not None
    worst = math.inf
    worst_s = grid[0]
    c_worst = math.inf
    c_worst_s = math.nan
    for s in grid:
        a = alpha.eval(s)
        da = alpha.deriv(s)
        margin = (coef * a * a / (s * s) - da) / max(1.0, abs(da))
        if margin < worst:
            worst = margin
            worst_s = s
        if coupled:
            slack = crit.coupling_coef * alpha_main.eval(s) - a
            if slack < c_worst:
                c_worst = slack
                c_worst_s = s
    passed = worst >= -1e-12
    c_pass = c_worst >= -1e-12 if coupled else True
    return CriterionReport(crit.kind, passed, worst, worst_s,
                           c_pass, c_worst, c_worst_s)


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
