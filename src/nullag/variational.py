"""Euler-Lagrange operator, gauge-function lift, null-condition residual,
generalized momentum, and a numeric action functional with a
path-independence check.

A Lagrangian is an expression over (x, xdot, t) on a guarded domain.  It is
null when the Euler-Lagrange operator annihilates it identically, which is
the case exactly when it is the total time derivative of a gauge function
of (x, t).

For L = B*xdot + xC + f the Euler-Lagrange residual is the paper's null
condition dB/dt - d(xC)/dx, tree for tree, so a NullPair (a harmonic is
one too) is certified from that condition, by NullPair.judged alone,
without assembling or differentiating L.  A pair stores the paper's x*C;
C is read off it.  null_report maps either residual to a verdict; is_null
is null_report of the Euler-Lagrange residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable

from . import expr as ex
from .domain import DEFAULT_DOMAIN, Domain, DomainExit, guard_predicate
from .equivalence import EPS_EQ, EquivalenceReport, Verdict, vanishes
from .expr import (
    Expr,
    T,
    X,
    XDOT,
    ZERO,
    add,
    compile_expr,
    diff,
    mul,
    pow_,
    require_support,
    sub,
    to_string,
    total_dt,
)

EPS_ACT = 1e-7
ACTION_PANELS = 2000


class NullCertificationFailed(ex.ExprError):
    """A certificate of nullity or a derivation self-check failed; no valid input reaches it."""


class NullVerdict(str, Enum):
    PROVEN_NULL = "ProvenNull"
    NUMERICALLY_NULL = "NumericallyNull"
    NOT_NULL = "NotNull"


@dataclass
class NullReport:
    verdict: NullVerdict
    residual: Expr
    equivalence: EquivalenceReport | None = None

    def __bool__(self) -> bool:
        return self.verdict is not NullVerdict.NOT_NULL

    @property
    def witness(self) -> dict | None:
        return self.equivalence.witness if self.equivalence is not None else None

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "residual": to_string(self.residual),
            "equivalence": self.equivalence.to_dict() if self.equivalence is not None else None,
        }


@dataclass(frozen=True)
class Lagrangian:
    """Expression over (x, xdot, t); no second or higher jets."""

    body: Expr
    domain: Domain = DEFAULT_DOMAIN

    def __post_init__(self):
        require_support(self.body, {"x", "xdot", "t"}, "Lagrangian body")


@dataclass(frozen=True)
class GaugeFunction:
    """Expression over (x, t) only; its total time derivative is null."""

    body: Expr
    domain: Domain = DEFAULT_DOMAIN

    def __post_init__(self):
        require_support(self.body, {"x", "t"}, "gauge function")


@dataclass(frozen=True)
class NullPair:
    """Certified triple (B, xC, f): B*xdot + xC + f is a null Lagrangian.

    B is the velocity coefficient and xC the paper's x*C (both over x and
    t), f a function of t alone; the displacement coefficient C is xC/x,
    derived on its first read.  Certification happens at construction:
    `judged` maps the null-condition residual dB/dt - d(xC)/dx through
    null_report once and keeps the NullReport that decided it as
    `certificate`; its residual is the Euler-Lagrange residual of the
    assembled Lagrangian.  A constructed pair is judged on the residual its
    construction already proved zero while integrating for xC; `certified`
    computes that residual for a given (B, C) and stores x*C.  Direct
    construction skips certification (certificate None).  A harmonic is a
    NullPair too.
    """

    B: Expr
    xC: Expr
    f: Expr = ZERO
    domain: Domain = DEFAULT_DOMAIN
    certificate: NullReport | None = field(default=None, compare=False, repr=False)

    @classmethod
    def certified(
        cls,
        B: Expr,
        C: Expr,
        f: Expr = ZERO,
        domain: Domain = DEFAULT_DOMAIN,
        *,
        seed: int = 0,
    ) -> "NullPair":
        """The pair of (B, C) judged on its null-condition residual, computed here."""
        return cls.judged(B, mul(X, C), f, domain, null_condition_residual(B, C), seed=seed)

    @classmethod
    def judged(
        cls,
        B: Expr,
        xC: Expr,
        f: Expr,
        domain: Domain,
        residual: Expr,
        *,
        seed: int = 0,
    ) -> "NullPair":
        """The pair judged on residual, which must be the tree
        dB/dt - d(xC)/dx: a construction that has already formed it passes
        it here rather than have it recomputed."""
        for name, e, allowed in (("B", B, {"x", "t"}), ("xC", xC, {"x", "t"}), ("f", f, {"t"})):
            require_support(e, allowed, name)
        # the null-condition residual is the Euler-Lagrange residual of
        # B*xdot + xC + f, tree for tree, so this one verdict certifies both
        # and the Lagrangian is not assembled for it
        report = null_report(residual, domain, seed=seed)
        if not report:
            raise NullCertificationFailed(
                f"null condition violated: dB/dt - d(xC)/dx = {to_string(report.residual)}; "
                f"witness {report.witness}"
            )
        return cls(B, xC, f, domain, report)

    @property
    def is_certified(self) -> bool:
        return self.certificate is not None

    @cached_property
    def C(self) -> Expr:
        """The displacement coefficient xC/x."""
        return mul(self.xC, pow_(X, -1))

    def assembled(self) -> Lagrangian:
        """B*xdot + xC + f as a Lagrangian, built on the first call and kept
        outside the fields, so every call returns the same one; a certified
        pair's certificate holds its Euler-Lagrange residual."""
        return self._lagrangian

    @cached_property
    def _lagrangian(self) -> Lagrangian:
        return Lagrangian(add(mul(self.B, XDOT), self.xC, self.f), self.domain)

    def to_dict(self) -> dict:
        return {
            "B": to_string(self.B),
            "C": to_string(self.C),
            "f": to_string(self.f),
            "lagrangian": to_string(self.assembled().body),
            "certified": self.is_certified,
        }


@dataclass(frozen=True)
class Path:
    """Differentiable path t -> x(t) on [t0, t1] with explicit derivative."""

    t0: float
    t1: float
    x: Callable[[float], float]
    xdot: Callable[[float], float]

    def __post_init__(self):
        if not self.t1 > self.t0:
            raise ValueError("path requires t1 > t0")
        # x and xdot must be consistent to finite-difference accuracy
        h = 1e-5
        for k in range(1, 6):
            t = self.t0 + (self.t1 - self.t0) * k / 6.0
            fd = (self.x(t + h) - self.x(t - h)) / (2.0 * h)
            if abs(fd - self.xdot(t)) > 1e-4 * (1.0 + abs(self.xdot(t))):
                raise ValueError(
                    f"path derivative inconsistent at t={t:g}: fd={fd:g} vs xdot={self.xdot(t):g}"
                )


def line_path(t0: float, t1: float, x0: float, x1: float) -> Path:
    slope = (x1 - x0) / (t1 - t0)
    return Path(t0, t1, lambda t: x0 + slope * (t - t0), lambda t: slope)


def with_bump(path: Path, amplitude: float, k: int = 1) -> Path:
    """Add a sine bump vanishing at both endpoints; admissible variation."""
    width = path.t1 - path.t0
    omega = math.pi * k / width
    t0 = path.t0
    return Path(
        path.t0,
        path.t1,
        lambda t: path.x(t) + amplitude * math.sin(omega * (t - t0)),
        lambda t: path.xdot(t) + amplitude * omega * math.cos(omega * (t - t0)),
    )


# ---------------------------------------------------------------------------
# operators


def euler_lagrange_residual(L: Lagrangian | Expr) -> Expr:
    """total_dt(dL/dxdot) - dL/dx; identically zero exactly for null L."""
    body = L.body if isinstance(L, Lagrangian) else L
    return _residual_with_momentum(body, diff(body, XDOT))


def _residual_with_momentum(body: Expr, p: Expr) -> Expr:
    """total_dt(p) - dL/dx for the body of L and its momentum p = dL/dxdot,
    for a caller that has p already."""
    return sub(total_dt(p), diff(body, X))


def momentum(L: Lagrangian | Expr) -> Expr:
    """Generalized momentum dL/dxdot."""
    body = L.body if isinstance(L, Lagrangian) else L
    return diff(body, XDOT)


def null_condition_residual(B: Expr, C: Expr) -> Expr:
    """dB/dt - d(x*C)/dx; zero iff (B, C) assembles to a null Lagrangian."""
    return sub(diff(B, T), diff(mul(X, C), X))


def from_gauge(phi: GaugeFunction) -> Lagrangian:
    """Lift a gauge function to its (certified null) total time derivative."""
    L = Lagrangian(total_dt(phi.body), phi.domain)
    # mixed partials commute node-wise, so this residual is always exactly 0
    if not ex.proven_zero(euler_lagrange_residual(L)):
        raise NullCertificationFailed("gauge lift failed to certify (internal error)")
    return L


def is_null(L: Lagrangian, *, seed: int = 0, eps: float = EPS_EQ) -> NullReport:
    """ProvenNull / NumericallyNull / NotNull with witness, sampled on
    L.domain."""
    return null_report(euler_lagrange_residual(L), L.domain, seed=seed, eps=eps)


def null_report(residual: Expr, domain: Domain, *, seed: int = 0, eps: float = EPS_EQ) -> NullReport:
    """The verdict on a residual that vanishes identically exactly when its
    Lagrangian is null (the Euler-Lagrange residual, or the null condition
    of a pair), with witness, sampled on domain."""
    rep = vanishes(residual, domain, seed=seed, eps=eps)
    if rep.verdict is Verdict.PROVEN_EQUAL:
        return NullReport(NullVerdict.PROVEN_NULL, residual)
    if rep.verdict is Verdict.DISTINCT:
        return NullReport(NullVerdict.NOT_NULL, residual, rep)
    return NullReport(NullVerdict.NUMERICALLY_NULL, residual, rep)


# ---------------------------------------------------------------------------
# action functional


def _simpson(f: Callable[[float], float], a: float, b: float, panels: int) -> float:
    if panels % 2:
        panels += 1
    h = (b - a) / panels
    acc = f(a) + f(b)
    for i in range(1, panels):
        acc += f(a + i * h) * (4.0 if i % 2 else 2.0)
    return acc * h / 3.0


def action(
    L: Lagrangian,
    path: Path,
    *,
    panels: int = ACTION_PANELS,
) -> float:
    """Composite-Simpson value of the action integral along the path, of L
    as its caller bound it (see compile_expr).

    For a certified null Lagrangian with gauge function phi this equals
    phi(x(t1), t1) - phi(x(t0), t0) up to quadrature error.  A panel point
    outside the guards or where the integrand is undefined raises DomainExit
    with its time; overflow raises EvaluationError.
    """
    fn = compile_expr(L.body, ("x", "xdot", "t"))
    guards = L.domain.guards
    inside = guard_predicate(guards, ("x", "xdot", "t"))

    def integrand(t: float) -> float:
        xv, vv = path.x(t), path.xdot(t)
        if guards and not inside(xv, vv, t):
            raise DomainExit(f"path exits guarded domain at t={t:g}", t)
        try:
            return fn(xv, vv, t)
        except OverflowError:
            raise ex.EvaluationError(f"action integrand overflowed at t={t:g}") from None
        except (ZeroDivisionError, ValueError) as err:
            raise DomainExit(f"action integrand undefined ({err}) at t={t:g}", t) from None

    value = _simpson(integrand, path.t0, path.t1, panels)
    if not math.isfinite(value):
        raise ex.EvaluationError("action quadrature is non-finite")
    return value


@dataclass
class PathIndependenceReport:
    action_a: float
    action_b: float
    difference: float
    eps: float
    panels: int
    passed: bool

    def to_dict(self) -> dict:
        return {
            "action_a": self.action_a,
            "action_b": self.action_b,
            "difference": self.difference,
            "eps": self.eps,
            "panels": self.panels,
            "passed": self.passed,
        }


def path_independence_check(
    L: Lagrangian,
    path_a: Path,
    path_b: Path,
    *,
    panels: int = ACTION_PANELS,
) -> PathIndependenceReport:
    """Compare the action along two paths sharing both endpoints, at EPS_ACT."""
    if path_a.t0 != path_b.t0 or path_a.t1 != path_b.t1:
        raise ValueError("paths must share the time interval")
    for t in (path_a.t0, path_a.t1):
        if abs(path_a.x(t) - path_b.x(t)) > 1e-10:
            raise ValueError(f"paths must share endpoints; mismatch at t={t:g}")
    a = action(L, path_a, panels=panels)
    b = action(L, path_b, panels=panels)
    d = abs(a - b)
    return PathIndependenceReport(a, b, d, EPS_ACT, panels, d <= EPS_ACT)
