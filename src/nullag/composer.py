"""Composition of Lagrangians with scalar functions and derivation of
equations of motion.

Every route reads one operator, the Euler-Lagrange residual
E(L) = total_dt(dL/dxdot) - dL/dx.  For a twice-differentiable F, the
composed Lagrangian F(L) has the Euler-Lagrange equation

    p_L * F''(L) * dL/dt + E(L) * F'(L) = 0,

which reduces to E(L) for F = identity.  When L is null the second term
vanishes identically and, wherever p_L * F''(L) does not vanish, the
dynamics collapse to the conservation rule d/dt[L] = 0, independent of F.
The conservation route takes that rule as

    d/dt L + xdot * E(L) = 0

with E(L) the residual the certificate of L holds.  For L = B*xdot + C*x + f
this is, as an algebraic identity, the paper's expanded form
B*xddot + (B_x*xdot + 2*B_t)*xdot + C_t*x + f'(t), and it equals d/dt L
wherever the null condition holds.  Residuals are kept as
residual-plus-leading-coefficient.  solve_leading clears the residual's
denominators before dividing by its x'' coefficient, and each cleared base
becomes a nonzero guard of the explicit form.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import expr as ex
from .domain import (
    DEFAULT_DOMAIN,
    Domain,
    Guard,
    InfeasibleDomainError,
    collect_guards,
    instantiation_rounds,
    sample_points,
    unique_guards,
)
from .equivalence import EPS_EQ, N_EQ
from .expr import (
    ConstSym,
    Expr,
    XDDOT,
    XDOT,
    ZERO,
    add,
    apply_fn,
    diff,
    mul,
    pow_,
    sub,
    substitute,
    to_string,
    total_dt,
)
from .numint import IVP
from .variational import (
    Lagrangian,
    NullCertificationFailed,
    NullPair,
    _residual_with_momentum,
    euler_lagrange_residual,
    momentum,
)

_SLOT = ConstSym("_lambda_")


class LeadingCoefficientVanishes(ex.ExprError):
    """The xddot coefficient vanishes identically or on the whole domain."""


@dataclass(frozen=True)
class Composer:
    """Scalar post-composition F with symbolic first and second derivatives.

    `body` is an expression in a single scalar slot; F(L) substitutes the
    Lagrangian body into the slot.
    """

    name: str
    body: Expr

    def __call__(self, inner: Expr) -> Expr:
        return substitute(self.body, {_SLOT: inner})

    def deriv1(self, inner: Expr) -> Expr:
        return substitute(diff(self.body, _SLOT), {_SLOT: inner})

    def deriv2(self, inner: Expr) -> Expr:
        return substitute(diff(diff(self.body, _SLOT), _SLOT), {_SLOT: inner})

    @classmethod
    def identity(cls) -> "Composer":
        return cls("identity", _SLOT)

    @classmethod
    def exp(cls) -> "Composer":
        return cls("exp", apply_fn("exp", _SLOT))

    @classmethod
    def ln(cls) -> "Composer":
        return cls("ln", apply_fn("ln", _SLOT))

    @classmethod
    def reciprocal(cls) -> "Composer":
        return cls("reciprocal", pow_(_SLOT, -1))

    @classmethod
    def power(cls, k: int) -> "Composer":
        if k == 0:
            raise ValueError("power(0) is constant and admits no dynamics")
        return cls(f"power({k})", pow_(_SLOT, k))

    @classmethod
    def from_expr(cls, body: Expr) -> "Composer":
        """Composer whose slot is the named constant L of body, which may hold
        no jet and must hold L: a body without L is constant in L."""
        ex.require_support(body, set(), "compose")
        if "L" not in ex.const_names(body):
            raise ValueError(f"compose {to_string(body)} does not contain L and admits no dynamics")
        return cls(f"user({to_string(body)})", substitute(body, {ConstSym("L"): _SLOT}))


CATALOG = {
    "identity": Composer.identity,
    "exp": Composer.exp,
    "ln": Composer.ln,
    "reciprocal": Composer.reciprocal,
}


def _composed_domain(F: Composer, L: Lagrangian) -> Domain:
    """L's domain plus F's range guards: each guard collect_guards finds on
    the slot of F's body (ln(L) needs L > 0, 1/L needs L != 0), with L.body
    in the slot."""
    range_guards = [
        Guard(substitute(g.expr, {_SLOT: L.body}), g.positive)
        for g in dict.fromkeys(collect_guards(F.body))
        if _SLOT in ex.free_atoms(g.expr)
    ]
    return L.domain.with_guards(*range_guards)


def compose(F: Composer, L: Lagrangian, *, seed: int = 0) -> Lagrangian:
    """Lagrangian F(L.body) on _composed_domain(F, L).

    Raises InfeasibleDomainError when the range guards leave no feasible
    sample points in any instantiation round of the opaque functions,
    carrying a violating point as witness.
    """
    domain = _composed_domain(F, L)
    composed = Lagrangian(F(L.body), domain)
    if domain.guards != L.domain.guards:
        rng = random.Random(seed)
        rounds = instantiation_rounds([composed.body], domain)
        for funcs in rounds:
            try:
                sample_points([composed.body], domain, 5, rng, funcs=funcs)
            except ex.ExprError:
                continue
            return composed
        witness = None
        try:
            sample = sample_points([L.body], L.domain, 1, rng, funcs=rounds[0])
            (row,), (inner,) = sample.rows, sample.functions
            # the point is a witness even where the inner Lagrangian overflows
            witness = sample.witness(row)
            witness["inner_value"] = float(inner(*row))
        except (ex.ExprError, ArithmeticError, ValueError):
            pass
        raise InfeasibleDomainError(
            f"range guard of {F.name} leaves no feasible points; witness {witness}"
        )
    return composed


@dataclass(frozen=True)
class EquationOfMotion:
    """Dynamics as a canonical residual whose zero set is the motion.

    provenance records the derivation route (euler-lagrange | composition |
    conservation).
    """

    residual: Expr
    provenance: str
    domain: Domain = DEFAULT_DOMAIN

    @property
    def leading(self) -> Expr:
        """The xddot coefficient of the residual, which is linear in xddot."""
        return diff(self.residual, XDDOT)

    def explicit(self) -> Expr:
        return solve_leading(self)

    def guards(self) -> tuple[Guard, ...]:
        """The guards that go with explicit(): the domain guards plus those
        of the residual's structure (collect_guards), which keep every base
        that solve_leading clears nonzero, so the zero set of explicit() is
        that of the residual.  Each expression appears once (unique_guards)."""
        return unique_guards(self.domain.guards + collect_guards(self.residual))

    def ivp(self, t0: float, x0: float, v0: float, t1: float, h: float, *, constants=None) -> IVP:
        """The initial value problem of explicit() under guards()."""
        return IVP(self.explicit(), t0, x0, v0, t1, h, constants=constants, guards=self.guards())

    def __str__(self) -> str:
        return f"{to_string(self.residual)} = 0"

    def to_dict(self) -> dict:
        d = {
            "residual": to_string(self.residual),
            "leading": to_string(self.leading),
            "provenance": self.provenance,
        }
        try:
            d["explicit"] = f"x'' = {to_string(self.explicit())}"
        except LeadingCoefficientVanishes:
            d["explicit"] = None
        return d


def eom_from_lagrangian(L: Lagrangian) -> EquationOfMotion:
    """Euler-Lagrange route: residual total_dt(dL/dxdot) - dL/dx."""
    residual = euler_lagrange_residual(L)
    return EquationOfMotion(residual, "euler-lagrange", L.domain)


def composed_eom(F: Composer, L: Lagrangian) -> EquationOfMotion:
    """Equation of motion of the composed Lagrangian F(L), on the domain of
    compose(F, L): p_L*F''(L)*dL/dt + E(L)*F'(L); reduces to the
    Euler-Lagrange residual E(L) for F = identity."""
    body = L.body
    p = momentum(body)
    residual = add(
        mul(p, F.deriv2(body), total_dt(body)),
        mul(_residual_with_momentum(body, p), F.deriv1(body)),
    )
    return EquationOfMotion(residual, "composition", _composed_domain(F, L))


def conservation_eom(null: NullPair, *, seed: int = 0) -> EquationOfMotion:
    """Equation of motion from conserving a certified null Lagrangian (a
    NullPair, such as a harmonic) along the motion:

        d/dt L + xdot * E(L) = 0,

    where E(L) is the Euler-Lagrange residual its certificate holds.  This
    is B*xddot + (B_x*xdot + 2*B_t)*xdot + C_t*x + f' for every B, C and f.
    seed is unused; the benchmark's workloads still pass it."""
    if null.certificate is None:
        raise NullCertificationFailed("conservation_eom requires a certified null Lagrangian")
    residual = add(total_dt(null.assembled().body), mul(XDOT, null.certificate.residual))
    return EquationOfMotion(residual, "conservation", null.domain)


def solve_leading(eom: EquationOfMotion) -> Expr:
    """Explicit form xddot = -(rest)/lead of the residual with its
    denominators cleared, where lead is its x'' coefficient; eom.guards()
    keeps the cleared bases nonzero."""
    cleared = ex.clear_denominators(eom.residual)
    leading = diff(cleared, XDDOT)
    if leading == ZERO:
        raise LeadingCoefficientVanishes("residual has no x'' term")
    rest = sub(cleared, mul(leading, XDDOT))
    if ex.depends_on(rest, XDDOT):
        raise LeadingCoefficientVanishes("residual is not linear in x''")
    return mul(ex.const(-1), rest, pow_(leading, -1))


def permissibility_check(F: Composer, pair: NullPair, *, seed: int = 0) -> str:
    """Check p_L * F''(L) does not vanish on the guarded domain.

    Returns "ok" when |factor| stays above EPS_EQ at every one of N_EQ
    sampled points of every instantiation round of the opaque functions,
    else "conditional" (the conservation rule then holds only where the
    factor is nonzero)."""
    body = pair.assembled().body
    factor = mul(momentum(body), F.deriv2(body))
    rng = random.Random(seed)
    for funcs in instantiation_rounds([factor], pair.domain):
        try:
            sample = sample_points([factor], pair.domain, N_EQ, rng, funcs=funcs)
        except ex.ExprError:
            return "conditional"
        (value,) = sample.functions
        for row in sample.rows:
            try:
                v = abs(float(value(*row)))
            except (ArithmeticError, ValueError):
                return "conditional"
            if not EPS_EQ < v < math.inf:
                return "conditional"
    return "ok"
