"""Construction of null Lagrangians from generating functions.

A generating function B(x, t) determines the paper's xC(x, t) through the
condition d(xC)/dx = dB/dt; the assembled B*xdot + xC + f(t) is then null.
Integrating for xC proves the null-condition residual dB/dt - d(xC)/dx
zero, and a constructed pair keeps xC and is certified on that residual by
NullPair.judged, so B and xC are differentiated once each.
Binomial-weighted sums of spatial derivatives of B and xC produce the
higher harmonics, each a NullPair judged the same way, and fractional
generating functions f1/(f2*x + f3*t + f4) produce the non-standard family,
whose C-part needs antiderivatives of powers of linear forms and yields a
logarithmic term.

Antidifferentiation is supported on the closed class used by these
constructions (powers, exponentials with linear or logarithmic arguments,
sine/cosine of linear arguments, powers of linear forms); anything else
raises AntiderivativeUnsupported rather than attempting general symbolic
integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import expr as ex
from .domain import DEFAULT_DOMAIN, Domain, Guard
from .expr import (
    Apply,
    Expr,
    FuncSym,
    JetSym,
    Sum,
    T,
    X,
    ZERO,
    add,
    apply_fn,
    as_coeff_factors,
    diff,
    mul,
    pow_,
    sub,
    to_string,
)
from .variational import GaugeFunction, NullCertificationFailed, NullPair

HARMONIC_ORDER_CAP = 8


class AntiderivativeUnsupported(ex.ExprError):
    """The integrand lies outside the supported antiderivative class."""


class DenominatorVanishes(ex.ExprError, ValueError):
    """A fractional generating function has an identically zero denominator
    (an input error)."""


def _varfree(e: Expr, var: JetSym) -> bool:
    return not ex.depends_on(e, var)


def _linear_parts(base: Expr, var: JetSym) -> tuple[Expr, Expr] | None:
    """For base = a*var + rest with a, rest var-free return (a, rest)."""
    a = diff(base, var)
    if a == ZERO or not _varfree(a, var):
        return None
    rest = sub(base, mul(a, var))
    if not _varfree(rest, var):
        return None
    return a, rest


def _log_coefficient(u: Expr, var: JetSym) -> Expr | None:
    """For u = s*ln(var) + rest with s, rest var-free return s."""
    s = mul(var, diff(u, var))
    return s if _varfree(s, var) else None


def antiderivative(e: Expr, var: JetSym) -> Expr:
    """Antiderivative of e with respect to var (x or t), constant set to zero.

    Works term by term on the canonical sum-of-monomials form; every output
    is verified by differentiation before being returned.
    """
    result = _integral(e, var)
    check = sub(diff(result, var), e)
    if not ex.proven_zero(check):
        raise _self_check_failed(e, check)
    return result


def _integral(e: Expr, var: JetSym) -> Expr:
    """The term-by-term antiderivative of e, not yet verified."""
    if var not in (X, T):
        raise ValueError("antiderivative variable must be x or t")
    terms = e.terms if isinstance(e, Sum) else (e,)
    return add(*(_antiderivative_term(term, var) for term in terms))


def _self_check_failed(e: Expr, check: Expr) -> NullCertificationFailed:
    return NullCertificationFailed(
        f"antiderivative self-check failed for {to_string(e)}: residue {to_string(check)}"
    )


def _antiderivative_term(term: Expr, var: JetSym) -> Expr:
    coeff, factors = as_coeff_factors(term)
    free: list[Expr] = []
    dep: list[tuple[Expr, int | Fraction]] = []
    for f in factors:
        base, q = ex._base_exponent(f)
        if _varfree(base, var):
            free.append(f)
        else:
            dep.append((base, q))
    rest = mul(ex.const(coeff), *free)

    def unsupported() -> AntiderivativeUnsupported:
        return AntiderivativeUnsupported(
            f"cannot antidifferentiate {to_string(term)} with respect to {var.name}"
        )

    if not dep:
        return mul(rest, var)

    if len(dep) == 1:
        base, q = dep[0]
        if base == var:
            return mul(rest, _power_of_var(var, q))
        if isinstance(base, FuncSym):
            if var == T and q == 1 and base.order >= 1:
                return mul(rest, FuncSym(base.name, base.order - 1))
            raise unsupported()
        if isinstance(base, Apply) and q == 1:
            return mul(rest, _apply_antiderivative(base, var, 0))
        lin = _linear_parts(base, var) if isinstance(base, (Sum,)) else None
        if lin is not None:
            return mul(rest, _linear_power_antiderivative(base, q, lin[0]))
        raise unsupported()

    if len(dep) == 2:
        dep.sort(key=lambda bq: 0 if bq[0] == var else 1)
        (b1, q1), (b2, q2) = dep
        if b1 == var:
            if isinstance(b2, Apply) and b2.func == "exp" and q2 == 1:
                return mul(rest, _apply_antiderivative(b2, var, q1))
            lin = _linear_parts(b2, var) if isinstance(b2, Sum) else None
            if lin is not None and q1.denominator == 1 and q1 > 0:
                return mul(rest, _monomial_times_linear_power(var, int(q1), b2, q2, *lin))
    raise unsupported()


def _power_of_var(var: JetSym, q: int | Fraction) -> Expr:
    if q == -1:
        return apply_fn("ln", var)
    return mul(ex.const(Fraction(1, q + 1)), pow_(var, q + 1))


def _apply_antiderivative(node: Apply, var: JetSym, extra_power: int | Fraction) -> Expr:
    u = node.arg
    a = diff(u, var)
    if node.func == "exp":
        if _varfree(a, var) and a != ZERO and extra_power == 0:
            return mul(node, pow_(a, -1))
        s = _log_coefficient(u, var)
        if s is not None:
            denom = add(s, ex.const(extra_power + 1))
            if ex.proven_zero(denom):
                raise AntiderivativeUnsupported(
                    f"exponent of {to_string(node)} makes the integrand a reciprocal of {var.name}"
                )
            return mul(pow_(var, extra_power + 1), node, pow_(denom, -1))
    elif node.func in ("sin", "cos") and extra_power == 0:
        if _varfree(a, var) and a != ZERO:
            if node.func == "sin":
                return mul(ex.const(-1), apply_fn("cos", u), pow_(a, -1))
            return mul(apply_fn("sin", u), pow_(a, -1))
    raise AntiderivativeUnsupported(
        f"cannot antidifferentiate {to_string(node)} with respect to {var.name}"
    )


def _linear_power_antiderivative(base: Expr, q: int | Fraction, a: Expr) -> Expr:
    if q == -1:
        return mul(apply_fn("ln", base), pow_(a, -1))
    return mul(ex.const(Fraction(1, q + 1)), pow_(base, q + 1), pow_(a, -1))


def _monomial_times_linear_power(
    var: JetSym, m: int, base: Expr, q: int | Fraction, a: Expr, rest: Expr
) -> Expr:
    # var^m = a^-m * (base - rest)^m, expanded binomially into powers of base
    parts = []
    for j in range(m + 1):
        coeff = mul(
            ex.const(math.comb(m, j)),
            pow_(mul(ex.const(-1), rest), m - j),
        )
        parts.append(mul(coeff, _linear_power_antiderivative(base, q + j, a)))
    return mul(pow_(a, -m), add(*parts))


# ---------------------------------------------------------------------------
# generating-function construction


def solve_C(B: Expr) -> Expr:
    """Displacement coefficient C with d(xC)/dx = dB/dt.

    The additive function of t in xC is fixed to zero.  C may carry a g(t)/x
    term; the assembled xC stays regular at x = 0.  xC is verified by
    proving the null condition dB/dt - d(xC)/dx zero.
    """
    return mul(_solved(B)[0], pow_(X, -1))


def _solved(B: Expr) -> tuple[Expr, Expr]:
    """xC and the null-condition residual dB/dt - d(xC)/dx that proves it:
    dB/dt is integrated term by term to xC, and the residual is the
    antiderivative's self-check."""
    B_t = diff(B, T)
    xC = _integral(B_t, X)
    residual = sub(B_t, diff(xC, X))
    if not ex.proven_zero(residual):
        raise _self_check_failed(B_t, ex.neg(residual))
    return xC, residual


def build_null(
    B: Expr,
    f: Expr = ZERO,
    domain: Domain = DEFAULT_DOMAIN,
    *,
    seed: int = 0,
) -> NullPair:
    """Certified NullPair generated by B with additive time term f, judged
    on the residual that integrating for xC proved."""
    xC, residual = _solved(B)
    return NullPair.judged(B, xC, f, domain, residual, seed=seed)


def weighted_B(e: Expr, n: int) -> Expr:
    """Binomial-weighted sum of spatial derivatives:
    sum_i C(n, n-i) * d^i e / dx^i, i.e. (1 + d/dx)^n applied to e."""
    if n < 0:
        raise ValueError("harmonic order must be non-negative")
    parts = []
    d = e
    for i in range(n + 1):
        parts.append(mul(ex.const(math.comb(n, n - i)), d))
        if i < n:
            d = diff(d, X)
    return add(*parts)


@dataclass(frozen=True, kw_only=True)
class HarmonicLagrangian(NullPair):
    """Order-n harmonic of a certified NullPair base, itself a NullPair.

    B and xC are the binomial-weighted spatial-derivative sums B_n and
    [xC]_n of the base's, and f is the base's; the assembled Lagrangian
    satisfies the recursion L(n) = L(n-1) + total_dt(B_{n-1}).
    """

    base: NullPair
    order: int

    # as_lagrangian and body are read only by the benchmark's workloads
    # (ROADMAP item 1 Step 1 deletes both)
    as_lagrangian = NullPair.assembled

    @property
    def body(self) -> Expr:
        return self.assembled().body

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "B_n": to_string(self.B),
            "xC_n": to_string(self.xC),
            "lagrangian": to_string(self.assembled().body),
        }


def harmonic(base: NullPair, n: int, *, seed: int = 0) -> HarmonicLagrangian:
    """Order-n harmonic of a certified base pair; certified null itself."""
    if n < 0:
        raise ValueError("harmonic order must be non-negative")
    if n > HARMONIC_ORDER_CAP:
        raise ValueError(f"harmonic order {n} above cap {HARMONIC_ORDER_CAP}")
    if not base.is_certified:
        raise NullCertificationFailed("harmonic requires a certified NullPair")
    B_n, xC_n = weighted_B(base.B, n), weighted_B(base.xC, n)
    residual = sub(diff(B_n, T), diff(xC_n, X))
    pair = NullPair.judged(B_n, xC_n, base.f, base.domain, residual, seed=seed)
    return HarmonicLagrangian(B_n, xC_n, base.f, base.domain, pair.certificate, base=base, order=n)


# ---------------------------------------------------------------------------
# non-standard (fractional) family


@dataclass(frozen=True)
class FractionSpec:
    """Coefficients of the fractional generating function
    f1 / (f2*x + f3*t + f4); each entry is an expression over t."""

    f1: Expr
    f2: Expr
    f3: Expr = ZERO
    f4: Expr = ZERO

    def __post_init__(self):
        for name in ("f1", "f2", "f3", "f4"):
            ex.require_support(getattr(self, name), {"t"}, name)

    def denominator(self) -> Expr:
        return add(mul(self.f2, X), mul(self.f3, T), self.f4)


def build_nonstandard_null(
    spec: FractionSpec,
    f: Expr = ZERO,
    domain: Domain = DEFAULT_DOMAIN,
    *,
    seed: int = 0,
) -> NullPair:
    """Certified NullPair for the fractional generating function."""
    D = spec.denominator()
    if D == ZERO:
        raise DenominatorVanishes("f2*x + f3*t + f4 is identically zero")
    guard = Guard(D, positive=True)
    if guard not in domain.guards:
        domain = domain.with_guards(guard)
    B = mul(spec.f1, pow_(D, -1))
    xC, residual = _solved(B)
    return NullPair.judged(B, xC, f, domain, residual, seed=seed)


# ---------------------------------------------------------------------------
# gauge reconstruction (partial converse of the gauge lift)


def reconstruct_gauge(pair: NullPair) -> GaugeFunction | None:
    """Gauge function phi with dphi/dx = B and dphi/dt = xC + f, when B and
    the leftover time term are antidifferentiable in the supported class;
    returns None when the gauge cannot be reconstructed."""
    try:
        phi_x = antiderivative(pair.B, X)
    except AntiderivativeUnsupported:
        return None
    leftover = sub(add(pair.xC, pair.f), diff(phi_x, T))
    if not _varfree(leftover, X):
        return None
    if leftover == ZERO:
        return GaugeFunction(phi_x, pair.domain)
    try:
        psi = antiderivative(leftover, T)
    except AntiderivativeUnsupported:
        return None
    return GaugeFunction(add(phi_x, psi), pair.domain)
