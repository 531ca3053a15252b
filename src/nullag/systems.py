"""Catalog of dissipative systems admitting null Lagrangians.

For the family xddot + alpha*xdot^2 + beta*xdot + gamma*x = 0 the
condition d(B)/dt = d(xC)/dx pins down which coefficient combinations
admit a null Lagrangian:

* constant coefficients: the law of inertia (all zero), the tied damped
  oscillator (alpha = 0, gamma = beta^2/4), and quadratic damping
  (beta = gamma = 0); the plain harmonic oscillator admits none;
* time-dependent beta(t), gamma(t) with alpha = 0: gamma is tied to beta
  through gamma = beta'/2 + beta^2/4;
* displacement-dependent alpha(x), gamma(x) with constant beta: gamma
  solves x*gamma' + gamma*(1 + alpha*x) = beta^2/4.

Each admissible case is emitted as a SystemCase bundling the certified
pair, its equation of motion, and the constraint relations; inadmissible
cases are first-class results carrying a witness, not exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from . import expr as ex
from .composer import EquationOfMotion, conservation_eom, eom_from_lagrangian
from .construct import AntiderivativeUnsupported, antiderivative
from .domain import DEFAULT_DOMAIN, Domain
from .equivalence import Verdict, equivalent, vanishes
from .expr import (
    ConstSym,
    Expr,
    T,
    X,
    XDDOT,
    XDOT,
    ZERO,
    add,
    apply_fn,
    diff,
    mul,
    pow_,
    sub,
    to_string,
)
from .parser import parse
from .variational import Lagrangian, NullPair

B0 = ConstSym("B0")


class ConstraintViolated(ex.ExprError):
    """Coefficients do not satisfy the applicable tie constraint."""


# a required coefficient integral has no closed form in the supported class
IntegralUnsupported = AntiderivativeUnsupported


class Classification(str, Enum):
    INERTIA = "Inertia"
    DAMPED_OSCILLATOR_TIED = "DampedOscillatorTied"
    QUADRATIC_DAMPING = "QuadraticDamping"
    NO_NULL_LAGRANGIAN = "NoNullLagrangian"
    TIME_DEPENDENT_OSCILLATOR = "TimeDependentOscillator"
    DISPLACEMENT_DEPENDENT = "DisplacementDependent"


@dataclass
class SystemCase:
    classification: Classification
    alpha: Expr
    beta: Expr
    gamma: Expr
    constraints: tuple[Expr, ...] = ()
    null_pair: NullPair | None = None
    absent_reason: str | None = None
    absent_witness: dict | None = None
    eom: EquationOfMotion | None = None
    constants: dict = field(default_factory=dict)

    @property
    def B(self) -> Expr | None:
        return self.null_pair.B if self.null_pair else None

    @property
    def C(self) -> Expr | None:
        return self.null_pair.C if self.null_pair else None

    @property
    def target_residual(self) -> Expr:
        return _target_residual(self.alpha, self.beta, self.gamma)

    def to_dict(self) -> dict:
        return {
            "classification": self.classification.value,
            "alpha": to_string(self.alpha),
            "beta": to_string(self.beta),
            "gamma": to_string(self.gamma),
            "B": to_string(self.B) if self.B is not None else None,
            "C": to_string(self.C) if self.C is not None else None,
            "constraints": [to_string(c) for c in self.constraints],
            "null_lagrangian": self.null_pair.to_dict() if self.null_pair else None,
            "absent_reason": self.absent_reason,
            "absent_witness": self.absent_witness,
            "eom": self.eom.to_dict() if self.eom else None,
            "target_residual": to_string(self.target_residual),
            "constants": {k: to_string(v) if isinstance(v, Expr) else v for k, v in self.constants.items()},
        }


def _inputs(support: set[str], **values) -> list[Expr | None]:
    """Each value as an expression whose jets lie in support, in order; a
    value not given (None) stays None."""
    out = [None if v is None else ex.const(v) for v in values.values()]
    for name, e in zip(values, out):
        if e is not None:
            ex.require_support(e, support, name)
    return out


def _is_zero(e: Expr) -> bool:
    return e == ZERO


def _target_residual(alpha: Expr, beta: Expr, gamma: Expr) -> Expr:
    return add(XDDOT, mul(alpha, pow_(XDOT, 2)), mul(beta, XDOT), mul(gamma, X))


def _admissible(classification, B: Expr, C: Expr, domain: Domain, seed: int, **fields) -> SystemCase:
    """The catalog case of the null Lagrangian B*xdot + C*x: its certified
    pair and conservation equation of motion; constants default to {B0}."""
    pair = NullPair.certified(B, C, ZERO, domain, seed=seed)
    fields.setdefault("constants", {"B0": B0})
    eom = conservation_eom(pair)
    return SystemCase(classification, null_pair=pair, eom=eom, **fields)


def classify_constant(alpha0, beta0, gamma0, *, seed: int = 0) -> SystemCase:
    """Classify constant coefficients; symbolic constants that do not
    canonicalize to zero are treated as generically nonzero.

    Admissible cases emit B = B0*e^(alpha0*x + beta0*t/2) with C pinned
    by the tie constraint (1 + alpha0*x)*gamma0 = beta0^2/4.
    """
    alpha0, beta0, gamma0 = _inputs(set(), alpha0=alpha0, beta0=beta0, gamma0=gamma0)
    constraint = sub(
        mul(add(ex.const(1), mul(alpha0, X)), gamma0),
        mul(ex.const(Fraction(1, 4)), pow_(beta0, 2)),
    )
    common = dict(alpha=alpha0, beta=beta0, gamma=gamma0, constraints=(constraint,))

    if _is_zero(alpha0) and _is_zero(beta0) and _is_zero(gamma0):
        classification, B, C = Classification.INERTIA, B0, ZERO
    elif _is_zero(alpha0) and not _is_zero(beta0) and ex.proven_zero(constraint):
        classification = Classification.DAMPED_OSCILLATOR_TIED
        E = apply_fn("exp", mul(beta0, T, ex.const(Fraction(1, 2))))
        B, C = mul(B0, E), mul(2, B0, gamma0, pow_(beta0, -1), E)
    elif not _is_zero(alpha0) and _is_zero(beta0) and _is_zero(gamma0):
        classification = Classification.QUADRATIC_DAMPING
        B, C = mul(B0, apply_fn("exp", mul(alpha0, X))), ZERO
    else:
        return SystemCase(
            Classification.NO_NULL_LAGRANGIAN,
            absent_reason=(
                "the tie constraint (1 + alpha0*x)*gamma0 = beta0^2/4 cannot hold identically "
                "for these constants"
            ),
            # the case is decided exactly, so any sampled point where the
            # constraint is nonzero is a witness: eps=0
            absent_witness=vanishes(constraint, DEFAULT_DOMAIN, eps=0, seed=seed).witness,
            **common,
        )
    return _admissible(classification, B, C, DEFAULT_DOMAIN, seed, **common)


def gamma_from_beta(beta: Expr) -> Expr:
    """Spring coefficient tied to a time-dependent damping coefficient:
    gamma = beta'/2 + beta^2/4 (unique up to the integration-constant
    convention, which is fixed to zero)."""
    (beta,) = _inputs({"t"}, beta=beta)
    return add(mul(ex.const(Fraction(1, 2)), diff(beta, T)), mul(ex.const(Fraction(1, 4)), pow_(beta, 2)))


def build_timedep(
    beta1,
    gamma1=None,
    alpha1=ZERO,
    *,
    domain: Domain = DEFAULT_DOMAIN,
    seed: int = 0,
) -> SystemCase:
    """Time-dependent catalog branch (alpha1 = 0).

    B = B0*e^(I) with I = (1/2) integral of beta1; the displacement
    coefficient is beta1*B/2, the constraint-substituted form of the
    gamma integral.  A nonzero alpha1 only admits the constant
    quadratic-damping case.
    """
    beta1, alpha1, gamma1 = _inputs({"t"}, beta1=beta1, alpha1=alpha1, gamma1=gamma1)
    if not _is_zero(alpha1):
        if not ex.proven_zero(diff(alpha1, T)):
            raise ConstraintViolated(
                "a nonzero quadratic-damping coefficient must be constant in t; "
                f"found alpha1' = {to_string(diff(alpha1, T))}"
            )
        if not (_is_zero(beta1) and (gamma1 is None or _is_zero(gamma1))):
            raise ConstraintViolated(
                "with alpha1 != 0 the condition forces beta1 = gamma1 = 0 "
                "(constant quadratic damping is the only admissible case)"
            )
        return classify_constant(alpha1, 0, 0, seed=seed)
    tied = gamma_from_beta(beta1)
    if gamma1 is None:
        gamma1 = tied
    else:
        rep = equivalent(gamma1, tied, domain, seed=seed)
        if rep.verdict is Verdict.DISTINCT:
            raise ConstraintViolated(
                f"gamma1 must equal beta1'/2 + beta1^2/4 = {to_string(tied)}; witness {rep.witness}"
            )
    I_beta = mul(ex.const(Fraction(1, 2)), antiderivative(beta1, T))
    B = mul(B0, apply_fn("exp", I_beta))
    C = mul(ex.const(Fraction(1, 2)), beta1, B)
    return _admissible(
        Classification.TIME_DEPENDENT_OSCILLATOR, B, C, domain, seed,
        alpha=ZERO, beta=beta1, gamma=gamma1, constraints=(sub(gamma1, tied),),
    )


def solve_gamma_displacement(alpha2, beta0, ctilde=ZERO) -> Expr:
    """Solve x*gamma' + gamma*(1 + alpha2*x) = beta0^2/4 for gamma(x).

    Substituting u = x*gamma turns the constraint into u' + alpha2*u =
    beta0^2/4, solved with the integrating factor e^(I) where I is the
    x-antiderivative of alpha2; ctilde is the integration constant."""
    alpha2, beta0, ctilde = ex.const(alpha2), ex.const(beta0), ex.const(ctilde)
    I_alpha = antiderivative(alpha2, X)
    E = apply_fn("exp", I_alpha)
    forced = (
        mul(ex.const(Fraction(1, 4)), pow_(beta0, 2), antiderivative(E, X))
        if not _is_zero(beta0)
        else ZERO
    )
    u = mul(pow_(E, -1), add(forced, ctilde))
    return mul(u, pow_(X, -1))


def build_displacement(
    alpha2,
    beta0,
    gamma2=None,
    *,
    ctilde=ZERO,
    domain: Domain = DEFAULT_DOMAIN,
    seed: int = 0,
) -> SystemCase:
    """Displacement-dependent catalog branch (beta constant).

    For beta0 != 0 the pair is B = B0*e^(I + beta0*t/2),
    C = 2*gamma2*B/beta0; for beta0 = 0 it is B = B0*e^(I),
    C = B0*t*gamma2*e^(I); I is the x-antiderivative of alpha2.
    """
    alpha2, gamma2 = _inputs({"x"}, alpha2=alpha2, gamma2=gamma2)
    beta0, ctilde = _inputs(set(), beta0=beta0, ctilde=ctilde)
    if gamma2 is None:
        gamma2 = solve_gamma_displacement(alpha2, beta0, ctilde)
    constraint = sub(
        add(mul(X, diff(gamma2, X)), mul(gamma2, add(ex.const(1), mul(alpha2, X)))),
        mul(ex.const(Fraction(1, 4)), pow_(beta0, 2)),
    )
    rep = vanishes(constraint, domain, seed=seed)
    if rep.verdict is Verdict.DISTINCT:
        raise ConstraintViolated(
            f"gamma2 violates x*gamma2' + gamma2*(1 + alpha2*x) = beta0^2/4; witness {rep.witness}"
        )
    I_alpha = antiderivative(alpha2, X)
    if not _is_zero(beta0):
        B = mul(B0, apply_fn("exp", add(I_alpha, mul(ex.const(Fraction(1, 2)), beta0, T))))
        C = mul(2, gamma2, pow_(beta0, -1), B)
    else:
        E = apply_fn("exp", I_alpha)
        B = mul(B0, E)
        C = mul(B0, T, gamma2, E)
    return _admissible(
        Classification.DISPLACEMENT_DEPENDENT, B, C, domain, seed,
        alpha=alpha2, beta=beta0, gamma=gamma2, constraints=(constraint,),
        constants={"B0": B0, "ctilde": ctilde},
    )


# ---------------------------------------------------------------------------
# comparison triples: standard / non-standard / null routes per system


DEFAULT_COMPARISON_CONSTANTS: dict[str, float] = {
    "c1": 1.0,
    "c2": 1.0,
    "c3": 1.0,
    "B0": 1.0,
    "a0": 1.0,
    "b0": 2.0,
    "C1": 1.0,
    "C2": 1.0,
    "v0": 1.0,
}


@dataclass
class ComparisonTriple:
    """Standard, non-standard, and null Lagrangians of one system, each with
    its own derivation route for the same equation of motion."""

    name: str
    standard: Lagrangian
    nonstandard: Lagrangian
    null_pair: NullPair
    target_residual: Expr

    def routes(self, *, seed: int = 0) -> dict[str, EquationOfMotion]:
        """The equation of motion of each route.  seed is unused; the
        benchmark's workloads still pass it."""
        return {
            "standard": eom_from_lagrangian(self.standard),
            "nonstandard": eom_from_lagrangian(self.nonstandard),
            "null": conservation_eom(self.null_pair),
        }


def comparison_catalog(key: str, *, seed: int = 0) -> ComparisonTriple:
    """Comparison triple for "inertia", "quadratic" (damping), or the "tied"
    oscillator; constants stay symbolic (bind DEFAULT_COMPARISON_CONSTANTS
    or your own values for numeric work)."""
    if key == "inertia":
        return ComparisonTriple(
            "inertia",
            standard=Lagrangian(parse("1/2*x'^2")),
            nonstandard=Lagrangian(parse("1/(C1*(a0*t + v0)^2*((a0*t + v0)*x' - a0*x + C2))")),
            null_pair=NullPair.certified(parse("c1"), ZERO, ZERO, seed=seed),
            target_residual=XDDOT,
        )
    if key == "quadratic":
        return ComparisonTriple(
            "quadratic",
            standard=Lagrangian(parse("1/2*x'^2*exp(2*a0*x)")),
            nonstandard=Lagrangian(parse("1/(x'*exp(a0*x) + 1)")),
            null_pair=NullPair.certified(parse("c2*exp(a0*x)"), ZERO, ZERO, seed=seed),
            target_residual=_target_residual(ConstSym("a0"), ZERO, ZERO),
        )
    if key == "tied":
        # The literature form of this non-standard Lagrangian circulates with
        # the exponent written over x; that variant does not reproduce the
        # oscillator through the Euler-Lagrange route (see audit module).
        # The working form, equal to 1/L_null at unit scale, carries t.
        return ComparisonTriple(
            "tied",
            standard=Lagrangian(parse("1/2*(x'^2 - 1/4*b0^2*x^2)*exp(b0*t)")),
            nonstandard=Lagrangian(parse("exp(-b0*t/2)/(x' + 1/2*b0*x)")),
            null_pair=NullPair.certified(
                parse("c3*exp(b0*t/2)"), parse("1/2*c3*b0*exp(b0*t/2)"), ZERO, seed=seed
            ),
            target_residual=_target_residual(ZERO, ConstSym("b0"), parse("1/4*b0^2")),
        )
    raise ValueError(f"unknown comparison system {key!r}; pick inertia, quadratic, or tied")
