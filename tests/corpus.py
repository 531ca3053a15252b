"""Catalog of generating functions, null pairs, and gauge functions used
by the test suite."""

from __future__ import annotations

from nullag.construct import FractionSpec, build_nonstandard_null, build_null
from nullag.domain import DEFAULT_DOMAIN, Domain, Guard
from nullag.expr import ZERO, FuncSym
from nullag.parser import parse
from nullag.systems import build_displacement, build_timedep, classify_constant, comparison_catalog
from nullag.variational import GaugeFunction, NullPair


def linear_family(seed: int = 0) -> NullPair:
    """Generating function linear in x with opaque time coefficients."""
    return build_null(parse("f1(t)*x + f2(t)*t + f3(t)"), parse("f4(t)"), seed=seed)


def quadratic_family(seed: int = 0) -> NullPair:
    return build_null(parse("f1(t)*x^2 + f2(t)*t + f3(t)"), parse("f4(t)"), seed=seed)


def trig_exp_family(seed: int = 0) -> NullPair:
    """C carries a 1/x term here; the assembled C*x is regular."""
    return build_null(parse("f1(t)*sin(x) + f2(t)*exp(x)*t + f3(t)"), parse("f4(t)"), seed=seed)


def constant_family(seed: int = 0) -> NullPair:
    """The simplest pair: constant velocity coefficient, inertia dynamics."""
    return build_null(parse("c1"), parse("c3"), seed=seed)


def exp_family(seed: int = 0) -> NullPair:
    """Velocity coefficient B0*e^(a0*x); quadratic-damping dynamics."""
    return build_null(parse("B0*exp(a0*x)"), ZERO, seed=seed)


def tied_family(seed: int = 0) -> NullPair:
    """Velocity coefficient B0*e^(b0*t/2); tied damped-oscillator dynamics."""
    return NullPair.certified(
        parse("B0*exp(b0*t/2)"), parse("1/2*b0*B0*exp(b0*t/2)"), ZERO, seed=seed
    )


def fraction_family(seed: int = 0) -> NullPair:
    """Generic fractional generating function with opaque coefficients."""
    spec = FractionSpec(FuncSym("f1"), FuncSym("f2"), FuncSym("f3"), FuncSym("f4"))
    return build_nonstandard_null(spec, parse("f(t)"), seed=seed)


def fraction_constant_acceleration(seed: int = 0) -> NullPair:
    """Constant-coefficient fraction a1/(a2*x + a4); the C-part vanishes."""
    spec = FractionSpec(parse("a1"), parse("a2"), ZERO, parse("a4"))
    return build_nonstandard_null(spec, ZERO, seed=seed)


def all_pairs(seed: int = 0) -> dict[str, NullPair]:
    return {
        "linear": linear_family(seed),
        "quadratic": quadratic_family(seed),
        "trig_exp": trig_exp_family(seed),
        "constant": constant_family(seed),
        "exp": exp_family(seed),
        "tied": tied_family(seed),
        "fraction": fraction_family(seed),
        "fraction_const": fraction_constant_acceleration(seed),
    }


def catalog_pairs() -> dict[str, NullPair]:
    """The certified pairs of the system catalog: the three comparison
    triples, the tied and quadratic constant cases, two time-dependent and
    two displacement-dependent cases."""
    pairs = {f"compare {k}": comparison_catalog(k).null_pair for k in ("inertia", "quadratic", "tied")}
    cases = {
        "constant tied": classify_constant(0, 2, 1),
        "constant quadratic": classify_constant(1, 0, 0),
        "timedep 2/t": build_timedep(parse("2/t"), parse("0"), domain=Domain(t=(1.0, 3.0))),
        "timedep t": build_timedep(parse("t")),
        "displacement 1/x": build_displacement(parse("1/x"), 2, ctilde=0),
        "displacement a0": build_displacement(parse("a0"), ZERO, ctilde=parse("ct3")),
    }
    pairs.update((name, case.null_pair) for name, case in cases.items())
    return pairs


def numerically_null_pair() -> NullPair:
    """B_t = x*sin(2t) = d(xC)/dx holds, but only numerically: sin(2t) is
    not canonically 2*sin(t)*cos(t)."""
    return NullPair.certified(parse("x*sin(t)^2"), parse("1/2*x*sin(2*t)"))


def gauge_examples() -> dict[str, GaugeFunction]:
    log_domain = DEFAULT_DOMAIN.with_guards(Guard(parse("a2*x + a4"), positive=True))
    return {
        "quadratic_in_x": GaugeFunction(parse("f1(t)*x^2 + f2(t)")),
        "log": GaugeFunction(parse("(a1/a2)*ln(a2*x + a4)"), log_domain),
        "constant": GaugeFunction(parse("c1")),
        "poly_mixed": GaugeFunction(parse("x^2*t + 3*x")),
        "trig": GaugeFunction(parse("f1(t)*sin(x)")),
    }
