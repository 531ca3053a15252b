"""System catalog: classification, tie constraints, and comparison triples."""

import random

import pytest

from nullag import (
    Classification,
    ConstraintViolated,
    DEFAULT_COMPARISON_CONSTANTS,
    Domain,
    Guard,
    IntegralUnsupported,
    NullVerdict,
    Verdict,
    ZERO,
    bind_constants,
    build_displacement,
    build_timedep,
    classify_constant,
    comparison_catalog,
    compile_expr,
    diff,
    equivalent,
    gamma_from_beta,
    is_null,
    mul,
    parse,
    pow_,
    proven_zero,
    solve_gamma_displacement,
    sub,
    to_string,
)
from nullag.expr import Apply, Power, Product, Sum, X


# ---------------------------------------------------------------------------
# constant coefficients


def test_classify_tied_oscillator():
    case = classify_constant(0, 2, 1)
    assert case.classification is Classification.DAMPED_OSCILLATOR_TIED
    assert case.B == parse("B0*exp(t)")
    assert case.C == parse("B0*exp(t)")
    assert case.eom.explicit() == parse("-2*x' - x")


def test_classify_quadratic_damping():
    case = classify_constant(1, 0, 0)
    assert case.classification is Classification.QUADRATIC_DAMPING
    assert case.null_pair.assembled().body == parse("B0*x'*exp(x)")
    assert case.eom.explicit() == parse("-x'^2")


def test_classify_inertia():
    case = classify_constant(0, 0, 0)
    assert case.classification is Classification.INERTIA
    assert case.eom.explicit() == ZERO


def test_classify_harmonic_oscillator_has_no_null_lagrangian():
    case = classify_constant(0, 0, 1)
    assert case.classification is Classification.NO_NULL_LAGRANGIAN
    assert case.null_pair is None
    assert case.absent_witness is not None
    assert case.absent_witness["abs_diff"] > 0


def test_classify_linear_damping_without_spring_is_inadmissible():
    case = classify_constant(0, 2, 0)
    assert case.classification is Classification.NO_NULL_LAGRANGIAN


def test_float_coefficients_tie_only_when_their_binary_values_do():
    # 0.3^2/4 == 0.0225 in float arithmetic, but not for the binary values
    case = classify_constant(0, 0.3, 0.0225)
    assert case.classification is Classification.NO_NULL_LAGRANGIAN
    assert case.absent_witness is not None
    case = classify_constant(0, 0.5, 0.0625)
    assert case.classification is Classification.DAMPED_OSCILLATOR_TIED


def test_classify_symbolic_tied_case():
    case = classify_constant(0, parse("b0"), parse("b0^2/4"))
    assert case.classification is Classification.DAMPED_OSCILLATOR_TIED
    assert case.B == parse("B0*exp(b0*t/2)")
    assert case.C == parse("1/2*B0*b0*exp(b0*t/2)")


def test_catalog_soundness_constant_cases():
    for args in ((0, 2, 1), (1, 0, 0), (0, 0, 0)):
        case = classify_constant(*args)
        assert is_null(case.null_pair.assembled()).verdict is NullVerdict.PROVEN_NULL
        quotient = mul(case.eom.residual, pow_(case.B, -1))
        rep = equivalent(quotient, case.target_residual, seed=1)
        assert rep.verdict is not Verdict.DISTINCT, args


# ---------------------------------------------------------------------------
# time-dependent coefficients


def test_gamma_from_beta_constant_recovers_tied_value():
    assert gamma_from_beta(parse("b0")) == parse("b0^2/4")


def test_gamma_from_beta_reciprocal_time():
    assert gamma_from_beta(parse("2/t")) == ZERO


def test_gamma_from_beta_linear_time():
    assert gamma_from_beta(parse("t")) == parse("1/2 + t^2/4")


def test_gamma_from_beta_rejects_jets():
    with pytest.raises(ValueError):
        gamma_from_beta(parse("x"))


def test_timedep_constant_beta_reproduces_constant_classification():
    tied = classify_constant(0, parse("b0"), parse("b0^2/4"))
    timedep = build_timedep(parse("b0"))
    assert timedep.B == tied.B
    assert timedep.C == tied.C
    assert timedep.null_pair.assembled().body == tied.null_pair.assembled().body
    assert timedep.eom.residual == tied.eom.residual
    assert str(timedep.B) == str(tied.B)


def test_timedep_reciprocal_beta():
    case = build_timedep(parse("2/t"), parse("0"), domain=Domain(t=(1.0, 3.0)))
    assert case.B == parse("B0*t")
    assert case.C == parse("B0")
    assert proven_zero(sub(case.eom.explicit(), parse("-2*x'/t")))


def test_timedep_linear_beta():
    case = build_timedep(parse("t"))
    assert case.B == parse("B0*exp(t^2/4)")
    assert is_null(case.null_pair.assembled()).verdict is NullVerdict.PROVEN_NULL
    quotient = mul(case.eom.residual, pow_(case.B, -1))
    assert proven_zero(sub(quotient, parse("x'' + t*x' + (1/2 + t^2/4)*x")))


def test_timedep_rejects_untied_gamma():
    with pytest.raises(ConstraintViolated):
        build_timedep(parse("t"), parse("t^2"))


def test_timedep_nonzero_alpha_requires_constant_quadratic_damping():
    case = build_timedep(ZERO, None, parse("a0"))
    assert case.classification is Classification.QUADRATIC_DAMPING
    with pytest.raises(ConstraintViolated):
        build_timedep(ZERO, None, parse("t"))
    with pytest.raises(ConstraintViolated):
        build_timedep(parse("t"), None, parse("a0"))


def test_timedep_unsupported_integral():
    with pytest.raises(IntegralUnsupported):
        build_timedep(parse("f1(t)"))


def test_timedep_tie_constraint_round_trip():
    """The integral form of the tie constraint holds up to a constant: the
    quantity (beta/2)e^I - integral of gamma*e^I must not vary with t."""
    cases = [parse("2"), parse("2/t"), parse("t")]
    for beta in cases:
        gamma = gamma_from_beta(beta)
        case = build_timedep(beta, gamma, domain=Domain(t=(1.0, 3.0)))
        I_fn = compile_expr(
            mul(case.B, pow_(parse("B0"), -1)), ("t",), constants={"B0": 1.0}
        )  # e^{I_beta}
        beta_fn = compile_expr(beta, ("t",))
        gamma_fn = compile_expr(gamma, ("t",))
        lhs = lambda t: 0.5 * beta_fn(t) * I_fn(t)

        def cumulative(t, a=1.0, panels=2000):
            h = (t - a) / panels
            acc = gamma_fn(a) * I_fn(a) + gamma_fn(t) * I_fn(t)
            for i in range(1, panels):
                ti = a + i * h
                acc += gamma_fn(ti) * I_fn(ti) * (4.0 if i % 2 else 2.0)
            return acc * h / 3.0

        level = lhs(1.0)
        for t in (1.5, 2.0, 2.5, 3.0):
            drift = abs((lhs(t) - cumulative(t)) - level)
            assert drift <= 1e-7, (str(beta), t, drift)


# ---------------------------------------------------------------------------
# displacement-dependent coefficients


def test_solve_gamma_reciprocal_alpha_matches_closed_form():
    gamma = solve_gamma_displacement(parse("a0/x"), parse("b0"), parse("ct1"))
    reference = parse("1/4*b0^2/(1 + a0) + ct1*exp(-(1 + a0)*ln(x))")
    assert proven_zero(sub(gamma, reference))


def test_solve_gamma_zero_alpha_matches_closed_form():
    gamma = solve_gamma_displacement(ZERO, parse("b0"), parse("ct2"))
    assert proven_zero(sub(gamma, parse("ct2/x + 1/4*b0^2")))


def test_solve_gamma_zero_beta_has_negative_exponent():
    gamma = solve_gamma_displacement(parse("a0"), ZERO, parse("ct3"))
    assert proven_zero(sub(gamma, parse("(ct3/x)*exp(-a0*x)")))


def test_solve_gamma_constraint_round_trip():
    for alpha, beta, c in (
        (parse("a0/x"), parse("b0"), parse("ct1")),
        (ZERO, parse("b0"), parse("ct2")),
        (parse("a0"), ZERO, parse("ct3")),
        (parse("a0"), parse("b0"), parse("ct1")),
    ):
        gamma = solve_gamma_displacement(alpha, beta, c)
        residual = sub(
            mul(X, diff(gamma, X)) + mul(gamma, parse("1") + mul(alpha, X)),
            mul(parse("1/4"), pow_(beta, 2)),
        )
        assert proven_zero(residual), (str(alpha), str(beta))


def test_build_displacement_reduces_to_tied_case():
    tied = classify_constant(0, parse("b0"), parse("b0^2/4"))
    disp = build_displacement(ZERO, parse("b0"), parse("b0^2/4"))
    assert disp.B == tied.B
    assert disp.C == tied.C


def test_build_displacement_reciprocal_alpha_example():
    case = build_displacement(parse("1/x"), 2, ctilde=0)
    assert case.gamma == parse("1/2")
    assert proven_zero(
        sub(
            mul(case.eom.residual, pow_(case.B, -1)),
            parse("x'' + x'^2/x + 2*x' + 1/2*x"),
        )
    )


def test_build_displacement_zero_beta_certifies():
    case = build_displacement(parse("a0"), ZERO, ctilde=parse("ct3"))
    assert is_null(case.null_pair.assembled()).verdict is NullVerdict.PROVEN_NULL
    quotient = mul(case.eom.residual, pow_(case.B, -1))
    assert proven_zero(sub(quotient, case.target_residual))


def test_build_displacement_rejects_unrelated_gamma():
    with pytest.raises(ConstraintViolated):
        build_displacement(ZERO, parse("b0"), parse("x"))


# ---------------------------------------------------------------------------
# comparison triples


def _explicit_fns(triple, constants):
    out = {}
    for route, eom in triple.routes().items():
        out[route] = compile_expr(bind_constants(eom.explicit(), constants))
    return out


@pytest.mark.parametrize("name", ["inertia", "quadratic", "tied"])
def test_comparison_routes_agree_pointwise(name):
    triple = comparison_catalog(name)
    fns = _explicit_fns(triple, DEFAULT_COMPARISON_CONSTANTS)
    rng = random.Random(9)
    for _ in range(40):
        x, v, t = rng.uniform(0.6, 1.6), rng.uniform(0.2, 1.4), rng.uniform(0.0, 2.0)
        values = [fn(x, v, t) for fn in fns.values()]
        assert max(values) - min(values) <= 1e-10 * (1.0 + abs(values[0]))


def test_comparison_null_routes_match_targets():
    for name in ("inertia", "quadratic", "tied"):
        triple = comparison_catalog(name)
        quotient = mul(
            triple.routes()["null"].residual, pow_(triple.null_pair.B, -1)
        )
        assert proven_zero(sub(quotient, triple.target_residual)), name


def test_tied_nonstandard_is_inverse_of_null_at_unit_scale():
    triple = comparison_catalog("tied")
    inverse = pow_(triple.null_pair.assembled().body, -1)
    rep = equivalent(
        triple.nonstandard.body, inverse, triple.nonstandard.domain, constants={"c3": 1.0}
    )
    assert rep.verdict is Verdict.PROVEN_EQUAL


def test_unknown_comparison_system():
    with pytest.raises(ValueError):
        comparison_catalog("pendulum")


# x'' = explicit() of every route: the residual with its denominators cleared,
# solved for x''; constants stay symbolic
GOLDEN_EXPLICIT = {
    ("inertia", "standard"): "0",
    ("inertia", "nonstandard"): "0",
    ("inertia", "null"): "0",
    ("quadratic", "standard"): "-a0*x'^2",
    ("quadratic", "nonstandard"): "-a0*x'^2",
    ("quadratic", "null"): "-a0*x'^2",
    ("tied", "standard"): "-x'*b0 - 1/4*x*b0^2",
    ("tied", "nonstandard"): "-x'*b0 - 1/4*x*b0^2",
    ("tied", "null"): "-x'*b0 - 1/4*x*b0^2",
}
RHS_NODE_BUDGET = 10


def _node_count(e) -> int:
    if isinstance(e, Sum):
        children = e.terms
    elif isinstance(e, Product):
        children = e.factors
    elif isinstance(e, Power):
        children = (e.base,)
    elif isinstance(e, Apply):
        children = (e.arg,)
    else:
        children = ()
    return 1 + sum(map(_node_count, children))


@pytest.mark.parametrize("name", ["inertia", "quadratic", "tied"])
def test_comparison_explicit_forms_are_cleared(name):
    for route, eom in comparison_catalog(name).routes().items():
        assert to_string(eom.explicit()) == GOLDEN_EXPLICIT[(name, route)], route


@pytest.mark.parametrize("name", ["inertia", "quadratic", "tied"])
def test_comparison_right_sides_stay_within_node_budget(name):
    for route, eom in comparison_catalog(name).routes().items():
        bound = bind_constants(eom.explicit(), DEFAULT_COMPARISON_CONSTANTS)
        assert _node_count(bound) <= RHS_NODE_BUDGET, (route, to_string(bound))


def test_guards_keep_the_cleared_bases_nonzero():
    inertia = comparison_catalog("inertia").routes()
    quadratic = comparison_catalog("quadratic").routes()
    inertia_guards = inertia["nonstandard"].guards()
    # read off the factored divisor: C1, a0*t + v0 and the linear factor,
    # whose product has the zero set of the divisor C1*(a0*t + v0)^2*(...)
    assert Guard(parse("a0*t + v0")) in inertia_guards
    assert len(inertia_guards) == 3 and not any(g.positive for g in inertia_guards)
    product = parse("C1*(a0*t + v0)^2*((a0*t + v0)*x' - a0*x + C2)")
    squared = mul(parse("a0*t + v0"), *(g.expr for g in inertia_guards))
    assert proven_zero(sub(squared, product))
    assert quadratic["nonstandard"].guards() == (Guard(parse("x'*exp(a0*x) + 1")),)
    for routes in (inertia, quadratic):
        assert routes["standard"].guards() == routes["null"].guards() == ()
