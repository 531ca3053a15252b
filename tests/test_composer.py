"""Composed Lagrangians and equation-of-motion derivations."""

import dataclasses

import pytest
from hypothesis import assume, given, strategies as st

from nullag import (
    AntiderivativeUnsupported,
    Composer,
    DomainExit,
    Guard,
    Lagrangian,
    LeadingCoefficientVanishes,
    NullCertificationFailed,
    NullPair,
    NullVerdict,
    ParseError,
    RangeGuardViolated,
    Verdict,
    ZERO,
    add,
    comparison_catalog,
    compose,
    composed_eom,
    conservation_eom,
    eom_from_lagrangian,
    equivalent,
    euler_lagrange_residual,
    integrate,
    momentum,
    mul,
    parse,
    permissibility_check,
    pow_,
    proven_zero,
    solve_leading,
    sub,
    to_string,
    total_dt,
)
import nullag.domain
from nullag.composer import CATALOG
from nullag.construct import FractionSpec, build_nonstandard_null, build_null, harmonic
from nullag.expr import XDDOT, clear_denominators, const_names, diff
from corpus import catalog_pairs, constant_family, exp_family, numerically_null_pair, tied_family
from oracles import reference_conservation_residual, reference_xddot_coefficient
from test_verdict_path import generating_functions


def test_compose_identity_is_noop():
    L = Lagrangian(parse("1/2*x'^2"))
    assert compose(Composer.identity(), L).body == L.body


def test_compose_exponential_of_velocity_term():
    L = Lagrangian(parse("c1*x'"))
    assert compose(Composer.exp(), L).body == parse("exp(c1*x')")


def test_compose_reciprocal_builds_quadratic_damping_nonstandard_form():
    L = Lagrangian(parse("x'*exp(a0*x) + 1"))
    composed = compose(Composer.reciprocal(), L)
    assert composed.body == parse("(x'*exp(a0*x) + 1)^(-1)")
    assert len(composed.domain.guards) == 1


def test_compose_infeasible_range_guard_raises_with_witness():
    # exp(x) + 3 is bounded below by 3 on the box; ln of -(that) infeasible
    L = Lagrangian(parse("-exp(x) - 3"))
    with pytest.raises(RangeGuardViolated) as err:
        compose(Composer.ln(), L)
    assert "witness" in str(err.value)


def test_identity_composition_reduces_to_euler_lagrange(corpus_pairs):
    bodies = [
        parse("1/2*x'^2"),
        parse("1/2*x'^2*exp(2*a0*x)"),
        corpus_pairs["linear"].assembled().body,
    ]
    for body in bodies:
        L = Lagrangian(body)
        assert proven_zero(
            sub(
                composed_eom(Composer.identity(), L).residual,
                euler_lagrange_residual(L),
            )
        )


def test_exp_composition_residual_structure():
    L = Lagrangian(parse("1/2*x'^2"))
    res = composed_eom(Composer.exp(), L).residual
    p = momentum(L)
    expected = mul(
        parse("exp(1/2*x'^2)"),
        add(mul(p, total_dt(L.body)), sub(total_dt(p), ZERO)),
    )
    assert proven_zero(sub(res, expected))


def test_null_input_collapses_to_total_derivative_factor(corpus_pairs):
    for name in ("constant", "exp", "tied", "linear"):
        pair = corpus_pairs[name]
        body = pair.assembled().body
        for F in (Composer.exp(), Composer.ln(), Composer.reciprocal(), Composer.power(3)):
            res = composed_eom(F, pair.assembled()).residual
            factored = mul(momentum(body), F.deriv2(body), total_dt(body))
            assert proven_zero(sub(res, factored)), (name, F.name)


def test_form_independence_of_null_dynamics():
    pair = tied_family()
    body = pair.assembled().body
    reference = conservation_eom(pair).residual
    constants = {"B0": 1.0, "b0": 2.0}
    for F in (Composer.exp(), Composer.ln(), Composer.reciprocal(), Composer.power(3)):
        composed = compose(F, pair.assembled())
        res = composed_eom(F, pair.assembled()).residual
        factor = mul(momentum(body), F.deriv2(body))
        collapsed = mul(res, pow_(factor, -1))
        rep = equivalent(collapsed, reference, composed.domain, constants=constants, seed=3)
        assert rep.verdict is not Verdict.DISTINCT, F.name


def test_conservation_eom_inertia_pair():
    eom = conservation_eom(constant_family())
    assert eom.residual == parse("c1*x''")
    assert eom.leading == parse("c1")
    assert solve_leading(eom) == ZERO


def test_conservation_eom_quadratic_damping_pair():
    eom = conservation_eom(exp_family())
    assert proven_zero(sub(eom.residual, parse("B0*exp(a0*x)*(x'' + a0*x'^2)")))
    assert solve_leading(eom) == parse("-a0*x'^2")


def test_conservation_eom_tied_oscillator_pair():
    eom = conservation_eom(tied_family())
    assert proven_zero(
        sub(eom.residual, parse("B0*exp(b0*t/2)*(x'' + b0*x' + 1/4*b0^2*x)"))
    )
    assert solve_leading(eom) == parse("-b0*x' - 1/4*b0^2*x")


def test_conservation_eom_requires_certificate():
    raw = NullPair(parse("c1"), ZERO, ZERO)
    raw_harmonic = dataclasses.replace(harmonic(constant_family(), 1), certificate=None)
    for uncertified in (raw, raw_harmonic):
        with pytest.raises(NullCertificationFailed):
            conservation_eom(uncertified)


def test_conservation_matches_total_derivative(corpus_pairs):
    for name, pair in corpus_pairs.items():
        eom = conservation_eom(pair)
        assert proven_zero(sub(total_dt(pair.assembled().body), eom.residual)), name


def test_gauge_level_shift_leaves_eom_unchanged():
    pair = build_null(parse("f1(t)*x + f2(t)*t + f3(t)"), parse("f4(t)"))
    shifted = build_null(parse("f1(t)*x + f2(t)*t + f3(t)"), parse("f4(t) + 5"))
    assert conservation_eom(pair).residual == conservation_eom(shifted).residual


def test_conservation_eom_of_a_harmonic_matches_direct_derivative():
    pair = build_null(parse("f1(t)*x"), ZERO)
    for n in (0, 1, 2):
        h = harmonic(pair, n)
        eom = conservation_eom(h)
        assert proven_zero(sub(eom.residual, total_dt(h.body))), n


def test_conservation_eom_of_a_harmonic_of_constant_b_stays_inertia():
    pair = constant_family()
    h = harmonic(pair, 1)
    assert conservation_eom(h).residual == parse("c1*x''")


def test_conservation_residual_is_the_expanded_rule(corpus_pairs):
    pairs = {**corpus_pairs, **catalog_pairs()}
    pairs["numerically null"] = numerically_null_pair()
    assert pairs["numerically null"].certificate.verdict is NullVerdict.NUMERICALLY_NULL
    for name, pair in pairs.items():
        expected = reference_conservation_residual(pair.B, pair.C, pair.f)
        assert conservation_eom(pair).residual == expected, name


@given(generating_functions, st.sampled_from(("0", "f4(t)", "t^2")))
def test_conservation_residual_is_the_expanded_rule_on_generated_pairs(text, f):
    try:
        pair = build_null(parse(text), parse(f))
    except AntiderivativeUnsupported:
        assume(False)
    expected = reference_conservation_residual(pair.B, pair.C, pair.f)
    assert conservation_eom(pair).residual == expected


def test_conservation_residual_of_harmonics_is_the_total_derivative(corpus_pairs):
    for name, pair in corpus_pairs.items():
        for n in range(4):
            h = harmonic(pair, n)
            assert proven_zero(sub(conservation_eom(h).residual, total_dt(h.body))), (name, n)


def test_leading_coefficient_is_the_term_walkers(corpus_pairs):
    """diff(residual, x'') is the x'' coefficient read off term by term, tree
    for tree, on the corpus, harmonic, composed and catalog residuals, both
    as derived and with their denominators cleared."""
    residuals = [eom.residual for name in ("inertia", "quadratic", "tied")
                 for eom in comparison_catalog(name).routes().values()]
    for pair in corpus_pairs.values():
        residuals += [conservation_eom(harmonic(pair, n)).residual for n in range(3)]
        residuals += [composed_eom(make(), pair.assembled()).residual for make in CATALOG.values()]
    for residual in residuals:
        for e in (residual, clear_denominators(residual)):
            assert diff(e, XDDOT) == reference_xddot_coefficient(e), to_string(e)


def test_solve_leading_requires_linear_acceleration():
    eom = eom_from_lagrangian(Lagrangian(parse("x'*x")))
    with pytest.raises(LeadingCoefficientVanishes):
        solve_leading(eom)


def test_permissibility_verdicts():
    pair = exp_family()
    assert permissibility_check(Composer.ln(), pair) == "ok"
    # identity has vanishing second derivative everywhere
    assert permissibility_check(Composer.identity(), pair) == "conditional"


def test_permissibility_instantiates_opaque_functions():
    pair = build_null(parse("f1(t)*x"))
    assert permissibility_check(Composer.reciprocal(), pair) == "ok"


def test_user_composer_from_expression():
    F = Composer.from_expr(parse("L^2 + L"))
    L = Lagrangian(parse("c1*x'"))
    assert compose(F, L).body == parse("c1^2*x'^2 + c1*x'")
    assert F.deriv1(parse("c1*x'")) == parse("2*c1*x' + 1")
    assert F.deriv2(parse("c1*x'")) == parse("2")


def _guards(L):
    return [(to_string(g.expr), g.positive) for g in L.domain.guards]


def test_range_guards_carry_the_whole_guarded_expression():
    L = compose(Composer.from_expr(parse("ln(L + 3)")), Lagrangian(parse("-x'^2")))
    assert _guards(L) == [("3 - x'^2", True)]
    L = compose(Composer.from_expr(parse("1/(L - 5)")), Lagrangian(parse("x'")))
    assert _guards(L) == [("-5 + x'", False)]


def test_catalog_range_guards():
    pair = build_nonstandard_null(FractionSpec(parse("a1"), parse("a2"), ZERO, parse("a4")))
    box = ("a4 + x*a2", True)
    L = "x'*a1/(a4 + x*a2)"
    expected = {
        "identity": [box],
        "exp": [box],
        "ln": [box, (L, True)],
        "reciprocal": [box, (L, False)],
        "power(2)": [box],
        "power(-2)": [box, (L, False)],
    }
    composers = [CATALOG[name]() for name in ("identity", "exp", "ln", "reciprocal")]
    for F in composers + [Composer.power(2), Composer.power(-2)]:
        assert _guards(compose(F, pair.assembled())) == expected[F.name], F.name


def test_composed_eom_keeps_the_range_guards():
    F, L = CATALOG["ln"](), Lagrangian(parse("x'*exp(a0*x)"))
    eom = composed_eom(F, L)
    assert ("x'*exp(x*a0)", True) in [(to_string(g.expr), g.positive) for g in eom.guards()]
    assert eom.domain == compose(F, L).domain


def test_compose_instantiates_opaque_functions():
    composed = compose(Composer.ln(), Lagrangian(parse("f1(t)*x' + 5")))
    assert composed.body == parse("ln(f1(t)*x' + 5)")


def test_compose_feasibility_compiles_nothing(monkeypatch):
    """The range-guard check needs only the sampled rows, so the sampled
    body is never compiled."""
    calls = []
    compile_expr = nullag.domain.compile_expr
    monkeypatch.setattr(nullag.domain, "compile_expr", lambda *a, **k: calls.append(a) or compile_expr(*a, **k))
    composed = compose(Composer.ln(), Lagrangian(parse("f1(t)*x' + 5")))
    assert composed.domain.guards and calls == []


@pytest.mark.parametrize(
    "make_eom",
    [
        lambda: eom_from_lagrangian(Lagrangian(parse("1/(x'*exp(a0*x) + 1)"))),
        lambda: eom_from_lagrangian(Lagrangian(parse("x'^2/x"))),
        lambda: composed_eom(Composer.reciprocal(), build_null(parse("x*t + x^2")).assembled()),
        lambda: composed_eom(Composer.ln(), build_null(parse("x/t")).assembled()),
        lambda: composed_eom(Composer.reciprocal(), build_null(parse("1/(x + t)")).assembled()),
        lambda: conservation_eom(tied_family()),
    ],
)
def test_cleared_explicit_form_equals_the_uncleared_quotient(make_eom):
    eom = make_eom()
    rest = sub(eom.residual, mul(eom.leading, parse("x''")))
    quotient = mul(-1, rest, pow_(eom.leading, -1))
    domain = dataclasses.replace(eom.domain, guards=eom.guards())
    rep = equivalent(eom.explicit(), quotient, domain, constants={"a0": 1.0, "B0": 1.0, "b0": 2.0})
    assert rep.verdict is not Verdict.DISTINCT, rep.witness


def test_fractional_power_base_stays_positive_under_the_cleared_form():
    # x^(-1/2) is cleared by x^(1/2): the explicit form is defined for x < 0,
    # the residual is not, so guards() keeps x positive
    eom = eom_from_lagrangian(Lagrangian(parse("x'^2*x^(1/2)")))
    assert eom.explicit() == parse("-1/4*x'^2/x")
    assert Guard(parse("x"), positive=True) in eom.guards()
    with pytest.raises(DomainExit) as err:
        integrate(eom.ivp(0.0, -1.0, 1.0, 1.0, 0.1))
    assert err.value.t == 0.0


# user composers: a body over L and named constants


def _holds_L(body):
    """Whether the parsed body holds L: (L)*((L)^(-1)) is 1, and
    (ln((L)*((L)^(-1))))^(-1) divides by zero."""
    try:
        return "L" in const_names(parse(body))
    except ParseError:
        return False


_USER_BODIES = st.recursive(
    st.sampled_from(["L", "L", "a0", "b0", "2"]),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda ab: f"({ab[0]} + {ab[1]})"),
        st.tuples(inner, inner).map(lambda ab: f"({ab[0]})*({ab[1]})"),
        st.tuples(inner, st.sampled_from(["2", "3", "(-1)", "(1/2)"])).map(lambda bq: f"({bq[0]})^{bq[1]}"),
        st.tuples(st.sampled_from(["exp", "ln"]), inner).map(lambda fa: f"{fa[0]}({fa[1]})"),
    ),
    max_leaves=4,
).filter(_holds_L)
# positive on the default box, so every range guard of a composer body over
# positive constants is satisfiable
_POSITIVE_LAGRANGIANS = st.sampled_from(["x'^2/2 + x", "x*x'^2 + t", "exp(t)*x'^2/2 + x^2", "x'^2 + 1/x"])


@pytest.mark.parametrize("body", ["(L)*((L)^(-1))", "(exp(L))*((exp((-1)*L)))", "ln(exp(L)) + (-1)*L"])
def test_a_body_that_cancels_L_is_rejected(body):
    assert "L" not in const_names(parse(body))
    with pytest.raises(ValueError, match="does not contain L"):
        Composer.from_expr(parse(body))


@given(body=_USER_BODIES, lagrangian=_POSITIVE_LAGRANGIANS)
def test_user_composer_equation_of_motion_is_euler_lagrange_of_the_composition(body, lagrangian):
    F = Composer.from_expr(parse(body))
    L = Lagrangian(parse(lagrangian))
    try:
        composed = compose(F, L)
    except RangeGuardViolated:
        return
    rep = equivalent(composed_eom(F, L).residual, euler_lagrange_residual(composed), composed.domain, seed=1)
    assert rep.verdict is not Verdict.DISTINCT, (body, lagrangian, rep.witness)
