"""Euler-Lagrange operator, nullity verdicts, gauge lift, action functional,
and path independence."""

import random

import pytest

from nullag import (
    Domain,
    DomainExit,
    EvaluationError,
    GaugeFunction,
    Guard,
    Lagrangian,
    NullCertificationFailed,
    NullPair,
    NullVerdict,
    Path,
    ZERO,
    action,
    add,
    euler_lagrange_residual,
    from_gauge,
    is_null,
    line_path,
    momentum,
    mul,
    null_condition_residual,
    parse,
    path_independence_check,
    proven_zero,
    sub,
    with_bump,
)
from oracles import bound


def test_free_particle_residual_is_acceleration():
    assert euler_lagrange_residual(Lagrangian(parse("1/2*x'^2"))) == parse("x''")


def test_gauge_total_derivative_has_zero_residual():
    L = parse("2*f1(t)*x*x' + f1(t)'*x^2 + f2(t)'")
    assert euler_lagrange_residual(Lagrangian(L)) == ZERO


def test_quadratic_damping_standard_lagrangian_residual():
    res = euler_lagrange_residual(Lagrangian(parse("1/2*x'^2*exp(2*a0*x)")))
    assert res == parse("exp(2*a0*x)*(x'' + a0*x'^2)")


def test_lagrangian_rejects_higher_jets():
    with pytest.raises(ValueError):
        Lagrangian(parse("x''*x"))
    with pytest.raises(ValueError):
        GaugeFunction(parse("x'*t"))


def test_is_null_fraction_form_proven():
    dom = Domain(guards=(Guard(parse("a2*x + a4"), positive=True),))
    rep = is_null(Lagrangian(parse("a1*x'/(a2*x + a4)"), dom))
    assert rep.verdict is NullVerdict.PROVEN_NULL


def test_is_null_rejects_kinetic_energy_with_witness():
    rep = is_null(Lagrangian(parse("1/2*x'^2")))
    assert rep.verdict is NullVerdict.NOT_NULL
    assert rep.witness is not None
    assert rep.witness["point"]["xddot"] != 0


def test_is_null_first_harmonic_of_linear_family():
    from corpus import linear_family
    from nullag.construct import harmonic

    h = harmonic(linear_family(), 1)
    assert is_null(h.assembled()).verdict is NullVerdict.PROVEN_NULL


def test_from_gauge_quadratic():
    L = from_gauge(GaugeFunction(parse("f1(t)*x^2 + f2(t)")))
    assert L.body == parse("2*f1(t)*x*x' + f1(t)'*x^2 + f2(t)'")


def test_from_gauge_log():
    dom = Domain(guards=(Guard(parse("a2*x + a4"), positive=True),))
    L = from_gauge(GaugeFunction(parse("(a1/a2)*ln(a2*x + a4)"), dom))
    assert L.body == parse("a1*x'/(a2*x + a4)")


def test_from_gauge_constant_gives_zero():
    assert from_gauge(GaugeFunction(parse("c1"))).body == ZERO


def test_gauge_soundness_over_corpus(gauge_corpus):
    for name, phi in gauge_corpus.items():
        rep = is_null(from_gauge(phi))
        assert rep.verdict in (NullVerdict.PROVEN_NULL, NullVerdict.NUMERICALLY_NULL), name


def test_null_condition_residual_linear_family():
    B = parse("f1(t)*x + f2(t)*t + f3(t)")
    C = parse("1/2*f1(t)'*x + f2(t)'*t + f2(t) + f3(t)'")
    assert null_condition_residual(B, C) == ZERO


def test_null_condition_residual_constant_pair():
    assert null_condition_residual(parse("c1"), ZERO) == ZERO


def test_null_condition_residual_constant_coefficient_family():
    B = parse("B0*exp(a0*x + b0*t/2)")
    C = parse("2*B0*(g0/b0)*exp(a0*x + b0*t/2)")
    residual = null_condition_residual(B, C)
    expected = mul(
        parse("2*B0/b0*exp(a0*x + b0*t/2)"),
        parse("b0^2/4 - (1 + a0*x)*g0"),
    )
    assert proven_zero(sub(residual, expected))


def test_momentum_examples():
    assert momentum(Lagrangian(parse("1/2*x'^2"))) == parse("x'")
    B, C, f = parse("f1(t)*x"), parse("f2(t)"), parse("f3(t)")
    L = Lagrangian(add(mul(B, parse("x'")), mul(C, parse("x")), f))
    assert momentum(L) == B
    p = momentum(Lagrangian(parse("1/(a1*x' + a2*t + a3)")))
    assert p == parse("-a1*(a1*x' + a2*t + a3)^(-2)")
    # same value as the expanded-denominator spelling
    assert proven_zero(sub(p, parse("-a1/(a1*x' + a2*t + a3)^2")))


def test_null_pair_certification_rejects_bad_pair():
    with pytest.raises(NullCertificationFailed):
        NullPair.certified(parse("f1(t)*x"), parse("t*x"))


# ---------------------------------------------------------------------------
# action and path independence


def test_action_telescopes_for_constant_velocity_coefficient():
    L = Lagrangian(parse("c1*x'"))
    p = line_path(0.0, 1.0, 0.0, 2.0)
    assert action(bound(L, constants={"c1": 3.0}), p) == pytest.approx(6.0, abs=1e-10)


def test_action_equals_gauge_endpoint_difference():
    # gauge x^2 + t: endpoints (0,0) -> (1,1) give 2 - 0 = 2
    L = Lagrangian(parse("2*f1(t)*x*x' + f1(t)'*x^2 + f2(t)'"))
    p = line_path(0.0, 1.0, 0.0, 1.0)
    value = action(bound(L, funcs={"f1": parse("1"), "f2": parse("t")}), p)
    assert value == pytest.approx(2.0, abs=1e-10)


def test_action_of_kinetic_energy_on_line():
    assert action(Lagrangian(parse("1/2*x'^2")), line_path(0.0, 1.0, 0.0, 1.0)) == pytest.approx(
        0.5, abs=1e-12
    )


def test_action_of_certified_pair_telescopes_to_reconstructed_gauge():
    from corpus import fraction_constant_acceleration
    from nullag import reconstruct_gauge, compile_expr, bind_constants

    pair = fraction_constant_acceleration()
    phi = reconstruct_gauge(pair)
    constants = {"a1": 1.5, "a2": 1.0, "a4": 2.0}
    phi_fn = compile_expr(bind_constants(phi.body, constants), ("x", "t"))
    p = line_path(0.0, 1.0, 0.7, 1.6)
    value = action(bound(pair.assembled(), constants=constants), p)
    endpoint_difference = phi_fn(p.x(1.0), 1.0) - phi_fn(p.x(0.0), 0.0)
    assert value == pytest.approx(endpoint_difference, abs=1e-10)


def test_path_independence_of_linear_family_instance():
    from corpus import linear_family

    pair = linear_family()
    L = pair.assembled()
    funcs = {"f1": parse("1"), "f2": parse("0"), "f3": parse("0"), "f4": parse("0")}
    base = line_path(0.0, 1.0, 0.5, 1.5)
    rep = path_independence_check(
        bound(L, funcs=funcs), base, with_bump(base, 0.1, 2)
    )
    assert rep.passed and rep.difference <= 1e-7


def test_path_dependence_of_kinetic_energy():
    base = line_path(0.0, 1.0, 0.0, 1.0)
    rep = path_independence_check(Lagrangian(parse("1/2*x'^2")), base, with_bump(base, 0.1, 1))
    assert not rep.passed
    assert rep.difference > 1e-3


def test_path_independence_requires_shared_endpoints():
    with pytest.raises(ValueError):
        path_independence_check(
            bound(Lagrangian(parse("c1*x'")), constants={"c1": 1.0}),
            line_path(0.0, 1.0, 0.0, 1.0),
            line_path(0.0, 1.0, 0.0, 2.0),
        )


def test_path_derivative_consistency_enforced():
    with pytest.raises(ValueError):
        Path(0.0, 1.0, lambda t: t * t, lambda t: 1.0)


def test_null_pairs_are_path_independent(corpus_pairs):
    rng = random.Random(11)
    inst = {f"f{i}": parse(text) for i, text in enumerate(("t", "t^2", "sin(t)", "1"), start=1)}
    concrete = {
        "constant": {"constants": {"c1": 1.0, "c3": 0.5}},
        "exp": {"constants": {"B0": 1.0, "a0": 1.0}},
        "tied": {"constants": {"B0": 1.0, "b0": 2.0}},
        "linear": {"funcs": inst},
        "quadratic": {"funcs": inst},
        "trig_exp": {"funcs": inst},
        # f2 must not vanish on the time window (the C-part carries 1/f2^2)
        "fraction": {"funcs": {**inst, "f2": parse("1 + t^2"), "f": parse("0")}},
        "fraction_const": {"constants": {"a1": 1.0, "a2": 1.0, "a4": 2.0}},
    }
    for name, binding in concrete.items():
        L = bound(corpus_pairs[name].assembled(), **binding)
        for _ in range(10):
            x0, x1 = rng.uniform(0.6, 1.0), rng.uniform(1.2, 1.8)
            base = line_path(0.0, 1.0, x0, x1)
            bumped = with_bump(base, rng.uniform(0.02, 0.1), rng.choice((1, 2, 3)))
            rep = path_independence_check(L, base, bumped)
            assert rep.passed, (name, rep.difference)


def test_residual_bilinearity():
    L1, L2 = parse("1/2*x'^2"), parse("f1(t)*x*x'")
    a, b = parse("3/2"), parse("-2")
    combined = euler_lagrange_residual(Lagrangian(add(mul(a, L1), mul(b, L2))))
    separate = add(
        mul(a, euler_lagrange_residual(Lagrangian(L1))),
        mul(b, euler_lagrange_residual(Lagrangian(L2))),
    )
    assert combined == separate


def test_adding_null_lagrangian_preserves_residual(corpus_pairs):
    base = parse("1/2*x'^2 - x^2")
    base_res = euler_lagrange_residual(Lagrangian(base))
    for name, pair in corpus_pairs.items():
        total = euler_lagrange_residual(Lagrangian(add(base, pair.assembled().body)))
        assert proven_zero(sub(total, base_res)), name


def test_null_condition_iff_null_lagrangian(corpus_pairs):
    for name, pair in corpus_pairs.items():
        ncr = null_condition_residual(pair.B, pair.C)
        el = euler_lagrange_residual(pair.assembled())
        assert proven_zero(ncr), name
        assert proven_zero(el), name
    # a violated condition shows up in both residuals
    B, C = parse("f1(t)*x"), parse("t")
    assert not proven_zero(null_condition_residual(B, C))
    body = add(mul(B, parse("x'")), mul(C, parse("x")))
    assert not proven_zero(euler_lagrange_residual(Lagrangian(body)))


def test_action_maps_undefined_integrand_to_domain_exit():
    with pytest.raises(DomainExit) as err:
        action(Lagrangian(parse("1/x")), line_path(0.0, 1.0, -0.5, 0.5), panels=10)
    assert err.value.t == 0.5


def test_action_maps_overflow_to_evaluation_error():
    with pytest.raises(EvaluationError):
        action(Lagrangian(parse("exp(x)")), line_path(0.0, 1.0, 0.0, 1000.0), panels=10)
