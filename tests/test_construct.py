"""Generating-function construction: displacement coefficients, harmonics,
and the non-standard fractional family."""

import random

import pytest

from nullag import (
    AntiderivativeUnsupported,
    FractionSpec,
    FuncSym,
    NullVerdict,
    T,
    X,
    ZERO,
    antiderivative,
    build_nonstandard_null,
    build_null,
    diff,
    harmonic,
    is_null,
    mul,
    null_condition_residual,
    parse,
    pow_,
    proven_zero,
    reconstruct_gauge,
    solve_C,
    sub,
    weighted_B,
)
from nullag.construct import DenominatorVanishes
from corpus import (
    fraction_constant_acceleration,
    fraction_family,
    linear_family,
    trig_exp_family,
)


# ---------------------------------------------------------------------------
# solve_C on the worked families


def test_solve_C_linear_generating_function():
    C = solve_C(parse("f1(t)*x + f2(t)*t + f3(t)"))
    assert C == parse("1/2*f1(t)'*x + f2(t)'*t + f2(t) + f3(t)'")


def test_solve_C_quadratic_generating_function():
    C = solve_C(parse("f1(t)*x^2 + f2(t)*t + f3(t)"))
    assert C == parse("1/3*f1(t)'*x^2 + f2(t)'*t + f2(t) + f3(t)'")


def test_solve_C_constant_generating_function():
    assert solve_C(parse("c1")) == ZERO


def test_solve_C_trig_exp_generating_function():
    C = solve_C(parse("f1(t)*sin(x) + f2(t)*exp(x)*t + f3(t)"))
    xC = mul(X, C)
    assert xC == parse("-f1(t)'*cos(x) + (f2(t)'*t + f2(t))*exp(x) + f3(t)'*x")


def test_solve_C_unsupported_integrand():
    with pytest.raises(AntiderivativeUnsupported):
        solve_C(parse("f1(t)*ln(x)"))
    with pytest.raises(AntiderivativeUnsupported):
        solve_C(parse("f1(t)*exp(x^2)"))


# ---------------------------------------------------------------------------
# build_null


def test_build_null_linear_family_certifies():
    pair = build_null(parse("f1(t)*x + f2(t)*t + f3(t)"), parse("f4(t)"))
    assert pair.is_certified
    assert is_null(pair.assembled()).verdict is NullVerdict.PROVEN_NULL


def test_build_null_constant_b_gives_velocity_lagrangian():
    pair = build_null(parse("c1"), parse("c3"))
    assert pair.assembled().body == parse("c1*x' + c3")


def test_build_null_exponential_b_has_zero_c():
    pair = build_null(parse("B0*exp(a0*x)"))
    assert pair.C == ZERO
    assert pair.assembled().body == parse("B0*x'*exp(a0*x)")


# ---------------------------------------------------------------------------
# harmonics


def test_weighted_B_linear_orders():
    B = parse("f1(t)*x + f2(t)*t + f3(t)")
    assert weighted_B(B, 0) == B
    assert weighted_B(B, 1) == parse("f1(t)*(x + 1) + f2(t)*t + f3(t)")
    assert weighted_B(B, 2) == parse("f1(t)*(x + 2) + f2(t)*t + f3(t)")


def test_weighted_B_rejects_negative_order():
    with pytest.raises(ValueError):
        weighted_B(X, -1)


def test_weighted_B_equals_repeated_shift_operator():
    B = parse("f1(t)*sin(x) + f2(t)*x^3 + f3(t)*exp(2*x)")
    for n in range(5):
        # (1 + d/dx)^n applied step by step
        acc = B
        for _ in range(n):
            acc = acc + diff(acc, X)
        assert weighted_B(B, n) == acc, n


def test_first_harmonic_of_linear_family_matches_worked_form():
    h = harmonic(linear_family(), 1)
    assert h.B_n == parse("f1(t)*(x + 1) + f2(t)*t + f3(t)")
    assert h.xC_n == parse("f1(t)'*(x/2 + 1)*x + (f2(t)'*t + f2(t) + f3(t)')*(x + 1)")


def test_second_harmonic_of_linear_family_matches_worked_form():
    h = harmonic(linear_family(), 2)
    assert h.B_n == parse("f1(t)*(x + 2) + f2(t)*t + f3(t)")
    assert h.xC_n == parse(
        "f1(t)'*(x^2/2 + 2*x + 1) + (f2(t)'*t + f2(t) + f3(t)')*(x + 2)"
    )


def test_first_harmonic_of_trig_exp_family_matches_worked_form():
    h = harmonic(trig_exp_family(), 1)
    assert h.B_n == parse("f1(t)*(sin(x) + cos(x)) + 2*f2(t)*exp(x)*t + f3(t)")
    assert h.xC_n == parse(
        "f1(t)'*(sin(x) - cos(x)) + 2*f2(t)'*exp(x)*t + 2*f2(t)*exp(x) + f3(t)'*(x + 1)"
    )


def test_harmonic_of_constant_b_is_the_base():
    pair = build_null(parse("c1"), parse("c3"))
    for n in (1, 3):
        assert harmonic(pair, n).body == pair.assembled().body


def test_harmonic_recursion_identity():
    from corpus import quadratic_family

    for pair in (linear_family(), quadratic_family(), trig_exp_family()):
        previous = harmonic(pair, 0)
        for n in range(1, 5):
            current = harmonic(pair, n)
            step = sub(
                current.body,
                previous.body
                + diff(weighted_B(pair.B, n - 1), T)
                + mul(parse("x'"), diff(weighted_B(pair.B, n - 1), X)),
            )
            assert proven_zero(step), n
            previous = current


def test_harmonic_order_cap():
    pair = linear_family()
    with pytest.raises(ValueError):
        harmonic(pair, 9)


# ---------------------------------------------------------------------------
# non-standard fractional family


def test_fraction_constant_acceleration_form():
    pair = fraction_constant_acceleration()
    assert pair.C == ZERO
    assert pair.assembled().body == parse("a1*x'/(a2*x + a4)")


def test_fraction_generic_structure_has_log_term():
    pair = fraction_family()
    assert "ln(" in str(pair.C)
    assert is_null(pair.assembled()).verdict is NullVerdict.PROVEN_NULL


def test_fraction_same_function_degenerates():
    pair = build_nonstandard_null(FractionSpec(FuncSym("f1"), FuncSym("f1")))
    assert pair.B == parse("1/x")
    assert pair.C == ZERO
    assert is_null(pair.assembled()).verdict is NullVerdict.PROVEN_NULL


def test_fraction_rejects_zero_denominator():
    with pytest.raises(DenominatorVanishes):
        build_nonstandard_null(FractionSpec(FuncSym("f1"), ZERO, ZERO, ZERO))


def test_fraction_spec_rejects_jet_coefficients():
    with pytest.raises(ValueError):
        FractionSpec(parse("x"), FuncSym("f2"))


def test_nonstandard_harmonic_velocity_coefficient():
    pair = fraction_family()
    h = harmonic(pair, 1)
    D = parse("f2(t)*x + f3(t)*t + f4(t)")
    expected = sub(mul(FuncSym("f1"), pow_(D, -1)), mul(FuncSym("f1"), FuncSym("f2"), pow_(D, -2)))
    assert proven_zero(sub(h.B_n, expected))


def test_nonstandard_harmonic_of_constant_acceleration():
    pair = fraction_constant_acceleration()
    h = harmonic(pair, 1)
    D = parse("a2*x + a4")
    expected = sub(mul(parse("a1"), pow_(D, -1)), mul(parse("a1*a2"), pow_(D, -2)))
    assert proven_zero(sub(h.B_n, expected))
    assert is_null(h.assembled()).verdict is NullVerdict.PROVEN_NULL


def test_nonstandard_harmonic_order_zero_is_base():
    pair = fraction_family()
    assert harmonic(pair, 0).body == pair.assembled().body


def test_nonstandard_harmonics_stay_null_at_higher_orders():
    pair = fraction_family()
    for n in (2, 3):
        h = harmonic(pair, n)
        assert is_null(h.assembled()).verdict is NullVerdict.PROVEN_NULL, n


# ---------------------------------------------------------------------------
# antiderivative engine and gauge reconstruction


def test_antiderivative_self_checks_and_core_patterns():
    cases = [
        ("x^3", "x^4/4"),
        ("1/x", "ln(x)"),
        ("exp(2*x)", "exp(2*x)/2"),
        ("sin(3*x)", "-cos(3*x)/3"),
        ("cos(a0*x)*f1(t)", "f1(t)*sin(a0*x)/a0"),
        ("f1(t)", "f1(t)*x"),
    ]
    for text, expected in cases:
        assert proven_zero(sub(antiderivative(parse(text), X), parse(expected))), text


def test_antiderivative_of_monomial_times_fractional_linear_power():
    """x*(x + a1)^(1/2) integrates to powers (x + a1)^(3/2), (x + a1)^(5/2),
    which the self-check can only prove equal to the integrand once powers
    of a sum above 1 are expanded down to their fractional part."""
    e = parse("x*a1*(x + a1)^(1/2)")
    F = antiderivative(e, X)
    assert proven_zero(sub(diff(F, X), e))
    assert proven_zero(parse("(x + 1)^(3/2) - (x + 1)*(x + 1)^(1/2)"))


def test_antiderivative_over_time_handles_function_orders():
    assert antiderivative(FuncSym("f1", 2), T) == FuncSym("f1", 1)
    assert proven_zero(sub(antiderivative(parse("2/t"), T), parse("2*ln(t)")))
    with pytest.raises(AntiderivativeUnsupported):
        antiderivative(FuncSym("f1", 0), T)
    with pytest.raises(AntiderivativeUnsupported):
        antiderivative(mul(T, FuncSym("f1", 1)), T)


def test_reconstruct_gauge_for_log_family():
    pair = fraction_constant_acceleration()
    phi = reconstruct_gauge(pair)
    assert phi is not None
    assert proven_zero(sub(phi.body, parse("(a1/a2)*ln(a2*x + a4)")))


def test_reconstruct_gauge_reports_unsupported():
    # the additive opaque f4(t) has no antiderivative symbol
    assert reconstruct_gauge(linear_family()) is None


def test_reconstruct_gauge_linear_family_without_time_term():
    pair = build_null(parse("f1(t)*x + f2(t)*t + f3(t)"))
    phi = reconstruct_gauge(pair)
    assert phi is not None
    assert proven_zero(
        sub(phi.body, parse("1/2*f1(t)*x^2 + f2(t)*t*x + f3(t)*x"))
    )


# ---------------------------------------------------------------------------
# randomized construction over the supported class


_TIME_PARTS = ["1", "t", "t^2", "f1(t)", "f2(t)", "exp(t/2)", "sin(t)"]
_SPACE_PARTS = [
    "1", "x", "x^2", "x^3", "x^4",
    "exp(x)", "exp(2*x)", "exp(-x)",
    "sin(x)", "cos(2*x)", "sin(x/2)", "cos(x/3)",
]


def random_generating_function(rng: random.Random):
    from fractions import Fraction

    terms = []
    for _ in range(rng.randint(1, 3)):
        g = parse(rng.choice(_TIME_PARTS))
        u = parse(rng.choice(_SPACE_PARTS))
        coeff = Fraction(rng.choice([n for n in range(-6, 7) if n]), rng.randint(1, 4))
        terms.append(mul(coeff, g, u))
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def test_randomized_solve_C_certifies():
    rng = random.Random(202)
    for _ in range(25):
        B = random_generating_function(rng)
        C = solve_C(B)
        assert null_condition_residual(B, C) == ZERO
        pair = build_null(B)
        assert is_null(pair.assembled()).verdict is NullVerdict.PROVEN_NULL
