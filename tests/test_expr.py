"""Expression kernel: parsing, canonicalization, differentiation,
evaluation, and tri-state equivalence."""

import copy
import math
import pickle
import random
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from nullag import (
    Apply,
    Const,
    ConstSym,
    Domain,
    EvaluationError,
    FractionSpec,
    FuncSym,
    Guard,
    InfeasibleDomainError,
    JetOrderError,
    ParseError,
    Power,
    Product,
    Sum,
    T,
    UnboundSymbolError,
    Verdict,
    X,
    XDDOT,
    XDDDOT,
    XDOT,
    ZERO,
    add,
    apply_fn,
    bind_constants,
    build_nonstandard_null,
    canonicalize,
    comparison_catalog,
    compile_expr,
    conservation_eom,
    diff,
    div,
    equivalent,
    euler_lagrange_residual,
    harmonic,
    mul,
    parse,
    pow_,
    proven_zero,
    sample_points,
    sub,
    to_string,
    total_dt,
)

from nullag import expr as expr_module
from nullag.domain import instantiation_rounds
from nullag.expr import (
    MINUS_ONE,
    ONE,
    _P,
    _point,
    _prolong,
    _pysrc,
    _residue,
    as_coeff_factors,
    clear_denominators,
    const,
    sort_key,
)
from nullag.parser import MAX_NESTING
from oracles import (
    Bindings,
    GuardViolation,
    check_partials_against_fd,
    check_total_dt_against_fd,
    evaluate,
    reference_add,
    reference_clear_denominators,
    reference_derive,
    reference_mul,
    reference_residue,
    sample_bindings,
)


# ---------------------------------------------------------------------------
# parsing


def test_parse_velocity_exponential_product():
    e = parse("x'*exp(a0*x)")
    assert e == mul(XDOT, Apply("exp", mul(ConstSym("a0"), X)))


def test_parse_linear_generating_function():
    e = parse("f1(t)*x + f2(t)*t + f3(t)")
    assert e == add(mul(FuncSym("f1"), X), mul(FuncSym("f2"), T), FuncSym("f3"))


def test_parse_reciprocal_of_velocity_affine_form():
    e = parse("1/(a1*x' + a2*t + a3)")
    den = add(mul(ConstSym("a1"), XDOT), mul(ConstSym("a2"), T), ConstSym("a3"))
    assert e == pow_(den, -1)


def test_parse_jet_markers_and_function_orders():
    assert parse("x''") == XDDOT
    assert parse("x'''") == XDDDOT
    assert parse("f1(t)''") == FuncSym("f1", 2)
    assert parse("2.5") == Const(Fraction(5, 2))


@pytest.mark.parametrize(
    "text",
    ["x +", "foo(x)", "x''''", "(x)'", "sin", "1..2", "f1(t)'''' + ("],
)
def test_parse_errors_carry_position(text):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "position" in str(err.value)


def test_unknown_function_name_rejected():
    with pytest.raises(ParseError, match="unknown function"):
        parse("g(x)")


def test_deep_nesting_is_a_parse_error():
    assert parse("(" * 200 + "x" + ")" * 200) == X
    for depth in (250, 3000):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse("(" * depth + "x" + ")" * depth)


@pytest.mark.parametrize(
    "lead, opening", [("", "("), ("1/", "("), ("", "1/("), ("", "1/(1+"), ("", "exp(")]
)
def test_one_nesting_limit_for_every_shape(lead, opening):
    """A group counts one level however it is read: as a base, as a divisor,
    as a divisor holding a sum, or as a function's argument."""
    at_limit = lead + opening * MAX_NESTING + "x" + ")" * MAX_NESTING
    parse(at_limit)
    above = lead + opening * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1)
    with pytest.raises(ParseError) as err:
        parse(above)
    position = len(lead) + len(opening) * MAX_NESTING + opening.index("(")
    assert str(err.value) == f"expression nested too deeply (at position {position})"


def test_a_divisor_keeps_its_factors():
    a, u, v, w = map(ConstSym, ("a", "u", "v", "w"))
    assert parse("1/(x+t)^2") == parse("(x+t)^(-2)") == Power(add(X, T), -2)
    assert parse("a/(u*(v+w)^2)") == mul(a, pow_(u, -1), Power(add(v, w), -2))
    assert parse("a/(u/v*w^3)^2") == mul(a, pow_(u, -2), pow_(v, 2), pow_(w, -6))
    # a group holding a sum or a leading sign, or under a fractional
    # power, is one base: it is inverted as a whole
    assert parse("1/(x' + 1/2*x)^(1/2)") == Power(add(XDOT, mul(Fraction(1, 2), X)), Fraction(-1, 2))
    assert parse("1/(-x*u)") == pow_(mul(-1, X, u), -1)
    assert parse("1/(2*x)^(1/2)") == pow_(pow_(mul(2, X), Fraction(1, 2)), -1)


@pytest.mark.parametrize(
    "text, message",
    [
        ("1/(", "unexpected end of input (at position 3)"),
        ("1/(x", "unexpected end of input (at position 4)"),
        ("1/(x*)", "unexpected token ')' (at position 5)"),
        ("1/(x*t)'", "derivative marker may only follow x or an opaque function (at position 7)"),
        ("1/(x/0)", "division by zero"),
        ("1/(0*x)^(-1)", "division by zero"),
        ("1/(x - x)^(-1)", "division by zero"),
        ("1/" + "(" * 250 + "x" + ")" * 250, "expression nested too deeply"),
    ],
)
def test_divisor_edge_inputs_keep_their_errors(text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value).startswith(message)


# ---------------------------------------------------------------------------
# canonical form


def test_power_zero_and_empty_product_collapse():
    assert pow_(X, 0) == Const(Fraction(1))
    assert mul() == Const(Fraction(1))
    assert add() == ZERO


def test_zero_coefficients_dropped():
    assert add(X, mul(-1, X)) == ZERO
    assert parse("x*t - t*x") == ZERO


def test_integer_powers_of_sums_expand():
    assert parse("(x+1)^2") == parse("x^2 + 2*x + 1")
    assert parse("(x+1)^3") == parse("x^3 + 3*x^2 + 3*x + 1")


def test_fractional_powers_above_one_split_off_their_fractional_part():
    for text in ("(x + t)^(3/2)", "(x*t)^(3/2)", "(x*t)^(5/2)"):
        e = parse(text)
        assert parse(to_string(e)) == e, text
    assert parse("(x*t)^(3/2)") == parse("x*t*(x*t)^(1/2)")
    assert proven_zero(parse("(x*t)^(3/2) - x*t*(x*t)^(1/2)"))
    assert proven_zero(parse("(x + t)^(3/2) - (x + t)*(x + t)^(1/2)"))


def test_a_product_to_a_large_fractional_power_takes_its_whole_part_at_once(monkeypatch):
    # (x*t)^(100000001/2) is (x*t)^50000000 * (x*t)^(1/2): x^50000000 *
    # t^50000000 by the integer rule, not 50 million multiplications
    real_mul = expr_module.mul
    calls = []

    def counting_mul(*args):
        calls.append(args)
        assert len(calls) <= 100, "pow_ multiplies once per unit of the exponent"
        return real_mul(*args)

    xt = mul(X, T)
    monkeypatch.setattr(expr_module, "mul", counting_mul)
    got = pow_(xt, Fraction(100000001, 2))
    monkeypatch.undo()
    assert got == mul(pow_(xt, 50000000), Power(xt, _HALF))


def test_a_sum_to_a_power_past_the_expansion_cap_is_refused(monkeypatch):
    # (x + t)^n takes 2*C(n + 1, 2) products of terms: 12 for n = 3, 20 for 4
    monkeypatch.setattr(expr_module, "MAX_EXPANSION_PRODUCTS", 12)
    assert pow_(add(X, T), 3) == parse("x^3 + 3*x^2*t + 3*x*t^2 + t^3")
    with pytest.raises(ValueError, match="to the power 4 takes up to 20 products of terms"):
        pow_(add(X, T), 4)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="of 3 terms to the power 100000 takes up to"):
        parse("(x + t + x')^100000")
    # 330 terms, but cheap to expand: a cap on terms would refuse it
    assert len(parse("(x + t + a0 + a1 + a2)^7").terms) == 330


def test_exponentials_merge():
    assert mul(parse("exp(a0*x)"), parse("exp(b0*t)")) == parse("exp(a0*x + b0*t)")
    assert mul(parse("exp(a0*x)"), parse("exp(-a0*x)")) == Const(Fraction(1))
    assert pow_(parse("exp(a0*x)"), 3) == parse("exp(3*a0*x)")


def test_exp_of_rational_log_becomes_power():
    assert parse("exp(-2*ln(x))") == pow_(X, -2)
    assert parse("exp(ln(x))") == X
    # non-rational coefficients stay inside the exponential
    e = parse("exp(a0*ln(x) + ln(x))")
    assert e == mul(X, parse("exp(a0*ln(x))"))


def test_canonicalization_idempotent_on_raw_trees():
    raw = Sum((Product((X, X)), Product((Const(Fraction(2)), X, X)), Const(Fraction(0))))
    once = canonicalize(raw)
    assert once == canonicalize(once)
    assert once == parse("3*x^2")


_atoms = st.sampled_from(
    [X, XDOT, T, FuncSym("f1"), FuncSym("f2", 1), ConstSym("a1"), ConstSym("b0")]
)
_consts = st.fractions(min_value=-4, max_value=4, max_denominator=6).map(Const)
_HALF, _THREE_HALVES = Fraction(1, 2), Fraction(3, 2)
_int_exponents = st.integers(min_value=-2, max_value=3).map(Fraction)


def _trees(depth, consts=_consts, exponents=_int_exponents, funcs=()):
    if depth == 0:
        return st.one_of(_atoms, consts)
    sub_tree = _trees(depth - 1, consts, exponents, funcs)
    branches = [
        _atoms,
        consts,
        st.tuples(sub_tree, sub_tree).map(lambda ab: Sum(ab)),
        st.tuples(sub_tree, sub_tree).map(lambda ab: Product(ab)),
        st.tuples(sub_tree, exponents).map(lambda bq: Power(*bq)),
    ]
    if funcs:
        branches.append(st.tuples(st.sampled_from(funcs), sub_tree).map(lambda fa: Apply(*fa)))
    return st.one_of(*branches)


def _wide_trees(depth):
    """Trees with fractional exponents and elementary functions too: powers of
    powers that land on another base, merged and extracted exponentials."""
    exponents = st.one_of(_int_exponents, st.sampled_from([_HALF, -_HALF, _THREE_HALVES]))
    return _trees(depth, exponents=exponents, funcs=("exp", "ln", "sin", "abs"))


def _canonical_or_skip(raw):
    try:
        return canonicalize(raw)
    except ZeroDivisionError:
        assume(False)


@given(_trees(3))
def test_canonicalize_idempotence_property(raw):
    once = _canonical_or_skip(raw)
    assert canonicalize(once) == once


@given(_trees(3))
def test_print_parse_round_trip(raw):
    e = _canonical_or_skip(raw)
    assert parse(to_string(e)) == e


@given(_trees(2), _trees(2), st.fractions(min_value=-3, max_value=3, max_denominator=4),
       st.fractions(min_value=-3, max_value=3, max_denominator=4),
       st.sampled_from([X, XDOT, T]))
def test_differentiation_linearity(raw1, raw2, a, b, sym):
    e1, e2 = _canonical_or_skip(raw1), _canonical_or_skip(raw2)
    combined = diff(add(mul(Const(a), e1), mul(Const(b), e2)), sym)
    separate = add(mul(Const(a), diff(e1, sym)), mul(Const(b), diff(e2, sym)))
    assert combined == separate


def _kernel_numbers(e):
    """The value of every Const node and the exponent of every Power node in e."""
    if isinstance(e, Const):
        return [e.value]
    if isinstance(e, (Sum, Product)):
        children = e.terms if isinstance(e, Sum) else e.factors
    else:
        children = (e.base,) if isinstance(e, Power) else (e.arg,) if isinstance(e, Apply) else ()
    own = [e.exponent] if isinstance(e, Power) else []
    return own + [v for c in children for v in _kernel_numbers(c)]


def _held_as_kernel_number(v):
    """An int (never a bool) when integral, else a non-integral Fraction."""
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


_finite = st.floats(min_value=-4, max_value=4, allow_nan=False, allow_infinity=False)
# raw leaves holding every number type a caller may pass
_raw_consts = st.one_of(st.integers(-4, 4), _finite, _consts.map(lambda c: c.value)).map(Const)


@given(_trees(3, _raw_consts), _finite, _finite, st.sampled_from([X, XDOT, T]))
def test_every_kernel_number_is_an_int_when_integral(raw, a1, b0, sym):
    e = _canonical_or_skip(raw)
    try:
        bound = bind_constants(e, {"a1": a1, "b0": b0})
    except ZeroDivisionError:
        assume(False)
    derived = [f(t) for t in (e, bound) for f in (lambda u: diff(u, sym), total_dt, clear_denominators)]
    for tree in [e, bound, *derived]:
        assert all(_held_as_kernel_number(v) for v in _kernel_numbers(tree)), tree


@pytest.mark.parametrize(
    "got, expected",
    [
        # int ** negative int is a float; the kernel raises the exact rational
        (lambda: pow_(const(2), -2), Const(Fraction(1, 4))),
        (lambda: parse("(2*x)^(-2)"), mul(Fraction(1, 4), pow_(X, -2))),
        (lambda: mul(const(4), pow_(const(2), -3)), Const(_HALF)),
        (lambda: mul(pow_(const(2), _HALF), pow_(const(2), Fraction(-5, 2))), Const(Fraction(1, 4))),
        # rationals that merge into a whole number become an int
        (lambda: add(const(_HALF), const(_HALF)), Const(1)),
        (lambda: add(mul(_HALF, X), mul(_THREE_HALVES, X)), mul(2, X)),
        (lambda: mul(_HALF, X, 4), mul(2, X)),
        (lambda: mul(pow_(X, _HALF), pow_(X, _THREE_HALVES)), pow_(X, 2)),
        (lambda: mul(pow_(const(2), _HALF), pow_(const(2), _THREE_HALVES)), Const(4)),
        (lambda: clear_denominators(parse("x^(1/2) + x^(-3/2)")), parse("x^2 + 1")),
    ],
)
def test_constructed_numbers_are_exact_and_int_when_integral(got, expected):
    e = got()
    assert e == expected
    assert all(_held_as_kernel_number(v) for v in _kernel_numbers(e)), e


def test_a_float_enters_as_its_binary_value():
    assert const(0.1) == Const(Fraction(0.1)) != parse("1/10")
    assert to_string(mul(0.5, X)) == "1/2*x"


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_floats_are_rejected(value):
    with pytest.raises(ValueError, match="is not a finite number"):
        const(value)
    with pytest.raises(ValueError, match="is not a finite number"):
        bind_constants(parse("a*x"), {"a": value})


def test_compiled_constants_are_their_nearest_floats():
    """Generated code holds each constant as its nearest float; one beyond
    float range stays exact and overflows where it is evaluated."""
    assert _pysrc(parse("x/3 + 2")) == "((2.0) + ((0.3333333333333333) * x))"
    huge = mul(const(10**400), X)
    assert _pysrc(huge) == f"(({10**400}) * x)"
    with pytest.raises(OverflowError):
        compile_expr(huge, ("x",))(1.0)


# ---------------------------------------------------------------------------
# differentiation


def test_partial_power_rule():
    assert diff(parse("x^2*x'"), X) == parse("2*x*x'")


def test_partial_of_opaque_coefficient_times_sine():
    assert diff(parse("f1(t)*sin(x)"), X) == parse("f1(t)*cos(x)")


def test_partial_time_of_exponential():
    e = parse("exp(a0*x + b0*t/2)")
    assert diff(e, T) == mul(parse("b0/2"), e)


def test_funcsym_derivative_rules():
    assert diff(FuncSym("f1", 0), T) == FuncSym("f1", 1)
    assert diff(FuncSym("f1", 2), T) == FuncSym("f1", 3)
    assert diff(FuncSym("f1"), X) == ZERO


def test_total_dt_of_quadratic_gauge():
    e = total_dt(parse("f1(t)*x^2 + f2(t)"))
    assert e == parse("2*f1(t)*x*x' + f1(t)'*x^2 + f2(t)'")


def test_total_dt_constant_coefficient():
    assert total_dt(parse("c1*x'")) == parse("c1*x''")


def test_total_dt_exponential_pair_matches_finite_differences():
    e = parse("B0*x'*exp(a0*x)")
    expected = parse("B0*exp(a0*x)*(x'' + a0*x'^2)")
    assert total_dt(e) == expected
    check_total_dt_against_fd(e, constants={"B0": 1.3, "a0": 0.7})


def test_total_dt_rejects_third_jet():
    with pytest.raises(JetOrderError):
        total_dt(parse("x'''"))


def _prolongation(e):
    """The total time derivative assembled by hand from four partials."""
    return add(diff(e, T), mul(XDOT, diff(e, X)), mul(XDDOT, diff(e, XDOT)), mul(XDDDOT, diff(e, XDDOT)))


@given(_wide_trees(3))
def test_total_dt_is_the_four_partials_prolongation(raw):
    e = _canonical_or_skip(raw)
    assert _outcome(total_dt, e) == _outcome(_prolongation, e)
    for third in (add(e, XDDDOT), apply_fn("sin", add(e, XDDDOT)), mul(XDDDOT, e)):
        if third != ZERO:
            with pytest.raises(JetOrderError):
                total_dt(third)


def test_a_merged_product_or_constant_is_multiplied_again():
    # (x*t)^(1/2) * (x*t)^(1/2) is the product x*t and 2^(1/2) * 2^(1/2) the
    # constant 2: neither is a factor, so mul multiplies them into the rest
    xt_root, two_root = Power(mul(X, T), _HALF), pow_(const(2), _HALF)
    for args in ((xt_root, xt_root, X), (two_root, two_root, X), (xt_root, two_root, xt_root, two_root)):
        got = mul(*args)
        assert got == reference_mul(*args) and canonicalize(got) == got
    assert mul(xt_root, xt_root, X) == parse("x^2*t")
    assert mul(two_root, two_root, X) == parse("2*x")


def test_a_power_of_a_power_merges_with_the_base_it_lands_on():
    # the derivative runs through (x^-2)^(-1) = x^2, a power of x, which
    # must merge with the x^-3 beside it
    d = diff(parse("ln((1/x^2)^(1/2))"), X)
    assert d == mul(-1, pow_(X, -1)) == parse("-1/x")
    assert canonicalize(d) == d and parse(to_string(d)) == d
    root = pow_(pow_(X, -2), -_HALF)
    assert mul(root, root, pow_(X, -3)) == pow_(X, -1) == reference_mul(root, root, pow_(X, -3))
    # the oracle raises a constant base to a negative power exactly, as mul does
    half_root = pow_(const(2), -_HALF)
    assert reference_mul(half_root, half_root) == Const(_HALF) == mul(half_root, half_root)
    assert type(reference_mul(half_root, half_root).value) is Fraction


def test_partials_match_finite_differences_at_guarded_points():
    cases = [
        (parse("x'*exp(a0*x) + sin(x)*t"), None),
        (parse("a1*x'/(a2*x + a4)"), {"a1": 1.0, "a2": 1.0, "a4": 2.0}),
        (parse("f1(t)*x^2 + f2(t)*ln(x)"), None),
    ]
    for e, constants in cases:
        check_partials_against_fd(
            e,
            Domain(x=(0.5, 2.0), t=(0.5, 2.0)),
            funcs={"f1": parse("t^2"), "f2": parse("sin(t)")},
            constants=constants,
        )


# ---------------------------------------------------------------------------
# evaluation: the reference evaluator of tests/oracles.py, and compile_expr


def test_evaluate_exact_rational():
    v = evaluate(parse("x' + x"), Bindings(jets={"x": 1, "xdot": 0}))
    assert v == 1 and isinstance(v, Fraction)


def test_evaluate_affine_reciprocal():
    b = Bindings(jets={"x": 1, "xdot": 2}, constants={"a1": 1, "a2": 1, "a4": 1})
    assert evaluate(parse("a1*x'/(a2*x + a4)"), b) == 1


def test_evaluate_conserved_level_of_tied_pair():
    b = Bindings(jets={"x": 1, "xdot": 0, "t": 0}, constants={"b0": 2})
    assert evaluate(parse("exp(b0*t/2)*(x' + b0*x/2)"), b) == pytest.approx(1.0)


def test_evaluate_unbound_atom():
    with pytest.raises(UnboundSymbolError):
        evaluate(parse("q0*x"), Bindings(jets={"x": 1.0}))
    with pytest.raises(UnboundSymbolError):
        evaluate(parse("f9(t)"), Bindings(jets={"t": 1.0}))


def test_evaluate_guard_violation_near_singularity():
    with pytest.raises(GuardViolation):
        evaluate(parse("1/x"), Bindings(jets={"x": 1e-9}))


def test_evaluate_ln_of_nonpositive():
    with pytest.raises(EvaluationError):
        evaluate(parse("ln(x)"), Bindings(jets={"x": -1.0}))


def test_function_instantiation_derivatives_are_symbolic():
    b = Bindings(jets={"t": 2.0}, funcs={"f1": parse("t^2")})
    assert evaluate(FuncSym("f1", 1), b) == pytest.approx(4.0)
    assert evaluate(FuncSym("f1", 2), b) == pytest.approx(2.0)
    assert evaluate(FuncSym("f1", 3), b) == 0


def test_compile_expr_matches_evaluate(corpus_pairs):
    """compile_expr agrees with the reference evaluator on every corpus body
    and every catalog route's explicit form, at 20 guarded points of each
    instantiation round."""
    cases = [(pair.assembled().body, pair.domain) for pair in corpus_pairs.values()]
    for name in ("inertia", "quadratic", "tied"):
        for eom in comparison_catalog(name).routes().values():
            cases.append((eom.explicit(), Domain(guards=eom.guards())))
    rng = random.Random(0)
    for e, domain in cases:
        for funcs in instantiation_rounds([e], domain):
            sample = sample_points([e], domain, 20, rng, funcs=funcs)
            (fn,) = sample.functions
            for row, b in zip(sample.rows, sample_bindings(sample)):
                assert fn(*row) == pytest.approx(float(evaluate(e, b)), rel=1e-12, abs=0), to_string(e)


def test_compiled_fractional_power_of_negative_base_raises():
    fn = compile_expr(parse("x^(1/2)"), ("x", "xdot", "t"))
    assert fn(4.0, 0.0, 0.0) == 2.0
    with pytest.raises(ValueError):
        fn(-2.0, 0.0, 0.0)


def test_constants_named_like_python_or_jet_names():
    e = parse("math*x + xdot*x' + lambda")
    fn = compile_expr(e, ("x", "xdot", ConstSym("math"), ConstSym("xdot"), ConstSym("lambda")))
    assert fn(1.0, 2.0, 3.0, 4.0, 5.0) == 3.0 + 8.0 + 5.0
    sample = sample_points([e], Domain(), 5, random.Random(0))
    assert {ConstSym("math"), ConstSym("xdot"), ConstSym("lambda")} <= set(sample.args)
    assert len(sample.rows) == 5
    padded = parse("x*math + x'*xdot + lambda + sin(t)^2 + cos(t)^2 - 1")
    assert equivalent(e, padded).verdict is Verdict.NUMERICALLY_EQUAL
    assert equivalent(e, parse("x*math + x'*math + lambda")).verdict is Verdict.DISTINCT


# ---------------------------------------------------------------------------
# equivalence


def test_equivalent_proven_on_expansion():
    assert equivalent(parse("(x+1)^2"), parse("x^2 + 2*x + 1")).verdict is Verdict.PROVEN_EQUAL


def test_equivalent_gauge_total_derivative_vs_fraction():
    phi = parse("(a1/a2)*ln(a2*x + a4)")
    lhs = total_dt(phi)
    rhs = parse("a1*x'/(a2*x + a4)")
    dom = Domain(guards=(Guard(parse("a2*x + a4"), positive=True),))
    assert equivalent(lhs, rhs, dom).verdict is Verdict.PROVEN_EQUAL


def test_equivalent_distinct_oscillator_coefficients():
    rep = equivalent(
        parse("x'' + b0*x' + b0^2/4*x"),
        parse("x'' + b0*x' + g0*x"),
    )
    assert rep.verdict is Verdict.DISTINCT
    assert rep.witness is not None
    assert rep.witness["abs_diff"] > 0


def test_equivalent_numeric_for_transcendental_identity():
    rep = equivalent(parse("sin(x)^2 + cos(x)^2"), parse("1"))
    assert rep.verdict is Verdict.NUMERICALLY_EQUAL
    assert rep.max_abs_diff <= 1e-9


def test_equivalent_needs_n_eq_compared_points():
    """-1000000*x^999999 overflows at every sampled x > 1; the points left
    (where it underflows to 0) are too few to call it zero."""
    with pytest.raises(InfeasibleDomainError, match="only 12 sampled point"):
        equivalent(parse("-1000000*x^999999"), ZERO)


def test_equivalence_reports_are_seeded_and_reproducible():
    a, b = parse("sin(x)*exp(t)"), parse("cos(x)*exp(t)")
    r1 = equivalent(a, b, seed=7)
    r2 = equivalent(a, b, seed=7)
    assert r1.verdict is Verdict.DISTINCT
    assert r1.witness == r2.witness
    assert r1.seed == 7


def test_proven_zero_clears_shared_denominators():
    e = parse("x/(x+1) - 1 + 1/(x+1)")
    assert proven_zero(e)


def test_print_parse_round_trip_over_corpus(corpus_pairs):
    """Corpus-derived expressions exercise ln, merged exponentials, and
    factored denominators that random trees rarely produce."""
    from nullag.composer import conservation_eom

    for name, pair in corpus_pairs.items():
        for e in (
            pair.B,
            pair.C,
            pair.assembled().body,
            conservation_eom(pair).residual,
            total_dt(pair.assembled().body),
        ):
            assert parse(to_string(e)) == e, (name, to_string(e))


def test_total_dt_is_the_jet_prolongation(corpus_pairs):
    """total_dt agrees with the hand-assembled prolongation formula on the
    corpus bodies."""
    for name, pair in corpus_pairs.items():
        e = pair.assembled().body
        assert total_dt(e) == _prolongation(e), name


# ---------------------------------------------------------------------------
# the cached ordering key


def _fresh(e):
    """An equal tree whose nodes have never had their key computed."""
    return pickle.loads(pickle.dumps(e))


def _check_cached_key(e):
    key = sort_key(e)
    assert sort_key(parse(to_string(e))) == key
    fresh = _fresh(e)
    with pytest.raises(AttributeError):
        fresh._key
    assert fresh == e and hash(fresh) == hash(e)
    assert sort_key(fresh) == key and fresh == e and hash(fresh) == hash(e)
    # a shallow copy is rebuilt from the fields by Expr.__reduce__; copying
    # the slots instead would carry the key computed above
    shallow = copy.copy(e)
    assert shallow == e and hash(shallow) == hash(e)
    with pytest.raises(AttributeError):
        shallow._key
    copied = copy.deepcopy(e)
    assert copied == e and sort_key(copied) == key


@given(_trees(3))
def test_cached_key_is_the_key_of_a_fresh_tree(raw):
    _check_cached_key(_canonical_or_skip(raw))


def test_cached_key_over_corpus(corpus_pairs):
    for pair in corpus_pairs.values():
        for e in (pair.B, pair.C, pair.assembled().body, total_dt(pair.assembled().body)):
            _check_cached_key(e)


def test_key_is_not_a_field():
    assert "_key" not in {f.name for c in (Const, Sum, Product, Power, Apply) for f in fields(c)}
    e = parse("x'*exp(a0*x) + 1/(x + t)")
    assert sort_key(e) is e._key


def test_key_of_a_const_beyond_float_range():
    huge = Fraction(10**400)
    assert sort_key(Const(huge)) == (0, (math.inf, str(huge)))
    assert sort_key(Const(-huge)) == (0, (-math.inf, str(-huge)))
    assert sort_key(_fresh(Const(-huge)))[1][0] == -math.inf


# ---------------------------------------------------------------------------
# constructors that keep the nodes nothing merges into


def _outcome(f, *args):
    """f(*args) with its printed form, or the type of the error it raised."""
    try:
        e = f(*args)
    except ZeroDivisionError as err:
        return type(err)
    return e, to_string(e)


def _reference_sub(a, b):
    return reference_add(a, reference_mul(MINUS_ONE, b))


@given(st.lists(_wide_trees(3), min_size=2, max_size=4))
def test_constructors_equal_the_rebuilding_reference(raws):
    es = [_canonical_or_skip(r) for r in raws]
    assert _outcome(mul, *es) == _outcome(reference_mul, *es)
    assert _outcome(add, *es) == _outcome(reference_add, *es)
    assert _outcome(sub, es[0], es[1]) == _outcome(_reference_sub, es[0], es[1])
    for e in es:
        assert _outcome(lambda u: -u, e) == _outcome(reference_mul, MINUS_ONE, e)
    for e in (add(*es), sub(es[0], es[1]), *es):
        assert _outcome(clear_denominators, e) == _outcome(reference_clear_denominators, e)


def test_mul_keeps_the_factors_nothing_merges_into():
    m = parse("3*x^2*sin(x)*exp(a0*t)/(x + t)")
    product = mul(XDOT, m)
    assert product == reference_mul(XDOT, m)
    # one exp among factors of distinct bases is kept as it is
    for f in m.factors[1:]:
        assert any(g is f for g in product.factors), to_string(f)
    # two exps merge into one
    e = parse("exp(x)")
    merged = mul(product, e)
    assert merged == reference_mul(product, e) == parse("3*x^2*x'*sin(x)*exp(a0*t + x)/(x + t)")
    # a shared base merges: x^2 * x^(1/2) is x^(5/2), the rest is kept
    root = parse("x^(1/2)")
    shared = mul(m, root)
    assert shared == reference_mul(m, root) == parse("3*x^(5/2)*sin(x)*exp(a0*t)/(x + t)")
    square = pow_(X, 2)
    assert square in m.factors and square not in shared.factors
    for f in m.factors[1:]:
        if f != square:
            assert any(g is f for g in shared.factors), to_string(f)


def test_add_keeps_the_terms_nothing_merges_into():
    s = parse("3*x^2*t + x'*sin(x) - 2*exp(t)")
    t = parse("x^2*t + 5*x'")
    total = add(s, t)
    assert total == parse("4*x^2*t + x'*sin(x) - 2*exp(t) + 5*x'")
    merged = {parse("3*x^2*t"), parse("x^2*t")}
    unmerged = [u for u in s.terms + t.terms if u not in merged]
    assert len(unmerged) == 3
    for u in unmerged:
        assert any(v is u for v in total.terms), to_string(u)


def test_cleared_forms_are_canonical(corpus_pairs):
    """clear_denominators passes mul only canonical powers, so no raw node
    such as Power(b, 1) reaches its result."""
    exprs = []
    for pair in corpus_pairs.values():
        L = pair.assembled()
        exprs += [L.body, total_dt(L.body), euler_lagrange_residual(L), conservation_eom(pair).residual]
    for key in ("inertia", "quadratic", "tied"):
        triple = comparison_catalog(key)
        for L in (triple.standard, triple.nonstandard):
            exprs += [L.body, euler_lagrange_residual(L)]
    for e in exprs:
        cleared = clear_denominators(e)
        assert canonicalize(cleared) == cleared, to_string(e)
        assert cleared == reference_clear_denominators(e), to_string(e)


# ---------------------------------------------------------------------------
# the product rule and mul's sum distribution multiply through mul alone


def _partial(sym):
    """The atom map of diff by sym, written out for reference_derive."""

    def atom(a):
        if a == sym:
            return ONE
        if sym == T and isinstance(a, FuncSym):
            return FuncSym(a.name, a.order + 1)
        return ZERO

    return atom


@given(_wide_trees(3))
def test_diff_and_total_dt_equal_the_reference_walker(raw):
    e = _canonical_or_skip(raw)
    for sym in (X, XDOT, T, ConstSym("a1")):
        assert _outcome(diff, e, sym) == _outcome(reference_derive, e, _partial(sym)), to_string(e)
    assert _outcome(total_dt, e) == _outcome(reference_derive, e, _prolong), to_string(e)


@given(_wide_trees(3), _wide_trees(3))
def test_mul_on_product_rule_shapes_equals_the_reference(raw_product, raw_term):
    """The product rule multiplies each term of a derivative into the other
    factors of a product: mul(Const(c), *others, term)."""
    product, term = _canonical_or_skip(raw_product), _canonical_or_skip(raw_term)
    assume(not isinstance(product, Sum) and product != ZERO)
    coeff, others = as_coeff_factors(product)
    for t in term.terms if isinstance(term, Sum) else (term,):
        args = (Const(coeff), *others, t)
        assert _outcome(mul, *args) == _outcome(reference_mul, *args)


@pytest.mark.parametrize(
    "text, derivative",
    [
        # a factor of the derivative meets the base of another factor
        ("x*ln(x)", "ln(x) + 1"),
        # an exp on both sides
        ("exp(x)*sin(exp(x))", "exp(x)*sin(exp(x)) + exp(2*x)*cos(exp(x))"),
        # a fractional power meets the base x
        ("x^(1/2)*ln(x)", "1/2*ln(x)/x^(1/2) + 1/x^(1/2)"),
        # a Const-base power among the other factors, then meeting its base
        ("2^(1/2)*x", "2^(1/2)"),
        ("2^(1/2)*exp(2^(1/2)*x)", "2*exp(2^(1/2)*x)"),
        # a derivative that is a Sum, one of whose terms meets the base x
        ("t*x*ln(x^2 + x)", "t*ln(x^2 + x) + (2*t*x^2 + t*x)/(x^2 + x)"),
    ],
)
def test_each_fallback_of_the_merge_is_the_reference_derivative(text, derivative):
    """Product-rule terms whose factors share one of mul's buckets, so mul
    falls back from keeping the factors to merging them."""
    e = parse(text)
    assert diff(e, X) == reference_derive(e, _partial(X)) == parse(derivative)
    assert total_dt(e) == reference_derive(e, _prolong)
    assert total_dt(mul(XDOT, e)) == reference_derive(mul(XDOT, e), _prolong)


@pytest.mark.parametrize(
    "factors, product",
    [
        # a co-factor meets the base of a term of the sum
        (["x", "x + 1/x"], "x^2 + 1"),
        # the co-factors hold a second Sum
        (["x + 1", "t + 1", "x - t"], "x^2*t + x^2 + x - x*t^2 - t^2 - t"),
        # co-factors with no Sum whose powers of one sum merge into it
        (["t + 1", "(x + 1)^(1/2)", "(x + 1)^(1/2)"], "x*t + x + t + 1"),
        # (x + 1)^(3/2) is itself expanded into a Sum
        (["t + 1", "(x + 1)^(1/2)", "(x + 1)^(3/2)"], "(t + 1)*(x^2 + 2*x + 1)"),
        # merged apart from the term, 4^(-1/2) * 4^(-1/2) is the constant
        # 1/4, and 1/4 * 4^(1/2) is not 4^(-1/2)
        (["4^(-1/2)", "x + 4^(1/2)", "4^(-1/2)"], "4^(-1/2) + 1/4*x"),
    ],
)
def test_sum_distribution_falls_back_to_mul(factors, product):
    """mul distributes a product over a sum as mul of the co-factors and
    each term; these co-factors merge, or are themselves a sum."""
    es = [parse(f) for f in factors]
    assert mul(*es) == reference_mul(*es) == parse(product)


# ---------------------------------------------------------------------------
# the modular nonzero witness in proven_zero


def _split_fractions(pqrs):
    """p/q + r/s - (p*s + r*q)/(q*s): zero after clearing, rarely before."""
    p, q, r, s = pqrs
    return sub(add(div(p, q), div(r, s)), div(add(mul(p, s), mul(r, q)), mul(q, s)))


@settings(max_examples=200)
@given(st.one_of(_wide_trees(3), st.tuples(*[_trees(2)] * 4)))
def test_the_witness_gives_the_answer_of_clearing(raw):
    if isinstance(raw, tuple):  # drawn p, q, r, s
        try:
            e = _split_fractions([canonicalize(u) for u in raw])
        except ZeroDivisionError:
            assume(False)
    else:
        e = _canonical_or_skip(raw)
    # proven_zero as it was before the witness
    assert proven_zero(e) == (e == ZERO or reference_clear_denominators(e) == ZERO), to_string(e)


def test_the_fraction_audit_difference_is_decided_by_its_witness(monkeypatch):
    spec = FractionSpec(FuncSym("f1"), FuncSym("f2"), FuncSym("f3"), FuncSym("f4"))
    machine = mul(X, build_nonstandard_null(spec).C)
    reference = parse(
        "(f1(t)'*f2(t) - f1(t)*f2(t)')/f2(t)^2"
        "*(ln(abs(f2(t)*x + f3(t)*t + f4(t))) + (f3(t)*t + f4(t))/(f3(t)*x + f3(t)*t + f4(t)))"
        " - ((f1(t)'*f3(t) - f1(t)*f3(t)' - f1(t)*f3(t))*t + f1(t)'*f4(t) - f1(t)*f4(t)')"
        "/(f2(t)*(f2(t)*x + f3(t)*t + f4(t)))"
    )
    e = sub(reference, machine)
    assert reference_clear_denominators(e) != ZERO

    def refuse(e):
        raise AssertionError("clear_denominators was called")

    monkeypatch.setattr(expr_module, "clear_denominators", refuse)
    assert proven_zero(e) is False


@pytest.mark.parametrize(
    "text",
    [
        # zero only once clearing merges exp(x)*exp(-x) into 1
        "exp(x)/(exp(-x) + 1) - exp(2*x)/(exp(x) + 1)",
        "x^(1/2)/(x + 1) + x^(3/2)/(x + 1) - x^(1/2)",
    ],
)
def test_exp_and_fractional_powers_fall_through_to_clearing(text):
    e = parse(text)
    assert e != ZERO
    with pytest.raises(ValueError):
        _residue(e)
    assert proven_zero(e)


def test_a_denominator_divisible_by_the_prime_falls_through_to_clearing():
    c = const(Fraction(1, _P))
    zero = sub(mul(c, add(div(X, add(X, 1)), div(1, add(X, 1)))), c)
    nonzero = add(mul(c, X), div(1, add(X, 1)))
    for e, proven in ((zero, True), (nonzero, False)):
        assert e != ZERO
        with pytest.raises(ValueError):
            _residue(e)
        assert proven_zero(e) is proven


def test_a_zero_residue_under_an_inverse_falls_through_to_clearing():
    # x is the first indeterminate the walk meets, so x - _point(0) has residue 0
    inverse = pow_(sub(X, _point(0)), -1)
    zero = sub(mul(X, inverse), add(1, mul(_point(0), inverse)))
    for e, proven in ((zero, True), (add(inverse, 1), False)):
        assert e != ZERO
        with pytest.raises(ValueError):
            _residue(e)
        assert proven_zero(e) is proven


def test_indeterminates_take_residues_in_walk_order():
    assert _residue(parse("x + 2*x'")) == (_point(0) + 2 * _point(1)) % _P
    # canonical order: f1(t)' + a1*sin(x)
    assert _residue(parse("sin(x)*a1 + f1(t)'")) == (_point(0) + _point(1) * _point(2)) % _P
    assert _residue(const(Fraction(3, 4))) * 4 % _P == 3


def _residue_outcome(f, e):
    try:
        return f(e)
    except ValueError as err:
        return ValueError, str(err)


def _deep_twins(u, c1, c2):
    """ln and abs atoms whose arguments differ only in a constant deep inside,
    each also as a factor beside its twin."""
    inner1, inner2 = (Sum((Product((u, X)), Const(c))) for c in (c1, c2))
    a1, a2 = Apply("ln", Apply("abs", inner1)), Apply("ln", Apply("abs", inner2))
    return Sum((Product((a1, XDOT)), Product((a2, T)), Product((Apply("abs", inner2), a1, a2))))


@given(st.one_of(
    _wide_trees(3),
    st.tuples(_trees(2), _consts, _consts).map(lambda uc: _deep_twins(uc[0], uc[1].value, uc[2].value)),
))
def test_the_memoized_residue_is_the_reference_walk(raw):
    e = _canonical_or_skip(raw)
    assert _residue_outcome(_residue, e) == _residue_outcome(reference_residue, e), to_string(e)


def test_the_memoized_residue_is_the_reference_walk_over_the_corpus(corpus_pairs):
    exprs = []
    for pair in corpus_pairs.values():
        L = pair.assembled()
        h = harmonic(pair, 2)
        exprs += [L.body, h.body, pair.certificate.residual, conservation_eom(pair).residual,
                  conservation_eom(h).residual]
    for key in ("inertia", "quadratic", "tied"):
        triple = comparison_catalog(key)
        for L in (triple.standard, triple.nonstandard):
            exprs += [L.body, euler_lagrange_residual(L)]
    exprs += [clear_denominators(e) for e in exprs]
    assert any(isinstance(_residue_outcome(_residue, e), int) for e in exprs)
    for e in exprs:
        assert _residue_outcome(_residue, e) == _residue_outcome(reference_residue, e), to_string(e)


def test_ln_and_abs_atoms_that_differ_deep_in_their_argument_are_distinct():
    u = parse("x^2*t + f1(t)")
    a1, a2 = (apply_fn("ln", apply_fn("abs", add(mul(u, X), c))) for c in (1, 2))
    d = sub(a1, a2)
    # the two logarithms are the walk's first two indeterminates, in either order
    assert _residue(d) == reference_residue(d)
    assert _residue(d) in {(_point(0) - _point(1)) % _P, (_point(1) - _point(0)) % _P}
    e = canonicalize(_deep_twins(u, 1, 2))
    same = canonicalize(_deep_twins(u, 2, 2))
    assert _residue(e) == reference_residue(e) != _residue(same) == reference_residue(same)
    # a node shared many times in the tree is valued once and alike every time
    shared = Sum(tuple(Product((Const(k), e)) for k in range(1, 6)))
    assert _residue(shared) == reference_residue(shared) == 15 * _residue(e) % _P
