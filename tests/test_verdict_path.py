"""One verdict path: each nullity verdict is decided once, by `equivalent`,
and carried on the certified object as its certificate."""

import json
import sys
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

import nullag.expr as expr
import nullag.variational as variational
from corpus import catalog_pairs, numerically_null_pair
from nullag.cli import main
from nullag.composer import conservation_eom
from nullag.construct import (
    AntiderivativeUnsupported,
    FractionSpec,
    build_nonstandard_null,
    build_null,
    harmonic,
    solve_C,
    weighted_B,
)
from nullag.equivalence import Verdict, equivalent
from nullag.expr import T, X, XDOT, ZERO, FuncSym, add, diff, mul, pow_, sub, total_dt
from nullag.parser import parse
from nullag.variational import (
    NullPair,
    NullReport,
    NullVerdict,
    euler_lagrange_residual,
    is_null,
    null_condition_residual,
)

# generating functions of 1-3 terms, each rational * time part * space part
TIME_PARTS = ("1", "t", "t^2", "exp(t/2)", "sin(t)", "f1(t)", "f2(t)")
SPACE_PARTS = ("1", "x", "x^2", "x^3", "x^4", "exp(x)", "exp(2*x)", "exp(-x)",
               "sin(1/2*x)", "sin(x)", "cos(3/2*x)", "cos(2*x)")
_terms = st.tuples(
    st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool),
    st.sampled_from(TIME_PARTS),
    st.sampled_from(SPACE_PARTS),
)
generating_functions = st.lists(_terms, min_size=1, max_size=3).map(
    lambda terms: " + ".join(f"({c})*{time}*{space}" for c, time, space in terms)
)


# f1..f4 of the two fraction families of the corpus, each times a drawn rational:
# opaque f1(t)..f4(t), and constant a1, a2, 0, a4
_scale = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
fraction_specs = st.one_of(
    st.tuples(_scale, _scale, _scale, _scale).map(
        lambda c: FractionSpec(*(mul(k, FuncSym(f"f{i}")) for i, k in enumerate(c, 1)))
    ),
    st.tuples(_scale, _scale, _scale).map(
        lambda c: FractionSpec(mul(c[0], parse("a1")), mul(c[1], parse("a2")), ZERO,
                               mul(c[2], parse("a4")))
    ),
)
_additive = st.sampled_from(("0", "f4(t)", "t^2"))


@given(generating_functions, _additive)
def test_constructed_certificate_is_the_null_condition_of_solve_C(text, f):
    B = parse(text)
    C = solve_C(B)
    pair = build_null(B, parse(f))
    assert pair.C == C
    assert pair.certificate.residual == null_condition_residual(B, C)


@given(fraction_specs, _additive)
def test_constructed_certificate_is_the_null_condition_of_solve_C_on_fraction_specs(spec, f):
    pair = build_nonstandard_null(spec, parse(f))
    B = mul(spec.f1, pow_(spec.denominator(), -1))
    C = solve_C(B)
    assert pair.B == B and pair.C == C
    assert pair.certificate.residual == null_condition_residual(B, C)


def test_null_condition_is_the_euler_lagrange_residual_on_the_corpus(corpus_pairs):
    # the residual the certificate keeps is the paper's null condition, tree for tree
    for name, pair in {**corpus_pairs, **catalog_pairs()}.items():
        assert null_condition_residual(pair.B, pair.C) == pair.certificate.residual, name


@given(generating_functions, st.sampled_from(("0", "f4(t)", "t^2")))
def test_null_condition_is_the_euler_lagrange_residual_on_generated_pairs(text, f):
    B = parse(text)
    C = solve_C(B)
    pair = NullPair(B, mul(X, C), parse(f))
    assert null_condition_residual(B, C) == euler_lagrange_residual(pair.assembled())


@given(generating_functions, generating_functions, st.sampled_from(("0", "f4(t)", "t^2")),
       st.integers(0, 3))
def test_null_condition_is_the_euler_lagrange_residual_of_drawn_non_null_pairs(b, c, f, n):
    # a drawn C is rarely null with B, so both sides are nonzero trees here,
    # for the pair and for the order-n sums a harmonic judges
    B, C, f = parse(b), parse(c), parse(f)
    assert null_condition_residual(B, C) == euler_lagrange_residual(NullPair(B, mul(X, C), f).assembled())
    B_n, xC_n = weighted_B(B, n), weighted_B(mul(X, C), n)
    body = add(mul(B_n, XDOT), xC_n, f)
    assert sub(diff(B_n, T), diff(xC_n, X)) == euler_lagrange_residual(body)


@given(generating_functions, generating_functions, _additive)
def test_stored_xC_gives_the_old_formulas_for_a_pair(b, c, f):
    # a pair stores the paper's x*C; the C and the Lagrangian read off it are
    # the trees of the formulas that read C, for null and non-null pairs alike
    B, C, f = parse(b), parse(c), parse(f)
    pair = NullPair(B, mul(X, C), f)
    assert pair.C == C
    assert pair.assembled().body == add(mul(B, XDOT), mul(C, X), f)


@given(generating_functions, _additive, st.integers(0, 3))
def test_stored_xC_gives_the_old_formulas_for_a_harmonic(text, f, n):
    pair = build_null(parse(text), parse(f))
    h = harmonic(pair, n)
    assert h.certificate.residual == null_condition_residual(h.B, h.C)
    body = add(mul(weighted_B(pair.B, n), XDOT), weighted_B(mul(X, pair.C), n), pair.f)
    assert h.assembled().body == body


@given(generating_functions, st.sampled_from(("0", "f4(t)", "t^2")), st.integers(0, 3))
def test_a_harmonic_certificate_holds_the_euler_lagrange_residual(text, f, n):
    try:
        h = harmonic(build_null(parse(text), parse(f)), n)
    except AntiderivativeUnsupported:
        assume(False)
    L = h.assembled()
    check = is_null(L)
    assert h.certificate.residual == euler_lagrange_residual(L) == check.residual
    assert h.certificate.verdict is check.verdict
    # conservation_eom reads E(L) off the certificate: d/dt L + x'*E(L)
    assert conservation_eom(h).residual == add(total_dt(L.body), mul(XDOT, check.residual))


@pytest.fixture
def verdict_calls(monkeypatch):
    """Every call of the one verdict helper, null_report, from any module."""
    calls = []
    real = variational.null_report

    def counted(residual, domain, **kw):
        calls.append(residual)
        return real(residual, domain, **kw)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "nullag" and getattr(module, "null_report", None) is real:
            monkeypatch.setattr(module, "null_report", counted)
    return calls


@pytest.mark.parametrize(
    "argv, decided",
    [
        (["derive", "--B", "f1(t)*x + f2(t)*t + f3(t)", "--f", "f4(t)"], 1),
        (["harmonic", "--B", "f1(t)*x + f2(t)*t + f3(t)", "--f", "f4(t)", "--n", "2"], 2),
    ],
)
def test_each_nullity_verdict_is_decided_once(verdict_calls, capsys, argv, decided):
    assert main(argv + ["--json"]) == 0
    capsys.readouterr()
    assert len(verdict_calls) == decided


@pytest.fixture
def derive_walks(monkeypatch):
    """The tree of every top-level walk of the one derivation walker,
    expr._derive (each diff and total_dt); its recursive calls are not
    counted."""
    walks = []
    real = expr._derive
    depth = 0

    def counted(e, atom):
        nonlocal depth
        if depth == 0:
            walks.append(e)
        depth += 1
        try:
            return real(e, atom)
        finally:
            depth -= 1

    monkeypatch.setattr(expr, "_derive", counted)
    return walks


def test_a_constructed_pair_is_differentiated_once(derive_walks):
    # dB/dt and d(xC)/dx once each: the residual solving for C proved is the
    # certificate, so certification derives nothing again
    B, f = parse("f1(t)*x + f2(t)*t + f3(t)"), parse("f4(t)")
    derive_walks.clear()
    build_null(B, f)
    assert len(derive_walks) == 2
    # the fraction family adds the linear parts of its denominator's powers
    spec = FractionSpec(FuncSym("f1"), FuncSym("f2"), FuncSym("f3"), FuncSym("f4"))
    derive_walks.clear()
    build_nonstandard_null(spec, parse("f(t)"))
    assert len(derive_walks) == 7


def test_certificate_is_the_report_the_cli_prints(capsys):
    B, f = "B0*exp(a0*x) + f1(t)*x", "f4(t)"
    pair = build_null(parse(B), parse(f))
    assert isinstance(pair.certificate, NullReport)
    assert pair.is_certified
    assert main(["derive", "--B", B, "--f", f, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["nullity"] == pair.certificate.verdict.value

    h = harmonic(pair, 2)
    assert isinstance(h.certificate, NullReport)
    assert main(["harmonic", "--B", B, "--f", f, "--n", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["nullity"] == h.certificate.verdict.value


def test_certificate_matches_is_null(corpus_pairs):
    # the fraction family and the numerically null pair have nonzero residual trees
    pairs = {**corpus_pairs, **catalog_pairs(), "numerically null": numerically_null_pair()}
    for name, pair in pairs.items():
        for n, certified in enumerate([pair, *(harmonic(pair, k) for k in range(1, 4))]):
            check = is_null(certified.assembled())
            assert certified.certificate.verdict is check.verdict, (name, n)
            assert certified.certificate.residual == check.residual, (name, n)
    assert NullPair(parse("x"), ZERO).certificate is None
    assert not NullPair(parse("x"), ZERO).is_certified


def test_a_certified_pair_returns_the_lagrangian_it_judged():
    pair = build_null(parse("x^2*t"))
    L = pair.assembled()
    assert pair.certificate.residual == euler_lagrange_residual(L)
    assert pair.assembled() is L
    # kept outside the fields: equality, hash and repr see only B, xC, f, domain
    raw = NullPair(pair.B, pair.xC, pair.f, pair.domain)
    assert raw == pair and hash(raw) == hash(pair) and repr(raw) == repr(pair)
    assert [f.name for f in fields(NullPair)] == ["B", "xC", "f", "domain", "certificate"]
    assert raw.assembled() == L and raw.assembled() is raw.assembled()


def test_proven_null_carries_no_sampling_report():
    rep = build_null(parse("x^2*t")).certificate
    assert rep.verdict is NullVerdict.PROVEN_NULL
    assert rep.equivalence is None


def test_float_constants_never_yield_a_proof():
    # 1e16 + 1 == 1e16 in floats, so binding floats first "proved" this
    rep = equivalent(parse("(a+1)*x"), parse("a*x"), constants={"a": 1e16})
    assert rep.verdict is Verdict.NUMERICALLY_EQUAL
    rep = equivalent(parse("(a+1)*x"), parse("a*x + x"), constants={"a": 1e16})
    assert rep.verdict is Verdict.PROVEN_EQUAL
    rep = equivalent(parse("a*x"), parse("x/10"), constants={"a": 0.1})
    assert rep.verdict is not Verdict.PROVEN_EQUAL
    rep = equivalent(parse("a*x"), parse("x/10"), constants={"a": Fraction(1, 10)})
    assert rep.verdict is Verdict.PROVEN_EQUAL


@pytest.mark.parametrize(
    "argv, spec",
    [
        (["eom"], None),
        (["eom", "--f", "t"], None),
        (["derive", "--spec-file", "{missing}"], None),
        (["verify", "x", "--out", "{missing}/r.json"], None),
        (["derive", "--spec-file", "{spec}"], [{"kind": "generating"}]),
        (["derive", "--spec-file", "{spec}"], [{"kind": "fraction", "f1": "1"}]),
        (["derive", "--spec-file", "{spec}"], {"kind": "generating"}),
        (["derive", "--spec-file", "{spec}"], ["x"]),
        (["compare", "--system", "tied", "--ic", "0,1,0", "--t1", "1e400"], None),
        (["simulate", "--system", "tied", "--ic", "0,1,0", "--t1", "1", "--h", "inf"], None),
        (["compare", "--system", "tied", "--ic", "0,nan,0", "--t1", "1"], None),
        (["verify", "x'^2*x", "--x-box", "nan,1"], None),
        (["verify", "x'^2*x", "--x-box", "2,1"], None),
        (["derive", "--spec-file", "{spec}"], [{"B": "x", "domain": {"t": [1, "inf"]}}]),
        (["simulate", "--system", "tied", "--ic", "0,1,0", "--t1", "1", "--h", "1e-300"], None),
        (["compare", "--system", "tied", "--ic", "0,1/0,0", "--t1", "1"], None),
        (["compare", "--system", "quadratic", "--a0", "nan", "--ic", "0,0,1", "--t1", "1"], None),
        *(
            (argv + [flag, value], None)
            for argv, flag in (
                (["verify", "1/2*x'^2"], "--eps-eq"),
                (["verify", "x' + (sin(x)^2 + cos(x)^2 - 1)*x'^2"], "--eps-eq"),
                (["simulate", "--system", "tied", "--ic", "0,1,0", "--t1", "0.01"], "--eps-drift"),
                (["compare", "--system", "tied", "--ic", "0,1,0", "--t1", "0.01"], "--tol"),
            )
            for value in ("nan", "inf", "-1", "x")
        ),
    ],
)
def test_bad_input_is_an_input_error_not_a_traceback(tmp_path, capsys, argv, spec):
    path = tmp_path / "spec.json"
    if spec is not None:
        path.write_text(json.dumps(spec))
    argv = [a.format(missing=tmp_path / "missing", spec=path) for a in argv]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("input error:")


@pytest.mark.parametrize(
    "argv, decimal",
    [
        (["compare", "--system", "tied", "--ic", "0,1/2,0", "--t1", "1/2"], ["0,0.5,0", "0.5"]),
        (["compare", "--system", "quadratic", "--a0", "1/2", "--ic", "0,0,1", "--t1", "1", "--h", "1/500"],
         ["0.5", "2e-3"]),
        (["simulate", "--system", "tied", "--ic", "1/4,1,0", "--t1", "3/4", "--h", "1/1000"],
         ["0.25,1,0", "0.75", "1e-3"]),
        (["verify", "x'^2*x", "--x-box", "1/2,3/2", "--t-box", "1/4,1"], ["0.5,1.5", "0.25,1"]),
    ],
)
def test_numeric_arguments_read_exact_fractions(capsys, argv, decimal):
    fractions = iter(decimal)
    same = [next(fractions) if "/" in a else a for a in argv]
    assert main([*argv, "--json"]) != 3
    exact = capsys.readouterr().out
    assert main([*same, "--json"]) != 3
    assert capsys.readouterr().out == exact


def test_tolerance_flags_only_where_they_are_read(capsys):
    assert main(["verify", "x'", "--eps-eq", "1e-3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["tolerances"] == {
        "eps_eq": 1e-3, "eps_act": 1e-7, "eps_drift": 1e-7,
    }
    assert main(["simulate", "--system", "tied", "--ic", "0,1,0", "--t1", "0.01",
                 "--eps-drift", "1e-5", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["tolerances"]["eps_drift"] == 1e-5
    for argv in (["derive", "--B", "x", "--eps-eq", "1e-3"],
                 ["verify", "x'", "--eps-act", "1e-3"],
                 ["verify", "x'", "--eps-drift", "1e-3"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 3, argv
    capsys.readouterr()


def test_zero_tolerance_is_strict(capsys):
    assert main(["verify", "x'", "--eps-eq", "0", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["tolerances"]["eps_eq"] == 0.0
    assert main(["verify", "x' + (sin(x)^2 + cos(x)^2 - 1)*x'^2", "--eps-eq", "1/10"]) == 0
    assert main(["compare", "--system", "tied", "--ic", "0,1,0", "--t1", "0.01", "--tol", "0"]) != 3
    capsys.readouterr()
