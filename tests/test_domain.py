"""Guarded sampling, structural guards, and instantiation rounds."""

import random
from fractions import Fraction

import pytest

from nullag import (
    ConstSym,
    Domain,
    Guard,
    InfeasibleDomainError,
    STANDARD_FUNCTIONS,
    collect_guards,
    parse,
    sample_points,
    to_string,
)
import nullag.domain
from nullag.domain import instantiation_rounds


def test_standard_function_set():
    assert [to_string(f) for f in STANDARD_FUNCTIONS] == [
        "1",
        "t",
        "t^2",
        "exp(1/2*t)",
        "sin(t)",
        "1 + t^2",
    ]


def test_instantiation_rounds_shift_assignments():
    # f2 appears only in a guard of the domain, and still gets instantiated
    domain = Domain(guards=(Guard(parse("f2(t)"), positive=True),))
    rounds = instantiation_rounds([parse("x'^2*f1(t)'"), parse("x")], domain)
    assert len(rounds) == 6
    # distinct names never share an instantiation within a round
    for r in rounds:
        assert set(r) == {"f1", "f2"}
        assert r["f1"] != r["f2"]
    # every name cycles through the whole set
    seen = {to_string(r["f1"]) for r in rounds}
    assert len(seen) == 6
    assert instantiation_rounds([parse("f2(t)"), parse("f1(t)")], Domain()) == rounds


def test_instantiation_rounds_empty():
    assert instantiation_rounds([], Domain()) == [{}]
    assert instantiation_rounds([parse("x*t")], Domain(guards=(Guard(parse("x - t")),))) == [{}]


def test_instantiation_rounds_take_guard_only_names():
    domain = Domain(guards=(Guard(parse("1 + f3(t)^2")),))
    rounds = instantiation_rounds([parse("x'^2")], domain)
    assert [to_string(r["f3"]) for r in rounds] == [to_string(f) for f in STANDARD_FUNCTIONS]


def test_collect_guards_finds_denominators_and_log_arguments():
    e = parse("ln(a2*x + a4) + 1/(x - 1) + x^(1/2)")
    guards = collect_guards(e)
    by_text = {(to_string(g.expr), g.positive) for g in guards}
    assert ("a4 + x*a2", True) in by_text
    assert ("-1 + x", False) in by_text
    assert ("x", True) in by_text


def test_sampling_respects_guards():
    rng = random.Random(0)
    domain = Domain(x=(0.5, 2.0), guards=(Guard(parse("x - 1"),),))
    sample = sample_points([parse("1/(x - 1)")], domain, 30, rng)
    assert len(sample.rows) == 30
    assert sample.args == ("t", "x")
    for row in sample.rows:
        assert abs(sample.witness(row)["point"]["x"] - 1.0) >= 1e-6


def test_sampling_infeasible_domain_raises():
    rng = random.Random(0)
    domain = Domain(x=(0.5, 2.0), guards=(Guard(parse("-x"), positive=True),))
    with pytest.raises(InfeasibleDomainError):
        sample_points([parse("x")], domain, 5, rng)


def test_sampling_covers_guard_only_constants():
    rng = random.Random(3)
    domain = Domain(guards=(Guard(parse("q0*x")),))
    sample = sample_points([parse("x + t")], domain, 5, rng)
    assert sample.args == ("t", "x", ConstSym("q0"))
    assert all("q0" in sample.witness(row)["constants"] for row in sample.rows)


def test_sample_rows_functions_and_witness():
    """Rows hold the values of args, the given constants as passed; the
    functions are the instantiated expressions compiled over args."""
    rng = random.Random(1)
    e = parse("a*x + f1(t)'")
    sample = sample_points([e], Domain(), 3, rng, funcs={"f1": parse("t^2")}, constants={"a": Fraction(1, 2)})
    assert sample.args == ("t", "x", ConstSym("a"))
    (fn,) = sample.functions
    for row in sample.rows:
        t, x, a = row
        assert a == Fraction(1, 2) and isinstance(a, Fraction)
        assert fn(*row) == pytest.approx(x / 2 + 2 * t)
        assert sample.witness(row) == {
            "point": {"t": t, "x": x},
            "constants": {"a": 0.5},
            "instantiation": {"f1": "t^2"},
        }


def test_sample_functions_compile_on_first_use(monkeypatch):
    calls = []
    compile_expr = nullag.domain.compile_expr
    monkeypatch.setattr(nullag.domain, "compile_expr", lambda *a, **k: calls.append(a) or compile_expr(*a, **k))
    sample = sample_points([parse("x + t"), parse("x*t")], Domain(), 3, random.Random(0))
    assert calls == []
    (f, g), again = sample.functions, sample.functions
    assert again == (f, g) and len(calls) == 2
    t, x = sample.rows[0]
    assert (f(t, x), g(t, x)) == (x + t, x * t)
