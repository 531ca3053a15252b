"""Guarded sampling, structural guards, and instantiation rounds."""

import random

import pytest

from nullag import (
    Domain,
    Guard,
    InfeasibleDomainError,
    STANDARD_FUNCTIONS,
    collect_guards,
    parse,
    sample_points,
    to_string,
)
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
    rounds = instantiation_rounds(["f1", "f2"])
    assert len(rounds) == 6
    # distinct names never share an instantiation within a round
    for r in rounds:
        assert r["f1"] != r["f2"]
    # every name cycles through the whole set
    seen = {to_string(r["f1"]) for r in rounds}
    assert len(seen) == 6


def test_instantiation_rounds_empty():
    assert instantiation_rounds([]) == [{}]


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
    points = sample_points([parse("1/(x - 1)")], domain, 30, rng)
    assert len(points) == 30
    for b in points:
        assert abs(b.jets["x"] - 1.0) >= 1e-6


def test_sampling_infeasible_domain_raises():
    rng = random.Random(0)
    domain = Domain(x=(0.5, 2.0), guards=(Guard(parse("-x"), positive=True),))
    with pytest.raises(InfeasibleDomainError):
        sample_points([parse("x")], domain, 5, rng)


def test_sampling_covers_guard_only_constants():
    rng = random.Random(3)
    domain = Domain(guards=(Guard(parse("q0*x")),))
    points = sample_points([parse("x + t")], domain, 5, rng)
    assert all("q0" in b.constants for b in points)
