"""Domain boxes, guard expressions, and seeded guarded sampling.

A Domain is a closed box for x and t together with guard expressions that
must stay nonzero (denominators) or positive (ln arguments) with a margin
EPS_GUARD.  `guard_source` is the one check of guards: sampling and the
action quadrature run it through `guard_predicate`, and the integrator
inlines it in its generated stepper.  Sampling rejects candidate points
that violate any guard; the box VELOCITY supplies values for
xdot/xddot/xdddot and named constants are drawn away from zero so that
generic nonvanishing factors stay generic.

`Sample`, which `sample_points` returns, is the one point format of the
numeric checks, and `instantiation_rounds` the one rule for the opaque
functions they instantiate: those of the expressions and the domain guards.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

from . import expr as ex
from .expr import Apply, ConstSym, Expr, Power, Sum, Product, _pysrc, compile_expr
from .parser import parse

# margin by which guarded quantities must stay away from their singular sets
EPS_GUARD = 1e-6


class InfeasibleDomainError(ex.ExprError):
    """The sampler could not find guarded points in the domain box."""


class DomainExit(ex.ExprError):
    """A path or trajectory left the guarded domain; carries the exit time."""

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


@dataclass(frozen=True)
class Guard:
    expr: Expr
    positive: bool = False


@dataclass(frozen=True)
class Domain:
    x: tuple[float, float] = (0.5, 2.0)
    t: tuple[float, float] = (0.5, 2.0)
    guards: tuple[Guard, ...] = ()

    def __post_init__(self):
        for name in ("x", "t"):
            box = getattr(self, name)
            try:
                lo, hi = box
                valid = math.isfinite(lo) and math.isfinite(hi) and lo < hi
            except (TypeError, ValueError):
                valid = False
            if not valid:
                raise ValueError(f"{name} box must be a finite lo,hi with lo < hi, got {box}")

    def with_guards(self, *guards: Guard) -> "Domain":
        return Domain(self.x, self.t, self.guards + tuple(guards))


DEFAULT_DOMAIN = Domain()
# The box from which xdot, xddot and xdddot are sampled.
VELOCITY = (-2.0, 2.0)
# Candidates the sampler draws per requested point before giving up.
MAX_TRIES_PER_POINT = 400

# Instantiations used for numeric checks of expressions with opaque functions.
STANDARD_FUNCTIONS: tuple[Expr, ...] = (
    parse("1"),
    parse("t"),
    parse("t^2"),
    parse("exp(t/2)"),
    parse("sin(t)"),
    parse("1 + t^2"),
)


def collect_guards(e: Expr) -> tuple[Guard, ...]:
    """Guards implied by the structure of e, repeats included: ln arguments
    positive, fractional-power bases positive, negative-power bases nonzero."""
    found: list[Guard] = []

    def walk(e: Expr) -> None:
        if isinstance(e, Apply):
            if e.func == "ln":
                found.append(Guard(e.arg, positive=True))
            walk(e.arg)
        elif isinstance(e, Power):
            if e.exponent < 0 or e.exponent.denominator != 1:
                found.append(Guard(e.base, positive=e.exponent.denominator != 1))
            walk(e.base)
        elif isinstance(e, Sum):
            for t in e.terms:
                walk(t)
        elif isinstance(e, Product):
            for f in e.factors:
                walk(f)

    walk(e)
    return tuple(found)


def instantiation_rounds(exprs: Iterable[Expr], domain: Domain) -> list[dict[str, Expr]]:
    """All six standard-test-set assignments for the opaque functions of
    exprs and of the domain guards, in sorted order of their names.

    Round r maps the j-th name to STANDARD_FUNCTIONS[(j + r) % 6], so names
    receive distinct instantiations within a round; this keeps identities
    that only hold when two opaque functions coincide from masking checks.
    """
    names = sorted(set().union(*map(ex.func_names, (*exprs, *(g.expr for g in domain.guards)))))
    k = len(STANDARD_FUNCTIONS)
    return [
        {name: STANDARD_FUNCTIONS[(j + r) % k] for j, name in enumerate(names)}
        for r in range(k if names else 1)
    ]


def unique_guards(guards: Iterable[Guard]) -> tuple[Guard, ...]:
    """Each guard expression once, at its first position; a positive guard
    supersedes a nonzero one on the same expression."""
    kept: dict[tuple, Guard] = {}
    for g in guards:
        key = ex.sort_key(g.expr)
        if key not in kept or g.positive:
            kept[key] = g
    return tuple(kept.values())


def guard_source(
    guards: Iterable[Guard],
    args: Iterable[str | ConstSym],
    *,
    funcs: dict[str, Expr] | None = None,
    constants: dict[str, float] | None = None,
    names: dict[str, str] | None = None,
) -> str:
    """Python source of one `and` expression over args that checks the
    guards and the structural guards (collect_guards) inside their
    expressions, each expression once: EPS_GUARD <= |g| < inf, or
    EPS_GUARD <= g < inf for a positive guard.  names is passed to _pysrc;
    the source needs math and inf (expr.define provides both).  An atom of
    a guard that is not in args raises UnboundSymbolError."""
    args = tuple(args)
    found = unique_guards(Guard(ex.instantiate(g.expr, funcs), g.positive) for g in guards)
    checks = []
    for g in unique_guards(found + tuple(s for g in found for s in collect_guards(g.expr))):
        value = _pysrc(ex.bound_body(g.expr, args, constants=constants), names)
        checks.append(f"{EPS_GUARD!r} <= {value if g.positive else f'abs({value})'} < inf")
    return " and ".join(checks) or "True"


def guard_predicate(
    guards: Iterable[Guard],
    args: Iterable[str | ConstSym],
    *,
    funcs: dict[str, Expr] | None = None,
    constants: dict[str, float] | None = None,
) -> Callable[..., bool]:
    """guard_source compiled to a predicate of args.  An arithmetic error
    counts as a failed guard.  This and the integrator, which inlines the
    same source, are the only places guards are evaluated."""
    args = tuple(args)
    test = guard_source(guards, args, funcs=funcs, constants=constants)
    return ex.define(
        f"def f({ex.signature(args)}):\n"
        f"    try:\n"
        f"        return {test}\n"
        f"    except (ArithmeticError, ValueError):\n"
        f"        return False\n"
    )


@dataclass(frozen=True)
class Sample:
    """The guarded points of one sample_points call: each row holds the
    values of args (jet names, then named constants as ConstSym) at one
    point, and exprs are the sampled expressions with funcs substituted."""

    funcs: dict[str, Expr]
    args: tuple[str | ConstSym, ...]
    rows: tuple[tuple, ...]
    exprs: tuple[Expr, ...]

    @cached_property
    def functions(self) -> tuple[Callable[..., float], ...]:
        """exprs compiled over args, on first use (a feasibility check needs
        only the rows).  Arithmetic errors of the functions propagate."""
        return tuple(compile_expr(e, self.args) for e in self.exprs)

    def witness(self, row: tuple) -> dict:
        """The point, constants and instantiation of row, as reports print them."""
        return {
            "point": {a: float(v) for a, v in zip(self.args, row) if isinstance(a, str)},
            "constants": {a.name: float(v) for a, v in zip(self.args, row) if isinstance(a, ConstSym)},
            "instantiation": {k: ex.to_string(v) for k, v in self.funcs.items()},
        }


def sample_points(
    exprs: list[Expr],
    domain: Domain,
    n: int,
    rng: random.Random,
    *,
    funcs: dict[str, Expr] | None = None,
    constants: dict[str, float] | None = None,
) -> Sample:
    """Draw n guarded points for the free atoms of exprs.

    Jets and t are drawn from the domain boxes, unbound named constants
    from +/-[0.5, 2], and each candidate is rejected unless every domain
    guard and every structural guard of the (instantiated) expressions
    holds.  The given constants enter each row as passed."""
    constants = dict(constants or {})
    inst = [ex.instantiate(e, funcs) for e in exprs]
    guards = [Guard(ex.instantiate(g.expr, funcs), g.positive) for g in domain.guards]
    everything = inst + [g.expr for g in guards]
    guards += [g for e in inst for g in collect_guards(e)]
    jet_names = sorted(set().union({"t"}, *(ex.free_jets(e) for e in everything)))
    const_free = sorted(set().union(*(ex.const_names(e) for e in everything)) - set(constants))
    args = (*jet_names, *map(ConstSym, (*constants, *const_free)))
    inside = guard_predicate(guards, args)
    boxes = [domain.x if name == "x" else domain.t if name == "t" else VELOCITY for name in jet_names]
    given = tuple(constants.values())

    rows: list[tuple] = []
    tries = 0
    limit = MAX_TRIES_PER_POINT * n
    while len(rows) < n and tries < limit:
        tries += 1
        jets = [rng.uniform(*box) for box in boxes]
        free = [rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0) for _ in const_free]
        if inside(*jets, *given, *free):
            rows.append((*jets, *given, *free))
    if len(rows) < n:
        shown = list(dict.fromkeys(ex.to_string(g.expr) for g in guards))
        raise InfeasibleDomainError(
            f"found only {len(rows)}/{n} guarded sample points in {tries} tries; guards: {shown}"
        )
    return Sample(dict(funcs or {}), args, tuple(rows), tuple(inst))
