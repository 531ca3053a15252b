"""Tri-state expression equivalence: proven, numeric, or distinct.

The exact proof (expr.proven_zero of the difference) is sound but
incomplete.  It ends at the canonical zero, at a nonzero residue mod
2^61 - 1 that no clearing of denominators can bring to zero, or at the
difference with its denominators cleared.  When it fails, the fallback
samples seeded guarded points with all opaque functions instantiated from
the standard test set.  Reports are JSON-compatible and carry the seed,
tolerances, and instantiations used.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum

from . import expr as ex
from .domain import (
    DEFAULT_DOMAIN,
    Domain,
    InfeasibleDomainError,
    instantiation_rounds,
    sample_points,
)
from .expr import Expr, ZERO, proven_zero, sub, to_string

N_EQ = 50
EPS_EQ = 1e-9


class Verdict(str, Enum):
    PROVEN_EQUAL = "ProvenEqual"
    NUMERICALLY_EQUAL = "NumericallyEqual"
    DISTINCT = "Distinct"


@dataclass
class EquivalenceReport:
    verdict: Verdict
    seed: int = 0
    eps: float = EPS_EQ
    n_points: int = N_EQ
    instantiations: tuple[str, ...] = ()
    max_abs_diff: float = 0.0
    witness: dict | None = None

    def __bool__(self) -> bool:
        return self.verdict is not Verdict.DISTINCT

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "seed": self.seed,
            "eps": self.eps,
            "n_points": self.n_points,
            "instantiations": list(self.instantiations),
            "max_abs_diff": self.max_abs_diff,
            "witness": self.witness,
        }


def equivalent(
    e1: Expr,
    e2: Expr,
    domain: Domain = DEFAULT_DOMAIN,
    *,
    eps: float = EPS_EQ,
    seed: int = 0,
    constants: dict[str, float] | None = None,
) -> EquivalenceReport:
    """ProvenEqual when canonical forms agree (denominators cleared),
    NumericallyEqual when |e1-e2| <= eps*(1+|e1|) at N_EQ seeded guarded
    points per instantiation round, Distinct with a witness otherwise.
    Raises InfeasibleDomainError when a round has fewer than N_EQ sampled
    points that gave finite values of both sides: a verdict resting on a few
    points (the rest overflowed) decides nothing, and rounds that each
    compare a few points do not add up to one that compares enough."""
    if constants:
        # bind_constants is exact, so a proof never rests on float rounding;
        # the sampler still receives the values so that domain guards
        # mentioning them stay consistent
        e1 = ex.bind_constants(e1, constants)
        e2 = ex.bind_constants(e2, constants)
    difference = sub(e1, e2)
    if proven_zero(difference):
        return EquivalenceReport(Verdict.PROVEN_EQUAL, seed=seed, eps=eps)
    rng = random.Random(seed)
    rounds = instantiation_rounds([e1, e2], domain)
    insts = tuple(
        "{" + ", ".join(f"{k}={to_string(v)}" for k, v in r.items()) + "}" for r in rounds if r
    )
    max_diff = 0.0
    fewest = N_EQ
    for funcs in rounds:
        compared = 0
        sample = sample_points([e1, e2], domain, N_EQ, rng, funcs=funcs, constants=constants)
        f1, f2 = sample.functions
        for row in sample.rows:
            try:
                v1 = float(f1(*row))
                v2 = float(f2(*row))
            except (ArithmeticError, ValueError):
                continue
            if not (math.isfinite(v1) and math.isfinite(v2)):
                continue
            compared += 1
            diff = abs(v1 - v2)
            max_diff = max(max_diff, diff)
            if diff > eps * (1.0 + abs(v1)):
                return EquivalenceReport(
                    Verdict.DISTINCT,
                    seed=seed,
                    eps=eps,
                    instantiations=insts,
                    max_abs_diff=max_diff,
                    witness={**sample.witness(row), "lhs": v1, "rhs": v2, "abs_diff": diff},
                )
        fewest = min(fewest, compared)
    if fewest < N_EQ:
        raise InfeasibleDomainError(
            f"only {fewest} sampled point(s) gave finite values of both sides in a "
            f"round of {N_EQ} points ({len(rounds)} round(s)); each round needs {N_EQ}"
        )
    return EquivalenceReport(
        Verdict.NUMERICALLY_EQUAL,
        seed=seed,
        eps=eps,
        instantiations=insts,
        max_abs_diff=max_diff,
    )


def vanishes(
    e: Expr, domain: Domain = DEFAULT_DOMAIN, *, eps: float = EPS_EQ, seed: int = 0
) -> EquivalenceReport:
    return equivalent(e, ZERO, domain, eps=eps, seed=seed)
