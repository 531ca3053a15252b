"""Fixed-step integration of derived equations of motion and conservation
monitoring of null Lagrangians along solutions.

The integrator is the classical 4th-order one-step method on the first-order
system (x, v); fixed steps keep grids exact (t_k = t0 + k*h) so conservation
drift and route-comparison checks are deterministic.  Along a solution of
an equation of motion derived from a certified null Lagrangian, the
Lagrangian value itself is a first integral; `drift` reports how well the
integrated trajectory preserves it.  Trajectories and invariant values are
tuples of Python floats.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Iterable

from . import expr as ex
from .domain import DomainExit, Guard, guard_predicate
from .expr import Expr, compile_expr
from .variational import NullPair

EPS_DRIFT = 1e-7
# Most steps one IVP may take; larger (t1 - t0)/h is rejected as an input.
MAX_STEPS = 1_000_000


class NonFiniteState(ex.ExprError):
    """Integration produced NaN or infinity; carries the step time."""

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


@dataclass(frozen=True)
class IVP:
    """Initial value problem xddot = g(x, xdot, t) on [t0, t1] with step h.

    integrate compiles g with the given constants; guards are checked, with
    the same constants, at every accepted step.
    """

    g: Expr
    t0: float
    x0: float
    v0: float
    t1: float
    h: float
    constants: dict | None = None
    guards: tuple[Guard, ...] = ()

    def __post_init__(self):
        for name in ("t0", "x0", "v0", "t1", "h"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.h > 0:
            raise ValueError("step h must be positive")
        if not self.t1 > self.t0:
            raise ValueError("horizon requires t1 > t0")
        steps = (self.t1 - self.t0) / self.h
        if steps > MAX_STEPS:
            raise ValueError(f"(t1 - t0)/h = {steps:g} steps exceeds MAX_STEPS = {MAX_STEPS}")


@dataclass
class Trajectory:
    """Uniformly sampled solution; t[k] = t0 + k*h exactly (the final step
    may be shorter to land on t1)."""

    t: tuple[float, ...]
    x: tuple[float, ...]
    v: tuple[float, ...]
    h: float

    def __len__(self) -> int:
        return len(self.t)

    @property
    def final_state(self) -> tuple[float, float, float]:
        return self.t[-1], self.x[-1], self.v[-1]


def integrate(ivp: IVP) -> Trajectory:
    """Classical 4th-order fixed-step integration; local error O(h^5).

    An initial state outside the guards raises DomainExit at t0.  A step
    that leaves the guards or where the right-hand side is undefined
    (ZeroDivisionError, ValueError) raises DomainExit; one that overflows
    raises NonFiniteState.  Both carry the time at the end of that step."""
    g = compile_expr(ivp.g, ("x", "xdot", "t"), constants=ivp.constants)
    guards = ivp.guards
    inside = guard_predicate(guards, ("x", "xdot", "t"), constants=ivp.constants)
    t0, x0, v0, t1, step = float(ivp.t0), float(ivp.x0), float(ivp.v0), float(ivp.t1), float(ivp.h)
    if guards and not inside(x0, v0, t0):
        raise DomainExit(f"initial state lies outside the guarded domain at t={t0:g}", t0)
    span = t1 - t0
    n_full = int(math.floor(span / step * (1.0 + 1e-12)))
    remainder = span - n_full * step
    has_partial = remainder > 1e-12 * max(1.0, abs(t1))
    ts = [t0]
    xs = [x0]
    vs = [v0]
    t, x, v = t0, x0, v0
    isfinite = math.isfinite
    try:
        for k in range(n_full + (1 if has_partial else 0)):
            h = step if k < n_full else remainder
            # one classical RK4 step, inline: with the small compiled right-hand
            # sides a function call per step is a measurable share of the step
            k1x = v
            k1v = g(x, v, t)
            k2x = v + 0.5 * h * k1v
            k2v = g(x + 0.5 * h * k1x, v + 0.5 * h * k1v, t + 0.5 * h)
            k3x = v + 0.5 * h * k2v
            k3v = g(x + 0.5 * h * k2x, v + 0.5 * h * k2v, t + 0.5 * h)
            k4x = v + h * k3v
            k4v = g(x + h * k3x, v + h * k3v, t + h)
            x, v = (
                x + h * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0,
                v + h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0,
            )
            t = t0 + (k + 1) * step if k < n_full else t1
            if not (isfinite(x) and isfinite(v)):
                raise NonFiniteState(f"state became non-finite at t={t:g}", t)
            if guards and not inside(x, v, t):
                raise DomainExit(f"trajectory left the guarded domain at t={t:g}", t)
            ts.append(t)
            xs.append(x)
            vs.append(v)
    except OverflowError:
        raise NonFiniteState(f"state overflowed in the step to t={t + h:g}", t + h) from None
    except (ZeroDivisionError, ValueError) as err:
        raise DomainExit(f"right-hand side undefined ({err}) in the step to t={t + h:g}", t + h) from None
    return Trajectory(tuple(ts), tuple(xs), tuple(vs), step)


@dataclass
class DriftReport:
    """Invariant values L_k along a trajectory and their drift from L_0."""

    initial: float
    max_abs_drift: float
    rel_drift: float
    eps: float
    passed: bool
    values: tuple[float, ...] = field(repr=False, default=None)

    def to_dict(self) -> dict:
        return {
            "initial": self.initial,
            "max_abs_drift": self.max_abs_drift,
            "rel_drift": self.rel_drift,
            "eps": self.eps,
            "passed": self.passed,
        }


def invariant_values(
    pair: NullPair,
    traj: Trajectory,
    *,
    constants: dict | None = None,
) -> tuple[float, ...]:
    """Value of the assembled null Lagrangian at each trajectory point."""
    fn = compile_expr(pair.assembled().body, ("x", "xdot", "t"), constants=constants)
    return tuple([float(fn(x, v, t)) for x, v, t in zip(traj.x, traj.v, traj.t)])


def drift(
    pair: NullPair,
    traj: Trajectory,
    *,
    eps: float = EPS_DRIFT,
    constants: dict | None = None,
) -> DriftReport:
    """Max |L_k - L_0| of the null-Lagrangian value along the trajectory;
    passes iff <= eps*(1 + |L_0|)."""
    values = invariant_values(pair, traj, constants=constants)
    initial = values[0]
    deviations = [abs(L - initial) for L in values]
    # max() passes over a NaN that is not the first item; the sum keeps it
    max_abs = math.nan if math.isnan(sum(deviations)) else max(deviations)
    rel = max_abs / (1.0 + abs(initial))
    return DriftReport(initial, max_abs, rel, eps, max_abs <= eps * (1.0 + abs(initial)), values)


@dataclass
class TrajectoryDeviation:
    max_dx: float
    max_dv: float

    def to_dict(self) -> dict:
        return {"max_dx": self.max_dx, "max_dv": self.max_dv}


def _max_deviation(p: tuple[float, ...], q: tuple[float, ...]) -> float:
    # equal tuples (the usual case: routes sharing one explicit form) differ
    # by exactly 0, so the elementwise pass is skipped for them
    return 0.0 if p == q else max(map(abs, map(operator.sub, p, q)))


def compare(a: Trajectory, b: Trajectory) -> TrajectoryDeviation:
    """Pointwise max deviations of two trajectories on identical grids."""
    if a.t != b.t:
        raise ValueError("trajectories must share the same time grid")
    return TrajectoryDeviation(_max_deviation(a.x, b.x), _max_deviation(a.v, b.v))


def write_csv(path, traj: Trajectory, invariant: Iterable[float]) -> None:
    """CSV rows t,x,xdot,L_null at full double precision."""
    with open(path, "w") as fh:
        fh.write("t,x,xdot,L_null\n")
        for t, x, v, L in zip(traj.t, traj.x, traj.v, invariant):
            fh.write(f"{float(t)!r},{float(x)!r},{float(v)!r},{float(L)!r}\n")
