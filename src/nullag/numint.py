"""Fixed-step integration of derived equations of motion and conservation
monitoring of null Lagrangians along solutions.

The integrator is the classical 4th-order one-step method on the first-order
system (x, v); fixed steps keep grids exact (t_k = t0 + k*h) so conservation
drift and route-comparison checks are deterministic.  Along a solution of
an equation of motion derived from a certified null Lagrangian, the
Lagrangian value itself is a first integral; `drift` reports how well the
integrated trajectory preserves it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from . import expr as ex
from .domain import DomainExit, Guard, guard_predicate
from .expr import Expr, compile_expr
from .variational import NullPair

EPS_DRIFT = 1e-7


class NonFiniteState(ex.ExprError):
    """Integration produced NaN or infinity; carries the step time."""

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


@dataclass(frozen=True)
class IVP:
    """Initial value problem xddot = g(x, xdot, t) on [t0, t1] with step h.

    g may be a compiled callable or an Expr (compiled with the given
    constants/funcs).  Guards are checked, with the same constants/funcs,
    at every accepted step.
    """

    g: Callable[[float, float, float], float] | Expr
    t0: float
    x0: float
    v0: float
    t1: float
    h: float
    constants: dict | None = None
    funcs: dict | None = None
    guards: tuple[Guard, ...] = ()

    def __post_init__(self):
        for name in ("t0", "x0", "v0", "t1", "h"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.h > 0:
            raise ValueError("step h must be positive")
        if not self.t1 > self.t0:
            raise ValueError("horizon requires t1 > t0")

    def right_side(self) -> Callable[[float, float, float], float]:
        if isinstance(self.g, Expr):
            return compile_expr(
                self.g, ("x", "xdot", "t"), funcs=self.funcs, constants=self.constants
            )
        return self.g


@dataclass
class Trajectory:
    """Uniformly sampled solution; t[k] = t0 + k*h exactly (the final step
    may be shorter to land on t1)."""

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    h: float
    integrator: str = "rk4"

    def __len__(self) -> int:
        return len(self.t)

    @property
    def final_state(self) -> tuple[float, float, float]:
        return float(self.t[-1]), float(self.x[-1]), float(self.v[-1])


def _rk4_step(g, t: float, x: float, v: float, h: float) -> tuple[float, float]:
    k1x = v
    k1v = g(x, v, t)
    k2x = v + 0.5 * h * k1v
    k2v = g(x + 0.5 * h * k1x, v + 0.5 * h * k1v, t + 0.5 * h)
    k3x = v + 0.5 * h * k2v
    k3v = g(x + 0.5 * h * k2x, v + 0.5 * h * k2v, t + 0.5 * h)
    k4x = v + h * k3v
    k4v = g(x + h * k3x, v + h * k3v, t + h)
    return (
        x + h * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0,
        v + h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0,
    )


def integrate(ivp: IVP) -> Trajectory:
    """Classical 4th-order fixed-step integration; local error O(h^5).

    An initial state outside the guards raises DomainExit at t0.  A step
    that leaves the guards or where the right-hand side is undefined
    (ZeroDivisionError, ValueError) raises DomainExit; one that overflows
    raises NonFiniteState.  Both carry the time at the end of that step."""
    g = ivp.right_side()
    guards = ivp.guards
    inside = guard_predicate(guards, ("x", "xdot", "t"), funcs=ivp.funcs, constants=ivp.constants)
    if guards and not inside(ivp.x0, ivp.v0, ivp.t0):
        raise DomainExit(f"initial state lies outside the guarded domain at t={ivp.t0:g}", ivp.t0)
    span = ivp.t1 - ivp.t0
    n_full = int(math.floor(span / ivp.h * (1.0 + 1e-12)))
    remainder = span - n_full * ivp.h
    has_partial = remainder > 1e-12 * max(1.0, abs(ivp.t1))
    ts = [ivp.t0]
    xs = [ivp.x0]
    vs = [ivp.v0]
    t, x, v = ivp.t0, ivp.x0, ivp.v0
    try:
        for k in range(n_full + (1 if has_partial else 0)):
            h = ivp.h if k < n_full else remainder
            x, v = _rk4_step(g, t, x, v, h)
            t = ivp.t0 + (k + 1) * ivp.h if k < n_full else ivp.t1
            if not (math.isfinite(x) and math.isfinite(v)):
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
    return Trajectory(np.asarray(ts), np.asarray(xs), np.asarray(vs), ivp.h)


@dataclass
class DriftReport:
    """Invariant values L_k along a trajectory and their drift from L_0."""

    initial: float
    max_abs_drift: float
    rel_drift: float
    eps: float
    passed: bool
    values: np.ndarray = field(repr=False, default=None)

    def to_dict(self) -> dict:
        return {
            "initial": self.initial,
            "max_abs_drift": self.max_abs_drift,
            "rel_drift": self.rel_drift,
            "eps": self.eps,
            "passed": self.passed,
        }


def invariant_values(
    pair_or_body: NullPair | Expr,
    traj: Trajectory,
    *,
    constants: dict | None = None,
    funcs: dict | None = None,
) -> np.ndarray:
    body = pair_or_body.assembled().body if isinstance(pair_or_body, NullPair) else pair_or_body
    fn = compile_expr(body, ("x", "xdot", "t"), funcs=funcs, constants=constants)
    return np.asarray([fn(x, v, t) for x, v, t in zip(traj.x, traj.v, traj.t)])


def drift(
    pair_or_body: NullPair | Expr,
    traj: Trajectory,
    *,
    eps: float = EPS_DRIFT,
    constants: dict | None = None,
    funcs: dict | None = None,
) -> DriftReport:
    """Max |L_k - L_0| of the null-Lagrangian value along the trajectory;
    passes iff <= eps*(1 + |L_0|)."""
    values = invariant_values(pair_or_body, traj, constants=constants, funcs=funcs)
    initial = float(values[0])
    max_abs = float(np.max(np.abs(values - initial)))
    rel = max_abs / (1.0 + abs(initial))
    return DriftReport(initial, max_abs, rel, eps, max_abs <= eps * (1.0 + abs(initial)), values)


@dataclass
class TrajectoryDeviation:
    max_dx: float
    max_dv: float

    def to_dict(self) -> dict:
        return {"max_dx": self.max_dx, "max_dv": self.max_dv}


def compare(a: Trajectory, b: Trajectory) -> TrajectoryDeviation:
    """Pointwise max deviations of two trajectories on identical grids."""
    if len(a) != len(b) or float(np.max(np.abs(a.t - b.t))) != 0.0:
        raise ValueError("trajectories must share the same time grid")
    return TrajectoryDeviation(
        float(np.max(np.abs(a.x - b.x))), float(np.max(np.abs(a.v - b.v)))
    )


def write_csv(path, traj: Trajectory, invariant: Iterable[float] | None = None) -> None:
    """CSV rows t,x,xdot,L_null at full double precision."""
    inv = list(invariant) if invariant is not None else [float("nan")] * len(traj)
    with open(path, "w") as fh:
        fh.write("t,x,xdot,L_null\n")
        for t, x, v, L in zip(traj.t, traj.x, traj.v, inv):
            fh.write(f"{float(t)!r},{float(x)!r},{float(v)!r},{float(L)!r}\n")
