"""Fixed-step integration of derived equations of motion and conservation
monitoring of null Lagrangians along solutions.

The integrator is the classical 4th-order one-step method on the first-order
system (x, v); fixed steps keep grids exact (t_k = t0 + k*h) so conservation
drift and route-comparison checks are deterministic.  Along a solution of
an equation of motion derived from a certified null Lagrangian, the
Lagrangian value itself is a first integral; `drift` reports how well the
integrated trajectory preserves it.  Trajectories and invariant values are
tuples of Python floats.

`integrate` generates one Python function per IVP that runs the whole RK4
loop: the right-hand side is written out inline at each of the four stages
and the guards (`domain.guard_source`) are one `and` expression tested after
each step, so a step makes no function call for g or the guards.
`invariant_values` likewise generates one list comprehension with the body
of L_null inline.  Nothing generated is kept across calls.

`write_csv` formats the conserved L_null column once per distinct value
(a zero on every row, to keep its sign) and reuses the string; the t, x and
x' columns are formatted on every row.  The bytes are those of formatting
every value.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

from . import expr as ex
from .domain import DomainExit, Guard, guard_source
from .expr import Expr, _pysrc, bound_body, define
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

    integrate binds the given constants in g and in the guards and writes
    both into the stepper it generates; the guards are tested at t0 and at
    every accepted step.
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


# The whole RK4 loop of one IVP, generated by integrate.  {g1}..{g4} are the
# right-hand side on each stage's variables; the stage arithmetic is that of
# the classical method written out (k1x = v, k2x = v2, k3x = v3, k4x = v4).
# {test} is the guard test of the state (x, v, t) at t0, and {check} that
# test after each step (_CHECK, left out without guards): a guard that fails
# or raises exits at that state's time t.
_RK4 = """\
def f(x, v, t, t1, step, n_full, n_steps, remainder):
    try:
        inside = {test}
    except (ArithmeticError, ValueError):
        inside = False
    if not inside:
        raise DomainExit(f"initial state lies outside the guarded domain at t={{t:g}}", t)
    t0 = t
    ts = [t]
    xs = [x]
    vs = [v]
    try:
        for k in range(n_steps):
            h = step if k < n_full else remainder
            h2 = 0.5 * h
            k1v = {g1}
            x2 = x + h2 * v
            v2 = v + h2 * k1v
            t2 = t + h2
            k2v = {g2}
            x3 = x + h2 * v2
            v3 = v + h2 * k2v
            k3v = {g3}
            x4 = x + h * v3
            v4 = v + h * k3v
            t4 = t + h
            k4v = {g4}
            x, v = (
                x + h * (v + 2.0 * v2 + 2.0 * v3 + v4) / 6.0,
                v + h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0,
            )
            t = t0 + (k + 1) * step if k < n_full else t1
            if not (isfinite(x) and isfinite(v)):
                raise NonFiniteState(f"state became non-finite at t={{t:g}}", t)
{check}            ts.append(t)
            xs.append(x)
            vs.append(v)
    except OverflowError:
        raise NonFiniteState(f"state overflowed in the step to t={{t + h:g}}", t + h) from None
    except (ZeroDivisionError, ValueError) as err:
        raise DomainExit(f"right-hand side undefined ({{err}}) in the step to t={{t + h:g}}", t + h) from None
    return ts, xs, vs
"""

_CHECK = """\
            try:
                inside = {test}
            except (ArithmeticError, ValueError):
                inside = False
            if not inside:
                raise DomainExit(f"trajectory left the guarded domain at t={{t:g}}", t)
"""

_JETS = ("x", "xdot", "t")
_STAGES = (("x", "v", "t"), ("x2", "v2", "t2"), ("x3", "v3", "t2"), ("x4", "v4", "t4"))


def integrate(ivp: IVP) -> Trajectory:
    """Classical 4th-order fixed-step integration; local error O(h^5).

    Runs one function generated for this IVP, with g and the guards inlined.
    An initial state outside the guards raises DomainExit at t0.  A step
    that leaves the guards or where the right-hand side is undefined
    (ZeroDivisionError, ValueError) raises DomainExit; one that overflows
    raises NonFiniteState.  Both carry the time at the end of that step."""
    g = bound_body(ivp.g, _JETS, constants=ivp.constants)
    names = [dict(zip(_JETS, stage)) for stage in _STAGES]
    test = guard_source(ivp.guards, _JETS, constants=ivp.constants, names=names[0])
    run = define(
        _RK4.format(
            test=test,
            check=_CHECK.format(test=test) if ivp.guards else "",
            **{f"g{i}": _pysrc(g, stage) for i, stage in enumerate(names, 1)},
        ),
        isfinite=math.isfinite,
        DomainExit=DomainExit,
        NonFiniteState=NonFiniteState,
    )
    t0, x0, v0, t1, step = float(ivp.t0), float(ivp.x0), float(ivp.v0), float(ivp.t1), float(ivp.h)
    span = t1 - t0
    n_full = int(math.floor(span / step * (1.0 + 1e-12)))
    remainder = span - n_full * step
    has_partial = remainder > 1e-12 * max(1.0, abs(t1))
    ts, xs, vs = run(x0, v0, t0, t1, step, n_full, n_full + (1 if has_partial else 0), remainder)
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
    """Value of the assembled null Lagrangian at each trajectory point.  As in
    integrate, an overflow raises NonFiniteState and an undefined value
    DomainExit, with the time of the first row whose value fails."""
    body = bound_body(pair.assembled().body, _JETS, constants=constants)
    # a body with a jet is a float on float columns; a constant one may be an int
    value = _pysrc(body) if ex.free_atoms(body) else f"float({_pysrc(body)})"
    values = define(f"def f(xs, vs, ts):\n    return [{value} for x, xdot, t in zip(xs, vs, ts)]\n")
    try:
        return tuple(values(traj.x, traj.v, traj.t))
    except (OverflowError, ZeroDivisionError, ValueError):
        # only on this path is the failing row looked for, one row at a time
        for x, v, t in zip(traj.x, traj.v, traj.t):
            try:
                values((x,), (v,), (t,))
            except OverflowError:
                raise NonFiniteState(f"L_null overflowed at t={t:g}", t) from None
            except (ZeroDivisionError, ValueError) as err:
                raise DomainExit(f"L_null undefined ({err}) at t={t:g}", t) from None
        raise


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


# Most distinct L_null strings one write_csv call keeps; past it a new value
# is formatted on every row, so a column that never repeats stays bounded.
_CSV_MEMO = 4096


def write_csv(path, traj: Trajectory, invariant: tuple[float, ...]) -> None:
    """CSV rows t,x,xdot,L_null at full double precision (repr of each float).

    invariant holds one value per trajectory row; any other length raises
    ValueError before the file is opened.  Along a solution L_null is
    conserved, so its column repeats a few distinct doubles: each is
    formatted once and its string reused, which leaves the bytes unchanged.
    A zero is formatted on every row, because 0.0 == -0.0 would serve one
    sign's string for the other."""
    if len(invariant) != len(traj):
        raise ValueError(f"invariant has {len(invariant)} values for {len(traj)} trajectory rows")
    memo: dict[float, str] = {}
    with open(path, "w") as fh:
        fh.write("t,x,xdot,L_null\n")
        for t, x, v, L in zip(traj.t, traj.x, traj.v, invariant):
            L = float(L)
            text = memo.get(L)
            if text is None:
                text = repr(L)
                if L and len(memo) < _CSV_MEMO:
                    memo[L] = text
            fh.write(f"{float(t)!r},{float(x)!r},{float(v)!r},{text}\n")
