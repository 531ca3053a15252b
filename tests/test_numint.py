"""Fixed-step integration, conservation drift, and trajectory comparison."""

import math
import os
import subprocess
import sys

import pytest

import nullag
from nullag import (
    DomainExit,
    Guard,
    IVP,
    NonFiniteState,
    NullPair,
    ZERO,
    compare,
    drift,
    integrate,
    invariant_values,
    parse,
    write_csv,
)
from nullag.numint import MAX_STEPS, Trajectory
from nullag.systems import classify_constant

TWO_OVER_E = 0.7357588823428847
LN_THREE = 1.0986122886681098


def _tied_g():
    return classify_constant(0, 2, 1).eom.explicit()


def _quad_g():
    return classify_constant(1, 0, 0).eom.explicit()


def test_free_motion_is_polynomially_exact():
    traj = integrate(IVP(ZERO, 0.0, 1.0, 2.0, 1.0, 0.1))
    assert traj.final_state[1] == pytest.approx(3.0, abs=1e-14)
    assert len(traj) == 11
    assert traj.t[3] == 0.1 * 3


def test_final_partial_step_lands_on_horizon():
    traj = integrate(IVP(ZERO, 0.0, 0.0, 1.0, 0.25, 0.1))
    assert traj.t[-1] == 0.25
    assert traj.final_state[1] == pytest.approx(0.25, abs=1e-14)


def test_tied_oscillator_against_closed_form():
    # x(t) = (1 + t) e^{-t} for coefficients (0, 2, 1) with x(0)=1, v(0)=0
    traj = integrate(IVP(_tied_g(), 0.0, 1.0, 0.0, 1.0, 1e-3, constants={"B0": 1.0}))
    assert traj.final_state[1] == pytest.approx(TWO_OVER_E, abs=1e-8)


def test_quadratic_damping_against_closed_form():
    # x(t) = ln(1 + 2t) for coefficient 1 with x(0)=0, v(0)=2
    traj = integrate(IVP(_quad_g(), 0.0, 0.0, 2.0, 1.0, 1e-3, constants={"B0": 1.0}))
    assert traj.final_state[1] == pytest.approx(LN_THREE, abs=1e-8)


def test_drift_of_inertia_invariant_is_zero():
    case = classify_constant(0, 0, 0)
    traj = integrate(IVP(case.eom.explicit(), 0.0, 0.0, 2.0, 1.0, 0.1, constants={"B0": 1.0}))
    report = drift(case.null_pair, traj, constants={"B0": 1.0})
    assert report.initial == pytest.approx(2.0)
    assert report.max_abs_drift == 0.0
    assert report.passed


def test_drift_of_quadratic_damping_invariant():
    case = classify_constant(1, 0, 0)
    traj = integrate(IVP(case.eom.explicit(), 0.0, 0.0, 2.0, 5.0, 1e-3, constants={"B0": 1.0}))
    report = drift(case.null_pair, traj, constants={"B0": 1.0})
    assert report.initial == pytest.approx(2.0)
    assert report.max_abs_drift <= 1e-8


def test_drift_of_tied_oscillator_invariant():
    case = classify_constant(0, 2, 1)
    traj = integrate(IVP(case.eom.explicit(), 0.0, 1.0, 0.0, 5.0, 1e-3, constants={"B0": 1.0}))
    report = drift(case.null_pair, traj, constants={"B0": 1.0})
    assert report.initial == pytest.approx(1.0)
    assert report.max_abs_drift <= 1e-8


def test_conservation_drift_scales_like_fourth_order():
    case = classify_constant(0, 2, 1)

    def max_drift(h):
        traj = integrate(IVP(case.eom.explicit(), 0.0, 1.0, 0.0, 1.0, h, constants={"B0": 1.0}))
        return drift(case.null_pair, traj, constants={"B0": 1.0}).max_abs_drift

    ratio = max_drift(0.02) / max_drift(0.01)
    assert 8.0 <= ratio <= 32.0


@pytest.mark.parametrize("system, ic, target", [
    ("tied", (1.0, 0.0), TWO_OVER_E),
    ("quad", (0.0, 2.0), LN_THREE),
])
def test_convergence_order_is_fourth(system, ic, target):
    g = _tied_g() if system == "tied" else _quad_g()

    def endpoint_error(h):
        traj = integrate(IVP(g, 0.0, ic[0], ic[1], 1.0, h, constants={"B0": 1.0}))
        return abs(traj.final_state[1] - target)

    ratio = endpoint_error(0.01) / endpoint_error(0.005)
    assert 14.0 <= ratio <= 18.0


def test_time_symmetry_of_inertia():
    forward = integrate(IVP(ZERO, 0.0, 0.3, 1.7, 5.0, 1e-2))
    t1, x1, v1 = forward.final_state
    backward = integrate(IVP(ZERO, 0.0, x1, -v1, 5.0, 1e-2))
    assert backward.final_state[1] == pytest.approx(0.3, abs=1e-10)
    assert -backward.final_state[2] == pytest.approx(1.7, abs=1e-10)


def test_route_comparison_is_exact_for_identical_right_sides():
    a = integrate(IVP(_tied_g(), 0.0, 1.0, 0.0, 2.0, 1e-2, constants={"B0": 1.0}))
    b = integrate(IVP(_tied_g(), 0.0, 1.0, 0.0, 2.0, 1e-2, constants={"B0": 2.0}))
    dev = compare(a, b)
    assert dev.max_dx == 0.0 and dev.max_dv == 0.0


def test_compare_rejects_grid_mismatch():
    a = integrate(IVP(ZERO, 0.0, 0.0, 1.0, 1.0, 0.1))
    b = integrate(IVP(ZERO, 0.0, 0.0, 1.0, 1.0, 0.05))
    with pytest.raises(ValueError):
        compare(a, b)


def test_compare_is_exact_on_plain_float_tuples():
    grid = (0.0, 0.5, 1.0)
    a = Trajectory(grid, (1.0, 2.0, 3.0), (0.5, 0.25, 0.125), 0.5)
    same = Trajectory(grid, (1.0, 2.0, 3.0), (0.5, 0.25, 0.125), 0.5)
    assert compare(a, same).to_dict() == {"max_dx": 0.0, "max_dv": 0.0}
    ulp = Trajectory(grid, (1.0, math.nextafter(2.0, 3.0), 3.0), (0.5, 0.25, 0.125), 0.5)
    assert compare(a, ulp).to_dict() == {"max_dx": math.ulp(2.0), "max_dv": 0.0}
    for t in ((0.0, 0.5, 1.5), (0.0, 0.5)):
        with pytest.raises(ValueError):
            compare(a, Trajectory(t, a.x[: len(t)], a.v[: len(t)], 0.5))


def test_trajectory_and_invariant_values_are_float_tuples():
    case = classify_constant(1, 0, 0)
    traj = integrate(IVP(case.eom.explicit(), 0, 0, 2, 1, 0.3, constants={"B0": 1}))
    values = invariant_values(case.null_pair, traj, constants={"B0": 1})
    for column in (traj.t, traj.x, traj.v, values):
        assert type(column) is tuple and len(column) == len(traj)
        assert {type(v) for v in column} == {float}
    assert traj.final_state == (1.0, traj.x[-1], traj.v[-1])
    assert drift(case.null_pair, traj, constants={"B0": 1}).values == values


def test_drift_keeps_a_nan_invariant_value():
    # 1e300*x^2 overflows to inf at x = 1e10, and inf - inf is nan
    traj = Trajectory((1.0, 1e10), (1.0, 1e10), (0.0, 0.0), 1.0)
    rep = drift(NullPair(ZERO, parse("10^300*x"), parse("-10^300*t^2")), traj)
    assert math.isnan(rep.max_abs_drift) and not rep.passed


def test_step_count_is_capped():
    IVP(_tied_g(), 0.0, 1.0, 0.0, MAX_STEPS / 1024, 1 / 1024, constants={"B0": 1.0})
    with pytest.raises(ValueError, match="MAX_STEPS"):
        IVP(_tied_g(), 0.0, 1.0, 0.0, 1.0, 1e-300, constants={"B0": 1.0})


def test_import_leaves_numpy_out():
    code = "import sys, nullag, nullag.cli; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(nullag.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


def test_domain_exit_carries_time():
    guard = Guard(parse("1 - x"), positive=True)
    with pytest.raises(DomainExit) as err:
        integrate(IVP(ZERO, 0.0, 0.0, 2.0, 1.0, 0.1, guards=(guard,)))
    assert 0.4 < err.value.t < 0.7


def test_initial_state_outside_guards_exits_at_t0():
    # the first step moves x off 0, so only a check at t0 sees the violation
    with pytest.raises(DomainExit) as err:
        integrate(IVP(ZERO, 0.0, 0.0, 1.0, 1.0, 0.1, guards=(Guard(parse("x")),)))
    assert err.value.t == 0.0


def test_non_finite_state_detected():
    with pytest.raises(NonFiniteState):
        integrate(IVP(parse("10^60*x^3"), 0.0, 10.0, 0.0, 2.0, 0.5))


@pytest.mark.parametrize(
    "g, x0, error",
    [
        ("1/x", 0.0, DomainExit),  # ZeroDivisionError at the first stage
        ("ln(x)", -1.0, DomainExit),  # ValueError
        ("x^(1/2)", -1.0, DomainExit),  # ValueError, not a complex value
        ("-x'^2", 0.0, NonFiniteState),  # OverflowError of x'^2 near the blow-up at t = 1/2
    ],
)
def test_right_side_arithmetic_errors_carry_the_step_time(g, x0, error):
    with pytest.raises(error) as err:
        integrate(IVP(parse(g), 0.0, x0, -2.0, 1.0, 1e-3))
    assert 0.0 < err.value.t <= 0.51


def test_csv_round_trip(tmp_path):
    case = classify_constant(1, 0, 0)
    traj = integrate(IVP(case.eom.explicit(), 0.0, 0.0, 2.0, 0.5, 0.1, constants={"B0": 1.0}))
    values = invariant_values(case.null_pair, traj, constants={"B0": 1.0})
    out = tmp_path / "trajectory.csv"
    write_csv(out, traj, values)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,x,xdot,L_null"
    assert len(lines) == len(traj) + 1
    parsed = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert parsed[0][3] == pytest.approx(2.0)
    # full double precision round trip
    assert parsed[-1][1] == traj.x[-1]
