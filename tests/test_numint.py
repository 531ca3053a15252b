"""Fixed-step integration, conservation drift, and trajectory comparison."""

import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, strategies as st

import nullag
from nullag import (
    DEFAULT_COMPARISON_CONSTANTS,
    DomainExit,
    Guard,
    IVP,
    NonFiniteState,
    NullPair,
    UnboundSymbolError,
    ZERO,
    collect_guards,
    compare,
    comparison_catalog,
    drift,
    integrate,
    invariant_values,
    parse,
    write_csv,
)
from nullag.numint import _CSV_MEMO, MAX_STEPS, Trajectory
from nullag.systems import classify_constant
from oracles import reference_integrate, reference_write_csv
from test_expr import _canonical_or_skip, _trees

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
    rep = drift(NullPair(ZERO, parse("10^300*x^2"), parse("-10^300*t^2")), traj)
    assert math.isnan(rep.max_abs_drift) and not rep.passed


@pytest.mark.parametrize(
    "f, error, t",
    [
        ("exp(1000*t)", NonFiniteState, 1.0),  # exp(500) is finite, exp(1000) overflows
        ("(t - 2)^(-1)", DomainExit, 2.0),  # ZeroDivisionError
        ("ln(2 - t)", DomainExit, 2.0),  # ValueError
    ],
)
def test_invariant_value_errors_carry_the_time_of_the_first_failing_row(f, error, t):
    traj = Trajectory((0.5, 1.0, 1.5, 2.0, 2.5), (1.0,) * 5, (0.0,) * 5, 0.5)
    with pytest.raises(error) as err:
        invariant_values(NullPair(ZERO, ZERO, parse(f)), traj)
    assert err.value.t == t


def test_tied_invariant_overflow_carries_its_time():
    """B0*exp(t)*(x + x') of the tied oscillator overflows once t passes
    ln(max float) = 709.78..., at the grid time 709.79."""
    case = classify_constant(0, 2, 1)
    traj = integrate(case.eom.ivp(0.0, 1.0, 0.0, 710.0, 0.01, constants={"B0": 1}))
    with pytest.raises(NonFiniteState) as err:
        invariant_values(case.null_pair, traj, constants={"B0": 1})
    assert err.value.t == traj.t[70979] == pytest.approx(709.79, abs=1e-9)


def test_step_count_is_capped():
    IVP(_tied_g(), 0.0, 1.0, 0.0, MAX_STEPS / 1024, 1 / 1024, constants={"B0": 1.0})
    with pytest.raises(ValueError, match="MAX_STEPS"):
        IVP(_tied_g(), 0.0, 1.0, 0.0, 1.0, 1e-300, constants={"B0": 1.0})


def test_import_leaves_numpy_out():
    code = "import sys, nullag, nullag.cli; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(nullag.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


def _outcome(integrator, ivp):
    """The trajectory's columns, or the exception type and its exit time."""
    try:
        traj = integrator(ivp)
    except nullag.ExprError as err:
        return type(err), getattr(err, "t", None)
    return traj.t, traj.x, traj.v


def test_domain_exit_carries_time():
    guard = Guard(parse("1 - x"), positive=True)
    ivp = IVP(ZERO, 0.0, 0.0, 2.0, 1.0, 0.1, guards=(guard,))
    with pytest.raises(DomainExit, match="left the guarded domain") as err:
        integrate(ivp)
    assert err.value.t == 0.5
    assert _outcome(integrate, ivp) == _outcome(reference_integrate, ivp)


def test_a_guard_that_raises_exits_at_the_step_time():
    # exp(1000*x) overflows once x = 2t passes 0.71, so the guard raises at
    # the state of t = 0.4; an error of the right-hand side would exit at 0.5
    ivp = IVP(ZERO, 0.0, 0.0, 2.0, 1.0, 0.1, guards=(Guard(parse("exp(1000*x)")),))
    with pytest.raises(DomainExit, match="left the guarded domain") as err:
        integrate(ivp)
    assert err.value.t == 0.4
    assert _outcome(integrate, ivp) == _outcome(reference_integrate, ivp)


def test_right_side_error_in_the_partial_last_step():
    # (51/50 - t)^(1/2) is undefined past t = 1.02, inside the last step 1 -> 1.05
    ivp = IVP(parse("(51/50 - t)^(1/2)"), 0.0, 0.0, 1.0, 1.05, 0.1)
    with pytest.raises(DomainExit, match="right-hand side undefined") as err:
        integrate(ivp)
    assert 1.0 < err.value.t == pytest.approx(1.05)
    assert _outcome(integrate, ivp) == _outcome(reference_integrate, ivp)


@pytest.mark.parametrize("g, guards", [
    ("a0*x", ()),
    ("x", (Guard(parse("x - b0")),)),
])
def test_unbound_constant_raises_before_any_step(g, guards):
    # only c1 is bound; a0 and b0 are left over
    ivp = IVP(parse(g), 0.0, 0.0, 1.0, 1.0, 0.1, constants={"c1": 1.0}, guards=guards)
    with pytest.raises(UnboundSymbolError):
        integrate(ivp)


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
    ivp = IVP(parse(g), 0.0, x0, -2.0, 1.0, 1e-3)
    with pytest.raises(error) as err:
        integrate(ivp)
    assert err.value.t == _outcome(reference_integrate, ivp)[1]
    assert err.value.t == (0.503 if error is NonFiniteState else 0.001)


CATALOG_ICS = {"inertia": (0.0, 0.0, 2.0), "quadratic": (0.0, 0.0, 2.0), "tied": (0.0, 1.0, 0.0)}


@pytest.mark.parametrize("system", sorted(CATALOG_ICS))
@pytest.mark.parametrize("guarded", [True, False])
def test_generated_stepper_matches_the_reference_bit_for_bit(system, guarded):
    constants = dict(DEFAULT_COMPARISON_CONSTANTS)
    # t1 = 2.005 ends in a partial step of 0.005
    args = (*CATALOG_ICS[system], 2.005, 0.01)
    for eom in comparison_catalog(system).routes().values():
        if guarded:
            ivp = eom.ivp(*args, constants=constants)
        else:
            ivp = IVP(eom.explicit(), *args, constants=constants)
        got = _outcome(integrate, ivp)
        assert got == _outcome(reference_integrate, ivp)
        assert len(got[0]) == 202 and got[0][-1] == 2.005


@given(
    _trees(2),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.booleans(),
)
def test_generated_stepper_matches_the_reference_on_drawn_right_sides(raw, x0, v0, guarded):
    g = _canonical_or_skip(raw)
    guards = collect_guards(g) if guarded else ()
    ivp = IVP(g, 0.0, x0, v0, 0.35, 0.1, constants={"a1": 0.75, "b0": -1.25}, guards=guards)
    assert _outcome(integrate, ivp) == _outcome(reference_integrate, ivp)


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


def _csv_bytes(writer, traj, invariant):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trajectory.csv")
        writer(path, traj, invariant)
        with open(path, "rb") as fh:
            return fh.read()


# signed zeros, NaN, infinities, subnormals and ints next to drawn doubles
_CSV_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1.5e-310]),
    st.integers(min_value=-(10**20), max_value=10**20),
)


@st.composite
def _csv_columns(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    t, x, v = (tuple(draw(st.lists(_CSV_VALUES, min_size=n, max_size=n))) for _ in range(3))
    # three values make up the L_null column, so most rows repeat one
    pool = draw(st.lists(_CSV_VALUES, min_size=3, max_size=3))
    invariant = tuple(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    return Trajectory(t, x, v, 1e-3), invariant


@given(_csv_columns())
def test_csv_bytes_equal_the_reference_writer(columns):
    traj, invariant = columns
    assert _csv_bytes(write_csv, traj, invariant) == _csv_bytes(reference_write_csv, traj, invariant)


def _grid(n):
    return Trajectory(tuple(k * 0.1 for k in range(n)), (1.0,) * n, (-0.5,) * n, 0.1)


@pytest.mark.parametrize(
    "invariant, column",
    [
        # a zero keeps its sign on every row, whichever sign comes first
        ((0.0, -0.0, 0.0), ["0.0", "-0.0", "0.0"]),
        ((-0.0, 0.0, -0.0, 0.0), ["-0.0", "0.0", "-0.0", "0.0"]),
        # an int and the float it equals are both printed as the float
        ((1, 1.0, 1, 2.5, 2.5), ["1.0", "1.0", "1.0", "2.5", "2.5"]),
        ((math.nan, 1e-300, math.nan, -math.inf, 1e-300), ["nan", "1e-300", "nan", "-inf", "1e-300"]),
    ],
)
def test_csv_l_null_column_edge_cases(invariant, column):
    traj = _grid(len(invariant))
    text = _csv_bytes(write_csv, traj, invariant)
    assert text == _csv_bytes(reference_write_csv, traj, invariant)
    assert [row.split(b",")[3].decode() for row in text.splitlines()[1:]] == column


def test_csv_column_past_the_memo_bound():
    # more distinct values than the writer keeps, then repeats of the first
    # ones (kept) and of the last ones (formatted again)
    distinct = [k / 7.0 for k in range(1, _CSV_MEMO + 50)]
    invariant = tuple(distinct + distinct[:20] + distinct[-20:] + [-0.0, distinct[0]])
    traj = _grid(len(invariant))
    assert _csv_bytes(write_csv, traj, invariant) == _csv_bytes(reference_write_csv, traj, invariant)


@pytest.mark.parametrize("delta", [-1, 1])
def test_csv_rejects_an_invariant_column_of_another_length(tmp_path, delta):
    traj = _grid(5)
    out = tmp_path / "trajectory.csv"
    with pytest.raises(ValueError, match="5 trajectory rows"):
        write_csv(out, traj, (2.0,) * (5 + delta))
    assert not out.exists()
