"""Command-line surface: reports, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import nullag.construct
import nullag.numint
from nullag import Domain, Verdict, ZERO, equivalent, gamma_from_beta, mul, parse, pow_, to_string
from nullag.cli import main
from test_systems import _node_count


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_derive_linear_family(capsys):
    code, report, _ = run_json(
        capsys, "derive", "--B", "f1(t)*x + f2(t)*t + f3(t)", "--f", "f4(t)"
    )
    assert code == 0
    assert report["C"] == "f2(t) + f3(t)' + 1/2*x*f1(t)' + t*f2(t)'"
    assert report["nullity"] == "ProvenNull"
    assert report["version"]
    assert report["seed"] == 0


def test_derive_trivial_constant(capsys):
    code, report, _ = run_json(capsys, "derive", "--B", "1")
    assert code == 0
    assert report["lagrangian"] == "x'"


def test_derive_quadratic_damping_pair(capsys):
    code, report, _ = run_json(capsys, "derive", "--B", "B0*exp(a0*x)")
    assert code == 0
    assert report["C"] == "0"
    assert report["lagrangian"] == "x'*B0*exp(x*a0)"


def test_derive_batch_spec_file(capsys, tmp_path):
    records = [
        {"kind": "generating", "B": "f1(t)*x + f2(t)*t + f3(t)", "f": "f4(t)"},
        {
            "kind": "fraction",
            "f1": "a1",
            "f2": "a2",
            "f3": "0",
            "f4": "a4",
            "domain": {"x": [0.5, 2.0], "t": [0.5, 2.0]},
            "guards": [{"expr": "a2*x + a4", "positive": True}],
        },
    ]
    spec = tmp_path / "corpus.json"
    spec.write_text(json.dumps(records))
    code, report, _ = run_json(capsys, "derive", "--spec-file", str(spec))
    assert code == 0
    assert len(report["results"]) == 2
    assert report["results"][1]["lagrangian"] == "x'*a1/(a4 + x*a2)"
    assert report["results"][1]["gauge"] != "not reconstructed"


def test_verify_null_fraction(capsys):
    code, report, _ = run_json(
        capsys, "verify", "a1*x'/(a2*x + a4)", "--guard", "+a2*x + a4"
    )
    assert code == 0
    assert report["verdict"] == "ProvenNull"


def test_verify_kinetic_energy_fails_with_witness(capsys):
    code, report, _ = run_json(capsys, "verify", "1/2*x'^2")
    assert code == 2
    assert report["verdict"] == "NotNull"
    assert report["equivalence"]["witness"] is not None


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "verify", "x' +")
    assert code == 3
    assert "input error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "x'", "--bogus"],
        ["harmonic", "--B", "x"],
        ["verify", "x'", "--x-box", "-1,1"],
        ["simulate", "--system", "tied", "--ic", "-1,0,1", "--t1", "0.01"],
    ],
)
def test_usage_error_is_an_input_error(capsys, argv):
    # argparse's own exit 2 would read as a verification failure
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 3
    assert "input error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["verify", "--help"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 0
    capsys.readouterr()


def test_a_negative_leading_value_is_read_after_equals(capsys):
    assert main(["verify", "x'", "--x-box=-1,1"]) == 0
    assert main(["simulate", "--system", "tied", "--ic=-1,0,1", "--t1", "0.01"]) == 0
    capsys.readouterr()


def test_harmonic_command(capsys):
    code, report, _ = run_json(
        capsys, "harmonic", "--B", "f1(t)*x + f2(t)*t + f3(t)", "--f", "f4(t)", "--n", "1"
    )
    assert code == 0
    assert report["harmonic"]["order"] == 1
    assert report["nullity"] == "ProvenNull"


def test_eom_from_lagrangian(capsys):
    code, report, _ = run_json(capsys, "eom", "--L", "1/2*x'^2*exp(2*a0*x)")
    assert code == 0
    assert report["eom"]["provenance"] == "euler-lagrange"
    assert report["eom"]["explicit"] == "x'' = -a0*x'^2"


def test_eom_residual_merges_a_power_of_a_power(capsys):
    # d/dx ln((1/x^2)^(1/2)) runs through (x^-2)^(-1) = x^2, which must merge
    # with the x^-3 beside it into 1/x
    code, out, _ = run(capsys, "eom", "--L", "x'^2/2 + ln((1/x^2)^(1/2))")
    assert code == 0
    assert "eom.residual: x'' + 1/x\n" in out
    assert "eom.explicit: x'' = -1/x\n" in out


def test_eom_from_pair_with_composition(capsys):
    code, report, _ = run_json(
        capsys, "eom", "--B", "B0*exp(a0*x)", "--compose", "reciprocal"
    )
    assert code == 0
    assert report["eom"]["provenance"] == "composition"
    assert report["eom"]["explicit"] == "x'' = -a0*x'^2"
    assert report["permissible"] in ("ok", "conditional")


def test_eom_compose_checks_the_range_guard(capsys):
    """ln(-x'^2) is defined nowhere: the composer's range guard is checked
    before any equation of motion is printed."""
    code, out, err = run(capsys, "eom", "--L=-x'^2", "--compose", "ln", "--json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: range guard of ln leaves no feasible points")


def test_compose_names_a_witness_where_the_inner_lagrangian_overflows(capsys):
    """10^400*e^x*x' overflows at every point: the sampled point is still
    the witness, without the inner value it cannot give."""
    code, out, err = run(capsys, "eom", "--B", "10^400*exp(x)", "--compose", "ln")
    assert code == 2
    assert out == ""
    assert "witness {'point':" in err and "inner_value" not in err
    assert "Traceback" not in err


def test_system_constant_tied(capsys):
    code, report, _ = run_json(
        capsys, "system", "constant", "--alpha", "0", "--beta", "2", "--gamma", "1"
    )
    assert code == 0
    system = report["system"]
    assert system["classification"] == "DampedOscillatorTied"
    assert system["eom"]["explicit"] == "x'' = -2*x' - x"


def test_system_constant_harmonic_oscillator_witness(capsys):
    code, report, _ = run_json(
        capsys, "system", "constant", "--alpha", "0", "--beta", "0", "--gamma", "1"
    )
    assert code == 0
    system = report["system"]
    assert system["classification"] == "NoNullLagrangian"
    assert system["absent_witness"] is not None


def test_system_timedep(capsys):
    code, report, _ = run_json(
        capsys, "system", "timedep", "--beta1", "2/t", "--gamma1", "0",
        "--t-box", "1,3",
    )
    assert code == 0
    assert report["system"]["classification"] == "TimeDependentOscillator"
    assert report["system"]["B"] == "t*B0"


def test_system_displacement(capsys):
    code, report, _ = run_json(
        capsys, "system", "displacement", "--alpha2", "1/x", "--beta0", "2",
        "--ctilde", "0",
    )
    assert code == 0
    assert report["system"]["classification"] == "DisplacementDependent"
    assert report["system"]["eom"]["explicit"] == "x'' = -2*x' - x'^2/x - 1/2*x"


def test_simulate_quadratic_damping(capsys, tmp_path):
    csv_path = tmp_path / "traj.csv"
    code, report, _ = run_json(
        capsys,
        "simulate", "--system", "quadratic", "--a0", "1",
        "--ic", "0,0,2", "--h", "1e-3", "--t1", "1", "--csv", str(csv_path),
    )
    assert code == 0
    assert abs(report["final_state"]["x"] - 1.0986122886681098) < 1e-8
    assert report["drift"]["passed"]
    assert report["drift"]["max_abs_drift"] <= 1e-8
    header = csv_path.read_text().splitlines()[0]
    assert header == "t,x,xdot,L_null"


def test_simulate_tied_oscillator(capsys):
    code, report, _ = run_json(
        capsys,
        "simulate", "--system", "tied", "--beta0", "2",
        "--ic", "0,1,0", "--h", "1e-3", "--t1", "1",
    )
    assert code == 0
    assert abs(report["final_state"]["x"] - 0.7357588823428847) < 1e-8
    assert report["drift"]["passed"]


def test_compare_routes(capsys):
    code, report, _ = run_json(
        capsys, "compare", "--system", "quadratic", "--ic", "0,0,2", "--h", "1e-3",
        "--t1", "5",
    )
    assert code == 0
    assert report["passed"]
    assert report["max_deviation"] <= 1e-8


def test_audit_command(capsys):
    code, report, _ = run_json(capsys, "audit")
    assert code == 0
    assert report["all_discrepancies_detected"]
    assert report["machine_forms_null"]
    names = {f["name"] for f in report["findings"]}
    assert {
        "oscillator_gauge_scale",
        "displacement_exponent_sign",
        "fraction_family_transcription",
        "oscillator_reciprocity",
    } <= names


def test_reports_are_deterministic_given_seed(capsys):
    _, first, _ = run_json(capsys, "verify", "sin(x)*x'", "--seed", "5")
    _, second, _ = run_json(capsys, "verify", "sin(x)*x'", "--seed", "5")
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ("compare", "--system", "inertia", "--ic", "0,1,0", "--t1", "1"),
        ("simulate", "--system", "quadratic", "--a0", "1", "--ic", "0,0,-2", "--t1", "1"),
        ("eom", "--B", "0", "--compose", "ln"),
        # L_null overflows: exp(t) past t = 709.78, exp(x) at x0 = 1e300, B0 = 1e400 at t0
        ("simulate", "--system", "tied", "--ic=0,1,0", "--t1", "1500", "--h", "0.01"),
        ("simulate", "--system", "quadratic", "--ic=0,1e300,1", "--t1", "1"),
        ("simulate", "--system", "inertia", "--ic=0,1,0", "--t1", "1", "--B0", "1e400"),
        ("verify", "x'^2*x + exp(exp(exp(exp(exp(x)))))"),  # every sampled point overflows
        # x^999999 overflows for x > 1: too few points are left to decide
        ("verify", "x^1000000"),
        # each of the six instantiation rounds compares too few points, and
        # the rounds do not add up to one that compares enough
        ("verify", "f1(t)*x^1000000"),
    ],
)
def test_arithmetic_failures_exit_2_without_traceback(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("eom", "--B", "x*t", "--compose", "power:100000"),
        ("verify", "(x+t+x')^100000"),
        ("verify", "(x*t)^(100000001/2)"),
    ],
)
def test_huge_powers_end_quickly_without_traceback(argv):
    """A sum to a huge power is refused before it is expanded, and a product
    to a huge fractional power is raised by its exponents, not multiplied
    out; a subprocess so that a regression times out instead of hanging."""
    code = "import sys; from nullag.cli import main; sys.exit(main(sys.argv[1:]))"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(nullag.__file__))}
    out = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=10
    )
    assert out.returncode in (2, 3)
    assert "Traceback" not in out.stderr


INERTIA_NONSTANDARD = "1/(C1*(a0*t + v0)^2*((a0*t + v0)*x' - a0*x + C2))"


def test_eom_reports_keep_residual_and_leading(capsys):
    _, report, _ = run_json(capsys, "eom", "--L", "1/(x'*exp(a0*x) + 1)")
    assert report["eom"]["residual"] == (
        "2*x''*exp(2*x*a0)*(1 + x'*exp(x*a0))^(-3) + 2*a0*exp(2*x*a0)*x'^2*(1 + x'*exp(x*a0))^(-3)"
    )
    assert report["eom"]["leading"] == "2*exp(2*x*a0)*(1 + x'*exp(x*a0))^(-3)"
    assert report["eom"]["explicit"] == "x'' = -a0*x'^2"
    _, report, _ = run_json(capsys, "eom", "--B", "B0*exp(a0*x)", "--compose", "reciprocal")
    assert report["eom"]["residual"] == "2*x''*exp(-x*a0)/x'^3/B0 + 2*a0*exp(-x*a0)/x'/B0"
    assert report["eom"]["leading"] == "2*exp(-x*a0)/x'^3/B0"
    _, report, _ = run_json(capsys, "eom", "--L", INERTIA_NONSTANDARD)
    digests = {k: hashlib.sha256(report["eom"][k].encode()).hexdigest()[:16] for k in ("residual", "leading")}
    assert digests == {"residual": "6f766a66492dcf34", "leading": "af5c666786113f42"}
    assert report["eom"]["explicit"] == "x'' = 0"
    # the divisor keeps its factors C1, (a0*t + v0)^2 and the linear one;
    # inverted after expansion, it gives a residual of 2,143 nodes
    assert _node_count(parse(report["eom"]["residual"])) <= 200


def test_a_power_of_a_sum_verifies_the_same_written_as_a_divisor(capsys):
    for extra, expected in (((), 0), (("--eps-eq", "0"), 2)):
        divided = run(capsys, "verify", "1/(x+t)^300*x'", *extra)
        powered = run(capsys, "verify", "(x+t)^(-300)*x'", *extra)
        assert divided == powered and divided[0] == expected


def test_quadratic_compare_starting_on_the_guard_exits_2(capsys):
    # x' * exp(a0*x) + 1 = 0 at x = 0, x' = -1: the nonstandard route's guard
    code, _, err = run(capsys, "compare", "--system", "quadratic", "--ic", "0,0,-1", "--t1", "1")
    assert code == 2
    assert err.startswith("error: ") and "guarded domain at t=0" in err


@pytest.mark.parametrize(
    "beta, gamma", [("0.2", "0.01"), ("0.1", "0.0025"), ("1e-1", "25e-4"), (".2", "1/100")]
)
def test_system_constant_reads_exact_decimals(capsys, beta, gamma):
    code, report, _ = run_json(
        capsys, "system", "constant", "--alpha", "0", "--beta", beta, "--gamma", gamma
    )
    assert code == 0
    assert report["system"]["classification"] == "DampedOscillatorTied"


def test_simulate_tied_gamma_is_exact(capsys):
    code, report, _ = run_json(
        capsys, "simulate", "--system", "tied", "--beta0", "0.2", "--ic", "0,1,0", "--t1", "0.1"
    )
    assert code == 0
    assert report["explicit"] == "x'' = -1/5*x' - 1/100*x"


@pytest.mark.parametrize("a0", ["x", "inf", "nan", "1/0"])
def test_simulate_non_number_is_an_input_error(capsys, a0):
    code, _, err = run(capsys, "simulate", "--system", "quadratic", "--a0", a0, "--ic", "0,0,1", "--t1", "1")
    assert code == 3
    assert err.startswith("input error: ")


def test_simulate_compiles_the_invariant_once(capsys, tmp_path, monkeypatch):
    compiled = []
    original = nullag.numint.define

    def counting(src, **env):
        compiled.append(src)
        return original(src, **env)

    monkeypatch.setattr(nullag.numint, "define", counting)
    code, _, _ = run(
        capsys, "simulate", "--system", "quadratic", "--ic", "0,0,2", "--t1", "0.1",
        "--csv", str(tmp_path / "traj.csv"),
    )
    assert code == 0
    assert len(compiled) == 2  # the stepper and L_null


@pytest.mark.parametrize(
    "record",
    [
        {"B": "x", "guards": [{}]},
        {"B": "x", "domain": 5},
        {"B": 5},
        {"B": "x", "domain": {"x": 5}},
        {"B": "x", "guards": ["x"]},
        {"B": "x", "guards": {"expr": "x"}},
        {"B": "x", "kind": "fractoin"},
        {"B": "x", "guards": [{"expr": "x", "positive": "no"}]},
        {"kind": "fraction", "f1": "a1", "f2": ["a2"]},
        {"B": "x", "f": 1},
        {"B": "x", "domain": {"t": [0, True]}},
        {"B": "x", "domain": {"x": [0.5, 10**400]}},
    ],
)
def test_malformed_spec_record_is_an_input_error(capsys, tmp_path, record):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps([record]))
    code, out, err = run(capsys, "derive", "--spec-file", str(spec))
    assert code == 3
    assert out == ""
    assert err.startswith("input error: spec record ") and "Traceback" not in err


@pytest.mark.parametrize(
    "record, key",
    [
        ({"B": "x", "domain": {"x": [0.5, 2.0], "T": [-3, -2]}}, "'T'"),
        ({"B": "x", "guard": [{"expr": "x", "positive": True}]}, "'guard'"),
        ({"B": "x", "guards": [{"expr": "x", "postive": True}]}, "'postive'"),
    ],
    ids=["domain", "field", "guard"],
)
def test_spec_record_with_an_unknown_key_is_an_input_error(capsys, tmp_path, record, key):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps([record]))
    code, out, err = run(capsys, "derive", "--spec-file", str(spec))
    assert code == 3
    assert out == ""
    assert err.startswith(f"input error: spec record {json.dumps(record)} has ") and key in err


@pytest.mark.parametrize(
    "record, code, problem",
    [
        ({"B": "x^"}, 3, "input error: {}: expected exponent (at position 2)"),
        ({"B": "x", "domain": {"x": [2, 1]}}, 3, "input error: {}: x box must be a finite lo,hi"),
        ({"kind": "fraction", "f1": "x", "f2": "1"}, 3, "input error: {}: f1 may not contain ['x']"),
        ({"B": "x'"}, 3, "input error: {}: B may not contain ['xdot']"),
        ({"kind": "fraction", "f1": "1", "f2": "0"}, 3, "input error: {}: f2*x + f3*t + f4 is identically zero"),
    ],
    ids=["parse", "box", "fraction-f1", "B-jets", "denominator"],
)
def test_spec_record_names_itself_on_derivation_errors(capsys, tmp_path, record, code, problem):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps([{"B": "x^2"}, record]))
    got, out, err = run(capsys, "derive", "--spec-file", str(spec))
    assert got == code
    assert out == ""
    assert err.startswith(problem.format(f"spec record {json.dumps(record)}"))


def test_verify_instantiates_functions_only_a_guard_names(capsys):
    code, report, err = run_json(capsys, "verify", "x'^2*f2(t)", "--guard", "+f1(t)")
    assert code == 2
    assert err == ""
    assert report["verdict"] == "NotNull"
    assert set(report["equivalence"]["witness"]["instantiation"]) == {"f1", "f2"}


def test_eom_permissibility_instantiates_functions_only_a_guard_names(capsys):
    """A guard can only shrink the domain, so it cannot turn "ok" into
    "conditional" by naming a function the factor lacks."""
    argv = ("eom", "--B", "f1(t)*x", "--compose", "reciprocal")
    for extra in ((), ("--guard", "+f2(t)")):
        code, report, _ = run_json(capsys, *argv, *extra)
        assert code == 0
        assert report["permissible"] == "ok"


_FUNCTION_TERMS = st.sampled_from(["x'^2", "x*x'", "x'", "x^2", "t", "f1(t)", "f2(t)'", "f1(t)*x'^2", "x'*f2(t)"])
_GUARDS = st.sampled_from(["f1(t)", "+f1(t)", "f2(t) - t", "+1 + f2(t)^2", "f1(t) + x", "+f3(t)"])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    terms=st.lists(_FUNCTION_TERMS, min_size=1, max_size=3),
    factor=st.sampled_from(["1", "f1(t)", "f2(t)", "f3(t)'"]),
    guards=st.lists(_GUARDS, max_size=2),
)
def test_verify_with_function_guards_never_leaves_a_function_unbound(capsys, terms, factor, guards):
    """Every opaque function of the Lagrangian or of a guard is instantiated
    before sampling, so no check stops on an unbound function."""
    argv = ["verify", f"({' + '.join(terms)})*{factor}", "--json"]
    for g in guards:
        argv += ["--guard", g]
    assert main(argv) in (0, 2, 3)
    assert "unbound at compile time" not in capsys.readouterr().err


@pytest.mark.parametrize("text", ["1/0", "1/(x - x)", "0^(-1)", "(x - x)^(-2)", "x^(1/0)"])
def test_division_by_zero_in_input_is_an_input_error(capsys, text):
    code, out, err = run(capsys, "verify", text)
    assert code == 3
    assert out == ""
    assert err.startswith("input error: division by zero")


def test_deeply_nested_input_is_an_input_error(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "(" * 3000 + "x" + ")" * 3000)
    assert code == 3
    assert err.startswith("input error: expression nested too deeply")
    spec = tmp_path / "spec.json"
    spec.write_text("[" * 100_000 + "]" * 100_000)
    code, _, err = run(capsys, "derive", "--spec-file", str(spec))
    assert code == 3
    assert err.startswith("input error: spec file ") and err.endswith("is nested too deeply\n")


_LEAVES = st.sampled_from(["x", "t", "1", "2", "0", "a1", "f1(t)", "x'"])
_EXPRESSIONS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.builds("({} {} {})".format, inner, st.sampled_from("+-*/"), inner),
        st.builds("{}^{}".format, inner, st.sampled_from(["2", "3", "(-1)", "(1/2)"])),
        st.builds("{}({})".format, st.sampled_from(["exp", "ln", "sin", "cos", "abs"]), inner),
    ),
    max_leaves=4,
)
_NUMBERS = st.integers(-3, 3) | st.floats() | st.just(10**400)
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBERS | _EXPRESSIONS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["x", "t", "expr", "positive"]), inner, max_size=3),
    max_leaves=6,
)
_FIELDS = {
    "kind": st.sampled_from(["generating", "fraction"]),
    **{k: _EXPRESSIONS for k in ("B", "f", "f1", "f2", "f3", "f4")},
    "domain": st.fixed_dictionaries(
        {}, optional={k: st.lists(st.sampled_from([-1, 0, 0.5, 2, 3]), min_size=2, max_size=2) for k in "xt"}
    ),
    "guards": st.lists(
        st.fixed_dictionaries({"expr": _EXPRESSIONS}, optional={"positive": st.booleans()}),
        max_size=2,
    ),
}
_OPTIONAL = ("f", "f3", "f4", "domain", "guards")
_RECORDS = st.one_of(
    # well-formed records, which reach the constructions ...
    st.fixed_dictionaries({"B": _EXPRESSIONS}, optional={k: _FIELDS[k] for k in ("kind", *_OPTIONAL)}),
    st.fixed_dictionaries(
        {"kind": st.just("fraction"), "f1": _EXPRESSIONS, "f2": _EXPRESSIONS},
        optional={k: _FIELDS[k] for k in _OPTIONAL},
    ),
    # ... and records with any field holding any JSON value
    st.fixed_dictionaries({}, optional={k: v | _JSON for k, v in _FIELDS.items()}),
    _JSON,
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=st.lists(_RECORDS, max_size=3))
def test_derive_spec_file_never_raises(capsys, tmp_path, records):
    """Whatever a spec file holds, `derive --spec-file` ends in a documented
    exit code, never in a traceback."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(records))
    assert main(["derive", "--spec-file", str(spec), "--json"]) in (0, 2, 3)
    capsys.readouterr()


@st.composite
def _command_lines(draw) -> list[str]:
    """verify, derive, eom --L, eom --B --compose or harmonic --n 1..2 over
    drawn expressions; values are passed as --flag=value so a leading minus
    is not a flag."""
    command = draw(st.sampled_from(["verify", "derive", "eom", "compose", "harmonic"]))
    e = draw(_EXPRESSIONS)
    if command == "verify":
        return ["verify", e]
    if command == "eom":
        return ["eom", f"--L={e}"]
    if command == "compose":
        composer = draw(st.sampled_from(["identity", "exp", "ln", "reciprocal", "power:2"]))
        return ["eom", f"--B={e}", f"--compose={composer}"]
    argv = [command, f"--B={e}"]
    if draw(st.booleans()):
        argv.append(f"--f={draw(_EXPRESSIONS)}")
    if command == "harmonic":
        argv.append(f"--n={draw(st.integers(1, 2))}")
    return argv


_IC_VALUES = st.sampled_from(["0", "1", "-1", "1e300", "-1e300"])
_COEFFICIENTS = st.sampled_from(["0", "1/3", "2", "1e-400", "1e400"])


@st.composite
def _simulation_lines(draw) -> list[str]:
    """simulate or compare of a catalog system from a drawn initial state
    with drawn coefficients, to t1 = 1 at the default step; simulate also to
    t1 = 1500 at h = 0.01, where exp(t) of the tied L_null overflows.  t0 is
    0 or -1, since a t0 at or past t1 only reaches the horizon check."""
    command = draw(st.sampled_from(["simulate", "compare"]))
    system = draw(st.sampled_from(["inertia", "quadratic", "tied"]))
    ic = ",".join((draw(st.sampled_from(["0", "-1"])), draw(_IC_VALUES), draw(_IC_VALUES)))
    flags = ("--B0", "--a0", "--beta0") if command == "simulate" else ("--a0", "--beta0")
    argv = [command, f"--system={system}", f"--ic={ic}", *(f"{f}={draw(_COEFFICIENTS)}" for f in flags)]
    if command == "simulate" and draw(st.booleans()):
        return [*argv, "--t1=1500", "--h=0.01"]
    return [*argv, "--t1=1"]


# 200 examples: about half are simulate/compare lines, of which a few reach
# an L_null that overflows
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_command_lines() | _simulation_lines())
def test_drawn_command_lines_never_raise(capsys, argv):
    """Whatever expressions, initial conditions and coefficients they hold,
    these commands end in a documented exit code, never in a traceback."""
    assert main([*argv, "--json"]) in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# input support: each catalog coefficient and composer states what it may hold


@pytest.mark.parametrize(
    "argv, field",
    [
        (["system", "timedep", "--beta1", "0", "--alpha1", "x"], "alpha1"),
        (["system", "timedep", "--beta1", "t", "--gamma1", "x'"], "gamma1"),
        (["system", "displacement", "--alpha2", "t", "--beta0", "1"], "alpha2"),
        (["system", "displacement", "--alpha2", "x'", "--beta0", "1"], "alpha2"),
        (["system", "displacement", "--alpha2", "1", "--beta0", "x"], "beta0"),
        (["system", "displacement", "--alpha2", "1", "--beta0", "1", "--ctilde", "x"], "ctilde"),
        (["eom", "--L", "x'^2/2", "--compose", "x*L"], "compose"),
    ],
    ids=["alpha1-x", "gamma1-xdot", "alpha2-t", "alpha2-xdot", "beta0-x", "ctilde-x", "compose-x"],
)
def test_input_outside_its_support_is_an_input_error(capsys, argv, field):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith(f"input error: {field} may not contain")
    assert "Traceback" not in err


def test_time_dependent_quadratic_damping_is_a_verification_failure(capsys):
    code, _, err = run(capsys, "system", "timedep", "--beta1", "0", "--alpha1", "t")
    assert code == 2
    assert err.startswith("verification failure: a nonzero quadratic-damping coefficient")


@pytest.mark.parametrize("compose", ["a0", "power:0", "L - L"])
def test_composer_without_dynamics_is_an_input_error(capsys, compose):
    code, out, err = run(capsys, "eom", "--L", "x'^2/2", "--compose", compose)
    assert code == 3
    assert out == ""
    assert "admits no dynamics" in err


def test_system_constant_tiny_untied_beta_has_a_witness(capsys):
    """The case is decided exactly, so its witness is any sampled point
    where the constraint is nonzero, however small the constraint is."""
    code, report, _ = run_json(
        capsys, "system", "constant", "--alpha", "0", "--beta", "0.00001", "--gamma", "0"
    )
    assert code == 0
    system = report["system"]
    assert system["classification"] == "NoNullLagrangian"
    assert system["constraints"] == ["-1/40000000000"]
    assert system["absent_witness"]["lhs"] == -2.5e-11


def test_user_composer_is_named_by_the_users_body(capsys):
    code, report, _ = run_json(capsys, "eom", "--L", "x'^2/2", "--compose", "L^2")
    assert code == 0
    assert report["composer"] == "user(L^2)"


def test_failed_antiderivative_self_check_is_a_verification_failure(capsys, monkeypatch):
    monkeypatch.setattr(nullag.construct, "_antiderivative_term", lambda term, var: ZERO)
    code, out, err = run(capsys, "derive", "--B", "x*t")
    assert code == 2
    assert out == ""
    assert err.startswith("verification failure: antiderivative self-check failed")
    assert "Traceback" not in err


def test_failed_fraction_self_check_is_a_verification_failure(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(nullag.construct, "_antiderivative_term", lambda term, var: ZERO)
    record = {"kind": "fraction", "f1": "f1(t)", "f2": "f2(t)", "f3": "f3(t)", "f4": "f4(t)"}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps([record]))
    code, out, err = run(capsys, "derive", "--spec-file", str(spec))
    assert code == 2
    assert out == ""
    # a batch error names its record before the failure
    assert err.startswith(
        f"verification failure: spec record {json.dumps(record)}: antiderivative self-check failed"
    )
    assert "Traceback" not in err


_K = st.sampled_from(["1", "2", "-1", "1/2", "-3/4"])


@st.composite
def _catalog_argv(draw) -> list[str]:
    """A valid `system` command line; values are passed as --flag=value so a
    leading minus is not read as a flag."""
    k = draw(_K)
    variant = draw(st.sampled_from(["constant", "timedep", "displacement"]))
    if variant == "constant":
        alpha, beta, gamma = draw(st.sampled_from([
            ("0", "0", "0"),
            ("0", k, str(Fraction(k) ** 2 / 4)),
            (k, "0", "0"),
            (k, draw(_K), draw(_K)),
        ]))
        return ["system", "constant", f"--alpha={alpha}", f"--beta={beta}", f"--gamma={gamma}"]
    if variant == "timedep":
        beta1 = draw(st.sampled_from([k, f"{k}/t", f"{k}*t", f"{k}*t^2", f"{k} + t", "0"]))
        argv = ["system", "timedep", f"--beta1={beta1}", "--t-box=1,3"]
        if beta1 == "0" and draw(st.booleans()):
            argv.append(f"--alpha1={draw(_K)}")
        elif draw(st.booleans()):
            argv.append(f"--gamma1={to_string(gamma_from_beta(parse(beta1)))}")
        return argv
    return [
        "system", "displacement",
        f"--alpha2={draw(st.sampled_from([k, f'{k}/x', '0']))}",
        f"--beta0={draw(st.sampled_from(['0', 'b0', k]))}",
        f"--ctilde={draw(st.sampled_from(['0', '1', 'ct1']))}",
    ]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_catalog_argv())
def test_catalog_equation_of_motion_is_its_target(capsys, argv):
    """For every valid catalog input, the conservation equation of motion
    divided by B is the target x'' + alpha*x'^2 + beta*x' + gamma*x."""
    code, report, err = run_json(capsys, *argv)
    assert code == 0, err
    case = report["system"]
    if case["eom"] is None:
        assert case["classification"] == "NoNullLagrangian"
        return
    quotient = mul(parse(case["eom"]["residual"]), pow_(parse(case["B"]), -1))
    rep = equivalent(quotient, parse(case["target_residual"]), Domain(t=(1.0, 3.0)), seed=1)
    assert rep.verdict is not Verdict.DISTINCT, (argv, rep.witness)
