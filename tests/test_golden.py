"""Golden CLI reports: the `--json` stdout and exit code of 29 commands, and
one simulate CSV, compared with floats at 9 significant digits (as the
benchmark digest does), so that last-digit libm differences between machines
do not fail them.

Regenerate after a deliberate change of outputs, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from nullag.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
LINEAR = ("--B", "f1(t)*x + f2(t)*t + f3(t)", "--f", "f4(t)")

CASES = {
    "derive_linear": ("derive", *LINEAR),
    "derive_quadratic": ("derive", "--B", "B0*exp(a0*x)"),
    "derive_trig": ("derive", "--B", "x^2*t + sin(t)*x"),
    "derive_seed5": ("derive", "--B", "x^2*t + sin(t)*x", "--seed", "5"),
    "derive_spec_file": ("derive", "--spec-file", "{golden}/spec.json"),
    "harmonic_n2": ("harmonic", *LINEAR, "--n", "2"),
    "harmonic_n3": ("harmonic", "--B", "x^2*t + sin(t)*x", "--n", "3"),
    "eom_B": ("eom", "--B", "B0*exp(a0*x)"),
    "eom_L": ("eom", "--L", "1/2*x'^2*exp(2*a0*x)"),
    "eom_B_reciprocal": ("eom", "--B", "B0*exp(a0*x)", "--compose", "reciprocal"),
    "eom_B_ln": ("eom", "--B", "B0*exp(a0*x)", "--compose", "ln"),
    "eom_B_exp": ("eom", "--B", "B0*exp(a0*x)", "--compose", "exp"),
    "eom_L_ln": ("eom", "--L", "x'*exp(a0*x)", "--compose", "ln"),
    "verify_proven_null": ("verify", "a1*x'/(a2*x + a4)", "--guard", "+a2*x + a4"),
    "verify_numerically_null": ("verify", "x' + (sin(x)^2 + cos(x)^2 - 1)*x'^2"),
    "verify_not_null": ("verify", "1/2*x'^2"),
    "verify_not_null_eps": ("verify", "1/2*x'^2", "--eps-eq", "1e-3"),
    "system_constant_tied": ("system", "constant", "--alpha", "0", "--beta", "2", "--gamma", "1"),
    "system_constant_none": ("system", "constant", "--alpha", "0", "--beta", "0", "--gamma", "1"),
    "system_constant_decimal": (
        "system", "constant", "--alpha", "0", "--beta", "0.2", "--gamma", "0.01",
    ),
    "system_timedep": ("system", "timedep", "--beta1", "2/t", "--t-box", "1,3"),
    "system_displacement": (
        "system", "displacement", "--alpha2", "1/x", "--beta0", "2", "--ctilde", "0",
    ),
    "compare_tied": ("compare", "--system", "tied", "--ic", "0,1,0", "--t1", "1"),
    "compare_quadratic": ("compare", "--system", "quadratic", "--ic", "0,0,2", "--t1", "1"),
    "compare_inertia": ("compare", "--system", "inertia", "--ic", "0,1,1", "--t1", "1"),
    "simulate_quadratic": ("simulate", "--system", "quadratic", "--ic", "0,0,2", "--t1", "1"),
    "simulate_tied": ("simulate", "--system", "tied", "--ic", "0,1,0", "--t1", "1"),
    "audit": ("audit",),
    "audit_seed3": ("audit", "--seed", "3"),
}
CSV_ARGV = ("simulate", "--system", "quadratic", "--ic", "0,0,2", "--h", "1e-2", "--t1", "1")


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([a.replace("{golden}", str(GOLDEN)) for a in argv] + ["--json"])
    return code, out.getvalue()


def rounded(value):
    """`value` with every float written at 9 significant digits."""
    if isinstance(value, float):
        return f"{value:.9g}"
    if isinstance(value, dict):
        return {k: rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [rounded(v) for v in value]
    return value


def csv_rows(text: str) -> list:
    header, *rows = text.splitlines()
    return [header] + [[f"{float(v):.9g}" for v in row.split(",")] for row in rows]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name):
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    code, out = run(CASES[name])
    assert code == expected["exit"]
    assert rounded(json.loads(out)) == rounded(expected["report"])


def test_golden_csv(tmp_path):
    path = tmp_path / "traj.csv"
    code, _ = run(CSV_ARGV + ("--csv", str(path)))
    assert code == 0
    assert csv_rows(path.read_text()) == csv_rows((GOLDEN / "simulate_quadratic.csv").read_text())


if __name__ == "__main__":
    for name, argv in CASES.items():
        code, out = run(argv)
        record = {"argv": list(argv), "exit": code, "report": json.loads(out)}
        (GOLDEN / f"{name}.json").write_text(json.dumps(record, indent=2) + "\n")
    path = GOLDEN / "simulate_quadratic.csv"
    run(CSV_ARGV + ("--csv", str(path)))
