"""Seeded workloads: input generators, operations and their output checks.

Each workload is a pool of a few fixed-composition cycles, which a run
repeats; a cycle lists (kind, inputs) pairs drawn from the workload's
random stream.  The program keeps no state between operations, so a
repeated input costs what its first run did.  The inputs are the strings
a user would type on the `nullag` command line, and each operation calls
the same library functions, in the same order, as the matching CLI
command.  Library functions are looked up through their modules at call
time, so the traced run sees every call.

A check compares an operation's result with a reference from
`reference.py` (closed forms, finite differences, verdicts known from how
the input was built) and returns None, or a description of the wrong
answer.  The program always runs with the CLI's default seed 0; the
workload seed only shapes the inputs.

Workloads, each a fixed cycle of the four parts below:

* symbolic: six certify parts and one refute part per cycle.
* numeric: one routes part and one simulate part per cycle.

The parts and what each is for:

* certify: derive, harmonic --n 2 and eom of generating functions of 1-3
  terms (rational * {1, t, t^2, f1, f2, exp(t/2), sin t} * {1, x..x^4,
  exp(x), exp(2x), exp(-x), sin/cos(k*x)}), every third op replaced by a
  fractional spec, `system timedep` or `system displacement`.  Symbolic
  kernel work only; no sampling verdicts and no integration.
* refute: verify of a perturbed pair (NotNull), verify of a null
  Lagrangian padded with sin^2 + cos^2 - 1 (NumericallyNull), `system
  constant` with untied coefficients (NoNullLagrangian), eom --compose
  reciprocal/ln/exp with B free of or made of opaque functions, and audit.
  Guarded sampling and tree-walking evaluation take the time.
* routes: compare of inertia, then quadratic and tied twice each, at
  h = 1e-3 over [0, 5]; the size of the bound right-hand side sets the cost
  of an RK4 step.
* simulate: simulate of tied and quadratic over 20k steps with CSV output,
  plus path-independence checks; tiny right-hand sides, so loop overhead,
  invariant evaluation and CSV formatting take the time.

Two defects show in these workloads and count as failures: a quadratic
system with v0 < -1/t1 blows up inside the horizon and `integrate` raises
OverflowError (a traceback) instead of NonFiniteState; and
`permissibility_check` gives sample_points no instantiation, so with
opaque functions in B it rejects all 20,000 candidates and answers
"conditional" (counted in composer.permissibility_check.conditional_share,
not as a failure, since no reference settles the answer).
"""

from __future__ import annotations

import json
import math
import os
import random
import tempfile
from fractions import Fraction

import nullag
import nullag.audit as audit
import nullag.composer as composer
import nullag.construct as construct
import nullag.domain as domain
import nullag.expr as expr
import nullag.numint as numint
import nullag.parser as parser
import nullag.systems as systems
import nullag.variational as variational

import reference as ref

SEED = 0  # the CLI default --seed
EPS_EQ = 1e-9
EPS_DRIFT = 1e-7
ROUTE_TOL = 1e-8
ROUTE_H, ROUTE_T1 = 1e-3, 5.0
SIM_H = 1e-3
SIM_T1 = 20.0
PANELS = 2000
HARMONIC_ORDER = 2

# exceptions cli.main maps to exit 3 and exit 2; anything else is a traceback
INPUT_ERRORS = (parser.ParseError, construct.AntiderivativeUnsupported,
                systems.IntegralUnsupported, ValueError)
VERIFICATION_ERRORS = (variational.NullCertificationFailed, systems.ConstraintViolated,
                       expr.ExprError)


def exit_code_for(err: BaseException) -> int | None:
    """Exit code cli.main gives this exception, None for a traceback."""
    if isinstance(err, INPUT_ERRORS):
        return 3
    if isinstance(err, VERIFICATION_ERRORS):
        return 2
    return None


# ---------------------------------------------------------------------------
# input generators


TIME_PARTS = ("1", "t", "t^2", "exp(t/2)", "sin(t)")
OPAQUE_TIME_PARTS = ("f1(t)", "f2(t)")
SPACE_PARTS = ("1", "x", "x^2", "x^3", "x^4", "exp(x)", "exp(2*x)", "exp(-x)", "sin", "cos")
WAVE_NUMBERS = ("1/2", "1", "3/2", "2")


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.choice((1, 2, 3, 4)))


def _join(terms: list[tuple[Fraction, str]]) -> str:
    out = []
    for i, (c, body) in enumerate(terms):
        sign = "-" if c < 0 else "+"
        text = f"{abs(c.numerator)}/{c.denominator}*{body}"
        out.append((f"-{text}" if sign == "-" else text) if i == 0 else f" {sign} {text}")
    return "".join(out)


def generating_function(rng: random.Random, n: int, *, opaque: bool | None = None) -> str:
    """n terms, each rational * time part * space part.  opaque=True gives
    every term an opaque f1/f2 time part, False none, None lets the draw
    decide."""
    terms = []
    for _ in range(n):
        if opaque is True:
            time = rng.choice(OPAQUE_TIME_PARTS)
        elif opaque is False:
            time = rng.choice(TIME_PARTS)
        else:
            time = rng.choice(TIME_PARTS + OPAQUE_TIME_PARTS)
        space = rng.choice(SPACE_PARTS)
        if space in ("sin", "cos"):
            space = f"{space}({rng.choice(WAVE_NUMBERS)}*x)"
        terms.append((_rational(rng), f"{time}*{space}"))
    return _join(terms)


# Term counts run through 1, 2, 3 in a fixed pattern rather than being drawn,
# so that every seed gives runs of the same size mix and only the terms differ.


def _certify_cycle(rng: random.Random, cycle: int) -> list[tuple[str, dict]]:
    """Six generating functions (derive, harmonic, eom) of 1, 2, 3, 1, 2, 3
    terms, with a fractional spec, a time-dependent and a
    displacement-dependent catalog system taking every third place."""
    ops = []
    for j, special in enumerate(("fraction", "timedep", "displacement")):
        for i in range(2):
            ops.append(("generating", {
                "B": generating_function(rng, (2 * j + i) % 3 + 1),
                "f": rng.choice((None, None, "f4(t)", "t^2", "sin(t)")),
                "n": HARMONIC_ORDER,
            }))
        if special == "fraction":
            ops.append(("fraction", {
                "f1": rng.choice(("1", "t", "f1(t)", "2*t^2", "3/2")),
                "f2": rng.choice(("1", "2", "t", "f2(t)")),
                "f3": rng.choice(("0", "1", "t", "f3(t)")),
                "f4": rng.choice(("0", "1", "2", "f4(t)")),
            }))
        elif special == "timedep":
            k = rng.choice(("1", "2", "3", "1/2", "3/2"))
            beta1 = rng.choice((f"{k}/t", f"{k}", f"{k}*t", f"{k}*t^2"))
            ops.append(("timedep", {"beta1": beta1, "t_box": "1,3"}))
        else:
            k = rng.choice(("1", "2", "3"))
            alpha2 = rng.choice((f"{k}/x", rng.choice(("1/2", "1", "2"))))
            ops.append(("displacement", {
                "alpha2": alpha2,
                "beta0": rng.choice(("1", "2", "3")),
                "ctilde": rng.choice(("0", "1")),
            }))
    return ops


# gauge terms T(t)*S(x) with their derivatives written out by hand
GAUGE_TIME = (("1", "0"), ("t", "1"), ("t^2", "2*t"), ("exp(t/2)", "1/2*exp(t/2)"),
              ("sin(t)", "cos(t)"))
GAUGE_SPACE = (("x", "1"), ("x^2", "2*x"), ("x^3", "3*x^2"), ("exp(x)", "exp(x)"),
               ("sin(x)", "cos(x)"), ("ln(x)", "x^(-1)"))
# C-perturbations p and the Euler-Lagrange residual -(p + x*dp/dx) of k*p*x, per unit k
PERTURBATIONS = {
    "1": lambda x, t: -1.0,
    "x": lambda x, t: -2.0 * x,
    "t": lambda x, t: -t,
    "x^2": lambda x, t: -3.0 * x * x,
    "3/2": lambda x, t: -1.5,
    "x*t": lambda x, t: -2.0 * x * t,
}
PADDING_ARGS = ("x", "t", "2*x", "x*t", "x + t", "x^2")
COMPOSERS = ("reciprocal", "ln", "exp")


def gauge_lagrangian(rng: random.Random, n: int) -> list[tuple[Fraction, str]]:
    """Terms of dPhi/dt = Phi_x*x' + Phi_t for a seeded gauge Phi(x, t) of
    n terms; null by construction."""
    parts = []
    for _ in range(n):
        c = _rational(rng)
        (T, Tp), (S, Sp) = rng.choice(GAUGE_TIME), rng.choice(GAUGE_SPACE)
        parts.append((c, f"{T}*({Sp})*x'"))
        if Tp != "0":
            parts.append((c, f"({Tp})*{S}"))
    return parts


CONSTANT_VALUES = tuple(sign + v for v in ("0.25", "0.5", "1", "1.5", "2", "3")
                        for sign in ("", "-"))


def _untied_constants(rng: random.Random) -> tuple[str, str, str]:
    """alpha, beta, gamma admitting no null Lagrangian: an untied damped
    oscillator, a plain harmonic oscillator, or quadratic damping with
    other terms.  Dyadic decimals, so the CLI's floats are exact."""
    case = rng.randrange(3)
    if case == 0:
        beta = rng.choice(CONSTANT_VALUES)
        untied = [g for g in CONSTANT_VALUES + ("0",) if Fraction(g) != Fraction(beta) ** 2 / 4]
        return "0", beta, rng.choice(untied)
    if case == 1:
        return "0", "0", rng.choice(CONSTANT_VALUES)
    return (rng.choice(CONSTANT_VALUES), rng.choice(CONSTANT_VALUES + ("0",)),
            rng.choice(CONSTANT_VALUES))


def _refute_cycle(rng: random.Random, cycle: int) -> list[tuple[str, dict]]:
    """Six rounds of the five kinds; the compose ops cover every composer
    with and without opaque functions in B."""
    ops = []
    for r in range(6):
        n = (cycle + r) % 3 + 1
        p = rng.choice(sorted(PERTURBATIONS))
        k = _rational(rng)
        ops.append(("perturbed", {
            "lagrangian": _join(gauge_lagrangian(rng, n) + [(k, f"{p}*x")]),
            "k": k, "p": p,
        }))
        u = rng.choice(PADDING_ARGS)
        c = _rational(rng)
        ops.append(("padded", {
            "lagrangian": _join(gauge_lagrangian(rng, n % 3 + 1)
                                + [(c, f"(sin({u})^2 + cos({u})^2 - 1)*x'^2")]),
        }))
        alpha, beta, gamma = _untied_constants(rng)
        ops.append(("constant", {"alpha": alpha, "beta": beta, "gamma": gamma}))
        ops.append(("compose", {
            "B": generating_function(rng, n, opaque=r % 2 == 1),
            "compose": COMPOSERS[r % 3],
        }))
        ops.append(("audit", {}))
    return ops


# The quadratic system's ops take v0 from a negative and a positive range in
# a fixed pattern.  Every negative v0 blows up by t = 4, inside both
# horizons, and no positive one does, so every pool holds the same number of
# blow-ups whatever the seed, instead of a binomial draw of them.
NEGATIVE, POSITIVE, ANY = (-2.0, -0.25), (0.0, 2.0), (-2.0, 2.0)


def _ic(rng: random.Random, v0_range: tuple[float, float] = ANY) -> str:
    return f"0,{rng.uniform(0.5, 2.0):.4f},{rng.uniform(*v0_range):.4f}"


def _routes_cycle(rng: random.Random, cycle: int) -> list[tuple[str, dict]]:
    """One inertia compare (seconds) and two each of quadratic and tied
    (tens of ms); one quadratic v0 is negative and blows up."""
    return [
        ("compare", {"system": "inertia", "ic": _ic(rng)}),
        ("compare", {"system": "quadratic", "ic": _ic(rng, NEGATIVE)}),
        ("compare", {"system": "tied", "ic": _ic(rng)}),
        ("compare", {"system": "quadratic", "ic": _ic(rng, POSITIVE)}),
        ("compare", {"system": "tied", "ic": _ic(rng)}),
    ]


def _path_op(rng: random.Random, n_terms: int) -> tuple[str, dict]:
    return ("path", {
        "B": generating_function(rng, n_terms, opaque=False),
        "x0": rng.uniform(0.7, 1.8), "x1": rng.uniform(0.7, 1.8),
        "amplitude": rng.uniform(0.05, 0.15),
        "k": rng.choice((1, 2, 3)),
    })


def _simulate_cycle(rng: random.Random, cycle: int) -> list[tuple[str, dict]]:
    """Two tied and two quadratic simulations (one blows up) and four
    path-independence checks."""
    first, second = (NEGATIVE, POSITIVE) if cycle % 2 else (POSITIVE, NEGATIVE)
    return [
        ("simulate", {"system": "tied", "ic": _ic(rng), "t1": SIM_T1}),
        ("simulate", {"system": "quadratic", "ic": _ic(rng, first), "t1": SIM_T1}),
        _path_op(rng, cycle % 3 + 1),
        _path_op(rng, (cycle + 1) % 3 + 1),
        ("simulate", {"system": "tied", "ic": _ic(rng), "t1": SIM_T1}),
        ("simulate", {"system": "quadratic", "ic": _ic(rng, second), "t1": SIM_T1}),
        _path_op(rng, (cycle + 2) % 3 + 1),
        _path_op(rng, cycle % 3 + 1),
    ]


def _symbolic_cycle(rng: random.Random, cycle: int) -> list[tuple[str, dict]]:
    """Six certify parts and one refute part, which take about equal time."""
    ops = []
    for i in range(6):
        ops += _certify_cycle(rng, 6 * cycle + i)
    return ops + _refute_cycle(rng, cycle)


def _numeric_cycle(rng: random.Random, cycle: int) -> list[tuple[str, dict]]:
    """A routes part and a simulate part.  Of its eleven ops that succeed,
    four path checks sit below the three light compares and four above
    them (three simulations, one inertia compare), so the median latency
    falls inside the light compares.  Of the 44 inputs of a four-cycle pool
    that succeed, the four inertia compares and twelve simulations are the
    slowest, so latency_tail_ms (the eleventh-slowest) falls inside the
    simulations, and the inertia compares weigh most in ops_per_s."""
    return _routes_cycle(rng, cycle) + _simulate_cycle(rng, cycle)


CYCLES = {
    "symbolic": _symbolic_cycle,
    "numeric": _numeric_cycle,
}


# Cycles in one workload's pool; one pass over it takes about 14 s (symbolic)
# or 11 s (numeric) on an unloaded host.  Each symbolic cycle holds exactly
# two eom --compose ops whose permissibility check rejects every candidate
# (~160-280 ms); every other input takes under ~120 ms.  With seven cycles
# there are fourteen such ops, so latency_tail_ms (the eleventh-slowest
# input) falls inside that group whatever the seed, instead of on the edge
# between it and the ops below.
POOL_CYCLES = {"symbolic": 7, "numeric": 4}


def pool(workload: str, seed: int) -> list[list[tuple[str, dict]]]:
    """The cycles a run repeats, each a list of (kind, inputs)."""
    rng = random.Random(f"{workload}:{seed}")
    return [CYCLES[workload](rng, cycle) for cycle in range(POOL_CYCLES[workload])]


# ---------------------------------------------------------------------------
# operations, mirroring the CLI commands


def _report() -> dict:
    return {"tool": "nullag", "version": nullag.__version__, "seed": SEED,
            "tolerances": {"eps_eq": EPS_EQ, "eps_act": 1e-7, "eps_drift": EPS_DRIFT}}


def _emit(report: dict) -> str:
    return json.dumps(report, indent=2, default=str)


def _box(text: str) -> tuple[float, float]:
    lo, hi = (float(v) for v in text.split(","))
    return lo, hi


def _build_null(B: str, f: str | None):
    return construct.build_null(
        parser.parse(B), parser.parse(f) if f else expr.ZERO, domain.Domain(), seed=SEED
    )


def _pair_report(pair) -> dict:
    gauge = construct.reconstruct_gauge(pair)
    rep = pair.to_dict()
    rep["gauge"] = expr.to_string(gauge.body) if gauge else "not reconstructed"
    rep["nullity"] = variational.is_null(pair.assembled(), seed=SEED).verdict.value
    return rep


def run_generating(inp: dict) -> dict:
    """nullag derive, then harmonic --n, then eom, all on --B/--f."""
    derive = _report()
    derive.update(_pair_report(_build_null(inp["B"], inp["f"])))
    _emit(derive)

    harm = _report()
    pair = _build_null(inp["B"], inp["f"])
    h = construct.harmonic(pair, inp["n"], seed=SEED)
    harm["base"] = pair.to_dict()
    harm["harmonic"] = h.to_dict()
    harm["nullity"] = variational.is_null(h.as_lagrangian(), seed=SEED).verdict.value
    _emit(harm)

    eom_rep = _report()
    pair = _build_null(inp["B"], inp["f"])
    eom = composer.conservation_eom(pair, seed=SEED)
    eom_rep["source"] = pair.to_dict()
    eom_rep["eom"] = eom.to_dict()
    _emit(eom_rep)
    return {"exit": 0, "derive": derive, "harmonic": harm, "eom": eom_rep, "h": h}


def run_fraction(inp: dict) -> dict:
    """nullag derive --spec-file with one fraction record."""
    dom = domain.Domain(x=(0.5, 2.0), t=(0.5, 2.0))
    spec = construct.FractionSpec(
        parser.parse(inp["f1"]), parser.parse(inp["f2"]),
        parser.parse(inp["f3"]), parser.parse(inp["f4"]),
    )
    pair = construct.build_nonstandard_null(spec, expr.ZERO, dom, seed=SEED)
    report = _report()
    report["results"] = [_pair_report(pair)]
    _emit(report)
    return {"exit": 0, "report": report}


def run_timedep(inp: dict) -> dict:
    """nullag system timedep --beta1 B --t-box lo,hi."""
    case = systems.build_timedep(
        parser.parse(inp["beta1"]), None, expr.ZERO,
        domain=domain.Domain(t=_box(inp["t_box"])), seed=SEED,
    )
    report = _report()
    report["system"] = case.to_dict()
    _emit(report)
    return {"exit": 0, "report": report}


def run_displacement(inp: dict) -> dict:
    """nullag system displacement --alpha2 A --beta0 B --ctilde C."""
    case = systems.build_displacement(
        parser.parse(inp["alpha2"]), parser.parse(inp["beta0"]), None,
        ctilde=parser.parse(inp["ctilde"]), domain=domain.Domain(), seed=SEED,
    )
    report = _report()
    report["system"] = case.to_dict()
    _emit(report)
    return {"exit": 0, "report": report}


def run_verify(inp: dict) -> dict:
    """nullag verify L."""
    L = variational.Lagrangian(parser.parse(inp["lagrangian"]), domain.Domain())
    rep = variational.is_null(L, seed=SEED, eps=EPS_EQ)
    report = _report()
    report["lagrangian"] = expr.to_string(L.body)
    report.update(rep.to_dict())
    _emit(report)
    return {"exit": 0 if rep else 2, "report": report}


def run_constant(inp: dict) -> dict:
    """nullag system constant --alpha --beta --gamma (argparse floats)."""
    case = systems.classify_constant(
        float(inp["alpha"]), float(inp["beta"]), float(inp["gamma"]), seed=SEED
    )
    report = _report()
    report["system"] = case.to_dict()
    _emit(report)
    return {"exit": 0, "report": report}


def run_compose(inp: dict) -> dict:
    """nullag eom --B B --compose F."""
    report = _report()
    pair = _build_null(inp["B"], None)
    eom = composer.conservation_eom(pair, seed=SEED)
    report["source"] = pair.to_dict()
    F = composer.CATALOG[inp["compose"]]()
    eom = composer.composed_eom(F, pair.assembled())
    report["composer"] = F.name
    report["permissible"] = composer.permissibility_check(F, pair, seed=SEED)
    report["eom"] = eom.to_dict()
    _emit(report)
    return {"exit": 0, "report": report}


def run_audit(inp: dict) -> dict:
    """nullag audit."""
    report = _report()
    findings = audit.run_audits(SEED)
    report["findings"] = [f.to_dict() for f in findings]
    detected = all(f.discrepancy_detected for f in findings)
    machine_ok = all(
        f.machine_null_verdict in (None, "ProvenNull", "NumericallyNull") for f in findings
    )
    report["all_discrepancies_detected"] = detected
    report["machine_forms_null"] = machine_ok
    _emit(report)
    return {"exit": 0 if detected and machine_ok else 2, "report": report}


def run_compare(inp: dict) -> dict:
    """nullag compare --system S --ic t0,x0,v0 --h 1e-3 --t1 5."""
    report = _report()
    triple = systems.comparison_catalog(inp["system"], seed=SEED)
    constants = dict(systems.DEFAULT_COMPARISON_CONSTANTS)
    t0, x0, v0 = (float(v) for v in inp["ic"].split(","))
    trajectories, forms = {}, {}
    for route, eom in triple.routes(seed=SEED).items():
        g = eom.explicit()
        forms[route] = (eom.residual, g)
        trajectories[route] = numint.integrate(
            numint.IVP(g, t0, x0, v0, ROUTE_T1, ROUTE_H, constants=constants)
        )
    names = list(trajectories)
    deviations = {}
    worst = 0.0
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            dev = numint.compare(trajectories[a], trajectories[b])
            deviations[f"{a}-vs-{b}"] = dev.to_dict()
            worst = max(worst, dev.max_dx, dev.max_dv)
    report["system"] = triple.name
    report["constants"] = constants
    report["deviations"] = deviations
    report["max_deviation"] = worst
    report["tolerance"] = ROUTE_TOL
    report["passed"] = worst <= ROUTE_TOL
    _emit(report)
    return {"exit": 0 if worst <= ROUTE_TOL else 2, "report": report,
            "trajectories": trajectories, "forms": forms, "constants": constants}


SIMULATABLE = {
    "quadratic": lambda a0, beta0: systems.classify_constant(a0, 0, 0),
    "tied": lambda a0, beta0: systems.classify_constant(0, beta0, beta0**2 / 4.0),
}


def run_simulate(inp: dict, csv_dir: str) -> dict:
    """nullag simulate --system S --ic t0,x0,v0 --h 1e-3 --t1 T --csv FILE."""
    report = _report()
    case = SIMULATABLE[inp["system"]](1.0, 2.0)
    constants = {"B0": 1.0}
    t0, x0, v0 = (float(v) for v in inp["ic"].split(","))
    g = case.eom.explicit()
    traj = numint.integrate(numint.IVP(g, t0, x0, v0, inp["t1"], SIM_H, constants=constants))
    values = numint.invariant_values(case.null_pair, traj, constants=constants)
    rep = numint.drift(case.null_pair, traj, eps=EPS_DRIFT, constants=constants)
    fd, path = tempfile.mkstemp(suffix=".csv", dir=csv_dir)
    os.close(fd)
    try:
        numint.write_csv(path, traj, values)
        with open(path) as fh:
            csv_text = fh.read()
    finally:
        os.unlink(path)
    report["csv"] = path
    report["system"] = case.classification.value
    report["explicit"] = f"x'' = {expr.to_string(g)}"
    report["final_state"] = dict(zip(("t", "x", "xdot"), traj.final_state))
    report["drift"] = rep.to_dict()
    _emit(report)
    return {"exit": 0 if rep.passed else 2, "report": report, "trajectory": traj,
            "csv": csv_text}


KINETIC = "1/2*x'^2"
PATH_T = (0.5, 2.0)


def run_path(inp: dict) -> dict:
    """Action path independence of a certified pair along a line and a
    bumped line (2000 Simpson panels), with the kinetic Lagrangian as the
    control that must depend on the path."""
    pair = _build_null(inp["B"], None)
    L = pair.assembled()
    base = variational.line_path(*PATH_T, inp["x0"], inp["x1"])
    bumped = variational.with_bump(base, inp["amplitude"], inp["k"])
    rep = variational.path_independence_check(L, base, bumped, panels=PANELS)
    kinetic = variational.Lagrangian(parser.parse(KINETIC))
    control = variational.path_independence_check(kinetic, base, bumped, panels=PANELS)
    report = {"pair": pair.to_dict(), "null": rep.to_dict(), "control": control.to_dict()}
    _emit(report)
    return {"exit": 0 if rep.passed and not control.passed else 2, "report": report}


RUN = {
    "generating": run_generating,
    "fraction": run_fraction,
    "timedep": run_timedep,
    "displacement": run_displacement,
    "perturbed": run_verify,
    "padded": run_verify,
    "constant": run_constant,
    "compose": run_compose,
    "audit": run_audit,
    "compare": run_compare,
    "simulate": run_simulate,
    "path": run_path,
}


# ---------------------------------------------------------------------------
# checks against independent references


def _points(rng: random.Random, n: int = 3, t=(0.6, 1.9)):
    return [(rng.uniform(0.6, 1.9), rng.uniform(*t), rng.uniform(-1.5, 1.5)) for _ in range(n)]


def _explicit(text: str | None) -> str | None:
    return text.split("=", 1)[1] if text else None


def _check_pair(pair: dict, pts) -> str | None:
    if not pair["certified"]:
        return "pair not certified"
    if not ref.null_condition_holds(pair["B"], f"x*({pair['C']})", [(x, t) for x, t, _ in pts]):
        return f"null condition fails for B={pair['B']} C={pair['C']}"
    return None


def _check_conservation(pair: dict, explicit: str | None, pts) -> str | None:
    if explicit is None:
        b = ref.compile_printed(pair["B"])
        return None if all(ref.close(b(x, 0, 0, t), 0.0) for x, t, _ in pts) else \
            "no explicit form although B does not vanish"
    if not ref.conservation_holds(pair["B"], pair["C"], pair["f"], explicit, pts):
        return f"explicit form {explicit} does not conserve the null Lagrangian"
    return None


def check_generating(inp, res, rng):
    pts = _points(rng)
    derive, harm, eom = res["derive"], res["harmonic"], res["eom"]
    given, echoed = ref.compile_printed(inp["B"]), ref.compile_printed(derive["B"])
    if not all(ref.close(given(x, 0, 0, t), echoed(x, 0, 0, t)) for x, t, _ in pts):
        return f"canonical B {derive['B']} differs from input {inp['B']}"
    for label, verdict in (("derive", derive["nullity"]), ("harmonic", harm["nullity"])):
        if verdict == "NotNull":
            return f"{label} reports NotNull for a null Lagrangian"
    h = harm["harmonic"]
    return (_check_pair(derive, pts)
            or _check_pair({"certified": True, "B": h["B_n"], "C": f"({h['xC_n']})/x"}, pts)
            or _check_conservation(eom["source"], _explicit(eom["eom"]["explicit"]), pts))


def check_fraction(inp, res, rng):
    rep = res["report"]["results"][0]
    if rep["nullity"] == "NotNull":
        return "fraction pair reported NotNull"
    return _check_pair(rep, _points(rng))


def check_timedep(inp, res, rng):
    case = res["report"]["system"]
    if case["classification"] != "TimeDependentOscillator":
        return f"classified {case['classification']}"
    pts = _points(rng, t=(1.1, 2.9))
    beta, gamma = ref.compile_printed(inp["beta1"]), ref.compile_printed(case["gamma"])
    g = ref.compile_printed(_explicit(case["eom"]["explicit"]))
    for x, t, v in pts:
        b = beta(x, 0, 0, t)
        tied = ref.d_dt(beta, x, t) / 2 + b * b / 4
        if not ref.close(gamma(x, 0, 0, t), tied):
            return f"gamma {case['gamma']} is not beta'/2 + beta^2/4"
        if not ref.close(g(x, v, 0, t), -(b * v + tied * x)):
            return f"explicit form {case['eom']['explicit']} is not x'' = -beta*x' - gamma*x"
    return _check_pair(case["null_lagrangian"], pts)


def check_displacement(inp, res, rng):
    case = res["report"]["system"]
    if case["classification"] != "DisplacementDependent":
        return f"classified {case['classification']}"
    pts = _points(rng)
    alpha, gamma = ref.compile_printed(inp["alpha2"]), ref.compile_printed(case["gamma"])
    beta0 = float(Fraction(inp["beta0"]))
    g = ref.compile_printed(_explicit(case["eom"]["explicit"]))
    for x, t, v in pts:
        a, gm = alpha(x, 0, 0, t), gamma(x, 0, 0, t)
        if not ref.close(x * ref.d_dx(gamma, x, t) + gm * (1 + a * x), beta0**2 / 4):
            return f"gamma {case['gamma']} violates the displacement tie constraint"
        if not ref.close(g(x, v, 0, t), -(a * v * v + beta0 * v + gm * x)):
            return f"explicit form {case['eom']['explicit']} is not the catalog equation"
    return _check_pair(case["null_lagrangian"], pts)


def check_perturbed(inp, res, rng):
    rep = res["report"]
    if rep["verdict"] != "NotNull" or res["exit"] != 2:
        return f"perturbed pair reported {rep['verdict']}"
    w = rep["equivalence"]["witness"]
    x, t = w["point"].get("x", 0.0), w["point"].get("t", 0.0)
    expected = float(inp["k"]) * PERTURBATIONS[inp["p"]](x, t)
    if not ref.close(w["lhs"], expected):
        return f"witness residual {w['lhs']} != {expected}"
    return None


def check_padded(inp, res, rng):
    verdict = res["report"]["verdict"]
    return "padded null Lagrangian reported NotNull" if verdict == "NotNull" else None


def _classify(alpha: Fraction, beta: Fraction, gamma: Fraction) -> str:
    if alpha == beta == gamma == 0:
        return "Inertia"
    if alpha == 0 and beta != 0 and gamma == beta * beta / 4:
        return "DampedOscillatorTied"
    if alpha != 0 and beta == gamma == 0:
        return "QuadraticDamping"
    return "NoNullLagrangian"


def check_constant(inp, res, rng):
    case = res["report"]["system"]
    alpha, beta, gamma = (Fraction(inp[k]) for k in ("alpha", "beta", "gamma"))
    expected = _classify(alpha, beta, gamma)
    if case["classification"] != expected:
        return f"classified {case['classification']}, coefficients imply {expected}"
    if expected == "NoNullLagrangian":
        w = case["absent_witness"]
        if w is None:
            return "no witness for an absent null Lagrangian"
        x = w["point"].get("x", 0.0)
        lhs = (1 + float(alpha) * x) * float(gamma) - float(beta) ** 2 / 4
        if not ref.close(w["lhs"], lhs):
            return f"witness constraint value {w['lhs']} != {lhs}"
    return None


# F''(L) of each composer, and where the check is well conditioned: away from
# the pole of reciprocal and ln, and short of exp's growth
F_SECOND = {
    "reciprocal": (lambda L: 2.0 / L**3, lambda L: abs(L) >= 1e-3),
    "ln": (lambda L: -1.0 / L**2, lambda L: abs(L) >= 1e-3),
    "exp": (math.exp, lambda L: abs(L) <= 50),
}
COMPOSE_POINTS, COMPOSE_CHECKS = 64, 3


def check_compose(inp, res, rng):
    """The composed residual equals p_L*F''(L)*dL/dt for a null L, at
    COMPOSE_CHECKS sample points where F'' is well conditioned; too few such
    points among COMPOSE_POINTS is a failure."""
    rep = res["report"]
    pair = rep["source"]
    L = ref.compile_printed(pair["lagrangian"])
    B = ref.compile_printed(pair["B"])
    residual = ref.compile_printed(rep["eom"]["residual"])
    second, usable = F_SECOND[inp["compose"]]
    checked = 0
    for x, t, v in _points(rng, COMPOSE_POINTS):
        value = L(x, v, 0, t)
        if not usable(value):
            continue
        a = rng.uniform(-1, 1)
        dLdt = ((L(x + ref.H, v, 0, t) - L(x - ref.H, v, 0, t)) * v
                + (L(x, v, 0, t + ref.H) - L(x, v, 0, t - ref.H))) / (2 * ref.H) + B(x, 0, 0, t) * a
        expected = B(x, 0, 0, t) * second(value) * dLdt
        if not ref.close(residual(x, v, a, t), expected, 1e-5):
            return f"composed residual {residual(x, v, a, t)} != {expected} at {(x, t, v, a)}"
        checked += 1
        if checked == COMPOSE_CHECKS:
            return None
    return f"only {checked} of {COMPOSE_POINTS} sample points where the check is well conditioned"


AUDIT_NAMES = ("oscillator_gauge_scale", "displacement_exponent_sign",
               "fraction_family_transcription", "oscillator_reciprocity")


def check_audit(inp, res, rng):
    findings = res["report"]["findings"]
    if tuple(f["name"] for f in findings) != AUDIT_NAMES:
        return "unexpected audit findings"
    if any(f["verdict"] != "Distinct" for f in findings) or res["exit"] != 0:
        return "a circulated slip went undetected"
    w = findings[0]["witness"]
    x, t = w["point"]["x"], w["point"]["t"]
    b0, B0 = w["constants"]["b0"], w["constants"]["B0"]
    expected = x / 2 * (1 - b0) * B0 * math.exp(b0 * t / 2)
    if not ref.close(w["lhs"] - w["rhs"], expected):
        return f"oscillator witness gap {w['lhs'] - w['rhs']} != {expected}"
    return None


def _check_trajectory(solution, x0, v0, traj, stride: int) -> str | None:
    """Rows where the closed form is well conditioned (|x'| <= 10) must match it."""
    for k in range(0, len(traj), stride):
        t = float(traj.t[k])
        exact = solution(x0, v0, t)
        if exact is None or abs(exact[1]) > 10:
            break
        if not (abs(traj.x[k] - exact[0]) <= 1e-5 * (1 + abs(exact[0]))
                and abs(traj.v[k] - exact[1]) <= 1e-5 * (1 + abs(exact[1]))):
            return f"state at t={t:g} is {(traj.x[k], traj.v[k])}, closed form {exact}"
    return None


def _blows_up(system: str, v0: float, t1: float) -> bool:
    return system == "quadratic" and ref.quadratic_blowup_time(v0) <= t1


def expected_failure(kind: str, inp: dict) -> bool:
    """True when the closed form leaves the finite states inside the horizon,
    so the only right outcome is an exit-2 error (NonFiniteState)."""
    if kind not in ("compare", "simulate"):
        return False
    v0 = float(inp["ic"].split(",")[2])
    return _blows_up(inp["system"], v0, inp.get("t1", ROUTE_T1))


# Routes at h = 1e-3 agree to 1e-11 or better down to |singular quantity| =
# 0.01; only closer to the singular set may the program report them unequal.
SINGULAR_MARGIN = 0.005


def check_compare(inp, res, rng):
    """Every route must match the closed form, and the program must report
    the routes equal (exit 0), unless the initial condition lies within
    SINGULAR_MARGIN of the non-standard Lagrangian's singular set: there that
    route is ill-conditioned, exit 2 is accepted, and the standard and null
    routes are still held to the closed form."""
    _, x0, v0 = (float(v) for v in inp["ic"].split(","))
    solution = ref.SOLUTIONS[inp["system"]]
    routes = dict(res["trajectories"])
    if res["exit"] != 0:
        s = ref.SINGULAR[inp["system"]](x0, v0)
        if abs(s) >= SINGULAR_MARGIN:
            return (f"routes reported unequal (deviation {res['report']['max_deviation']:.3g}) "
                    f"{s:.3g} away from the singular set")
        del routes["nonstandard"]
    for route, traj in routes.items():
        wrong = _check_trajectory(solution, x0, v0, traj, 250)
        if wrong:
            return f"{route} route: {wrong}"
    return None


def check_simulate(inp, res, rng):
    _, x0, v0 = (float(v) for v in inp["ic"].split(","))
    traj = res["trajectory"]
    wrong = _check_trajectory(ref.SOLUTIONS[inp["system"]], x0, v0, traj, 1000)
    if wrong:
        return wrong
    if not res["report"]["drift"]["passed"]:
        return "null Lagrangian not conserved along an exact-arithmetic invariant"
    L0 = (v0 + x0) if inp["system"] == "tied" else math.exp(x0) * v0
    rows = res["csv"].splitlines()
    if rows[0] != "t,x,xdot,L_null" or len(rows) != len(traj) + 1:
        return f"CSV has {len(rows)} lines for {len(traj)} states"
    last = [float(v) for v in rows[-1].split(",")]
    if last[:3] != list(traj.final_state) or not ref.close(last[3], L0, 1e-6):
        return f"CSV last row {last} disagrees with the final state or L0={L0}"
    return None


def check_path(inp, res, rng):
    rep = res["report"]
    if not rep["null"]["passed"]:
        return f"null Lagrangian action depends on the path by {rep['null']['difference']}"
    width = PATH_T[1] - PATH_T[0]
    omega = math.pi * inp["k"] / width
    expected = inp["amplitude"] ** 2 * omega**2 * width / 4
    if not ref.close(rep["control"]["difference"], expected, 1e-6):
        return f"kinetic action gap {rep['control']['difference']} != {expected}"
    L = ref.compile_printed(rep["pair"]["lagrangian"])
    slope = (inp["x1"] - inp["x0"]) / width
    along = ref.simpson(lambda t: L(inp["x0"] + slope * (t - PATH_T[0]), slope, 0, t), *PATH_T, 400)
    if not ref.close(rep["null"]["action_a"], along, 1e-6):
        return f"action {rep['null']['action_a']} != {along}"
    return None


CHECK = {
    "generating": check_generating,
    "fraction": check_fraction,
    "timedep": check_timedep,
    "displacement": check_displacement,
    "perturbed": check_perturbed,
    "padded": check_padded,
    "constant": check_constant,
    "compose": check_compose,
    "audit": check_audit,
    "compare": check_compare,
    "simulate": check_simulate,
    "path": check_path,
}


# ---------------------------------------------------------------------------
# counters taken from outside the program


def node_count(e) -> int:
    n, stack = 0, [e]
    while stack:
        node = stack.pop()
        n += 1
        if isinstance(node, expr.Sum):
            stack.extend(node.terms)
        elif isinstance(node, expr.Product):
            stack.extend(node.factors)
        elif isinstance(node, expr.Power):
            stack.append(node.base)
        elif isinstance(node, expr.Apply):
            stack.append(node.arg)
    return n


def label(kind: str, inputs: dict) -> str:
    """Op kind, with the system or composer that sets its cost."""
    detail = inputs.get("system") or inputs.get("compose")
    return f"{kind}.{detail}" if detail else kind


def counters(kind: str, res: dict) -> dict:
    """Work and size counts of one completed op (lists of numbers, plus
    verdicts); they repeat exactly for a given input."""
    if kind == "generating":
        return {"harmonic_body_nodes": [node_count(res["h"].body)],
                "verdicts": (res["derive"]["nullity"], res["harmonic"]["nullity"])}
    if kind in ("perturbed", "padded"):
        return {"verdicts": (res["report"]["verdict"],)}
    if kind == "compose":
        return {"permissible": res["report"]["permissible"]}
    if kind == "compare":
        out = {"residual_nodes": [], "explicit_nodes": [], "rhs_nodes": [], "steps": 0}
        for route, (residual, g) in res["forms"].items():
            out["residual_nodes"].append(node_count(residual))
            out["explicit_nodes"].append(node_count(g))
            out["rhs_nodes"].append(node_count(expr.bind_constants(g, res["constants"])))
            out["steps"] += len(res["trajectories"][route]) - 1
        return out
    if kind == "simulate":
        return {"steps": [len(res["trajectory"]) - 1], "csv_rows": [len(res["trajectory"])],
                "csv_bytes": [len(res["csv"].encode())]}
    if kind == "path":
        return {"panels": [res["report"]["null"]["panels"], res["report"]["control"]["panels"]]}
    return {}


def outcome(kind: str, res: dict, counts: dict) -> tuple:
    """Digest material of one completed op: exit code, verdict, final
    states (9 significant digits) and counters."""
    rep = res.get("report", {})
    system = rep.get("system")
    verdict = system["classification"] if isinstance(system, dict) else (
        rep.get("verdict") or rep.get("permissible") or system)
    finals = []
    if kind == "compare":
        finals = [res["trajectories"][r].final_state for r in sorted(res["trajectories"])]
    elif kind == "simulate":
        finals = [res["trajectory"].final_state]
    states = tuple(f"{v:.9g}" for state in finals for v in state)
    return (kind, res["exit"], verdict, states, sorted(counts.items()))
