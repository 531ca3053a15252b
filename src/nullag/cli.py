"""Batch command-line surface: derivation, verification, harmonics,
equations of motion, the system catalog, simulation, route comparison, and
the transcription audit.

Every command is deterministic given its inputs and seed; reports embed the
tool version, seed, and tolerances.  Exit codes: 0 when all verdicts pass,
2 for verification failures, 3 for input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from . import expr as ex
from .audit import run_audits
from .composer import (
    CATALOG,
    Composer,
    compose,
    composed_eom,
    conservation_eom,
    eom_from_lagrangian,
    permissibility_check,
)
from .construct import (
    AntiderivativeUnsupported,
    FractionSpec,
    build_nonstandard_null,
    build_null,
    harmonic,
    reconstruct_gauge,
)
from .domain import Domain, Guard
from .equivalence import EPS_EQ
from .expr import ZERO, to_string
from .numint import EPS_DRIFT, compare as compare_trajectories, drift, integrate, write_csv
from .parser import ParseError, parse
from .systems import (
    ConstraintViolated,
    DEFAULT_COMPARISON_CONSTANTS,
    build_displacement,
    build_timedep,
    classify_constant,
    comparison_catalog,
)
from .variational import EPS_ACT, Lagrangian, NullCertificationFailed, NullVerdict, is_null

EXIT_OK = 0
EXIT_VERIFICATION = 2
EXIT_INPUT = 3


def _base_report(args) -> dict:
    return {
        "tool": "nullag",
        "version": __version__,
        "seed": getattr(args, "seed", 0),
        "tolerances": {"eps_eq": EPS_EQ, "eps_act": EPS_ACT, "eps_drift": EPS_DRIFT},
    }


def _emit(args, report: dict) -> None:
    if args.json:
        text = json.dumps(report, indent=2, default=str)
    else:
        lines = []

        def walk(prefix: str, value) -> None:
            if isinstance(value, dict):
                for k, v in value.items():
                    walk(f"{prefix}{k}." if prefix else f"{k}.", v) if isinstance(
                        v, dict
                    ) else lines.append(f"{prefix}{k}: {v}")
            else:
                lines.append(f"{prefix}: {value}")

        walk("", report)
        text = "\n".join(lines)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _parse_domain(args) -> Domain:
    kw = {}
    if getattr(args, "x_box", None):
        lo, hi = (_float(v) for v in args.x_box.split(","))
        kw["x"] = (lo, hi)
    if getattr(args, "t_box", None):
        lo, hi = (_float(v) for v in args.t_box.split(","))
        kw["t"] = (lo, hi)
    domain = Domain(**kw)
    for g in getattr(args, "guard", None) or []:
        positive = g.startswith("+")
        domain = domain.with_guards(Guard(parse(g.lstrip("+")), positive=positive))
    return domain


def _number(text: str) -> ex.Const:
    """A numeric argument as an exact rational: 0.2 is 1/5; 1e-3, .5 and 1/4
    are read too."""
    try:
        return ex.Const(Fraction(text))
    except ZeroDivisionError:
        raise ValueError(f"{text!r} divides by zero") from None


def _float(text: str) -> float:
    """A numeric argument read exactly (see _number), then rounded once to
    the nearest float; a value too large for a float is an input error."""
    try:
        return float(_number(text).value)
    except OverflowError:
        raise ValueError(f"{text!r} is too large for a float") from None


def _tolerance(text: str) -> float:
    """A tolerance argument read as _float reads it; it must be >= 0."""
    value = _float(text)
    if value < 0:
        raise ValueError(f"tolerance {text!r} must be >= 0")
    return value


def _pair_report(pair) -> dict:
    gauge = reconstruct_gauge(pair)
    rep = pair.to_dict()
    rep["gauge"] = to_string(gauge.body) if gauge else "not reconstructed"
    rep["nullity"] = pair.certificate.verdict.value
    return rep


def cmd_derive(args) -> int:
    report = _base_report(args)
    if args.spec_file:
        with open(args.spec_file) as fh:
            records = json.load(fh)
        if not isinstance(records, list):
            raise ValueError(f"spec file {args.spec_file} must hold a JSON array of records")
        report["results"] = [_derive_record(record, args.seed) for record in records]
        _emit(args, report)
        return EXIT_OK
    if not args.B:
        raise ParseError("derive requires --B or --spec-file", 0)
    pair = build_null(
        parse(args.B), parse(args.f) if args.f else ZERO, _parse_domain(args), seed=args.seed
    )
    report.update(_pair_report(pair))
    _emit(args, report)
    return EXIT_OK


def _derive_record(record: dict, seed: int) -> dict:
    if not isinstance(record, dict):
        raise ValueError(f"spec record {json.dumps(record)} is not a JSON object")
    kind = record.get("kind", "generating")
    missing = [k for k in (("f1", "f2") if kind == "fraction" else ("B",)) if k not in record]
    if missing:
        raise ValueError(f"spec record {json.dumps(record)} lacks {', '.join(missing)}")
    box = record.get("domain", {})
    domain = Domain(
        x=tuple(box.get("x", (0.5, 2.0))),
        t=tuple(box.get("t", (0.5, 2.0))),
    )
    for g in record.get("guards", []):
        domain = domain.with_guards(Guard(parse(g["expr"]), positive=g.get("positive", False)))
    f = parse(record["f"]) if record.get("f") else ZERO
    if kind == "fraction":
        spec = FractionSpec(
            parse(record["f1"]),
            parse(record["f2"]),
            parse(record.get("f3", "0")),
            parse(record.get("f4", "0")),
        )
        pair = build_nonstandard_null(spec, f, domain, seed=seed)
    else:
        pair = build_null(parse(record["B"]), f, domain, seed=seed)
    return _pair_report(pair)


def cmd_verify(args) -> int:
    eps = _tolerance(args.eps_eq)
    report = _base_report(args)
    report["tolerances"]["eps_eq"] = eps
    L = Lagrangian(parse(args.lagrangian), _parse_domain(args))
    rep = is_null(L, seed=args.seed, eps=eps)
    report["lagrangian"] = to_string(L.body)
    report.update(rep.to_dict())
    _emit(args, report)
    return EXIT_OK if rep else EXIT_VERIFICATION


def cmd_harmonic(args) -> int:
    report = _base_report(args)
    pair = build_null(
        parse(args.B), parse(args.f) if args.f else ZERO, _parse_domain(args), seed=args.seed
    )
    h = harmonic(pair, args.n, seed=args.seed)
    report["base"] = pair.to_dict()
    report["harmonic"] = h.to_dict()
    report["nullity"] = h.certificate.verdict.value
    _emit(args, report)
    return EXIT_OK


def cmd_eom(args) -> int:
    report = _base_report(args)
    if not (args.B or args.lagrangian):
        raise ParseError("eom requires --B or --L", 0)
    if args.B:
        pair = build_null(
            parse(args.B), parse(args.f) if args.f else ZERO, _parse_domain(args), seed=args.seed
        )
        L = pair.assembled()
        report["source"] = pair.to_dict()
    else:
        L = Lagrangian(parse(args.lagrangian), _parse_domain(args))
        report["source"] = {"lagrangian": to_string(L.body)}
    if args.compose:
        F = _composer(args.compose)
        # raises RangeGuardViolated when F's range guards leave no feasible point
        compose(F, L, seed=args.seed)
        eom = composed_eom(F, L)
        report["composer"] = F.name
        if args.B:
            report["permissible"] = permissibility_check(F, pair, seed=args.seed)
    elif args.B:
        eom = conservation_eom(pair, seed=args.seed)
    else:
        eom = eom_from_lagrangian(L)
    report["eom"] = eom.to_dict()
    _emit(args, report)
    return EXIT_OK


def _composer(name: str) -> Composer:
    if name.startswith("power:"):
        return Composer.power(int(name.split(":", 1)[1]))
    if name in CATALOG:
        return CATALOG[name]()
    return Composer.from_expr(parse(name))


def cmd_system(args) -> int:
    report = _base_report(args)
    if args.variant == "constant":
        alpha, beta, gamma = (_number(v) for v in (args.alpha, args.beta, args.gamma))
        case = classify_constant(alpha, beta, gamma, seed=args.seed)
    elif args.variant == "timedep":
        case = build_timedep(
            parse(args.beta1),
            parse(args.gamma1) if args.gamma1 else None,
            parse(args.alpha1) if args.alpha1 else ZERO,
            domain=_parse_domain(args),
            seed=args.seed,
        )
    else:
        case = build_displacement(
            parse(args.alpha2),
            parse(args.beta0),
            parse(args.gamma2) if args.gamma2 else None,
            ctilde=parse(args.ctilde) if args.ctilde else ZERO,
            domain=_parse_domain(args),
            seed=args.seed,
        )
    report["system"] = case.to_dict()
    _emit(args, report)
    return EXIT_OK


_SIMULATABLE = {
    "inertia": lambda a: classify_constant(0, 0, 0),
    "quadratic": lambda a: classify_constant(_number(a.a0), 0, 0),
    "tied": lambda a: classify_constant(0, _number(a.beta0), _number(a.beta0) ** 2 / 4),
}


def cmd_simulate(args) -> int:
    eps = _tolerance(args.eps_drift)
    report = _base_report(args)
    report["tolerances"]["eps_drift"] = eps
    case = _SIMULATABLE[args.system](args)
    constants = {"B0": _number(args.B0)}
    t0, x0, v0 = (_float(v) for v in args.ic.split(","))
    ivp = case.eom.ivp(t0, x0, v0, _float(args.t1), _float(args.h), constants=constants)
    traj = integrate(ivp)
    rep = drift(case.null_pair, traj, eps=eps, constants=constants)
    if args.csv:
        write_csv(args.csv, traj, rep.values)
        report["csv"] = args.csv
    report["system"] = case.classification.value
    report["explicit"] = f"x'' = {to_string(ivp.g)}"
    report["final_state"] = {"t": traj.final_state[0], "x": traj.final_state[1], "xdot": traj.final_state[2]}
    report["drift"] = rep.to_dict()
    _emit(args, report)
    return EXIT_OK if rep.passed else EXIT_VERIFICATION


def cmd_compare(args) -> int:
    tol = _tolerance(args.tol)
    report = _base_report(args)
    triple = comparison_catalog(args.system, seed=args.seed)
    constants = dict(DEFAULT_COMPARISON_CONSTANTS)
    if args.a0 is not None:
        constants["a0"] = _float(args.a0)
    if args.beta0 is not None:
        constants["b0"] = _float(args.beta0)
    t0, x0, v0 = (_float(v) for v in args.ic.split(","))
    t1, h = _float(args.t1), _float(args.h)
    trajectories = {}
    for route, eom in triple.routes(seed=args.seed).items():
        trajectories[route] = integrate(eom.ivp(t0, x0, v0, t1, h, constants=constants))
    names = list(trajectories)
    deviations = {}
    worst = 0.0
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            dev = compare_trajectories(trajectories[a], trajectories[b])
            deviations[f"{a}-vs-{b}"] = dev.to_dict()
            worst = max(worst, dev.max_dx, dev.max_dv)
    report["system"] = triple.name
    report["constants"] = constants
    report["deviations"] = deviations
    report["max_deviation"] = worst
    report["tolerance"] = tol
    report["passed"] = worst <= tol
    _emit(args, report)
    return EXIT_OK if worst <= tol else EXIT_VERIFICATION


def cmd_audit(args) -> int:
    report = _base_report(args)
    findings = run_audits(args.seed)
    report["findings"] = [f.to_dict() for f in findings]
    detected = all(f.discrepancy_detected for f in findings)
    machine_ok = all(
        f.machine_null_verdict in (None, NullVerdict.PROVEN_NULL.value, NullVerdict.NUMERICALLY_NULL.value)
        for f in findings
    )
    report["all_discrepancies_detected"] = detected
    report["machine_forms_null"] = machine_ok
    _emit(args, report)
    return EXIT_OK if detected and machine_ok else EXIT_VERIFICATION


def _add_common(p: argparse.ArgumentParser, *, domain: bool = True) -> None:
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--seed", type=int, default=0, help="seed for all randomized checks")
    p.add_argument("--out", help="write the report to this path instead of stdout")
    if domain:
        p.add_argument("--x-box", help="x interval as lo,hi", dest="x_box")
        p.add_argument("--t-box", help="t interval as lo,hi", dest="t_box")
        p.add_argument(
            "--guard",
            action="append",
            help="guard expression kept nonzero (prefix with + for positive)",
        )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nullag",
        description="workbench for null Lagrangians: derive, verify, simulate, audit",
    )
    ap.add_argument("--version", action="version", version=f"nullag {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="derive a null Lagrangian from a generating function")
    p.add_argument("--B", help="generating function B(x, t)")
    p.add_argument("--f", help="additive time term f(t)")
    p.add_argument("--spec-file", help="JSON batch file of generating/fraction records")
    _add_common(p)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("verify", help="verdict on whether a Lagrangian is null")
    p.add_argument("lagrangian", help="Lagrangian expression over x, x', t")
    p.add_argument("--eps-eq", default=str(EPS_EQ), dest="eps_eq")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("harmonic", help="higher harmonic of a generated null Lagrangian")
    p.add_argument("--B", required=True)
    p.add_argument("--f")
    p.add_argument("--n", type=int, required=True, help="harmonic order")
    _add_common(p)
    p.set_defaults(func=cmd_harmonic)

    p = sub.add_parser("eom", help="equation of motion from a Lagrangian or null pair")
    p.add_argument("--L", dest="lagrangian", help="Lagrangian (Euler-Lagrange route)")
    p.add_argument("--B", help="generating function (conservation route)")
    p.add_argument("--f")
    p.add_argument("--compose", help="composer: identity|exp|ln|reciprocal|power:k|<expr in L>")
    _add_common(p)
    p.set_defaults(func=cmd_eom)

    p = sub.add_parser("system", help="catalog of dissipative systems with null Lagrangians")
    psub = p.add_subparsers(dest="variant", required=True)
    pc = psub.add_parser("constant", help="constant coefficients")
    pc.add_argument("--alpha", required=True)
    pc.add_argument("--beta", required=True)
    pc.add_argument("--gamma", required=True)
    _add_common(pc)
    pc.set_defaults(func=cmd_system, variant="constant")
    pt = psub.add_parser("timedep", help="time-dependent coefficients (alpha1 = 0 branch)")
    pt.add_argument("--beta1", required=True)
    pt.add_argument("--gamma1")
    pt.add_argument("--alpha1")
    _add_common(pt)
    pt.set_defaults(func=cmd_system, variant="timedep")
    pd = psub.add_parser("displacement", help="displacement-dependent coefficients")
    pd.add_argument("--alpha2", required=True)
    pd.add_argument("--beta0", required=True)
    pd.add_argument("--gamma2")
    pd.add_argument("--ctilde")
    _add_common(pd)
    pd.set_defaults(func=cmd_system, variant="displacement")

    p = sub.add_parser("simulate", help="integrate a catalog system and monitor conservation")
    p.add_argument("--system", choices=sorted(_SIMULATABLE), required=True)
    p.add_argument("--a0", default="1", help="quadratic-damping coefficient")
    p.add_argument("--beta0", default="2", help="linear-damping coefficient")
    p.add_argument("--B0", default="1", help="overall scale of the null pair")
    p.add_argument("--ic", required=True, help="initial condition t0,x0,v0")
    p.add_argument("--h", default="1e-3")
    p.add_argument("--t1", required=True)
    p.add_argument("--csv", help="write the trajectory CSV here")
    p.add_argument("--eps-drift", default=str(EPS_DRIFT), dest="eps_drift")
    _add_common(p, domain=False)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="trajectory equivalence of the three derivation routes")
    p.add_argument("--system", choices=["inertia", "quadratic", "tied"], required=True)
    p.add_argument("--a0")
    p.add_argument("--beta0")
    p.add_argument("--ic", required=True, help="initial condition t0,x0,v0")
    p.add_argument("--h", default="1e-3")
    p.add_argument("--t1", required=True)
    p.add_argument("--tol", default="1e-8")
    _add_common(p, domain=False)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("audit", help="detect transcription slips in circulated closed forms")
    _add_common(p, domain=False)
    p.set_defaults(func=cmd_audit)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, AntiderivativeUnsupported, ValueError, OSError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (NullCertificationFailed, ConstraintViolated) as err:
        print(f"verification failure: {err}", file=sys.stderr)
        return EXIT_VERIFICATION
    except ex.ExprError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
