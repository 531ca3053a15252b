"""Batch command-line surface: derivation, verification, harmonics,
equations of motion, the system catalog, simulation, route comparison, and
the transcription audit.

Every command is deterministic given its inputs and seed; reports embed the
tool version, seed, and tolerances.  Each command fills in the report that
`main` hands it and returns whether its verdicts passed; only `main` writes
reports and picks exit codes: 0 when all verdicts pass, 2 for verification
failures, 3 for input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import combinations

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
from .domain import DEFAULT_DOMAIN, Domain, Guard
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
        "seed": args.seed,
        "tolerances": {"eps_eq": EPS_EQ, "eps_act": EPS_ACT, "eps_drift": EPS_DRIFT},
    }


def _lines(report: dict, prefix: str = ""):
    for k, v in report.items():
        if isinstance(v, dict):
            yield from _lines(v, f"{prefix}{k}.")
        else:
            yield f"{prefix}{k}: {v}"


def _emit(args, report: dict) -> None:
    text = json.dumps(report, indent=2, default=str) if args.json else "\n".join(_lines(report))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _domain(x, t, guards) -> Domain:
    """The one reader of a Domain from outside input: x and t are (lo, hi)
    pairs, or None for the default box; guards are (expression, positive)
    pairs."""
    return Domain(
        tuple(x or DEFAULT_DOMAIN.x),
        tuple(t or DEFAULT_DOMAIN.t),
        tuple(Guard(parse(text), positive=positive) for text, positive in guards),
    )


def _parse_domain(args) -> Domain:
    x, t = (tuple(map(_float, box.split(","))) if box else None for box in (args.x_box, args.t_box))
    return _domain(x, t, [(g.lstrip("+"), g.startswith("+")) for g in args.guard or []])


def _pair(args):
    """The null pair generated by the --B, --f and domain flags."""
    return build_null(
        parse(args.B), parse(args.f) if args.f else ZERO, _parse_domain(args), seed=args.seed
    )


def _number(text: str) -> ex.Const:
    """A numeric argument as an exact rational: 0.2 is 1/5; 1e-3, .5 and 1/4
    are read too."""
    try:
        return ex.const(Fraction(text))
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


def cmd_derive(args, report: dict) -> bool:
    if args.spec_file:
        with open(args.spec_file) as fh:
            try:
                records = json.load(fh)
            except RecursionError:
                raise ValueError(f"spec file {args.spec_file} is nested too deeply") from None
        if not isinstance(records, list):
            raise ValueError(f"spec file {args.spec_file} must hold a JSON array of records")
        report["results"] = [_derive_record(record, args.seed) for record in records]
    elif not args.B:
        raise ParseError("derive requires --B or --spec-file", 0)
    else:
        report.update(_pair_report(_pair(args)))
    return True


_RECORD_FIELDS = {"kind", "B", "f", "f1", "f2", "f3", "f4", "domain", "guards"}


def _derive_record(record, seed: int) -> dict:
    def check(ok: bool, problem: str) -> None:
        if not ok:
            raise ValueError(f"spec record {json.dumps(record)} {problem}")

    check(isinstance(record, dict), "is not a JSON object")
    for k in record:
        check(k in _RECORD_FIELDS, f"has an unknown field {k!r}")
    kind = record.get("kind", "generating")
    check(kind in ("generating", "fraction"), 'has a kind other than "generating" or "fraction"')
    missing = [k for k in (("f1", "f2") if kind == "fraction" else ("B",)) if k not in record]
    check(not missing, f"lacks {', '.join(missing)}")
    for k in ("B", "f", "f1", "f2", "f3", "f4"):
        check(isinstance(record.get(k, ""), str), f"has a {k} that is not a string")
    box = record.get("domain", {})
    check(isinstance(box, dict), "has a domain that is not an object")
    for k, lo_hi in box.items():
        check(k in ("x", "t"), f"has a domain key {k!r} other than 'x' and 't'")
        check(
            isinstance(lo_hi, list) and len(lo_hi) == 2
            # a JSON true/false is a bool, not a number; int/float comparison is exact
            and all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in lo_hi),
            f"has a domain {k} that is not a list of two finite numbers",
        )
    guards = record.get("guards", [])
    check(isinstance(guards, list), "has guards that are not a list")
    for g in guards:
        check(isinstance(g, dict) and isinstance(g.get("expr"), str), f"has a guard {json.dumps(g)} without a string expr")
        for k in g:
            check(k in ("expr", "positive"), f"has a guard {json.dumps(g)} with an unknown key {k!r}")
        check(isinstance(g.get("positive", False), bool), f"has a guard {json.dumps(g)} whose positive is not a boolean")
    try:
        domain = _domain(box.get("x"), box.get("t"), [(g["expr"], g.get("positive", False)) for g in guards])
        f = parse(record["f"]) if record.get("f") else ZERO
        if kind == "fraction":
            spec = FractionSpec(*(parse(record.get(k, "0")) for k in ("f1", "f2", "f3", "f4")))
            pair = build_nonstandard_null(spec, f, domain, seed=seed)
        else:
            pair = build_null(parse(record["B"]), f, domain, seed=seed)
        return _pair_report(pair)
    except (ValueError, ex.ExprError) as err:
        # the same exception, so main still picks its exit code, naming the record
        err.args = (f"spec record {json.dumps(record)}: {err}",)
        raise


def cmd_verify(args, report: dict) -> bool:
    report["tolerances"]["eps_eq"] = eps = _tolerance(args.eps_eq)
    L = Lagrangian(parse(args.lagrangian), _parse_domain(args))
    rep = is_null(L, seed=args.seed, eps=eps)
    report["lagrangian"] = to_string(L.body)
    report.update(rep.to_dict())
    return bool(rep)


def cmd_harmonic(args, report: dict) -> bool:
    pair = _pair(args)
    h = harmonic(pair, args.n, seed=args.seed)
    report["base"] = pair.to_dict()
    report["harmonic"] = h.to_dict()
    report["nullity"] = h.certificate.verdict.value
    return True


def cmd_eom(args, report: dict) -> bool:
    if not (args.B or args.lagrangian):
        raise ParseError("eom requires --B or --L", 0)
    if args.B:
        pair = _pair(args)
        L = pair.assembled()
        report["source"] = pair.to_dict()
    else:
        L = Lagrangian(parse(args.lagrangian), _parse_domain(args))
        report["source"] = {"lagrangian": to_string(L.body)}
    if args.compose:
        F = _composer(args.compose)
        # raises InfeasibleDomainError when F's range guards leave no feasible point
        compose(F, L, seed=args.seed)
        eom = composed_eom(F, L)
        report["composer"] = F.name
        if args.B:
            report["permissible"] = permissibility_check(F, pair, seed=args.seed)
    elif args.B:
        eom = conservation_eom(pair)
    else:
        eom = eom_from_lagrangian(L)
    report["eom"] = eom.to_dict()
    return True


def _composer(name: str) -> Composer:
    if name.startswith("power:"):
        return Composer.power(int(name.split(":", 1)[1]))
    if name in CATALOG:
        return CATALOG[name]()
    return Composer.from_expr(parse(name))


def cmd_system(args, report: dict) -> bool:
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
    return True


_SIMULATABLE = {
    "inertia": lambda a: classify_constant(0, 0, 0),
    "quadratic": lambda a: classify_constant(_number(a.a0), 0, 0),
    "tied": lambda a: classify_constant(0, _number(a.beta0), _number(a.beta0) ** 2 / 4),
}


def cmd_simulate(args, report: dict) -> bool:
    report["tolerances"]["eps_drift"] = eps = _tolerance(args.eps_drift)
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
    return rep.passed


def cmd_compare(args, report: dict) -> bool:
    tol = _tolerance(args.tol)
    triple = comparison_catalog(args.system, seed=args.seed)
    constants = dict(DEFAULT_COMPARISON_CONSTANTS)
    if args.a0 is not None:
        constants["a0"] = _float(args.a0)
    if args.beta0 is not None:
        constants["b0"] = _float(args.beta0)
    t0, x0, v0 = (_float(v) for v in args.ic.split(","))
    t1, h = _float(args.t1), _float(args.h)
    trajectories = {}
    for route, eom in triple.routes().items():
        trajectories[route] = integrate(eom.ivp(t0, x0, v0, t1, h, constants=constants))
    deviations = {}
    worst = 0.0
    for a, b in combinations(trajectories, 2):
        dev = compare_trajectories(trajectories[a], trajectories[b])
        deviations[f"{a}-vs-{b}"] = dev.to_dict()
        worst = max(worst, dev.max_dx, dev.max_dv)
    report["system"] = triple.name
    report["constants"] = constants
    report["deviations"] = deviations
    report["max_deviation"] = worst
    report["tolerance"] = tol
    report["passed"] = worst <= tol
    return report["passed"]


def cmd_audit(args, report: dict) -> bool:
    findings = run_audits(args.seed)
    report["findings"] = [f.to_dict() for f in findings]
    report["all_discrepancies_detected"] = all(f.discrepancy_detected for f in findings)
    report["machine_forms_null"] = all(
        f.machine_null_verdict in (None, NullVerdict.PROVEN_NULL.value, NullVerdict.NUMERICALLY_NULL.value)
        for f in findings
    )
    return report["all_discrepancies_detected"] and report["machine_forms_null"]


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


class _Parser(argparse.ArgumentParser):
    """A usage error (unknown or missing flag, a flag value such as
    `--x-box -1,1` read as a flag) is an input error: argparse's own exit 2
    would read as a verification failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"input error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
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
    p.set_defaults(func=cmd_system)
    psub = p.add_subparsers(dest="variant", required=True)
    pc = psub.add_parser("constant", help="constant coefficients")
    pc.add_argument("--alpha", required=True)
    pc.add_argument("--beta", required=True)
    pc.add_argument("--gamma", required=True)
    _add_common(pc)
    pt = psub.add_parser("timedep", help="time-dependent coefficients (alpha1 = 0 branch)")
    pt.add_argument("--beta1", required=True)
    pt.add_argument("--gamma1")
    pt.add_argument("--alpha1")
    _add_common(pt)
    pd = psub.add_parser("displacement", help="displacement-dependent coefficients")
    pd.add_argument("--alpha2", required=True)
    pd.add_argument("--beta0", required=True)
    pd.add_argument("--gamma2")
    pd.add_argument("--ctilde")
    _add_common(pd)

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
        report = _base_report(args)
        passed = args.func(args, report)
        _emit(args, report)
        return EXIT_OK if passed else EXIT_VERIFICATION
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
