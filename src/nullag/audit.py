"""Automated audit of reference formula transcriptions.

Several published closed forms for objects this package derives circulate
with transcription slips.  Each audit derives the object from its
generating data, compares it against the reference form with the tri-state
equivalence check, and reports the verdict together with a witness; a
Distinct verdict is reported, never silently repaired.  The machine-derived
form is additionally certified null where applicable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .construct import FractionSpec, build_nonstandard_null
from .equivalence import Verdict, equivalent, vanishes
from .expr import ZERO, FuncSym, X, add, diff, mul, pow_, to_string
from .parser import parse
from .systems import build_displacement, comparison_catalog, solve_gamma_displacement
from .variational import Lagrangian, is_null


@dataclass
class AuditFinding:
    name: str
    description: str
    verdict: Verdict
    machine_form: str
    reference_form: str
    machine_null_verdict: str | None = None
    reference_null_verdict: str | None = None
    witness: dict | None = None
    notes: dict = field(default_factory=dict)

    @property
    def discrepancy_detected(self) -> bool:
        return self.verdict is Verdict.DISTINCT

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "verdict": self.verdict.value,
            "machine_form": self.machine_form,
            "reference_form": self.reference_form,
            "machine_null_verdict": self.machine_null_verdict,
            "reference_null_verdict": self.reference_null_verdict,
            "witness": self.witness,
            "notes": self.notes,
        }


def audit_oscillator_scale(seed: int = 0) -> AuditFinding:
    """Tied-oscillator null Lagrangian: a circulated intermediate form reads
    (x' + x/2)*B0*e^(b0*t/2), dropping the damping coefficient from the
    displacement term; the general form carries b0/2.  The two agree only
    at b0 = 1."""
    reference = parse("(x' + 1/2*x)*B0*exp(b0*t/2)")
    machine = parse("(x' + 1/2*b0*x)*B0*exp(b0*t/2)")
    rep = equivalent(reference, machine, seed=seed)
    m_null = is_null(Lagrangian(machine), seed=seed)
    r_null = is_null(Lagrangian(reference), seed=seed)
    return AuditFinding(
        name="oscillator_gauge_scale",
        description=(
            "tied damped-oscillator null Lagrangian: displacement term must carry the "
            "damping coefficient b0/2, not 1/2"
        ),
        verdict=rep.verdict,
        machine_form=to_string(machine),
        reference_form=to_string(reference),
        machine_null_verdict=m_null.verdict.value,
        reference_null_verdict=r_null.verdict.value,
        witness=rep.witness or r_null.witness,
        notes={"agrees_only_at": "b0 = 1"},
    )


def audit_displacement_exponent(seed: int = 0) -> AuditFinding:
    """Displacement-dependent branch with zero linear damping: the tie
    constraint forces gamma = (c/x)*e^(-I) with I the x-antiderivative of
    the quadratic-damping coefficient; a circulated form prints the
    exponent with the opposite sign."""
    alpha = parse("a0")
    machine_gamma = solve_gamma_displacement(alpha, ZERO, parse("ct3"))
    reference_gamma = parse("(ct3/x)*exp(a0*x)")
    rep = equivalent(reference_gamma, machine_gamma, seed=seed)
    case = build_displacement(alpha, ZERO, machine_gamma, seed=seed)
    constraint_ref = add(
        mul(X, diff(reference_gamma, X)),
        mul(reference_gamma, add(parse("1"), mul(alpha, X))),
    )
    ref_constraint_rep = vanishes(constraint_ref, seed=seed)
    return AuditFinding(
        name="displacement_exponent_sign",
        description=(
            "zero-damping displacement branch: gamma = (c/x)*e^(-I_alpha); the "
            "positive-exponent variant violates the tie constraint"
        ),
        verdict=rep.verdict,
        machine_form=to_string(machine_gamma),
        reference_form=to_string(reference_gamma),
        machine_null_verdict=case.null_pair.certificate.verdict.value,
        witness=rep.witness,
        notes={
            "reference_constraint_verdict": ref_constraint_rep.verdict.value,
            "reference_constraint_witness": ref_constraint_rep.witness,
        },
    )


def audit_fraction_transcription(seed: int = 0) -> AuditFinding:
    """Fractional family: the circulated closed form of the C-part writes
    one denominator as f3*x + f3*t + f4 (instead of f2*x + f3*t + f4) and
    bundles an f1*f3 term with an extra factor of t; the machine-derived
    antiderivative is the source of truth."""
    spec = FractionSpec(FuncSym("f1"), FuncSym("f2"), FuncSym("f3"), FuncSym("f4"))
    pair = build_nonstandard_null(spec, seed=seed)
    machine_c_part = pair.xC
    reference_c_part = parse(
        "(f1(t)'*f2(t) - f1(t)*f2(t)')/f2(t)^2"
        "*(ln(abs(f2(t)*x + f3(t)*t + f4(t))) + (f3(t)*t + f4(t))/(f3(t)*x + f3(t)*t + f4(t)))"
        " - ((f1(t)'*f3(t) - f1(t)*f3(t)' - f1(t)*f3(t))*t + f1(t)'*f4(t) - f1(t)*f4(t)')"
        "/(f2(t)*(f2(t)*x + f3(t)*t + f4(t)))"
    )
    rep = equivalent(reference_c_part, machine_c_part, pair.domain, seed=seed)
    return AuditFinding(
        name="fraction_family_transcription",
        description=(
            "fractional-family C-part: circulated form has a transcribed denominator "
            "f3*x + f3*t + f4 and an f1*f3 term bundled with an extra factor of t"
        ),
        verdict=rep.verdict,
        machine_form=to_string(machine_c_part),
        reference_form=to_string(reference_c_part),
        machine_null_verdict=pair.certificate.verdict.value,
        witness=rep.witness,
    )


def audit_oscillator_reciprocity(seed: int = 0) -> AuditFinding:
    """Tied oscillator: the non-standard Lagrangian is claimed to be exactly
    the inverse of the null Lagrangian at unit scale.  Literal reciprocity
    holds for the t-exponent form e^(-b0*t/2)/(x' + b0*x/2) and fails for
    the circulated x-exponent variant by the factor e^(b0*(t-x)/2)."""
    triple = comparison_catalog("tied", seed=seed)
    null_body = triple.null_pair.assembled().body
    inverse = pow_(null_body, -1)
    reference = parse("exp(-b0*x/2)/(x' + 1/2*b0*x)")
    domain = triple.nonstandard.domain
    rep_literal = equivalent(reference, inverse, domain, seed=seed, constants={"c3": 1.0})
    rep_working = equivalent(
        triple.nonstandard.body, inverse, domain, seed=seed, constants={"c3": 1.0}
    )
    return AuditFinding(
        name="oscillator_reciprocity",
        description=(
            "non-standard vs inverse null Lagrangian for the tied oscillator: literal "
            "reciprocity requires the exponent over t, not x"
        ),
        verdict=rep_literal.verdict,
        machine_form=to_string(triple.nonstandard.body),
        reference_form=to_string(reference),
        witness=rep_literal.witness,
        notes={"working_form_vs_inverse": rep_working.verdict.value},
    )


def run_audits(seed: int = 0) -> list[AuditFinding]:
    return [
        audit_oscillator_scale(seed),
        audit_displacement_exponent(seed),
        audit_fraction_transcription(seed),
        audit_oscillator_reciprocity(seed),
    ]
