"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line on success (run with -s to see them); a
failure means the criterion is not met at its tolerance.
"""

import random
import time

import pytest

from nullag import (
    Composer,
    DEFAULT_COMPARISON_CONSTANTS,
    IVP,
    Lagrangian,
    NullVerdict,
    Verdict,
    ZERO,
    bind_constants,
    build_null,
    classify_constant,
    compare,
    comparison_catalog,
    composed_eom,
    conservation_eom,
    diff,
    drift,
    equivalent,
    gamma_from_beta,
    harmonic,
    integrate,
    is_null,
    line_path,
    momentum,
    mul,
    null_condition_residual,
    parse,
    path_independence_check,
    pow_,
    proven_zero,
    solve_C,
    solve_gamma_displacement,
    sub,
    total_dt,
    vanishes,
    with_bump,
)
from nullag.expr import T, X
from nullag.audit import run_audits

from oracles import bound
from test_construct import random_generating_function

TWO_OVER_E = 0.7357588823428847
LN_THREE = 1.0986122886681098


def _assert_null(obj, label):
    rep = is_null(obj, eps=1e-9)
    assert rep.verdict in (NullVerdict.PROVEN_NULL, NullVerdict.NUMERICALLY_NULL), (
        label,
        rep.witness,
    )


def test_criterion_1_nullity_suite(corpus_pairs):
    """Every constructed object has identically vanishing Euler-Lagrange
    residual (proven, or <= 1e-9 at 50 seeded guarded points under all six
    standard instantiations); runtime < 10 s."""
    start = time.time()
    for name, pair in corpus_pairs.items():
        _assert_null(pair.assembled(), name)
    for base in ("linear", "trig_exp"):
        for n in range(1, 5):
            h = harmonic(corpus_pairs[base], n)
            _assert_null(h.assembled(), f"{base} harmonic {n}")
    for base in ("fraction", "fraction_const"):
        h = harmonic(corpus_pairs[base], 1)
        _assert_null(h.assembled(), f"{base} harmonic 1")
    elapsed = time.time() - start
    assert elapsed < 10.0, f"nullity suite took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 (nullity suite, {elapsed:.2f}s): PASS")


def test_criterion_2_null_condition_equivalence():
    """100 random generating functions in the supported class certify; 20
    perturbed pairs are Distinct with witness."""
    rng = random.Random(42)
    for i in range(100):
        B = random_generating_function(rng)
        C = solve_C(B)
        assert null_condition_residual(B, C) == ZERO, i
        pair = build_null(B)
        rep = is_null(pair.assembled(), eps=1e-9)
        assert rep.verdict in (NullVerdict.PROVEN_NULL, NullVerdict.NUMERICALLY_NULL), i
    perturbations = [parse(p) for p in ("1", "x", "t", "x^2", "3/2", "x*t")]
    for i in range(20):
        B = random_generating_function(rng)
        C = solve_C(B)
        delta = mul(rng.randint(1, 3), perturbations[i % len(perturbations)])
        residual = null_condition_residual(B, C + delta)
        rep = vanishes(residual, seed=i)
        assert rep.verdict is Verdict.DISTINCT, i
        assert rep.witness is not None, i
    print("\nACCEPTANCE 2 (null condition <-> nullity): PASS")


def test_criterion_3_conservation_expansion(corpus_pairs):
    """Expanded conservation residual proven equal to the direct total time
    derivative for the corpus; composed dynamics on null inputs factor into
    (nonvanishing) * total_dt(L), checked at 50 points per composer."""
    for name, pair in corpus_pairs.items():
        eom = conservation_eom(pair)
        assert proven_zero(sub(total_dt(pair.assembled().body), eom.residual)), name
    constants = {"B0": 1.0, "a0": 1.0, "b0": 2.0, "c1": 1.0, "c3": 0.5}
    for name in ("constant", "exp", "tied", "linear"):
        pair = corpus_pairs[name]
        body = pair.assembled().body
        for F in (Composer.exp(), Composer.ln(), Composer.reciprocal(), Composer.power(3)):
            residual = composed_eom(F, pair.assembled()).residual
            factored = mul(momentum(body), F.deriv2(body), total_dt(body))
            assert proven_zero(sub(residual, factored)), (name, F.name)
            rep = equivalent(
                residual, factored, pair.domain, seed=7, constants=constants
            )
            assert rep.verdict is not Verdict.DISTINCT, (name, F.name)
    print("\nACCEPTANCE 3 (conservation expansion + composition factoring): PASS")


def test_criterion_4_catalog_reproduction():
    """Constant classification outcomes, tie-constraint round trips to 1e-7,
    and the two closed-form special cases matched symbolically."""
    assert classify_constant(0, 2, 1).classification.value == "DampedOscillatorTied"
    assert classify_constant(1, 0, 0).classification.value == "QuadraticDamping"
    assert classify_constant(0, 0, 0).classification.value == "Inertia"
    harmonic_osc = classify_constant(0, 0, 1)
    assert harmonic_osc.classification.value == "NoNullLagrangian"
    assert harmonic_osc.absent_witness is not None

    # differential round trip of the time-dependent tie constraint
    for beta in (parse("2"), parse("2/t"), parse("t")):
        gamma = gamma_from_beta(beta)
        residual = sub(
            gamma, parse("1/2") * diff(beta, T) + parse("1/4") * pow_(beta, 2)
        )
        assert proven_zero(residual)
    # integral round trip, quadrature with 2000 panels
    from test_systems import test_timedep_tie_constraint_round_trip

    test_timedep_tie_constraint_round_trip()

    for alpha, beta, c in (
        (parse("a0/x"), parse("b0"), parse("ct1")),
        (ZERO, parse("b0"), parse("ct2")),
    ):
        gamma = solve_gamma_displacement(alpha, beta, c)
        residual = sub(
            mul(X, diff(gamma, X)) + mul(gamma, parse("1") + mul(alpha, X)),
            mul(parse("1/4"), pow_(beta, 2)),
        )
        assert proven_zero(residual)
    g1 = solve_gamma_displacement(parse("a0/x"), parse("b0"), parse("ct1"))
    assert proven_zero(sub(g1, parse("1/4*b0^2/(1 + a0) + ct1*exp(-(1 + a0)*ln(x))")))
    g2 = solve_gamma_displacement(ZERO, parse("b0"), parse("ct2"))
    assert proven_zero(sub(g2, parse("ct2/x + 1/4*b0^2")))
    print("\nACCEPTANCE 4 (system catalog reproduction): PASS")


def test_criterion_5_conservation_runs():
    """Tied oscillator and quadratic damping: endpoint within 1e-8 of the
    closed form at h = 1e-3, invariant drift <= 1e-8 over [0, 5], each run
    under 5 s."""
    start = time.time()
    tied = classify_constant(0, 2, 1)
    traj = integrate(IVP(tied.eom.explicit(), 0.0, 1.0, 0.0, 1.0, 1e-3, constants={"B0": 1.0}))
    assert abs(traj.final_state[1] - TWO_OVER_E) <= 1e-8
    long = integrate(IVP(tied.eom.explicit(), 0.0, 1.0, 0.0, 5.0, 1e-3, constants={"B0": 1.0}))
    rep = drift(tied.null_pair, long, constants={"B0": 1.0})
    assert rep.initial == pytest.approx(1.0, abs=1e-12)
    assert rep.max_abs_drift <= 1e-8
    tied_elapsed = time.time() - start
    assert tied_elapsed < 5.0

    start = time.time()
    quad = classify_constant(1, 0, 0)
    traj = integrate(IVP(quad.eom.explicit(), 0.0, 0.0, 2.0, 1.0, 1e-3, constants={"B0": 1.0}))
    assert abs(traj.final_state[1] - LN_THREE) <= 1e-8
    long = integrate(IVP(quad.eom.explicit(), 0.0, 0.0, 2.0, 5.0, 1e-3, constants={"B0": 1.0}))
    rep = drift(quad.null_pair, long, constants={"B0": 1.0})
    assert rep.initial == pytest.approx(2.0, abs=1e-12)
    assert rep.max_abs_drift <= 1e-8
    quad_elapsed = time.time() - start
    assert quad_elapsed < 5.0
    print(
        f"\nACCEPTANCE 5 (conservation runs, {tied_elapsed:.2f}s + {quad_elapsed:.2f}s): PASS"
    )


def test_criterion_6_route_equivalence():
    """All three derivation routes agree per comparison triple to 1e-8 at
    h = 1e-3 over [0, 5], including the inertia triple with its
    non-standard form."""
    ics = {"inertia": (0.0, 2.0), "quadratic": (0.0, 2.0), "tied": (1.0, 0.0)}
    for name, (x0, v0) in ics.items():
        triple = comparison_catalog(name)
        trajectories = {}
        for route, eom in triple.routes().items():
            g = bind_constants(eom.explicit(), DEFAULT_COMPARISON_CONSTANTS)
            trajectories[route] = integrate(IVP(g, 0.0, x0, v0, 5.0, 1e-3))
        routes = list(trajectories)
        for i, a in enumerate(routes):
            for b in routes[i + 1 :]:
                dev = compare(trajectories[a], trajectories[b])
                assert dev.max_dx <= 1e-8 and dev.max_dv <= 1e-8, (name, a, b, dev)
    print("\nACCEPTANCE 6 (route equivalence): PASS")


def test_criterion_7_path_independence(corpus_pairs):
    """Three null Lagrangians pass 10 bump-perturbed pairs each at 1e-7
    (Simpson, 2000 panels); the kinetic-energy Lagrangian fails by more
    than 1e-3 on at least one pair."""
    rng = random.Random(77)
    concrete = {
        "constant": {"constants": {"c1": 1.0, "c3": 0.5}},
        "exp": {"constants": {"B0": 1.0, "a0": 1.0}},
        "tied": {"constants": {"B0": 1.0, "b0": 2.0}},
    }
    for name, binding in concrete.items():
        L = bound(corpus_pairs[name].assembled(), **binding)
        for _ in range(10):
            base = line_path(0.0, 1.0, rng.uniform(0.6, 1.0), rng.uniform(1.2, 1.8))
            bumped = with_bump(base, rng.uniform(0.02, 0.1), rng.choice((1, 2, 3)))
            rep = path_independence_check(L, base, bumped, panels=2000)
            assert rep.passed and rep.eps == 1e-7, (name, rep.difference)
    kinetic = Lagrangian(parse("1/2*x'^2"))
    worst = 0.0
    for _ in range(10):
        base = line_path(0.0, 1.0, rng.uniform(0.6, 1.0), rng.uniform(1.2, 1.8))
        bumped = with_bump(base, rng.uniform(0.02, 0.1), rng.choice((1, 2, 3)))
        rep = path_independence_check(kinetic, base, bumped, panels=2000)
        worst = max(worst, rep.difference)
    assert worst > 1e-3
    print("\nACCEPTANCE 7 (path independence): PASS")


def test_criterion_8_convergence_order():
    """Halving the step shrinks endpoint error by a factor in [14, 18] for
    both closed-form systems."""
    tied = classify_constant(0, 2, 1).eom.explicit()
    quad = classify_constant(1, 0, 0).eom.explicit()

    def ratio(g, x0, v0, target):
        def err(h):
            traj = integrate(IVP(g, 0.0, x0, v0, 1.0, h, constants={"B0": 1.0}))
            return abs(traj.final_state[1] - target)

        return err(0.01) / err(0.005)

    r_tied = ratio(tied, 1.0, 0.0, TWO_OVER_E)
    r_quad = ratio(quad, 0.0, 2.0, LN_THREE)
    assert 14.0 <= r_tied <= 18.0, r_tied
    assert 14.0 <= r_quad <= 18.0, r_quad
    print(f"\nACCEPTANCE 8 (convergence order {r_tied:.2f}, {r_quad:.2f}): PASS")


def test_criterion_9_transcription_audit():
    """The three transcription discrepancies are detected automatically
    (Distinct with witness) and each machine-derived corrected form is
    certified null."""
    findings = {f.name: f for f in run_audits(seed=0)}
    for name in (
        "oscillator_gauge_scale",
        "displacement_exponent_sign",
        "fraction_family_transcription",
    ):
        f = findings[name]
        assert f.verdict is Verdict.DISTINCT, name
        assert f.witness is not None, name
        assert f.machine_null_verdict in ("ProvenNull", "NumericallyNull"), name
    print("\nACCEPTANCE 9 (transcription audit): PASS")
