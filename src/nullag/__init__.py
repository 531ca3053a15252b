"""Symbolic-numeric workbench for null Lagrangians.

Construct null Lagrangians from generating functions, verify nullity with
the Euler-Lagrange operator, derive equations of motion from the
conservation rule d/dt[L_null] = 0, and validate the dynamics numerically
(conservation along integrated trajectories, trajectory equivalence across
derivation routes, action path independence).
"""

from .expr import (
    Apply,
    Const,
    ConstSym,
    EvaluationError,
    Expr,
    ExprError,
    FuncSym,
    JetOrderError,
    JetSym,
    Power,
    Product,
    Sum,
    T,
    UnboundSymbolError,
    X,
    XDDOT,
    XDDDOT,
    XDOT,
    ZERO,
    add,
    apply_fn,
    bind_constants,
    canonicalize,
    compile_expr,
    cos,
    diff,
    div,
    exp,
    free_atoms,
    instantiate,
    ln,
    mul,
    pow_,
    proven_zero,
    sin,
    sub,
    substitute,
    to_string,
    total_dt,
)
from .parser import ParseError, parse
from .domain import (
    DEFAULT_DOMAIN,
    EPS_GUARD,
    Domain,
    DomainExit,
    Guard,
    InfeasibleDomainError,
    STANDARD_FUNCTIONS,
    Sample,
    collect_guards,
    sample_points,
)
from .equivalence import EquivalenceReport, Verdict, equivalent, vanishes
from .variational import (
    GaugeFunction,
    Lagrangian,
    NullCertificationFailed,
    NullPair,
    NullReport,
    NullVerdict,
    Path,
    action,
    euler_lagrange_residual,
    from_gauge,
    is_null,
    line_path,
    momentum,
    null_condition_residual,
    path_independence_check,
    with_bump,
)
from .construct import (
    AntiderivativeUnsupported,
    DenominatorVanishes,
    FractionSpec,
    HarmonicLagrangian,
    antiderivative,
    build_nonstandard_null,
    build_null,
    harmonic,
    reconstruct_gauge,
    solve_C,
    weighted_B,
)
from .composer import (
    Composer,
    EquationOfMotion,
    LeadingCoefficientVanishes,
    RangeGuardViolated,
    compose,
    composed_eom,
    conservation_eom,
    eom_from_lagrangian,
    permissibility_check,
    solve_leading,
)
from .systems import (
    Classification,
    ComparisonTriple,
    ConstraintViolated,
    DEFAULT_COMPARISON_CONSTANTS,
    IntegralUnsupported,
    SystemCase,
    build_displacement,
    build_timedep,
    classify_constant,
    comparison_catalog,
    gamma_from_beta,
    solve_gamma_displacement,
)
from .numint import (
    DriftReport,
    IVP,
    NonFiniteState,
    Trajectory,
    TrajectoryDeviation,
    compare,
    drift,
    integrate,
    invariant_values,
    write_csv,
)
from .audit import AuditFinding, run_audits

__version__ = "0.1.0"
