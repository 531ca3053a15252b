"""Independent numeric oracles for the symbolic operators.

`evaluate` is a tree-walking reference evaluator that shares no code with
`compile_expr`, which the tests hold to it; its points are `Bindings`, and
`sample_bindings` reads them off the rows of a `nullag.domain.Sample`.  `reference_integrate` is the
RK4 loop written out over a compiled right-hand side and guard predicate;
the generated stepper of `integrate` must match it bit for bit.
`bound(L, funcs=..., constants=...)` substitutes a Lagrangian's opaque
functions and constants, in its body and guards, before the action check.
`reference_write_csv` is the CSV writer that formats every value of every
row; `write_csv`, which formats each distinct L_null value once, must write
the same bytes.
`reference_conservation_residual` types out the paper's expanded
conservation rule, which `conservation_eom` must reach as the same tree.
`reference_add`, `reference_mul` and `reference_clear_denominators` are the
canonicalizing constructors written to rebuild every node; the ones in
`nullag.expr`, which keep the nodes nothing merged into, must give equal
trees; `reference_derive` is the derivation walker whose product rule
calls mul on every factor, which `expr._derive`'s merge of sorted factor
lists must match tree for tree; `reference_residue` is `expr._residue`
without its memo, its indeterminates looked up by equality, and must give
equal values; `reference_xddot_coefficient` is the term walker that read
the x'' coefficient off a residual, which `diff(residual, XDDOT)` must
match tree for tree.  The derivative oracles deliberately avoid the symbolic
differentiation path they check: partial derivatives are compared against
central finite differences of `evaluate`, and total time derivatives against
finite differences along a cubic jet path.
"""

import math
import random
from fractions import Fraction

from nullag import (
    EPS_GUARD,
    DomainExit,
    NonFiniteState,
    Apply,
    Const,
    ConstSym,
    EvaluationError,
    FuncSym,
    JetSym,
    Power,
    Product,
    Sum,
    T,
    UnboundSymbolError,
    X,
    XDDOT,
    XDOT,
    ZERO,
    Domain,
    Guard,
    Lagrangian,
    add,
    apply_fn,
    bind_constants,
    compile_expr,
    diff,
    free_atoms,
    instantiate,
    mul,
    pow_,
    to_string,
    total_dt,
)
from nullag.domain import guard_predicate, sample_points
from nullag.expr import (
    MINUS_ONE,
    _P,
    _base_exponent,
    _coerce,
    _point,
    _term_from,
    as_coeff_factors,
    depends_on,
    sort_key,
)
from nullag.numint import Trajectory

H_FD = 1e-6


class GuardViolation(EvaluationError):
    """A denominator came too close to its singular set."""


class Bindings:
    """Numeric values for jets and named constants plus function
    instantiations (expressions over t only): one point for `evaluate`.
    Treat instances as immutable after construction."""

    def __init__(self, jets=None, funcs=None, constants=None):
        self.jets = dict(jets or {})
        self.funcs = dict(funcs or {})
        self.constants = dict(constants or {})


def sample_bindings(sample):
    """The rows of a nullag Sample as Bindings, one per accepted point."""
    for row in sample.rows:
        w = sample.witness(row)
        yield Bindings(jets=w["point"], funcs=sample.funcs, constants=w["constants"])


def _exactify(v):
    if isinstance(v, int):
        return Fraction(v)
    return v


def evaluate(e, bindings):
    """Evaluate to a finite real; exact rational arithmetic is kept whenever
    every input is rational and no transcendental node appears."""

    def ev(e):
        if isinstance(e, Const):
            return e.value
        if isinstance(e, JetSym):
            try:
                return _exactify(bindings.jets[e.name])
            except KeyError:
                raise UnboundSymbolError(f"jet symbol {e.name!r} is unbound") from None
        if isinstance(e, ConstSym):
            try:
                return _exactify(bindings.constants[e.name])
            except KeyError:
                raise UnboundSymbolError(f"named constant {e.name!r} is unbound") from None
        if isinstance(e, FuncSym):
            raise UnboundSymbolError(f"opaque function {e.name!r} has no instantiation")
        if isinstance(e, Sum):
            acc = Fraction(0)
            for t in e.terms:
                acc = acc + ev(t)
            return acc
        if isinstance(e, Product):
            acc = Fraction(1)
            for f in e.factors:
                acc = acc * ev(f)
            return acc
        if isinstance(e, Power):
            v = ev(e.base)
            q = e.exponent
            if q < 0 and abs(v) < EPS_GUARD:
                raise GuardViolation(f"denominator {to_string(e.base)} = {float(v):g} within guard margin")
            if q.denominator == 1:
                if isinstance(v, Fraction):
                    return v ** q.numerator
                return float(v) ** q.numerator
            fv = float(v)
            if fv < 0:
                raise EvaluationError(f"fractional power of negative value {fv:g}")
            return fv ** float(q)
        if isinstance(e, Apply):
            v = ev(e.arg)
            if e.func == "abs":
                return abs(v)
            fv = float(v)
            try:
                if e.func == "exp":
                    return math.exp(fv)
                if e.func == "ln":
                    if fv <= 0:
                        raise EvaluationError(f"ln of non-positive value {fv:g}")
                    return math.log(fv)
                if e.func == "sin":
                    return math.sin(fv)
                if e.func == "cos":
                    return math.cos(fv)
            except OverflowError:
                raise EvaluationError("overflow in elementary function") from None
        raise TypeError(f"cannot evaluate {e!r}")

    result = ev(instantiate(e, bindings.funcs))
    if isinstance(result, float) and not math.isfinite(result):
        raise EvaluationError("evaluation produced a non-finite value")
    return result


def fd_partial(e, sym_name, bindings, h=H_FD):
    """Central finite difference of e in one jet coordinate."""
    up = dict(bindings.jets)
    dn = dict(bindings.jets)
    up[sym_name] = float(up[sym_name]) + h
    dn[sym_name] = float(dn[sym_name]) - h
    vu = float(evaluate(e, Bindings(jets=up, funcs=bindings.funcs, constants=bindings.constants)))
    vd = float(evaluate(e, Bindings(jets=dn, funcs=bindings.funcs, constants=bindings.constants)))
    return (vu - vd) / (2.0 * h)


def check_partials_against_fd(e, domain, *, funcs=None, constants=None, n_points=20, seed=0, rtol=1e-6):
    """Assert symbolic partials match central differences at guarded points."""
    rng = random.Random(seed)
    concrete = instantiate(e, funcs or {})
    points = sample_bindings(sample_points([concrete], domain, n_points, rng, constants=constants))
    jets = sorted((a for a in free_atoms(concrete) if isinstance(a, JetSym)), key=lambda a: a.name)
    for b in points:
        for jet in jets:
            sym = fd_partial(concrete, jet.name, b)
            exact = float(evaluate(diff(concrete, jet), b))
            assert abs(sym - exact) <= rtol * (1.0 + abs(exact)), (
                f"partial d/d{jet.name} of {concrete} mismatches FD: {exact} vs {sym} at {b.jets}"
            )


def jet_path_bindings(coeffs, t, *, funcs=None, constants=None):
    """Jets of the cubic path x(t) = a + b t + c t^2 + d t^3."""
    a, b, c, d = coeffs
    return Bindings(
        jets={
            "x": a + b * t + c * t * t + d * t**3,
            "xdot": b + 2 * c * t + 3 * d * t * t,
            "xddot": 2 * c + 6 * d * t,
            "xdddot": 6 * d,
            "t": t,
        },
        funcs=funcs,
        constants=constants,
    )


def fd_total_dt(e, coeffs, t, *, funcs=None, constants=None, h=H_FD):
    """Finite difference of t -> e(jets of the cubic path at t)."""
    vu = float(evaluate(e, jet_path_bindings(coeffs, t + h, funcs=funcs, constants=constants)))
    vd = float(evaluate(e, jet_path_bindings(coeffs, t - h, funcs=funcs, constants=constants)))
    return (vu - vd) / (2.0 * h)


def check_total_dt_against_fd(e, *, funcs=None, constants=None, n_points=20, seed=0, rtol=1e-6):
    rng = random.Random(seed)
    sym = total_dt(e)
    for _ in range(n_points):
        coeffs = [rng.uniform(0.5, 1.5), rng.uniform(-1, 1), rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2)]
        t = rng.uniform(0.5, 1.5)
        b = jet_path_bindings(coeffs, t, funcs=funcs, constants=constants)
        exact = float(evaluate(sym, b))
        fd = fd_total_dt(e, coeffs, t, funcs=funcs, constants=constants)
        assert abs(fd - exact) <= rtol * (1.0 + abs(exact)), (
            f"total_dt of {e} mismatches FD: {exact} vs {fd}"
        )


def _bind(e, *, funcs=None, constants=None):
    return bind_constants(instantiate(e, funcs), constants or {})


def bound(L, *, funcs=None, constants=None):
    """L with funcs instantiated and constants bound in its body and in the
    guards of its domain: a Lagrangian that the action check evaluates."""
    binding = {"funcs": funcs, "constants": constants}
    guards = tuple(Guard(_bind(g.expr, **binding), g.positive) for g in L.domain.guards)
    return Lagrangian(_bind(L.body, **binding), Domain(L.domain.x, L.domain.t, guards))


def reference_integrate(ivp):
    """Classical RK4 over compile_expr(g), checking guard_predicate at t0 and
    after each step; the same exits, with the same times, as integrate.  It
    binds ivp.constants in g and in the guards itself."""
    g = compile_expr(_bind(ivp.g, constants=ivp.constants), ("x", "xdot", "t"))
    guards = tuple(Guard(_bind(gd.expr, constants=ivp.constants), gd.positive) for gd in ivp.guards)
    inside = guard_predicate(guards, ("x", "xdot", "t"))
    t0, x0, v0, t1, step = float(ivp.t0), float(ivp.x0), float(ivp.v0), float(ivp.t1), float(ivp.h)
    if guards and not inside(x0, v0, t0):
        raise DomainExit(f"initial state lies outside the guarded domain at t={t0:g}", t0)
    span = t1 - t0
    n_full = int(math.floor(span / step * (1.0 + 1e-12)))
    remainder = span - n_full * step
    has_partial = remainder > 1e-12 * max(1.0, abs(t1))
    ts = [t0]
    xs = [x0]
    vs = [v0]
    t, x, v = t0, x0, v0
    isfinite = math.isfinite
    try:
        for k in range(n_full + (1 if has_partial else 0)):
            h = step if k < n_full else remainder
            k1x = v
            k1v = g(x, v, t)
            k2x = v + 0.5 * h * k1v
            k2v = g(x + 0.5 * h * k1x, v + 0.5 * h * k1v, t + 0.5 * h)
            k3x = v + 0.5 * h * k2v
            k3v = g(x + 0.5 * h * k2x, v + 0.5 * h * k2v, t + 0.5 * h)
            k4x = v + h * k3v
            k4v = g(x + h * k3x, v + h * k3v, t + h)
            x, v = (
                x + h * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0,
                v + h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0,
            )
            t = t0 + (k + 1) * step if k < n_full else t1
            if not (isfinite(x) and isfinite(v)):
                raise NonFiniteState(f"state became non-finite at t={t:g}", t)
            if guards and not inside(x, v, t):
                raise DomainExit(f"trajectory left the guarded domain at t={t:g}", t)
            ts.append(t)
            xs.append(x)
            vs.append(v)
    except OverflowError:
        raise NonFiniteState(f"state overflowed in the step to t={t + h:g}", t + h) from None
    except (ZeroDivisionError, ValueError) as err:
        raise DomainExit(f"right-hand side undefined ({err}) in the step to t={t + h:g}", t + h) from None
    return Trajectory(tuple(ts), tuple(xs), tuple(vs), step)


def reference_write_csv(path, traj, invariant):
    """CSV rows t,x,xdot,L_null with repr of every value on every row."""
    with open(path, "w") as fh:
        fh.write("t,x,xdot,L_null\n")
        for t, x, v, L in zip(traj.t, traj.x, traj.v, invariant):
            fh.write(f"{float(t)!r},{float(x)!r},{float(v)!r},{float(L)!r}\n")


def reference_conservation_residual(B, C, f):
    """The paper's expanded conservation rule for the pair (B, C, f),
    B*x'' + (B_x*x' + 2*B_t)*x' + C_t*x + f', term by term."""
    return add(
        mul(B, XDDOT),
        mul(add(mul(diff(B, X), XDOT), mul(2, diff(B, T))), XDOT),
        mul(diff(C, T), X),
        diff(f, T),
    )


def reference_add(*args):
    """add as it was before it kept unmerged terms: every monomial is rebuilt
    from its coefficient and factors."""
    buckets = {}
    const_acc = Fraction(0)
    stack = [_coerce(a) for a in reversed(args)]
    while stack:
        a = stack.pop()
        if isinstance(a, Sum):
            stack.extend(reversed(a.terms))
            continue
        coeff, factors = as_coeff_factors(a)
        if not factors:
            const_acc = const_acc + coeff
            continue
        key = tuple(sort_key(f) for f in factors)
        entry = buckets.get(key)
        if entry is None:
            buckets[key] = [coeff, factors]
        else:
            entry[0] = entry[0] + coeff
    terms = [_term_from(c, fs) for c, fs in buckets.values() if c != 0]
    if const_acc != 0:
        terms.append(Const(const_acc))
    if not terms:
        return ZERO
    terms.sort(key=sort_key)
    return terms[0] if len(terms) == 1 else Sum(tuple(terms))


def reference_mul(*args):
    """mul as it was before it kept unmerged factors: every factor goes
    through pow_, and every exp argument back through add."""
    coeff = Fraction(1)
    flat = []
    stack = [_coerce(a) for a in reversed(args)]
    while stack:
        a = stack.pop()
        if isinstance(a, Const):
            coeff = coeff * a.value
        elif isinstance(a, Product):
            stack.extend(reversed(a.factors))
        else:
            flat.append(a)
    if coeff == 0:
        return ZERO
    for i, f in enumerate(flat):
        if isinstance(f, Sum):
            rest = flat[:i] + flat[i + 1 :]
            return reference_add(*(reference_mul(Const(coeff), *rest, term) for term in f.terms))
    powers = {}

    def pow_into(base, q):
        key = sort_key(base)
        entry = powers.get(key)
        if entry is None:
            powers[key] = [base, q]
        else:
            entry[1] = entry[1] + q

    exp_args = []
    for f in flat:
        if isinstance(f, Apply) and f.func == "exp":
            exp_args.append(f.arg)
        elif isinstance(f, Power):
            pow_into(f.base, f.exponent)
        else:
            pow_into(f, Fraction(1))
    if exp_args:
        combined = apply_fn("exp", reference_add(*exp_args))
        comb_coeff, comb_factors = as_coeff_factors(combined)
        coeff = coeff * comb_coeff
        for f in comb_factors:
            if isinstance(f, Power):
                pow_into(f.base, f.exponent)
            else:
                pow_into(f, Fraction(1))
    pieces = []
    needs_recurse = False
    for key in sorted(powers):
        base, q = powers[key]
        if q == 0:
            continue
        if isinstance(base, Const) and q.denominator == 1:
            # int ** negative int is a float: raise the exact rational
            coeff = coeff * Fraction(base.value) ** q.numerator
            continue
        piece = pow_(base, q)
        # (x^-2)^-1 is x^2: a piece on another base may merge with its bucket
        piece_base = piece.base if isinstance(piece, Power) else piece
        if isinstance(piece, (Sum, Product, Const)) or sort_key(piece_base) != key:
            needs_recurse = True
        pieces.append(piece)
    if needs_recurse:
        return reference_mul(Const(coeff), *pieces)
    if coeff == 0:
        return ZERO
    pieces.sort(key=sort_key)
    if not pieces:
        return Const(coeff)
    if coeff == 1:
        return pieces[0] if len(pieces) == 1 else Product(tuple(pieces))
    return Product((Const(coeff),) + tuple(pieces))


def reference_derive(e, atom):
    """expr._derive with the product rule through mul: each factor's
    derivative times all the other factors, the coefficient among them,
    re-bucketed and re-sorted by mul."""
    if isinstance(e, (JetSym, ConstSym, FuncSym)):
        return atom(e)
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Sum):
        return add(*(reference_derive(t, atom) for t in e.terms))
    if isinstance(e, Product):
        parts = []
        for i, f in enumerate(e.factors):
            d = reference_derive(f, atom)
            if d != ZERO:
                parts.append(mul(*e.factors[:i], d, *e.factors[i + 1 :]))
        return add(*parts) if parts else ZERO
    if isinstance(e, Power):
        d = reference_derive(e.base, atom)
        if d == ZERO:
            return ZERO
        return mul(Const(e.exponent), pow_(e.base, e.exponent - 1), d)
    d = reference_derive(e.arg, atom)
    if d == ZERO:
        return ZERO
    if e.func == "exp":
        return mul(e, d)
    if e.func == "ln":
        return mul(d, pow_(e.arg, -1))
    if e.func == "sin":
        return mul(apply_fn("cos", e.arg), d)
    if e.func == "cos":
        return mul(MINUS_ONE, apply_fn("sin", e.arg), d)
    # d|u| = u * u' / |u|
    return mul(e.arg, pow_(e, -1), d)


def reference_xddot_coefficient(e):
    """The coefficient of xddot^1, term by term; raises ValueError where
    xddot appears other than linearly."""
    parts = []
    for term in e.terms if isinstance(e, Sum) else (e,):
        coeff, factors = as_coeff_factors(term)
        for f in factors:
            base, q = _base_exponent(f)
            if base == XDDOT and q == 1:
                parts.append(_term_from(coeff, tuple(g for g in factors if g is not f)))
                break
            if depends_on(base, XDDOT):
                raise ValueError(f"x'' appears nonlinearly in {to_string(term)}")
    return add(*parts)


def reference_clear_denominators(e):
    """clear_denominators as it was before it merged its own exponents: each
    term is multiplied by raw Power(base, required power) pieces, which
    reference_mul merges and rebuilds."""
    for _ in range(3):
        terms = e.terms if isinstance(e, Sum) else (e,)
        need = {}
        for term in terms:
            _, factors = as_coeff_factors(term)
            for f in factors:
                if isinstance(f, Power) and f.exponent < 0:
                    key = sort_key(f.base)
                    entry = need.get(key)
                    req = -f.exponent
                    if entry is None:
                        need[key] = [f.base, req]
                    elif req > entry[1]:
                        entry[1] = req
        if not need:
            break
        pieces = [Power(b, q) for b, q in need.values()]
        e = reference_add(*(reference_mul(term, *pieces) for term in terms))
    return e


def reference_residue(e):
    """expr._residue as it was before its memo: every visit of a node walks
    it again, and each indeterminate is looked up by equality (hash and ==)
    and takes _point(k) for the k-th one met."""
    points = {}

    def value(n):
        if isinstance(n, Sum):
            return sum(map(value, n.terms)) % _P
        if isinstance(n, Product):
            return math.prod(map(value, n.factors)) % _P
        if isinstance(n, Power):
            if n.exponent.denominator != 1:
                raise ValueError("fractional exponent")
            return pow(value(n.base), n.exponent, _P)
        if isinstance(n, Const):
            v = n.value
            return v.numerator * pow(v.denominator, -1, _P) % _P
        if isinstance(n, Apply) and n.func == "exp":
            raise ValueError("exp")
        if n not in points:
            points[n] = _point(len(points))
        return points[n]

    return value(e)
