"""SymPy as an oracle that shares no code with the kernel.

Hypothesis draws trees over the kernel grammar (jets, t, named constants,
opaque functions with derivative orders, exp/ln/sin/cos/abs, sums, products
and rational powers); each kernel operation must agree with SymPy up to
`simplify(difference) == 0`.  The jets are plain real symbols, and the total
time derivative is taken in SymPy by substituting a path x = X(t) and
differentiating in t, not by the prolongation formula the kernel uses.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

sp = pytest.importorskip("sympy")

from nullag import (  # noqa: E402
    Apply,
    Const,
    ConstSym,
    FuncSym,
    InfeasibleDomainError,
    JetSym,
    Lagrangian,
    LeadingCoefficientVanishes,
    NullVerdict,
    Power,
    Product,
    Sum,
    T,
    X,
    XDDOT,
    XDOT,
    add,
    antiderivative,
    apply_fn,
    build_null,
    canonicalize,
    conservation_eom,
    diff,
    is_null,
    mul,
    parse,
    pow_,
    to_string,
    total_dt,
)
from nullag.construct import AntiderivativeUnsupported  # noqa: E402

JETS = {name: sp.Symbol(name, real=True) for name in ("x", "xdot", "xddot", "xdddot", "t")}
SP_T = JETS["t"]
# |u| is written sqrt(u^2), which SymPy turns into Abs(u) when it knows u is
# real and otherwise differentiates by the chain rule, not as a complex modulus
FUNCS = {
    "exp": sp.exp, "ln": sp.log, "sin": sp.sin, "cos": sp.cos, "abs": lambda u: sp.sqrt(u**2),
}


def _opaque(name, order):
    """The order-th derivative of name(t) as a real function of its own:
    SymPy does not know that Derivative(f(t), t) is real when f(t) is."""
    return sp.Function(f"{name}_{order}", real=True)(SP_T)


def _opaque_orders(expr):
    """Derivative(f_k(t), (t, j)) written as f_(k+j)(t)."""

    def merge(d):
        name, k = d.expr.func.__name__.rsplit("_", 1)
        return _opaque(name, int(k) + d.derivative_count)

    return expr.replace(lambda a: isinstance(a, sp.Derivative), merge)


def _rational(v):
    """The exact SymPy rational of a kernel number (an int or a Fraction)."""
    if type(v) not in (int, Fraction):
        raise TypeError(f"{v!r} is not an exact kernel number")
    return sp.Rational(v.numerator, v.denominator)


def to_sympy(e):
    """The SymPy expression of any kernel tree, canonical or not."""
    if isinstance(e, Const):
        return _rational(e.value)
    if isinstance(e, JetSym):
        return JETS[e.name]
    if isinstance(e, ConstSym):
        return sp.Symbol(f"c_{e.name}", real=True)
    if isinstance(e, FuncSym):
        return _opaque(e.name, e.order)
    if isinstance(e, Apply):
        return FUNCS[e.func](to_sympy(e.arg))
    if isinstance(e, Sum):
        return sp.Add(*(to_sympy(t) for t in e.terms))
    if isinstance(e, Product):
        return sp.Mul(*(to_sympy(f) for f in e.factors))
    if isinstance(e, Power):
        return sp.Pow(to_sympy(e.base), _rational(e.exponent))
    raise TypeError(f"no SymPy form for {e!r}")


def vanishes(d, signs=None):
    """simplify(d) == 0 on every sign branch of the |u| in d.  SymPy's
    simplify rarely sees through |u| (x*x'^2/(|x|*|x'|) - x*|x'|/|x| is not
    proven), but with each |u| written as u or as -u it does.  `signs` holds
    the branch taken so far, re-applied until no decided |u| is left."""
    signs = signs or {}
    while True:
        decided = {a: signs[a.args[0]] * a.args[0] for a in d.atoms(sp.Abs) if a.args[0] in signs}
        if not decided:
            break
        d = d.xreplace(decided)
    inner = sorted(
        (a.args[0] for a in d.atoms(sp.Abs) if not a.args[0].has(sp.Abs)), key=sp.default_sort_key
    )
    if not inner or len(signs) == 6:
        return sp.simplify(d) == 0
    return all(vanishes(d, {**signs, inner[0]: s}) for s in (1, -1))


def assert_same(kernel, reference, what):
    # the kernel writes d|u| as u*u'/|u| (valid away from u = 0), SymPy as sign(u)*u'
    reference = _opaque_orders(reference).replace(sp.sign, lambda u: u / sp.Abs(u))
    assert vanishes(to_sympy(kernel) - reference), (what, to_string(kernel), reference)


_atoms = st.sampled_from(
    [X, XDOT, XDDOT, T, FuncSym("f1"), FuncSym("f2", 1), ConstSym("a1"), ConstSym("b0")]
)
_consts = st.fractions(min_value=-4, max_value=4, max_denominator=6).map(Const)
_exponents = st.sampled_from([-2, -1, 2, 3]).map(Fraction) | st.just(Fraction(1, 2))


def _trees(depth, atoms=_atoms):
    if depth == 0:
        return atoms | _consts
    sub_tree = _trees(depth - 1, atoms)
    return st.one_of(
        atoms,
        _consts,
        st.tuples(sub_tree, sub_tree).map(lambda ab: Sum(ab)),
        st.tuples(sub_tree, sub_tree).map(lambda ab: Product(ab)),
        st.tuples(sub_tree, _exponents).map(lambda bq: Power(*bq)),
        st.tuples(st.sampled_from(sorted(FUNCS)), sub_tree).map(lambda fa: Apply(*fa)),
    )


def _canonical_or_skip(raw):
    # a tree such as ln(0) or 0^(-1) has no value to compare
    assume(not to_sympy(raw).has(sp.zoo, sp.nan, sp.oo, -sp.oo))
    try:
        return canonicalize(raw)
    except ZeroDivisionError:
        assume(False)


_oracle = settings(max_examples=25)


@_oracle
@given(_trees(2))
def test_canonicalize_matches_sympy(raw):
    assert_same(_canonical_or_skip(raw), to_sympy(raw), "canonicalize")


@_oracle
@given(_trees(2), st.sampled_from([X, XDOT, T, ConstSym("a1")]))
def test_diff_matches_sympy(raw, sym):
    e = _canonical_or_skip(raw)
    assert_same(diff(e, sym), sp.diff(to_sympy(e), to_sympy(sym)), f"d/d{to_string(sym)}")


def _along_path(expr):
    """d/dt of expr with x = X(t), written back in jet symbols."""
    path = sp.Function("X", real=True)(SP_T)
    jets = [path, *(sp.Derivative(path, (SP_T, k)) for k in (1, 2, 3))]
    names = [JETS[n] for n in ("x", "xdot", "xddot", "xdddot")]
    moved = expr.subs(list(zip(names[:3], jets[:3])), simultaneous=True)
    # highest derivative first, so X(t) is not replaced inside a Derivative
    return sp.diff(moved, SP_T).subs(list(zip(reversed(jets), reversed(names))))


@_oracle
@given(_trees(2))
def test_total_dt_matches_sympy_along_a_path(raw):
    e = _canonical_or_skip(raw)
    assert_same(total_dt(e), _along_path(to_sympy(e)), "total_dt")


def _integrands(var):
    """Terms from the supported antiderivative class, times var-free factors."""
    free = [ConstSym("a1"), Const(Fraction(-3, 2))] + ([FuncSym("f1")] if var == X else [])
    free = st.sampled_from(free)
    nonzero = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool).map(Const)
    linear = st.tuples(nonzero, free).map(lambda ab: add(mul(ab[0], var), ab[1]))
    powers = st.sampled_from([Fraction(q) for q in (-3, -1, 2, 5, Fraction(1, 2), Fraction(-1, 3))])
    block = st.one_of(
        powers.map(lambda q: pow_(var, q)),
        st.tuples(st.sampled_from(["exp", "sin", "cos"]), linear).map(lambda fu: apply_fn(*fu)),
        st.tuples(linear, powers).map(lambda bq: pow_(*bq)),
        st.tuples(st.integers(1, 3), linear, powers).map(
            lambda mbq: mul(pow_(var, mbq[0]), pow_(mbq[1], mbq[2]))
        ),
    )
    if var == T:
        block = block | st.integers(1, 2).map(lambda k: FuncSym("f2", k))
    term = st.tuples(free, block).map(lambda fb: mul(*fb))
    return st.lists(term, min_size=1, max_size=3).map(lambda ts: add(*ts))


@_oracle
@given(st.sampled_from([X, T]).flatmap(lambda v: st.tuples(st.just(v), _integrands(v))))
def test_antiderivative_matches_sympy(case):
    var, e = case
    try:
        F = antiderivative(e, var)
    except AntiderivativeUnsupported:
        assume(False)
    # differentiated in SymPy, not by the kernel's own self-check
    assert vanishes(_opaque_orders(sp.diff(to_sympy(F), to_sympy(var))) - to_sympy(e)), to_string(F)


@_oracle
@given(_trees(2))
def test_print_parse_round_trip_with_functions(raw):
    e = _canonical_or_skip(raw)
    assert parse(to_string(e)) == e


_quotient_atoms = st.sampled_from([X, XDOT, T, FuncSym("f1"), ConstSym("a1"), ConstSym("b0")])
_nonzero = st.integers(-3, 3).filter(bool)


@st.composite
def _sums(draw):
    """A sum of two distinct atoms with nonzero coefficients, never zero."""
    (p, q), (m, n) = draw(st.lists(_quotient_atoms, min_size=2, max_size=2, unique=True)), draw(
        st.tuples(_nonzero, _nonzero)
    )
    return add(mul(m, p), mul(n, q))


# a factor of the divisor as (base, exponent): an atom or a power of a sum
_factors = st.one_of(
    st.tuples(_quotient_atoms, st.integers(1, 2)), st.tuples(_sums(), st.integers(1, 3))
)


def _text(base, q):
    return f"({to_string(base)})^{q}" if isinstance(base, Sum) else f"{to_string(base)}^{q}"


@_oracle
@given(_trees(1), st.lists(_factors, min_size=1, max_size=3), _sums(), st.integers(1, 3))
def test_a_quotient_inverts_each_factor_of_its_divisor(raw, u, v, n):
    """parse of a/(u*v^n), u a product of atoms and powers of sums, is
    a*u^(-1)*v^(-n) factor by factor, and SymPy agrees on its value."""
    a = _canonical_or_skip(raw)
    text = f"({to_string(a)})/({'*'.join(_text(b, q) for b, q in u)}*({to_string(v)})^{n})"
    e = parse(text)
    assert e == mul(a, *(pow_(b, -q) for b, q in u), pow_(v, -n)), text
    divisor = sp.Mul(*(to_sympy(b) ** q for b, q in u)) * to_sympy(v) ** n
    assert vanishes(to_sympy(e) - to_sympy(a) / divisor), text


# a gauge function is over x and t; a Lagrangian over x, x' and t
_gauge_atoms = st.sampled_from([X, T, FuncSym("f1"), ConstSym("a1")])
_lagrangian_atoms = st.sampled_from([X, XDOT, T, FuncSym("f1"), ConstSym("a1")])


def _unsigned(expr):
    """sign(u) written u/|u|, as the kernel writes d|u|: a d/dt of sign(u)
    would be a DiracDelta, which simplify does not drop."""
    return expr.replace(sp.sign, lambda u: u / sp.Abs(u))


def _euler_lagrange(L):
    """dL/dx - d/dt dL/dx' of a SymPy Lagrangian, d/dt taken along a path."""
    momentum = _unsigned(sp.diff(L, JETS["xdot"]))
    return _unsigned(sp.diff(L, JETS["x"]) - _along_path(momentum))


def _verdict(body):
    """is_null of body on the default domain; a draw whose guards leave no
    point to sample is rejected."""
    try:
        return is_null(Lagrangian(body)).verdict
    except InfeasibleDomainError:
        assume(False)


@_oracle
@given(_trees(2, _gauge_atoms))
def test_the_lift_of_a_gauge_function_is_null(raw):
    """dPhi/dt of a drawn gauge function Phi(x, t) is never NotNull."""
    phi = _canonical_or_skip(raw)
    assert _verdict(total_dt(phi)) is not NullVerdict.NOT_NULL, to_string(phi)


@_oracle
@given(_trees(2, _gauge_atoms), _trees(2, _lagrangian_atoms))
def test_a_lifted_gauge_plus_a_term_is_null_as_sympy_says(raw_phi, raw_term):
    """dPhi/dt + a drawn term is null exactly when SymPy's Euler-Lagrange
    expression of it, with dPhi/dt taken along a path by SymPy, vanishes;
    a Proven verdict needs it to simplify to 0."""
    phi, term = _canonical_or_skip(raw_phi), _canonical_or_skip(raw_term)
    verdict = _verdict(add(total_dt(phi), term))
    residual = _euler_lagrange(_unsigned(_along_path(to_sympy(phi))) + to_sympy(term))
    what = (to_string(phi), to_string(term), verdict)
    assert vanishes(residual) is (verdict is not NullVerdict.NOT_NULL), what


@_oracle
@given(_trees(2, _gauge_atoms))
def test_the_conservation_route_solves_sympys_d_dt_of_the_null_lagrangian(raw):
    """conservation_eom(build_null(B)).explicit() is SymPy's x'' of
    d/dt L_null = 0, with d/dt taken along a path by SymPy; where the kernel
    finds no x'' term, SymPy's B, the x'' coefficient, vanishes."""
    B = _canonical_or_skip(raw)
    try:
        pair = build_null(B)
    except AntiderivativeUnsupported:
        assume(False)
    what = (to_string(B), to_string(pair.xC))
    L = to_sympy(B) * JETS["xdot"] + to_sympy(pair.xC)
    d_dt = _unsigned(_along_path(L))
    lead = d_dt.diff(JETS["xddot"])
    try:
        explicit = conservation_eom(pair).explicit()
    except LeadingCoefficientVanishes:
        assert vanishes(_unsigned(to_sympy(B))), what
        return
    assert_same(explicit, -d_dt.subs(JETS["xddot"], 0) / lead, what)
