"""Immutable symbolic expression kernel for one-dimensional jet calculus.

Expressions are trees over the jet symbols x, x', x'', x''', the time
variable t, named constants, and opaque time-functions f(t) that carry a
derivative order.  Every public constructor canonicalizes its result:
sums of monomials with merged rational coefficients, a deterministic total
ordering of atoms, powers of sums and products above 1 expanded down to
their fractional part (u^(5/2) is u^2 expanded times u^(1/2)), x^0 and
empty products collapsed to 1, zero coefficients dropped, and
exponentials merged via exp(a)*exp(b) = exp(a+b).  Rational multiples of
ln(u) inside an exp are converted to powers, so exp(q*ln(u)) and u^q meet
in the same canonical form.

Every constant is an exact rational: _coerce is the one place a number
enters the kernel, and it reads a float as the binary rational it holds.
A coefficient or exponent is held as an int when it is integral, else as a
Fraction (see _num), so whole-number arithmetic never pays for Fraction;
int and Fraction compare and hash equal, and print and convert to float
alike.  Floats appear only in the Python source that compile_expr
generates.

add and mul sort their inputs into buckets (monomials in add, bases in mul)
and rebuild only the buckets where something merged; a term or factor that
nothing merged into is kept as the same node.  That is sound only because
every input to add and mul is canonical, so code in this module passes them
nothing else: clear_denominators merges each term's exponents with the
required powers itself and hands mul canonical pow_ results, never raw
Power nodes.

mul is the one way to multiply.  It buckets its flattened factors once
(_bucket: by base, with one bucket for every exp) and merges only the
buckets that hold two or more; every other factor is kept, and when no two
factors collide, which is most of what the product rule and mul's own
distribution over a sum multiply, they are sorted once.  A merged piece
that is not a factor of its own bucket is multiplied in once more.

The same rule spares other rebuilds.  diff and total_dt are one derivation
walker, _derive, that differ only in what an atom maps to, so total_dt is
one walk of the tree, not four partials added up.  Negation (sub, unary
minus) flips the sign of each term's coefficient, which leaves the term
canonical, instead of multiplying every term by -1.

proven_zero evaluates a tree mod the prime 2^61 - 1 (_residue) before it
clears denominators: a nonzero residue already shows that clearing cannot
reach zero, so a failing proof stops there.

All values are immutable; an operation shares the nodes it keeps.  A node's
ordering key (sort_key) is computed the first time it is asked for and
kept in the node's _key slot, so a node must never be mutated.  Nodes are
plain (not frozen) slotted dataclasses, because a frozen dataclass writes
each field through object.__setattr__ and so takes about four times as long
to build; a symbolic pass builds hundreds of thousands of nodes.
Immutability is a contract, checked by tests/test_hygiene.py: no code in
the package stores a node field, and the one store of _key is sort_key's.
Pickle and copy go through Expr.__reduce__, which rebuilds a node from its
fields and never carries _key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Union

Number = Union[int, float, Fraction]

APPLY_FUNCS = ("exp", "ln", "sin", "cos", "abs")
JET_NAMES = ("x", "xdot", "xddot", "xdddot", "t")
# pow_ expands a sum of m terms to the power n by repeated multiplication, in
# at most m*C(n + m - 1, m) products of two terms (about 25 us each)
MAX_EXPANSION_PRODUCTS = 50_000


class ExprError(Exception):
    """Base class for symbolic-kernel errors."""


class JetOrderError(ExprError):
    """Raised when an operation needs a jet symbol beyond x'''."""


class EvaluationError(ExprError):
    """Numeric evaluation failed (domain error, overflow)."""


class UnboundSymbolError(EvaluationError):
    """An atom had no numeric binding or function instantiation."""


class DivisionByZero(ExprError, ZeroDivisionError):
    """Zero raised to a negative power while building an expression."""


class Expr:
    """Base class of all expression nodes.  Instances are canonical and
    immutable by contract: the node classes are plain slotted dataclasses,
    cheaper to build than frozen ones, and the hygiene test forbids any
    store of a node field.

    The one slot, _key, holds the node's ordering key once sort_key has
    computed it; it is not a dataclass field, so == and hash never see it,
    and __reduce__ rebuilds a node from its fields, so pickle and copy
    never carry it."""

    __slots__ = ("_key",)

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __add__(self, other):
        return add(self, _coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __pow__(self, exponent):
        return pow_(self, exponent)

    def __neg__(self):
        return neg(self)

    def __str__(self):
        return to_string(self)

    def __repr__(self):
        return to_string(self)


@dataclass(slots=True, repr=False, unsafe_hash=True)
class Const(Expr):
    """Exact rational constant, an int when integral; build it through
    _coerce (or const)."""

    value: int | Fraction


@dataclass(slots=True, repr=False, unsafe_hash=True)
class JetSym(Expr):
    """One of the jet coordinates x, xdot, xddot, xdddot, or time t."""

    name: str


@dataclass(slots=True, repr=False, unsafe_hash=True)
class ConstSym(Expr):
    """Named symbolic constant (zero derivative, optional numeric binding)."""

    name: str


@dataclass(slots=True, repr=False, unsafe_hash=True)
class FuncSym(Expr):
    """order-th time derivative of an opaque function name(t)."""

    name: str
    order: int = 0


@dataclass(slots=True, repr=False, unsafe_hash=True)
class Apply(Expr):
    """Elementary function application; func in {exp, ln, sin, cos, abs}."""

    func: str
    arg: Expr


@dataclass(slots=True, repr=False, unsafe_hash=True)
class Sum(Expr):
    terms: tuple[Expr, ...]


@dataclass(slots=True, repr=False, unsafe_hash=True)
class Product(Expr):
    factors: tuple[Expr, ...]


@dataclass(slots=True, repr=False, unsafe_hash=True)
class Power(Expr):
    base: Expr
    exponent: int | Fraction


X = JetSym("x")
XDOT = JetSym("xdot")
XDDOT = JetSym("xddot")
XDDDOT = JetSym("xdddot")
T = JetSym("t")

ZERO = Const(0)
ONE = Const(1)
MINUS_ONE = Const(-1)

_JETS = {s.name: s for s in (X, XDOT, XDDOT, XDDDOT, T)}


def _num(q: int | Fraction) -> int | Fraction:
    """q as the kernel holds it: an int when integral, else the Fraction."""
    return q.numerator if q.denominator == 1 else q


def _coerce(v) -> Expr:
    """v as an expression: an int, Fraction or float becomes Const of the
    exact rational it holds (0.1 is 3602879701896397/36028797018963968).
    A non-finite float raises ValueError."""
    if isinstance(v, Expr):
        return v
    if isinstance(v, bool):
        raise TypeError("bool is not a valid expression constant")
    if isinstance(v, int):
        return Const(v)
    if isinstance(v, Fraction):
        return Const(_num(v))
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"{v!r} is not a finite number")
        return Const(_num(Fraction(v)))
    raise TypeError(f"cannot coerce {v!r} to Expr")


def const(v: Number) -> Expr:
    return _coerce(v)


def sort_key(e: Expr):
    """Deterministic total ordering key over canonical trees, computed once
    per node and kept in its _key slot."""
    key = getattr(e, "_key", None)
    if key is None:
        key = e._key = _sort_key(e)
    return key


def _sort_key(e: Expr):
    if isinstance(e, Const):
        v = e.value
        try:
            fv = float(v)
        except OverflowError:
            fv = math.inf if v > 0 else -math.inf
        return (0, (fv, str(v)))
    if isinstance(e, JetSym):
        return (1, JET_NAMES.index(e.name))
    if isinstance(e, ConstSym):
        return (2, e.name)
    if isinstance(e, FuncSym):
        return (3, e.name, e.order)
    if isinstance(e, Apply):
        return (4, e.func, sort_key(e.arg))
    if isinstance(e, Power):
        return (5, sort_key(e.base), (e.exponent.numerator, e.exponent.denominator))
    if isinstance(e, Product):
        return (6, tuple(sort_key(f) for f in e.factors))
    if isinstance(e, Sum):
        return (7, tuple(sort_key(t) for t in e.terms))
    raise TypeError(f"unknown node {e!r}")


def as_coeff_factors(e: Expr) -> tuple[int | Fraction, tuple[Expr, ...]]:
    """Split a canonical non-Sum term into (coefficient, monomial factors)."""
    if isinstance(e, Const):
        return e.value, ()
    if isinstance(e, Product):
        fs = e.factors
        if isinstance(fs[0], Const):
            return fs[0].value, fs[1:]
        return 1, fs
    return 1, (e,)


def _base_exponent(f: Expr) -> tuple[Expr, int | Fraction]:
    """A canonical factor as (base, exponent): u^q is (u, q), any other is (f, 1)."""
    return (f.base, f.exponent) if isinstance(f, Power) else (f, 1)


def _term_from(coeff, factors: tuple[Expr, ...]) -> Expr:
    if not factors:
        return Const(coeff)
    if coeff == 1:
        return factors[0] if len(factors) == 1 else Product(factors)
    return Product((Const(coeff),) + factors)


def add(*args) -> Expr:
    # Each bucket is [coefficient, monomial factors, the term itself while
    # nothing has merged into it]; a lone term is kept, not rebuilt.
    buckets: dict[tuple, list] = {}
    const_acc = 0
    stack = [_coerce(a) for a in reversed(args)]
    while stack:
        a = stack.pop()
        if isinstance(a, Sum):
            stack.extend(reversed(a.terms))
            continue
        coeff, factors = as_coeff_factors(a)
        if not factors:
            const_acc = _num(const_acc + coeff)
            continue
        # the term's cached key, without the key of its coefficient
        key = sort_key(a)[1][-len(factors) :] if isinstance(a, Product) else (sort_key(a),)
        entry = buckets.get(key)
        if entry is None:
            buckets[key] = [coeff, factors, a]
        else:
            entry[0] = _num(entry[0] + coeff)
            entry[2] = None
    terms = [t if t is not None else _term_from(c, fs) for c, fs, t in buckets.values() if c != 0]
    if const_acc != 0:
        terms.append(Const(const_acc))
    if not terms:
        return ZERO
    terms.sort(key=sort_key)
    return terms[0] if len(terms) == 1 else Sum(tuple(terms))


def _bucket(f: Expr):
    """The key of the bucket mul puts a canonical factor in: its base's
    sort_key, or one shared key for every exp, since mul merges them all."""
    if isinstance(f, Power):
        return sort_key(f.base)
    if isinstance(f, Apply) and f.func == "exp":
        return "exp"
    return sort_key(f)


def mul(*args) -> Expr:
    coeff = 1
    flat: list[Expr] = []
    stack = [_coerce(a) for a in reversed(args)]
    while stack:
        a = stack.pop()
        if isinstance(a, Const):
            coeff = a.value if coeff == 1 else _num(coeff * a.value)
        elif isinstance(a, Product):
            stack.extend(reversed(a.factors))
        else:
            flat.append(a)
    if coeff == 0:
        return ZERO
    for i, f in enumerate(flat):
        if isinstance(f, Sum):
            # each term meets the co-factors unmerged: merged first, 4^(-1/2)
            # * 4^(-1/2) would fold to 1/4, which 4^(1/2) cannot merge with
            rest = flat[:i] + flat[i + 1 :]
            return add(*(mul(Const(coeff), *rest, term) for term in f.terms))
    # one pass: a lone factor is kept as the same node, colliding ones merge
    buckets: dict[object, list[Expr]] = {}
    for f in flat:
        buckets.setdefault(_bucket(f), []).append(f)
    if len(buckets) == len(flat):
        return _term_from(coeff, tuple(sorted(flat, key=sort_key)))
    pieces: list[Expr] = []
    settled = True
    for key, fs in buckets.items():
        if len(fs) == 1:
            pieces.append(fs[0])
            continue
        if key == "exp":
            piece = apply_fn("exp", add(*(f.arg for f in fs)))
        else:
            piece = pow_(_base_exponent(fs[0])[0], sum(_base_exponent(f)[1] for f in fs))
        # a merged piece can be a constant, a product, or a power that lands
        # on another base ((x^2)^(1/2) * (x^2)^(1/2) is x^2), which may have
        # a bucket of its own: such pieces are multiplied once more
        settled = settled and not isinstance(piece, (Sum, Product, Const)) and _bucket(piece) == key
        pieces.append(piece)
    if not settled:
        return mul(Const(coeff), *pieces)
    return _term_from(coeff, tuple(sorted(pieces, key=sort_key)))


def pow_(base, exponent: Number) -> Expr:
    b = _coerce(base)
    # every exponent is normalized here, so the exponent sums that feed pow_
    # need no _num of their own
    q = _num(exponent if isinstance(exponent, (int, Fraction)) else Fraction(exponent))
    if q == 0:
        return ONE
    if q == 1:
        return b
    if isinstance(b, Const):
        if b.value == 0:
            if q < 0:
                raise DivisionByZero("0 raised to a negative power")
            return ZERO
        if b.value == 1:
            return ONE
        if q.denominator == 1:
            return Const(_num(Fraction(b.value) ** q.numerator))
        return Power(b, q)
    if isinstance(b, Apply) and b.func == "exp":
        return apply_fn("exp", mul(Const(q), b.arg))
    if isinstance(b, Power):
        if q.denominator == 1:
            return pow_(b.base, b.exponent * q)
        return Power(b, q)
    if isinstance(b, Product) and q.denominator == 1:
        return mul(*(pow_(f, q) for f in b.factors))
    if isinstance(b, Sum) and q.denominator == 1 and q > 1:
        m = len(b.terms)
        products = m * math.comb(q + m - 1, m)
        if products > MAX_EXPANSION_PRODUCTS:
            raise ValueError(
                f"expanding a sum of {m} terms to the power {q} takes up to {products} "
                f"products of terms; at most {MAX_EXPANSION_PRODUCTS} are done"
            )
        r = b
        for _ in range(q - 1):
            r = mul(r, b)
        return r
    if isinstance(b, (Sum, Product)) and q > 1:
        # u^(n + r) = u^n * u^r with u^n expanded, so that u^(3/2) and
        # u*u^(1/2) (which mul distributes or flattens) meet in one form
        n = q.numerator // q.denominator
        return mul(pow_(b, n), Power(b, q - n))
    return Power(b, q)


def div(a, b) -> Expr:
    return mul(_coerce(a), pow_(_coerce(b), -1))


def _negated_terms(e: Expr) -> list[Expr]:
    """The terms of -e.  A canonical term stays canonical when only the sign
    of its coefficient changes, so no term is rebuilt through mul."""
    terms = e.terms if isinstance(e, Sum) else (e,)
    return [_term_from(-c, fs) for c, fs in map(as_coeff_factors, terms)]


def neg(e) -> Expr:
    return add(*_negated_terms(_coerce(e)))


def sub(a, b) -> Expr:
    return add(_coerce(a), *_negated_terms(_coerce(b)))


def apply_fn(func: str, arg) -> Expr:
    if func not in APPLY_FUNCS:
        raise ValueError(f"unknown function {func!r}")
    a = _coerce(arg)
    if func == "exp":
        if a == ZERO:
            return ONE
        terms = a.terms if isinstance(a, Sum) else (a,)
        kept: list[Expr] = []
        extracted: list[Expr] = []
        for term in terms:
            c, fs = as_coeff_factors(term)
            if len(fs) == 1 and isinstance(fs[0], Apply) and fs[0].func == "ln":
                extracted.append(pow_(fs[0].arg, c))
            else:
                kept.append(term)
        if extracted:
            rest = add(*kept) if kept else ZERO
            if rest != ZERO:
                extracted.append(Apply("exp", rest))
            return mul(*extracted)
        return Apply("exp", a)
    if func == "ln":
        if a == ONE:
            return ZERO
        if isinstance(a, Apply) and a.func == "exp":
            return a.arg
        return Apply("ln", a)
    if func == "sin" and a == ZERO:
        return ZERO
    if func == "cos" and a == ZERO:
        return ONE
    if func == "abs":
        if isinstance(a, Const):
            return Const(abs(a.value))
        if isinstance(a, Apply) and a.func == "exp":
            return a
    return Apply(func, a)


def exp(arg) -> Expr:
    return apply_fn("exp", arg)


def ln(arg) -> Expr:
    return apply_fn("ln", arg)


def sin(arg) -> Expr:
    return apply_fn("sin", arg)


def cos(arg) -> Expr:
    return apply_fn("cos", arg)


# ---------------------------------------------------------------------------
# differentiation


def diff(e: Expr, sym: Expr) -> Expr:
    """Partial derivative with respect to a jet symbol, t, or a named constant.

    FuncSym atoms are opaque functions of t: their t-derivative raises the
    order by one and every other derivative vanishes.
    """
    if not isinstance(sym, (JetSym, ConstSym)):
        raise TypeError("differentiation target must be a jet symbol, t, or named constant")
    by_t = sym == T

    def atom(a: Expr) -> Expr:
        if a == sym:
            return ONE
        if by_t and isinstance(a, FuncSym):
            return FuncSym(a.name, a.order + 1)
        return ZERO

    return _derive(e, atom)


_PROLONGED = {"t": ONE, "x": XDOT, "xdot": XDDOT, "xddot": XDDDOT}


def _prolong(a: Expr) -> Expr:
    """The total time derivative of an atom: t to 1, each jet to the next
    one, f(t) one order up, a named constant to 0."""
    if isinstance(a, JetSym):
        d = _PROLONGED.get(a.name)
        if d is None:
            raise JetOrderError("total_dt input may contain jets up to x'' only")
        return d
    if isinstance(a, FuncSym):
        return FuncSym(a.name, a.order + 1)
    return ZERO


def total_dt(e: Expr) -> Expr:
    """Total time derivative along the jet prolongation.

    Equals de/dt + xdot*de/dx + xddot*de/dxdot + xdddot*de/dxddot, with
    opaque-function orders raised, computed in one walk of e.  Input may
    contain jets up to xddot.
    """
    return _derive(e, _prolong)


def _derive(e: Expr, atom: Callable[[Expr], Expr]) -> Expr:
    """The derivation that maps each atom (JetSym, ConstSym, FuncSym) through
    atom, extended to every node by the sum, product and chain rules.  Every
    atom of e is visited.

    The product rule splits the product once into its coefficient and
    sorted factors, and multiplies each term of a factor's derivative into
    the other factors through mul."""
    if isinstance(e, (JetSym, ConstSym, FuncSym)):
        return atom(e)
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Sum):
        return add(*(_derive(t, atom) for t in e.terms))
    if isinstance(e, Product):
        coeff, factors = as_coeff_factors(e)
        parts = []
        for i, f in enumerate(factors):
            d = _derive(f, atom)
            if d == ZERO:
                continue
            others = factors[:i] + factors[i + 1 :]
            for term in d.terms if isinstance(d, Sum) else (d,):
                parts.append(mul(Const(coeff), *others, term))
        return add(*parts) if parts else ZERO
    if isinstance(e, Power):
        d = _derive(e.base, atom)
        if d == ZERO:
            return ZERO
        return mul(Const(e.exponent), pow_(e.base, e.exponent - 1), d)
    if isinstance(e, Apply):
        d = _derive(e.arg, atom)
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
        if e.func == "abs":
            # d|u| = u * u' / |u|, valid away from u = 0
            return mul(e.arg, pow_(e, -1), d)
    raise TypeError(f"cannot differentiate {e!r}")


# ---------------------------------------------------------------------------
# structural utilities


def free_atoms(e: Expr) -> set[Expr]:
    """All JetSym, ConstSym and FuncSym atoms occurring in e."""
    out: set[Expr] = set()
    _walk_atoms(e, out)
    return out


def _walk_atoms(e: Expr, out: set) -> None:
    if isinstance(e, (JetSym, ConstSym, FuncSym)):
        out.add(e)
    elif isinstance(e, Sum):
        for t in e.terms:
            _walk_atoms(t, out)
    elif isinstance(e, Product):
        for f in e.factors:
            _walk_atoms(f, out)
    elif isinstance(e, Power):
        _walk_atoms(e.base, out)
    elif isinstance(e, Apply):
        _walk_atoms(e.arg, out)


def free_jets(e: Expr) -> set[str]:
    """The jets e depends on; an opaque f(t) counts as t, a named constant as none."""
    atoms = [a for a in free_atoms(e) if not isinstance(a, ConstSym)]
    return {"t" if isinstance(a, FuncSym) else a.name for a in atoms}


def require_support(e: Expr, allowed: set[str], name: str) -> None:
    """The one input check: ValueError when e depends on a jet outside allowed."""
    bad = free_jets(e) - allowed
    if bad:
        raise ValueError(f"{name} may not contain {sorted(bad)}")


def func_names(e: Expr) -> set[str]:
    return {a.name for a in free_atoms(e) if isinstance(a, FuncSym)}


def const_names(e: Expr) -> set[str]:
    return {a.name for a in free_atoms(e) if isinstance(a, ConstSym)}


def depends_on(e: Expr, sym: Expr) -> bool:
    """True when e depends on sym; FuncSym atoms count as depending on t."""
    atoms = free_atoms(e)
    if sym in atoms:
        return True
    if sym == T:
        return any(isinstance(a, FuncSym) for a in atoms)
    return False


def _rebuild(e: Expr, leaf: Callable[[Expr], Expr]) -> Expr:
    """Rebuild e through the canonicalizing constructors, mapping each atom
    (Const, JetSym, ConstSym, FuncSym) through leaf."""
    if isinstance(e, Sum):
        return add(*(_rebuild(t, leaf) for t in e.terms))
    if isinstance(e, Product):
        return mul(*(_rebuild(f, leaf) for f in e.factors))
    if isinstance(e, Power):
        return pow_(_rebuild(e.base, leaf), e.exponent)
    if isinstance(e, Apply):
        return apply_fn(e.func, _rebuild(e.arg, leaf))
    if isinstance(e, (Const, JetSym, ConstSym, FuncSym)):
        return leaf(e)
    raise TypeError(f"cannot rebuild {e!r}")


def substitute(e: Expr, mapping: Mapping[Expr, Expr]) -> Expr:
    """Replace exact atom occurrences and recanonicalize."""
    return _rebuild(e, lambda a: mapping.get(a, a))


def instantiate(e: Expr, funcs: Mapping[str, Expr] | None) -> Expr:
    """Replace opaque functions by concrete expressions over t.

    FuncSym(name, k) becomes the k-th symbolic t-derivative of funcs[name].
    Names missing from the mapping are left opaque.
    """
    if not funcs:
        return e
    for name, body in funcs.items():
        require_support(body, {"t"}, f"instantiation of {name!r}")
    cache: dict[tuple[str, int], Expr] = {}

    def derived(name: str, order: int) -> Expr:
        got = cache.get((name, order))
        if got is None:
            got = funcs[name] if order == 0 else diff(derived(name, order - 1), T)
            cache[(name, order)] = got
        return got

    def leaf(a: Expr) -> Expr:
        if isinstance(a, FuncSym) and a.name in funcs:
            return derived(a.name, a.order)
        return a

    return _rebuild(e, leaf)


def bind_constants(e: Expr, values: Mapping[str, Number]) -> Expr:
    return substitute(e, {ConstSym(k): _coerce(v) for k, v in values.items()})


def canonicalize(e: Expr) -> Expr:
    """Rebuild an arbitrary tree through the canonicalizing constructors."""
    return _rebuild(e, lambda a: _coerce(a.value) if isinstance(a, Const) else a)


# ---------------------------------------------------------------------------
# zero proving


def clear_denominators(e: Expr) -> Expr:
    """Multiply through by the common denominator of all negative powers,
    repeated (at most three rounds) until none is left at the top level.

    Where every negative-power base of e is nonzero (collect_guards) the
    result has the zero set of e."""
    for _ in range(3):
        terms = e.terms if isinstance(e, Sum) else (e,)
        need: dict[tuple, list] = {}
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
        # Merge each term's own power of a needed base with the required power
        # before pow_ expands any sum base, and pass mul only canonical nodes.
        cleared = []
        for term in terms:
            coeff, factors = as_coeff_factors(term)
            powers = {key: [b, q] for key, (b, q) in need.items()}
            rest = []
            for f in factors:
                base, q = _base_exponent(f)
                entry = powers.get(sort_key(base))
                if entry is None:
                    rest.append(f)
                else:
                    entry[1] = entry[1] + q
            cleared.append(mul(Const(coeff), *rest, *(pow_(b, q) for b, q in powers.values())))
        e = add(*cleared)
    return e


_P = 2**61 - 1  # a Mersenne prime: residues fit one machine word
_M64 = 2**64 - 1


def _point(k: int) -> int:
    """The residue of the k-th indeterminate a walk meets: splitmix64 of k
    reduced mod _P, so that no two are tied by a small linear or
    multiplicative relation."""
    z = (k + 1) * 0x9E3779B97F4A7C15 & _M64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _M64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _M64
    return (z ^ (z >> 31)) % _P


def _residue(e: Expr) -> int:
    """The value of a canonical tree mod _P.

    Each distinct jet, named constant, f(t) of each order and ln, sin, cos
    or abs application is one indeterminate; its residue is _point(k) for
    the k-th one the walk meets.  Raises ValueError where there is no
    residue that clearing is known to keep: at an exp, at a fractional
    exponent, and where an inverse of 0 mod _P would be needed.

    A node shared within the tree is valued once (memo by id, sound because
    the tree holds every node alive for the walk), and an indeterminate is
    looked up by its cached sort_key, not by hash, which would walk an ln
    or abs argument on every lookup."""
    points: dict[tuple, int] = {}
    memo: dict[int, int] = {}

    def value(n: Expr) -> int:
        r = memo.get(id(n))
        if r is not None:
            return r
        if isinstance(n, Sum):
            r = sum(map(value, n.terms)) % _P
        elif isinstance(n, Product):
            r = math.prod(map(value, n.factors)) % _P
        elif isinstance(n, Power):
            if n.exponent.denominator != 1:
                raise ValueError("fractional exponent")
            # pow raises ValueError when a negative exponent needs 1/0
            r = pow(value(n.base), n.exponent, _P)
        elif isinstance(n, Const):
            v = n.value
            r = v.numerator * pow(v.denominator, -1, _P) % _P
        elif isinstance(n, Apply) and n.func == "exp":
            raise ValueError("exp")
        else:
            key = sort_key(n)
            r = points.get(key)
            if r is None:
                r = points[key] = _point(len(points))
        memo[id(n)] = r
        return r

    return value(e)


def proven_zero(e: Expr) -> bool:
    """Sound, incomplete zero test.  A proof ends in one of three ways:
    e is the canonical zero (True); e has a nonzero residue mod 2^61 - 1
    (_residue), a witness that clearing cannot reach zero (False); or e is
    zero after clear_denominators (True, else False).

    The witness decides nothing that clearing would not: without exp and
    fractional exponents every rewrite add, mul and pow_ make while
    clearing is a ring identity, which reduction mod a prime keeps, and
    every base that clearing multiplies by had a residue the walk could
    invert.  So a nonzero residue means a cleared form other than ZERO,
    and the witness only makes a failing proof cheaper."""
    if e == ZERO:
        return True
    try:
        if _residue(e):
            return False
    except ValueError:
        pass
    return clear_denominators(e) == ZERO


# ---------------------------------------------------------------------------
# compilation to plain Python floats (fast path for integrators/quadrature)


def _param(atom: Expr) -> str:
    """Python identifier of a compile argument.  Named constants get a prefix
    no jet name has, so names such as math, lambda or xdot stay usable."""
    return atom.name if isinstance(atom, JetSym) else f"c_{atom.name}"


def _pysrc(e: Expr, names: Mapping[str, str] | None = None) -> str:
    """Python source of e over plain floats.  names maps jet names to the
    identifiers to use for them; without it a jet is its own name."""
    if isinstance(e, Const):
        # the nearest float keeps the generated arithmetic float with float,
        # which CPython runs faster than int with float, with the same result;
        # a value beyond float range stays exact and overflows where it is used
        try:
            return f"({float(e.value)!r})"
        except OverflowError:
            return f"({e.value})"
    if isinstance(e, JetSym) and names is not None:
        return names[e.name]
    if isinstance(e, (JetSym, ConstSym)):
        return _param(e)
    if isinstance(e, Sum):
        return "(" + " + ".join(_pysrc(t, names) for t in e.terms) + ")"
    if isinstance(e, Product):
        return "(" + " * ".join(_pysrc(f, names) for f in e.factors) + ")"
    if isinstance(e, Power):
        q = e.exponent
        if q.denominator == 1:
            return f"({_pysrc(e.base, names)})**({q.numerator})"
        # math.pow raises ValueError on a negative base instead of going complex
        return f"math.pow({_pysrc(e.base, names)}, {q.numerator}/{q.denominator})"
    if isinstance(e, Apply):
        inner = _pysrc(e.arg, names)
        if e.func == "abs":
            return f"abs({inner})"
        name = {"exp": "exp", "ln": "log", "sin": "sin", "cos": "cos"}[e.func]
        return f"math.{name}({inner})"
    raise TypeError(f"cannot compile {e!r}")


def _params(args: Iterable[str | ConstSym]) -> list[Expr]:
    return [_JETS[a] if isinstance(a, str) else a for a in args]


def signature(args: Iterable[str | ConstSym]) -> str:
    """Parameter list of a generated function of args (see compile_expr)."""
    return ", ".join(_param(a) for a in _params(args))


def bound_body(
    e: Expr,
    args: Iterable[str | ConstSym],
    *,
    funcs: Mapping[str, Expr] | None = None,
    constants: Mapping[str, Number] | None = None,
) -> Expr:
    """e with the opaque functions and the given constants substituted, ready
    for _pysrc; any atom left over that is not in args raises
    UnboundSymbolError."""
    body = instantiate(e, funcs)
    if constants:
        body = bind_constants(body, constants)
    params = _params(args)
    leftover = free_atoms(body) - set(params)
    if leftover:
        names = sorted(to_string(a) for a in leftover)
        raise UnboundSymbolError(f"{names} unbound at compile time; compile args are {params}")
    return body


def define(src: str, **env) -> Callable:
    """The function f that the generated source src defines.  The source
    sees math, inf and env as globals."""
    namespace = {"math": math, "inf": math.inf, **env}
    exec(src, namespace)  # noqa: S102 - internally generated source
    return namespace["f"]


def compile_expr(
    e: Expr,
    args: Iterable[str | ConstSym] = ("x", "xdot", "t"),
    *,
    funcs: Mapping[str, Expr] | None = None,
    constants: Mapping[str, Number] | None = None,
) -> Callable[..., float]:
    """Compile an expression to a float-returning Python function of args,
    which are jet names or ConstSym atoms (named constants as arguments).

    Opaque functions and the given constants are substituted first; any atom
    left over that is not in args raises UnboundSymbolError.  Arithmetic
    errors (ZeroDivisionError, OverflowError, ValueError) reach the caller.
    """
    args = tuple(args)
    body = bound_body(e, args, funcs=funcs, constants=constants)
    return define(f"def f({signature(args)}):\n    return {_pysrc(body)}\n")


# ---------------------------------------------------------------------------
# printing (canonical; parse(to_string(e)) == e on canonical rational trees)


def _print_base(b: Expr) -> str:
    if isinstance(b, (JetSym, ConstSym, FuncSym, Apply)):
        return _print_factor(b)
    return "(" + to_string(b) + ")"


def _print_pow(base: Expr, q: int | Fraction) -> str:
    s = _print_base(base)
    if q == 1:
        return s
    if q.denominator == 1 and q > 0:
        return f"{s}^{q.numerator}"
    if q.denominator == 1:
        return f"{s}^({q.numerator})"
    return f"{s}^({q.numerator}/{q.denominator})"


def _print_factor(f: Expr) -> str:
    if isinstance(f, JetSym):
        return {"x": "x", "xdot": "x'", "xddot": "x''", "xdddot": "x'''", "t": "t"}[f.name]
    if isinstance(f, ConstSym):
        return f.name
    if isinstance(f, FuncSym):
        return f"{f.name}(t)" + "'" * f.order
    if isinstance(f, Apply):
        return f"{f.func}({to_string(f.arg)})"
    if isinstance(f, Power):
        return _print_pow(f.base, f.exponent)
    raise TypeError(f"not a printable factor: {f!r}")


def _print_term(coeff, factors: tuple[Expr, ...]) -> str:
    num_parts: list[str] = []
    den_parts: list[str] = []
    for f in factors:
        if isinstance(f, Power) and f.exponent < 0:
            # "x/(a+b)^2" re-parses to the same tree, but sum bases below -1
            # keep their explicit exponent so that reports stay byte-identical
            if isinstance(f.base, Sum) and f.exponent != -1:
                num_parts.append(_print_pow(f.base, f.exponent))
            else:
                den_parts.append(_print_pow(f.base, -f.exponent))
        else:
            num_parts.append(_print_factor(f))
    cs = str(coeff)
    if cs != "1" or not num_parts:
        num_parts.insert(0, cs)
    num = "*".join(num_parts)
    if den_parts:
        # chained division: "a/(x*(u + v))" re-parses to the same tree, but
        # "a/x/(u + v)" is kept so that reports stay byte-identical
        return num + "/" + "/".join(den_parts)
    return num


def to_string(e: Expr) -> str:
    terms = e.terms if isinstance(e, Sum) else (e,)
    out: list[str] = []
    for i, term in enumerate(terms):
        coeff, factors = as_coeff_factors(term)
        negative = coeff < 0
        body = _print_term(-coeff if negative else coeff, factors)
        if i == 0:
            out.append("-" + body if negative else body)
        else:
            out.append((" - " if negative else " + ") + body)
    return "".join(out)
