"""Independent references for checking the program's outputs.

Nothing here imports nullag.  Printed expressions are translated to Python
source by a grammar of their own and evaluated with `math`; derivatives are
central finite differences.  Opaque time functions f1..f4 get fixed smooth
instantiations whose derivatives are written out by hand.
"""

from __future__ import annotations

import math
import re

H = 1e-5
RTOL = 1e-6

# order-k derivative of each opaque function, all positive on t in [0.5, 3]
OPAQUE = {
    "f1": (lambda t: 1.0 + t * t, lambda t: 2.0 * t, lambda t: 2.0, lambda t: 0.0),
    "f2": (lambda t: 2.0 + math.sin(t), math.cos, lambda t: -math.sin(t), lambda t: -math.cos(t)),
    "f3": (lambda t: math.exp(t / 2), lambda t: math.exp(t / 2) / 2,
           lambda t: math.exp(t / 2) / 4, lambda t: math.exp(t / 2) / 8),
    "f4": (lambda t: 1.0 + t, lambda t: 1.0, lambda t: 0.0, lambda t: 0.0),
}
CONSTANTS = {"B0": 1.25, "c1": 1.0, "c2": 1.0, "c3": 1.0, "a0": 1.0, "b0": 2.0,
             "C1": 1.0, "C2": 1.0, "v0": 1.0, "ctilde": 0.0, "ct3": 0.75}

_OPAQUE_CALL = re.compile(r"\b(f[1-4])\(t\)('*)")
_JET = re.compile(r"\bx(?!\w)('*)")
_JET_NAMES = {"": "x", "'": "xd", "''": "xdd", "'''": "xddd"}
_NAMESPACE = {"exp": math.exp, "ln": math.log, "sin": math.sin, "cos": math.cos,
              "abs": abs, "OPAQUE": OPAQUE, **CONSTANTS}


def compile_printed(text: str, constants: dict | None = None):
    """Function (x, xd, xdd, t) -> float of an expression in the printed grammar."""
    src = _OPAQUE_CALL.sub(lambda m: f"OPAQUE['{m.group(1)}'][{len(m.group(2))}](t)", text)
    src = _JET.sub(lambda m: _JET_NAMES[m.group(1)], src).replace("^", "**")
    namespace = dict(_NAMESPACE, **(constants or {}))
    return eval(f"lambda x, xd=0.0, xdd=0.0, t=0.0: {src}", namespace)  # noqa: S307


def close(a: float, b: float, rtol: float = RTOL) -> bool:
    return abs(a - b) <= rtol * (1.0 + abs(a) + abs(b))


def d_dx(f, x, t, xd=0.0):
    return (f(x + H, xd, 0.0, t) - f(x - H, xd, 0.0, t)) / (2 * H)


def d_dt(f, x, t, xd=0.0):
    return (f(x, xd, 0.0, t + H) - f(x, xd, 0.0, t - H)) / (2 * H)


def null_condition_holds(B: str, xC: str, points, constants=None) -> bool:
    """d(xC)/dx == dB/dt at every point; xC is the printed x*C part."""
    b, xc = compile_printed(B, constants), compile_printed(xC, constants)
    return all(close(d_dx(xc, x, t), d_dt(b, x, t)) for x, t in points)


def conservation_holds(B: str, C: str, f: str, explicit: str, points, constants=None) -> bool:
    """Along x'' = g the null Lagrangian B*x' + C*x + f is conserved:
    B*g + B_x*v^2 + 2*B_t*v + C_t*x + f' == 0 (expanded under the null condition)."""
    b, c = compile_printed(B, constants), compile_printed(C, constants)
    ff, g = compile_printed(f, constants), compile_printed(explicit, constants)
    for x, t, v in points:
        lhs = b(x, 0, 0, t) * g(x, v, 0, t)
        rest = d_dx(b, x, t) * v * v + 2 * d_dt(b, x, t) * v + d_dt(c, x, t) * x + d_dt(ff, x, t)
        if not close(lhs, -rest):
            return False
    return True


def simpson(f, a: float, b: float, panels: int) -> float:
    h = (b - a) / panels
    acc = f(a) + f(b)
    for i in range(1, panels):
        acc += f(a + i * h) * (4 if i % 2 else 2)
    return acc * h / 3


# closed-form solutions of the catalog systems with t0 = 0 and the default
# constants (a0 = 1, b0 = beta0 = 2, unit scale); None past a blow-up


def inertia_solution(x0: float, v0: float, t: float):
    return x0 + v0 * t, v0


def tied_solution(x0: float, v0: float, t: float):
    e = math.exp(-t)
    return (x0 + (v0 + x0) * t) * e, (v0 - (v0 + x0) * t) * e


def quadratic_solution(x0: float, v0: float, t: float):
    s = 1.0 + v0 * t
    if s <= 0.0:
        return None
    return x0 + math.log(s), v0 / s


def quadratic_blowup_time(v0: float) -> float:
    """Time at which x0 + ln(1 + v0*t) reaches -infinity (inf if never)."""
    return -1.0 / v0 if v0 < 0 else math.inf


SOLUTIONS = {"inertia": inertia_solution, "tied": tied_solution, "quadratic": quadratic_solution}

# The quantity that vanishes on each non-standard Lagrangian's singular set,
# as a function of (x0, v0).  Along the exact solution it is constant
# (inertia: (t+1)x' - x + 1; quadratic: x'e^x + 1) or decays as e^(-t)
# (tied: x' + x).
SINGULAR = {
    "inertia": lambda x0, v0: v0 - x0 + 1,
    "quadratic": lambda x0, v0: v0 * math.exp(x0) + 1,
    "tied": lambda x0, v0: v0 + x0,
}
