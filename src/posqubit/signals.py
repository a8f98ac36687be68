"""Time signals used as drives and time-dependent energies.

A signal is a plain callable t -> value.  The factories' signals also
take an array of times and return an array of the same shape, so a
whole time grid is evaluated in one call; a scalar time still gives a
scalar: a Python float from a real table, and from a sinusoid of real
parameters at a float time, as scalar arithmetic on Python floats costs
about half what it costs on NumPy scalars.  ``as_signal`` promotes bare
numbers so APIs accept either.  ``integrate`` takes definite integrals
by adaptive Gauss-Kronrod 7/15 quadrature, calling the signal at scalar
times only: 15 calls for a smooth interval, which one panel resolves.
"""

import math
from functools import reduce
from operator import add, mul

import numpy as np

from .errors import QuadratureNotConvergedError, SignalDomainError

_EPS = np.finfo(float).eps
MAX_SPLITS = 30_000  # panel splits per integral, about a second of work
INTEGRATE_TOL = 1e-10  # absolute error goal of ``integrate``
_FLOAT64 = (float, np.float64)  # scalar times whose products with a real are float64


def constant(value):
    """Signal that always returns ``value``, broadcast to the shape of an array ``t``."""

    def sig(t):
        return np.full(t.shape, value) if isinstance(t, np.ndarray) else value

    return sig


def sinusoid(amplitude, omega, phase=0.0, offset=0.0):
    """offset + amplitude * sin(omega * t + phase).

    With real parameters (ints and floats, NumPy float64 included), a
    float time (Python or NumPy float64) takes ``math.sin`` and gives a
    Python float of the same value as ``np.sin``; any other parameter or
    time, and an infinite argument, takes ``np.sin`` as an array does.
    """
    real = all(isinstance(p, (int, float)) for p in (amplitude, omega, phase, offset))

    def sig(t):
        if real and t.__class__ in _FLOAT64:
            try:
                return offset + amplitude * math.sin(omega * t + phase)
            except ValueError:  # sin of an infinity: np.sin warns and reads NaN
                pass
        return offset + amplitude * np.sin(omega * t + phase)

    return sig


def table(times, values):
    """Piecewise-linear interpolation through sampled points.

    Evaluation outside [times[0], times[-1]], at any element of an array
    ``t``, raises SignalDomainError.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values)
    if times.ndim != 1 or times.shape != values.shape:
        raise ValueError("times and values must be 1-D arrays of equal length")
    if times.size < 2:
        raise ValueError("a tabulated signal needs at least two samples")
    # neighbours compared directly, before any gap is taken: a NaN time fails here too
    if not np.all(times[1:] > times[:-1]):
        raise ValueError("sample times must be strictly increasing")
    # np.interp divides by each gap, and a gap past the largest float gives a wrong slope
    with np.errstate(over="ignore"):
        if not np.isfinite(np.diff(times)).all():
            raise ValueError("gaps between sample times must be finite (at most the largest float)")

    def sig(t):
        t = np.asarray(t, dtype=float)
        outside = (t < times[0] - 1e-12) | (t > times[-1] + 1e-12)
        if outside.any():
            raise SignalDomainError(
                f"t={t[outside].flat[0]} outside tabulated domain [{times[0]}, {times[-1]}]"
            )
        out = np.interp(t, times, values)
        return out if t.ndim else out.item()  # .item() keeps a complex table's imaginary part

    return sig


def as_signal(x):
    """Promote a number to a constant signal; pass callables through."""
    if callable(x):
        return x
    return constant(x)


# QUADPACK qk15 (Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner, 1983)
# on [-1, 1]: the positive Kronrod nodes, outermost first, the Kronrod
# weights of those nodes and of the centre, and the weights of the 7-point
# Gauss rule, which uses every second node and the centre
_XK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)
_NODES = tuple(-x for x in _XK) + (0.0,) + _XK[::-1]  # ascending
_WEIGHTS = _WK + _WK[-2::-1]


def _gk15(f, a, b):
    """Kronrod 15-point estimate of the integral of ``f`` over [a, b], its
    distance |K15 - G7| from the embedded Gauss 7-point estimate, and the
    15 node values.  ``f`` is called at scalar times only."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    v = [f(c + h * x) for x in _NODES]
    # left to right, not by sum(), which from Python 3.12 compensates Python
    # floats but not NumPy scalars: so the bits depend on neither
    kronrod = reduce(add, map(mul, _WEIGHTS, v), 0.0)
    gauss = _WG[0] * (v[1] + v[13]) + _WG[1] * (v[3] + v[11]) + _WG[2] * (v[5] + v[9]) + _WG[3] * v[7]
    return h * kronrod, abs(h * (kronrod - gauss)), v


def _adaptive(f, a, b, whole, err, tol, depth, budget):
    """``whole``, the estimate over [a, b], once its error ``err`` meets
    ``tol``; else the sum over the two halves, each refined to tol / 2."""
    if depth <= 0 or not err > tol:  # a NaN estimate stops the splitting too
        # and reads NaN, also where only the sums overflowed (inf - inf)
        return err if math.isnan(err) else whole
    budget[0] -= 1
    if budget[0] < 0:
        raise QuadratureNotConvergedError(f"adaptive Gauss-Kronrod exceeded {MAX_SPLITS} panel splits")
    m = 0.5 * (a + b)
    left, left_err, _ = _gk15(f, a, m)
    right, right_err, _ = _gk15(f, m, b)
    return _adaptive(f, a, m, left, left_err, tol / 2.0, depth - 1, budget) + _adaptive(
        f, m, b, right, right_err, tol / 2.0, depth - 1, budget
    )


def integrate(signal, t0, t1):
    """Definite integral of a signal over [t0, t1], adaptive Gauss-Kronrod 7/15.

    The first panel is [t0, t1].  A panel is accepted when its error
    estimate |K15 - G7| meets the goal; otherwise it is bisected, each half
    with half the goal, down to 40 levels.  The goal is INTEGRATE_TOL,
    absolute, raised to the rounding floor of a large integrand,
    64 eps (t1 - t0) max|f| over the first panel's nodes, formed only when
    the first panel misses INTEGRATE_TOL, as no goal lies below it.  A NaN
    error estimate ends a panel's splitting and makes the result NaN; more
    than MAX_SPLITS splits, as for an integrand the panels cannot resolve,
    raise QuadratureNotConvergedError.  The signal is called at scalar
    times only.
    """
    signal = as_signal(signal)
    if t1 == t0:
        return 0.0 * signal(t0)
    sign = 1.0
    if t1 < t0:
        t0, t1 = t1, t0
        sign = -1.0
    a, b = float(t0), float(t1)  # node arithmetic in Python floats costs less than in NumPy scalars
    whole, err, v = _gk15(signal, a, b)
    if err <= INTEGRATE_TOL:  # False for a NaN estimate, which _adaptive returns
        return sign * whole
    tol = max(INTEGRATE_TOL, 64.0 * _EPS * (b - a) * max(map(abs, v)))
    return sign * _adaptive(signal, a, b, whole, err, tol, 40, [MAX_SPLITS])
