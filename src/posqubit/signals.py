"""Time signals used as drives and time-dependent energies.

A signal is a plain callable t -> value.  The factories' signals also
take an array of times and return an array of the same shape, so a
whole time grid is evaluated in one call; a scalar time still gives a
scalar.  ``as_signal`` promotes bare numbers so APIs accept either.
Definite integrals use adaptive Simpson quadrature.
"""

import numpy as np

from .errors import QuadratureNotConvergedError, SignalDomainError

_EPS = np.finfo(float).eps
MAX_SPLITS = 200_000  # panel splits per integral, about a second of work
INTEGRATE_TOL = 1e-10  # absolute error goal of ``integrate``


def constant(value):
    """Signal that always returns ``value``, broadcast to the shape of an array ``t``."""

    def sig(t):
        return np.full(t.shape, value) if isinstance(t, np.ndarray) else value

    return sig


def sinusoid(amplitude, omega, phase=0.0, offset=0.0):
    """offset + amplitude * sin(omega * t + phase)."""

    def sig(t):
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
    if np.any(np.diff(times) <= 0):
        raise ValueError("sample times must be strictly increasing")

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


def _simpson(f, a, fa, b, fb):
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, fa, b, fb, m, fm, whole, tol, depth, budget):
    lm, flm, left = _simpson(f, a, fa, m, fm)
    rm, frm, right = _simpson(f, m, fm, b, fb)
    delta = left + right - whole
    if depth <= 0 or not abs(delta) > 15.0 * tol:  # a NaN estimate stops the splitting too
        return left + right + delta / 15.0
    budget[0] -= 1
    if budget[0] < 0:
        raise QuadratureNotConvergedError(f"adaptive Simpson exceeded {MAX_SPLITS} panel splits")
    return _adaptive(f, a, fa, m, fm, lm, flm, left, tol / 2.0, depth - 1, budget) + _adaptive(
        f, m, fm, b, fb, rm, frm, right, tol / 2.0, depth - 1, budget
    )


def integrate(signal, t0, t1):
    """Definite integral of a signal over [t0, t1], adaptive Simpson.

    The error goal is INTEGRATE_TOL, absolute, raised to the rounding floor
    of a large integrand, 64 eps (t1 - t0) max|f(seed samples)|.  A NaN
    error estimate ends a panel's splitting; more than MAX_SPLITS splits,
    as for an integrand the panels cannot resolve, raise
    QuadratureNotConvergedError.
    """
    signal = as_signal(signal)
    if t1 == t0:
        return 0.0 * signal(t0)
    sign = 1.0
    if t1 < t0:
        t0, t1 = t1, t0
        sign = -1.0
    # seed with a few panels so periodic integrands are not missed; Python
    # floats give the same grid as np.linspace(t0, t1, 9) at less cost per step
    step = (float(t1) - float(t0)) / 8.0
    grid = [k * step + float(t0) for k in range(8)] + [float(t1)]
    vals = [signal(t) for t in grid]
    tol = max(INTEGRATE_TOL, 64.0 * _EPS * (t1 - t0) * max(map(abs, vals)))
    budget = [MAX_SPLITS]
    total = 0.0
    for k in range(len(grid) - 1):
        a, b = grid[k], grid[k + 1]
        fa, fb = vals[k], vals[k + 1]
        m, fm, whole = _simpson(signal, a, fa, b, fb)
        total += _adaptive(signal, a, fa, b, fb, m, fm, whole, tol / 8.0, 40, budget)
    return sign * total
