import warnings

import numpy as np
import pytest

from posqubit import signals
from posqubit.errors import QuadratureNotConvergedError, SignalDomainError


def test_constant_and_as_signal():
    sig = signals.constant(2.5)
    assert sig(0.0) == 2.5 and sig(17.0) == 2.5
    assert signals.as_signal(3)(1.0) == 3.0
    f = lambda t: t * t
    assert signals.as_signal(f) is f


def test_sinusoid_values():
    sig = signals.sinusoid(2.0, 3.0, phase=0.5, offset=-1.0)
    for t in (0.0, 0.3, 1.7):
        assert abs(sig(t) - (2.0 * np.sin(3.0 * t + 0.5) - 1.0)) < 1e-15


def test_table_interpolation_and_domain():
    sig = signals.table([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
    assert abs(sig(0.5) - 1.0) < 1e-15
    assert abs(sig(1.5) - 1.0) < 1e-15
    with pytest.raises(SignalDomainError):
        sig(2.5)
    with pytest.raises(SignalDomainError):
        sig(-0.1)


def test_table_order_check_spans_past_the_largest_float():
    # np.diff overflowed on this span; the order check compares neighbours,
    # and only then is a gap past the largest float rejected
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for times in ([-1.7e308, 1.7e308], [-float("inf"), 0.0], [0.0, 1.0, float("inf")]):
            with pytest.raises(ValueError, match="gaps between sample times must be finite"):
                signals.table(times, [0.2] * len(times))
        for times in ([-1.7e308, 1.7e308, 1.7e308], [1.7e308, -1.7e308], [0.0, float("nan")]):
            with pytest.raises(ValueError, match="strictly increasing"):
                signals.table(times, [0.0] * len(times))


def test_table_interpolates_over_the_widest_finite_gaps():
    # np.interp's slope over a gap past the largest float read 0.2 here, not 0.15
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sig = signals.table([-8e307, 8e307], [0.2, 0.1])
        assert abs(sig(0.0) - 0.15) <= 1e-15
        assert sig(-8e307) == 0.2 and sig(8e307) == 0.1


def test_complex_table_keeps_imaginary_part():
    sig = signals.table([0.0, 1.0], [0.0, 1j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning from dropping the imaginary part
        assert sig(0.5) == 0.5j and isinstance(sig(0.5), complex)
        assert np.array_equal(sig(np.array([0.5])), [0.5j])
        assert abs(signals.integrate(sig, 0.0, 1.0) - 0.5j) < 1e-15


def test_integrate_polynomial_exact():
    val = signals.integrate(lambda t: 3.0 * t * t, 0.0, 2.0)
    assert abs(val - 8.0) < 1e-12


def test_integrate_oscillatory():
    val = signals.integrate(lambda t: np.sin(10.0 * t), 0.0, np.pi)
    exact = (1.0 - np.cos(10.0 * np.pi)) / 10.0
    assert abs(val - exact) < 1e-9


def test_integrate_complex_values():
    val = signals.integrate(lambda t: np.exp(1j * t), 0.0, 1.0)
    exact = (np.exp(1j) - 1.0) / 1j
    assert abs(val - exact) < 1e-10


def test_integrate_reversed_interval_sign():
    a = signals.integrate(lambda t: t, 0.0, 1.0)
    b = signals.integrate(lambda t: t, 1.0, 0.0)
    assert abs(a + b) < 1e-12


def test_integrate_work_is_bounded():
    # a large integrand converges once the tolerance reaches its rounding floor
    val = signals.integrate(signals.sinusoid(1e8, 1.0), 0.0, 10.0)
    assert abs(val - 1e8 * (1.0 - np.cos(10.0))) < 1e-4
    # a NaN error estimate ends the splitting
    assert np.isnan(signals.integrate(lambda t: np.nan, 0.0, 1.0))
    # so do sums that overflow (inf - inf), and the result reads NaN, not inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(signals.integrate(signals.constant(1e308), 0.0, 0.1))
    # an oscillation far below the time resolution raises instead of splitting 2**40 times
    with pytest.raises(QuadratureNotConvergedError):
        signals.integrate(signals.sinusoid(0.2, 1e16), 0.0, 1.0)


def test_signals_accept_arrays():
    t = np.linspace(0.0, 2.0, 7).reshape(7, 1)
    const = signals.constant(2.5)
    assert const(t).shape == t.shape and np.all(const(t) == 2.5)
    assert isinstance(const(1.0), float)
    sine = signals.sinusoid(2.0, 3.0, phase=0.5, offset=-1.0)
    tab = signals.table([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
    for sig in (const, sine, tab):
        values = sig(t)
        assert values.shape == t.shape
        assert all(values.flat[k] == sig(x) for k, x in enumerate(t.flat))
    assert isinstance(tab(0.5), float)
    # one sample out of the tabulated domain is enough to raise
    with pytest.raises(SignalDomainError, match="t=2.5"):
        tab(np.array([0.5, 1.0, 2.5]))
    with pytest.raises(SignalDomainError):
        tab(np.array([[-0.1], [1.0]]))


# The adaptive Simpson rule ``integrate`` used before Gauss-Kronrod, kept
# verbatim (module names qualified) as the oracle of the rule that replaced it.
SIMPSON_MAX_SPLITS = 200_000


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
        raise QuadratureNotConvergedError(f"adaptive Simpson exceeded {SIMPSON_MAX_SPLITS} panel splits")
    return _adaptive(f, a, fa, m, fm, lm, flm, left, tol / 2.0, depth - 1, budget) + _adaptive(
        f, m, fm, b, fb, rm, frm, right, tol / 2.0, depth - 1, budget
    )


def simpson_integrate(signal, t0, t1):
    signal = signals.as_signal(signal)
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
    tol = max(signals.INTEGRATE_TOL, 64.0 * signals._EPS * (t1 - t0) * max(map(abs, vals)))
    budget = [SIMPSON_MAX_SPLITS]
    total = 0.0
    for k in range(len(grid) - 1):
        a, b = grid[k], grid[k + 1]
        fa, fb = vals[k], vals[k + 1]
        m, fm, whole = _simpson(signal, a, fa, b, fb)
        total += _adaptive(signal, a, fa, b, fb, m, fm, whole, tol / 8.0, 40, budget)
    return sign * total


def _quad(f, t0, t1, points=None):
    """scipy quad of ``f``, real and imaginary parts apart."""
    from scipy.integrate import quad

    parts = [
        quad(lambda x, part=part: part(f(x)), t0, t1, points=points, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        for part in (np.real, np.imag)
    ]
    return parts[0] + 1j * parts[1]


def _trapezoid_exact(nodes, values, t0, t1):
    """Exact integral of the piecewise-linear interpolant over [t0, t1]."""
    inner = nodes[(nodes > t0) & (nodes < t1)]
    grid = np.concatenate([[t0], inner, [t1]])
    vals = np.interp(grid, nodes, values)
    return np.sum(0.5 * (vals[1:] + vals[:-1]) * np.diff(grid))


def test_integrate_matches_closed_forms_quad_and_simpson_oracle():
    nodes = np.linspace(0.0, 6.0, 13)
    local = np.random.default_rng(11)  # leaves other tests' generators alone
    real_values = local.uniform(-0.5, 0.5, 13)
    complex_values = real_values + 1j * local.uniform(-0.3, 0.3, 13)
    amp, omega, phase, offset = 0.18, 1.01, 0.3, 0.05
    sine = signals.sinusoid(amp, omega, phase, offset)

    def sine_exact(a, b):
        return offset * (b - a) - amp / omega * (np.cos(omega * b + phase) - np.cos(omega * a + phase))

    # (signal, t0, t1, exact, kinks for quad)
    cases = [(signals.constant(-0.37), 0.2, 0.25, -0.37 * (0.25 - 0.2), None)]
    for a in np.linspace(0.0, 10.0, 21):  # Rabi-sized intervals
        cases.append((sine, a, a + 0.05, sine_exact(a, a + 0.05), None))
    # many periods in one interval: a missed period would show
    cases.append((lambda t: np.sin(50.0 * t) ** 2, 0.0, 10.0, 5.0 - np.sin(1000.0) / 200.0, None))
    for values in (real_values, complex_values):
        for a, b in ((0.0, 6.0), (0.5, 4.3), (1.1, 1.15)):
            kinks = nodes[(nodes > a) & (nodes < b)]
            cases.append((signals.table(nodes, values), a, b, _trapezoid_exact(nodes, values, a, b), kinks))
    for sig, a, b, exact, kinks in cases:
        by_quad, by_simpson = _quad(sig, a, b, kinks), simpson_integrate(sig, a, b)
        for t0, t1, sign in ((a, b, 1.0), (b, a, -1.0)):  # and the reversed interval
            val = signals.integrate(sig, t0, t1)
            assert abs(val - sign * exact) <= 1e-12
            assert abs(val - sign * by_quad) <= 1e-12
            assert abs(val - sign * by_simpson) <= 1e-12
            assert val == -signals.integrate(sig, t1, t0)
    assert isinstance(signals.integrate(signals.table(nodes, complex_values), 0.5, 4.3), complex)


def test_integrate_smooth_short_interval_takes_one_panel():
    calls = []
    sine = signals.sinusoid(0.18, 1.01, 0.3)

    def counted(t):
        calls.append(t)
        return sine(t)

    for a in (0.0, 3.7, 9.95):
        calls.clear()
        signals.integrate(counted, a, a + 0.05)
        assert len(calls) <= 15
        assert all(a <= t <= a + 0.05 and isinstance(t, float) for t in calls)
