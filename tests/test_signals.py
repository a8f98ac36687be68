import importlib.util
import math
import warnings
from operator import mul
from pathlib import Path

import numpy as np
import pytest

import posqubit.cli as cli
import posqubit.single_qubit as sq
from posqubit import signals
from posqubit.errors import QuadratureNotConvergedError, SignalDomainError
from posqubit.qcore import stack2x2, su2_step_operators

BENCH = Path(__file__).resolve().parent.parent / "bench"


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


TABLE_NODES = np.linspace(0.0, 6.0, 13)


def _closed_form_cases():
    """(signal, its former NumPy-scalar form, t0, t1, exact integral, kinks
    for quad) over a constant, Rabi-sized sinusoid intervals, many periods
    in one interval, and real and complex tables."""
    local = np.random.default_rng(11)  # leaves other tests' generators alone
    real_values = local.uniform(-0.5, 0.5, 13)
    complex_values = real_values + 1j * local.uniform(-0.3, 0.3, 13)
    amp, omega, phase, offset = 0.18, 1.01, 0.3, 0.05
    sine, former_sine = signals.sinusoid(amp, omega, phase, offset), _former_sinusoid(amp, omega, phase, offset)

    def sine_exact(a, b):
        return offset * (b - a) - amp / omega * (np.cos(omega * b + phase) - np.cos(omega * a + phase))

    const = signals.constant(-0.37)
    cases = [(const, _numpy_valued(const), 0.2, 0.25, -0.37 * (0.25 - 0.2), None)]
    for a in np.linspace(0.0, 10.0, 21):  # Rabi-sized intervals
        cases.append((sine, former_sine, a, a + 0.05, sine_exact(a, a + 0.05), None))
    # many periods in one interval: a missed period would show
    sin2 = lambda t: np.sin(50.0 * t) ** 2
    cases.append((sin2, sin2, 0.0, 10.0, 5.0 - np.sin(1000.0) / 200.0, None))
    for values in (real_values, complex_values):
        tab = signals.table(TABLE_NODES, values)
        for a, b in ((0.0, 6.0), (0.5, 4.3), (1.1, 1.15)):
            kinks = TABLE_NODES[(TABLE_NODES > a) & (TABLE_NODES < b)]
            cases.append((tab, _numpy_valued(tab), a, b, _trapezoid_exact(TABLE_NODES, values, a, b), kinks))
    return cases


def test_integrate_matches_closed_forms_quad_and_simpson_oracle():
    for sig, _, a, b, exact, kinks in _closed_form_cases():
        by_quad, by_simpson = _quad(sig, a, b, kinks), simpson_integrate(sig, a, b)
        for t0, t1, sign in ((a, b, 1.0), (b, a, -1.0)):  # and the reversed interval
            val = signals.integrate(sig, t0, t1)
            assert abs(val - sign * exact) <= 1e-12
            assert abs(val - sign * by_quad) <= 1e-12
            assert abs(val - sign * by_simpson) <= 1e-12
            assert val == -signals.integrate(sig, t1, t0)
    complex_table = _closed_form_cases()[-1][0]
    assert isinstance(signals.integrate(complex_table, 0.5, 4.3), complex)


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


# ``sinusoid`` and ``integrate`` as they were before sinusoids gave Python
# floats at float times and before the first panel was accepted ahead of
# the rounding floor, kept (module names qualified) as the oracle of both:
# the new path must equal it bit for bit.  The oracle is fed NumPy-scalar
# values, which sum() adds left to right in every Python version, as
# ``integrate`` now adds values of every type (from Python 3.12 sum()
# compensates Python floats).
def _former_sinusoid(amplitude, omega, phase=0.0, offset=0.0):
    def sig(t):
        return offset + amplitude * np.sin(omega * t + phase)

    return sig


def _numpy_valued(sig):
    """``sig`` with its scalar values as NumPy scalars."""
    return lambda t: np.asarray(sig(t))[()]


def _former_gk15(f, a, b):
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    v = [f(c + h * x) for x in signals._NODES]
    kronrod = sum(map(mul, signals._WEIGHTS, v))
    wg = signals._WG
    gauss = wg[0] * (v[1] + v[13]) + wg[1] * (v[3] + v[11]) + wg[2] * (v[5] + v[9]) + wg[3] * v[7]
    return h * kronrod, abs(h * (kronrod - gauss)), max(map(abs, v))


def _former_adaptive(f, a, b, whole, err, tol, depth, budget):
    if depth <= 0 or not err > tol:
        return err if math.isnan(err) else whole
    budget[0] -= 1
    if budget[0] < 0:
        raise QuadratureNotConvergedError(f"adaptive Gauss-Kronrod exceeded {signals.MAX_SPLITS} panel splits")
    m = 0.5 * (a + b)
    left, left_err, _ = _former_gk15(f, a, m)
    right, right_err, _ = _former_gk15(f, m, b)
    return _former_adaptive(f, a, m, left, left_err, tol / 2.0, depth - 1, budget) + _former_adaptive(
        f, m, b, right, right_err, tol / 2.0, depth - 1, budget
    )


def former_integrate(signal, t0, t1):
    signal = signals.as_signal(signal)
    if t1 == t0:
        return 0.0 * signal(t0)
    sign = 1.0
    if t1 < t0:
        t0, t1 = t1, t0
        sign = -1.0
    a, b = float(t0), float(t1)
    with np.errstate(over="ignore", invalid="ignore"):  # NumPy scalars warn where Python floats do not
        whole, err, f_max = _former_gk15(signal, a, b)
        tol = max(signals.INTEGRATE_TOL, 64.0 * signals._EPS * (b - a) * f_max)
        return sign * _former_adaptive(signal, a, b, whole, err, tol, 40, [signals.MAX_SPLITS])


def _bits(x):
    return np.asarray(x).dtype, np.asarray(x).tobytes()


def _assert_integrals_equal(sig, former, a, b):
    assert _bits(signals.integrate(sig, a, b)) == _bits(former_integrate(former, a, b))


def test_integrate_equals_its_former_path_on_the_closed_form_cases():
    for sig, former, a, b, *_ in _closed_form_cases():
        for t0, t1 in ((a, b), (b, a), (a, a), (b, b)):  # reversed and at zero length too
            _assert_integrals_equal(sig, former, t0, t1)


def test_integrate_equals_its_former_path_on_rabi_sized_intervals():
    # 2000 intervals of length 0.05 over the benchmark's Rabi ranges: the
    # resonant sinusoid and the constant level energies
    local = np.random.default_rng(31)
    for k in range(1000):
        amp, omega, phase = local.uniform(0.17, 0.19), local.uniform(0.93, 1.07), local.uniform(0.0, 2 * np.pi)
        level = local.uniform(-0.73, 0.73)
        a = local.uniform(0.0, 10.0)
        a = float(a) if k % 2 else np.float64(a)  # edges as Python floats, and as NumPy's
        _assert_integrals_equal(signals.sinusoid(amp, omega, phase), _former_sinusoid(amp, omega, phase), a, a + 0.05)
        const = signals.constant(level)
        _assert_integrals_equal(const, _numpy_valued(const), a, a + 0.05)


def test_integrate_equals_its_former_path_where_the_first_panel_misses_the_goal():
    sin2 = lambda t: np.sin(50.0 * t) ** 2
    _assert_integrals_equal(sin2, sin2, 0.0, 10.0)
    # first panels that miss INTEGRATE_TOL by less than tenfold (1.4e-10, 5.8e-10),
    # where the split changes the result
    unit = signals.sinusoid(1.0, 1.0)
    for b in (4.25, 4.75):
        whole, err, _ = signals._gk15(unit, 0.0, b)
        assert signals.INTEGRATE_TOL < err < 1e-9
        assert signals.integrate(unit, 0.0, b) != whole
        _assert_integrals_equal(unit, _former_sinusoid(1.0, 1.0), 0.0, b)
    # the rounding floor of a large integrand
    _assert_integrals_equal(signals.sinusoid(1e8, 1.0), _former_sinusoid(1e8, 1.0), 0.0, 10.0)
    # a NaN estimate, and sums that overflow (inf - inf): both read NaN
    nan = lambda t: np.nan
    _assert_integrals_equal(nan, _numpy_valued(nan), 0.0, 1.0)
    huge = signals.constant(1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_integrals_equal(huge, _numpy_valued(huge), 0.0, 0.1)
    assert np.isnan(signals.integrate(huge, 0.0, 0.1))


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _former_rabi_evolution_matrix(e1, e2, e12, t0, t):
    """``single_qubit.rabi_evolution_matrix`` before its edges were Python floats."""
    edges = np.concatenate([[t0], np.ravel(t)])
    parts = [[former_integrate(f, a, b) for f in (e1, e2, e12)] for a, b in zip(edges[:-1], edges[1:])]
    i1, i2, i12 = np.cumsum(np.reshape(parts, (-1, 3)), axis=0).T
    return su2_step_operators(stack2x2(i1.real, i12, np.conj(i12), i2.real), 1.0)


@pytest.mark.parametrize("seed", [7, 8])
def test_rabi_evolution_matrix_on_the_benchmark_points_equals_its_former_path(seed):
    rabi = [job.cfg for job in _load_workloads().generate("driven-trace", seed) if job.family == "rabi"]
    assert len(rabi) == 2
    for cfg in rabi:
        _, (t0, dt, _, steps), params = cli._read_scenario(cfg)
        times = t0 + dt * steps[1:]
        e1, e2, e12 = (params[k] for k in ("e1", "e2", "e12"))
        drive = {k: float(v) for k, v in cfg["parameters"]["e12"].items() if k != "kind"}
        former = [_numpy_valued(e1), _numpy_valued(e2), _former_sinusoid(**drive)]
        u = sq.rabi_evolution_matrix(e1, e2, e12, t0, times)
        assert u.shape == (len(times), 2, 2)
        assert u.tobytes() == _former_rabi_evolution_matrix(*former, t0, times).tobytes()


# the benchmark's sinusoid draws: (amplitude, omega, phase, offset) ranges and the time span
BENCH_SINUSOIDS = {
    "rabi-e12": ((0.17, 0.19), (0.93, 1.07), (0.0, 2 * np.pi), (0.0, 0.0), 10.0),
    "single-qubit-ep1": ((0.25, 0.3), (1.0, 1.2), (0.0, 2 * np.pi), (-0.05, 0.05), 20.0),
}


@pytest.mark.parametrize("family", sorted(BENCH_SINUSOIDS))
def test_sinusoid_scalar_and_array_paths_agree_bit_for_bit(family):
    *ranges, span = BENCH_SINUSOIDS[family]
    local = np.random.default_rng(37)
    for _ in range(100):
        params = [local.uniform(lo, hi) for lo, hi in ranges]
        sig, former = signals.sinusoid(*params), _former_sinusoid(*params)
        times = local.uniform(0.0, span, 100)
        by_array = sig(times)
        for k, t in enumerate(times):
            scalar = sig(float(t))
            assert type(scalar) is float
            assert scalar == by_array[k] == sig(np.array([t]))[0] == former(t) == sig(t)
    # a float time gives a Python float, so GK15's sums stay off NumPy scalars
    assert type(signals.sinusoid(0.18, 1.01, 0.3, 0.05)(0.3)) is float


def test_sinusoid_keeps_its_values_for_every_parameter_and_time_type():
    f32 = np.float32
    # real parameters at a float time: math.sin, and the same value
    math_cases = [
        ((2, 3, 1, -1), 0.3),
        ((np.float64(0.2), np.float64(1.1), np.float64(0.4), np.float64(0.01)), 0.3),
        ((0.2, 1.1), np.float64(0.3)),
        ((0.2, 1.1), np.nan),
    ]
    # any other parameter or time: np.sin, and the same value and type
    numpy_cases = [
        ((0.2, 1.1), 2),
        ((0.2, 1.1), f32(0.3)),
        ((0.2 + 0.1j, 1.1, 0.4), 0.3),
        ((0.2, 1.1 + 0.01j), 0.3),
        ((0.2, 1.1, 0.4j), 0.3),
        ((0.2, 1.1, 0.4, 0.01j), 0.3),
        ((f32(0.2), f32(1.1), f32(0.4), f32(0.01)), 0.3),
        ((f32(0.2), 1.1), 0.3),
        ((0.2, np.int64(3)), 0.3),
        ((np.array([0.2, 0.3]), 1.1), 0.3),
        ((np.array(0.2), 1.1), 0.3),
    ]
    for params, t in math_cases + numpy_cases:
        new, old = signals.sinusoid(*params)(t), _former_sinusoid(*params)(t)
        assert _bits(new) == _bits(old), (params, t)
    for params, t in numpy_cases:
        assert type(signals.sinusoid(*params)(t)) is type(_former_sinusoid(*params)(t)), (params, t)
    # an infinite argument reads NaN with NumPy's warning, as before
    for t in (10.0, np.float64(10.0)):
        with pytest.warns(RuntimeWarning):
            assert np.isnan(signals.sinusoid(1.0, 1e308)(t))
