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
