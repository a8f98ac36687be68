import functools
import math
import warnings

import numpy as np
import pytest

import posqubit.decoherence as dec
from posqubit import qcore
from posqubit.errors import NonHermitianError
from posqubit.qcore import (
    GAUSS_NODES,
    HBAR,
    _entries,
    _entry_product,
    body_populations,
    build_hn,
    eig_hermitian,
    evolve_rk4,
    evolve_steps,
    fix_phase,
    magnus4_step_operators,
    matexp_unitary,
    propagate,
    require_hermitian,
    rk4_step,
    su2_step_operators,
)

rng = np.random.default_rng(101)


def random_hermitian(n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (m + m.conj().T)


def test_require_hermitian_accepts_and_rejects():
    h = random_hermitian(3)
    assert np.allclose(require_hermitian(h), h)
    bad = h.copy()
    bad[0, 1] += 1e-6
    with pytest.raises(NonHermitianError):
        require_hermitian(bad)
    with pytest.raises(NonHermitianError):
        require_hermitian(np.ones((2, 3)))


def test_require_hermitian_keeps_real_floating_input_real():
    sym = random_hermitian(3).real
    assert require_hermitian(sym).dtype == np.float64
    assert require_hermitian(sym.astype(np.float32)).dtype == np.float64
    # the dtype decides, not the values: a zero imaginary part stays complex
    assert require_hermitian(sym.astype(complex)).dtype == np.complex128
    assert require_hermitian(np.eye(2, dtype=int)).dtype == np.complex128
    assert require_hermitian([[0, 1], [1, 0]]).dtype == np.complex128
    with pytest.raises(NonHermitianError):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_fix_phase_makes_pivot_real_positive():
    v = np.array([0.3 * np.exp(1j * 0.7), -0.9 * np.exp(1j * 2.1)])
    w = fix_phase(v)
    piv = w[np.argmax(np.abs(w))]
    assert abs(piv.imag) < 1e-15 and piv.real > 0
    assert np.allclose(np.abs(w), np.abs(v))


def test_eig_hermitian_matches_numpy_and_is_deterministic():
    for _ in range(20):
        h = random_hermitian(4)
        e, v = eig_hermitian(h)
        assert np.all(np.diff(e) >= -1e-12)
        for k in range(4):
            assert np.allclose(h @ v[:, k], e[k] * v[:, k], atol=1e-10)
        e2, v2 = eig_hermitian(h)
        assert np.array_equal(v, v2)


def test_fix_phase_pivot_is_the_first_largest_component():
    """The phase convention on its own: only the global phase changes, and
    the pivot, the lowest index whose magnitude is within 1e-15 of the
    largest, comes out real and positive.  eig_hermitian's columns follow it."""
    gen = np.random.default_rng(1216)
    ties = [[0.5, -0.5, 0.5j, -0.5j], [0.6, 0.8j, -0.8], [0.3, -0.8j, 0.8j], [0.7j - 5e-16j, 0.3, -0.7]]
    for vec in ties + list(gen.normal(size=(50, 4)) + 1j * gen.normal(size=(50, 4))):
        vec = np.array(vec, dtype=complex)
        mags = np.abs(vec)
        pivot = int(np.flatnonzero(mags > mags.max() - 1e-15)[0])
        out = fix_phase(vec)
        phase = out[pivot] / vec[pivot]
        assert abs(abs(phase) - 1.0) <= 1e-15 and np.max(np.abs(out - phase * vec)) <= 1e-15
        assert out[pivot].real > 0.0 and abs(out[pivot].imag) <= 1e-15 * out[pivot].real
    # tied components in every eigenvector: the first of each tie is the pivot
    for h in ([[0.0, 1.0], [1.0, 0.0]], [[0.0, 1j], [-1j, 0.0]], np.ones((3, 3)) - np.eye(3)):
        _, vectors = eig_hermitian(h)
        for column in vectors.T:
            mags = np.abs(column)
            first = column[np.flatnonzero(mags > mags.max() - 1e-15)[0]]
            assert first.real > 0.0 and abs(first.imag) <= 1e-15


# The kernels' former per-call bodies, the oracle their rewrite must match bit for bit.
def _require_hermitian_oracle(h, tol=qcore.HERMITICITY_TOL):
    h = np.asarray(h)
    h = h.astype(float if h.dtype.kind == "f" else complex, copy=False)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise NonHermitianError(f"expected a square matrix, got shape {h.shape}")
    defect = np.max(np.abs(h - h.conj().T))
    if defect > tol:
        raise NonHermitianError(f"hermiticity defect {defect:.3e} exceeds {tol:.3e}")
    return h


def _fix_phase_oracle(vec):
    vec = np.asarray(vec, dtype=complex)
    idx = int(np.argmax(np.abs(vec) > np.max(np.abs(vec)) - 1e-15))
    pivot = vec[idx]
    if abs(pivot) == 0.0:
        return vec.copy()
    return vec * (abs(pivot) / pivot)


def _eig_hermitian_oracle(h):
    h = _require_hermitian_oracle(h)
    energies, vectors = np.linalg.eigh(h)
    vectors = np.column_stack([_fix_phase_oracle(vectors[:, k]) for k in range(vectors.shape[1])])
    return energies, vectors


def assert_same_bytes(a, b):
    """Equal dtype, shape, memory layout and bytes, NaN bit patterns included."""
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.flags.c_contiguous == b.flags.c_contiguous
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("real", [False, True])
def test_eig_hermitian_matches_its_oracle_bit_for_bit(n, real):
    """Guards ``_eig_hermitian_oracle`` (via ``_fix_phase_oracle`` and
    ``_require_hermitian_oracle``): the eigenvector phase convention and the
    real/complex dtype path.  test_fix_phase_pivot_is_the_first_largest_component
    and test_eig_hermitian_matches_numpy_and_is_deterministic check them."""
    gen = np.random.default_rng(1200 + n)
    matrices = [np.eye(n), np.diag(np.repeat([0.5, -0.25], n // 2))]
    if n == 4:
        matrices.append(_symmetric_decoherence_hamiltonian())
    for _ in range(200):
        m = gen.normal(size=(n, n)) + (0.0 if real else 1j * gen.normal(size=(n, n)))
        matrices.append(0.5 * (m + m.conj().T))
    for h in matrices:
        h = h.real if real else h
        assert_same_bytes(require_hermitian(h), _require_hermitian_oracle(h))
        (e, v), (e0, v0) = eig_hermitian(h), _eig_hermitian_oracle(h)
        assert_same_bytes(e, e0)
        assert_same_bytes(v, v0)
        dt = gen.normal()
        assert_same_bytes(matexp_unitary(h, dt), (v0 * np.exp(-1j * e0 * dt / HBAR)) @ v0.conj().T)


def test_fix_phase_matches_its_oracle_bit_for_bit():
    """Guards ``_fix_phase_oracle``: the pivot tie-break, and index 0 for a
    NaN or infinite vector.  test_fix_phase_pivot_is_the_first_largest_component
    states the convention for finite vectors."""
    nan, inf = float("nan"), float("inf")
    vectors = [
        [0.5, -0.5, 0.5j, -0.5j],  # exact four-way tie
        [0.6, 0.8j, -0.8],  # exact tie after the first entry
        [0.7j - 5e-16j, 0.3, -0.7],  # within 1e-15 of the largest: index 0 wins
        [0.7j - 3e-15j, 0.3, -0.7],  # just outside: index 2 wins
        [16.0j, 16.0, 1.0],  # so large that max - 1e-15 == max: index 0
        [0.0, 0.0, 0.0, 0.0],
        [-2.0j],
        [0.5j, nan, 1.0],  # a NaN not first: index 0, not the 1.0
        [nan, 1.0j],
        [1.0j, complex(0.3, nan)],
        [0.2j, inf, 0.1],
        [inf, 1.0],
    ]
    gen = np.random.default_rng(1215)
    for n in range(1, 9):
        vectors += list(gen.normal(size=(20, n)) + 1j * gen.normal(size=(20, n)))
    for vec in vectors:
        vec = np.array(vec, dtype=complex)
        with np.errstate(invalid="ignore"):  # the NaN and inf vectors
            assert_same_bytes(fix_phase(vec), _fix_phase_oracle(vec))
    with np.errstate(invalid="ignore"):
        assert fix_phase(np.array([0.5j, nan, 1.0]))[0] == 0.5


def test_kernels_keep_the_dtype_contract():
    """Guards ``_require_hermitian_oracle`` and ``_eig_hermitian_oracle`` on
    every input dtype: real floating stays float64, all else becomes complex
    (test_require_hermitian_keeps_real_floating_input_real states it)."""
    sym = random_hermitian(3).real
    inputs = [
        sym,
        sym.astype(np.float32),
        random_hermitian(3).astype(np.complex64),
        np.eye(3, dtype=int),
        [[0, 1], [1, 0]],
        [[0.5, 1.0], [1.0, -0.5]],
        [[0.5, 1j], [-1j, -0.5]],
    ]
    for h in inputs:
        assert_same_bytes(require_hermitian(h), _require_hermitian_oracle(h))
        for got, want in zip(eig_hermitian(h), _eig_hermitian_oracle(h)):
            assert_same_bytes(got, want)
        vec = np.asarray(h)[0]
        assert_same_bytes(fix_phase(vec), _fix_phase_oracle(vec))
        assert_same_bytes(fix_phase(vec.tolist()), _fix_phase_oracle(vec.tolist()))
    h = np.array([[0.5, 1j], [-1j, -0.5]])
    assert require_hermitian(h) is h  # no copy when the dtype already fits


def test_non_finite_matrix_is_rejected_without_a_warning():
    nan, inf = float("nan"), float("inf")
    bad = [
        [[inf, 0.1], [0.1, 0.0]],
        [[0.0, inf], [inf, 0.0]],
        [[0.0, nan], [nan, 0.0]],
        [[nan, 0.0], [0.0, 1.0]],
        [[0.0, complex(1.0, inf)], [complex(1.0, -inf), 0.0]],
    ]
    for h in bad:
        for dtype in (float, complex):
            if dtype is float and np.iscomplexobj(np.array(h)):
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonHermitianError, match="non-finite"):
                    require_hermitian(np.array(h, dtype=dtype))
                with pytest.raises(NonHermitianError, match="non-finite"):
                    eig_hermitian(np.array(h, dtype=dtype))


def test_matexp_unitary_is_unitary_and_matches_series():
    h = random_hermitian(3)
    dt = 0.37
    u = matexp_unitary(h, dt)
    assert np.allclose(u.conj().T @ u, np.eye(3), atol=1e-12)
    # compare against scipy-free scaling and squaring via numpy on a small step
    import scipy.linalg as sla

    assert np.allclose(u, sla.expm(-1j * h * dt / HBAR), atol=1e-12)


def test_rk4_step_scalar_exponential_order():
    # dy/dt = -y, one step error should scale like dt^5
    f = lambda t, y: -y
    errs = []
    for dt in (0.1, 0.05):
        y = rk4_step(f, 0.0, np.array([1.0]), dt)
        errs.append(abs(y[0] - np.exp(-dt)))
    assert errs[1] < errs[0] / 20.0


def test_evolve_rk4_phase_accuracy():
    h = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    psi = evolve_rk4(lambda t: h, np.array([1.0, 1.0]) / np.sqrt(2), 0.0, 2.0, 1e-3)
    exact = np.array([np.exp(-2j), np.exp(2j)]) / np.sqrt(2)
    assert np.max(np.abs(psi - exact)) < 1e-10


def test_evolve_rk4_partial_final_step():
    h = np.array([[1.0]], dtype=complex)
    psi = evolve_rk4(lambda t: h, np.array([1.0]), 0.0, 0.2501, 1e-1)
    assert abs(psi[0] - np.exp(-1j * 0.2501)) < 1e-6


def test_build_hn_is_the_kronecker_sum_plus_the_pair_diagonal():
    eye = np.eye(2)
    for n in (1, 2, 3):
        bodies = [random_hermitian(2) for _ in range(n)]
        pairs = {(k, l): rng.normal(size=(2, 2)) for k in range(n) for l in range(k + 1, n)}
        expected = np.zeros((2**n, 2**n), dtype=complex)
        for k, body in enumerate(bodies):
            factors = [eye] * n
            factors[k] = body
            expected += functools.reduce(np.kron, factors)
        # the node-diagonal pair terms: body 0 is the most significant bit
        bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
        for (k, l), c in pairs.items():
            expected += np.diag(c[bits[:, k], bits[:, l]])
        h = build_hn([b.tolist() for b in bodies], {key: c.tolist() for key, c in pairs.items()})
        assert h.dtype == complex and h.shape == expected.shape
        assert np.max(np.abs(h - expected)) < 1e-14
        # off the diagonal every entry is copied, not summed
        off = ~np.eye(2**n, dtype=bool)
        assert np.array_equal(h[off], expected[off])


def _symmetric_decoherence_hamiltonian():
    """H0 + Hdec of the symmetric decoherence case: equal qubits and equal
    node distances leave the middle pair of levels degenerate."""
    import posqubit.single_qubit as sq

    co = sq.eigencoeffs(sq.QubitParams(0.0, 0.0, 1.0, 0.0), 0.0)
    hdec = dec.decoherence_matrix(
        dec.QubitEnergyBasis(co, co), dec.NodeDistances(1.0, 1.0, 1.0, 1.0), 0.5
    )
    symmetric = dec.build_h0_resonant(co.e1, co.e2, co.e1, co.e2, 0.0, 0.0, 0.0) + hdec
    assert np.min(np.diff(np.linalg.eigvalsh(symmetric))) < 1e-12
    return symmetric


def test_propagate_matches_expm_at_every_sample():
    import scipy.linalg as sla

    symmetric = _symmetric_decoherence_hamiltonian()
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    rotated = q @ symmetric @ q.conj().T
    times = np.array([0.0, 0.013, 0.37, 1.0, 7.5])
    real_symmetric = random_hermitian(4).real
    for h in (random_hermitian(4), symmetric, 0.5 * (rotated + rotated.conj().T), real_symmetric):
        psi0 = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi0 /= np.linalg.norm(psi0)
        rho0 = np.outer(psi0, psi0.conj())
        states = propagate(h, psi0, 1.0, times)
        # a density evolves as U rho0 U^dag from the propagated basis states
        densities = dec.evolve_density_with_decoherence(rho0, h, 0 * h, 0.0, times)
        assert states.shape == (5, 4) and densities.shape == (5, 4, 4)
        for t, psi, rho in zip(times, states, densities):
            u = sla.expm(-1j * h * t / HBAR)
            assert np.max(np.abs(psi - u @ psi0)) <= 1e-12
            assert np.max(np.abs(rho - u @ rho0 @ u.conj().T)) <= 1e-12
    # a real matrix takes the real eigh; the complex copy of it, the complex one
    psi0 = rng.normal(size=4) + 1j * rng.normal(size=4)
    real_states = propagate(real_symmetric, psi0, 1.0, times)
    assert np.max(np.abs(real_states - propagate(real_symmetric.astype(complex), psi0, 1.0, times))) <= 1e-12
    # and with one initial state per sample
    local = np.random.default_rng(5)  # leaves the module's generator to the other tests
    psi0s = local.normal(size=(5, 4)) + 1j * local.normal(size=(5, 4))
    for t, psi, start in zip(times, propagate(real_symmetric, psi0s, 1.0, times), psi0s):
        assert np.max(np.abs(psi - sla.expm(-1j * real_symmetric * t / HBAR) @ start)) <= 1e-12
    with pytest.raises(NonHermitianError):
        propagate(np.array([[0.0, 1.0], [0.0, 0.0]]), np.ones(2), 1.0, times)


def _former_propagate(h, y0, times):
    """propagate as written before it handed its eigendecomposition to propagate_eigen."""
    h = require_hermitian(h)
    energies, vectors = np.linalg.eigh(h)
    times = np.asarray(times, dtype=float)
    phases = np.exp(-1j * np.multiply.outer(times, energies) / HBAR)
    y0 = np.asarray(y0, dtype=complex)
    vh = vectors.conj().T
    coeffs = phases * (y0 @ vh.T)
    if vectors.dtype.kind == "f":
        out = np.empty(coeffs.shape, dtype=complex)
        out.real = coeffs.real @ vectors.T
        out.imag = coeffs.imag @ vectors.T
        return out
    return coeffs @ vectors.T


@pytest.mark.parametrize("n", [1, 2, 4, 8, 48])
def test_propagate_matches_its_former_body_bit_for_bit(n):
    """Guards ``_former_propagate``: real H takes two real products with V,
    complex H one complex product.  The values are checked against expm in
    test_propagate_matches_expm_at_every_sample."""
    local = np.random.default_rng(70 + n)  # leaves the module's generator to the other tests
    times = np.concatenate([[0.0, -0.0], local.uniform(-5.0, 5.0, size=9)])
    for trial in range(20):
        m = local.normal(size=(n, n)) + 1j * local.normal(size=(n, n))
        h = 0.5 * (m + m.conj().T) if trial % 2 else 0.5 * (m.real + m.real.T)
        psi = local.normal(size=(len(times), n)) + 1j * local.normal(size=(len(times), n))
        for y0, ts in [(psi[0], times), (psi, times), (psi[0].real, times[3]), (psi[0].tolist(), times[:1])]:
            got = propagate(h, y0, 1.0, ts)
            ref = _former_propagate(h, y0, ts)
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [1, 2, 4, 8])
@pytest.mark.parametrize("real", [False, True])
def test_a_stack_of_starts_equals_separate_propagate_calls_byte_for_byte(n, real):
    local = np.random.default_rng(90 + n)  # leaves the module's generator to the other tests
    times = np.concatenate([[0.0, -0.0], local.uniform(-5.0, 5.0, size=40)])
    m = local.normal(size=(n, n)) + 1j * local.normal(size=(n, n))
    h = 0.5 * (m.real + m.real.T) if real else 0.5 * (m + m.conj().T)
    starts = local.normal(size=(3, n)) + 1j * local.normal(size=(3, n))
    for stack in (starts, np.eye(n)):
        out = propagate(h, stack[:, None], 1.0, times)
        assert out.shape == (len(stack), len(times), n) and out.dtype == complex
        for got, start in zip(out, stack):
            assert got.tobytes() == propagate(h, start, 1.0, times).tobytes()


def _step_grids():
    """Integer sample grids: contiguous and a stride with gcd > 1 (the
    tables' outer product), a last step off the stride and unsorted,
    negative steps (both the direct form), a single sample (too few for
    tables) and k_max at MAX_STEPS."""
    from posqubit.cli import MAX_STEPS

    return {
        "contiguous": np.arange(2001),
        "gcd 10": np.arange(0, 2001, 10),
        "off the stride": np.append(np.arange(0, 2000, 3), 2000),
        "unsorted, negative": np.random.default_rng(140).permutation(np.arange(-600, 1400))[:900],
        "single": np.array([0]),
        "MAX_STEPS, gcd 8": np.arange(0, MAX_STEPS + 1, 8),
        "MAX_STEPS off the stride": np.append(np.arange(0, MAX_STEPS, 7), MAX_STEPS),
    }


# 45 and 46 levels fall on either side of the single-state GEMM's level
# bound on the 2001-sample grid, whose tables have 45 coarse rows
@pytest.mark.parametrize("n", [1, 2, 4, 45, 46, 48])
@pytest.mark.parametrize("real", [False, True])
def test_integer_steps_match_the_former_body_and_expm(n, real):
    """Integer steps take the phase tables of ``_grid_phases``, and one start
    with no more levels than coarse rows the GEMM of ``propagate_eigen``; the
    former body at the float times dt * steps is their oracle, elementwise
    within 4 eps (1 + max|E| t_max), and so are the phases themselves
    against one exponential per sample.  expm checks the first samples of
    each grid."""
    import scipy.linalg as sla

    local = np.random.default_rng(130 + n)  # leaves the module's generator to the other tests
    m = local.normal(size=(n, n)) + 1j * local.normal(size=(n, n))
    h = 0.5 * (m.real + m.real.T) if real else 0.5 * (m + m.conj().T)
    energies = np.linalg.eigvalsh(h)
    y0 = local.normal(size=n) + 1j * local.normal(size=n)
    y0 /= np.linalg.norm(y0)
    eps = np.finfo(float).eps
    for name, steps in _step_grids().items():
        for dt in (0.01, 0.37):
            times = dt * steps
            bound = 4 * eps * (1 + np.max(np.abs(energies)) * np.max(np.abs(times)))
            phases = qcore._grid_phases(energies, dt, steps)
            assert phases.shape == (steps.size, n)
            assert np.max(np.abs(phases - np.exp(-1j * np.multiply.outer(times, energies) / HBAR))) <= bound, name
            got = propagate(h, y0, dt, steps)
            assert got.shape == (steps.size, n) and got.dtype == complex
            assert np.max(np.abs(got - _former_propagate(h, y0, times))) <= bound, name
            for t, psi in list(zip(times, got))[:3]:
                assert np.max(np.abs(psi - sla.expm(-1j * h * t / HBAR) @ y0)) <= 1e-12 * (1 + abs(t)), name


def test_integer_steps_form_square_root_many_exponentials(monkeypatch):
    """The tables take b + k_max / (g b) exponentials per level, b about
    sqrt(k_max / g): 90 rows for 2001 contiguous samples, not 2001."""
    exp = np.exp
    rows = []

    def counting(x, *args, **kwargs):
        rows.append(np.shape(x)[0] if np.ndim(x) else 1)
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting)
    energies = np.array([-1.5, 0.2, 0.9])
    for steps, expected in ((np.arange(2001), 45 + 45), (np.arange(0, 8001, 4), 45 + 45), (np.arange(8001), 90 + 89)):
        rows.clear()
        phases = qcore._grid_phases(energies, 0.01, steps)
        assert phases.shape == (steps.size, 3) and sum(rows) == expected
    # not 0, g, 2g, ...: one exponential per sample
    for steps in (np.array([0, 1, 10**9]), np.append(np.arange(0, 2000, 10), 2001), np.arange(1, 2001)):
        rows.clear()
        qcore._grid_phases(energies, 0.01, steps)
        assert rows == [steps.size]


def test_the_tables_apply_where_the_gcd_of_the_steps_found_a_grid(monkeypatch):
    """The grid spacing is read off the second step.  The tables apply to the
    same grids as under the former rule, where g was the gcd of the steps:
    a grid 0, g, 2g, ... with g > 0, long enough to save exponentials.
    0, -g, -2g, ..., grids off 0, all-zero steps and near-grids keep the
    direct form, one exponential per sample."""
    exp = np.exp
    calls = []

    def counting(x, *args, **kwargs):
        calls.append(np.shape(x)[0] if np.ndim(x) else 1)
        return exp(x, *args, **kwargs)

    def former_takes_tables(m):
        g = int(np.gcd.reduce(m)) or 1
        b = math.isqrt(m.size - 1) + 1
        return b + (m.size - 1) // b + 1 < m.size and np.array_equal(m, g * np.arange(m.size))

    monkeypatch.setattr(np, "exp", counting)
    energies = np.array([-1.5, 0.2, 0.9])
    grids = list(_step_grids().values()) + [
        -np.arange(2001),
        -np.arange(0, 2001, 10),
        np.arange(1, 2002),
        np.arange(5, 2005, 5),
        np.zeros(50, dtype=int),
        np.append([0, 0], np.arange(1, 100)),
        np.append(np.arange(0, 300, 3), 301),
        np.array([0, 6, 12, 18, 24, 27]),
        np.arange(0, 40, 4),
        np.arange(0, 4, 2),
        np.arange(2),
        np.arange(0, 2001, 7).astype(np.uint16),
        np.arange(0, 2001, 7).reshape(-1, 11),
    ]
    for steps in grids:
        calls.clear()
        qcore._grid_phases(energies, 0.01, steps)
        assert (calls != [steps.size]) == former_takes_tables(steps.astype(np.int64).ravel()), steps[:4]


def _density_by_broadcast(h, rho0, times):
    """The back-rotation V rho_E V^dag with rho_E = V^dag rho0 V o e^{-i(E_j - E_k)t},
    as (n_times, n, n) broadcast matrix products, one per sample."""
    energies, vectors = np.linalg.eigh(require_hermitian(h))
    phases = np.exp(-1j * np.multiply.outer(times, energies) / HBAR)
    vh = vectors.conj().T
    rho_e = phases[:, :, None] * phases[:, None, :].conj() * (vh @ np.asarray(rho0, dtype=complex) @ vectors)
    return vectors @ rho_e @ vh


@pytest.mark.parametrize("n", [4])
def test_density_back_rotation_matches_broadcast_and_expm(n):
    """Guards ``_density_by_broadcast``, the eigenbasis form of rho(t), on
    complex, real and degenerate H; expm checks the same samples."""
    import scipy.linalg as sla

    local = np.random.default_rng(40 + n)  # leaves the module's generator to the other tests
    m = local.normal(size=(n, n)) + 1j * local.normal(size=(n, n))
    hs = [0.5 * (m + m.conj().T), 0.5 * (m.real + m.real.T), _symmetric_decoherence_hamiltonian()]
    times = np.array([0.0, 0.013, 0.37, 1.0, 7.5])
    psi = local.normal(size=(3, n)) + 1j * local.normal(size=(3, n))
    weights = np.array([0.5, 0.3, 0.2])
    mixed = np.einsum("k,ki,kj->ij", weights, psi, psi.conj()) / np.sum(weights * np.sum(np.abs(psi) ** 2, axis=1))
    for h in hs:
        for rho0 in (np.outer(psi[0], psi[0].conj()) / np.vdot(psi[0], psi[0]).real, mixed):
            out = dec.evolve_density_with_decoherence(rho0, h, 0 * h, 0.0, times)
            assert out.shape == (len(times), n, n)
            assert np.max(np.abs(out - _density_by_broadcast(h, rho0, times))) <= 1e-12
            for t, rho in zip(times, out):
                u = sla.expm(-1j * h * t / HBAR)
                assert np.max(np.abs(rho - u @ rho0 @ u.conj().T)) <= 1e-12


@pytest.mark.parametrize("paper_factorized", [False, True])
def test_evolve_density_with_decoherence_matches_broadcast(paper_factorized):
    """Guards ``_density_by_broadcast`` for both splits, the diagonal phase
    D rho0 D^dag first under ``paper_factorized``; the physics of rho(t) is
    checked in tests/test_decoherence.py."""
    local = np.random.default_rng(47)
    m = local.normal(size=(4, 4)) + 1j * local.normal(size=(4, 4))
    hdec = 0.25 * (m + m.conj().T)
    h0 = dec.build_h0_resonant(-1.0, 1.0, -0.7, 0.7, 0.0, 0.0, 0.0)
    psi = local.normal(size=4) + 1j * local.normal(size=4)
    psi /= np.linalg.norm(psi)
    rho0 = np.outer(psi, psi.conj())
    t0 = 0.3
    spans = np.linspace(0.0, 5.0, 41)
    out = dec.evolve_density_with_decoherence(rho0, h0, hdec, t0, t0 + spans, paper_factorized=paper_factorized)
    if paper_factorized:
        # the diagonal phase first, then the off-diagonal part of H0 + Hdec
        h = h0 + hdec
        d = np.exp(-1j * np.multiply.outer(spans, np.real(np.diag(h))) / HBAR)
        phased = rho0 * d[:, :, None] * d[:, None, :].conj()
        old = _density_by_broadcast(h - np.diag(np.diag(h)), phased, spans)
    else:
        old = _density_by_broadcast(h0 + hdec, rho0, spans)
    assert np.max(np.abs(out - old)) <= 1e-12


def test_density_propagation_peak_memory_is_bounded_by_its_output():
    import tracemalloc

    local = np.random.default_rng(53)
    m = local.normal(size=(4, 4)) + 1j * local.normal(size=(4, 4))
    hdec = 0.5 * (m + m.conj().T)
    h0 = dec.build_h0_resonant(-1.0, 1.0, -0.7, 0.7, 0.0, 0.0, 0.0)
    rho0 = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    times = np.linspace(0.0, 20.0, 2001)
    # U(t) column by column, U rho0 and the result (read 3.03x); the split
    # also holds its per-sample starts D(t) e_j while it propagates (3.54x)
    for paper_factorized, bound in ((False, 3.25), (True, 3.75)):
        # first-call caches stay out of the peak
        dec.evolve_density_with_decoherence(rho0, h0, hdec, 0.0, times[:3], paper_factorized=paper_factorized)
        tracemalloc.start()
        try:
            out = dec.evolve_density_with_decoherence(rho0, h0, hdec, 0.0, times, paper_factorized=paper_factorized)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (2001, 4, 4)
        assert peak <= bound * out.nbytes


# 4 levels, as decoherence and cnot run, and 45, the most the level bound
# admits on 2001 samples, where rhs is as large as the output
@pytest.mark.parametrize(("n", "bound"), [(4, 1.5), (45, 2.5)])
def test_single_state_propagation_peak_memory_is_bounded_by_its_output(n, bound):
    """One start on the 2001-sample grid takes the GEMM over the levels: the
    tables, rhs and the 2025-row product it slices (read 1.16x of the output
    at 4 levels, 2.07x at 45).  The product path's phase stack and
    coefficients each add one output's size (read 3.06x and 3.07x)."""
    import tracemalloc

    local = np.random.default_rng(54)
    m = local.normal(size=(n, n)) + 1j * local.normal(size=(n, n))
    energies, vectors = np.linalg.eigh(0.5 * (m + m.conj().T))
    y0 = local.normal(size=n) + 1j * local.normal(size=n)
    steps = np.arange(2001)
    qcore.propagate_eigen(energies, vectors, y0, 0.01, steps[:3])  # first-call caches stay out of the peak
    tracemalloc.start()
    try:
        out = qcore.propagate_eigen(energies, vectors, y0, 0.01, steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (2001, n)
    assert peak <= bound * out.nbytes


# The weights and nodes of the fourth-order commutator-free Magnus step,
# written out here so the tests do not read them from qcore.
_A1, _A2 = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0, (3.0 + 2.0 * math.sqrt(3.0)) / 12.0
_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)


def _hermitian_stack(shape):
    """A stack shape + (2, 2) of random Hermitian matrices."""
    m = rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))
    return 0.5 * (m + np.swapaxes(m, -1, -2).conj())


def test_magnus4_step_operators_are_products_of_two_expm_factors():
    """Each step is expm(-i dt (a1 H1 + a2 H2)) @ expm(-i dt (a2 H1 + a1 H2)),
    the factor that weights the earlier node H1 more acting first."""
    from scipy.linalg import expm

    assert np.allclose(GAUSS_NODES, _NODES, rtol=0.0, atol=1e-16)
    for shapes in [((30,), (30,)), ((4, 1), (5,)), ((), (3,))]:
        h1, h2 = (_hermitian_stack(shape) for shape in shapes)
        for dt in (1e-3, 0.1, 2.0):
            steps = magnus4_step_operators(h1, h2, dt)
            pairs = np.broadcast_arrays(h1, h2)
            assert steps.shape == pairs[0].shape
            for a, b, u in zip(*(x.reshape(-1, 2, 2) for x in (*pairs, steps))):
                want = expm(-1j * dt / HBAR * (_A1 * a + _A2 * b)) @ expm(-1j * dt / HBAR * (_A2 * a + _A1 * b))
                assert np.max(np.abs(u - want)) < 1e-13


def test_magnus4_steps_are_unitary():
    h1, h2 = _hermitian_stack((200,)), _hermitian_stack((200,))
    for dt in (1e-3, 0.3, 5.0, 40.0):
        u = magnus4_step_operators(h1, h2, dt)
        assert np.max(np.abs(u @ np.swapaxes(u, -1, -2).conj() - np.eye(2))) < 1e-14


def test_magnus4_runs_converge_at_fourth_order():
    """Halving dt cuts the error of a run 16x, against a fine evolve_rk4 run.
    A misordered product or swapped nodes leaves a second-order error."""
    a, b = random_hermitian(2), random_hermitian(2)

    def h_of_t(t):
        return a + np.sin(1.3 * np.asarray(t))[..., None, None] * b

    y0, span = np.array([0.6, 0.8j]), 4.0
    reference = evolve_rk4(h_of_t, y0, 0.0, span, span / 4000)
    errors = []
    for n_steps in (20, 40, 80):
        dt = span / n_steps
        starts = dt * np.arange(n_steps)
        states = evolve_steps(
            lambda lo, hi: magnus4_step_operators(*(h_of_t(starts[lo:hi] + c * dt) for c in GAUSS_NODES), dt),
            n_steps,
            y0,
        )
        errors.append(np.max(np.abs(states[-1] - reference)))
    assert errors[-1] < 1e-7
    for coarse, fine in zip(errors, errors[1:]):
        assert 12.0 < coarse / fine < 20.0


def test_su2_step_operators_match_expm():
    from scipy.linalg import expm

    hs = np.array([random_hermitian(2) for _ in range(20)] + [0.7 * np.eye(2), np.zeros((2, 2))])
    for dt in (1e-3, 0.1, 2.0):
        us = su2_step_operators(hs, dt)
        for h, u in zip(hs, us):
            assert np.max(np.abs(u - expm(-1j * h * dt / HBAR))) < 1e-13


def random_unitaries(n_steps, d):
    """A stack (n_steps, d, d) of random unitaries exp(-i h 0.3)."""
    m = rng.normal(size=(n_steps, d, d)) + 1j * rng.normal(size=(n_steps, d, d))
    energies, vectors = np.linalg.eigh(0.5 * (m + m.conj().transpose(0, 2, 1)))
    return (vectors * np.exp(-0.3j * energies)[:, None, :]) @ vectors.conj().transpose(0, 2, 1)


def test_evolve_steps_matches_sequential_products(monkeypatch):
    steps = np.array([matexp_unitary(random_hermitian(2), 0.3) for _ in range(37)])
    y0 = np.array([0.6, 0.8j])
    built = []

    def make_steps(lo, hi):
        built.append((lo, hi))
        return steps[lo:hi]

    states = evolve_steps(make_steps, 37, y0)
    assert built == [(0, 37)]
    y = y0
    assert states.shape == (38, 2) and np.array_equal(states[0], y0)
    for k, m in enumerate(steps):
        y = m @ y
        assert np.max(np.abs(states[k + 1] - y)) < 1e-14
    # chunks of 5 steps, the last one short, chain to the same states
    built.clear()
    monkeypatch.setattr(qcore, "STEP_CHUNK", 5)
    chunked = evolve_steps(make_steps, 37, y0)
    assert built == [(lo, min(lo + 5, 37)) for lo in range(0, 37, 5)]
    assert chunked.shape == (38, 2) and np.max(np.abs(chunked - states)) < 1e-14
    assert np.array_equal(evolve_steps(make_steps, 0, y0), y0[None])


def signed_permutations(n_steps, d):
    """A stack (n_steps, d, d) of permutation matrices with entries 1, -1, 1j, -1j.

    They do not commute, and every product of them is exact, so any
    misordered or missing step changes a state by a whole unit."""
    perms = np.array([rng.permutation(d) for _ in range(n_steps)])
    out = np.zeros((n_steps, d, d), dtype=complex)
    out[np.arange(n_steps)[:, None], np.arange(d), perms] = 1j ** rng.integers(0, 4, size=(n_steps, d))
    return out


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n_steps", [1, 2, 3, 4, 5, 8, 37, 64, 4097])
def test_pairwise_prefix_matches_sequential_products(monkeypatch, d, n_steps):
    # odd, even and power-of-two lengths at every level of the recursion;
    # 4097 steps cross the default chunk boundary with a chunk of one step
    y0 = rng.normal(size=d) + 1j * rng.normal(size=d)
    y0 /= np.linalg.norm(y0)
    exact = signed_permutations(n_steps, d)
    expected = [y0]
    for m in exact:
        expected.append(m @ expected[-1])
    states = evolve_steps(lambda lo, hi: exact[lo:hi], n_steps, y0)
    assert states.shape == (n_steps + 1, d) and np.array_equal(states, expected)
    # random unitaries against the sequential products in extended precision:
    # over 4097 steps the double sequential products drift by about 1e-14 themselves
    steps = random_unitaries(n_steps, d)
    expected = [y0.astype(np.clongdouble)]
    for m in steps.astype(np.clongdouble):
        expected.append(m @ expected[-1])
    extended = np.finfo(np.longdouble).eps < np.finfo(float).eps
    tol = 1e-14 if extended else 3e-14
    assert np.max(np.abs(evolve_steps(lambda lo, hi: steps[lo:hi], n_steps, y0) - expected)) <= tol
    if n_steps <= 64:
        monkeypatch.setattr(qcore, "STEP_CHUNK", 3)
        assert np.array_equal(evolve_steps(lambda lo, hi: exact[lo:hi], n_steps, y0), states)
        assert np.max(np.abs(evolve_steps(lambda lo, hi: steps[lo:hi], n_steps, y0) - expected)) <= tol


@pytest.mark.parametrize("n_steps", [1, 2, 3, 5, 8, 37, 64, 1000, 4096])
def test_evolve_steps_work_is_linear_in_the_steps(monkeypatch, n_steps):
    # every product the chain makes goes through _entry_product; summing the
    # stack lengths it receives counts matrix and matrix-vector products
    lengths = []
    product = qcore._entry_product

    def counting(a, b):
        lengths.append(math.prod(np.broadcast_shapes(a.shape[2:], b.shape[2:])))
        return product(a, b)

    monkeypatch.setattr(qcore, "_entry_product", counting)
    steps = random_unitaries(n_steps, 2)
    evolve_steps(lambda lo, hi: steps[lo:hi], n_steps, np.array([1.0, 0.0]))
    assert sum(lengths) <= 2 * n_steps
    assert len(lengths) <= 2 * math.ceil(math.log2(n_steps)) + 1
    # chunked, the bound holds chunk by chunk
    lengths.clear()
    monkeypatch.setattr(qcore, "STEP_CHUNK", 7)
    evolve_steps(lambda lo, hi: steps[lo:hi], n_steps, np.array([1.0, 0.0]))
    assert sum(lengths) <= 2 * n_steps


def test_matmul_follows_the_matmul_shape_rule():
    # the entry product of entry arrays is a @ b, broadcasting included
    rng = np.random.default_rng(5)
    for sa, sb in [((5, 2, 2), (2, 1)), ((5, 3, 2), (5, 2, 4)), ((2, 2), (7, 2, 3)), ((4, 1, 3, 3), (5, 3, 2))]:
        a = rng.normal(size=sa) + 1j * rng.normal(size=sa)
        b = rng.normal(size=sb) + 1j * rng.normal(size=sb)
        out = np.moveaxis(_entry_product(_entries(a), _entries(b)), (0, 1), (-2, -1))
        assert out.shape == (a @ b).shape and np.max(np.abs(out - a @ b)) < 1e-14


def test_body_populations_of_a_stack():
    gen = np.random.default_rng(2123)
    for n in range(1, 5):
        amps = gen.normal(size=(3, 5, 2**n)) + 1j * gen.normal(size=(3, 5, 2**n))
        amps /= np.linalg.norm(amps, axis=-1, keepdims=True)
        pops = body_populations(amps, n)
        assert pops.shape == (3, 5, n, 2) and pops.dtype == float
        assert np.max(np.abs(pops.sum(axis=-1) - 1.0)) < 1e-15
        # body k's populations from the amplitude grid, one axis per body
        grid = np.abs(amps.reshape((3, 5) + (2,) * n)) ** 2
        for k in range(n):
            others = tuple(2 + j for j in range(n) if j != k)
            assert np.max(np.abs(pops[..., k, :] - grid.sum(axis=others))) < 1e-15
    amps = np.array([0.6, 0.8j])
    assert body_populations(amps, 1).tolist() == [(np.abs(amps) ** 2).tolist()]
    for bad in (np.ones(3), np.ones((2, 8))):
        with pytest.raises(ValueError):
            body_populations(bad, 2)
