import functools
import math
import warnings

import numpy as np
import pytest

from posqubit import qcore
from posqubit.errors import BasisMismatchError, NonHermitianError
from posqubit.qcore import (
    ENERGY,
    HBAR,
    POSITION,
    StateVector,
    _entries,
    _entry_product,
    build_hn,
    eig_hermitian,
    evolve_rk4,
    evolve_steps,
    fix_phase,
    matexp_unitary,
    propagate,
    require_hermitian,
    rk4_step,
    rk4_step_operators,
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


def test_statevector_basics():
    s = StateVector(np.array([3.0, 4.0]))
    assert s.basis == POSITION
    assert s.dim == 2
    assert abs(s.norm() - 5.0) < 1e-15
    assert abs(s.normalized().norm() - 1.0) < 1e-15
    with pytest.raises(BasisMismatchError):
        s.require_basis(ENERGY)
    with pytest.raises(BasisMismatchError):
        StateVector(np.array([1.0]), basis="momentum")
    with pytest.raises(ValueError):
        StateVector(np.zeros((2, 2)))


def _symmetric_decoherence_hamiltonian():
    """H0 + Hdec of the symmetric decoherence case: equal qubits and equal
    node distances leave the middle pair of levels degenerate."""
    import posqubit.decoherence as dec
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
        states = propagate(h, psi0, times)
        densities = propagate(h, rho0, times, density=True)
        assert states.shape == (5, 4) and densities.shape == (5, 4, 4)
        for t, psi, rho in zip(times, states, densities):
            u = sla.expm(-1j * h * t / HBAR)
            assert np.max(np.abs(psi - u @ psi0)) <= 1e-12
            assert np.max(np.abs(rho - u @ rho0 @ u.conj().T)) <= 1e-12
    # a real matrix takes the real eigh; the complex copy of it, the complex one
    psi0 = rng.normal(size=4) + 1j * rng.normal(size=4)
    real_states = propagate(real_symmetric, psi0, times)
    assert np.max(np.abs(real_states - propagate(real_symmetric.astype(complex), psi0, times))) <= 1e-12
    # and with one initial state per sample
    local = np.random.default_rng(5)  # leaves the module's generator to the other tests
    psi0s = local.normal(size=(5, 4)) + 1j * local.normal(size=(5, 4))
    for t, psi, start in zip(times, propagate(real_symmetric, psi0s, times), psi0s):
        assert np.max(np.abs(psi - sla.expm(-1j * real_symmetric * t / HBAR) @ start)) <= 1e-12
    with pytest.raises(NonHermitianError):
        propagate(np.array([[0.0, 1.0], [0.0, 0.0]]), np.ones(2), times)


def _density_by_broadcast(h, rho0, times):
    """The back-rotation that propagate(density=True) replaced: V rho_E V^dag
    as (n_times, n, n) broadcast matrix products, one per sample."""
    energies, vectors = np.linalg.eigh(require_hermitian(h))
    phases = np.exp(-1j * np.multiply.outer(times, energies) / HBAR)
    vh = vectors.conj().T
    rho_e = phases[:, :, None] * phases[:, None, :].conj() * (vh @ np.asarray(rho0, dtype=complex) @ vectors)
    return vectors @ rho_e @ vh


@pytest.mark.parametrize("n", [2, 4, 8])
def test_density_back_rotation_matches_broadcast_and_expm(n):
    import scipy.linalg as sla

    local = np.random.default_rng(40 + n)  # leaves the module's generator to the other tests
    m = local.normal(size=(n, n)) + 1j * local.normal(size=(n, n))
    hs = [0.5 * (m + m.conj().T), 0.5 * (m.real + m.real.T)]
    if n == 4:
        hs.append(_symmetric_decoherence_hamiltonian())
    times = np.array([0.0, 0.013, 0.37, 1.0, 7.5])
    psi = local.normal(size=(len(times) + 1, n)) + 1j * local.normal(size=(len(times) + 1, n))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    single = np.outer(psi[0], psi[0].conj())
    stack = psi[1:, :, None] * psi[1:, None, :].conj()  # one initial density per sample
    for h in hs:
        for rho0 in (single, stack):
            out = propagate(h, rho0, times, density=True)
            assert out.shape == (len(times), n, n)
            assert np.max(np.abs(out - _density_by_broadcast(h, rho0, times))) <= 1e-12
            for t, rho, start in zip(times, out, np.broadcast_to(rho0, out.shape)):
                u = sla.expm(-1j * h * t / HBAR)
                assert np.max(np.abs(rho - u @ start @ u.conj().T)) <= 1e-12


@pytest.mark.parametrize("paper_factorized", [False, True])
def test_evolve_density_with_decoherence_matches_broadcast(paper_factorized):
    import posqubit.decoherence as dec

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
        # the diagonal phase first, then the off-diagonal decoherence part
        d = np.exp(-1j * np.multiply.outer(spans, np.real(np.diag(h0) + np.diag(hdec))) / HBAR)
        phased = rho0 * d[:, :, None] * d[:, None, :].conj()
        old = _density_by_broadcast(hdec - np.diag(np.diag(hdec)), phased, spans)
    else:
        old = _density_by_broadcast(h0 + hdec, rho0, spans)
    assert np.max(np.abs(out - old)) <= 1e-12


def test_density_propagation_peak_memory_is_bounded_by_its_output():
    import tracemalloc

    local = np.random.default_rng(53)
    m = local.normal(size=(4, 4)) + 1j * local.normal(size=(4, 4))
    h = 0.5 * (m + m.conj().T)
    rho0 = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    times = np.linspace(0.0, 20.0, 2001)
    propagate(h, rho0, times[:3], density=True)  # first-call caches stay out of the peak
    tracemalloc.start()
    try:
        out = propagate(h, rho0, times, density=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (2001, 4, 4)
    assert peak <= 2.5 * out.nbytes


def test_rk4_step_operators_match_rk4_step():
    # M y equals one rk4_step of y for a time-dependent H, for 2x2 and 3x3
    for n in (2, 3):
        a, b = random_hermitian(n), random_hermitian(n)

        def h_of_t(t):
            return a + np.sin(1.3 * t) * b

        starts, dt = np.linspace(0.0, 2.0, 9), 0.05
        stages = [np.array([h_of_t(t) for t in starts + off]) for off in (0.0, 0.5 * dt, dt)]
        steps = rk4_step_operators(*stages, dt)
        for t, m in zip(starts, steps):
            y = rng.normal(size=n) + 1j * rng.normal(size=n)
            expected = rk4_step(lambda tp, yp: -1j / HBAR * (h_of_t(tp) @ yp), t, y, dt)
            assert np.max(np.abs(m @ y - expected)) < 1e-14


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


# The former stage products of rk4_step_operators, its bit-for-bit oracle.
def _matmul_oracle(a, b):
    out = np.empty(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1]), dtype=complex)
    for i in range(a.shape[-2]):
        out[..., i, :] = sum(a[..., i, k, None] * b[..., k, :] for k in range(a.shape[-1]))
    return out


def _rk4_step_operators_oracle(h_start, h_mid, h_end, dt):
    eye = np.eye(h_start.shape[-1])
    k1, b2, b3 = ((-1j * dt / HBAR) * h for h in (h_start, h_mid, h_end))
    k2 = _matmul_oracle(b2, eye + 0.5 * k1)
    k3 = _matmul_oracle(b2, eye + 0.5 * k2)
    k4 = _matmul_oracle(b3, eye + k3)
    return eye + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


@pytest.mark.parametrize("n", [2, 3])
def test_rk4_step_operators_match_their_former_form_bit_for_bit(n):
    def hermitian_stack(shape):
        m = rng.normal(size=shape + (n, n)) + 1j * rng.normal(size=shape + (n, n))
        return 0.5 * (m + np.swapaxes(m, -1, -2).conj())

    # one stack, real and complex; stacks that broadcast against each other
    for shapes in [((40,),) * 3, ((4, 1), (5,), ()), ((), (), (3, 2)), ((6,), (1,), (6,))]:
        for real in (False, True):
            hs = [hermitian_stack(shape) for shape in shapes]
            if real:
                hs = [h.real for h in hs]
            for dt in (0.01, 0.7):
                got, want = rk4_step_operators(*hs, dt), _rk4_step_operators_oracle(*hs, dt)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.ascontiguousarray(got).tobytes() == want.tobytes()
