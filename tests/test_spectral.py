import tracemalloc

import numpy as np
import pytest

import posqubit.spectral as sp
from posqubit.errors import BasisMismatchError, GridTooCoarseError, QuadratureNotConvergedError
from posqubit.qcore import matexp_unitary

rng = np.random.default_rng(606)


# Dense oracle: the full N x N kernel mesh contracted directly.


def _dense_mesh(basis_a, basis_b, kernel, well_offset, stride=1):
    xa = basis_a.grid[::stride]
    xb = basis_b.grid[::stride] + well_offset
    return kernel(xa[:, None] - xb[None, :])


def _dense_gij(basis_a, basis_b, kernel, well_offset, stride=1):
    xa = basis_a.grid[::stride]
    xb = basis_b.grid[::stride]
    wa = sp._simpson_weights(xa.size, xa[1] - xa[0])
    wb = sp._simpson_weights(xb.size, xb[1] - xb[0])
    v = _dense_mesh(basis_a, basis_b, kernel, well_offset, stride)
    return (basis_a.functions[:, ::stride] * wa) @ v @ (basis_b.functions[:, ::stride] * wb).T


def _dense_w(basis_a, basis_b, kernel, well_offset):
    na, nb = basis_a.n_levels, basis_b.n_levels
    wa = sp._simpson_weights(basis_a.grid.size, basis_a.dx)
    wb = sp._simpson_weights(basis_b.grid.size, basis_b.dx)
    v = _dense_mesh(basis_a, basis_b, kernel, well_offset)
    pa = np.einsum("ng,sg,g->nsg", basis_a.functions, basis_a.functions, wa)
    pb = np.einsum("mh,eh,h->meh", basis_b.functions, basis_b.functions, wb)
    w = np.einsum("nsg,gh,meh->nmse", pa, v, pb, optimize=True)
    return w.reshape(na * nb, na * nb)


def _rel_dev(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


_BASES = {
    "harmonic": lambda n: sp.harmonic_basis(n, n_grid=801),
    "box": lambda n: sp.box_basis(n, width=4.0, n_grid=801),
    "numeric": lambda n: sp.numeric_basis(lambda x: 0.5 * x * x, n, -12.0, 12.0, n_grid=801),
}


@pytest.mark.parametrize("n_levels", [1, 3, 16])
@pytest.mark.parametrize("offset", [0.0, 3.0])
@pytest.mark.parametrize("kind", sorted(_BASES))
def test_convolution_matches_dense_oracle(kind, offset, n_levels):
    basis = _BASES[kind](n_levels)
    kern = sp.CoulombKernel(e2=1.0, d_reg=0.2)
    w = sp.interaction_matrix_elements(basis, basis, kern, offset)
    assert _rel_dev(w, _dense_w(basis, basis, kern, offset)) <= 1e-12
    assert np.array_equal(w, w.T)
    fine, coarse = (_dense_gij(basis, basis, kern, offset, stride) for stride in (1, 2))
    for stride, ref in ((1, fine), (2, coarse)):
        assert _rel_dev(sp._gij_on_stride(basis, basis, kern, offset, stride), ref) <= 1e-12
    # the refinement check decides as it does on the dense passes
    if np.max(np.abs(fine - coarse)) / np.max(np.abs(fine)) > 1e-6:
        with pytest.raises(QuadratureNotConvergedError):
            sp.compute_gij(basis, basis, kern, offset)
    else:
        assert _rel_dev(sp.compute_gij(basis, basis, kern, offset), fine) <= 1e-12


def test_unequal_grids_sharing_a_spacing_match_dense_oracle():
    # spacing 0.025 on both; sizes 801 and 241, origins -10 and -2.3
    wide = sp.harmonic_basis(3, half_width=10.0, n_grid=801)
    narrow = sp.box_basis(2, width=6.0, center=0.7, n_grid=241)
    kern = sp.CoulombKernel(e2=0.8, d_reg=0.2)
    for a, b in ((wide, narrow), (narrow, wide)):
        for offset in (0.0, 3.0):
            w = sp.interaction_matrix_elements(a, b, kern, offset)
            assert w.shape == (6, 6)
            assert _rel_dev(w, _dense_w(a, b, kern, offset)) <= 1e-12
            g = sp.compute_gij(a, b, kern, offset)
            assert _rel_dev(g, _dense_gij(a, b, kern, offset)) <= 1e-12


def test_mismatched_spacings_rejected():
    a = sp.harmonic_basis(2, half_width=8.0, n_grid=801)
    b = sp.harmonic_basis(2, half_width=8.0, n_grid=803)
    kern = sp.CoulombKernel(e2=1.0, d_reg=0.2)
    with pytest.raises(BasisMismatchError):
        sp.interaction_matrix_elements(a, b, kern)
    with pytest.raises(BasisMismatchError):
        sp.compute_gij(a, b, kern, 1.0)


def test_w_assembly_memory_is_linear_in_the_grid():
    # the N x N kernel mesh alone would be 2401**2 * 8 bytes = 44 MiB
    import numpy.fft  # noqa: F401  trace the assembly, not the import

    basis = sp.harmonic_basis(16, n_grid=2401)
    kern = sp.CoulombKernel(e2=1.0, d_reg=0.2)
    tracemalloc.start()
    try:
        sp.interaction_matrix_elements(basis, basis, kern, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_harmonic_basis_matches_closed_form_hermite_functions():
    from scipy.special import eval_hermite, gammaln

    from posqubit.cli import MAX_GRID

    for omega, mass, center in ((1.0, 1.0, 0.0), (2.3, 0.7, 0.4)):
        basis = sp.harmonic_basis(16, omega=omega, mass=mass, center=center, n_grid=MAX_GRID)
        sigma = 1.0 / np.sqrt(mass * omega)
        xi = (basis.grid - center) / sigma
        for n in range(16):
            lognorm = -0.5 * (n * np.log(2.0) + gammaln(n + 1.0)) - 0.25 * np.log(np.pi * sigma * sigma)
            closed = np.exp(lognorm - 0.5 * xi * xi) * eval_hermite(n, xi)
            assert np.max(np.abs(basis.functions[n] - closed)) <= 1e-12


def test_fft_length_is_the_least_5_smooth_length():
    from scipy.fft import next_fast_len

    from posqubit.cli import MAX_GRID

    for n in range(3, 2 * MAX_GRID):
        assert sp._fft_length(n) == next_fast_len(n, real=True)


def test_harmonic_basis_orthonormal_and_energies():
    basis = sp.harmonic_basis(4)
    w = sp._simpson_weights(basis.grid.size, basis.dx)
    overlap = (basis.functions * w) @ basis.functions.T
    assert np.max(np.abs(overlap - np.eye(4))) < 1e-8
    assert np.allclose(basis.energies, [0.5, 1.5, 2.5, 3.5], atol=1e-12)


def test_box_basis_orthonormal_and_energies():
    basis = sp.box_basis(3, width=2.0)
    w = sp._simpson_weights(basis.grid.size, basis.dx)
    overlap = (basis.functions * w) @ basis.functions.T
    assert np.max(np.abs(overlap - np.eye(3))) < 1e-8
    expected = (np.pi * np.arange(1, 4) / 2.0) ** 2 / 2.0
    assert np.allclose(basis.energies, expected, atol=1e-10)


def test_numeric_basis_recovers_harmonic():
    basis = sp.numeric_basis(lambda x: 0.5 * x * x, 3, -10.0, 10.0, n_grid=2001)
    assert np.max(np.abs(basis.energies - np.array([0.5, 1.5, 2.5]))) < 1e-4
    ref = sp.harmonic_basis(3, n_grid=2001, half_width=10.0)
    for n in range(3):
        dev = np.min(
            [
                np.max(np.abs(basis.functions[n] - s * ref.functions[n]))
                for s in (1.0, -1.0)
            ]
        )
        assert dev < 1e-3


def test_coulomb_kernel_regularized():
    kern = sp.CoulombKernel(e2=2.0, d_reg=0.1)
    assert abs(kern(0.0) - 2.0 / 0.1) < 1e-15
    assert abs(kern(3.0) - 2.0 / np.hypot(3.0, 0.1)) < 1e-15
    with pytest.raises(ValueError):
        sp.CoulombKernel(e2=1.0, d_reg=0.0)


def test_compute_gij_converges_and_is_symmetric_at_zero_offset():
    basis = sp.harmonic_basis(3)
    kern = sp.CoulombKernel(e2=1.0, d_reg=0.1)
    g = sp.compute_gij(basis, basis, kern, well_offset=0.0)
    assert g.shape == (3, 3)
    # swapping the two particles is a symmetry only when the wells coincide
    assert np.max(np.abs(g - g.T)) < 1e-8
    # shifted wells break the exchange symmetry
    g_off = sp.compute_gij(basis, basis, kern, well_offset=2.0)
    assert np.max(np.abs(g_off - g_off.T)) > 1e-3


def test_coarse_basis_grid_rejected():
    with pytest.raises(GridTooCoarseError):
        sp.harmonic_basis(4, n_grid=21)


def test_compute_gij_unresolved_kernel_rejected():
    basis = sp.harmonic_basis(2, n_grid=201)
    kern = sp.CoulombKernel(e2=1.0, d_reg=1e-3)
    with pytest.raises(QuadratureNotConvergedError):
        sp.compute_gij(basis, basis, kern)


def test_monopole_limit_far_separation():
    # at large well separation g00 approaches e^2 (integral of psi0)^2 / D
    basis = sp.harmonic_basis(1, half_width=8.0, n_grid=1601)
    kern = sp.CoulombKernel(e2=1.0, d_reg=0.1)
    w = sp._simpson_weights(basis.grid.size, basis.dx)
    monopole = float(np.sum(w * basis.functions[0])) ** 2
    dist = 60.0
    g = sp.compute_gij(basis, basis, kern, well_offset=dist)
    assert abs(g[0, 0] * dist - monopole) < 0.01 * monopole


def test_interaction_matrix_hermitian():
    basis = sp.harmonic_basis(3)
    kern = sp.CoulombKernel(e2=0.5, d_reg=0.1)
    w = sp.interaction_matrix_elements(basis, basis, kern)
    assert w.shape == (9, 9)
    assert np.max(np.abs(w - w.conj().T)) < 1e-10


def test_composite_hamiltonian_diagonal_part():
    basis = sp.harmonic_basis(2)
    w = np.zeros((4, 4))
    h = sp.composite_hamiltonian(basis, basis, w)
    assert h.dtype == np.float64
    assert np.allclose(np.diag(h), [1.0, 2.0, 2.0, 3.0])


def test_evolve_modes_matches_matrix_exponential():
    basis = sp.harmonic_basis(2)
    kern = sp.CoulombKernel(e2=1.0, d_reg=0.1)
    w = sp.interaction_matrix_elements(basis, basis, kern)
    h = sp.composite_hamiltonian(basis, basis, w)
    q0 = np.zeros((2, 2), dtype=complex)
    q0[0, 0] = 1.0
    series = sp.evolve_modes(q0, basis, basis, w, 0.0, np.linspace(0.0, 2.0, 21))
    final = series[-1].reshape(-1)
    exact = matexp_unitary(h, 2.0) @ q0.reshape(-1)
    assert np.max(np.abs(final - exact)) < 1e-9
    norms = np.linalg.norm(series.reshape(series.shape[0], -1), axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-10


def test_mode_energy_conserved():
    basis = sp.harmonic_basis(2)
    kern = sp.CoulombKernel(e2=1.0, d_reg=0.1)
    w = sp.interaction_matrix_elements(basis, basis, kern)
    q0 = np.array([[0.8, 0.0], [0.0, 0.6]], dtype=complex)
    series = sp.evolve_modes(q0, basis, basis, w, 0.0, np.linspace(0.0, 3.0, 11))
    energies = [sp.mode_energy(q, basis, basis, w) for q in series]
    assert np.max(np.abs(np.array(energies) - energies[0])) < 1e-10


def test_reconstruct_wavefunction_norm():
    basis = sp.harmonic_basis(2)
    q = np.array([[1.0, 0.5], [0.25, 0.0]], dtype=complex)
    q /= np.linalg.norm(q)
    psi = sp.reconstruct_wavefunction(q, basis, basis)
    w = sp._simpson_weights(basis.grid.size, basis.dx)
    norm = np.real(np.einsum("g,h,gh->", w, w, np.abs(psi) ** 2))
    assert abs(norm - 1.0) < 1e-8


def test_entanglement_entropy_limits():
    q = np.zeros((2, 2), dtype=complex)
    q[0, 0] = 1.0
    assert sp.entanglement_entropy(q) < 1e-12
    q = np.diag([1.0, 1.0]).astype(complex) / np.sqrt(2)
    assert abs(sp.entanglement_entropy(q) - np.log(2.0)) < 1e-12


def test_entanglement_entropy_stack_matches_per_matrix_loop():
    stack = rng.normal(size=(5, 7, 4, 3)) + 1j * rng.normal(size=(5, 7, 4, 3))
    stack[0, 0] = np.outer([1.0, 2.0, 0.0, 1j], [1.0, 0.0, -1.0])  # rank 1: zero weights
    stack[0, 1] = 0.0
    batched = sp.entanglement_entropy(stack)
    assert batched.shape == (5, 7)
    loop = np.array([[sp.entanglement_entropy(q) for q in row] for row in stack])
    assert np.max(np.abs(batched - loop)) <= 1e-14
    assert batched[0, 1] == 0.0
    single = sp.entanglement_entropy(stack[1, 2])
    assert type(single) is float
    # the old per-matrix formula: drop zero weights, normalize, sum
    for q in stack.reshape(-1, 4, 3):
        p = np.linalg.svd(q, compute_uv=False) ** 2
        p = p[p > 1e-300]
        if p.size:
            p = p / np.sum(p)
            assert abs(sp.entanglement_entropy(q) + np.sum(p * np.log(p))) <= 1e-14


def test_interaction_drives_entanglement():
    basis = sp.harmonic_basis(2)
    kern = sp.CoulombKernel(e2=1.0, d_reg=0.1)
    w = sp.interaction_matrix_elements(basis, basis, kern)
    q0 = np.zeros((2, 2), dtype=complex)
    q0[0, 1] = 1.0
    final = sp.evolve_modes(q0, basis, basis, w, 0.0, 1.0)
    assert sp.entanglement_entropy(final) > 1e-6
