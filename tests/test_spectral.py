import tracemalloc

import numpy as np
import pytest

import posqubit.spectral as sp
from posqubit.errors import BasisMismatchError, GridTooCoarseError, QuadratureNotConvergedError
from posqubit.qcore import matexp_unitary, propagate

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
    """Guards the FFT path against the dense N x N mesh of the definition:
    Simpson weights, W over the composite index n * Mb + m, and the second
    well's coordinates shifted by +well_offset.
    test_far_wells_couple_as_point_multipoles pins the last two by physics."""
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
    """Guards the lag origin of grids that share a spacing but not a start or
    a size; test_far_wells_couple_as_point_multipoles pins it by physics."""
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


# Former one-shot bodies: every row of rows_b transformed at once.  The
# streamed contraction must reproduce them bit for bit.


def _one_shot_contract(rows_a, grid_a, rows_b, grid_b, kernel, well_offset):
    na, nb = grid_a.size, grid_b.size
    dx = (grid_a[-1] - grid_a[0]) / (na - 1)
    lags = (grid_a[0] - grid_b[0] - well_offset) + dx * np.arange(1 - nb, na)
    n_fft = sp._fft_length(na + nb - 1)
    spectrum = np.fft.rfft(rows_b, n_fft)
    spectrum *= np.fft.rfft(kernel(lags), n_fft)
    return rows_a @ np.fft.irfft(spectrum, n_fft)[:, nb - 1 : nb - 1 + na].T


def _one_shot_pair_products(basis):
    n = basis.n_levels
    first, second = np.triu_indices(n)
    index = np.zeros((n, n), dtype=int)
    index[first, second] = index[second, first] = np.arange(first.size)
    weights = sp._simpson_weights(basis.grid.size, basis.dx)
    return basis.functions[first] * basis.functions[second] * weights, index


def _one_shot_w(basis_a, basis_b, kernel, well_offset):
    pa, index_a = _one_shot_pair_products(basis_a)
    pb, index_b = _one_shot_pair_products(basis_b)
    table = _one_shot_contract(pa, basis_a.grid, pb, basis_b.grid, kernel, well_offset)
    k = basis_a.n_levels * basis_b.n_levels
    return table[index_a[:, None, :, None], index_b[None, :, None, :]].reshape(k, k)


def _one_shot_gij(basis_a, basis_b, kernel, well_offset, every):
    xa = basis_a.grid[::every]
    xb = basis_b.grid[::every]
    fa = basis_a.functions[:, ::every] * sp._simpson_weights(xa.size, xa[1] - xa[0])
    fb = basis_b.functions[:, ::every] * sp._simpson_weights(xb.size, xb[1] - xb[0])
    return _one_shot_contract(fa, xa, fb, xb, kernel, well_offset)


def _same_bytes(got, ref):
    return got.dtype == ref.dtype and got.shape == ref.shape and got.tobytes() == ref.tobytes()


# None keeps the module's block; the pair-product rows (1, 6, 28, 136) and the
# g rows (1, 3, 7, 16) are multiples of some blocks and not of others.  At 801
# points a 16-level block falls under OpenBLAS's small-matrix threshold, where
# contracting block by block would round differently.
@pytest.mark.parametrize("block", [None, 1, 2, 3])
@pytest.mark.parametrize("n_levels", [1, 3, 7, 16])
def test_streamed_contraction_matches_the_one_shot_body_bit_for_bit(monkeypatch, n_levels, block):
    """Guards ``_one_shot_contract``: the block size of the streamed
    convolution never changes a bit of W or g.  The dense-mesh tests check
    the values.  W of (wide, wide) takes the parity path, so there the
    streamed convolution is checked on the pair products themselves."""
    if block is not None:
        monkeypatch.setattr(sp, "_CONTRACT_ROWS", block)
    # spacing 0.025 on all three; sizes 801 and 241, origins -10 and -2.3
    wide = sp.harmonic_basis(n_levels, half_width=10.0, n_grid=801)
    twin = sp.harmonic_basis(n_levels, half_width=10.0, n_grid=801)
    narrow = sp.box_basis(n_levels, width=6.0, center=0.7, n_grid=241)
    kern = sp.CoulombKernel(e2=0.8, d_reg=0.2)
    for a, b in ((wide, wide), (wide, twin), (wide, narrow), (narrow, wide)):
        for offset in (0.0, 3.0):
            if b is a:
                pa, _ = sp._pair_products(a)
                got = sp._kernel_contract(pa, a.grid, pa, a.grid, kern, offset)
                assert _same_bytes(got, _one_shot_contract(pa, a.grid, pa, a.grid, kern, offset))
            else:
                ref = _one_shot_w(a, b, kern, offset)
                assert _same_bytes(sp.interaction_matrix_elements(a, b, kern, offset), ref)
            for every in (1, 2):
                got = sp._gij_on_stride(a, b, kern, offset, every)
                assert _same_bytes(got, _one_shot_gij(a, b, kern, offset, every))


# The parity path: one basis object of parity (-1)^n for both wells.

_PARITY_GRID_BASES = {
    "harmonic": lambda n, n_grid: sp.harmonic_basis(n, n_grid=n_grid),
    "box": lambda n, n_grid: sp.box_basis(n, width=4.0, n_grid=n_grid),
}


@pytest.mark.parametrize("n_grid", [801, 1601, 2401])
@pytest.mark.parametrize("kind", sorted(_PARITY_GRID_BASES))
def test_parity_path_matches_the_general_path(kind, n_grid):
    """W from parity-split spectra against the convolution path, which an
    equal but distinct basis object takes; offsets of either sign make the
    kernel spectrum complex, so the mixed blocks are nonzero."""
    kern = sp.CoulombKernel(e2=1.0, d_reg=0.2)
    for n_levels in (1, 2, 3, 16):
        basis, twin = (_PARITY_GRID_BASES[kind](n_levels, n_grid) for _ in range(2))
        assert sp._has_parity(basis.functions)
        for offset in (-3.0, 0.0, 3.0):
            w = sp.interaction_matrix_elements(basis, basis, kern, offset)
            ref = sp.interaction_matrix_elements(basis, twin, kern, offset)
            assert _rel_dev(w, ref) <= 1e-13, (n_levels, offset)
            assert np.array_equal(w, w.T)


@pytest.mark.parametrize("kind", sorted(_PARITY_GRID_BASES))
def test_parity_path_is_bit_for_bit_the_same_for_every_block(monkeypatch, kind):
    """The even/odd rows are transformed in blocks of ``_CONTRACT_ROWS``,
    and the three products run over all rows at once."""
    kern = sp.CoulombKernel(e2=0.8, d_reg=0.2)
    for n_levels in (1, 3, 7, 16):
        basis = _PARITY_GRID_BASES[kind](n_levels, 801)
        ref = sp.interaction_matrix_elements(basis, basis, kern, 3.0)
        for block in (1, 2, 3):
            monkeypatch.setattr(sp, "_CONTRACT_ROWS", block)
            assert _same_bytes(sp.interaction_matrix_elements(basis, basis, kern, 3.0), ref)
        monkeypatch.undo()


def test_broken_parity_falls_back_to_the_general_path_byte_for_byte(monkeypatch):
    """An odd function made even, a defect just over EXCHANGE_TOL, and a
    numeric basis of an asymmetric potential each take the convolution path,
    bit for bit as the former one-shot body."""
    kern = sp.CoulombKernel(e2=1.0, d_reg=0.2)
    harmonic = sp.harmonic_basis(6, n_grid=801)
    made_even = harmonic.functions.copy()
    made_even[3, :400] *= -1.0
    nudged = harmonic.functions.copy()
    nudged[2, 100] += 1e-11 * np.abs(nudged).max()
    bases = [sp.ConfinementBasis(harmonic.kind, harmonic.grid, f, harmonic.energies) for f in (made_even, nudged)]
    bases.append(
        sp.numeric_basis(lambda x: 0.5 * x * x + 0.3 * np.exp(-((x - 1.0) ** 2)), 6, -10.0, 10.0, n_grid=801)
    )

    def no_parity_path(*args):
        raise AssertionError("a basis without parity took the parity path")

    monkeypatch.setattr(sp, "_parity_contract", no_parity_path)
    for basis in bases:
        assert not sp._has_parity(basis.functions)
        for offset in (0.0, 3.0):
            ref = _one_shot_w(basis, basis, kern, offset)
            assert _same_bytes(sp.interaction_matrix_elements(basis, basis, kern, offset), ref)


def test_cli_bases_take_the_parity_path(monkeypatch):
    from posqubit import cli

    def convolution(*args):
        raise AssertionError("W of a CLI basis took the convolution path")

    monkeypatch.setattr(sp, "_kernel_contract", convolution)
    for basis in ({"kind": "harmonic", "n_levels": 5, "n_grid": 801}, {"kind": "box", "n_levels": 4, "n_grid": 401}):
        cfg = {
            "schema_version": 1,
            "kind": "spectral",
            "time": {"t_max": 0.5, "dt": 0.01, "sample_stride": 10},
            "parameters": {"basis": basis, "well_offset": 3.0, "initial_modes": [[0, 1, 1.0, 0.0]]},
        }
        _, summary = cli.run_scenario(cfg)
        assert abs(summary["final_norm"] - 1.0) <= 1e-12


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

    from posqubit.cli import MAX_GRID

    kern = sp.CoulombKernel(e2=1.0, d_reg=0.2)
    # (n_grid, a second equal basis object, bound in MiB): the traced peak read
    # 5.00 / 8.14 / 8.44 MiB with the one basis on the parity path (its even and
    # odd half spectra and one weighted copy), 5.95 / 9.91 / 8.44 MiB with one
    # reused 8-row buffer on the convolution path, 6.25 / 10.41 / 8.74 MiB
    # with 16-row blocks padded by rfft, and 15.25 / 25.32 / 15.25 MiB while
    # every pair-product row was transformed at once.  The bounds sit about 20%
    # above the parity path, so holding all 136 pair products at once
    # (+2.5 / +4.2 MiB) fails
    for n_grid, distinct, bound_mib in ((2401, False, 6), (MAX_GRID, False, 10), (2401, True, 10)):
        basis = sp.harmonic_basis(16, n_grid=n_grid)
        other = sp.harmonic_basis(16, n_grid=n_grid) if distinct else basis
        tracemalloc.start()
        try:
            sp.interaction_matrix_elements(basis, other, kern, 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20, (n_grid, distinct, peak)


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


def test_numeric_basis_builds_one_grid_sized_matrix():
    # H and eigh's eigenvectors are 19.6 MiB each at 1601 points: the traced
    # peak read 39.6 MiB, and 58.7 MiB while H was summed from four np.diag arrays
    tracemalloc.start()
    try:
        sp.numeric_basis(lambda x: 0.5 * x * x, 16, -8.0, 8.0, n_grid=1601)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 45 * 2**20, peak


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


def _position_moments(basis, power):
    """<psi_n| x^power |psi_s> on the basis' own grid, by Simpson quadrature."""
    weights = sp._simpson_weights(basis.grid.size, basis.dx)
    return (basis.functions * weights * basis.grid**power) @ basis.functions.T


def test_far_wells_couple_as_point_multipoles():
    """Far apart, the wells interact through the multipole expansion of the
    kernel: with the second particle at y + D (D = well_offset) and
    v = y - x, V = f(v) = e2 / sqrt((D + v)^2 + d^2) is to second order
    f0 + f1 v + f2 v^2, and W is that operator over the composite index
    n * Mb + m, the first well on the slow index.  This pins the sign of
    well_offset, the grid origins and the index layout without the dense
    mesh.  The two grids differ in start, size and level count."""
    wide = sp.harmonic_basis(3, half_width=10.0, n_grid=801)
    narrow = sp.box_basis(2, width=6.0, center=0.7, n_grid=241)
    e2, d_reg = 0.8, 0.2
    kernel = sp.CoulombKernel(e2=e2, d_reg=d_reg)
    for basis_a, basis_b in ((wide, narrow), (narrow, wide)):
        ia, ib = np.eye(basis_a.n_levels), np.eye(basis_b.n_levels)
        x, x2 = _position_moments(basis_a, 1), _position_moments(basis_a, 2)
        y, y2 = _position_moments(basis_b, 1), _position_moments(basis_b, 2)
        v = np.kron(ia, y) - np.kron(x, ib)
        v2 = np.kron(ia, y2) - 2.0 * np.kron(x, y) + np.kron(x2, ib)
        for offset in (40.0, -40.0):
            r2 = offset**2 + d_reg**2
            f0, f1, f2 = r2**-0.5, -offset * r2**-1.5, (offset**2 - 0.5 * d_reg**2) * r2**-2.5
            expected = e2 * (f0 * np.kron(ia, ib) + f1 * v + f2 * v2)
            w = sp.interaction_matrix_elements(basis_a, basis_b, kernel, offset)
            # the third-order remainder read 4.2e-6; the dipole term is 5.4e-4
            # and the quadrupole term 6.9e-5
            assert np.max(np.abs(w - expected)) < 1e-5


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
    series = sp.evolve_modes(q0, basis, basis, w, 1.0, np.linspace(0.0, 2.0, 21))
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
    series = sp.evolve_modes(q0, basis, basis, w, 1.0, np.linspace(0.0, 3.0, 11))
    energies = [sp.mode_energy(q, basis, basis, w) for q in series]
    assert np.max(np.abs(np.array(energies) - energies[0])) < 1e-10


def test_mode_energy_of_a_stack_matches_each_state_from_one_h(monkeypatch):
    """Guards one H for a whole stack, byte for byte against one state at a
    time; test_mode_energy_conserved checks the energy itself."""
    basis = sp.harmonic_basis(3)
    w = sp.interaction_matrix_elements(basis, basis, sp.CoulombKernel(e2=1.0, d_reg=0.1), 1.5)
    q0 = _random_modes(3, np.random.default_rng(3301))
    series = sp.evolve_modes(q0, basis, basis, w, 1.0, np.linspace(0.0, 3.0, 12))
    single = [sp.mode_energy(q, basis, basis, w) for q in series]
    assert all(type(e) is float for e in single)
    build = sp.composite_hamiltonian
    builds = []
    monkeypatch.setattr(sp, "composite_hamiltonian", lambda *args: builds.append(args) or build(*args))
    for stack in (series, series.reshape(3, 4, 3, 3), series[[0, -1]]):
        builds.clear()
        energies = sp.mode_energy(stack, basis, basis, w)
        assert len(builds) == 1
        assert energies.dtype == float and energies.shape == stack.shape[:-2]
        ref = np.array([sp.mode_energy(q, basis, basis, w) for q in stack.reshape(-1, 3, 3)])
        assert energies.tobytes() == ref.tobytes()
    assert np.array(single).tobytes() == sp.mode_energy(series, basis, basis, w).tobytes()


def test_entanglement_entropy_limits():
    q = np.zeros((2, 2), dtype=complex)
    q[0, 0] = 1.0
    assert sp.entanglement_entropy(q) < 1e-12
    q = np.diag([1.0, 1.0]).astype(complex) / np.sqrt(2)
    assert abs(sp.entanglement_entropy(q) - np.log(2.0)) < 1e-12


def test_entanglement_entropy_stack_matches_per_matrix_loop():
    """Guards the batched Gram-matrix entropy against the per-matrix loop and
    the Schmidt (SVD) weights that define it; test_entanglement_entropy_limits
    checks a product state and a maximally entangled one."""
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
    final = sp.evolve_modes(q0, basis, basis, w, 1.0, 1.0)
    assert sp.entanglement_entropy(final) > 1e-6


def _exchange(n_levels):
    """X|n, m> = (-1)^(n + m) |m, n> over the composite index n * n_levels + m."""
    n, m = np.divmod(np.arange(n_levels**2), n_levels)
    x = np.zeros((n_levels**2, n_levels**2))
    x[m * n_levels + n, n * n_levels + m] = (-1.0) ** (n + m)
    return x


def test_composite_hamiltonian_commutes_with_well_exchange():
    """Both wells on one basis of parity (-1)^n and an even kernel: exchanging
    the wells and reflecting both coordinates maps H onto itself, for either
    sign of well_offset; one function with a flipped sign in basis_b breaks it."""
    kernel = sp.CoulombKernel(e2=1.0, d_reg=0.1)
    x = _exchange(8)
    for basis in (sp.harmonic_basis(8, n_grid=801), sp.box_basis(8, width=2.0, n_grid=801)):
        for offset in (-3.0, -0.7, 0.0, 0.7, 3.0):
            h = sp.composite_hamiltonian(basis, basis, sp.interaction_matrix_elements(basis, basis, kernel, offset))
            assert np.linalg.norm(x @ h @ x - h) <= 1e-13 * np.linalg.norm(h)
        functions = basis.functions.copy()
        functions[3] *= -1.0
        flipped = sp.ConfinementBasis(basis.kind, basis.grid, functions, basis.energies)
        h = sp.composite_hamiltonian(basis, flipped, sp.interaction_matrix_elements(basis, flipped, kernel, 0.7))
        assert np.linalg.norm(x @ h @ x - h) > 1e-5 * np.linalg.norm(h)


def _former_evolve_modes(q0, basis_a, basis_b, w, t0, t):
    """evolve_modes as written before it diagonalized the exchange-parity blocks."""
    na, nb = basis_a.n_levels, basis_b.n_levels
    spans = np.asarray(t, dtype=float) - t0
    h = sp.composite_hamiltonian(basis_a, basis_b, w)
    series = propagate(h, np.asarray(q0, dtype=complex).reshape(na * nb), 1.0, spans)
    return series.reshape(spans.shape + (na, nb))


def _random_modes(n_levels, gen):
    q0 = gen.normal(size=(n_levels, n_levels)) + 1j * gen.normal(size=(n_levels, n_levels))
    return q0 / np.linalg.norm(q0)


_PARITY_BASES = {
    "harmonic": lambda n: sp.harmonic_basis(n, n_grid=801),
    "box": lambda n: sp.box_basis(n, width=4.0, n_grid=801),
}


@pytest.mark.parametrize("n_levels", [1, 2, 3, 16])
@pytest.mark.parametrize("kind", sorted(_PARITY_BASES))
def test_exchange_blocks_match_the_single_eigh_and_expm(kind, n_levels):
    """n_levels 1 leaves the -1 block empty; every column of the blocks'
    eigenvectors is even (the first n(n+1)/2) or odd under X, exactly."""
    from scipy.linalg import expm

    basis = _PARITY_BASES[kind](n_levels)
    kern = sp.CoulombKernel(e2=1.0, d_reg=0.2)
    gen = np.random.default_rng(2200 + n_levels)
    k, plus = n_levels**2, n_levels * (n_levels + 1) // 2
    x = _exchange(n_levels)
    times = np.array([0.0, 0.05, 0.4, 1.3, 3.0])
    for offset in (-3.0, 0.0, 3.0):
        w = sp.interaction_matrix_elements(basis, basis, kern, offset)
        h = sp.composite_hamiltonian(basis, basis, w)
        energies, vectors = sp._exchange_eigen(h, n_levels)
        assert energies.shape == (k,) and vectors.shape == (k, k)
        assert np.array_equal(x @ vectors, vectors * np.repeat([1.0, -1.0], [plus, k - plus]))
        assert np.max(np.abs(vectors.T @ vectors - np.eye(k))) <= 1e-14
        assert _rel_dev((vectors * energies) @ vectors.T, h) <= 1e-13
        q0 = _random_modes(n_levels, gen)
        got = sp.evolve_modes(q0, basis, basis, w, 1.0, times)
        assert got.shape == (times.size, n_levels, n_levels)
        assert np.max(np.abs(got - _former_evolve_modes(q0, basis, basis, w, 0.7, 0.7 + times))) <= 1e-12
        for t, q in zip(times, got):
            assert np.max(np.abs(q.reshape(k) - expm(-1j * h * t) @ q0.reshape(k))) <= 1e-12
        single = sp.evolve_modes(q0, basis, basis, w, 1.0, 1.3)
        assert single.shape == (n_levels, n_levels)
        assert np.max(np.abs(single - _former_evolve_modes(q0, basis, basis, w, 0.7, 2.0))) <= 1e-12


def test_broken_exchange_symmetry_falls_back_to_one_eigh_byte_for_byte():
    """Two distinct basis objects keep the single eigh although their H is
    symmetric; a numeric basis of an asymmetric potential breaks the parity
    of its functions, so the measured defect sends it there too."""
    kern = sp.CoulombKernel(e2=1.0, d_reg=0.2)
    gen = np.random.default_rng(2210)
    times = np.linspace(0.0, 2.0, 9)
    twins = sp.harmonic_basis(6, n_grid=801), sp.harmonic_basis(6, n_grid=801)
    tilted = sp.numeric_basis(lambda x: 0.5 * x * x + 0.3 * np.exp(-((x - 1.0) ** 2)), 6, -10.0, 10.0, n_grid=801)
    for basis_a, basis_b, symmetric in ((*twins, True), (tilted, tilted, False)):
        w = sp.interaction_matrix_elements(basis_a, basis_b, kern, 3.0)
        h = sp.composite_hamiltonian(basis_a, basis_b, w)
        assert (sp._exchange_eigen(h, 6) is not None) == symmetric
        q0 = _random_modes(6, gen)
        got = sp.evolve_modes(q0, basis_a, basis_b, w, 1.0, times)
        ref = _former_evolve_modes(q0, basis_a, basis_b, w, 0.0, times)
        assert _same_bytes(got, ref)
    defect = np.linalg.norm(_exchange(6) @ h @ _exchange(6) - h) / np.linalg.norm(h)
    assert defect > 1e3 * sp.EXCHANGE_TOL


def test_the_cli_spectral_kind_takes_the_exchange_split(monkeypatch):
    from posqubit import cli

    def single_eigh(*args, **kwargs):
        raise AssertionError("evolve_modes fell back to the single eigh")

    monkeypatch.setattr(sp, "propagate", single_eigh)
    build = sp.composite_hamiltonian
    builds = []
    monkeypatch.setattr(sp, "composite_hamiltonian", lambda *args: builds.append(args) or build(*args))
    for basis in ({"kind": "harmonic", "n_levels": 4, "n_grid": 401}, {"kind": "box", "n_levels": 3, "n_grid": 401}):
        cfg = {
            "schema_version": 1,
            "kind": "spectral",
            "time": {"t_max": 0.5, "dt": 0.01, "sample_stride": 10},
            "parameters": {
                "basis": basis,
                "kernel": {"e2": 1.0, "d_reg": 0.2},
                "well_offset": 3.0,
                "initial_modes": [[0, 1, 1.0, 0.0], [1, 0, 0.0, 0.5]],
            },
        }
        builds.clear()
        _, summary = cli.run_scenario(cfg)
        assert abs(summary["final_norm"] - 1.0) <= 1e-12
        assert summary["energy_drift"] <= 1e-12
        # one H for the evolution, one for both energies of energy_drift
        assert len(builds) == 2
