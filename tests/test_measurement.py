import numpy as np
import pytest

import posqubit.measurement as ms
from posqubit.errors import InvalidDensityError, ZeroProbabilityError
from posqubit.qcore import StateVector, as_amplitudes, body_populations, build_hn
from posqubit.two_qubit import swap_occupancies

rng = np.random.default_rng(404)


def random_state4():
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    return amps / np.linalg.norm(amps)


def test_measurement_probabilities_sum_to_one():
    for _ in range(50):
        amps = random_state4()
        for sub in (ms.SUBSYSTEM_U, ms.SUBSYSTEM_L):
            left, right = ms.measurement_probabilities(amps, sub)
            assert abs(left + right - 1.0) < 1e-12


def test_project_position_born_rule():
    amps = random_state4()
    out = ms.project_position(amps, ms.SUBSYSTEM_U, ms.LEFT)
    left, _ = ms.measurement_probabilities(amps, ms.SUBSYSTEM_U)
    assert abs(out.probability - left) < 1e-12
    post = out.post_state.amps
    assert abs(np.linalg.norm(post) - 1.0) < 1e-12
    # the post state is supported only where U sits on its left node
    assert post[0] == 0.0 and post[1] == 0.0
    # surviving amplitudes keep their relative phase
    assert abs(post[2] * amps[3] - post[3] * amps[2]) < 1e-12


def test_project_position_idempotent():
    amps = random_state4()
    first = ms.project_position(amps, ms.SUBSYSTEM_L, ms.RIGHT)
    second = ms.project_position(first.post_state, ms.SUBSYSTEM_L, ms.RIGHT)
    assert abs(second.probability - 1.0) < 1e-12
    assert np.max(np.abs(second.post_state.amps - first.post_state.amps)) < 1e-12


def test_project_position_zero_outcome_raises():
    amps = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    with pytest.raises(ZeroProbabilityError):
        ms.project_position(amps, ms.SUBSYSTEM_U, ms.LEFT)


def test_pure_density_and_validate():
    amps = random_state4()
    rho = ms.pure_density(amps)
    ms.validate_density(rho, dim=4)
    assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12
    with pytest.raises(InvalidDensityError):
        ms.validate_density(2.0 * rho, dim=4)
    with pytest.raises(InvalidDensityError):
        ms.validate_density(rho[:2, :2], dim=4)
    bad = rho.copy()
    bad[0, 1] += 1e-6
    with pytest.raises(InvalidDensityError):
        ms.validate_density(bad, dim=4)


def test_partial_trace_product_state():
    a = np.array([0.6, 0.8])
    b = np.array([1.0, 1.0j]) / np.sqrt(2)
    rho = ms.pure_density(np.kron(a, b))
    ra = ms.partial_trace(rho, "A")
    rb = ms.partial_trace(rho, "B")
    assert np.max(np.abs(ra - ms.pure_density(a))) < 1e-12
    assert np.max(np.abs(rb - ms.pure_density(b))) < 1e-12


def test_partial_trace_bell_state():
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    rho = ms.pure_density(bell)
    for keep in ("A", "B"):
        red = ms.partial_trace(rho, keep)
        assert np.max(np.abs(red - 0.5 * np.eye(2))) < 1e-12


def test_partial_trace_preserves_trace_and_hermiticity():
    for _ in range(50):
        rho = ms.pure_density(random_state4())
        for keep in ("A", "B"):
            red = ms.partial_trace(rho, keep)
            assert abs(np.trace(red).real - 1.0) < 1e-12
            assert np.max(np.abs(red - red.conj().T)) < 1e-12
    with pytest.raises(ValueError):
        ms.partial_trace(ms.pure_density(random_state4()), "C")


# The bodies below are the functions as written before they read the (2, 2)
# grid of qcore.build_hn's body layout; each is a bit-for-bit test oracle.
_MASKS = {
    (ms.SUBSYSTEM_U, ms.LEFT): (2, 3),
    (ms.SUBSYSTEM_U, ms.RIGHT): (0, 1),
    (ms.SUBSYSTEM_L, ms.LEFT): (1, 3),
    (ms.SUBSYSTEM_L, ms.RIGHT): (0, 2),
}


def _former_project_position(state, subsystem, side):
    amps = as_amplitudes(state)
    idx = _MASKS[(subsystem, side)]
    masked = np.zeros(4, dtype=complex)
    masked[list(idx)] = amps[list(idx)]
    prob = float(np.sum(np.abs(masked) ** 2))
    if prob < 1e-14:
        raise ZeroProbabilityError(f"outcome ({subsystem}, {side}) has probability {prob:.3e}")
    return ms.MeasurementOutcome(prob, StateVector(masked / np.sqrt(prob)))


def _former_measurement_probabilities(state, subsystem):
    amps = as_amplitudes(state)
    pr = np.abs(amps) ** 2
    left = float(sum(pr[i] for i in _MASKS[(subsystem, ms.LEFT)]))
    right = float(sum(pr[i] for i in _MASKS[(subsystem, ms.RIGHT)]))
    return left, right


def _former_partial_trace(rho, keep):
    rho = ms.validate_density(rho, dim=4)
    out = np.zeros((2, 2), dtype=complex)
    if keep == "A":
        for i in range(2):
            for j in range(2):
                out[i, j] = rho[2 * i, 2 * j] + rho[2 * i + 1, 2 * j + 1]
    elif keep == "B":
        for i in range(2):
            for j in range(2):
                out[i, j] = rho[i, j] + rho[2 + i, 2 + j]
    else:
        raise ValueError("keep must be 'A' or 'B'")
    return out


def _same_bytes(new, old):
    new, old = np.asarray(new), np.asarray(old)
    return new.dtype == old.dtype and new.shape == old.shape and new.tobytes() == old.tobytes()


def _outcome(fn, *args):
    """fn's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except ZeroProbabilityError as exc:
        return type(exc), str(exc)


def _random_oracle_state(gen):
    """Random amplitudes with some entries zeroed (of either sign), as an array,
    a list or a StateVector."""
    amps = gen.normal(size=4) + 1j * gen.normal(size=4)
    amps[gen.random(4) < 0.25] = 0.0
    amps[gen.random(4) < 0.1] = complex(-0.0, -0.0)
    if gen.random() < 0.1:
        amps = np.array([1.0, -1.0, -1.0, 1.0]) * amps[0]  # every outcome at probability 1/2
    norm = np.linalg.norm(amps)
    amps = amps / norm if norm > 0 else amps
    kind = gen.integers(3)
    return amps if kind == 0 else list(amps) if kind == 1 else StateVector(amps)


def test_grid_layout_functions_match_their_former_bodies_bit_for_bit():
    """Guards the former index masks bit for bit: U on the high bit and the
    left node on level 1 (test_measurement_reads_the_body_bits_of_build_hn
    pins both by the layout), float probabilities, and the zero-outcome
    threshold and message of project_position."""
    gen = np.random.default_rng(2020)
    for _ in range(2000):
        state = _random_oracle_state(gen)
        for sub in (ms.SUBSYSTEM_U, ms.SUBSYSTEM_L):
            new, old = ms.measurement_probabilities(state, sub), _former_measurement_probabilities(state, sub)
            assert _same_bytes(new, old) and all(type(x) is float for x in new)
            for side in (ms.LEFT, ms.RIGHT):
                new = _outcome(ms.project_position, state, sub, side)
                old = _outcome(_former_project_position, state, sub, side)
                assert type(new) is type(old)
                if isinstance(old, tuple):
                    assert new == old
                else:
                    assert type(new.probability) is float and new.probability == old.probability
                    assert _same_bytes(new.post_state.amps, old.post_state.amps)


def test_measurement_probabilities_keep_overflowing_populations_as_their_former_body():
    """Guards the overflow convention of the former sums: a population that
    overflows reads inf, never NaN."""
    gen = np.random.default_rng(2122)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(500):
            amps = gen.normal(size=4) + 1j * gen.normal(size=4)
            amps[gen.random(4) < 0.5] *= 1e200 if gen.random() < 0.5 else 1e308
            for sub in (ms.SUBSYSTEM_U, ms.SUBSYSTEM_L):
                new, old = ms.measurement_probabilities(amps, sub), _former_measurement_probabilities(amps, sub)
                assert _same_bytes(new, old)
        assert ms.measurement_probabilities([0.0, 0.0, 1e200, 0.0], ms.SUBSYSTEM_U) == (np.inf, 0.0)


def test_partial_trace_matches_its_former_body_bit_for_bit():
    """Guards index = 2 i_A + i_B, keep "A" tracing out B, bit for bit;
    test_partial_trace_product_state pins the order by physics."""
    gen = np.random.default_rng(2021)
    for _ in range(2000):
        rank = gen.integers(1, 5)
        m = gen.normal(size=(4, rank)) + 1j * gen.normal(size=(4, rank))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        for keep in ("A", "B"):
            assert _same_bytes(ms.partial_trace(rho, keep), _former_partial_trace(rho, keep))


def test_measurement_reads_the_body_bits_of_build_hn():
    """Body k of build_hn(bodies, {}) with body k = diag(0, 10**k) has level
    (H[s, s] // 10**k) % 10 in basis state s.  body_populations reads those
    levels for N = 1 ... 4; at N = 2 (U, L) measurement_probabilities and
    swap_occupancies do too, level 1 on the left node."""
    for n in range(1, 5):
        h = build_hn([((0.0, 0.0), (0.0, 10.0**k)) for k in range(n)], {})
        for s in range(2**n):
            levels = [int(h[s, s].real) // 10**k % 10 for k in range(n)]
            assert body_populations(np.eye(2**n)[s], n).tolist() == [[1 - lv, lv] for lv in levels]
            if n == 2:
                level_u, level_l = levels
                state = np.eye(4)[s]
                for sub, level in ((ms.SUBSYSTEM_U, level_u), (ms.SUBSYSTEM_L, level_l)):
                    assert ms.measurement_probabilities(state, sub) == (float(level), float(1 - level))
                occupancies = swap_occupancies(state)
                assert occupancies.tolist() == [level_u, 1 - level_u, level_l, 1 - level_l]
