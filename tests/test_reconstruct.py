import itertools
import os

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fermiscope import harness
from fermiscope.correlations import (
    OCCUPATION_CLAMP,
    DiagonalFrame,
    FourPointTensor,
    TwoPointMatrix,
    diagonalize_two_point,
    measure_four_point_connected,
    measure_two_point,
    rotate_four_point,
)
from fermiscope.entanglement import non_gaussianity, sector_spectra
from fermiscope.fock import DensityMatrix, DomainError, FockBasis, ladder_matrix
from fermiscope.reconstruct import (
    AnsatzValidityWarning,
    GaussianState,
    delta_rho,
    delta_rho_decomposed,
    gaussian_eh,
    gaussian_state,
    mode_rotation_unitary,
    project_positive,
    project_to_simplex,
    reconstruct_state,
)
from fermiscope.validate import random_frame, random_valid_tensor

from conftest import mini_config, quench_snapshot
from oracles import delta_rho_loop, mode_rotation_unitary_loop, same_bits


def simplex_projection_oracle(v: np.ndarray) -> np.ndarray:
    """Exhaustive QP over all support sets of the probability simplex."""
    n = v.size
    best, best_cost = None, np.inf
    for r in range(1, n + 1):
        for support in itertools.combinations(range(n), r):
            shift = (v[list(support)].sum() - 1.0) / r
            x = np.zeros(n)
            x[list(support)] = v[list(support)] - shift
            if x.min() < -1e-15:
                continue
            cost = float(((x - v) ** 2).sum())
            if cost < best_cost:
                best, best_cost = x, cost
    return best


def test_gaussian_weights_follow_product_rule(rng):
    frame = random_frame(rng, 3)
    gs = gaussian_state(frame)
    g = frame.occupations
    for k, bits in enumerate(FockBasis(3).states):
        want = 1.0
        for p in range(3):
            want *= g[p] if (bits >> p) & 1 else 1.0 - g[p]
        assert gs.weights[k] == pytest.approx(want, rel=1e-12)
    assert gs.weights.sum() == pytest.approx(1.0)


def test_gaussian_eh_exponentiates_back(rng):
    frame = random_frame(rng, 3)
    gs = gaussian_state(frame)
    u = mode_rotation_unitary(frame)
    rho = (u * gs.weights[None, :]) @ u.conj().T
    again = scipy.linalg.expm(-gaussian_eh(frame))
    assert np.abs(again - rho).max() < 1e-10


def test_correction_is_hermitian_and_traceless(rng):
    for n_modes in (3, 4, 5):
        t = random_valid_tensor(rng, n_modes)
        frame = random_frame(rng, n_modes)
        corr = delta_rho(t, frame)
        assert np.abs(corr.elements - corr.elements.conj().T).max() < 1e-12
        assert abs(np.trace(corr.elements)) < 1e-12


def test_correction_survives_near_pure_modes(rng):
    # clamped occupations put 1/f ~ 1e10 on some matrix elements
    t = random_valid_tensor(rng, 4, scale=1e-6)
    c2 = 0.5 * np.array(
        [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, -1], [0, 0, -1, 1]], dtype=complex
    )
    frame = diagonalize_two_point(TwoPointMatrix(c2))
    corr = delta_rho(rotate_four_point(t, frame), frame)
    assert np.abs(corr.elements - corr.elements.conj().T).max() < 1e-12


def test_correction_rejects_pure_frames_and_nan_elements(rng):
    # a pure occupation puts 1/0 into delta_rho
    for occupations in ([1.0, 0.6, 0.3, 0.0], [0.9, 0.6, 0.3, 0.0],
                        [1.5, 0.6, 0.3, -0.5], [np.nan, 0.6, 0.3, 0.1]):
        with pytest.raises(DomainError, match="inside"):
            DiagonalFrame(np.eye(4), occupations)
    t = random_valid_tensor(rng, 4).entries.copy()
    t[0, 1, 2, 3] = np.nan
    with pytest.raises(DomainError, match="Hermitian"):
        delta_rho(FourPointTensor(t), random_frame(rng, 4))


def test_correction_matches_loop_oracle_bit_for_bit(rng):
    for n_modes in (2, 3, 4, 6, 8):
        for _ in range(2):
            t = random_valid_tensor(rng, n_modes)
            frame = random_frame(rng, n_modes)
            assert same_bits(delta_rho(t, frame).elements, delta_rho_loop(t, frame))
    # a t = 0 quench snapshot is exactly Gaussian: C4 sits at the ulp level
    # and a clamped occupation puts 1/f ~ 1e10 on it
    _, c2, c4 = quench_snapshot(4, 0.05, 0.0, 4, seed=31)
    assert np.abs(c4.entries).max() < 1e-15
    frame = diagonalize_two_point(c2)
    c4_frame = rotate_four_point(c4, frame)
    assert same_bits(delta_rho(c4_frame, frame).elements, delta_rho_loop(c4_frame, frame))
    # every move through a mode the tensor never touches is an exact zero,
    # negative under a negative string sign until it lands in delta as +0
    t = random_valid_tensor(rng, 5).entries.copy()
    t[4], t[:, 4], t[:, :, 4], t[:, :, :, 4] = 0.0, 0.0, 0.0, 0.0
    t = FourPointTensor(t)
    frame = random_frame(rng, 5)
    assert same_bits(delta_rho(t, frame).elements, delta_rho_loop(t, frame))


def test_term_decomposition_matches_construction(rng):
    for n_modes in (2, 3, 4, 6, 8):
        t = random_valid_tensor(rng, n_modes)
        frame = random_frame(rng, n_modes)
        i1, i2, i3 = delta_rho_decomposed(t, frame)
        total = 2.0 * i1 + 4.0 * i2 + i3
        delta = delta_rho(t, frame).elements
        assert np.abs(total - delta).max() < 1e-13


@pytest.mark.parametrize(
    "sites,u,t,keep",
    [(4, 0.05, 4.0, 4), (5, 0.1, 6.0, 6)],
)
def test_reconstruction_reproduces_correlations(sites, u, t, keep):
    _, c2, c4 = quench_snapshot(sites, u, t, keep, seed=31)
    rec = reconstruct_state(c2, c4)
    c2_back = measure_two_point(rec.assembled)
    c4_back = measure_four_point_connected(rec.assembled, c2_back)
    assert np.abs(c2_back.entries - c2.entries).max() < 1e-10
    assert np.abs(c4_back.entries - c4.entries).max() < 1e-10
    assert rec.assembled.hermiticity_defect() < 1e-12
    assert rec.projected.eigenvalues().min() > -1e-14
    assert rec.projected.trace == pytest.approx(1.0)


@settings(max_examples=8)
@given(st.sampled_from([4, 6]), st.floats(1e-5, 1e-3), st.integers(0, 2**32 - 1))
def test_reconstruction_reproduces_random_correlations(n_modes, scale, seed):
    rng = np.random.default_rng(seed)
    frame = random_frame(rng, n_modes)
    v = frame.rotation
    c2 = TwoPointMatrix((v * frame.occupations[None, :]) @ v.conj().T)
    c4 = random_valid_tensor(rng, n_modes, scale=scale)
    rec = reconstruct_state(c2, c4)
    c2_back = measure_two_point(rec.assembled)
    c4_back = measure_four_point_connected(rec.assembled, c2_back)
    assert np.abs(c2_back.entries - c2.entries).max() <= 1e-10
    assert np.abs(c4_back.entries - c4.entries).max() <= 1e-10


def test_large_correction_warns(rng):
    _, c2, _ = quench_snapshot(4, 0.05, 4.0, 4, seed=31)
    loud = random_valid_tensor(rng, 4, scale=0.5)
    with pytest.warns(AnsatzValidityWarning):
        reconstruct_state(c2, loud)


def test_simplex_projection_worked_example():
    got = project_to_simplex(np.array([0.6, 0.5, -0.1]))
    assert np.abs(got - np.array([0.55, 0.45, 0.0])).max() < 1e-15


@settings(max_examples=100)
@given(v=st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=1,
                  max_size=8).map(np.array))
def test_simplex_projection_matches_exhaustive_oracle(v):
    got = project_to_simplex(v)
    want = simplex_projection_oracle(v)
    assert np.abs(got - want).max() < 1e-10
    assert got.sum() == pytest.approx(1.0)
    assert got.min() >= 0.0


def test_simplex_projection_fixes_points_already_inside():
    v = np.array([0.2, 0.5, 0.3])
    assert np.abs(project_to_simplex(v) - v).max() < 1e-15


def test_positive_projection_moves_spectrum_to_simplex(rng):
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    herm = 0.5 * (a + a.conj().T)
    herm = herm / np.abs(np.trace(herm))
    out, w, w_proj = project_positive(herm)
    w_in = np.linalg.eigvalsh(herm)
    w_out = np.linalg.eigvalsh(out)
    assert np.abs(np.sort(w_out) - np.sort(project_to_simplex(w_in))).max() < 1e-12
    # the returned eigenvalues are those of the input and of the output
    assert np.abs(w - w_in).max() < 1e-12
    assert np.abs(w_proj - w_out).max() < 1e-12
    assert np.all(np.diff(w_proj) >= 0.0)


def test_mode_rotation_unitary_is_unitary_and_consistent(rng):
    frame = random_frame(rng, 3)
    u = mode_rotation_unitary(frame)
    assert np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() < 1e-12
    gs = gaussian_state(frame)
    rho = DensityMatrix(FockBasis(3), (u * gs.weights[None, :]) @ u.conj().T)
    c2 = measure_two_point(rho).entries
    want = (frame.rotation * frame.occupations[None, :]) @ frame.rotation.conj().T
    assert np.abs(c2 - want).max() < 1e-10


def _frame_stack(frames) -> DiagonalFrame:
    return DiagonalFrame(np.stack([f.rotation for f in frames]),
                         np.stack([f.occupations for f in frames]))


def _c2_stack(rng, n_modes: int, count: int) -> TwoPointMatrix:
    """C2 of ``count`` random frames: the first with a degenerate spectrum,
    the second with a pure-occupied and a pure-empty mode."""
    mats = []
    for k in range(count):
        q = random_frame(rng, n_modes).rotation
        g = rng.uniform(0.05, 0.95, n_modes)
        if k == 0:
            g[1] = g[2] = 0.7
        elif k == 1:
            g[0], g[-1] = 1.0, 0.0
        mats.append((q * g) @ q.conj().T)
    return TwoPointMatrix(np.stack(mats))


def test_stacked_mode_rotation_unitary_matches_each_frame_alone(rng):
    for n_modes, count in ((4, 16), (6, 3)):
        frames = diagonalize_two_point(_c2_stack(rng, n_modes, count))
        assert np.abs(np.diff(frames.occupations[0])).min() < 1e-12
        assert frames.occupations[1, 0] == 1.0 - OCCUPATION_CLAMP
        assert frames.occupations[1, -1] == OCCUPATION_CLAMP
        stacked = mode_rotation_unitary(frames)
        assert stacked.shape == (count, 1 << n_modes, 1 << n_modes)
        for k in range(count):
            assert same_bits(stacked[k], mode_rotation_unitary(frames[k]))
            assert same_bits(stacked[k], mode_rotation_unitary_loop(frames[k]))


def test_mode_rotation_unitary_ignores_numpy_global_rng():
    # logm picks its Pade degree from onenormest, which draws from np.random
    frames = [
        random_frame(np.random.default_rng(4), 4),
        random_frame(np.random.default_rng(8), 8),
        # sweep-5site geometry: 5 sites, 4 particles, 2-site subsystem
        diagonalize_two_point(quench_snapshot(5, 0.05, 10.0, 4, seed=2)[1]),
        # chain-8site geometry: 8 sites, 7 particles, 4-site subsystem
        diagonalize_two_point(quench_snapshot(8, 0.05, 5.0, 8, seed=3)[1]),
    ]
    frames.append(diagonalize_two_point(_c2_stack(np.random.default_rng(6), 4, 5)))
    saved = np.random.get_state()
    try:
        for frame in frames:
            np.random.seed(0)
            first = mode_rotation_unitary(frame)
            for seed in range(1, 6):
                np.random.seed(seed)
                assert same_bits(mode_rotation_unitary(frame), first)
    finally:
        np.random.set_state(saved)


def test_mode_rotation_unitary_rejects_a_failed_logarithm(monkeypatch):
    # scipy's logm returns an all-NaN matrix when its square roots fail
    real, calls = scipy.linalg.logm, []

    def logm(a):
        calls.append(a)
        return np.full(a.shape, np.nan + 0j) if len(calls) in fails else real(a)

    monkeypatch.setattr(scipy.linalg, "logm", logm)
    rng = np.random.default_rng(5)
    # a lone frame, and the third frame of a stack of four
    for frame, fails, count in ((random_frame(rng, 4), {1}, 1),
                                (_frame_stack([random_frame(rng, 4) for _ in range(4)]), {3}, 4)):
        calls.clear()
        with np.errstate(invalid="ignore"), pytest.raises(DomainError, match="logarithm"):
            mode_rotation_unitary(frame)
        assert len(calls) == count


def test_frames_and_gaussian_states_reject_nan():
    rotation = np.eye(3, dtype=complex)
    rotation[1, 2] = np.nan
    with pytest.raises(DomainError, match="not unitary"):
        DiagonalFrame(rotation, [0.6, 0.5, 0.4])
    frame = DiagonalFrame(np.eye(3), [0.6, 0.5, 0.4])
    weights = gaussian_state(frame).weights
    weights[3] = np.nan
    with pytest.raises(DomainError, match="sum to one"):
        GaussianState(frame, weights)


def test_stacked_reconstruction_matches_each_record_alone(rng):
    records = [quench_snapshot(5, u, t, 4, seed=s)
               for u, t, s in ((0.05, 0.0, 1), (0.05, 10.0, 2), (0.4, 5.0, 3))]
    c2 = TwoPointMatrix(np.stack([r[1].entries for r in records]))
    c4 = FourPointTensor(np.stack([r[2].entries for r in records]))
    stacked = reconstruct_state(c2, c4)
    for i, (_, one_c2, one_c4) in enumerate(records):
        alone = reconstruct_state(one_c2, one_c4)
        for a, b in ((stacked.frame.rotation[i], alone.frame.rotation),
                     (stacked.gaussian.weights[i], alone.gaussian.weights),
                     (stacked.correction.elements[i], alone.correction.elements),
                     (stacked.projected.elements[i], alone.projected.elements),
                     (stacked.assembled_eigenvalues[i], alone.assembled_eigenvalues)):
            assert same_bits(a, b)
    with pytest.raises(DomainError, match="stacks differ"):
        reconstruct_state(c2, FourPointTensor(c4.entries[:2]))


def test_density_matrix_round_trip(tmp_path):
    rho, c2, c4 = quench_snapshot(4, 0.02, 2.0, 4, seed=8)
    harness.save_trajectory(str(tmp_path), 0, 0, (2.0,), [(rho, c2, c4)],
                            [{"t": 2.0}])
    back, _, _, provenance = harness.load_snapshot(str(tmp_path), 0, 0, 0)
    assert same_bits(back.elements, rho.elements)
    assert provenance["t"] == 2.0


@pytest.fixture(scope="module")
def covariance_states(tmp_path_factory):
    """A stored 4-mode mini-run snapshot and an 8-mode chain-8site-geometry state."""
    config = mini_config(str(tmp_path_factory.mktemp("run")))
    harness.cmd_quench(config)
    rho4 = harness.load_snapshot(os.path.join(config.out_dir, "quench"), 0, 0, 1)[0]
    return {4: rho4, 6: quench_snapshot(4, 0.2, 2.0, 6, seed=5)[0],
            8: quench_snapshot(8, 0.05, 5.0, 8, seed=3)[0]}


def _reconstruct(state: DensityMatrix):
    c2 = measure_two_point(state)
    return reconstruct_state(c2, measure_four_point_connected(state, c2))


@pytest.mark.parametrize("mixing", [False, True], ids=["spin-preserving", "spin-mixing"])
@pytest.mark.parametrize("n_modes", [4, 8])
def test_reconstruction_is_covariant_under_mode_rotations(covariance_states, n_modes,
                                                          mixing, rng):
    # reconstructing U_W rho U_W^dagger gives U_W (reconstruction of rho) U_W^dagger:
    # a check of every kernel that holds on any BLAS, recording no bits
    rho = covariance_states[n_modes]
    if mixing:
        w = random_frame(rng, n_modes).rotation
    else:  # one site rotation for both spins
        w = np.kron(random_frame(rng, n_modes // 2).rotation, np.eye(2))
    u = mode_rotation_unitary(DiagonalFrame(w, np.linspace(0.9, 0.1, n_modes)))
    before = _reconstruct(rho)
    after = _reconstruct(DensityMatrix(rho.basis, u @ rho.elements @ u.conj().T))
    back = u.conj().T @ after.assembled.elements @ u
    assert np.abs(back - before.assembled.elements).max() <= 1e-13
    assert np.abs(after.projected_eigenvalues
                  - before.projected_eigenvalues).max() <= 1e-13


def _one_minus_f(state: DensityMatrix) -> float:
    """1 - F = sin^2 theta: the t = 0 noise classes of theta cannot decide a check."""
    return float(np.sin(non_gaussianity(state)) ** 2)


@pytest.mark.parametrize("n_modes", [4, 6, 8])
def test_reconstruction_commutes_with_complex_conjugation(covariance_states, n_modes):
    # reconstructing rho* gives the conjugate of the reconstruction of rho:
    # a relation that holds on any BLAS, recording no bits
    rho = covariance_states[n_modes]
    before = _reconstruct(rho)
    after = _reconstruct(DensityMatrix(rho.basis, rho.elements.conj()))
    for got, want in ((after.assembled, before.assembled), (after.projected, before.projected)):
        assert np.abs(got.elements - want.elements.conj()).max() <= 1e-13
    assert np.abs(after.projected_eigenvalues - before.projected_eigenvalues).max() <= 1e-13
    assert abs(_one_minus_f(after.projected) - _one_minus_f(before.projected)) <= 1e-14


def _particle_hole(n_modes: int) -> np.ndarray:
    """P = prod_i (c_i + c_i^dagger) on the unfiltered basis, from the ladder matrices."""
    basis = FockBasis(n_modes)
    p = np.eye(basis.dim, dtype=complex)
    for i in range(n_modes):
        p = p @ (ladder_matrix(basis, i, "annihilate") + ladder_matrix(basis, i, "create"))
    return p


def _sector_eigenvalues(rho: DensityMatrix) -> dict:
    """(n, m, s) -> kept eigenvalues of that block, ascending levels read back as exp(-level)."""
    spectra = sector_spectra(rho)
    blocks = np.split(np.exp(-spectra.levels), np.cumsum(spectra.sizes[0])[:-1])
    return {(label.n, label.m, label.s): vals for label, vals in zip(spectra.labels, blocks)}


@pytest.mark.parametrize("n_modes", [4, 6, 8])
def test_reconstruction_commutes_with_particle_hole(covariance_states, n_modes):
    # reconstructing P rho P^dagger gives P (reconstruction of rho) P^dagger, and
    # sector (n, m, s) of one is sector (modes - n, -m, s) of the other: a
    # relation that holds on any BLAS, recording no bits
    rho, p = covariance_states[n_modes], _particle_hole(n_modes)
    assert np.abs(p @ p.conj().T - np.eye(p.shape[0])).max() == 0.0
    image = DensityMatrix(rho.basis, p @ rho.elements @ p.conj().T)
    before, after = _reconstruct(rho), _reconstruct(image)
    for got, want in ((after.assembled, before.assembled), (after.projected, before.projected)):
        assert np.abs(got.elements - p @ want.elements @ p.conj().T).max() <= 1e-13
    assert np.abs(after.projected_eigenvalues - before.projected_eigenvalues).max() <= 1e-13
    for state, mapped in ((rho, image), (before.projected, after.projected)):
        want, got = _sector_eigenvalues(state), _sector_eigenvalues(mapped)
        assert len(got) == len(want)
        for (n, m, s), vals in want.items():
            assert got[(n_modes - n, -m, s)].shape == vals.shape
            assert np.abs(got[(n_modes - n, -m, s)] - vals).max(initial=0.0) <= 1e-13
        assert abs(_one_minus_f(mapped) - _one_minus_f(state)) <= 1e-14


@pytest.mark.parametrize("n_modes", [4, 6, 8])
def test_a_gaussian_state_is_a_fixed_point_of_the_reconstruction(n_modes, rng):
    frame = random_frame(rng, n_modes)  # occupations in [0.05, 0.95]: no pure mode
    u = mode_rotation_unitary(frame)
    weights = gaussian_state(frame).weights
    recon = _reconstruct(DensityMatrix(FockBasis(n_modes), (u * weights[None, :]) @ u.conj().T))
    assert np.abs(recon.correction.elements).max() <= 1e-14
    assert _one_minus_f(recon.projected) <= 1e-14
