import itertools
import os

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fermiscope import harness
from fermiscope.correlations import (
    DiagonalFrame,
    FourPointTensor,
    TwoPointMatrix,
    diagonalize_two_point,
    measure_four_point_connected,
    measure_two_point,
    rotate_four_point,
)
from fermiscope.fock import DensityMatrix, DomainError, FockBasis
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
from oracles import delta_rho_loop, same_bits


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
    for k, bits in enumerate(gs.basis.states):
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
    monkeypatch.setattr(scipy.linalg, "logm", lambda a: np.full(a.shape, np.nan + 0j))
    with np.errstate(invalid="ignore"), pytest.raises(DomainError, match="logarithm"):
        mode_rotation_unitary(random_frame(np.random.default_rng(5), 4))


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
    return {4: rho4, 8: quench_snapshot(8, 0.05, 5.0, 8, seed=3)[0]}


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

    def reconstruct(state):
        c2 = measure_two_point(state)
        return reconstruct_state(c2, measure_four_point_connected(state, c2))

    before = reconstruct(rho)
    after = reconstruct(DensityMatrix(rho.basis, u @ rho.elements @ u.conj().T))
    back = u.conj().T @ after.assembled.elements @ u
    assert np.abs(back - before.assembled.elements).max() <= 1e-13
    assert np.abs(after.projected_eigenvalues
                  - before.projected_eigenvalues).max() <= 1e-13
