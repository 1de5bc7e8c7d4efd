import itertools

import numpy as np
import pytest
import scipy.linalg

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
    delta_rho,
    delta_rho_decomposed,
    gaussian_eh,
    gaussian_state,
    load_density_matrix,
    mode_rotation_unitary,
    project_positive,
    project_to_simplex,
    reconstruct_state,
    save_density_matrix,
)
from fermiscope.validate import random_frame, random_valid_tensor

from conftest import quench_snapshot
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


def test_large_correction_warns(rng):
    _, c2, _ = quench_snapshot(4, 0.05, 4.0, 4, seed=31)
    loud = random_valid_tensor(rng, 4, scale=0.5)
    with pytest.warns(AnsatzValidityWarning):
        reconstruct_state(c2, loud)


def test_simplex_projection_worked_example():
    got = project_to_simplex(np.array([0.6, 0.5, -0.1]))
    assert np.abs(got - np.array([0.55, 0.45, 0.0])).max() < 1e-15


def test_simplex_projection_matches_exhaustive_oracle(rng):
    for n in (2, 3, 5, 8):
        for _ in range(20):
            v = rng.normal(size=n) * rng.uniform(0.1, 3.0)
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
    out = project_positive(herm)
    w_in = np.linalg.eigvalsh(herm)
    w_out = np.linalg.eigvalsh(out)
    assert np.abs(np.sort(w_out) - np.sort(project_to_simplex(w_in))).max() < 1e-12


def test_mode_rotation_unitary_is_unitary_and_consistent(rng):
    frame = random_frame(rng, 3)
    u = mode_rotation_unitary(frame)
    assert np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() < 1e-12
    gs = gaussian_state(frame)
    rho = DensityMatrix(FockBasis(3), (u * gs.weights[None, :]) @ u.conj().T)
    c2 = measure_two_point(rho).entries
    want = (frame.rotation * frame.occupations[None, :]) @ frame.rotation.conj().T
    assert np.abs(c2 - want).max() < 1e-10


def test_density_matrix_round_trip(tmp_path):
    rho, _, _ = quench_snapshot(4, 0.02, 2.0, 4, seed=8)
    path = str(tmp_path / "rho.json")
    save_density_matrix(path, rho, provenance={"t": 2.0})
    back, header = load_density_matrix(path)
    assert np.array_equal(back.elements, rho.elements)
    assert header["provenance"]["t"] == 2.0
