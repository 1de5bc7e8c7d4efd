import numpy as np
import pytest

from fermiscope.entanglement import (
    MAX_GUE_DIM,
    EntanglementSpectrum,
    SectorLabel,
    StatisticsUnavailableError,
    entanglement_spectrum,
    gap_statistics,
    gaussian_companion,
    max_fidelity,
    non_gaussianity,
    reference_distribution,
    sector_project,
    sector_spectra,
    spectral_error,
)
from fermiscope.fock import (
    CapacityError,
    DensityMatrix,
    DomainError,
    FockBasis,
    partial_trace,
)
from fermiscope.model import (
    HubbardParams,
    OccupationBitstring,
    plane_wave_state,
)
from fermiscope.reconstruct import gaussian_state, mode_rotation_unitary
from fermiscope.validate import random_frame, random_mixed_state

from conftest import paired_state, pure_density


def test_spectrum_of_pure_and_mixed_states():
    pure = pure_density(paired_state())
    assert np.allclose(entanglement_spectrum(pure).levels, [0.0])
    mixed = DensityMatrix(FockBasis(2), np.eye(4) / 4.0)
    assert np.allclose(entanglement_spectrum(mixed).levels, np.log(4.0))


def test_spectrum_rejects_negative_states():
    bad = DensityMatrix(FockBasis(1), np.diag([1.2, -0.2]).astype(complex))
    with pytest.raises(DomainError):
        entanglement_spectrum(bad)


def test_spectrum_levels_must_ascend():
    with pytest.raises(DomainError):
        EntanglementSpectrum(levels=np.array([1.0, 0.5]))


def test_gaussian_spectrum_is_additive(rng):
    frame = random_frame(rng, 3)
    gs = gaussian_state(frame)
    u = mode_rotation_unitary(frame)
    rho = DensityMatrix(FockBasis(3), (u * gs.weights[None, :]) @ u.conj().T)
    got = entanglement_spectrum(rho).levels
    want = np.sort(-np.log(np.sort(gs.weights)[::-1]))
    assert np.abs(got - want).max() < 1e-10


def test_sector_labels_on_one_site():
    rho = DensityMatrix(FockBasis(2), np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
    blocks = sector_project(rho)
    labels = {str(b.label) for b in blocks}
    assert labels == {
        "(n=0, m=+0, s=0)",
        "(n=1, m=+0.5, s=0.5)",
        "(n=1, m=-0.5, s=0.5)",
        "(n=2, m=+0, s=0)",
    }
    total = sum(np.trace(b.elements).real for b in blocks)
    assert total == pytest.approx(1.0)


def test_sector_projection_preserves_trace(rng):
    rho = random_mixed_state(rng, 4)
    total = sum(np.trace(b.elements).real for b in sector_project(rho))
    assert total == pytest.approx(1.0)


def test_sector_spectra_skip_empty_blocks():
    rho = DensityMatrix(FockBasis(2), np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
    spectra = sector_spectra(rho)
    assert len(spectra) == 1
    assert spectra[0].label.n == 0


def test_gaussian_state_has_zero_angle(rng):
    frame = random_frame(rng, 3)
    gs = gaussian_state(frame)
    u = mode_rotation_unitary(frame)
    rho = DensityMatrix(FockBasis(3), (u * gs.weights[None, :]) @ u.conj().T)
    assert non_gaussianity(rho) < 1e-6


def test_determinant_reduction_is_gaussian():
    params = HubbardParams(sites=3)
    psi = plane_wave_state(params, OccupationBitstring.from_string("110000"))
    rho = partial_trace(psi, 4)
    # occupations clamped at 1e-10 put a floor of ~sqrt(2e-10) under theta
    assert non_gaussianity(rho) < 1e-4
    comp = gaussian_companion(rho)
    assert max_fidelity(rho, comp) == pytest.approx(1.0, abs=1e-9)


def test_max_fidelity_bounds():
    a = DensityMatrix(FockBasis(1), np.diag([1.0, 0.0]).astype(complex))
    b = DensityMatrix(FockBasis(1), np.diag([0.0, 1.0]).astype(complex))
    assert max_fidelity(a, a) == pytest.approx(1.0)
    assert max_fidelity(a, b) == pytest.approx(0.0)
    assert max_fidelity(a, b) == max_fidelity(b, a)


def test_spectral_error_reports_missing_levels():
    a = EntanglementSpectrum(levels=np.array([0.0, 1.0, 2.0]))
    b = EntanglementSpectrum(levels=np.array([0.1, 1.4]))
    errs = spectral_error(a, b, indices=(0, 1, 2))
    assert errs[0] == pytest.approx(0.1)
    assert errs[1] == pytest.approx(0.4)
    assert errs[2] is None


def test_gap_ratio_frozen_examples():
    lone = EntanglementSpectrum(levels=np.array([0.0, 1.0, 3.0]))
    stats = gap_statistics([lone], bootstrap=10)
    assert stats.ratios.tolist() == [0.5]
    ladder = EntanglementSpectrum(levels=np.arange(5.0))
    stats = gap_statistics([ladder], bootstrap=10)
    assert np.allclose(stats.ratios, 1.0)


def test_gap_statistics_collapse_degeneracies():
    spec = EntanglementSpectrum(levels=np.array([0.0, 1e-13, 1.0, 2.0]))
    stats = gap_statistics([spec], bootstrap=10)
    assert stats.dropped_degenerate == 1
    assert stats.ratios.tolist() == [1.0]


def test_gap_statistics_need_three_levels():
    short = EntanglementSpectrum(levels=np.array([0.0, 1.0]))
    with pytest.raises(StatisticsUnavailableError):
        gap_statistics([short])
    mixed = [short, EntanglementSpectrum(levels=np.array([0.0, 1.0, 3.0]))]
    stats = gap_statistics(mixed, bootstrap=10)
    assert stats.sectors_used == 1


def test_gap_statistics_reject_empty_bootstrap_and_histogram():
    spec = EntanglementSpectrum(levels=np.array([0.0, 1.0, 3.0]))
    for kwargs in ({"bootstrap": 0}, {"bootstrap": -5}, {"bins": 0}):
        with pytest.raises(DomainError):
            gap_statistics([spec], **kwargs)
    assert gap_statistics([spec], bootstrap=1, bins=1).ratios.size == 1


def test_reference_distributions_quick():
    poisson = reference_distribution("poisson", samples=20_000, seed=4, bootstrap=50)
    gue = reference_distribution("gue", samples=20_000, seed=4, bootstrap=50)
    assert abs(poisson.mean_r - 0.3863) < 0.015
    assert abs(gue.mean_r - 0.5996) < 0.015
    assert poisson.ci_low < poisson.mean_r < poisson.ci_high
    # histogram is a density on [0, 1]
    width = 1.0 / poisson.density.size
    assert poisson.density.sum() * width == pytest.approx(1.0, abs=1e-6)


def test_reference_distribution_guards():
    with pytest.raises(DomainError):
        reference_distribution("poisson", samples=10)
    with pytest.raises(DomainError):
        reference_distribution("goe", samples=2000)


def test_sector_label_formatting():
    assert str(SectorLabel(n=2, m=-1.0, s=1.0)) == "(n=2, m=-1, s=1)"


def test_gue_capacity_guard():
    for dim in (MAX_GUE_DIM + 1, 10**9):
        with pytest.raises(CapacityError):
            reference_distribution("gue", matrix_dim=dim)
