import json
import tracemalloc

import numpy as np
import pytest

from fermiscope import entanglement, harness
from fermiscope.entanglement import (
    DEGENERACY_TOL,
    MAX_BOOTSTRAP,
    MAX_GUE_DIM,
    MAX_REFERENCE_SAMPLES,
    SectorLabel,
    StatisticsUnavailableError,
    _check_levels,
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
from oracles import gap_statistics_loop, same_bits, sector_spectra_one


def test_spectrum_of_pure_and_mixed_states():
    pure = pure_density(paired_state())
    assert np.allclose(entanglement_spectrum(pure), [0.0])
    mixed = DensityMatrix(FockBasis(2), np.eye(4) / 4.0)
    assert np.allclose(entanglement_spectrum(mixed), np.log(4.0))


def test_spectrum_rejects_negative_states():
    bad = DensityMatrix(FockBasis(1), np.diag([1.2, -0.2]).astype(complex))
    with pytest.raises(DomainError):
        entanglement_spectrum(bad)


def test_spectrum_levels_must_ascend():
    with pytest.raises(DomainError, match="ascending"):
        _check_levels(np.array([1.0, 0.5]), np.array([2]))


def test_gaussian_spectrum_is_additive(rng):
    frame = random_frame(rng, 3)
    gs = gaussian_state(frame)
    u = mode_rotation_unitary(frame)
    rho = DensityMatrix(FockBasis(3), (u * gs.weights[None, :]) @ u.conj().T)
    got = entanglement_spectrum(rho)
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
    assert spectra.sizes.shape == (1, len(spectra.labels))
    (block,) = np.nonzero(spectra.sizes[0])[0]
    assert spectra.labels[block].n == 0 and spectra.sizes[0, block] == 1
    assert same_bits(spectra.levels, [-0.0])


def _spectra_stacks(rng):
    """4- and 6-mode stacks: mixed, maximally mixed, pure, and one with empty blocks."""
    for n_modes in (4, 6):
        basis = FockBasis(n_modes)
        mixed = random_mixed_state(rng, n_modes).elements
        psi = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        # only the states with mode 0 empty: every block with n_0 = 1 has no level
        empty = mixed * ((basis.states[:, None] & 1) == 0) * ((basis.states[None, :] & 1) == 0)
        yield DensityMatrix(basis, np.stack([
            mixed, np.eye(basis.dim) / basis.dim, np.outer(psi, psi.conj()) / np.vdot(psi, psi),
            empty / np.trace(empty)]))


def test_sector_spectra_match_the_one_record_oracle(rng):
    for rho in _spectra_stacks(rng):
        spectra = sector_spectra(rho)
        assert spectra.sizes.shape == (len(rho.elements), len(spectra.labels))
        assert spectra.levels.shape == (spectra.sizes.sum(),)
        got = [json.dumps(doc) for doc in harness._sector_spectra_docs(spectra)]
        want = [json.dumps(sector_spectra_one(m, rho.basis)) for m in rho.elements]
        assert got == want
        # a single matrix is a stack of one
        one = sector_spectra(DensityMatrix(rho.basis, rho.elements[2]))
        assert same_bits(one.sizes, spectra.sizes[2:3])
        assert same_bits(one.levels, spectra.levels[spectra.sizes[:2].sum():][:one.levels.size])


def test_sector_spectra_check_their_levels_once_per_stack(rng, monkeypatch):
    calls = []
    real = entanglement._check_levels

    def counting(levels, sizes):
        calls.append(sizes.size)
        return real(levels, sizes)

    monkeypatch.setattr(entanglement, "_check_levels", counting)
    rho = next(_spectra_stacks(rng))
    spectra = sector_spectra(rho)
    assert calls == [len(rho.elements) * len(spectra.labels)]


def test_sector_spectra_reject_non_finite_levels(rng, monkeypatch):
    rho = next(_spectra_stacks(rng))
    real = np.linalg.eigvalsh

    def infinite(a, *args, **kwargs):
        vals = real(a, *args, **kwargs)
        vals[1, -1] = np.inf  # one level -log(inf) = -inf in one block of record 1
        return vals

    monkeypatch.setattr(np.linalg, "eigvalsh", infinite)
    with pytest.raises(DomainError, match="finite"):
        sector_spectra(rho)


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
    a = np.array([0.0, 1.0, 2.0])
    b = np.array([0.1, 1.4])
    errs = spectral_error(a, b, indices=(0, 1, 2))
    assert errs[0] == pytest.approx(0.1)
    assert errs[1] == pytest.approx(0.4)
    assert errs[2] is None


def test_gap_ratio_frozen_examples():
    lone = np.array([0.0, 1.0, 3.0])
    stats = gap_statistics([lone], bootstrap=10)
    assert stats.ratios.tolist() == [0.5]
    ladder = np.arange(5.0)
    stats = gap_statistics([ladder], bootstrap=10)
    assert np.allclose(stats.ratios, 1.0)


def test_gap_statistics_collapse_degeneracies():
    spec = np.array([0.0, 1e-13, 1.0, 2.0])
    stats = gap_statistics([spec], bootstrap=10)
    assert stats.dropped_degenerate == 1
    assert stats.ratios.tolist() == [1.0]


def test_gap_statistics_need_three_levels():
    short = np.array([0.0, 1.0])
    with pytest.raises(StatisticsUnavailableError):
        gap_statistics([short])
    mixed = [short, np.array([0.0, 1.0, 3.0])]
    stats = gap_statistics(mixed, bootstrap=10)
    assert stats.sectors_used == 1


def _oracle_pool(rng):
    """Random sectors with degenerate chains, duplicates and short sectors."""
    tol = DEGENERACY_TOL
    pool = []
    for _ in range(rng.integers(0, 12)):
        levels = np.cumsum(rng.exponential(1.0, rng.choice([0, 1, 2, 3, 4, 7])))
        for _ in range(rng.integers(0, 3) if levels.size else 0):
            k = rng.integers(levels.size)
            extra = rng.choice(3)
            if extra == 0:  # a chain the sequential rule cuts in two
                add = levels[k] + np.array([0.6, 1.2]) * tol
            elif extra == 1:  # an exact duplicate
                add = levels[k:k + 1]
            else:  # a descent inside the ascending slack
                add = levels[k:k + 1] - 5e-13
            levels = np.insert(levels, k + 1, add)
        pool.append(levels.tolist() if rng.random() < 0.5 else levels)
    return pool


def _outcome(fn, pool, **kwargs):
    try:
        return fn(pool, **kwargs)
    except (DomainError, StatisticsUnavailableError) as exc:
        return type(exc)


def test_gap_statistics_matches_the_loop_oracle():
    tol = DEGENERACY_TOL
    rng = np.random.default_rng(27)
    short = [[], [0.5], [0.0, 1.0], [2.0, 2.0, 2.0 + 0.5 * tol]]
    fixed = [
        [[0.0, 0.6 * tol, 1.2 * tol, 2.0, 3.5]],
        [[1.0, 1.0, 1.0, 2.0, 4.0, 4.0, 7.0], [0.0, 3.0, 4.0]],
        [], short, [short[2], [0.0, 1.0, 3.0], short[1]],
        [[0.0, 1.0, 3.0], [0.0, 2.0, 1.0]],       # descending
        [[0.0, 1.0, 3.0], [0.0, np.nan, 1.0]],    # non-finite
        [[0.0, 1.0, np.inf]], [[-np.inf, 0.0, 1.0]],
    ]
    outcomes = {}
    for k, pool in enumerate(fixed + [_oracle_pool(rng) for _ in range(300)]):
        kwargs = {"bootstrap": 20, "bins": 1 + k % 7, "seed": k}
        got = _outcome(gap_statistics, pool, **kwargs)
        want = _outcome(gap_statistics_loop, pool, **kwargs)
        outcomes[k] = got if isinstance(got, type) else "stats"
        if isinstance(want, type):
            assert got is want, pool
            continue
        assert same_bits(got.ratios, want.ratios), pool
        assert same_bits(got.bin_centers, want.bin_centers)
        assert same_bits(got.density, want.density)
        assert same_bits([got.mean_r, got.ci_low, got.ci_high],
                         [want.mean_r, want.ci_low, want.ci_high])
        assert got.dropped_degenerate == want.dropped_degenerate
        assert got.sectors_used == want.sectors_used
    # the chain 0, 0.6 tol, 1.2 tol keeps its ends; duplicates go
    assert gap_statistics(fixed[0], bootstrap=1).dropped_degenerate == 1
    assert gap_statistics(fixed[1], bootstrap=1).dropped_degenerate == 3
    assert [outcomes[k] for k in range(2, len(fixed))] == [
        StatisticsUnavailableError, StatisticsUnavailableError, "stats",
        DomainError, DomainError, DomainError, DomainError]
    assert list(outcomes.values()).count("stats") > 200
    with pytest.raises(DomainError, match="1-D"):
        gap_statistics([np.zeros((2, 3)), np.ones((1, 3))])


def test_gap_statistics_reject_empty_bootstrap_and_histogram():
    spec = np.array([0.0, 1.0, 3.0])
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


@pytest.mark.parametrize("block", [1, 50, 1 << 20])
def test_bootstrap_blocks_match_one_whole_draw(monkeypatch, block):
    monkeypatch.setattr(entanglement, "BOOTSTRAP_BLOCK", block)
    for n in (7, 33, 1001):
        ratios = np.random.default_rng(n).random(n)
        rng = np.random.default_rng(5)
        means = ratios[rng.integers(0, n, size=(250, n))].mean(axis=1)
        want = tuple(float(x) for x in np.percentile(means, [2.5, 97.5]))
        assert entanglement._bootstrap_ci(ratios, 250, 5) == want


def test_bootstrap_peak_memory_is_one_block():
    # one block is 2**20 indices plus their gathered ratios: 16 MB
    ratios = np.random.default_rng(0).random(100_001)
    tracemalloc.start()
    try:
        entanglement._bootstrap_ci(ratios, 1000, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_bootstrap_and_sample_capacity_guards():
    # extreme values only: each must raise before anything is allocated
    assert MAX_BOOTSTRAP >= 1000 and MAX_REFERENCE_SAMPLES >= 100_001
    spec = np.array([0.0, 1.0, 3.0])
    for bootstrap in (MAX_BOOTSTRAP + 1, 10**15):
        with pytest.raises(CapacityError, match="bootstrap"):
            gap_statistics([spec], bootstrap=bootstrap)
        for kind in ("poisson", "gue"):
            with pytest.raises(CapacityError, match="bootstrap"):
                reference_distribution(kind, samples=2000, bootstrap=bootstrap)
    for samples in (MAX_REFERENCE_SAMPLES + 1, 10**15):
        for kind in ("poisson", "gue"):
            with pytest.raises(CapacityError, match="samples"):
                reference_distribution(kind, samples=samples)
