"""Entanglement spectra, non-Gaussianity, sector resolution, gap statistics.

The spectrum of a reduced state rho is reported as levels eps_i = -log
lambda_i; everything downstream (spectral errors, gap ratios) works on
those levels.  Gap ratios r_i = min(d_i, d_{i+1}) / max(d_i, d_{i+1}) of
consecutive spacings distinguish uncorrelated spectra (<r> = 2 ln 2 - 1)
from level-repelling ones (<r> ~ 0.60 for the unitary ensemble) without
any unfolding.  Reference values come from :func:`reference_distribution`
rather than being hard-coded.

Sector resolution diagonalizes particle number, S^z and total S^2 on the
subsystem once per mode count; spectra are then collected per (n, m, s)
block, because pooling across symmetry sectors would mix independent
ladders and wash level repulsion out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .correlations import diagonalize_two_point, measure_two_point
from .fock import CapacityError, DensityMatrix, DomainError, FockBasis
from .model import number_diagonal, spin_squared, sz_twice_diagonal
from .reconstruct import gaussian_state, mode_rotation_unitary

RANK_CUTOFF = 1e-12
DEGENERACY_TOL = 1e-10
CASIMIR_TOL = 1e-8
DEFAULT_ERROR_INDICES = (0, 10, 50, 100)
POISSON_MEAN_R = 2.0 * math.log(2.0) - 1.0
# one GUE draw holds a few complex matrix_dim^2 arrays: ~0.3 GB at 2000
MAX_GUE_DIM = 2000


class StatisticsUnavailableError(Exception):
    """No sector contributed enough levels to form a single gap ratio."""


@dataclass(frozen=True)
class SectorLabel:
    """Joint (particle number, S^z, total spin) quantum numbers."""

    n: int
    m: float
    s: float

    def __str__(self) -> str:
        return f"(n={self.n}, m={self.m:+g}, s={self.s:g})"


@dataclass
class EntanglementSpectrum:
    """Levels -log(lambda) above a rank cutoff, ascending."""

    levels: np.ndarray
    cutoff: float = RANK_CUTOFF
    label: SectorLabel | None = None

    def __post_init__(self):
        self.levels = np.asarray(self.levels, dtype=float)
        if self.levels.size and np.any(np.diff(self.levels) < -1e-12):
            raise DomainError("spectrum levels must be ascending")
        if self.levels.size and not np.all(np.isfinite(self.levels)):
            raise DomainError("spectrum levels must be finite")

    @property
    def rank(self) -> int:
        return int(self.levels.size)


def entanglement_spectrum(
    rho: DensityMatrix | np.ndarray,
    cutoff: float = RANK_CUTOFF,
    label: SectorLabel | None = None,
) -> EntanglementSpectrum:
    """Spectrum of -log(rho), truncated at the numerical rank.

    Eigenvalues at or below ``cutoff`` carry no information about the
    state (they are zeros plus rounding) and would inject divergent
    levels, so they are dropped rather than clipped.
    """
    mat = rho.elements if isinstance(rho, DensityMatrix) else np.asarray(rho)
    vals = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
    if vals.size and vals[0] < -1e-8:
        raise DomainError(
            f"state has eigenvalue {vals[0]:.3e}; project it first"
        )
    kept = vals[vals > cutoff]
    levels = np.sort(-np.log(kept))
    return EntanglementSpectrum(levels=levels, cutoff=cutoff, label=label)


def spectral_error(
    a: EntanglementSpectrum,
    b: EntanglementSpectrum,
    indices=DEFAULT_ERROR_INDICES,
) -> list[float | None]:
    """|eps_i - eps'_i| at the requested indices, None beyond common rank.

    Levels past the smaller rank compare a finite number against a cut
    zero eigenvalue; reporting them as missing keeps -log(0) noise out of
    downstream fits.
    """
    common = min(a.rank, b.rank)
    out: list[float | None] = []
    for i in indices:
        if 0 <= i < common:
            out.append(float(abs(a.levels[i] - b.levels[i])))
        else:
            out.append(None)
    return out


def gaussian_companion(sigma: DensityMatrix) -> DensityMatrix:
    """The Gaussian state with the same two-point function as ``sigma``."""
    frame = diagonalize_two_point(measure_two_point(sigma))
    gauss = gaussian_state(frame)
    u = mode_rotation_unitary(frame)
    mat = (u * gauss.weights[None, :]) @ u.conj().T
    return DensityMatrix(sigma.basis, mat)


def max_fidelity(sigma: DensityMatrix, other: DensityMatrix) -> float:
    """F = Tr[sigma other] / max(Tr sigma^2, Tr other^2)."""
    a = sigma.elements
    b = other.elements
    overlap = float(np.real(np.sum(a * b.conj())))
    purity_a = float(np.real(np.sum(a * a.conj())))
    purity_b = float(np.real(np.sum(b * b.conj())))
    return overlap / max(purity_a, purity_b)


def non_gaussianity(sigma: DensityMatrix) -> float:
    """Angle theta = arccos sqrt(F(sigma | sigma_g)) in [0, pi/2].

    sigma_g is built from the measured two-point function of ``sigma``
    itself, so theta vanishes exactly when sigma is Gaussian and is
    invariant under single-particle basis rotations.
    """
    f = max_fidelity(sigma, gaussian_companion(sigma))
    return float(np.arccos(np.sqrt(np.clip(f, 0.0, 1.0))))


def _casimir_to_spin(value: float) -> float:
    """Invert s(s+1) = value onto the nearest half-integer s."""
    s_raw = 0.5 * (-1.0 + math.sqrt(max(0.0, 1.0 + 4.0 * value)))
    s = round(2.0 * s_raw) / 2.0
    if abs(s * (s + 1.0) - value) > CASIMIR_TOL:
        raise DomainError(
            f"Casimir value {value:.6g} is not s(s+1) for half-integer s"
        )
    return s


@lru_cache(maxsize=8)
def _sector_basis(mode_count: int):
    """Joint eigenbasis of (N, S^z, S^2) on ``mode_count`` subsystem modes.

    Returns a tuple of (label, basis-index array, eigenvector block); the
    eigenvector columns are expressed on the index array, not the full
    space.  N and S^z are diagonal in the Fock basis, so the work is one
    Hermitian diagonalization of S^2 per (n, m) block.
    """
    if mode_count % 2:
        raise DomainError("sector resolution needs an even mode count")
    basis = FockBasis(mode_count)
    n_diag = number_diagonal(basis)
    sz2 = sz_twice_diagonal(basis)
    s2 = spin_squared(basis).tocoo()

    # S^2 commutes with both diagonals iff it never couples different
    # (n, 2m) pairs; anything else is an operator-assembly bug.
    rows, cols = s2.row, s2.col
    if np.any(n_diag[rows] != n_diag[cols]) or np.any(sz2[rows] != sz2[cols]):
        raise DomainError("S^2 couples distinct (N, S^z) sectors")
    s2 = s2.tocsr()

    sectors = []
    keys = sorted(set(zip(n_diag.tolist(), sz2.tolist())))
    for n, m2 in keys:
        idx = np.nonzero((n_diag == n) & (sz2 == m2))[0]
        block = s2[np.ix_(idx, idx)].toarray()
        vals, vecs = np.linalg.eigh(0.5 * (block + block.conj().T))
        spins = [_casimir_to_spin(v) for v in vals]
        for s in sorted(set(spins)):
            cols_s = [c for c, sp in enumerate(spins) if sp == s]
            label = SectorLabel(n=int(n), m=m2 / 2.0, s=s)
            sectors.append((label, idx, vecs[:, cols_s]))
    return tuple(sectors)


@dataclass
class SectorBlock:
    """One symmetry block of a reduced state."""

    label: SectorLabel
    elements: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.elements.shape[0])


def sector_project(rho: DensityMatrix) -> list[SectorBlock]:
    """Split a reduced state into (n, m, s) symmetry blocks.

    Block dimensions sum to the full dimension; weight outside the block
    structure (possible if rho breaks the symmetries) is simply not
    represented, so callers should check trace completeness when in doubt.
    """
    blocks = []
    for label, idx, vecs in _sector_basis(rho.basis.mode_count):
        sub = rho.elements[np.ix_(idx, idx)]
        block = vecs.conj().T @ sub @ vecs
        blocks.append(SectorBlock(label=label, elements=block))
    return blocks


def sector_spectra(
    rho: DensityMatrix, cutoff: float = RANK_CUTOFF
) -> list[EntanglementSpectrum]:
    """Entanglement spectrum of every symmetry block with >= 1 kept level."""
    spectra = []
    for block in sector_project(rho):
        herm = 0.5 * (block.elements + block.elements.conj().T)
        vals = np.linalg.eigvalsh(herm)
        kept = vals[vals > cutoff]
        if kept.size == 0:
            continue
        spectra.append(
            EntanglementSpectrum(
                levels=np.sort(-np.log(kept)), cutoff=cutoff, label=block.label
            )
        )
    return spectra


@dataclass
class GapStatistics:
    """Pooled gap-ratio statistics with a bootstrap confidence interval."""

    ratios: np.ndarray
    bin_centers: np.ndarray
    density: np.ndarray
    mean_r: float
    ci_low: float
    ci_high: float
    dropped_degenerate: int
    sectors_used: int


def _filter_degenerate(levels: np.ndarray, tol: float):
    """Collapse near-coincident levels; returns (filtered, dropped count)."""
    if levels.size == 0:
        return levels, 0
    kept = [float(levels[0])]
    dropped = 0
    for x in levels[1:]:
        if x - kept[-1] < tol:
            dropped += 1
        else:
            kept.append(float(x))
    return np.array(kept), dropped


def _ratios_from_levels(levels: np.ndarray) -> np.ndarray:
    gaps = np.diff(levels)
    if gaps.size < 2:
        return np.empty(0)
    lead, lag = gaps[1:], gaps[:-1]
    return np.minimum(lead, lag) / np.maximum(lead, lag)


def _bootstrap_ci(
    ratios: np.ndarray, resamples: int, seed: int, chunk: int = 100
):
    rng = np.random.default_rng(seed)
    n = ratios.size
    means = np.empty(resamples)
    done = 0
    while done < resamples:
        take = min(chunk, resamples - done)
        idx = rng.integers(0, n, size=(take, n))
        means[done : done + take] = ratios[idx].mean(axis=1)
        done += take
    lo, hi = np.percentile(means, [2.5, 97.5])
    return float(lo), float(hi)


def _pooled_statistics(
    ratios: np.ndarray,
    bins: int,
    bootstrap: int,
    seed: int,
    dropped: int,
    sectors_used: int,
) -> GapStatistics:
    if bins < 1 or bootstrap < 1:
        raise DomainError("need at least one histogram bin and one "
                          "bootstrap resample")
    if ratios.size == 0:
        raise StatisticsUnavailableError(
            "no sector with >= 3 distinct levels; nothing to pool"
        )
    density, edges = np.histogram(ratios, bins=bins, range=(0.0, 1.0),
                                  density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    ci_low, ci_high = _bootstrap_ci(ratios, bootstrap, seed)
    return GapStatistics(
        ratios=ratios,
        bin_centers=centers,
        density=density,
        mean_r=float(ratios.mean()),
        ci_low=ci_low,
        ci_high=ci_high,
        dropped_degenerate=dropped,
        sectors_used=sectors_used,
    )


def gap_statistics(
    spectra,
    bins: int = 24,
    bootstrap: int = 1000,
    seed: int = 0,
    degeneracy_tol: float = DEGENERACY_TOL,
) -> GapStatistics:
    """Pool gap ratios over sector spectra.

    Degenerate levels are collapsed before spacings are formed (keeping
    them floods the pool with r = 0 artifacts of exact symmetry, not
    dynamics); the number removed is reported on the result.  Sectors
    contribute only with at least three surviving levels.
    """
    pool = []
    dropped = 0
    used = 0
    for spec in spectra:
        levels, d = _filter_degenerate(np.asarray(spec.levels, float),
                                       degeneracy_tol)
        dropped += d
        if levels.size < 3:
            continue
        pool.append(_ratios_from_levels(levels))
        used += 1
    ratios = np.concatenate(pool) if pool else np.empty(0)
    return _pooled_statistics(ratios, bins, bootstrap, seed, dropped, used)


def reference_distribution(
    kind: str,
    samples: int = 100_000,
    seed: int = 0,
    bins: int = 24,
    bootstrap: int = 1000,
    matrix_dim: int = 200,
) -> GapStatistics:
    """Monte Carlo gap-ratio reference ensembles.

    "poisson" draws one long ladder of i.i.d. exponential spacings;
    "gue" pools ratios from the bulk third of sampled complex Hermitian
    Gaussian matrices, where the spectral density is flat enough that no
    unfolding is needed.
    """
    if samples < 1000:
        raise DomainError("reference ensembles need at least 1000 samples")
    rng = np.random.default_rng(seed)
    if kind == "poisson":
        spacings = rng.exponential(size=samples + 1)
        levels = np.cumsum(spacings)
        ratios = _ratios_from_levels(levels)
    elif kind == "gue":
        if matrix_dim < 100:
            raise DomainError("GUE sampling needs matrix_dim >= 100")
        if matrix_dim > MAX_GUE_DIM:
            raise CapacityError(f"GUE matrix_dim {matrix_dim} exceeds the "
                                f"{MAX_GUE_DIM} capacity guard")
        lo, hi = matrix_dim // 3, 2 * matrix_dim // 3
        chunks = []
        total = 0
        while total < samples:
            a = rng.normal(size=(matrix_dim, matrix_dim))
            b = rng.normal(size=(matrix_dim, matrix_dim))
            h = a + 1j * b
            vals = np.linalg.eigvalsh(0.5 * (h + h.conj().T))
            r = _ratios_from_levels(vals[lo:hi])
            chunks.append(r)
            total += r.size
        ratios = np.concatenate(chunks)[:samples]
    else:
        raise DomainError(f"unknown reference ensemble {kind!r}")
    return _pooled_statistics(ratios, bins, bootstrap, seed + 1,
                              dropped=0, sectors_used=1)
