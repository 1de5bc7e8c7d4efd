"""Entanglement spectra, non-Gaussianity, sector resolution, gap statistics.

The spectrum of a reduced state rho is reported as levels eps_i = -log
lambda_i; everything downstream (spectral errors, gap ratios) works on
those levels.  Gap ratios r_i = min(d_i, d_{i+1}) / max(d_i, d_{i+1}) of
consecutive spacings distinguish uncorrelated spectra (<r> = 2 ln 2 - 1)
from level-repelling ones (<r> ~ 0.60 for the unitary ensemble) without
any unfolding.  :func:`gap_statistics` pools a whole set of sectors in one
pass over their concatenated levels, and :func:`reference_distribution`
forms its ratios with the same segmented kernel; reference values come
from it rather than being hard-coded.

Sector resolution diagonalizes particle number, S^z and total S^2 on the
subsystem once per mode count; spectra are then collected per (n, m, s)
block, because pooling across symmetry sectors would mix independent
ladders and wash level repulsion out.  The state-level functions also take a
(k, dim, dim) stack of states: one result per record, flat ones for the sectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .correlations import diagonalize_two_point, measure_two_point
from .fock import CapacityError, DensityMatrix, DomainError, FockBasis, dagger
from .model import number_diagonal, spin_squared_block, sz_twice_diagonal
from .reconstruct import gaussian_state, mode_rotation_unitary

RANK_CUTOFF = 1e-12
DEGENERACY_TOL = 1e-10
HISTOGRAM_BINS = 24
BOOTSTRAP_RESAMPLES = 1000
CASIMIR_TOL = 1e-8
DEFAULT_ERROR_INDICES = (0, 10, 50, 100)
# one GUE draw holds a few complex matrix_dim^2 arrays: ~0.3 GB at 2000
MAX_GUE_DIM = 2000
# the bootstrap keeps one mean per resample (0.8 MB at the cap) and draws
# as many resamples at a time as fit BOOTSTRAP_BLOCK indices: 16 MB of
# indices and gathered ratios (one resample when n is larger)
MAX_BOOTSTRAP = 100_000
BOOTSTRAP_BLOCK = 1 << 20
MAX_REFERENCE_SAMPLES = 250_000


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


def _check_levels(levels: np.ndarray, sizes: np.ndarray):
    """Check levels finite and ascending (to 1e-12) in runs of ``sizes``; return ids, gaps, mask."""
    if not np.all(np.isfinite(levels)):
        raise DomainError("spectrum levels must be finite")
    segment = np.repeat(np.arange(sizes.size), sizes)
    gaps = np.diff(levels)
    inside = segment[1:] == segment[:-1]
    if np.any(gaps[inside] < -1e-12):
        raise DomainError("spectrum levels must be ascending")
    return segment, gaps, inside


def eigenvalue_spectrum(vals: np.ndarray) -> np.ndarray:
    """Levels -log(lambda) of the eigenvalues above RANK_CUTOFF, ascending.

    Eigenvalues at or below RANK_CUTOFF carry no information about the
    state (they are zeros plus rounding) and would inject divergent
    levels, so they are dropped rather than clipped.
    """
    levels = np.sort(-np.log(vals[vals > RANK_CUTOFF]))
    _check_levels(levels, np.array([levels.size]))
    return levels


def entanglement_spectrum(rho: DensityMatrix | np.ndarray):
    """Levels of -log(rho), truncated at the numerical rank; a list for a stack."""
    mat = rho.elements if isinstance(rho, DensityMatrix) else np.asarray(rho)
    vals = np.linalg.eigvalsh(0.5 * (mat + dagger(mat)))
    if vals.size and vals[..., 0].min() < -1e-8:
        raise DomainError(f"state has eigenvalue {vals[..., 0].min():.3e}; project it first")
    spectra = [eigenvalue_spectrum(v) for v in vals.reshape(-1, vals.shape[-1])]
    return spectra if vals.ndim > 1 else spectra[0]


def spectral_error(a: np.ndarray, b: np.ndarray,
                   indices=DEFAULT_ERROR_INDICES) -> list[float | None]:
    """|eps_i - eps'_i| of two spectra at the requested indices, None beyond common rank.

    Levels past the smaller rank compare a finite number against a cut
    zero eigenvalue; reporting them as missing keeps -log(0) noise out of
    downstream fits.
    """
    common = min(a.size, b.size)
    return [float(abs(a[i] - b[i])) if 0 <= i < common else None for i in indices]


def gaussian_companion(sigma: DensityMatrix) -> DensityMatrix:
    """The Gaussian state with the same two-point function as ``sigma`` (per record)."""
    frame = diagonalize_two_point(measure_two_point(sigma))
    u = mode_rotation_unitary(frame)
    mat = (u * gaussian_state(frame).weights[..., None, :]) @ dagger(u)
    return DensityMatrix(sigma.basis, mat)


def _real_sum(mats: np.ndarray) -> np.ndarray:
    """Re of the sum of each matrix's elements, summed as one contiguous row."""
    return np.real(mats.reshape(*mats.shape[:-2], -1).sum(axis=-1))


def max_fidelity(sigma: DensityMatrix, other: DensityMatrix):
    """F = Tr[sigma other] / max(Tr sigma^2, Tr other^2), per record."""
    a = sigma.elements
    b = other.elements
    return _real_sum(a * b.conj()) / np.maximum(_real_sum(a * a.conj()), _real_sum(b * b.conj()))


def non_gaussianity(sigma: DensityMatrix):
    """Angle theta = arccos sqrt(F(sigma | sigma_g)) in [0, pi/2]; an array for a stack.

    sigma_g is built from the measured two-point function of ``sigma``
    itself, so theta vanishes exactly when sigma is Gaussian and is
    invariant under single-particle basis rotations.
    """
    f = max_fidelity(sigma, gaussian_companion(sigma))
    return np.arccos(np.sqrt(np.clip(f, 0.0, 1.0)))


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
    Hermitian diagonalization of S^2 per (n, m) block, built on that block.
    """
    if mode_count % 2:
        raise DomainError("sector resolution needs an even mode count")
    basis = FockBasis(mode_count)
    n_diag = number_diagonal(basis)
    sz2 = sz_twice_diagonal(basis)

    sectors = []
    keys = sorted(set(zip(n_diag.tolist(), sz2.tolist())))
    for n, m2 in keys:
        idx = np.nonzero((n_diag == n) & (sz2 == m2))[0]  # ascending, as the block's states
        vals, vecs = np.linalg.eigh(spin_squared_block(FockBasis(mode_count, n, m2)))
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


def sector_project(rho: DensityMatrix) -> list[SectorBlock]:
    """Split a reduced state (each of a stack) into (n, m, s) symmetry blocks.

    Block dimensions sum to the full dimension; weight outside the block
    structure (possible if rho breaks the symmetries) is simply not
    represented, so callers should check trace completeness when in doubt.
    """
    blocks = []
    for label, idx, vecs in _sector_basis(rho.basis.mode_count):
        # fancy indexing puts a stack axis innermost; the matmul needs C order
        sub = np.ascontiguousarray(rho.elements[..., idx[:, None], idx[None, :]])
        block = vecs.conj().T @ sub @ vecs
        blocks.append(SectorBlock(label=label, elements=block))
    return blocks


@dataclass
class SectorSpectra:
    """Kept levels of every symmetry block of each record of a stack, flat: record
    by record, then block by block in ``labels`` order, ascending in each block.
    ``sizes[r, b]`` counts those of record r in block b, 0 where none is kept."""

    labels: tuple[SectorLabel, ...]
    sizes: np.ndarray
    levels: np.ndarray


def sector_spectra(rho: DensityMatrix) -> SectorSpectra:
    """Entanglement spectrum of every symmetry block of each record (one for a matrix):
    one ``eigvalsh`` per block, then :func:`eigenvalue_spectrum`'s cut, log and sort."""
    blocks = sector_project(rho)
    vals = np.concatenate([np.linalg.eigvalsh(0.5 * (b.elements + dagger(b.elements)))
                           .reshape(-1, b.elements.shape[-1]) for b in blocks], axis=1)
    kept = vals > RANK_CUTOFF
    # a dropped eigenvalue sorts last in its block, as +inf, and is cut there
    levels = np.full(vals.shape, np.inf)
    levels[kept] = -np.log(vals[kept])
    starts = np.cumsum([0] + [b.elements.shape[-1] for b in blocks])
    for lo, hi in zip(starts[:-1], starts[1:]):
        levels[:, lo:hi].sort(axis=1)
    sizes = np.add.reduceat(kept, starts[:-1], axis=1, dtype=np.intp)
    levels = levels[levels < np.inf]
    _check_levels(levels, sizes.ravel())  # once for the whole stack
    return SectorSpectra(tuple(b.label for b in blocks), sizes, levels)


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


def _segment_ratios(levels: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Gap ratios inside each segment of ``sizes`` levels, in segment order."""
    segment = np.repeat(np.arange(sizes.size), sizes)
    inside = segment[2:] == segment[:-2]
    gaps = np.diff(levels)
    lead, lag = gaps[1:][inside], gaps[:-1][inside]
    return np.minimum(lead, lag) / np.maximum(lead, lag)


def _bootstrap_ci(ratios: np.ndarray, resamples: int, seed: int):
    """95% percentile interval of the resampled means.

    ``Generator.integers`` yields the same stream however a draw is split,
    so the blocks give the intervals of one whole-array draw.
    """
    rng = np.random.default_rng(seed)
    n = ratios.size
    per_block = max(1, BOOTSTRAP_BLOCK // n)
    means = np.empty(resamples)
    for start in range(0, resamples, per_block):
        take = min(per_block, resamples - start)
        idx = rng.integers(0, n, size=(take, n))
        means[start : start + take] = ratios[idx].mean(axis=1)
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


def _check_bootstrap(bootstrap: int):
    if bootstrap > MAX_BOOTSTRAP:
        raise CapacityError(f"{bootstrap} bootstrap resamples exceed the "
                            f"{MAX_BOOTSTRAP} capacity guard")


def gap_statistics(
    levels,
    bins: int = HISTOGRAM_BINS,
    bootstrap: int = BOOTSTRAP_RESAMPLES,
    seed: int = 0,
) -> GapStatistics:
    """Pool gap ratios over sectors, given as one 1-D level array per sector.

    One pass over the concatenated levels, which must be finite and, inside
    each sector, ascending (to 1e-12).  Degenerate levels are collapsed
    before spacings are formed (keeping them floods the pool with r = 0
    artifacts of exact symmetry, not dynamics), each against the last level
    kept; the number removed is reported on the result.  Sectors contribute
    only with at least three surviving levels.
    """
    _check_bootstrap(bootstrap)
    sizes = np.array([len(x) for x in levels], dtype=np.intp)
    flat = np.concatenate(levels, dtype=float) if sizes.size else np.empty(0)
    if flat.shape != (sizes.sum(),):
        raise DomainError("each sector's levels must be one 1-D array")
    segment, gaps, inside = _check_levels(flat, sizes)
    keep = np.ones(flat.size, dtype=bool)
    starts = np.cumsum(sizes) - sizes
    # a sector without a gap below the tolerance keeps every level
    for s in set(segment[1:][inside & (gaps < DEGENERACY_TOL)].tolist()):
        last = flat[starts[s]]
        for i in range(starts[s] + 1, starts[s] + sizes[s]):
            if flat[i] - last < DEGENERACY_TOL:
                keep[i] = False
            else:
                last = flat[i]
    kept = np.bincount(segment[keep], minlength=sizes.size)
    return _pooled_statistics(_segment_ratios(flat[keep], kept), bins, bootstrap,
                              seed, int(flat.size - kept.sum()),
                              int(np.count_nonzero(kept >= 3)))


def reference_distribution(
    kind: str,
    samples: int = 100_000,
    seed: int = 0,
    bins: int = HISTOGRAM_BINS,
    bootstrap: int = BOOTSTRAP_RESAMPLES,
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
    if samples > MAX_REFERENCE_SAMPLES:
        raise CapacityError(f"{samples} reference samples exceed the "
                            f"{MAX_REFERENCE_SAMPLES} capacity guard")
    _check_bootstrap(bootstrap)
    rng = np.random.default_rng(seed)
    if kind == "poisson":
        levels = np.cumsum(rng.exponential(size=samples + 1))
        ratios = _segment_ratios(levels, np.array([levels.size]))
    elif kind == "gue":
        if matrix_dim < 100:
            raise DomainError("GUE sampling needs matrix_dim >= 100")
        if matrix_dim > MAX_GUE_DIM:
            raise CapacityError(f"GUE matrix_dim {matrix_dim} exceeds the "
                                f"{MAX_GUE_DIM} capacity guard")
        lo, hi = matrix_dim // 3, 2 * matrix_dim // 3
        bulk = []
        # each draw gives hi - lo - 2 ratios; draw until samples are covered
        for _ in range(-(-samples // (hi - lo - 2))):
            a = rng.normal(size=(matrix_dim, matrix_dim))
            b = rng.normal(size=(matrix_dim, matrix_dim))
            h = a + 1j * b
            bulk.append(np.linalg.eigvalsh(0.5 * (h + h.conj().T))[lo:hi])
        ratios = _segment_ratios(np.concatenate(bulk),
                                 np.full(len(bulk), hi - lo))[:samples]
    else:
        raise DomainError(f"unknown reference ensemble {kind!r}")
    return _pooled_statistics(ratios, bins, bootstrap, seed + 1,
                              dropped=0, sectors_used=1)
