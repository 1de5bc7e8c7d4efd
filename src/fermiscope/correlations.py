"""Two- and four-point correlation functions and their diagonal frame.

The objects of interest are

    C2_ij   = <c†_i c_j>
    C4_ijkl = <c†_i c†_j c_k c_l> - C2_il C2_jk + C2_ik C2_jl

i.e. the one-body correlation matrix and the *connected* two-body
correlator, which vanishes identically on number-conserving Gaussian
states.  ``measure_two_point`` and ``measure_four_point_connected`` take
density matrices; a pure state's moments come from
``subsystem_correlations``, which lowers the state instead.

Diagonalizing C2 defines the natural-orbital frame: new annihilators
d_p = sum_b V_bp c_b with <d†_p d_q> = [V† C2 V]_pq = delta_pq g_p,
eigenvalues sorted descending.  Four-point tensors transform with one
factor of the rotation per index (conjugated on the creation slots).
Every object here may carry leading stack axes, one record per index; the
measurements and the frame treat a single record as a stack of one.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product

import numpy as np

from .fock import DensityMatrix, DomainError, FockBasis, StateVector, _chain_table, dagger

HERMITICITY_TOL = 1e-8
OCCUPATION_CLAMP = 1e-10


@dataclass
class TwoPointMatrix:
    """One-body correlation matrix <c†_i c_j> (or a stack of them)."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.complex128)
        if self.entries.ndim < 2 or self.entries.shape[-2] != self.entries.shape[-1]:
            raise DomainError("two-point matrix must be square")

    @property
    def n_modes(self) -> int:
        return self.entries.shape[-1]

    def validate(self):
        c2 = self.entries
        # a NaN defect compares False with the tolerance, so test finiteness first
        if not np.isfinite(c2).all():
            raise DomainError("two-point matrix has non-finite entries")
        if np.abs(c2 - dagger(c2)).max() > HERMITICITY_TOL:
            raise DomainError("two-point matrix is not Hermitian")
        w = np.linalg.eigvalsh(0.5 * (c2 + dagger(c2)))
        if max(0.0, -w.min(), w.max() - 1.0) > HERMITICITY_TOL:
            raise DomainError("two-point eigenvalues leave [0, 1]")


@dataclass
class FourPointTensor:
    """Connected two-body correlator, antisymmetric in (i,j) and in (k,l)."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.complex128)
        if self.entries.ndim < 4 or len(set(self.entries.shape[-4:])) != 1:
            raise DomainError("four-point tensor must be rank 4, equal axes")

    @property
    def n_modes(self) -> int:
        return self.entries.shape[-1]

    def max_abs(self) -> float:
        return float(np.abs(self.entries).max())

    def validate(self):
        t = self.entries
        if not np.isfinite(t).all():
            raise DomainError("four-point tensor has non-finite entries")
        if max(np.abs(t + t.swapaxes(-4, -3)).max(),
               np.abs(t + t.swapaxes(-2, -1)).max()) > HERMITICITY_TOL:
            raise DomainError("four-point tensor breaks antisymmetry")
        if np.abs(t.conj() - t.swapaxes(-4, -1).swapaxes(-3, -2)).max() > HERMITICITY_TOL:
            raise DomainError("four-point tensor breaks Hermiticity")


def _lowered_rows(basis: FockBasis, amps: np.ndarray, n: int):
    """(target basis, out) with out[j] = c_j applied to every state of
    ``amps`` (amplitudes along its last axis), for the leading ``n`` modes j.

    A fixed-(N, 2·Sz) state is lowered within fixed N, so every c_j lands
    in one basis.
    """
    if basis.sz_twice is not None:
        fixed_n = FockBasis(basis.mode_count, basis.sector)
        full = np.zeros(amps.shape[:-1] + (fixed_n.dim,), dtype=np.complex128)
        full[..., fixed_n.indices_of(basis.states)] = amps
        basis, amps = fixed_n, full
    out = None
    for j in range(n):
        target, cols, rows, signs = _chain_table(
            basis.mode_count, basis.sector, None, ((j, "annihilate"),))
        if out is None:
            out = np.zeros((n, *amps.shape[:-1], target.dim), dtype=np.complex128)
        out[j][..., rows] = signs * amps[..., cols]
    return target, out


def connected_four_point(raw: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Subtract the Wick part from raw <c†_i c†_j c_k c_l>, record by record."""
    return (raw - np.einsum("...il,...jk->...ijkl", c2, c2)
            + np.einsum("...ik,...jl->...ijkl", c2, c2))


def subsystem_correlations(psi: StateVector, n_keep: int):
    """C2 and connected C4 of a pure state on its leading ``n_keep`` modes.

    Moments whose indices all lie in the subsystem equal the reduced-state
    moments, so they come straight from ``psi`` without a density matrix:
    ``psi`` is lowered once by each c_b, and all of them once more by each c_a.
    """
    if not 0 < n_keep <= psi.basis.mode_count:
        raise DomainError(f"cannot keep {n_keep} of {psi.basis.mode_count} modes")
    n, sector = n_keep, psi.basis.sector
    c2 = np.zeros((n, n), dtype=np.complex128)
    raw = np.zeros((n, n, n, n), dtype=np.complex128)
    if sector != 0:
        target, lowered = _lowered_rows(psi.basis, psi.amplitudes, n)
        for i in range(n):
            for j in range(i, n):
                val = np.vdot(lowered[i], lowered[j])
                c2[i, j] = val
                c2[j, i] = np.conj(val)
        if sector is None or sector >= 2:
            # d[a, b] = c_a c_b |psi>, with d[b, b] = +0
            d = _lowered_rows(target, lowered, n)[1]
            d[range(n), range(n)] = 0.0
            # <c†_i c†_j c_k c_l> = <(c_j c_i) psi | (c_k c_l) psi>
            raw = np.einsum("jix,klx->ijkl", d.conj(), d)
    return TwoPointMatrix(c2), FourPointTensor(connected_four_point(raw, c2))


def _trace_chain(rho: DensityMatrix, ops):
    """Tr[rho * O_1 O_2 ... O_k] with ops written left to right, per record.

    A chain into another (N, 2·Sz) block meets no element of ``rho``: 0.
    """
    basis = rho.basis
    target, cols, rows, signs = _chain_table(
        basis.mode_count, basis.sector, basis.sz_twice, tuple(ops))
    if cols.size == 0 or (target.sector, target.sz_twice) != (basis.sector, basis.sz_twice):
        return 0.0
    flat = rho.elements.reshape(*rho.elements.shape[:-2], -1)
    # take() gathers each record's elements contiguously, as one row
    return (signs * flat.take(cols * basis.dim + rows, axis=-1)).sum(axis=-1)


def _density_only(state):
    if not isinstance(state, DensityMatrix):
        raise DomainError("measure density matrices here; a pure state's moments "
                          "come from subsystem_correlations")


def measure_two_point(rho: DensityMatrix) -> TwoPointMatrix:
    """C2_ij = <c†_i c_j> of a density matrix, or of each of a stack."""
    _density_only(rho)
    n = rho.basis.mode_count
    c2 = np.zeros(rho.elements.shape[:-2] + (n, n), dtype=np.complex128)
    for i, j in combinations_with_replacement(range(n), 2):
        val = _trace_chain(rho, ((i, "create"), (j, "annihilate")))
        c2[..., i, j] = val
        c2[..., j, i] = np.conj(val)
    return TwoPointMatrix(c2)


def measure_four_point_connected(
    rho: DensityMatrix,
    two_point: TwoPointMatrix | None = None,
) -> FourPointTensor:
    """Connected C4 of a density matrix with the Gaussian (Wick) part subtracted.

    Each chain with i < j and k < l is traced once; its other three index
    orders are exact negations.
    """
    _density_only(rho)
    c2 = (two_point or measure_two_point(rho)).entries
    n = c2.shape[-1]
    raw = np.zeros(c2.shape[:-2] + (n, n, n, n), dtype=np.complex128)
    for (i, j), (k, l) in product(combinations(range(n), 2), repeat=2):
        val = _trace_chain(
            rho, ((i, "create"), (j, "create"), (k, "annihilate"), (l, "annihilate")))
        raw[..., i, j, k, l] = raw[..., j, i, l, k] = val
        raw[..., j, i, k, l] = raw[..., i, j, l, k] = -val
    return FourPointTensor(connected_four_point(raw, c2))


@dataclass
class DiagonalFrame:
    """Unitary frame in which C2 is diagonal.

    ``rotation`` holds the eigenvectors as columns, ordered by descending
    occupation; frame annihilators are d_p = sum_b rotation[b, p] c_b.
    ``occupations`` lie strictly inside (0, 1) so entanglement-Hamiltonian
    logs and the 1/f factors of the correction stay finite.  A stack of
    frames carries leading axes on both; ``frame[index]`` is one of them.
    """

    rotation: np.ndarray
    occupations: np.ndarray

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=np.complex128)
        self.occupations = np.asarray(self.occupations, dtype=float)
        n = self.rotation.shape[-1]
        if self.rotation.shape[-2:] != (n, n) or self.occupations.shape != self.rotation.shape[:-1]:
            raise DomainError("frame shapes are inconsistent")
        eye = dagger(self.rotation) @ self.rotation
        # written as "not <=" so that a NaN rotation fails the check
        if not np.abs(eye - np.eye(n)).max() <= 1e-12:
            raise DomainError("frame rotation is not unitary")
        # a pure occupation makes the 1/f factors of delta_rho infinite
        if not np.all((self.occupations > 0.0) & (self.occupations < 1.0)):
            raise DomainError("frame occupations must lie strictly inside (0, 1)")
        if np.any(np.diff(self.occupations) > 1e-12):
            raise DomainError("frame occupations must be sorted descending")

    def __getitem__(self, index) -> "DiagonalFrame":
        # a record of a checked stack: a copy skips __post_init__'s checks
        record = copy.copy(self)
        record.rotation, record.occupations = self.rotation[index], self.occupations[index]
        return record

    @property
    def n_modes(self) -> int:
        return self.occupations.shape[-1]


def diagonalize_two_point(c2: TwoPointMatrix) -> DiagonalFrame:
    """Eigen-frame of C2 (of each of a stack) with a deterministic ordering.

    Occupations are clamped into (OCCUPATION_CLAMP, 1 - OCCUPATION_CLAMP),
    so a pure mode (occupation 0 or 1) still gives a valid frame.  Ties in
    the occupation spectrum are broken lexicographically on the rounded
    eigenvector entries, and each eigenvector's global phase is fixed by
    making its largest-magnitude entry real positive, so repeated runs
    produce bit-identical frames.  The phase divides by ``np.hypot``, which
    rounds as the scalar ``abs`` does; ``np.abs`` does not.
    """
    c2.validate()
    herm = 0.5 * (c2.entries + dagger(c2.entries))
    w, v = np.linalg.eigh(herm)
    piv = np.take_along_axis(v, np.argmax(np.abs(v), axis=-2)[..., None, :], axis=-2)
    v = v * np.conj(piv / np.hypot(piv.real, piv.imag))
    cols = np.round(v, 10).swapaxes(-1, -2).copy().view(float)
    order = np.array([
        sorted(range(len(wr)), key=lambda p: (-round(wr[p], 12), *cr[p]))
        for wr, cr in zip(w.reshape(-1, w.shape[-1]).tolist(),
                          cols.reshape(-1, *cols.shape[-2:]).tolist())
    ], dtype=np.intp).reshape(w.shape)
    w = np.take_along_axis(w, order, axis=-1)
    v = np.take_along_axis(v, order[..., None, :], axis=-1)
    g = np.clip(w, OCCUPATION_CLAMP, 1.0 - OCCUPATION_CLAMP)
    return DiagonalFrame(rotation=v, occupations=g)


def rotate_four_point(c4: FourPointTensor, frame: DiagonalFrame) -> FourPointTensor:
    """C4 re-expressed in the frame's modes.

    With d_p = sum_b V_bp c_b the creation slots pick up conj(V) and the
    annihilation slots V.  Sequential single-index contractions keep the
    cost at O(n^5).
    """
    v = frame.rotation
    t = c4.entries
    t = np.tensordot(t, v.conj(), axes=([0], [0]))   # b c d p
    t = np.tensordot(t, v.conj(), axes=([0], [0]))   # c d p q
    t = np.tensordot(t, v, axes=([0], [0]))          # d p q r
    t = np.tensordot(t, v, axes=([0], [0]))          # p q r s
    return FourPointTensor(t)
