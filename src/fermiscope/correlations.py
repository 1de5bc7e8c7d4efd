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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .fock import DensityMatrix, DomainError, FockBasis, StateVector, _chain_table

HERMITICITY_TOL = 1e-8
OCCUPATION_CLAMP = 1e-10


@dataclass
class TwoPointMatrix:
    """One-body correlation matrix <c†_i c_j>."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.complex128)
        n = self.entries.shape[0]
        if self.entries.shape != (n, n):
            raise DomainError("two-point matrix must be square")

    @property
    def n_modes(self) -> int:
        return self.entries.shape[0]

    def hermiticity_defect(self) -> float:
        return float(np.abs(self.entries - self.entries.conj().T).max())

    def occupation_bound_defect(self) -> float:
        """How far the eigenvalues stray outside [0, 1]."""
        w = np.linalg.eigvalsh(0.5 * (self.entries + self.entries.conj().T))
        return float(max(0.0, -w.min(), w.max() - 1.0))

    def validate(self):
        # a NaN defect compares False with the tolerance, so test finiteness first
        if not np.isfinite(self.entries).all():
            raise DomainError("two-point matrix has non-finite entries")
        if self.hermiticity_defect() > HERMITICITY_TOL:
            raise DomainError("two-point matrix is not Hermitian")
        if self.occupation_bound_defect() > HERMITICITY_TOL:
            raise DomainError("two-point eigenvalues leave [0, 1]")


@dataclass
class FourPointTensor:
    """Connected two-body correlator, antisymmetric in (i,j) and in (k,l)."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.complex128)
        n = self.entries.shape[0]
        if self.entries.shape != (n, n, n, n):
            raise DomainError("four-point tensor must be rank 4, equal axes")

    @property
    def n_modes(self) -> int:
        return self.entries.shape[0]

    def antisymmetry_defect(self) -> float:
        t = self.entries
        d1 = np.abs(t + t.transpose(1, 0, 2, 3)).max()
        d2 = np.abs(t + t.transpose(0, 1, 3, 2)).max()
        return float(max(d1, d2))

    def hermiticity_defect(self) -> float:
        t = self.entries
        return float(np.abs(t.conj() - t.transpose(3, 2, 1, 0)).max())

    def max_abs(self) -> float:
        return float(np.abs(self.entries).max())

    def validate(self):
        if not np.isfinite(self.entries).all():
            raise DomainError("four-point tensor has non-finite entries")
        if self.antisymmetry_defect() > HERMITICITY_TOL:
            raise DomainError("four-point tensor breaks antisymmetry")
        if self.hermiticity_defect() > HERMITICITY_TOL:
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
    """Subtract the Wick part from raw <c†_i c†_j c_k c_l>."""
    return raw - np.einsum("il,jk->ijkl", c2, c2) + np.einsum("ik,jl->ijkl", c2, c2)


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


def _trace_chain(rho: DensityMatrix, ops) -> complex:
    """Tr[rho * O_1 O_2 ... O_k] with ops written left to right.

    A chain into another (N, 2·Sz) block meets no element of ``rho``: 0.
    """
    basis = rho.basis
    target, cols, rows, signs = _chain_table(
        basis.mode_count, basis.sector, basis.sz_twice, tuple(ops))
    if cols.size == 0 or (target.sector, target.sz_twice) != (basis.sector, basis.sz_twice):
        return 0.0
    return complex((signs * rho.elements[cols, rows]).sum())


def _density_only(state):
    if not isinstance(state, DensityMatrix):
        raise DomainError("measure density matrices here; a pure state's moments "
                          "come from subsystem_correlations")


def measure_two_point(rho: DensityMatrix) -> TwoPointMatrix:
    """C2_ij = <c†_i c_j> of a density matrix."""
    _density_only(rho)
    n = rho.basis.mode_count
    c2 = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(i, n):
            val = _trace_chain(rho, ((i, "create"), (j, "annihilate")))
            c2[i, j] = val
            c2[j, i] = np.conj(val)
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
    n = c2.shape[0]
    raw = np.zeros((n, n, n, n), dtype=np.complex128)
    for i, j in combinations(range(n), 2):
        for k, l in combinations(range(n), 2):
            val = _trace_chain(
                rho, ((i, "create"), (j, "create"), (k, "annihilate"), (l, "annihilate")))
            raw[i, j, k, l] = raw[j, i, l, k] = val
            raw[j, i, k, l] = raw[i, j, l, k] = -val
    return FourPointTensor(connected_four_point(raw, c2))


@dataclass
class DiagonalFrame:
    """Unitary frame in which C2 is diagonal.

    ``rotation`` holds the eigenvectors as columns, ordered by descending
    occupation; frame annihilators are d_p = sum_b rotation[b, p] c_b.
    ``occupations`` lie strictly inside (0, 1) so entanglement-Hamiltonian
    logs and the 1/f factors of the correction stay finite.
    """

    rotation: np.ndarray
    occupations: np.ndarray

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=np.complex128)
        self.occupations = np.asarray(self.occupations, dtype=float)
        n = self.rotation.shape[0]
        if self.rotation.shape != (n, n) or self.occupations.shape != (n,):
            raise DomainError("frame shapes are inconsistent")
        eye = self.rotation.conj().T @ self.rotation
        if np.abs(eye - np.eye(n)).max() > 1e-12:
            raise DomainError("frame rotation is not unitary")
        # a pure occupation makes the 1/f factors of delta_rho infinite
        if not np.all((self.occupations > 0.0) & (self.occupations < 1.0)):
            raise DomainError("frame occupations must lie strictly inside (0, 1)")
        if np.any(np.diff(self.occupations) > 1e-12):
            raise DomainError("frame occupations must be sorted descending")

    @property
    def n_modes(self) -> int:
        return self.occupations.shape[0]


def diagonalize_two_point(c2: TwoPointMatrix) -> DiagonalFrame:
    """Eigen-frame of C2 with a deterministic ordering.

    Occupations are clamped into (OCCUPATION_CLAMP, 1 - OCCUPATION_CLAMP),
    so a pure mode (occupation 0 or 1) still gives a valid frame.  Ties in
    the occupation spectrum are broken lexicographically on the rounded
    eigenvector entries, and each eigenvector's global phase is fixed by
    making its largest-magnitude entry real positive, so repeated runs
    produce bit-identical frames.
    """
    c2.validate()
    herm = 0.5 * (c2.entries + c2.entries.conj().T)
    w, v = np.linalg.eigh(herm)
    n = w.shape[0]
    for p in range(n):
        col = v[:, p]
        k = int(np.argmax(np.abs(col)))
        phase = col[k] / abs(col[k])
        v[:, p] = col * np.conj(phase)
    keys = [
        (-round(float(w[p]), 12),) + tuple(np.round(v[:, p], 10).view(float))
        for p in range(n)
    ]
    order = sorted(range(n), key=lambda p: keys[p])
    w = w[order]
    v = v[:, order]
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
