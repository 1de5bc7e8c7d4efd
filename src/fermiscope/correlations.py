"""Two- and four-point correlation functions and their diagonal frame.

The objects of interest are

    C2_ij   = <c†_i c_j>
    C4_ijkl = <c†_i c†_j c_k c_l> - C2_il C2_jk + C2_ik C2_jl

i.e. the one-body correlation matrix and the *connected* two-body
correlator, which vanishes identically on number-conserving Gaussian
states.  Both can be evaluated on pure states or density matrices.

Diagonalizing C2 defines the natural-orbital frame: new annihilators
d_p = sum_b V_bp c_b with <d†_p d_q> = [V† C2 V]_pq = delta_pq g_p,
eigenvalues sorted descending.  Four-point tensors transform with one
factor of the rotation per index (conjugated on the creation slots).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .fock import DensityMatrix, DomainError, FockBasis, StateVector, ladder_map
from . import serialize

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

    def validate(self, tol: float = HERMITICITY_TOL):
        # a NaN defect compares False with tol, so test finiteness first
        if not np.isfinite(self.entries).all():
            raise DomainError("two-point matrix has non-finite entries")
        if self.hermiticity_defect() > tol:
            raise DomainError("two-point matrix is not Hermitian")
        if self.occupation_bound_defect() > tol:
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

    def validate(self, tol: float = HERMITICITY_TOL):
        if not np.isfinite(self.entries).all():
            raise DomainError("four-point tensor has non-finite entries")
        if self.antisymmetry_defect() > tol:
            raise DomainError("four-point tensor breaks antisymmetry")
        if self.hermiticity_defect() > tol:
            raise DomainError("four-point tensor breaks Hermiticity")


def _annihilated_vectors(psi: StateVector, n: int) -> list[StateVector | None]:
    """c_j |psi> for the leading ``n`` modes j, in the sector-lowered basis."""
    basis = psi.basis
    if basis.sector == 0:
        return [None] * n
    if basis.sz_twice is not None:
        # lower within fixed N, so every c_j |psi> lands in one basis
        fixed_n = FockBasis(basis.mode_count, basis.sector)
        amps = np.zeros(fixed_n.dim, dtype=np.complex128)
        amps[fixed_n.indices_of(basis.states)] = psi.amplitudes
        psi, basis = StateVector(fixed_n, amps), fixed_n
    out = []
    for j in range(n):
        target, cols, rows, signs = ladder_map(basis, ((j, "annihilate"),))
        vec = np.zeros(target.dim, dtype=np.complex128)
        vec[rows] = signs * psi.amplitudes[cols]
        out.append(StateVector(target, vec))
    return out


def _two_point_pure(psi: StateVector, n: int) -> np.ndarray:
    lowered = _annihilated_vectors(psi, n)
    c2 = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        if lowered[i] is None:
            continue
        for j in range(i, n):
            val = np.vdot(lowered[i].amplitudes, lowered[j].amplitudes)
            c2[i, j] = val
            c2[j, i] = np.conj(val)
    return c2


def _trace_chain(rho: DensityMatrix, ops) -> complex:
    """Tr[rho * O_1 O_2 ... O_k] with ops written left to right."""
    basis = rho.basis
    cols, rows, signs = _chain_table(
        basis.mode_count, basis.sector, basis.sz_twice, tuple(ops))
    if cols.size == 0:
        return 0.0
    return complex((signs * rho.elements[cols, rows]).sum())


@functools.lru_cache(maxsize=4096)  # holds all 1604 C2/C4 chains of 8 modes
def _chain_table(mode_count, sector, sz_twice, ops):
    """Read-only (cols, rows, signs) of :func:`ladder_map` for one chain, built once."""
    basis = FockBasis(mode_count, sector, sz_twice)
    target, *table = ladder_map(basis, ops)
    if target is not basis and table[0].size:
        raise DomainError("ladder chain leaves the basis")
    for arr in table:
        arr.flags.writeable = False
    return tuple(table)


def measure_two_point(state: StateVector | DensityMatrix) -> TwoPointMatrix:
    """C2_ij = <c†_i c_j> of a pure state or density matrix."""
    if isinstance(state, StateVector):
        return TwoPointMatrix(_two_point_pure(state, state.basis.mode_count))
    n = state.basis.mode_count
    c2 = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(i, n):
            val = _trace_chain(state, ((i, "create"), (j, "annihilate")))
            c2[i, j] = val
            c2[j, i] = np.conj(val)
    return TwoPointMatrix(c2)


def measure_four_point_connected(
    state: StateVector | DensityMatrix,
    two_point: TwoPointMatrix | None = None,
) -> FourPointTensor:
    """Connected C4 with the Gaussian (Wick) part subtracted.

    On a pure state only the leading modes that ``two_point`` spans are lowered.
    """
    c2 = (two_point or measure_two_point(state)).entries
    n = c2.shape[0]
    raw = np.zeros((n, n, n, n), dtype=np.complex128)
    if isinstance(state, StateVector):
        sector = state.basis.sector
        if sector is None or sector >= 2:
            # d[a, b] = c_a c_b |psi>, sized by the first doubly lowered vector
            d = None
            for b, vb in enumerate(_annihilated_vectors(state, n)):
                inner = _annihilated_vectors(vb, n)
                if d is None:
                    d = np.zeros((n, n, inner[0].basis.dim), dtype=np.complex128)
                for a in range(n):
                    if a != b:
                        d[a, b] = inner[a].amplitudes
            # <c†_i c†_j c_k c_l> = <(c_j c_i) psi | (c_k c_l) psi>
            raw = np.einsum("jix,klx->ijkl", d.conj(), d)
    else:
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                for k in range(n):
                    for l in range(k + 1, n):
                        val = _trace_chain(
                            state,
                            ((i, "create"), (j, "create"),
                             (k, "annihilate"), (l, "annihilate")),
                        )
                        raw[i, j, k, l] = val
                        raw[i, j, l, k] = -val
    connected = (
        raw
        - np.einsum("il,jk->ijkl", c2, c2)
        + np.einsum("ik,jl->ijkl", c2, c2)
    )
    return FourPointTensor(connected)


def subsystem_correlations(psi: StateVector, n_keep: int):
    """C2 and connected C4 of a pure state on its leading ``n_keep`` modes.

    Moments whose indices all lie in the subsystem equal the reduced-state
    moments, so they come straight from ``psi`` without a density matrix.
    """
    if not 0 < n_keep <= psi.basis.mode_count:
        raise DomainError(f"cannot keep {n_keep} of {psi.basis.mode_count} modes")
    c2 = TwoPointMatrix(_two_point_pure(psi, n_keep))
    return c2, measure_four_point_connected(psi, c2)


@dataclass
class DiagonalFrame:
    """Unitary frame in which C2 is diagonal.

    ``rotation`` holds the eigenvectors as columns, ordered by descending
    occupation; frame annihilators are d_p = sum_b rotation[b, p] c_b.
    ``occupations`` are the eigenvalues clamped into (clamp, 1 - clamp) so
    entanglement-Hamiltonian logs stay finite.
    """

    rotation: np.ndarray
    occupations: np.ndarray
    clamp: float = OCCUPATION_CLAMP

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


def diagonalize_two_point(
    c2: TwoPointMatrix, clamp: float = OCCUPATION_CLAMP
) -> DiagonalFrame:
    """Eigen-frame of C2 with a deterministic ordering.

    Ties in the occupation spectrum are broken lexicographically on the
    rounded eigenvector entries, and each eigenvector's global phase is
    fixed by making its largest-magnitude entry real positive, so repeated
    runs produce bit-identical frames.
    """
    if not 0.0 < clamp < 0.5:
        raise DomainError(f"occupation clamp {clamp} outside (0, 0.5)")
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
    g = np.clip(w, clamp, 1.0 - clamp)
    return DiagonalFrame(rotation=v, occupations=g, clamp=clamp)


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


def save_correlations(
    path: str,
    c2: TwoPointMatrix,
    c4: FourPointTensor | None = None,
    provenance: dict | None = None,
):
    """Write correlations as JSON with [re, im] pairs and a convention header."""
    doc = {
        "header": serialize.make_header(
            "correlations",
            c2.n_modes,
            tolerances={
                "hermiticity": HERMITICITY_TOL,
                "occupation_clamp": OCCUPATION_CLAMP,
            },
            provenance=provenance,
        ),
        "two_point": serialize.complex_to_nested(c2.entries),
    }
    if c4 is not None:
        if c4.n_modes != c2.n_modes:
            raise DomainError("C2/C4 mode counts differ")
        doc["four_point"] = serialize.complex_to_nested(c4.entries)
    serialize.dump_json(path, doc)


def load_correlations(path: str):
    """Read back (TwoPointMatrix, FourPointTensor | None, header)."""
    doc = serialize.load_json(path)
    header = doc["header"]
    serialize.check_header(header, "correlations")
    n = header["n_modes"]
    c2 = TwoPointMatrix(serialize.nested_to_complex(doc["two_point"], (n, n)))
    c4 = None
    if "four_point" in doc:
        c4 = FourPointTensor(
            serialize.nested_to_complex(doc["four_point"], (n, n, n, n))
        )
    return c2, c4, header
