"""Density-matrix reconstruction from two- and four-point correlations.

The reconstruction is a perturbative ansatz around the Gaussian state
fixed by C2.  In the frame where C2 is diagonal with occupations g_p the
Gaussian reference is diagonal,

    rho_g = prod_p [ g_p n_p + (1 - g_p)(1 - n_p) ],

and the connected four-point tensor C~4 (rotated into the same frame)
feeds an additive correction delta_rho whose matrix elements connect
occupation patterns of Hamming distance 0, 2 and 4:

  dH = 0:  rho_g,nn * 1/2 sum_ij (-1)^{n_i + n_j} C~4_ijji / (f_i f_j)
  dH = 2:  rho_g,nn * sum_i (-1)^{n_i + phi(j,k;n)} C~4_ijik / (f_i f_j f_k)
           for the particle moved from mode j (occupied in the column
           pattern) to mode k
  dH = 4:  -rho_g,nn * (-1)^{phi(i,j;{k,l},n) + phi(k,l;{i,j},n)}
           * C~4_ijkl / (f_i f_j f_k f_l)   for the pair {i,j} -> {k,l}
           (i < j vacated, k < l filled)

with f_p = n_p g_p + (1 - n_p)(1 - g_p) evaluated on the column pattern
and phi counting occupied modes strictly between two indices (skipping the
excluded ones).  Every phase here, including the leading minus of the pair
moves, is forced by one requirement: re-measuring C2 and C4 on the
assembled state must return the inputs exactly under the descending-order
string convention.  By construction rho_g + delta_rho is then Hermitian,
has unit trace, and reproduces both C2 and C~4.

:func:`delta_rho` reads these signs from cached ``fock.ladder_map``
tables: that of the hop c†_k c_j for single moves and of c†_k c†_l c_j c_i
for pair moves.  The same correction decomposes into elementary terms I1
(diagonal), I2 (single moves) and I3 (pair moves) with delta_rho =
2*sum I1 + 4*sum I2 + sum I3; :func:`delta_rho_decomposed` builds the three
partial sums by looping over tensor indices and counting phi from bit
masks, an independent cross-check of all combinatorial phases.

Because the ansatz is linear in C~4 it can leave small negative
eigenvalues; :func:`project_positive` maps the spectrum to the closest
probability distribution (Euclidean projection onto the simplex) while
keeping the eigenbasis.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import fock, serialize
from .correlations import (
    OCCUPATION_CLAMP,
    DiagonalFrame,
    FourPointTensor,
    TwoPointMatrix,
    diagonalize_two_point,
    rotate_four_point,
)
from .fock import DensityMatrix, DomainError, FockBasis, popcount, quadratic_operator

ANSATZ_WARN_THRESHOLD = 0.1


class AnsatzValidityWarning(UserWarning):
    """The four-point tensor is large enough to strain the linear ansatz."""


def _f_table(n_modes: int, g: np.ndarray) -> np.ndarray:
    """f_p = n_p g_p + (1 - n_p)(1 - g_p) for every unfiltered basis state (rows)."""
    occ = fock._hop_tables(n_modes, None, None)[0]
    return occ * g[None, :] + (1.0 - occ) * (1.0 - g[None, :])


@dataclass
class GaussianState:
    """Gaussian reference state, diagonal in its frame's Fock basis."""

    frame: DiagonalFrame
    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (1 << self.frame.n_modes,):
            raise DomainError("weight vector does not match frame dimension")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise DomainError("gaussian weights do not sum to one")

    @property
    def basis(self) -> FockBasis:
        return FockBasis(self.frame.n_modes)


def gaussian_state(frame: DiagonalFrame) -> GaussianState:
    weights = _f_table(frame.n_modes, frame.occupations).prod(axis=1)
    return GaussianState(frame=frame, weights=weights)


def gaussian_eh(c2: TwoPointMatrix | DiagonalFrame) -> np.ndarray:
    """Entanglement Hamiltonian of the Gaussian state, physical mode basis.

    H = sum_ij h_ij c†_i c_j + const with single-particle levels
    log((1-g_p)/g_p) and the constant fixed so Tr exp(-H) = 1.
    """
    frame = c2 if isinstance(c2, DiagonalFrame) else diagonalize_two_point(c2)
    g = frame.occupations
    v = frame.rotation
    levels = np.log((1.0 - g) / g)
    # H = sum_p levels_p d†_p d_p with d†_p = sum_b conj(V_bp) c†_b
    h_sp = ((v * levels[None, :]) @ v.conj().T).conj()
    basis = FockBasis(frame.n_modes)
    const = -np.log(1.0 - g).sum()
    return quadratic_operator(basis, h_sp) + const * np.eye(basis.dim)


@dataclass
class NonGaussianCorrection:
    """Additive non-Gaussian correction in the frame basis."""

    frame: DiagonalFrame
    elements: np.ndarray

    def __post_init__(self):
        self.elements = np.asarray(self.elements, dtype=np.complex128)
        dim = 1 << self.frame.n_modes
        if self.elements.shape != (dim, dim):
            raise DomainError("correction shape does not match frame dimension")

    def hermiticity_defect(self) -> float:
        return float(np.abs(self.elements - self.elements.conj().T).max())

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.elements))


def _between_mask(lo: int, hi: int) -> int:
    """Bit mask of modes strictly between lo and hi (lo < hi)."""
    return ((1 << hi) - 1) & ~((1 << (lo + 1)) - 1)


def delta_rho(
    c4_frame: FourPointTensor,
    frame: DiagonalFrame,
    warn_threshold: float = ANSATZ_WARN_THRESHOLD,
) -> NonGaussianCorrection:
    """Matrix elements of the non-Gaussian correction.

    ``c4_frame`` must already be rotated into ``frame``.  Elements are
    organized by the occupation move connecting column pattern n to row
    pattern m; coincident-index combinations drop out through the
    antisymmetry zeros of the tensor itself.
    """
    t = c4_frame.entries
    n_modes = frame.n_modes
    if t.shape[0] != n_modes:
        raise DomainError("tensor and frame mode counts differ")
    if np.abs(t).max() > warn_threshold:
        warnings.warn(
            f"max |C~4| = {np.abs(t).max():.3g} exceeds {warn_threshold}; "
            "the linear ansatz may be strained",
            AnsatzValidityWarning,
            stacklevel=2,
        )
    occ, k, j, rows, cols, signs, _ = fock._hop_tables(n_modes, None, None)
    f = _f_table(n_modes, frame.occupations)
    w = f.prod(axis=1)
    delta = np.zeros((w.size, w.size), dtype=np.complex128)

    # dH = 0: quadratic form in (-1)^{n_p} / f_p with kernel C~4_ijji.
    # Coincident-index entries vanish by antisymmetry but carry float
    # noise that the 1/f^2 factors of near-pure modes would amplify, so
    # they are zeroed structurally rather than trusted to cancel.
    kernel = np.einsum("ijji->ij", t).copy()
    np.fill_diagonal(kernel, 0.0)
    x = (1.0 - 2.0 * occ) / f
    np.fill_diagonal(delta, 0.5 * w * np.einsum("np,pq,nq->n", x, kernel, x))

    # single moves j -> k: the hop c†_k c_j, weighted by sum_i x_i C~4_ijik
    t2 = np.einsum("ijik->ijk", t).copy()
    modes = np.arange(n_modes)
    t2[modes, modes, :] = t2[modes, :, modes] = 0.0
    inv_f = 1.0 / f
    move = (x @ t2.reshape(n_modes, n_modes * n_modes))[cols, j * n_modes + k]
    # each element takes exactly one move, so += and -= write into zeros
    delta[rows, cols] += w[cols] * signs * move * inv_f[cols, j] * inv_f[cols, k]

    # pair moves {a1 < a2} -> {b1 < b2}; the leading minus is fixed by
    # requiring that the assembled state reproduce the disjoint-index
    # moments under the descending-order string convention
    a1, a2, b1, b2, rows, cols, signs = fock._pair_tables(n_modes)
    delta[rows, cols] -= (w[cols] * signs * t[a1, a2, b1, b2] * inv_f[cols, a1]
                          * inv_f[cols, a2] * inv_f[cols, b1] * inv_f[cols, b2])

    correction = NonGaussianCorrection(frame=frame, elements=delta)
    # written as "not <=" so that a NaN element fails both checks
    if not correction.hermiticity_defect() <= 1e-12:
        raise DomainError("constructed correction is not Hermitian")
    if not abs(correction.trace) <= 1e-12:
        raise DomainError("constructed correction is not traceless")
    return correction


def delta_rho_decomposed(c4_frame: FourPointTensor, frame: DiagonalFrame):
    """Partial sums of the elementary terms I1, I2, I3.

    Loops over tensor indices rather than matrix elements, accumulating

      I1(i,j):     1/4 C~4_ijji (-1)^{n_i+n_j} prod_{p != i,j} f_p   on the
                   diagonal,
      I2(i,j,k):   1/4 C~4_ijik (-1)^{n_i + phi(j,k;{i},n)}
                   prod_{p != i,j,k} f_p   on single moves j -> k,
      I3(i,j,k,l): 1/4 C~4_ijkl (-1)^{phi(i,j;{k,l},n) + phi(k,l;{i,j},n)}
                   sgn(i-j) sgn(k-l) prod_{p not in ijkl} f_p   on pair
                   moves {i,j} -> {k,l},

    so that 2*I1 + 4*I2 + I3 reproduces :func:`delta_rho` exactly.
    """
    t = c4_frame.entries
    n_modes = frame.n_modes
    basis = FockBasis(n_modes)
    f = _f_table(n_modes, frame.occupations)
    states = basis.states
    dim = basis.dim

    def prod_excluding(col, skip):
        out = 1.0
        row = f[col]
        for p in range(n_modes):
            if p not in skip:
                out *= row[p]
        return out

    i1 = np.zeros((dim, dim), dtype=np.complex128)
    i2 = np.zeros((dim, dim), dtype=np.complex128)
    i3 = np.zeros((dim, dim), dtype=np.complex128)

    for col in range(dim):
        bits = int(states[col])
        sign_of = [1.0 - 2.0 * ((bits >> p) & 1) for p in range(n_modes)]

        for i in range(n_modes):
            for j in range(n_modes):
                if i == j:
                    continue
                i1[col, col] += (
                    0.25 * t[i, j, j, i] * sign_of[i] * sign_of[j]
                    * prod_excluding(col, (i, j))
                )

        for j in range(n_modes):
            if not (bits >> j) & 1:
                continue
            for k in range(n_modes):
                if k == j or (bits >> k) & 1:
                    continue
                row = basis.index_of(bits ^ ((1 << j) | (1 << k)))
                lo, hi = (j, k) if j < k else (k, j)
                mask = _between_mask(lo, hi)
                for i in range(n_modes):
                    if i in (j, k):
                        continue
                    phi = popcount(bits & mask)
                    phase = sign_of[i] * (1.0 - 2.0 * (phi & 1))
                    i2[row, col] += (
                        0.25 * t[i, j, i, k] * phase
                        * prod_excluding(col, (i, j, k))
                    )

        for i in range(n_modes):
            if not (bits >> i) & 1:
                continue
            for j in range(n_modes):
                if j == i or not (bits >> j) & 1:
                    continue
                sgn_ij = 1.0 if i > j else -1.0
                for k in range(n_modes):
                    if (bits >> k) & 1:
                        continue
                    for l in range(n_modes):
                        if l == k or (bits >> l) & 1:
                            continue
                        vac = (1 << i) | (1 << j)
                        fill = (1 << k) | (1 << l)
                        row = basis.index_of(bits ^ vac ^ fill)
                        lo, hi = (i, j) if i < j else (j, i)
                        phi = popcount(bits & _between_mask(lo, hi) & ~fill)
                        lo, hi = (k, l) if k < l else (l, k)
                        phi += popcount(bits & _between_mask(lo, hi) & ~vac)
                        sgn_kl = 1.0 if k > l else -1.0
                        phase = (1.0 - 2.0 * (phi & 1)) * sgn_ij * sgn_kl
                        i3[row, col] -= (
                            0.25 * t[i, j, k, l] * phase
                            * prod_excluding(col, (i, j, k, l))
                        )

    return i1, i2, i3


def project_to_simplex(values: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex."""
    v = np.asarray(values, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, v.size + 1)
    feasible = u + (1.0 - css) / j > 0
    k = int(np.nonzero(feasible)[0][-1]) + 1
    shift = (1.0 - css[k - 1]) / k
    return np.maximum(v + shift, 0.0)


def project_positive(rho: np.ndarray | DensityMatrix):
    """Closest density matrix: project the spectrum onto the simplex.

    Eigenvectors are untouched, so operators diagonal in the same basis
    stay diagonal in it.
    """
    mat = rho.elements if isinstance(rho, DensityMatrix) else np.asarray(rho)
    herm = 0.5 * (mat + mat.conj().T)
    w, v = np.linalg.eigh(herm)
    w_proj = project_to_simplex(w)
    out = (v * w_proj[None, :]) @ v.conj().T
    out = 0.5 * (out + out.conj().T)
    if isinstance(rho, DensityMatrix):
        return DensityMatrix(rho.basis, out)
    return out


def mode_rotation_unitary(frame: DiagonalFrame) -> np.ndarray:
    """Many-body unitary implementing the frame rotation on Fock space.

    Frame creators are d†_p = sum_b conj(rotation[b, p]) c†_b, so with
    h = log(conj(rotation)) the unitary U = exp(sum_ab h_ab c†_a c_b)
    satisfies U c†_p U† = d†_p: it carries a Fock pattern over the
    physical modes to the same pattern over the frame modes, and a state
    expressed in the frame basis to U rho U† in the physical one.
    Built block by block over particle-number sectors.
    """
    v = frame.rotation.conj()
    n = frame.n_modes
    h = scipy.linalg.logm(v)
    h = 0.5 * (h - h.conj().T)
    if np.abs(scipy.linalg.expm(h) - v).max() > 1e-10:
        raise DomainError("matrix logarithm failed to invert the rotation")
    dim = 1 << n
    u = np.zeros((dim, dim), dtype=np.complex128)
    for sector in range(n + 1):
        sec = FockBasis(n, sector)
        # the unfiltered basis indexes each state by its own bits
        u[np.ix_(sec.states, sec.states)] = scipy.linalg.expm(quadratic_operator(sec, h))
    defect = np.abs(u.conj().T @ u - np.eye(dim)).max()
    if defect > 1e-10:
        raise DomainError(f"frame unitary defect {defect:.2e}")
    return u


@dataclass
class ReconstructedState:
    """Reconstruction output: Gaussian part, correction, and combinations.

    ``assembled`` and ``projected`` (and ``gaussian_matrix``) live in the
    physical mode basis; ``gaussian`` and ``correction`` keep their natural
    frame-diagonal representation.
    """

    frame: DiagonalFrame
    gaussian: GaussianState
    correction: NonGaussianCorrection
    gaussian_matrix: DensityMatrix
    assembled: DensityMatrix
    projected: DensityMatrix


def reconstruct_state(
    c2: TwoPointMatrix,
    c4: FourPointTensor,
    clamp: float = OCCUPATION_CLAMP,
    warn_threshold: float = ANSATZ_WARN_THRESHOLD,
) -> ReconstructedState:
    """Full pipeline: frame, Gaussian reference, correction, projection."""
    c4.validate()
    frame = diagonalize_two_point(c2, clamp=clamp)
    c4_frame = rotate_four_point(c4, frame)
    gauss = gaussian_state(frame)
    correction = delta_rho(c4_frame, frame, warn_threshold=warn_threshold)
    basis = FockBasis(frame.n_modes)
    u = mode_rotation_unitary(frame)
    gauss_phys = (u * gauss.weights[None, :]) @ u.conj().T
    assembled_frame = np.diag(gauss.weights).astype(complex) + correction.elements
    assembled_phys = u @ assembled_frame @ u.conj().T
    assembled_phys = 0.5 * (assembled_phys + assembled_phys.conj().T)
    projected = project_positive(assembled_phys)
    return ReconstructedState(
        frame=frame,
        gaussian=gauss,
        correction=correction,
        gaussian_matrix=DensityMatrix(basis, gauss_phys),
        assembled=DensityMatrix(basis, assembled_phys),
        projected=DensityMatrix(basis, projected),
    )


def save_density_matrix(path: str, rho: DensityMatrix, provenance: dict | None = None):
    doc = {
        "header": serialize.make_header(
            "state",
            rho.basis.mode_count,
            tolerances={"hermiticity": 1e-12},
            provenance=provenance,
        ),
        "elements": serialize.complex_to_nested(rho.elements),
    }
    serialize.dump_json(path, doc)


def load_density_matrix(path: str) -> tuple[DensityMatrix, dict]:
    doc = serialize.load_json(path)
    header = doc["header"]
    serialize.check_header(header, "state")
    n = header["n_modes"]
    basis = FockBasis(n)
    mat = serialize.nested_to_complex(doc["elements"], (basis.dim, basis.dim))
    return DensityMatrix(basis, mat), header
