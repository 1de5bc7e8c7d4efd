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

``scipy.linalg`` is imported inside :func:`mode_rotation_unitary`, the
one function here that calls it, so the stages that import this module
only for its loaders never load it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import fock
from .correlations import (
    DiagonalFrame,
    FourPointTensor,
    TwoPointMatrix,
    diagonalize_two_point,
    rotate_four_point,
)
from .fock import DensityMatrix, DomainError, FockBasis, dagger, popcount, quadratic_operator

ANSATZ_WARN_THRESHOLD = 0.1


class AnsatzValidityWarning(UserWarning):
    """The four-point tensor is large enough to strain the linear ansatz."""


def _f_table(n_modes: int, g: np.ndarray) -> np.ndarray:
    """f_p = n_p g_p + (1 - n_p)(1 - g_p) for every unfiltered basis state (rows)."""
    occ = fock._hop_tables(n_modes, None, None)[0]
    return occ * g[..., None, :] + (1.0 - occ) * (1.0 - g[..., None, :])


@dataclass
class GaussianState:
    """Gaussian reference state (or a stack), diagonal in its frame's Fock basis."""

    frame: DiagonalFrame
    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != self.frame.occupations.shape[:-1] + (1 << self.frame.n_modes,):
            raise DomainError("weight vector does not match frame dimension")
        if not np.all(np.abs(self.weights.sum(axis=-1) - 1.0) <= 1e-12):
            raise DomainError("gaussian weights do not sum to one")

    @property
    def basis(self) -> FockBasis:
        return FockBasis(self.frame.n_modes)


def gaussian_state(frame: DiagonalFrame) -> GaussianState:
    weights = _f_table(frame.n_modes, frame.occupations).prod(axis=-1)
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
    """Additive non-Gaussian correction (or a stack) in the frame basis."""

    frame: DiagonalFrame
    elements: np.ndarray

    def __post_init__(self):
        self.elements = np.asarray(self.elements, dtype=np.complex128)
        dim = 1 << self.frame.n_modes
        if self.elements.shape != self.frame.occupations.shape[:-1] + (dim, dim):
            raise DomainError("correction shape does not match frame dimension")


def _between_mask(lo: int, hi: int) -> int:
    """Bit mask of modes strictly between lo and hi (lo < hi)."""
    return ((1 << hi) - 1) & ~((1 << (lo + 1)) - 1)


def delta_rho(
    c4_frame: FourPointTensor,
    frame: DiagonalFrame,
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

    # written as "not <=" so that a NaN element fails both checks
    if not np.abs(delta - delta.conj().T).max() <= 1e-12:
        raise DomainError("constructed correction is not Hermitian")
    if not abs(np.trace(delta)) <= 1e-12:
        raise DomainError("constructed correction is not traceless")
    return NonGaussianCorrection(frame=frame, elements=delta)


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
    """Euclidean projection of a real vector (each along the last axis) onto the simplex."""
    v = np.asarray(values, dtype=float)
    u = np.flip(np.sort(v, axis=-1), axis=-1)
    css = np.cumsum(u, axis=-1)
    j = np.arange(1, v.shape[-1] + 1)
    feasible = u + (1.0 - css) / j > 0
    k = v.shape[-1] - np.argmax(np.flip(feasible, axis=-1), axis=-1)[..., None]
    shift = (1.0 - np.take_along_axis(css, k - 1, axis=-1)) / k
    return np.maximum(v + shift, 0.0)


def project_positive(rho: np.ndarray):
    """Closest density matrix (of each of a stack): project the spectrum onto the simplex.

    Returns (matrix, w, w_proj): the projected matrix and the ascending
    eigenvalues of the Hermitian part of ``rho`` before and after the
    projection, read from one ``eigh``.  Eigenvectors are untouched, so
    operators diagonal in the same basis stay diagonal in it.
    """
    herm = 0.5 * (rho + dagger(rho))
    w, v = np.linalg.eigh(herm)
    w_proj = project_to_simplex(w)
    out = (v * w_proj[..., None, :]) @ dagger(v)
    return 0.5 * (out + dagger(out)), w, w_proj


def mode_rotation_unitary(frame: DiagonalFrame) -> np.ndarray:
    """Many-body unitary implementing the frame rotation on Fock space.

    Frame creators are d†_p = sum_b conj(rotation[b, p]) c†_b, so with
    h = log(conj(rotation)) the unitary U = exp(sum_ab h_ab c†_a c_b)
    satisfies U c†_p U† = d†_p: it carries a Fock pattern over the
    physical modes to the same pattern over the frame modes, and a state
    expressed in the frame basis to U rho U† in the physical one.
    Built block by block over particle-number sectors.
    """
    import scipy.linalg

    v = frame.rotation.conj()
    n = frame.n_modes
    h = scipy.linalg.logm(v)
    h = 0.5 * (h - h.conj().T)
    # written as "not <=": logm returns NaN when it fails, and NaN must fail
    if not np.abs(scipy.linalg.expm(h) - v).max() <= 1e-10:
        raise DomainError("matrix logarithm failed to invert the rotation")
    dim = 1 << n
    u = np.zeros((dim, dim), dtype=np.complex128)
    for sector in range(n + 1):
        sec = FockBasis(n, sector)
        # the unfiltered basis indexes each state by its own bits
        u[np.ix_(sec.states, sec.states)] = scipy.linalg.expm(quadratic_operator(sec, h))
    defect = np.abs(u.conj().T @ u - np.eye(dim)).max()
    if not defect <= 1e-10:
        raise DomainError(f"frame unitary defect {defect:.2e}")
    return u


@dataclass
class ReconstructedState:
    """Reconstruction output: Gaussian part, correction, and combinations.

    ``assembled`` and ``projected`` live in the physical mode basis, with
    their ascending eigenvalues alongside; ``gaussian`` and ``correction``
    keep their natural frame-diagonal representation, so the Gaussian
    state's eigenvalues are its weights; ``strained`` flags a large rotated C4.
    """

    frame: DiagonalFrame
    gaussian: GaussianState
    correction: NonGaussianCorrection
    assembled: DensityMatrix
    projected: DensityMatrix
    assembled_eigenvalues: np.ndarray
    projected_eigenvalues: np.ndarray
    strained: np.ndarray


def reconstruct_state(
    c2: TwoPointMatrix,
    c4: FourPointTensor,
) -> ReconstructedState:
    """Full pipeline over a stack of records: frame, Gaussian reference,
    correction, projection.  Warns if any record is strained."""
    c4.validate()
    frame = diagonalize_two_point(c2)
    gauss = gaussian_state(frame)
    stack, dim = gauss.weights.shape[:-1], gauss.weights.shape[-1]
    if c4.entries.shape[:-4] != stack:
        raise DomainError("C2 and C4 stacks differ")
    elements = np.empty(stack + (dim, dim), dtype=np.complex128)
    u = np.empty_like(elements)
    strained = np.empty(stack, dtype=bool)
    for index in np.ndindex(stack):
        record = frame[index]
        c4_frame = rotate_four_point(FourPointTensor(c4.entries[index]), record)
        strained[index] = c4_frame.max_abs() > ANSATZ_WARN_THRESHOLD
        elements[index] = delta_rho(c4_frame, record).elements
        u[index] = mode_rotation_unitary(record)
    if strained.any():
        warnings.warn(f"{strained.sum()} record(s) with max |C~4| above {ANSATZ_WARN_THRESHOLD}; "
                      "the linear ansatz may be strained", AnsatzValidityWarning, stacklevel=2)
    assembled = u @ (gauss.weights[..., None] * np.eye(dim) + elements) @ dagger(u)
    assembled = 0.5 * (assembled + dagger(assembled))
    projected, w, w_proj = project_positive(assembled)
    basis = FockBasis(frame.n_modes)
    return ReconstructedState(frame, gauss, NonGaussianCorrection(frame, elements),
                              DensityMatrix(basis, assembled), DensityMatrix(basis, projected),
                              w, w_proj, strained)
