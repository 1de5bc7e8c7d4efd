"""Slow, obviously-correct Fock-space helpers that the fast kernels are checked against."""
from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import scipy.sparse

from fermiscope.fock import (
    DensityMatrix,
    DomainError,
    FockBasis,
    OccupationBitstring,
    StateVector,
    ladder_map,
    ladder_matrix,
    popcount,
)
from fermiscope.model import KRYLOV_DIM, MAX_SUBSTEPS, _lanczos_step
from fermiscope.reconstruct import _between_mask


def hamming_distance(m: OccupationBitstring, n: OccupationBitstring) -> int:
    """Number of modes on which the two occupation patterns differ."""
    if m.mode_count != n.mode_count:
        raise DomainError("bitstring lengths differ")
    return popcount(m.bits ^ n.bits)


def occupation_phase(i: int, j: int, excluded, n: OccupationBitstring | int) -> int:
    """Count occupied modes strictly between ``i`` and ``j``, skipping ``excluded``.

    Symmetric in i <-> j.  A mode-by-mode count of the string phases that
    ``reconstruct.delta_rho_decomposed`` takes from ``_between_mask`` bit
    masks.
    """
    if i == j:
        raise DomainError("occupation phase needs two distinct modes")
    bits = n.bits if isinstance(n, OccupationBitstring) else n
    lo, hi = (i, j) if i < j else (j, i)
    total = 0
    for s in range(lo + 1, hi):
        if s not in excluded:
            total += (bits >> s) & 1
    return total


def apply_ladder(state: StateVector, mode: int, kind: str) -> StateVector:
    """Apply c†_mode (``create``) or c_mode (``annihilate``) to a state.

    One basis state at a time: the ladder passes every occupied mode above
    ``mode``.  The result lives in the particle-number sector shifted by
    +/-1 when the input basis is sector-filtered, otherwise in the same
    unfiltered basis.
    """
    basis = state.basis
    if kind not in ("create", "annihilate") or not 0 <= mode < basis.mode_count:
        raise DomainError(f"no ladder {kind!r} on mode {mode}")
    if basis.sector is None:
        target = basis
    else:
        shift = 1 if kind == "create" else -1
        target = FockBasis(basis.mode_count, basis.sector + shift)
    out = np.zeros(target.dim, dtype=np.complex128)
    for k, amp in enumerate(state.amplitudes):
        n = basis.state(k)
        if n.occupation(mode) == (kind == "create"):
            continue  # the ladder kills this state
        sign = -1 if popcount(n.bits >> (mode + 1)) % 2 else 1
        out[target.index_of(n.bits ^ (1 << mode))] += sign * amp
    return StateVector(target, out)


def expectation_chain(state: StateVector, ops) -> complex:
    """<psi| O_1 O_2 ... O_k |psi> for a chain of (mode, kind) ladder ops.

    Ops are listed left to right as written, i.e. the last one acts first.
    """
    ket = state
    for mode, kind in reversed(ops):
        ket = apply_ladder(ket, mode, kind)
    if ket.basis is state.basis or ket.basis.sector == state.basis.sector:
        return complex(np.vdot(state.amplitudes, ket.amplitudes))
    return 0.0


def trace_chain_dense(rho, ops) -> complex:
    """Tr[rho O_1 ... O_k] from dense ladder matrices on the unfiltered basis."""
    prod = np.eye(rho.basis.dim, dtype=np.complex128)
    for mode, kind in ops:
        prod = prod @ ladder_matrix(rho.basis, mode, kind)
    return complex(np.trace(rho.elements @ prod))


def _parity(bits: np.ndarray) -> np.ndarray:
    return 1.0 - 2.0 * (np.bitwise_count(bits.astype(np.uint64)) & 1).astype(float)


def quadratic_operator_loop(basis: FockBasis, h: np.ndarray) -> np.ndarray:
    """sum_ij h_ij c†_i c_j by a loop over (j, i) hops, skipping h_ij == 0."""
    n = basis.mode_count
    dim = basis.dim
    out = np.zeros((dim, dim), dtype=np.complex128)
    bits = basis.states
    occ = ((bits[:, None] >> np.arange(n)[None, :]) & 1).astype(float)
    out[np.arange(dim), np.arange(dim)] = occ @ np.diag(h).astype(complex)
    for j in range(n):
        ann = np.nonzero((bits >> j) & 1)[0]
        removed = bits[ann] & ~(1 << j)
        sign_j = _parity(bits[ann] >> (j + 1))
        for i in range(n):
            if i == j or h[i, j] == 0:
                continue
            ok = ((removed >> i) & 1) == 0
            mid = removed[ok]
            rows = basis.indices_of(mid | (1 << i))
            out[rows, ann[ok]] += h[i, j] * sign_j[ok] * _parity(mid >> (i + 1))
    return out


def trace_chain_walk(rho, ops) -> complex:
    """Tr[rho O_1 ... O_k] by walking the chain over the basis bit patterns."""
    basis = rho.basis
    bits = basis.states.copy()
    signs = np.ones(basis.dim)
    alive = np.ones(basis.dim, dtype=bool)
    for mode, kind in reversed(ops):
        occ = (bits >> mode) & 1
        alive &= (occ == 0) if kind == "create" else (occ == 1)
        signs = np.where(_parity(bits >> (mode + 1)) < 0, -signs, signs)
        bits = bits | (1 << mode) if kind == "create" else bits & ~(1 << mode)
    cols = np.nonzero(alive)[0]
    if cols.size == 0:
        return 0.0
    rows = basis.indices_of(bits[cols])
    return complex(np.sum(signs[cols] * rho.elements[cols, rows]))


def same_bits(a, b) -> bool:
    """Equal arrays down to the sign of every zero."""
    a = np.ascontiguousarray(np.atleast_1d(np.asarray(a, dtype=complex)))
    b = np.ascontiguousarray(np.atleast_1d(np.asarray(b, dtype=complex)))
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def delta_rho_loop(c4_frame, frame) -> np.ndarray:
    """Elements of ``reconstruct.delta_rho`` by a loop over column states.

    Every single move j -> k and pair move {a1 < a2} -> {b1 < b2} of each
    column pattern is visited in turn, and its string phase is counted
    from ``_between_mask`` bit masks rather than read from a ladder table.
    """
    t = c4_frame.entries
    n_modes = frame.n_modes
    basis = FockBasis(n_modes)
    g = frame.occupations
    occ = ((basis.states[:, None] >> np.arange(n_modes)[None, :]) & 1).astype(float)
    f = occ * g[None, :] + (1.0 - occ) * (1.0 - g[None, :])
    w = f.prod(axis=1)
    delta = np.zeros((basis.dim, basis.dim), dtype=np.complex128)

    kernel = np.einsum("ijji->ij", t).copy()
    np.fill_diagonal(kernel, 0.0)
    x = (1.0 - 2.0 * occ) / f
    np.fill_diagonal(delta, 0.5 * w * np.einsum("np,pq,nq->n", x, kernel, x))

    t2 = np.einsum("ijik->ijk", t).copy()
    for p in range(n_modes):
        t2[p, p, :] = 0.0
        t2[p, :, p] = 0.0
    for col in range(basis.dim):
        bits = int(basis.states[col])
        inv_f = 1.0 / f[col]
        x_col = x[col]
        w_col = w[col]
        occupied = [p for p in range(n_modes) if (bits >> p) & 1]
        empty = [p for p in range(n_modes) if not (bits >> p) & 1]

        for j in occupied:
            for k in empty:
                lo, hi = (j, k) if j < k else (k, j)
                base = 1.0 - 2.0 * (popcount(bits & _between_mask(lo, hi)) & 1)
                move_sum = x_col @ t2[:, j, k]
                row = basis.index_of(bits ^ ((1 << j) | (1 << k)))
                delta[row, col] += w_col * base * move_sum * inv_f[j] * inv_f[k]

        for a1, a2 in combinations(occupied, 2):
            vac = (1 << a1) | (1 << a2)
            for b1, b2 in combinations(empty, 2):
                fill = (1 << b1) | (1 << b2)
                phi = popcount(bits & _between_mask(a1, a2) & ~fill)
                phi += popcount(bits & _between_mask(b1, b2) & ~vac)
                phase = 1.0 - 2.0 * (phi & 1)
                row = basis.index_of(bits ^ vac ^ fill)
                delta[row, col] -= (
                    w_col * phase * t[a1, a2, b1, b2]
                    * inv_f[a1] * inv_f[a2] * inv_f[b1] * inv_f[b2]
                )
    return delta


def rotation_matrix_sparse(basis: FockBasis, rot) -> scipy.sparse.csr_matrix:
    """Sparse unitary of one tunneling rotation with exact string signs.

    The generator squares to 1/4 on each partner doublet, so the block
    closed form exp(-i t S) = cos(t/2) - i sin(t/2) (2S) is exact.
    """
    i, j = rot.pair
    target, sel, partner, sign = ladder_map(basis, ((j, "create"), (i, "annihilate")))
    if target is not basis and sel.size:
        raise DomainError("rotation partner states fall outside the basis")
    c = math.cos(0.5 * rot.angle)
    s = math.sin(0.5 * rot.angle)
    diag = np.ones(basis.dim, dtype=np.complex128)
    diag[sel] = c
    diag[partner] = c
    rows = [np.arange(basis.dim), partner, sel]
    cols = [np.arange(basis.dim), sel, partner]
    if rot.axis == "x":
        # 2S^x doublet element is the string sign on both corners
        data = [diag, -1j * s * sign, -1j * s * sign]
    else:
        # 2S^y doublet is [[0, -i sgn], [+i sgn, 0]] with row/col order
        # (i occupied, j occupied); multiplying by -i makes it real
        data = [diag, s * sign, -s * sign]
    mat = scipy.sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(basis.dim, basis.dim),
    )
    return mat.tocsr()


def apply_rotation_sparse(state: DensityMatrix, rot) -> DensityMatrix:
    """U rho U+ as two sparse-dense products with the sparse unitary."""
    u = rotation_matrix_sparse(state.basis, rot)
    return DensityMatrix(state.basis, u @ state.elements @ u.conj().T)


def evolve_krylov_full(psi: StateVector, ham, t: float, tol: float = 1e-10) -> StateVector:
    """exp(-i H t) |psi> by Krylov substeps over the whole sector.

    The loop ``model.evolve`` ran before it stepped each 2*Sz block on its
    own: one Krylov space for the whole state, renormalized to unit norm.
    """
    if t == 0.0:
        return StateVector(psi.basis, psi.amplitudes.copy())
    y = psi.amplitudes.copy()
    total = abs(t)
    remaining = float(t)
    dt = remaining
    for _ in range(MAX_SUBSTEPS):
        if abs(remaining) <= 1e-15 * total:
            break
        if abs(dt) > abs(remaining):
            dt = remaining
        y_try, err = _lanczos_step(ham.matrix, y, dt, KRYLOV_DIM)
        if err <= tol * abs(dt) / total:
            y = y_try
            remaining -= dt
            dt *= 1.5
        else:
            dt *= 0.5
            if abs(dt) < 1e-12 * total:
                raise RuntimeError(f"step size collapsed at residual {err:.2e}")
    else:
        raise RuntimeError(f"did not finish within {MAX_SUBSTEPS} substeps")
    norm = np.linalg.norm(y)
    if abs(norm - 1.0) > 1e-8:
        raise RuntimeError(f"norm drifted to {norm}")
    return StateVector(psi.basis, y / norm)
