"""Slow, obviously-correct Fock-space helpers that the fast kernels are checked against."""
from __future__ import annotations

import math
import warnings
from itertools import combinations

import numpy as np
import scipy.linalg
import scipy.sparse

from fermiscope.fock import (
    DensityMatrix,
    DomainError,
    FockBasis,
    OccupationBitstring,
    StateVector,
    _chain_table,
    ladder_map,
    ladder_matrix,
    popcount,
)
from fermiscope.correlations import (
    OCCUPATION_CLAMP,
    DiagonalFrame,
    FourPointTensor,
    TwoPointMatrix,
    _trace_chain,
    connected_four_point,
    measure_four_point_connected,
    measure_two_point,
    rotate_four_point,
)
from fermiscope.entanglement import (
    BOOTSTRAP_RESAMPLES,
    DEFAULT_ERROR_INDICES,
    DEGENERACY_TOL,
    HISTOGRAM_BINS,
    EntanglementSpectrum,
    GapStatistics,
    SectorLabel,
    _casimir_to_spin,
    _check_bootstrap,
    _pooled_statistics,
    _sector_basis,
    eigenvalue_spectrum,
    entanglement_spectrum,
    non_gaussianity,
    sector_spectra,
    spectral_error,
)
from fermiscope.measure import CoverageError, apply_rotation
from fermiscope.model import (
    EvolutionError,
    HubbardParams,
    _bessel_series,
    hopping_bonds,
    mode_index,
    number_diagonal,
    sz_twice_diagonal,
)
from fermiscope.reconstruct import (
    ANSATZ_WARN_THRESHOLD,
    AnsatzValidityWarning,
    _between_mask,
    _f_table,
    delta_rho,
    mode_rotation_unitary,
    reconstruct_state,
)


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
        target, cols, rows, signs = _chain_table(
            basis.mode_count, basis.sector, basis.sz_twice, ((j, "annihilate"),))
        vec = np.zeros(target.dim, dtype=np.complex128)
        vec[rows] = signs * psi.amplitudes[cols]
        out.append(StateVector(target, vec))
    return out


def subsystem_correlations_two_pass(psi: StateVector, n: int):
    """(C2, connected C4) arrays of ``psi`` on its leading ``n`` modes, lowering
    ``psi`` once for C2 and once more for C4, one ``StateVector`` per mode."""
    lowered = _annihilated_vectors(psi, n)
    c2 = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        if lowered[i] is None:
            continue
        for j in range(i, n):
            val = np.vdot(lowered[i].amplitudes, lowered[j].amplitudes)
            c2[i, j] = val
            c2[j, i] = np.conj(val)
    raw = np.zeros((n, n, n, n), dtype=np.complex128)
    sector = psi.basis.sector
    if sector is None or sector >= 2:
        # d[a, b] = c_a c_b |psi>, sized by the first doubly lowered vector
        d = None
        for b, vb in enumerate(_annihilated_vectors(psi, n)):
            inner = _annihilated_vectors(vb, n)
            if d is None:
                d = np.zeros((n, n, inner[0].basis.dim), dtype=np.complex128)
            for a in range(n):
                if a != b:
                    d[a, b] = inner[a].amplitudes
        # <c†_i c†_j c_k c_l> = <(c_j c_i) psi | (c_k c_l) psi>
        raw = np.einsum("jix,klx->ijkl", d.conj(), d)
    connected = (raw
                 - np.einsum("il,jk->ijkl", c2, c2)
                 + np.einsum("ik,jl->ijkl", c2, c2))
    return c2, connected


def four_point_all_orders(rho: DensityMatrix, c2: np.ndarray) -> np.ndarray:
    """Connected C4 of ``rho`` tracing every chain with i != j and k < l."""
    n = c2.shape[0]
    raw = np.zeros((n, n, n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for k in range(n):
                for l in range(k + 1, n):
                    val = _trace_chain(rho, ((i, "create"), (j, "create"),
                                             (k, "annihilate"), (l, "annihilate")))
                    raw[i, j, k, l] = val
                    raw[i, j, l, k] = -val
    return (raw
            - np.einsum("il,jk->ijkl", c2, c2)
            + np.einsum("ik,jl->ijkl", c2, c2))


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


def partial_trace_loop(psi: StateVector, keep_modes: int) -> DensityMatrix:
    """``fock.partial_trace`` by one outer product per environment pattern.

    Groups the basis states by their environment bits and adds each
    group's outer product into the reduced state in ascending environment
    order, starting from +0.
    """
    basis = psi.basis
    sub = FockBasis(keep_modes)
    a_bits = basis.states & ((1 << keep_modes) - 1)
    env = basis.states >> keep_modes
    rho = np.zeros((sub.dim, sub.dim), dtype=np.complex128)
    order = np.argsort(env, kind="stable")
    cuts = np.nonzero(np.diff(env[order]))[0] + 1
    for grp in np.split(order, cuts):
        idx = a_bits[grp]
        amps = psi.amplitudes[grp]
        rho[np.ix_(idx, idx)] += np.outer(amps, amps.conj())
    return DensityMatrix(sub, rho)


def enumerate_states_loop(mode_count, sector, sz_twice) -> np.ndarray:
    """Sorted basis states from one ``combinations`` pattern and one ``sum`` each."""
    if sector is None:
        return np.arange(1 << mode_count, dtype=np.int64)
    if sz_twice is None:
        states = [
            sum(1 << p for p in occ)
            for occ in combinations(range(mode_count), sector)
        ]
        return np.array(sorted(states), dtype=np.int64)
    # spinful layout: even bits = spin up, odd bits = spin down
    sites = mode_count // 2
    n_up = (sector + sz_twice) // 2
    n_dn = (sector - sz_twice) // 2
    if (sector + sz_twice) % 2 or not (0 <= n_up <= sites and 0 <= n_dn <= sites):
        return np.array([], dtype=np.int64)
    states = []
    for up in combinations(range(sites), n_up):
        up_bits = sum(1 << (2 * p) for p in up)
        for dn in combinations(range(sites), n_dn):
            states.append(up_bits + sum(1 << (2 * p + 1) for p in dn))
    return np.array(sorted(states), dtype=np.int64)


def hop_matrix(basis: FockBasis, i: int, j: int) -> scipy.sparse.coo_matrix:
    """Sparse c†_i c_j from ``basis`` into the basis it lands in (i != j)."""
    if i == j:
        raise DomainError("use diagonal occupations for i == j")
    target, cols, rows, signs = _chain_table(
        basis.mode_count, basis.sector, basis.sz_twice, ((i, "create"), (j, "annihilate")))
    return scipy.sparse.coo_matrix(
        (signs.astype(np.complex128), (rows, cols)), shape=(target.dim, basis.dim))


def hamiltonian_sparse_sum(params: HubbardParams, basis: FockBasis) -> scipy.sparse.csr_matrix:
    """H on ``basis`` as the literal sum of sparse hop terms, conjugates and diagonal."""
    dim = basis.dim
    total = scipy.sparse.coo_matrix((dim, dim), dtype=np.complex128)
    for to_site, from_site, amp in hopping_bonds(params):
        if amp == 0.0:
            continue
        for spin in (0, 1):
            i, j = mode_index(to_site, spin), mode_index(from_site, spin)
            term = hop_matrix(basis, i, j)
            total = total + amp * term + amp * term.conj().T
    bits = basis.states
    double_occ = np.zeros(dim)
    for l in range(params.sites):
        double_occ += ((bits >> (2 * l)) & 1) * ((bits >> (2 * l + 1)) & 1)
    total = total + scipy.sparse.diags(params.interaction * double_occ)
    return total.tocsr()


def hamiltonian_csr(ham) -> scipy.sparse.csr_matrix:
    """Canonical CSR matrix of a ``model.Hamiltonian``'s table, exact zeros removed."""
    matrix = scipy.sparse.csr_matrix((ham.values.astype(np.complex128), (
        ham.rows, ham.cols)), shape=(ham.basis.dim,) * 2)
    matrix.eliminate_zeros()
    return matrix


def chebyshev_csr(ham, sz_twice: int, y: np.ndarray, t: float) -> np.ndarray:
    """``model._chebyshev`` on one 2*Sz block, stepped on the CSR slice of H.

    The Gershgorin bound is recomputed from the block, and the series
    multiplies by the scipy matrix (H - c) * 2/a.
    """
    idx = np.flatnonzero(sz_twice_diagonal(ham.basis) == sz_twice)
    matrix = hamiltonian_csr(ham)[idx][:, idx]
    diag = matrix.diagonal().real
    radius = np.asarray(abs(matrix).sum(axis=1)).ravel() - np.abs(diag)
    lo, hi = (diag - radius).min(), (diag + radius).max()
    center, half = (hi + lo) / 2.0, (hi - lo) / 2.0
    if half == 0.0:
        return np.exp(-1j * center * t) * y
    coef = _bessel_series(half * t).astype(np.complex128)
    coef *= (-1j) ** np.arange(coef.size)
    coef[1:] *= 2.0
    twice = (matrix - center * scipy.sparse.identity(matrix.shape[0])) * (2.0 / half)
    prev, cur = y, 0.5 * (twice @ y)
    out = coef[0] * prev + coef[1] * cur
    for c in coef[2:]:
        prev, cur = cur, twice @ cur - prev
        out += c * cur
    norm0, norm = np.linalg.norm(y), np.linalg.norm(out)
    if abs(norm - norm0) > 1e-8 * norm0:
        raise EvolutionError(f"norm drifted from {norm0} to {norm}")
    return out * (np.exp(-1j * center * t) * norm0 / norm)


def spin_raising(basis: FockBasis) -> scipy.sparse.csr_matrix:
    """Sparse S+ = sum_l c†_{l,up} c_{l,down}; lands in 2*Sz + 2 on a fixed-Sz basis."""
    return sum(hop_matrix(basis, mode_index(l, 0), mode_index(l, 1))
               for l in range(basis.mode_count // 2)).tocsr()


def spin_squared(basis: FockBasis) -> scipy.sparse.csr_matrix:
    """Total S^2 = S- S+ + Sz (Sz + 1) on any basis, as a sum of sparse matrices."""
    splus = spin_raising(basis)
    sz = sz_twice_diagonal(basis) / 2.0
    return (splus.conj().T @ splus
            + scipy.sparse.diags(sz * (sz + 1.0))).tocsr()


def sector_basis_sparse(mode_count: int):
    """``entanglement._sector_basis`` from the sparse S^2 of the whole space.

    Checks that S^2 couples no two (N, 2*Sz) pairs, then diagonalizes the
    symmetrized dense slice of each (n, m) block.
    """
    basis = FockBasis(mode_count)
    n_diag = number_diagonal(basis)
    sz2 = sz_twice_diagonal(basis)
    s2 = spin_squared(basis).tocoo()
    rows, cols = s2.row, s2.col
    assert np.all(n_diag[rows] == n_diag[cols]) and np.all(sz2[rows] == sz2[cols])
    s2 = s2.tocsr()
    sectors = []
    for n, m2 in sorted(set(zip(n_diag.tolist(), sz2.tolist()))):
        idx = np.nonzero((n_diag == n) & (sz2 == m2))[0]
        block = s2[np.ix_(idx, idx)].toarray()
        vals, vecs = np.linalg.eigh(0.5 * (block + block.conj().T))
        spins = [_casimir_to_spin(v) for v in vals]
        for spin in sorted(set(spins)):
            cols_s = [c for c, sp in enumerate(spins) if sp == spin]
            sectors.append((SectorLabel(n=n, m=m2 / 2.0, s=spin), idx, vecs[:, cols_s]))
    return sectors


def commutator_norm_with_spin(s2: scipy.sparse.csr_matrix, basis: FockBasis,
                              bits: int) -> float:
    """Frobenius norm of [|n><n|, S^2] via the variance of S^2.

    ``s2`` is :func:`spin_squared` of ``basis``, built once by the caller.
    """
    psi = np.zeros(basis.dim, dtype=np.complex128)
    psi[basis.index_of(bits)] = 1.0
    y = s2 @ psi
    mean = float(np.real(np.vdot(psi, y)))
    square = float(np.real(np.vdot(y, y)))
    return math.sqrt(max(0.0, 2.0 * (square - mean * mean)))


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
    The single-move sums sum_i x_i C~4_ijik are read from the one matrix
    product that ``delta_rho`` forms, whose bits depend on the BLAS kernel;
    each is checked against its own per-column dot to 1e-13.
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
    moves = x @ t2.reshape(n_modes, n_modes * n_modes)
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
                move_sum = moves[col, j * n_modes + k]
                dot = x_col @ t2[:, j, k]
                assert abs(dot - move_sum) <= 1e-13, f"move sum {move_sum} against dot {dot}"
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


def born_weights_loop(state: DensityMatrix, mbasis) -> np.ndarray:
    """Born weights of one basis: a full pulse per rotation, then the clipped diagonal."""
    rotated = state
    for rot in mbasis.rotations:
        rotated = apply_rotation(rotated, rot)
    return np.clip(np.real(np.diag(rotated.elements)), 0.0, None)


KRYLOV_DIM = 30
MAX_SUBSTEPS = 100_000


def _lanczos_step(matrix, y: np.ndarray, dt: float, m: int):
    """One Krylov step exp(-i dt H) y with an a posteriori error estimate."""
    beta0 = np.linalg.norm(y)
    vecs = [y / beta0]
    alphas, betas = [], []
    for j in range(m):
        w = matrix @ vecs[-1]
        alpha = np.real(np.vdot(vecs[-1], w))
        w = w - alpha * vecs[-1]
        if j > 0:
            w = w - betas[-1] * vecs[-2]
        # full reorthogonalization; m is small
        for v in vecs:
            w = w - np.vdot(v, w) * v
        alphas.append(alpha)
        beta = np.linalg.norm(w)
        if beta < 1e-14 * max(1.0, abs(alpha)):
            tri = _tridiag(alphas, betas)
            small = scipy.linalg.expm(-1j * dt * tri)
            out = beta0 * np.column_stack(vecs) @ small[:, 0]
            return out, 0.0
        betas.append(beta)
        vecs.append(w / beta)
    tri = _tridiag(alphas, betas[:-1])
    small = scipy.linalg.expm(-1j * dt * tri)
    out = beta0 * np.column_stack(vecs[:-1]) @ small[:, 0]
    err = float(beta0 * betas[-1] * abs(dt) * abs(small[-1, 0]))
    return out, err


def _tridiag(alphas, betas) -> np.ndarray:
    tri = np.diag(np.asarray(alphas, dtype=float))
    if betas:
        off = np.asarray(betas, dtype=float)
        tri += np.diag(off, 1) + np.diag(off, -1)
    return tri


def evolve_krylov_full(psi: StateVector, ham, t: float, tol: float = 1e-10) -> StateVector:
    """exp(-i H t) |psi> by adaptive Lanczos substeps over the whole sector.

    An iterative propagator independent of ``model.evolve``'s Chebyshev
    series: one Krylov space of ``KRYLOV_DIM`` vectors per substep for the
    whole state, full reorthogonalization, a step that grows x1.5 when the
    a posteriori error estimate meets ``tol`` and halves when it does not,
    and a final renormalization to unit norm.
    """
    if t == 0.0:
        return StateVector(psi.basis, psi.amplitudes.copy())
    y = psi.amplitudes.copy()
    total = abs(t)
    remaining = float(t)
    dt = remaining
    matrix = hamiltonian_csr(ham)
    for _ in range(MAX_SUBSTEPS):
        if abs(remaining) <= 1e-15 * total:
            break
        if abs(dt) > abs(remaining):
            dt = remaining
        y_try, err = _lanczos_step(matrix, y, dt, KRYLOV_DIM)
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


def _shot_mean(record, values_fn):
    """Sample mean and standard error of a bitstring observable."""
    weights = record.counts.astype(float)
    vals = values_fn(record.patterns)
    mean = float(np.dot(weights, vals)) / record.shots
    var = float(np.dot(weights, (vals - mean) ** 2)) / record.shots
    return mean, math.sqrt(var / record.shots)


def _occ(p):
    return lambda bits: ((bits >> p) & 1).astype(float)


def _pair_sz(p, q):
    return lambda bits: 0.5 * (((bits >> p) & 1) - ((bits >> q) & 1)).astype(float)


def _canonical_pair(first: int, second: int):
    """Sorted pair plus the sign picked up by odd axes under the swap."""
    if first < second:
        return first, second, 1.0
    return second, first, -1.0


def _axis_coef(axis: str) -> complex:
    return 1j if axis == "y" else 1.0


def estimate_correlations_loop(plan, records):
    """``measure.estimate_correlations`` one shot mean at a time.

    Every moment is its own pass over one record's bit patterns: C2 from
    the identity and pair bases, and each raw C4 entry <c+_i c+_j c_k c_l>
    with i < j, k < l from the one basis (or identity/pair reduction) that
    covers it, copied to the other three index orders with its
    antisymmetric sign.
    """
    by_id = {}
    for rec in records:
        if rec.key != plan.bases[rec.basis_id].key:
            raise CoverageError(f"record for basis {rec.basis_id} carries "
                                f"key {rec.key}")
        by_id[rec.basis_id] = rec
    id_of = {b.key: b.id for b in plan.bases}

    def record(key):
        if key not in id_of:
            raise CoverageError(f"plan does not cover {key}")
        if id_of[key] not in by_id:
            raise CoverageError(f"no shot record for basis {key}")
        return by_id[id_of[key]]

    def pair_moment(first, second, extra_fn=None):
        """<c+_first c_second>, optionally weighted by a diagonal factor."""
        p, q, flip = _canonical_pair(first, second)
        total = 0.0j
        var = 0.0
        sz = _pair_sz(p, q)
        for axis in ("x", "y"):
            if extra_fn is None:
                fn = sz
            else:
                fn = lambda bits, e=extra_fn, s=sz: e(bits) * s(bits)
            mean, se = _shot_mean(record(("pair", p, q, axis)), fn)
            sign = flip if axis == "y" else 1.0
            total += _axis_coef(axis) * sign * mean
            var += se * se
        return total, math.sqrt(var)

    def double_pair_moment(pair1, axis1, pair2, axis2):
        """<S^axis1_pair1 S^axis2_pair2> for disjoint pairs, with swap signs."""
        p, q, f1 = _canonical_pair(*pair1)
        r, s, f2 = _canonical_pair(*pair2)
        if (p, q) > (r, s):
            (p, q, f1, axis1), (r, s, f2, axis2) = (
                (r, s, f2, axis2), (p, q, f1, axis1))
        sz1, sz2 = _pair_sz(p, q), _pair_sz(r, s)
        mean, se = _shot_mean(record(("pairs", p, q, axis1, r, s, axis2)),
                              lambda bits: sz1(bits) * sz2(bits))
        sign = (f1 if axis1 == "y" else 1.0) * (f2 if axis2 == "y" else 1.0)
        return sign * mean, se

    def raw_four_moment(i, j, k, l):
        """<c+_i c+_j c_k c_l> for i < j, k < l from covered bases."""
        shared = {i, j} & {k, l}
        if len(shared) == 0:
            # <c+i c+j ck cl> = -<(c+i ck)(c+j cl)> for disjoint index pairs
            total = 0.0j
            var = 0.0
            for ax1 in ("x", "y"):
                for ax2 in ("x", "y"):
                    mean, err = double_pair_moment((i, k), ax1, (j, l), ax2)
                    total += _axis_coef(ax1) * _axis_coef(ax2) * mean
                    var += err * err
            return -total, math.sqrt(var)
        if len(shared) == 1:
            # anticommute the shared index out: sgn <n_s c+_r c_c>
            if i == k:
                s_idx, r_idx, c_idx, sgn = i, j, l, -1.0
            elif j == k:
                s_idx, r_idx, c_idx, sgn = j, i, l, 1.0
            elif i == l:
                s_idx, r_idx, c_idx, sgn = i, j, k, 1.0
            else:
                s_idx, r_idx, c_idx, sgn = j, i, k, -1.0
            val, err = pair_moment(r_idx, c_idx, extra_fn=_occ(s_idx))
            return sgn * val, err
        # doubly shared: canonical ordering forces k = i, l = j
        mean, err = _shot_mean(record(("identity",)),
                               lambda bits: _occ(i)(bits) * _occ(j)(bits))
        return -mean, err

    n = plan.n_modes
    c2 = np.zeros((n, n), dtype=np.complex128)
    se2 = np.zeros((n, n))
    ident = record(("identity",))
    for p in range(n):
        c2[p, p], se2[p, p] = _shot_mean(ident, _occ(p))
    for p, q in combinations(range(n), 2):
        val, err = pair_moment(p, q)
        c2[p, q] = val
        c2[q, p] = np.conj(val)
        se2[p, q] = se2[q, p] = err

    raw = np.zeros((n, n, n, n), dtype=np.complex128)
    se4 = np.zeros((n, n, n, n))
    for i, j in combinations(range(n), 2):
        for k, l in combinations(range(n), 2):
            val, err = raw_four_moment(i, j, k, l)
            for (a, b, sa) in ((i, j, 1.0), (j, i, -1.0)):
                for (c, d, sc) in ((k, l, 1.0), (l, k, -1.0)):
                    raw[a, b, c, d] = sa * sc * val
                    se4[a, b, c, d] = err
    raw = 0.5 * (raw + raw.transpose(3, 2, 1, 0).conj())
    se4 = 0.5 * np.sqrt(se4**2 + se4.transpose(3, 2, 1, 0) ** 2)
    connected = (raw
                 - np.einsum("il,jk->ijkl", c2, c2)
                 + np.einsum("ik,jl->ijkl", c2, c2))
    a2 = np.abs(c2)
    se_prod1 = np.sqrt(np.einsum("il,jk->ijkl", a2**2, se2**2)
                       + np.einsum("il,jk->ijkl", se2**2, a2**2))
    se_prod2 = np.sqrt(np.einsum("ik,jl->ijkl", a2**2, se2**2)
                       + np.einsum("ik,jl->ijkl", se2**2, a2**2))
    se_conn = np.sqrt(se4**2 + se_prod1**2 + se_prod2**2)
    return TwoPointMatrix(entries=c2), se2, FourPointTensor(entries=connected), se_conn


def recon_fields_rediagonalized(c2, c4, rho_exact: DensityMatrix) -> dict:
    """The physics fields of a recon document with every spectrum diagonalized anew.

    The Gaussian state is rebuilt in the physical basis as u diag(w) u†
    and diagonalized back, and the assembled and projected states are
    diagonalized once more after the ``eigh`` of the positivity
    projection: five full diagonalizations where two suffice.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", AnsatzValidityWarning)
        recon = reconstruct_state(c2, c4)
    warned = any(issubclass(w.category, AnsatzValidityWarning) for w in caught)

    c2_assembled = measure_two_point(recon.assembled)
    residual_c2 = float(np.abs(c2_assembled.entries - c2.entries).max())
    residual_c4 = float(np.abs(
        measure_four_point_connected(recon.assembled, c2_assembled).entries
        - c4.entries).max())

    u = mode_rotation_unitary(recon.frame)
    gaussian_matrix = (u * recon.gaussian.weights[None, :]) @ u.conj().T
    spec_exact = entanglement_spectrum(rho_exact)
    spec_gauss = entanglement_spectrum(gaussian_matrix)
    spec_proj = entanglement_spectrum(recon.projected)
    theta_exact = non_gaussianity(rho_exact)
    theta_recon = non_gaussianity(recon.projected)
    negativity = float(np.linalg.eigvalsh(recon.assembled.elements).min())

    def sectors(rho):
        return [{"n": spec.label.n, "m": spec.label.m, "s": spec.label.s,
                 "levels": [float(x) for x in spec.levels]}
                for spec in sector_spectra(rho)]

    return {
        "theta_exact": float(theta_exact),
        "theta_recon": float(theta_recon),
        "one_minus_f_exact": float(math.sin(theta_exact) ** 2),
        "one_minus_f_recon": float(math.sin(theta_recon) ** 2),
        "residual_c2": residual_c2,
        "residual_c4": residual_c4,
        "max_abs_c4": float(c4.max_abs()),
        "ansatz_warning": bool(warned),
        "assembled_min_eigenvalue": negativity,
        "error_indices": list(DEFAULT_ERROR_INDICES),
        "delta_gaussian": spectral_error(spec_exact, spec_gauss),
        "delta_projected": spectral_error(spec_exact, spec_proj),
        "spectrum_exact": sectors(rho_exact),
        "spectrum_recon": sectors(recon.projected),
    }


def _filter_degenerate(levels: np.ndarray):
    """Collapse levels within DEGENERACY_TOL; returns (filtered, dropped count)."""
    if levels.size == 0:
        return levels, 0
    kept = [float(levels[0])]
    dropped = 0
    for x in levels[1:]:
        if x - kept[-1] < DEGENERACY_TOL:
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


def gap_statistics_loop(levels, bins: int = HISTOGRAM_BINS,
                        bootstrap: int = BOOTSTRAP_RESAMPLES,
                        seed: int = 0) -> GapStatistics:
    """``entanglement.gap_statistics`` one sector at a time.

    Each sector's levels are checked by ``EntanglementSpectrum``, collapsed
    level by level against the last one kept, and turned into ratios on
    their own; the per-sector ratio arrays are then concatenated.
    """
    _check_bootstrap(bootstrap)
    pool = []
    dropped = 0
    used = 0
    for sector in levels:
        spec = EntanglementSpectrum(levels=np.array(sector, dtype=float))
        kept, d = _filter_degenerate(spec.levels)
        dropped += d
        if kept.size < 3:
            continue
        pool.append(_ratios_from_levels(kept))
        used += 1
    ratios = np.concatenate(pool) if pool else np.empty(0)
    return _pooled_statistics(ratios, bins, bootstrap, seed, dropped, used)


# ------------------------------------------------------------------
# The reconstruct analysis of one record at a time: every layer below
# takes a single matrix and loops where the stacked route vectorizes.


def _two_point_one(rho: DensityMatrix) -> np.ndarray:
    n = rho.basis.mode_count
    c2 = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(i, n):
            val = trace_chain_walk(rho, ((i, "create"), (j, "annihilate")))
            c2[i, j] = val
            c2[j, i] = np.conj(val)
    return c2


def _four_point_one(rho: DensityMatrix, c2: np.ndarray) -> np.ndarray:
    n = rho.basis.mode_count
    raw = np.zeros((n, n, n, n), dtype=np.complex128)
    for i, j in combinations(range(n), 2):
        for k, l in combinations(range(n), 2):
            val = trace_chain_walk(rho, (
                (i, "create"), (j, "create"), (k, "annihilate"), (l, "annihilate")))
            raw[i, j, k, l] = raw[j, i, l, k] = val
            raw[j, i, k, l] = raw[i, j, l, k] = -val
    return connected_four_point(raw, c2)


def diagonalize_two_point_loop(c2: np.ndarray) -> DiagonalFrame:
    """The frame of one C2, with its phase fixed column by column."""
    herm = 0.5 * (c2 + c2.conj().T)
    w, v = np.linalg.eigh(herm)
    n = w.shape[0]
    for p in range(n):
        col = v[:, p]
        k = int(np.argmax(np.abs(col)))
        phase = col[k] / abs(col[k])
        v[:, p] = col * np.conj(phase)
    keys = [(-round(float(w[p]), 12),) + tuple(np.round(v[:, p], 10).view(float))
            for p in range(n)]
    order = sorted(range(n), key=lambda p: keys[p])
    g = np.clip(w[order], OCCUPATION_CLAMP, 1.0 - OCCUPATION_CLAMP)
    return DiagonalFrame(rotation=v[:, order], occupations=g)


def _gaussian_weights_one(frame: DiagonalFrame) -> np.ndarray:
    return _f_table(frame.n_modes, frame.occupations).prod(axis=1)


def _project_to_simplex_one(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    feasible = u + (1.0 - css) / np.arange(1, v.size + 1) > 0
    k = int(np.nonzero(feasible)[0][-1]) + 1
    return np.maximum(v + (1.0 - css[k - 1]) / k, 0.0)


def _project_positive_one(rho: np.ndarray):
    herm = 0.5 * (rho + rho.conj().T)
    w, v = np.linalg.eigh(herm)
    w_proj = _project_to_simplex_one(w)
    out = (v * w_proj[None, :]) @ v.conj().T
    return 0.5 * (out + out.conj().T), w, w_proj


def _non_gaussianity_one(sigma: np.ndarray, basis: FockBasis) -> float:
    frame = diagonalize_two_point_loop(_two_point_one(DensityMatrix(basis, sigma)))
    u = mode_rotation_unitary(frame)
    companion = (u * _gaussian_weights_one(frame)[None, :]) @ u.conj().T
    overlap = float(np.real(np.sum(sigma * companion.conj())))
    purity = max(float(np.real(np.sum(sigma * sigma.conj()))),
                 float(np.real(np.sum(companion * companion.conj()))))
    return float(np.arccos(np.sqrt(np.clip(overlap / purity, 0.0, 1.0))))


def _sector_spectra_one(rho: np.ndarray, basis: FockBasis) -> list[dict]:
    docs = []
    for label, idx, vecs in _sector_basis(basis.mode_count):
        block = vecs.conj().T @ rho[np.ix_(idx, idx)] @ vecs
        spec = eigenvalue_spectrum(
            np.linalg.eigvalsh(0.5 * (block + block.conj().T)), label)
        if spec.rank:
            docs.append({"n": label.n, "m": label.m, "s": label.s,
                         "levels": [float(x) for x in spec.levels]})
    return docs


def analyze_snapshot_loop(c2: TwoPointMatrix, c4: FourPointTensor,
                          rho_exact: DensityMatrix) -> dict:
    """``harness.analyze_records`` of one record, one matrix per call.

    The bit-for-bit reference of the stacked route: each layer works on a
    single record, the frame's phase is fixed column by column by scalar
    division, and every C2/C4 chain is walked over the bit patterns and
    summed as one 1-D gather (``trace_chain_walk``).
    """
    basis = rho_exact.basis
    c4.validate()
    c2.validate()
    frame = diagonalize_two_point_loop(c2.entries.copy())
    c4_frame = rotate_four_point(c4, frame)
    weights = _gaussian_weights_one(frame)
    correction = delta_rho(c4_frame, frame).elements
    u = mode_rotation_unitary(frame)
    assembled = u @ (np.diag(weights).astype(complex) + correction) @ u.conj().T
    assembled = 0.5 * (assembled + assembled.conj().T)
    projected, w, w_proj = _project_positive_one(assembled)

    c2_assembled = _two_point_one(DensityMatrix(basis, assembled))
    c4_assembled = _four_point_one(DensityMatrix(basis, assembled), c2_assembled)
    exact = rho_exact.elements
    spec_exact = eigenvalue_spectrum(np.linalg.eigvalsh(0.5 * (exact + exact.conj().T)))
    theta_exact = _non_gaussianity_one(exact, basis)
    theta_recon = _non_gaussianity_one(projected, basis)
    return {
        "theta_exact": theta_exact,
        "theta_recon": theta_recon,
        "one_minus_f_exact": float(math.sin(theta_exact) ** 2),
        "one_minus_f_recon": float(math.sin(theta_recon) ** 2),
        "residual_c2": float(np.abs(c2_assembled - c2.entries).max()),
        "residual_c4": float(np.abs(c4_assembled - c4.entries).max()),
        "max_abs_c4": float(c4.max_abs()),
        "ansatz_warning": bool(np.abs(c4_frame.entries).max() > ANSATZ_WARN_THRESHOLD),
        "assembled_min_eigenvalue": float(w[0]),
        "error_indices": list(DEFAULT_ERROR_INDICES),
        "delta_gaussian": spectral_error(spec_exact, eigenvalue_spectrum(weights)),
        "delta_projected": spectral_error(spec_exact, eigenvalue_spectrum(w_proj)),
        "spectrum_exact": _sector_spectra_one(exact, basis),
        "spectrum_recon": _sector_spectra_one(projected, basis),
    }
