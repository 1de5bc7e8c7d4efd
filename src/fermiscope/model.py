"""Extended Fermi-Hubbard chain: Hamiltonian, quench states, time evolution.

The lattice is a periodic chain of ``sites`` sites with spinful fermions,
mode index 2*site + spin (spin up = 0, down = 1):

    H = J  sum_{l,s} (c†_{l+1,s} c_{l,s} + h.c.)
      + J' sum_{l,s} (c†_{l+2,s} c_{l,s} + h.c.)
      + U  sum_l n_{l,up} n_{l,down}

assembled literally term by term, so wrap-around next-nearest bonds on
small rings keep their doubled weight exactly as the sum produces it.
The non-interacting part diagonalizes into plane waves with dispersion
eps_k = 2 [J cos k + J' cos 2k] on the momentum grid 2*pi*m/L folded into
(-pi, pi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from .fock import (
    DomainError,
    FockBasis,
    OccupationBitstring,
    StateVector,
    ladder_map,
    max_reduced_rank,
    partial_trace,
)

KRYLOV_DIM = 30
DENSE_LIMIT = 4096
MAX_SUBSTEPS = 100_000
SEARCH_TRIALS = 10_000


class EvolutionError(Exception):
    """Propagator failed to reach the requested accuracy."""


class SearchExhaustedError(Exception):
    """No admissible initial state found within the trial budget."""


class RankDeficientError(Exception):
    """Pre-quench evolution did not fill the reduced state's rank."""


@dataclass(frozen=True)
class HubbardParams:
    sites: int
    hop: float = 1.0
    hop2: float = 0.125
    interaction: float = 0.0

    def __post_init__(self):
        if self.sites < 3:
            raise DomainError("periodic chain needs at least 3 sites")

    @property
    def n_modes(self) -> int:
        return 2 * self.sites

    def with_interaction(self, u: float) -> "HubbardParams":
        return HubbardParams(self.sites, self.hop, self.hop2, u)


def mode_index(site: int, spin: int) -> int:
    return 2 * site + spin


def momentum_values(sites: int) -> np.ndarray:
    """Allowed momenta 2*pi*m/L folded into (-pi, pi], indexed by m."""
    k = 2.0 * np.pi * np.arange(sites) / sites
    return k - 2.0 * np.pi * np.round(k / (2.0 * np.pi))


def dispersion(params: HubbardParams, k: np.ndarray | float) -> np.ndarray | float:
    return 2.0 * (params.hop * np.cos(k) + params.hop2 * np.cos(2.0 * np.asarray(k)))


def hopping_bonds(params: HubbardParams):
    """Directed bonds (to_site, from_site, amplitude), literal sum order."""
    bonds = []
    for l in range(params.sites):
        bonds.append(((l + 1) % params.sites, l, params.hop))
        bonds.append(((l + 2) % params.sites, l, params.hop2))
    return bonds


def hop_matrix(basis: FockBasis, i: int, j: int):
    """Sparse c†_i c_j from ``basis`` into the basis it lands in (i != j)."""
    if i == j:
        raise DomainError("use diagonal occupations for i == j")
    target, cols, rows, signs = ladder_map(basis, ((i, "create"), (j, "annihilate")))
    return scipy.sparse.coo_matrix(
        (signs.astype(np.complex128), (rows, cols)), shape=(target.dim, basis.dim))


@dataclass
class Hamiltonian:
    params: HubbardParams
    basis: FockBasis
    matrix: scipy.sparse.csr_matrix
    _eig: tuple | None = field(default=None, repr=False, compare=False)
    _blocks: dict = field(default_factory=dict, repr=False, compare=False)

    def dense_eig(self):
        if self._eig is None:
            w, v = np.linalg.eigh(self.matrix.toarray())
            object.__setattr__(self, "_eig", (w, v))
        return self._eig

    def block(self, sz_twice: int):
        """Sector indices with this 2*Sz and the CSR block of ``matrix`` on them.

        H conserves 2*Sz, so ``matrix`` has no entries between blocks.
        """
        if sz_twice not in self._blocks:
            idx = np.flatnonzero(sz_twice_diagonal(self.basis) == sz_twice)
            idx.flags.writeable = False
            self._blocks[sz_twice] = (idx, self.matrix[idx][:, idx])
        return self._blocks[sz_twice]


def build_hamiltonian(
    params: HubbardParams,
    particles: int | None = None,
    sz_twice: int | None = None,
) -> Hamiltonian:
    basis = FockBasis(params.n_modes, particles, sz_twice)
    dim = basis.dim
    total = scipy.sparse.coo_matrix((dim, dim), dtype=np.complex128)
    for to_site, from_site, amp in hopping_bonds(params):
        if amp == 0.0:
            continue
        for spin in (0, 1):
            i, j = mode_index(to_site, spin), mode_index(from_site, spin)
            term = hop_matrix(basis, i, j)
            total = total + amp * term + np.conj(amp) * term.conj().T
    bits = basis.states
    double_occ = np.zeros(dim)
    for l in range(params.sites):
        double_occ += ((bits >> (2 * l)) & 1) * ((bits >> (2 * l + 1)) & 1)
    total = total + scipy.sparse.diags(params.interaction * double_occ)
    return Hamiltonian(params=params, basis=basis, matrix=total.tocsr())


def sz_twice_diagonal(basis: FockBasis) -> np.ndarray:
    """2*Sz = n_up - n_down per basis state."""
    bits = basis.states
    out = np.zeros(basis.dim, dtype=np.int64)
    for mode in range(basis.mode_count):
        occ = (bits >> mode) & 1
        out += occ if mode % 2 == 0 else -occ
    return out


def number_diagonal(basis: FockBasis) -> np.ndarray:
    return np.bitwise_count(basis.states.astype(np.uint64)).astype(np.int64)


def spin_raising(basis: FockBasis):
    """Sparse S+ = sum_l c†_{l,up} c_{l,down}; lands in 2*Sz + 2 on a fixed-Sz basis."""
    sites = basis.mode_count // 2
    op = hop_matrix(basis, mode_index(0, 0), mode_index(0, 1))
    for l in range(1, sites):
        op = op + hop_matrix(basis, mode_index(l, 0), mode_index(l, 1))
    return op.tocsr()


def spin_squared(basis: FockBasis) -> scipy.sparse.csr_matrix:
    """Total S^2 = S- S+ + Sz (Sz + 1) on the given basis."""
    splus = spin_raising(basis)
    sz = sz_twice_diagonal(basis) / 2.0
    return (splus.conj().T @ splus
            + scipy.sparse.diags(sz * (sz + 1.0))).tocsr()


@dataclass(frozen=True)
class InitialStateSpec:
    """Occupation pattern selected for a quench, plus how to use it.

    ``kind`` is "momentum" (pattern over plane-wave modes, an eigenstate of
    the non-interacting Hamiltonian) or "position" (pattern over lattice
    modes, to be pre-evolved for ``t_free`` under the non-interacting
    Hamiltonian before the interaction switches on).
    """

    kind: str
    occupation: OccupationBitstring
    seed: int
    trials: int = 1
    t_free: float | None = None


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


def select_initial_state(
    params: HubbardParams,
    target_n: int,
    seed: int,
    kind: str = "momentum",
    t_free: float | None = None,
    min_commutator: float = 1e-8,
) -> InitialStateSpec:
    """Draw a fixed-N occupation pattern that breaks the S^2 symmetry.

    Patterns are sampled uniformly with a seeded generator; a pattern is
    accepted when the commutator of its projector with total S^2 is
    nonzero, so the reduced state is not forced to be block diagonal in
    the spin sectors from the start.
    """
    if kind not in ("momentum", "position"):
        raise DomainError(f"unknown initial-state kind {kind!r}")
    n_modes = params.n_modes
    if not 1 <= target_n < n_modes:
        raise DomainError(f"particle number {target_n} out of range")
    if target_n == params.sites:
        raise DomainError(
            "half filling is excluded; the symmetry-breaking search "
            "stalls there"
        )
    rng = np.random.default_rng(seed)
    basis = FockBasis(n_modes, target_n)
    s2 = spin_squared(basis)
    for trial in range(1, SEARCH_TRIALS + 1):
        modes = rng.choice(n_modes, size=target_n, replace=False)
        bits = int(sum(1 << int(p) for p in modes))
        if commutator_norm_with_spin(s2, basis, bits) > min_commutator:
            return InitialStateSpec(
                kind=kind,
                occupation=OccupationBitstring(bits, n_modes),
                seed=seed,
                trials=trial,
                t_free=t_free,
            )
    raise SearchExhaustedError(
        f"no symmetry-breaking pattern in {SEARCH_TRIALS} trials "
        f"(n = {target_n}, seed = {seed})"
    )


def plane_wave_state(params: HubbardParams, occupation: OccupationBitstring) -> StateVector:
    """Product of plane-wave creation operators on the vacuum.

    ``occupation`` indexes momentum modes as 2*m + spin; operators are
    applied highest mode first, matching the bitstring convention, and
    b†_{k,s} = (1/sqrt(L)) sum_l exp(i k l) c†_{l,s}.
    """
    sites = params.sites
    if occupation.mode_count != params.n_modes:
        raise DomainError("occupation does not match the lattice")
    ks = momentum_values(sites)
    vec = np.ones(1, dtype=np.complex128)
    basis = FockBasis(params.n_modes, 0)
    for mode in reversed(range(params.n_modes)):
        if not occupation.occupation(mode):
            continue
        m, spin = divmod(mode, 2)
        coeffs = np.exp(1j * ks[m] * np.arange(sites)) / math.sqrt(sites)
        new = None
        for l in range(sites):
            target, cols, rows, signs = ladder_map(
                basis, ((mode_index(l, spin), "create"),))
            if new is None:
                new = np.zeros(target.dim, dtype=np.complex128)
            np.add.at(new, rows, coeffs[l] * signs * vec[cols])
        vec, basis = new, target
    return StateVector(basis, vec)


def initial_state(params: HubbardParams, spec: InitialStateSpec) -> StateVector:
    """The t = 0 state for a quench, before any free pre-evolution."""
    if spec.kind == "momentum":
        return plane_wave_state(params, spec.occupation)
    basis = FockBasis(params.n_modes, spec.occupation.particle_count)
    amps = np.zeros(basis.dim, dtype=np.complex128)
    amps[basis.index_of(spec.occupation)] = 1.0
    return StateVector(basis, amps)


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
    n = len(alphas)
    tri = np.diag(np.asarray(alphas, dtype=float))
    if betas:
        off = np.asarray(betas, dtype=float)
        tri += np.diag(off, 1) + np.diag(off, -1)
    return tri


def _krylov(matrix, y: np.ndarray, t: float, tol: float) -> np.ndarray:
    """Adaptive Krylov substeps of exp(-i t H) y, renormalized to |y|."""
    norm0 = np.linalg.norm(y)
    total = abs(t)
    remaining = float(t)
    dt = remaining
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
                raise EvolutionError(
                    f"step size collapsed at residual {err:.2e}"
                )
    else:
        raise EvolutionError(f"did not finish within {MAX_SUBSTEPS} substeps")
    norm = np.linalg.norm(y)
    if abs(norm - norm0) > 1e-8 * norm0:
        raise EvolutionError(f"norm drifted from {norm0} to {norm}")
    return y * (norm0 / norm)


def evolve(
    psi: StateVector,
    ham: Hamiltonian,
    t: float,
    tol: float = 1e-10,
    method: str = "auto",
) -> StateVector:
    """exp(-i H t) |psi> by Krylov stepping or cached dense diagonalization.

    ``method`` is "auto" (dense up to sector dimension 4096, Krylov
    beyond), "dense", or "krylov"; the explicit options exist so the two
    routes can be cross-checked against each other.  The dense route
    diagonalizes the whole sector once.  The Krylov route steps each 2*Sz
    block of the support of ``psi`` on its own (``Hamiltonian.block``),
    keeps each block's norm, and leaves amplitudes outside the support 0.
    """
    if psi.basis is not ham.basis and psi.basis.dim != ham.basis.dim:
        raise DomainError("state and Hamiltonian bases differ")
    if method == "auto":
        method = "dense" if ham.basis.dim <= DENSE_LIMIT else "krylov"
    if method == "dense":
        w, v = ham.dense_eig()
        rotated = v.conj().T @ psi.amplitudes
        return StateVector(psi.basis, v @ (np.exp(-1j * w * t) * rotated))
    if method != "krylov":
        raise DomainError(f"unknown evolution method {method!r}")
    if t == 0.0:
        return StateVector(psi.basis, psi.amplitudes.copy())
    sz = sz_twice_diagonal(ham.basis)
    out = np.zeros_like(psi.amplitudes)
    for sz_twice in np.unique(sz[psi.amplitudes != 0]):
        idx, block = ham.block(int(sz_twice))
        out[idx] = _krylov(block, psi.amplitudes[idx], t, tol)
    return StateVector(psi.basis, out)


def effective_rank(eigenvalues: np.ndarray, tol: float = 1e-10) -> int:
    return int(np.sum(np.asarray(eigenvalues) > tol))


def _free_rank_bound(mode_count: int, particles: int, keep: int) -> int:
    """Attainable reduced rank for an N-particle Slater determinant.

    The kept block of the one-body correlation matrix has at most
    min(keep, N) nonzero and at most min(keep, M - N) non-unit
    eigenvalues, so only the remaining interior occupations contribute a
    factor of two to the rank of the (Gaussian) reduced state.
    """
    interior = keep - max(0, keep - particles) - max(0, keep - (mode_count - particles))
    return min(1 << interior, max_reduced_rank(mode_count, particles, keep))


def prepare_position_quench(
    params: HubbardParams,
    spec: InitialStateSpec,
    subsystem_sites: int,
    tol: float = 1e-10,
    method: str = "auto",
) -> StateVector:
    """Free evolution of a position product state until the cut fills up.

    Evolves under the non-interacting Hamiltonian for ``spec.t_free`` and
    certifies that the reduced state on the leading ``subsystem_sites``
    sites has reached its maximal possible rank; raises
    RankDeficientError (suggesting a longer free evolution) otherwise.
    """
    if spec.kind != "position":
        raise DomainError("position quench needs a position-kind spec")
    if spec.t_free is None:
        raise DomainError("position quench needs t_free")
    psi0 = initial_state(params, spec)
    h_free = build_hamiltonian(
        params.with_interaction(0.0), spec.occupation.particle_count
    )
    psi = evolve(psi0, h_free, spec.t_free, tol=tol, method=method)
    keep = 2 * subsystem_sites
    rho = partial_trace(psi, keep)
    rank = effective_rank(np.linalg.eigvalsh(rho.elements), tol)
    bound = _free_rank_bound(params.n_modes, spec.occupation.particle_count, keep)
    if rank < bound:
        raise RankDeficientError(
            f"reduced rank {rank} < attainable {bound} at t_free = "
            f"{spec.t_free}; evolve longer before switching on U"
        )
    return psi
