"""Bitstring Fock-space engine for fermionic modes.

Basis states are occupation bitstrings stored as integers with bit ``i``
(least significant = mode 0) giving the occupation of mode ``i``.  A basis
state corresponds to the ordered product of creation operators with mode
indices *descending* from left to right,

    |n> = c†_{M-1}^{n_{M-1}} ... c†_1^{n_1} c†_0^{n_0} |0>,

so a ladder operator acting on mode ``i`` picks up the parity of all
*higher* occupied modes.  :func:`ladder_map` is the one place that sign
convention is written down: every ladder, hop, pair rotation and C2/C4
chain in the package takes its signed index table from it.

The spinful lattice layout is mode = 2*site + spin (spin up = 0, down = 1);
a subsystem of the first ``n`` sites is therefore the contiguous prefix of
the first ``2n`` modes, for which the fermionic partial trace of a
fixed-particle-number state equals the plain qubit partial trace.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

MAX_MODES = 28  # 2^28 amplitudes is already ~4 GiB; refuse beyond this


class CapacityError(Exception):
    """Requested Hilbert space exceeds the supported size."""


class DomainError(ValueError):
    """Arguments outside the operation's domain."""


def popcount(bits: int) -> int:
    return bin(bits).count("1")


@dataclass(frozen=True)
class OccupationBitstring:
    """Occupation pattern of ``mode_count`` fermionic modes.

    ``bits`` packs occupations with mode 0 at the least significant bit.
    The string form reads left to right as n_0 n_1 ... n_{M-1}.
    """

    bits: int
    mode_count: int
    particle_count: int = field(init=False)

    def __post_init__(self):
        if self.bits < 0 or self.bits >> self.mode_count:
            raise DomainError(
                f"bit pattern {self.bits:#x} does not fit in {self.mode_count} modes"
            )
        object.__setattr__(self, "particle_count", popcount(self.bits))

    @classmethod
    def from_string(cls, pattern: str) -> "OccupationBitstring":
        if set(pattern) - {"0", "1"}:
            raise DomainError(f"invalid occupation string {pattern!r}")
        bits = sum(1 << i for i, ch in enumerate(pattern) if ch == "1")
        return cls(bits, len(pattern))

    def occupation(self, mode: int) -> int:
        return (self.bits >> mode) & 1

    def __str__(self) -> str:
        return "".join(str((self.bits >> i) & 1) for i in range(self.mode_count))


class FockBasis:
    """Ordered set of occupation bitstrings over ``mode_count`` modes.

    States are sorted ascending as unsigned integers.  ``sector`` restricts
    to a fixed particle number; ``sz`` additionally restricts to a fixed
    magnetization 2*Sz (only meaningful for the spinful mode = 2*site + spin
    layout, where it counts n_up - n_down).
    """

    def __init__(self, mode_count: int, sector: int | None = None,
                 sz_twice: int | None = None):
        if mode_count > MAX_MODES:
            raise CapacityError(
                f"{mode_count} modes exceeds the {MAX_MODES}-mode capacity guard"
            )
        if sector is not None and not 0 <= sector <= mode_count:
            raise DomainError(f"sector {sector} out of range for {mode_count} modes")
        if sz_twice is not None and sector is None:
            raise DomainError("sz filter requires a particle-number sector")
        if sz_twice is not None and mode_count % 2:
            raise DomainError(f"sz filter needs the spinful layout, an even "
                              f"mode count, not {mode_count}")
        self.mode_count = mode_count
        self.sector = sector
        self.sz_twice = sz_twice
        self.states, self._index = _basis_tables(mode_count, sector, sz_twice)

    @property
    def dim(self) -> int:
        return len(self.states)

    def index_of(self, state: OccupationBitstring | int) -> int:
        bits = state.bits if isinstance(state, OccupationBitstring) else int(state)
        return self._index[bits]

    def __contains__(self, bits: int) -> bool:
        return int(bits) in self._index

    def state(self, k: int) -> OccupationBitstring:
        return OccupationBitstring(int(self.states[k]), self.mode_count)

    def indices_of(self, bits_array: np.ndarray) -> np.ndarray:
        """Vectorized index lookup; raises DomainError for non-members."""
        pos = np.searchsorted(self.states, bits_array)
        if np.size(pos) and not (self.dim and np.array_equal(
                self.states.take(pos, mode="clip"), bits_array)):
            raise DomainError("bit patterns outside the basis")
        return pos

    def __repr__(self) -> str:
        sec = "" if self.sector is None else f", sector={self.sector}"
        sz = "" if self.sz_twice is None else f", sz_twice={self.sz_twice}"
        return f"FockBasis(mode_count={self.mode_count}{sec}{sz}, dim={self.dim})"


@functools.lru_cache(maxsize=64)
def _basis_tables(mode_count, sector, sz_twice):
    """Sorted read-only states and their index map, built once per process."""
    states = _enumerate_states(mode_count, sector, sz_twice)
    states.flags.writeable = False
    return states, {s: k for k, s in enumerate(states.tolist())}


def _enumerate_states(mode_count, sector, sz_twice) -> np.ndarray:
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


@dataclass
class StateVector:
    """Complex amplitudes over a Fock basis."""

    basis: FockBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (self.basis.dim,):
            raise DomainError("amplitude array does not match basis dimension")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        return StateVector(self.basis, self.amplitudes / self.norm)

    def overlap(self, other: "StateVector") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass
class DensityMatrix:
    """Dense Hermitian operator on a Fock basis."""

    basis: FockBasis
    elements: np.ndarray

    def __post_init__(self):
        self.elements = np.asarray(self.elements, dtype=np.complex128)
        d = self.basis.dim
        if self.elements.shape != (d, d):
            raise DomainError("matrix shape does not match basis dimension")

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.elements))

    def hermiticity_defect(self) -> float:
        return float(np.abs(self.elements - self.elements.conj().T).max())

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.elements)


def ladder_map(basis: FockBasis, ops):
    """Signed table of a ladder chain; the one place the string signs live.

    ``ops`` is a sequence of (mode, kind) pairs, kind "create" or
    "annihilate", written left to right so the last one acts first.
    Returns (target, cols, rows, signs): the chain sends source state
    ``cols[t]`` of ``basis`` to ``rows[t]`` of ``target`` with amplitude
    ``signs[t]``; states it kills are omitted.  ``target`` is ``basis``
    shifted by the chain's change in N and in 2*Sz (even modes are spin
    up), and is ``basis`` itself when the chain changes neither.
    """
    target = _chain_target(basis, ops)
    bits, cols, signs = basis.states, None, None
    for mode, kind in reversed(ops):
        create = kind == "create"
        # filter first: the walk only signs states that survive
        alive = np.nonzero(((bits >> mode) & 1) != create)[0]
        bits = bits[alive]
        cols = alive if cols is None else cols[alive]
        # each ladder passes the occupied modes strictly above its own
        above = np.bitwise_count((bits >> (mode + 1)).astype(np.uint64))
        sign = 1.0 - 2.0 * (above & 1)
        signs = sign if signs is None else signs[alive] * sign
        bits = bits | (1 << mode) if create else bits & ~(1 << mode)
    return target, cols, target.indices_of(bits), signs


def _chain_target(basis: FockBasis, ops) -> FockBasis:
    if not ops:
        raise DomainError("empty ladder chain")
    dn = dsz = 0
    for mode, kind in ops:
        if not 0 <= mode < basis.mode_count:
            raise DomainError(f"mode {mode} out of range")
        if kind not in ("create", "annihilate"):
            raise DomainError(f"unknown ladder kind {kind!r}")
        step = 1 if kind == "create" else -1
        dn += step
        dsz += step if mode % 2 == 0 else -step
    if basis.sector is None or (dn == 0 and (dsz == 0 or basis.sz_twice is None)):
        return basis
    sz = None if basis.sz_twice is None else basis.sz_twice + dsz
    return FockBasis(basis.mode_count, basis.sector + dn, sz)


def ladder_matrix(basis: FockBasis, mode: int, kind: str) -> np.ndarray:
    """Dense matrix of a single ladder operator within an unfiltered basis."""
    if basis.sector is not None:
        raise DomainError("ladder matrices need the unfiltered basis")
    _, cols, rows, signs = ladder_map(basis, ((mode, kind),))
    out = np.zeros((basis.dim, basis.dim), dtype=np.complex128)
    out[rows, cols] = signs
    return out


def quadratic_operator(basis: FockBasis, h: np.ndarray) -> np.ndarray:
    """Dense Fock-space matrix of  sum_ij h_ij c†_i c_j.

    Works on sector-filtered bases too (the operator conserves particle
    number term by term); a nonzero h_ij whose hop leaves the basis raises.
    """
    n = basis.mode_count
    h = np.asarray(h)
    if h.shape != (n, n):
        raise DomainError("single-particle matrix has wrong shape")
    occ, i, j, rows, cols, signs, leaks = _hop_tables(n, basis.sector, basis.sz_twice)
    if np.any(h[leaks] != 0):
        raise DomainError("single-particle matrix hops out of the basis")
    out = np.zeros((basis.dim, basis.dim), dtype=np.complex128)
    np.fill_diagonal(out, occ @ np.diag(h).astype(complex))
    # each off-diagonal entry takes exactly one hop; += turns a -0 into +0
    out[rows, cols] += h[i, j] * signs
    return out


@functools.lru_cache(maxsize=64)
def _hop_tables(mode_count, sector, sz_twice):
    """Occupations and the ladder tables of every hop c†_i c_j (i != j), built once.

    A hop that moves a member state out of the basis only marks ``leaks[i, j]``.
    """
    basis = FockBasis(mode_count, sector, sz_twice)
    occ = ((basis.states[:, None] >> np.arange(mode_count)[None, :]) & 1).astype(float)
    leaks = np.zeros((mode_count, mode_count), dtype=bool)
    # an empty first part keeps a basis without in-basis hops valid
    parts = [(np.zeros(0, dtype=np.int64),) * 4 + (np.zeros(0),)]
    for i in range(mode_count):
        for j in range(mode_count):
            if i != j:
                target, cols, rows, signs = ladder_map(
                    basis, ((i, "create"), (j, "annihilate")))
                if target is not basis:
                    leaks[i, j] = cols.size > 0
                    continue
                parts.append((np.full(cols.size, i), np.full(cols.size, j),
                              rows, cols, signs))
    table = (occ, *(np.concatenate(arr) for arr in zip(*parts)), leaks)
    for arr in table:
        arr.flags.writeable = False
    return table


def partial_trace(psi: StateVector, keep_modes: int) -> DensityMatrix:
    """Reduced density matrix on the leading ``keep_modes`` modes.

    The subsystem must be the contiguous prefix of the Jordan-Wigner
    ordering; with the descending-order state convention the environment
    operators stand to the left of the subsystem operators, so grouping by
    environment pattern needs no extra fermionic signs.
    """
    basis = psi.basis
    m = basis.mode_count
    if not 0 < keep_modes <= m:
        raise DomainError(f"cannot keep {keep_modes} of {m} modes")
    sub = FockBasis(keep_modes)
    mask = (1 << keep_modes) - 1
    a_bits = basis.states & mask
    env = basis.states >> keep_modes
    rho = np.zeros((sub.dim, sub.dim), dtype=np.complex128)
    order = np.argsort(env, kind="stable")
    env_sorted = env[order]
    cuts = np.nonzero(np.diff(env_sorted))[0] + 1
    for grp in np.split(order, cuts):
        idx = a_bits[grp]
        amps = psi.amplitudes[grp]
        rho[np.ix_(idx, idx)] += np.outer(amps, amps.conj())
    return DensityMatrix(sub, rho)


def sector_dimension(mode_count: int, sector: int | None) -> int:
    if sector is None:
        return 1 << mode_count
    return math.comb(mode_count, sector)


def max_reduced_rank(mode_count: int, particles: int, keep_modes: int) -> int:
    """Largest possible rank of the reduced state of a fixed-N pure state."""
    env = mode_count - keep_modes
    total = 0
    for na in range(max(0, particles - env), min(keep_modes, particles) + 1):
        total += min(math.comb(keep_modes, na), math.comb(env, particles - na))
    return total
