"""Bitstring Fock-space engine for fermionic modes.

Basis states are occupation bitstrings stored as integers with bit ``i``
(least significant = mode 0) giving the occupation of mode ``i``.  A basis
state corresponds to the ordered product of creation operators with mode
indices *descending* from left to right,

    |n> = c†_{M-1}^{n_{M-1}} ... c†_1^{n_1} c†_0^{n_0} |0>,

so a ladder operator acting on mode ``i`` picks up the parity of all
*higher* occupied modes.  :func:`ladder_map` is the one place that sign
convention is written down: every ladder, hop, pair rotation, C2/C4
chain and correction move takes its signed index table from it, except
``reconstruct.delta_rho_decomposed``, the slow oracle that recounts them.

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
TRACE_CHUNK = 1 << 16  # complex entries per partial-trace product temporary


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
        self.states = _basis_states(mode_count, sector, sz_twice)

    @property
    def dim(self) -> int:
        return len(self.states)

    def index_of(self, state: OccupationBitstring | int) -> int:
        bits = state.bits if isinstance(state, OccupationBitstring) else int(state)
        return int(self.indices_of(bits))

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
def _basis_states(mode_count, sector, sz_twice):
    """Sorted read-only states, built once per process."""
    states = _enumerate_states(mode_count, sector, sz_twice)
    states.flags.writeable = False
    return states


def _enumerate_states(mode_count, sector, sz_twice) -> np.ndarray:
    if sector is None:
        return np.arange(1 << mode_count, dtype=np.int64)
    states = _patterns(range(mode_count), sector)
    if sz_twice is None:
        return states
    # spinful layout: even bits are spin up, so 2*Sz = 2 n_up - N
    n_up = np.bitwise_count(states & 0x5555555555555555)
    return states[2 * n_up.astype(np.int64) - sector == sz_twice]


def _patterns(positions, count) -> np.ndarray:
    """Sorted bit patterns with ``count`` of the ascending bit ``positions`` set."""
    # by_count[n]: the patterns with n bits among the positions so far, sorted;
    # those with the new bit set all exceed those without it
    by_count = [np.zeros(1, dtype=np.int64)] + [np.zeros(0, dtype=np.int64)] * count
    for p in positions:
        for n in range(count, 0, -1):
            by_count[n] = np.concatenate((by_count[n], by_count[n - 1] | (1 << p)))
    return by_count[count]


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


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes, so of every matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


@dataclass
class DensityMatrix:
    """Dense Hermitian operator on a Fock basis, or a stack of them on leading axes."""

    basis: FockBasis
    elements: np.ndarray

    def __post_init__(self):
        self.elements = np.asarray(self.elements, dtype=np.complex128)
        d = self.basis.dim
        if self.elements.shape[-2:] != (d, d):
            raise DomainError("matrix shape does not match basis dimension")

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.elements))

    def hermiticity_defect(self) -> float:
        return float(np.abs(self.elements - dagger(self.elements)).max())

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
    """Dense Fock-space matrix of  sum_ij h_ij c†_i c_j, one per matrix of a stack.

    Works on sector-filtered bases too (the operator conserves particle
    number term by term); a nonzero h_ij whose hop leaves the basis raises.
    """
    n = basis.mode_count
    h = np.asarray(h)
    if h.shape[-2:] != (n, n):
        raise DomainError("single-particle matrix has wrong shape")
    occ, i, j, rows, cols, signs, leaks = _hop_tables(n, basis.sector, basis.sz_twice)
    if np.any(h[..., leaks] != 0):
        raise DomainError("single-particle matrix hops out of the basis")
    out = np.zeros(h.shape[:-2] + (basis.dim, basis.dim), dtype=np.complex128)
    # matmul appends this axis to a vector too, so one record gets the same bits
    diag = np.diagonal(h, axis1=-2, axis2=-1).astype(complex)[..., None]
    np.einsum("...ii->...i", out)[...] = (occ @ diag)[..., 0]
    # each off-diagonal entry takes exactly one hop; += turns a -0 into +0
    out[..., rows, cols] += h[..., i, j] * signs
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
    return _frozen((occ, *(np.concatenate(arr) for arr in zip(*parts)), leaks))


@functools.lru_cache(maxsize=64)
def _pair_tables(mode_count):
    """Ladder tables of every pair move c†_b1 c†_b2 c_a2 c_a1, built once.

    Runs over disjoint pairs a1 < a2 (vacated) and b1 < b2 (filled) on the
    unfiltered basis; with fewer than four modes every array is empty.
    """
    basis = FockBasis(mode_count)
    parts = [(np.zeros(0, dtype=np.int64),) * 6 + (np.zeros(0),)]
    for a1, a2 in combinations(range(mode_count), 2):
        for b1, b2 in combinations(range(mode_count), 2):
            if len({a1, a2, b1, b2}) == 4:
                _, cols, rows, signs = ladder_map(basis, (
                    (b1, "create"), (b2, "create"),
                    (a2, "annihilate"), (a1, "annihilate")))
                parts.append((*(np.full(cols.size, m) for m in (a1, a2, b1, b2)),
                              rows, cols, signs))
    return _frozen(tuple(np.concatenate(arr) for arr in zip(*parts)))


@functools.lru_cache(maxsize=4096)  # holds all 820 C2/C4 chains of 8 modes
def _chain_table(mode_count, sector, sz_twice, ops):
    """:func:`ladder_map` of one chain with read-only arrays, built once."""
    target, *table = ladder_map(FockBasis(mode_count, sector, sz_twice), ops)
    return (target, *_frozen(table))


def _frozen(table):
    for arr in table:
        arr.flags.writeable = False
    return table


def partial_trace(psi: StateVector, keep_modes: int) -> DensityMatrix:
    """Reduced density matrix on the leading ``keep_modes`` modes.

    The subsystem must be the contiguous prefix of the Jordan-Wigner
    ordering; with the descending-order state convention the environment
    operators stand to the left of the subsystem operators, so grouping by
    environment pattern needs no extra fermionic signs.

    Each particle-number block adds each environment pattern's outer product
    in ascending pattern order from +0, bit for bit as one ``+=`` per pattern.
    """
    basis = psi.basis
    m = basis.mode_count
    if not 0 < keep_modes <= m:
        raise DomainError(f"cannot keep {keep_modes} of {m} modes")
    sub = FockBasis(keep_modes)
    rho = np.zeros((sub.dim, sub.dim), dtype=np.complex128)
    padded = np.append(psi.amplitudes, 0.0)  # states outside the basis read +0
    for gather, ix_rows, ix_cols in _trace_layout(m, basis.sector, basis.sz_twice, keep_modes):
        block = 0.0
        step = max(1, TRACE_CHUNK // ix_cols.size ** 2)
        for start in range(0, len(gather), step):
            part = padded[gather[start:start + step]]
            terms = part[:, :, None] * part.conj()[:, None, :]
            terms[0] += block  # sequential: accumulate, unlike reduce
            block = np.add.accumulate(terms, out=terms)[-1]
        rho[ix_rows, ix_cols] = block
    return DensityMatrix(sub, rho)


@functools.lru_cache(maxsize=64)
def _trace_layout(mode_count, sector, sz_twice, keep_modes):
    """Each N block (one if N is free): basis row per (environment, state); np.ix_."""
    states = _basis_states(mode_count, sector, sz_twice)
    sub_bits = states & ((1 << keep_modes) - 1)
    count = np.bitwise_count(sub_bits.astype(np.uint64)) * (sector is not None)
    layout = []
    for rows in (np.flatnonzero(count == n) for n in np.flatnonzero(np.bincount(count))):
        env_rank = np.unique(states[rows] >> keep_modes, return_inverse=True)[1]
        idx, col = np.unique(sub_bits[rows], return_inverse=True)
        gather = np.full((env_rank.max() + 1, idx.size), states.size)
        gather[env_rank, col] = rows
        layout.append(_frozen((gather, *np.ix_(idx, idx))))
    return tuple(layout)


def sector_dimension(mode_count: int, sector: int | None) -> int:
    if sector is None:
        return 1 << mode_count
    return math.comb(mode_count, sector)

