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

H is stored as one hop table.  The dense route sums it into a matrix, and
the Chebyshev route lays each 2*Sz block out from it in padded rows, so
neither route imports scipy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .fock import (
    DomainError,
    FockBasis,
    OccupationBitstring,
    StateVector,
    _chain_table,
    _frozen,
)

DENSE_LIMIT = 4096
# Chebyshev terms below this leave the sum unchanged in double precision
BESSEL_FLOOR = 1e-17
SEARCH_TRIALS = 10_000
# a pattern whose projector commutes with S^2 this closely keeps S^2 symmetry
MIN_COMMUTATOR = 1e-8


class EvolutionError(Exception):
    """Propagator lost the norm of the state."""


class SearchExhaustedError(Exception):
    """No admissible initial state found within the trial budget."""


def is_finite_real(value) -> bool:
    """A real number that is neither a bool nor an inf or a NaN."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass(frozen=True)
class HubbardParams:
    """Chain length and the real amplitudes J, J' and U of the Hamiltonian.

    Complex hops are rejected: :func:`dispersion` is a real cosine band.
    """

    sites: int
    hop: float = 1.0
    hop2: float = 0.125
    interaction: float = 0.0

    def __post_init__(self):
        if isinstance(self.sites, bool) or not isinstance(self.sites, numbers.Integral):
            raise DomainError(f"sites must be an integer, not {self.sites!r}")
        if self.sites < 3:
            raise DomainError("periodic chain needs at least 3 sites")
        for name in ("hop", "hop2", "interaction"):
            if not is_finite_real(getattr(self, name)):
                raise DomainError(f"{name} must be a finite real number, "
                                  f"not {getattr(self, name)!r}")

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


class Hamiltonian:
    """H on ``basis`` as one table, summed from +0 in order: (rows[k], cols[k]) adds values[k].

    The U * double-occupancy diagonal, then each bond's hop and its conjugate in sum order.
    H conserves 2*Sz, which ``sz_twice`` holds per basis state.
    """

    def __init__(self, params: HubbardParams, basis: FockBasis, rows, cols, values):
        self.params, self.basis = params, basis
        self.rows, self.cols, self.values, self.sz_twice = _frozen(
            (rows, cols, values, sz_twice_diagonal(basis)))
        self._eig, self._blocks = None, {}

    def dense(self) -> np.ndarray:
        out = np.zeros((self.basis.dim,) * 2, dtype=np.complex128)
        np.add.at(out, (self.rows, self.cols), self.values)
        return out

    def dense_eig(self):
        """Eigenvalues w, eigenvectors V and V^dagger of H, from one ``eigh``."""
        if self._eig is None:
            w, v = np.linalg.eigh(self.dense())
            self._eig = (w, v, v.conj().T)
        return self._eig

    def block(self, sz_twice: int):
        """Sector indices with this 2*Sz and the Chebyshev layout of H on them, built once.

        The layout is (c, a, vals, cols), with c +- a the Gershgorin interval of
        the block, or (c, 0.0, None, None) when H = c.  Column i of the (k, n)
        arrays holds row i of (H - c) * 2/a: entries vals at columns cols in
        ascending order, then zeros.  As in a canonical CSR matrix, repeated
        entries are summed and exact zeros dropped, and the bound sums each row
        of |H| with ``np.add.reduceat``, as scipy does.
        """
        if sz_twice not in self._blocks:
            inside = self.sz_twice == sz_twice
            idx, at, keep = np.flatnonzero(inside), np.cumsum(inside) - 1, inside[self.rows]
            n = idx.size  # every row gets a diagonal entry, +0 unless H has one
            key = np.r_[at[self.rows[keep]] * n + at[self.cols[keep]], np.arange(n) * (n + 1)]
            order = np.argsort(key, kind="stable")
            first = np.flatnonzero(np.diff(key[order], prepend=-1))
            # repeats come in pairs, so their sums do not depend on order: each
            # diagonal with its +0, and the doubled wrap-around bonds of 3- and 4-site rings
            vals = np.add.reduceat(np.r_[self.values[keep], np.zeros(n)][order], first)
            rows, cols = np.divmod(key[order][first], n)
            diag, nz = vals[rows == cols], vals != 0
            starts = np.flatnonzero(np.diff(rows[nz], prepend=-1))
            radius = np.zeros(n)
            radius[rows[nz][starts]] = np.add.reduceat(np.abs(vals[nz]), starts)
            radius -= np.abs(diag)
            lo, hi = (diag - radius).min(), (diag + radius).max()
            center, half = (hi + lo) / 2.0, (hi - lo) / 2.0
            layout = (center, half, None, None)
            if half != 0.0:  # else no off-diagonal entries and one level
                vals[rows == cols] -= center
                nz = vals != 0
                rows, cols, vals = rows[nz], cols[nz], vals[nz] * (2.0 / half)
                slot = np.arange(rows.size) - np.searchsorted(rows, rows)  # place in its row
                shape = (slot.max() + 1, n)
                ell_vals, ell_cols = np.zeros(shape, np.complex128), np.zeros(shape, np.intp)
                ell_vals[slot, rows], ell_cols[slot, rows] = vals, cols
                layout = (center, half, *_frozen((ell_vals, ell_cols)))
            idx.flags.writeable = False
            self._blocks[sz_twice] = (idx, layout)
        return self._blocks[sz_twice]


def build_hamiltonian(params: HubbardParams, particles: int | None = None) -> Hamiltonian:
    basis = FockBasis(params.n_modes, particles)
    bits = basis.states  # site l is doubly occupied when bits 2l and 2l + 1 are set
    double_occ = np.bitwise_count(bits & (bits >> 1) & 0x5555555555555555).astype(float)
    diag = np.arange(basis.dim)  # no hop lands on the diagonal
    parts = [(diag, diag, params.interaction * double_occ)]
    for to_site, from_site, amp in hopping_bonds(params):
        if amp == 0.0:
            continue
        for spin in (0, 1):
            _, cols, rows, signs = _chain_table(
                basis.mode_count, basis.sector, basis.sz_twice,
                ((mode_index(to_site, spin), "create"),
                 (mode_index(from_site, spin), "annihilate")))
            parts += [(rows, cols, amp * signs), (cols, rows, amp * signs)]
    return Hamiltonian(params, basis, *(np.concatenate(arr) for arr in zip(*parts)))


def sz_twice_diagonal(basis: FockBasis) -> np.ndarray:
    """2*Sz = n_up - n_down per basis state: up modes are the even bits."""
    bits = basis.states
    up = np.bitwise_count(bits & 0x5555555555555555).astype(np.int64)
    return up - np.bitwise_count((bits >> 1) & 0x5555555555555555)


def number_diagonal(basis: FockBasis) -> np.ndarray:
    return np.bitwise_count(basis.states.astype(np.uint64)).astype(np.int64)


def _raising_tables(basis: FockBasis):
    """The ladder table of c†_{l,up} c_{l,down} on ``basis`` for every site l; S+ is their sum."""
    return [_chain_table(basis.mode_count, basis.sector, basis.sz_twice,
                         ((mode_index(l, 0), "create"), (mode_index(l, 1), "annihilate")))
            for l in range(basis.mode_count // 2)]


def spin_squared_block(basis: FockBasis) -> np.ndarray:
    """Dense S^2 = S- S+ + Sz (Sz + 1) on a fixed-(N, 2*Sz) basis, as complex128.

    S+ has entries +-1, so every entry is an exact quarter in any sum order.
    """
    if basis.sz_twice is None:
        raise DomainError("S^2 blocks need a fixed 2*Sz basis")
    tables = _raising_tables(basis)
    splus = np.zeros((tables[0][0].dim, basis.dim))
    for _, cols, rows, signs in tables:
        splus[rows, cols] = signs  # each (row, col) pair comes from one site
    sz = basis.sz_twice / 2.0
    return (splus.T @ splus + sz * (sz + 1.0) * np.eye(basis.dim)).astype(np.complex128)


@dataclass(frozen=True)
class InitialStateSpec:
    """Occupation pattern selected for a quench.

    The pattern is over plane-wave modes, so its state is an eigenstate of
    the non-interacting Hamiltonian; the search seeded by ``seed`` accepted
    it on trial ``trials``.
    """

    occupation: OccupationBitstring
    seed: int
    trials: int = 1


def spin_spread(basis: FockBasis, bits: int) -> float:
    """Frobenius norm of [|n><n|, S^2] for the pattern ``bits``, via the variance of S^2.

    S+ = sum_l c†_{l,up} c_{l,down} sends |n> to phi with entries +-1, and S^2 |n> =
    S- phi + Sz (Sz + 1) |n> holds quarters, so both moments are exact in double precision.
    """
    n = basis.index_of(bits)
    tables = _raising_tables(basis)
    phi = np.zeros(tables[0][0].dim)
    for _, cols, rows, signs in tables:  # each site moves |n> to its own state
        phi[rows[cols == n]] = signs[cols == n]
    y = np.zeros(basis.dim)
    for _, cols, rows, signs in tables:
        y[cols] += signs * phi[rows]  # a ladder table has each column once
    sz = bin(bits & 0x5555555555555555).count("1") - bin(bits).count("1") / 2.0  # n_up - N/2
    y[n] += sz * (sz + 1.0)
    mean, square = y[n], y @ y
    return math.sqrt(max(0.0, 2.0 * (square - mean * mean)))


def select_initial_state(params: HubbardParams, target_n: int, seed: int) -> InitialStateSpec:
    """Draw a fixed-N occupation pattern that breaks the S^2 symmetry.

    Patterns are sampled uniformly with a seeded generator; a pattern is
    accepted when the commutator of its projector with total S^2 is
    nonzero, so the reduced state is not forced to be block diagonal in
    the spin sectors from the start.
    """
    n_modes = params.n_modes
    if not 1 <= target_n < n_modes:
        raise DomainError(f"particle number {target_n} out of range")
    if target_n == params.sites:
        raise DomainError("half filling is excluded; the symmetry-breaking search stalls there")
    rng = np.random.default_rng(seed)
    basis = FockBasis(n_modes, target_n)
    for trial in range(1, SEARCH_TRIALS + 1):
        modes = rng.choice(n_modes, size=target_n, replace=False)
        bits = int(sum(1 << int(p) for p in modes))
        if spin_spread(basis, bits) > MIN_COMMUTATOR:
            return InitialStateSpec(OccupationBitstring(bits, n_modes), seed, trials=trial)
    raise SearchExhaustedError(f"no symmetry-breaking pattern in {SEARCH_TRIALS} trials "
                               f"(n = {target_n}, seed = {seed})")


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
            target, cols, rows, signs = _chain_table(
                params.n_modes, basis.sector, None, ((mode_index(l, spin), "create"),))
            if new is None:
                new = np.zeros(target.dim, dtype=np.complex128)
            np.add.at(new, rows, coeffs[l] * signs * vec[cols])
        vec, basis = new, target
    return StateVector(basis, vec)


def initial_state(params: HubbardParams, spec: InitialStateSpec) -> StateVector:
    """The t = 0 state for a quench: the plane-wave state of ``spec``."""
    return plane_wave_state(params, spec.occupation)


def _bessel_series(x: float) -> np.ndarray:
    """Bessel J_0(x) .. J_K(x), x != 0, with K >= 1 the last |J_K| >= BESSEL_FLOOR.

    Miller's backward recurrence J_{k-1} = (2k/x) J_k - J_{k+1}, started
    where the bound |J_n(x)| <= (|x|/2)^n / n! is below 1e-30 (beyond
    n = |x|, so the recurrence is stable), normalized by J_0 + 2 sum J_{2k} = 1.
    """
    n, log_bound = 0, 0.0
    while log_bound > math.log(1e-30):
        n += 1
        log_bound += math.log(abs(x) / 2.0 / n)
    f = np.zeros(n + 2)
    f[n] = 1.0
    for k in range(n, 0, -1):
        f[k - 1] = 2.0 * k / x * f[k] - f[k + 1]
        if abs(f[k - 1]) > 1e100:  # rescale before the recurrence overflows
            f[k - 1:] *= 1e-100
    j = f[:n + 1] / (f[0] + 2.0 * f[2::2].sum())
    return j[:max(2, np.flatnonzero(np.abs(j) >= BESSEL_FLOOR)[-1] + 1)]


def _chebyshev(layout, y: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t H) y by a Chebyshev series on a ``Hamiltonian.block`` layout, renormalized to |y|.

    H is mapped onto [-1, 1] through its Gershgorin interval c +- a, a
    rigorous bound on its spectrum (the series diverges outside it), and
    exp(-i t H) = exp(-i c t) [J_0(a t) + 2 sum_k (-i)^k J_k(a t) T_k(H')]
    with H = c + a H' is summed down to the double-precision floor.  Each
    row of 2 H' y is summed from +0 in column order.
    """
    center, half, vals, cols = layout
    if half == 0.0:  # no off-diagonal entries and one level: H = c
        return np.exp(-1j * center * t) * y
    coef = _bessel_series(half * t).astype(np.complex128)
    coef *= (-1j) ** np.arange(coef.size)
    coef[1:] *= 2.0
    prev, cur = y, 0.5 * (vals * y[cols]).sum(axis=0, initial=0)
    out = coef[0] * prev + coef[1] * cur
    for c in coef[2:]:
        prev, cur = cur, (vals * cur[cols]).sum(axis=0, initial=0) - prev
        out += c * cur
    norm0, norm = np.linalg.norm(y), np.linalg.norm(out)
    if abs(norm - norm0) > 1e-8 * norm0:
        raise EvolutionError(f"norm drifted from {norm0} to {norm}")
    return out * (np.exp(-1j * center * t) * norm0 / norm)


def evolve(psi: StateVector, ham: Hamiltonian, t: float, method: str = "auto") -> StateVector:
    """exp(-i H t) |psi> by a Chebyshev series or cached dense diagonalization.

    ``method`` is "auto" (dense up to sector dimension 4096, iterative
    beyond), "dense", or "chebyshev"; the explicit options exist so the two
    routes can be cross-checked against each other.  The dense route
    diagonalizes the whole sector once.  The iterative "chebyshev" route
    expands exp(-i H t) in Chebyshev polynomials of H on each 2*Sz block
    of the support of ``psi`` (``Hamiltonian.block``), summed down to the
    double-precision floor in one step of any length; it keeps each
    block's norm and leaves amplitudes outside the support 0.  ``psi``
    must live on the Hamiltonian's sector and ``t`` must be finite.
    """
    if psi.basis is not ham.basis and not np.array_equal(psi.basis.states,
                                                         ham.basis.states):
        raise DomainError(f"state on {psi.basis} but Hamiltonian on {ham.basis}")
    if not math.isfinite(t):
        raise DomainError(f"evolution time must be finite, not {t}")
    if method == "auto":
        method = "dense" if ham.basis.dim <= DENSE_LIMIT else "chebyshev"
    if method == "dense":
        w, v, vh = ham.dense_eig()
        return StateVector(psi.basis, v @ (np.exp(-1j * w * t) * (vh @ psi.amplitudes)))
    if method != "chebyshev":
        raise DomainError(f"unknown evolution method {method!r}")
    if t == 0.0:
        return StateVector(psi.basis, psi.amplitudes.copy())
    out = np.zeros_like(psi.amplitudes)
    for sz_twice in set(ham.sz_twice[psi.amplitudes != 0].tolist()):  # np.unique loads numpy.ma
        idx, layout = ham.block(sz_twice)
        out[idx] = _chebyshev(layout, psi.amplitudes[idx], t)
    return StateVector(psi.basis, out)

