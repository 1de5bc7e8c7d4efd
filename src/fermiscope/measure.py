"""Occupation-based measurement protocol for two- and four-point functions.

Off-diagonal correlators are not directly visible in occupation snapshots,
but the pair bilinears

    Sx_ij = 1/2 (c+_i c_j + c+_j c_i)
    Sy_ij = -i/2 (c+_i c_j - c+_j c_i)
    Sz_ij = 1/2 (n_i - n_j)

close an su(2) algebra, so a half-turn tunneling pulse about one axis
rotates another onto Sz, which *is* an occupation difference.  Every
pulse acts through one kernel, :func:`apply_rotation`, which mixes the
partner doublets of the density matrix in place of a unitary matrix.  The
exact pulse (axis, angle) used for each readout is derived numerically on
first use by conjugating Sz through candidate rotations on a dedicated
two-mode system, not hard-coded; see :func:`readout_rules`.

A plan is measured in one pass: bases that start with the same pulse
share one rotated state, and the readout pulse that ends a basis yields
only the diagonal that the Born weights are read from.

Everything reduces to occupation statistics in a planned set of bases:

  C2_ij            = <Sx_ij> + i <Sy_ij>          two rotated bases
  <(c+_i c_k)(c+_j c_l)>  disjoint pairs          four double-rotated bases
  <n_s c+_r c_c>    shared-index moments          reuses the pair bases
  <n_i n_j>         density-density moments       identity basis

Raw four-point moments are assembled from these pieces and the connected
tensor follows by plug-in subtraction of the estimated two-point part.
Shot records keep full bitstring counts, so one set of records serves
every reduction that its bases cover.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from . import serialize
from .correlations import FourPointTensor, TwoPointMatrix, connected_four_point
from .fock import (
    CapacityError,
    DensityMatrix,
    DomainError,
    FockBasis,
    _chain_table,
    quadratic_operator,
)

HALF_TURN = math.pi / 2.0
# each basis keeps a weight vector over the reduced state's basis while
# its plan is sampled; 897 bases at 8 modes
MAX_BASES = 100_000


class PlanError(ValueError):
    """A measurement plan violates its own layering rules."""


class CoverageError(KeyError):
    """The shot records do not cover a required basis."""


@dataclass(frozen=True)
class TunnelingRotation:
    """exp(-i angle S^axis_ij) on one mode pair."""

    pair: tuple[int, int]
    axis: str
    angle: float

    def __post_init__(self):
        # a hashable pair: bases are grouped by their first rotation
        object.__setattr__(self, "pair", tuple(self.pair))
        i, j = self.pair
        if i == j:
            raise DomainError("tunneling pair must couple distinct modes")
        if self.axis not in ("x", "y"):
            raise DomainError(f"unknown rotation axis {self.axis!r}")


def pair_operator(basis: FockBasis, pair: tuple[int, int], axis: str) -> np.ndarray:
    """Dense S^axis_ij on the given basis (oracle-sized use only)."""
    i, j = pair
    h = np.zeros((basis.mode_count, basis.mode_count), dtype=complex)
    if axis == "x":
        h[i, j] = h[j, i] = 0.5
    elif axis == "y":
        h[i, j] = -0.5j
        h[j, i] = 0.5j
    elif axis == "z":
        h[i, i] = 0.5
        h[j, j] = -0.5
    else:
        raise DomainError(f"unknown axis {axis!r}")
    return quadratic_operator(basis, h)


def _pulse(basis: FockBasis, rot: TunnelingRotation):
    """(sel, partner, c, u_sp, u_ps): U is [[c, u_sp], [u_ps, c]] on each doublet.

    The generator squares to 1/4 on each partner doublet of c+_j c_i, so
    U = cos(t/2) - i sin(t/2) (2S) there.
    """
    i, j = rot.pair
    target, sel, partner, sign = _chain_table(
        basis.mode_count, basis.sector, basis.sz_twice,
        ((j, "create"), (i, "annihilate")))
    if sel.size and (target.sector, target.sz_twice) != (basis.sector, basis.sz_twice):
        raise DomainError("rotation partner states fall outside the basis; "
                          "use a full or fixed-N basis")
    c = math.cos(0.5 * rot.angle)
    s = math.sin(0.5 * rot.angle)
    if rot.axis == "x":
        # 2S^x doublet element is the string sign on both corners
        u = -1j * s * sign
        return sel, partner, c, u, u
    # 2S^y doublet is [[0, -i sgn], [+i sgn, 0]] with row/col order
    # (i occupied, j occupied); multiplying by -i makes it real
    return sel, partner, c, -s * sign, s * sign


def _mix(c, u_sp, u_ps, top, bottom):
    """U on the (sel, partner) rows, or U+ on the columns given conj(u)."""
    return c * top + u_sp * bottom, c * bottom + u_ps * top


def apply_rotation(state: DensityMatrix, rot: TunnelingRotation) -> DensityMatrix:
    """Rotate a DensityMatrix by one tunneling pulse, U rho U+.

    U mixes the rows, then the columns, of each partner doublet and leaves
    every other state alone.
    """
    if not isinstance(state, DensityMatrix):
        raise DomainError(f"cannot rotate {type(state).__name__}")
    sel, partner, c, u_sp, u_ps = _pulse(state.basis, rot)
    rho = state.elements.copy()
    rho[sel], rho[partner] = _mix(c, u_sp[:, None], u_ps[:, None],
                                  rho[sel], rho[partner])
    rho[:, sel], rho[:, partner] = _mix(c, u_sp.conj(), u_ps.conj(),
                                        rho[:, sel], rho[:, partner])
    # a sparse product sums from +0, so no element of it is -0; keep that
    rho += 0.0
    return DensityMatrix(state.basis, rho)


def _rotated_diagonal(state: DensityMatrix, rot: TunnelingRotation) -> np.ndarray:
    """diag(U rho U+) alone: the four corners of each doublet go through
    :func:`apply_rotation`'s row pass, column pass and +0, bit for bit."""
    sel, partner, c, u_sp, u_ps = _pulse(state.basis, rot)
    rho = state.elements
    # row pass on the sel column, then on the partner column
    ss, ps = _mix(c, u_sp, u_ps, rho[sel, sel], rho[partner, sel])
    sp, pp = _mix(c, u_sp, u_ps, rho[sel, partner], rho[partner, partner])
    diag = np.diagonal(rho).copy()
    diag[sel] = _mix(c, u_sp.conj(), u_ps.conj(), ss, sp)[0]
    diag[partner] = _mix(c, u_sp.conj(), u_ps.conj(), ps, pp)[1]
    diag += 0.0
    return diag


@lru_cache(maxsize=1)
def readout_rules() -> dict:
    """Derive the pulse that maps each transverse axis onto Sz.

    Tries half-turn pulses of both signs about the complementary axis on
    a two-mode system and keeps the one with U+ Sz U = +S^target exactly;
    derivation failure means the rotation conventions drifted and is a
    hard error.
    """
    basis = FockBasis(2)
    sz = pair_operator(basis, (0, 1), "z")
    rules = {}
    for target, partner_axis in (("x", "y"), ("y", "x")):
        want = pair_operator(basis, (0, 1), target)
        for angle in (HALF_TURN, -HALF_TURN):
            # U+ Sz U is Sz turned by the same pulse with the angle reversed
            back = TunnelingRotation(pair=(0, 1), axis=partner_axis, angle=-angle)
            got = apply_rotation(DensityMatrix(basis, sz), back).elements
            if np.abs(got - want).max() < 1e-12:
                rules[target] = (partner_axis, angle)
                break
        else:
            raise DomainError(f"no half-turn pulse reads out S{target}")
    return rules


def readout_rotation(pair: tuple[int, int], read_axis: str) -> TunnelingRotation:
    axis, angle = readout_rules()[read_axis]
    return TunnelingRotation(pair=pair, axis=axis, angle=angle)


@dataclass(frozen=True)
class MeasurementBasis:
    """One parallel layer of rotations plus the readout it serves.

    ``key`` names what the basis measures:
      ("identity",)                          bare occupations
      ("pair", p, q, axis)                   S^axis on the pair p < q
      ("pairs", p, q, a, r, s, b)            product readout on two pairs
    """

    id: int
    key: tuple
    rotations: tuple[TunnelingRotation, ...]

    def __post_init__(self):
        seen: set[int] = set()
        for rot in self.rotations:
            overlap = seen.intersection(rot.pair)
            if overlap:
                raise PlanError(
                    f"mode {overlap.pop()} appears in two rotations of one "
                    "parallel layer"
                )
            seen.update(rot.pair)


@dataclass
class MeasurementPlan:
    """Basis inventory covering every C2 and C4 entry."""

    n_modes: int
    bases: tuple[MeasurementBasis, ...]
    shots_per_basis: int

    @property
    def n_bases(self) -> int:
        return len(self.bases)

    def scaling_report(self) -> dict:
        """Basis counts against the N(N-1) / N(N-1)(N-2)(N-3) budgets."""
        n = self.n_modes
        pair = sum(1 for b in self.bases if b.key[0] == "pair")
        quad = sum(1 for b in self.bases if b.key[0] == "pairs")
        overhead = self.n_bases - quad
        c = math.ceil(overhead / (n * n)) if n else 0
        return {
            "n_modes": n,
            # every plan is order 2 (C2 and C4); the key keeps files' bytes
            "order": 2,
            "total_bases": self.n_bases,
            "pair_bases": pair,
            "quad_bases": quad,
            "pair_budget": n * (n - 1),
            "quad_budget": n * (n - 1) * (n - 2) * (n - 3),
            "overhead_coefficient": c,
        }


def plan_bases(n_modes: int, shots_per_basis: int = 1000) -> MeasurementPlan:
    """Enumerate the measurement bases of C2 and C4.

    Every pair needs both transverse readouts, and every 4-subset of modes
    its three pairings into two disjoint rotated pairs with all four axis
    combinations.  Shared-index four-point moments need no bases of their
    own: they are reductions of the pair bases and the identity basis.
    """
    if n_modes < 2:
        raise DomainError("need at least two modes to measure")
    shots = shots_per_basis
    if isinstance(shots, bool) or not isinstance(shots, numbers.Integral) or shots < 1:
        raise DomainError(f"shots_per_basis must be an integer >= 1, "
                          f"not {shots_per_basis!r}")
    n_bases = 1 + n_modes * (n_modes - 1) + 12 * math.comb(n_modes, 4)
    if n_bases > MAX_BASES:
        raise CapacityError(f"plan on {n_modes} modes needs {n_bases} bases, "
                            f"over the {MAX_BASES}-basis capacity guard")
    bases = []

    def add(key, rotations):
        bases.append(MeasurementBasis(id=len(bases), key=key,
                                      rotations=tuple(rotations)))

    add(("identity",), ())
    for p, q in combinations(range(n_modes), 2):
        for axis in ("x", "y"):
            add(("pair", p, q, axis), [readout_rotation((p, q), axis)])
    for a, b, c, d in combinations(range(n_modes), 4):
        for (p, q), (r, s) in (((a, b), (c, d)),
                               ((a, c), (b, d)),
                               ((a, d), (b, c))):
            for ax1 in ("x", "y"):
                for ax2 in ("x", "y"):
                    add(("pairs", p, q, ax1, r, s, ax2),
                        [readout_rotation((p, q), ax1),
                         readout_rotation((r, s), ax2)])
    return MeasurementPlan(n_modes=n_modes, bases=tuple(bases),
                           shots_per_basis=shots_per_basis)


@dataclass(eq=False)
class ShotRecord:
    """Occupation counts sampled in one basis: ``counts[k]`` shots read the
    bits ``patterns[k]`` (int64, mode 0 lowest, strictly ascending); counts
    are int64 for draws and float64 for exact Born weights."""

    basis_id: int
    key: tuple
    mode_count: int
    shots: int
    patterns: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        # records are also read back from files, so every field is checked
        if not self.shots >= 1:
            raise DomainError(f"a shot record needs at least one shot, not {self.shots}")
        patterns, counts = self.patterns, self.counts
        if not (patterns.ndim == 1 and patterns.shape == counts.shape
                and patterns.dtype.kind == "i" and counts.dtype.kind in "iuf"):
            raise DomainError("shot patterns and counts need equal-length 1-D int and real arrays")
        if patterns.size and not (0 <= patterns[0] and patterns[-1] < 1 << self.mode_count
                                  and np.all(patterns[1:] > patterns[:-1])):
            raise DomainError(f"bit patterns outside {self.mode_count} modes or unsorted")
        if not np.all((counts >= 0) & (counts < math.inf)):
            raise DomainError("shot counts must be finite and non-negative")
        if abs(counts.sum() - self.shots) > 1e-9 * max(1.0, self.shots):
            raise DomainError("shot counts do not sum to the shot number")


def basis_seed(master_seed: int, basis_id: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(basis_id,))


def _born_weights(state, bases) -> list[np.ndarray]:
    """Occupation weights after each basis's rotations, clipped at zero.

    Bases that start with the same pulse share one rotated state, and the
    last pulse of a basis yields only the diagonal that is read out.
    """
    if not isinstance(state, DensityMatrix):
        raise DomainError(f"cannot measure {type(state).__name__}")
    groups: dict[tuple, list[int]] = {}
    for k, mbasis in enumerate(bases):
        groups.setdefault(mbasis.rotations[:1], []).append(k)
    weights = [None] * len(bases)
    for first, members in groups.items():
        # one group's rotated state is alive at a time
        head = apply_rotation(state, first[0]) if first else state
        for k in members:
            rotated, rest = head, bases[k].rotations[1:]
            # plan bases have at most two pulses
            for rot in rest[:-1]:
                rotated = apply_rotation(rotated, rot)
            diag = (_rotated_diagonal(rotated, rest[-1]) if rest
                    else np.diagonal(rotated.elements))
            weights[k] = np.clip(np.real(diag), 0.0, None)
    return weights


def _record(state, mbasis: MeasurementBasis, counts: np.ndarray,
            shots) -> ShotRecord:
    """Counts (or exact weights) over the basis states; zeros are left out."""
    hit = counts > 0
    return ShotRecord(basis_id=mbasis.id, key=mbasis.key,
                      mode_count=state.basis.mode_count, shots=shots,
                      patterns=state.basis.states[hit], counts=counts[hit])


def _draw(state, mbasis: MeasurementBasis, probs: np.ndarray, shots: int,
          seed) -> ShotRecord:
    """Draw occupation bitstrings from one basis's Born weights.

    ``multinomial`` consumes no random numbers for a weight of exactly 0, so
    a 1e-27 leak turned into 0 reshuffles the basis's later counts."""
    if shots < 1:
        raise DomainError("need at least one shot")
    total = probs.sum()
    if not abs(total - 1.0) <= 1e-8:
        raise DomainError(f"sampling weights sum to {total:.6g}, not 1")
    drawn = np.random.default_rng(seed).multinomial(shots, probs / total)
    return _record(state, mbasis, drawn, shots)


def run_plan(state, plan: MeasurementPlan, master_seed: int) -> list[ShotRecord]:
    """Sample every basis of a plan with per-basis derived seeds."""
    weights = _born_weights(state, plan.bases)
    return [_draw(state, b, probs, plan.shots_per_basis,
                  basis_seed(master_seed, b.id))
            for b, probs in zip(plan.bases, weights)]


def exact_records(state, plan: MeasurementPlan) -> list[ShotRecord]:
    """Infinite-shot limit: Born weights posing as counts.

    Feeding these to the estimators returns exact expectation values,
    which isolates estimator algebra from sampling noise.
    """
    weights = _born_weights(state, plan.bases)
    return [_record(state, b, probs / probs.sum(), 1)
            for b, probs in zip(plan.bases, weights)]


def _records_by_basis(plan: MeasurementPlan, records) -> list[ShotRecord]:
    """The records in plan order, one per basis; checked, as they may come from files."""
    by_id = [None] * plan.n_bases
    for rec in records:
        if not 0 <= rec.basis_id < plan.n_bases or rec.key != plan.bases[rec.basis_id].key:
            raise CoverageError(f"record {rec.basis_id} {rec.key} names no basis of the plan")
        if rec.mode_count != plan.n_modes:
            raise CoverageError(f"record {rec.key} has {rec.mode_count} modes, not {plan.n_modes}")
        if by_id[rec.basis_id] is not None:
            raise CoverageError(f"two shot records for basis {rec.key}")
        by_id[rec.basis_id] = rec
    if None in by_id:
        raise CoverageError(f"no shot record for basis {plan.bases[by_id.index(None)].key}")
    return by_id


def _readout(rec: ShotRecord, columns) -> np.ndarray:
    """Stacked shot means and standard errors of the columns of
    ``columns(occ)``, where ``occ`` is one 0/1 row per recorded pattern."""
    weights = rec.counts.astype(float)
    vals = columns(((rec.patterns[:, None] >> np.arange(rec.mode_count)) & 1)
                   .astype(float))
    mean = weights @ vals / rec.shots
    var = weights @ (vals - mean) ** 2 / rec.shots
    return np.stack([mean, np.sqrt(var / rec.shots)])


def estimate_correlations(plan: MeasurementPlan, records):
    """(TwoPointMatrix, se, FourPointTensor, se) from one pass over the
    records.

    A raw moment <c+_i c+_j c_k c_l> with i < j, k < l comes from the basis
    pairing (i, k) with (j, l), or from the identity and pair readouts of
    its shared indices; its other index orders are antisymmetric copies.
    Plug-in subtraction of the two-point part gives the connected tensor
    and propagates the shot noise to first order.
    """
    n = plan.n_modes
    # [mean or se, axis, 0 or 1 + s, p, q]: <S^axis_pq> and <n_s S^axis_pq>
    # in both pair orders; S^y is odd under the swap
    pair = np.zeros((2, 2, n + 1, n, n))
    # [mean or se, axis1, axis2, p, q, r, s]: <S^axis1_pq S^axis2_rs>, p < q
    # and r < s, in both orders of the two pairs
    quad = np.zeros((2, 2, 2, n, n, n, n))
    for mbasis, rec in zip(plan.bases, _records_by_basis(plan, records)):
        kind, *key = mbasis.key
        if kind == "identity":
            nn = _readout(rec, lambda occ: (occ[:, :, None] * occ[:, None, :])
                          .reshape(len(occ), n * n)).reshape(2, n, n)
        elif kind == "pair":
            p, q, axis = key
            a = "xy".index(axis)
            pair[:, a, :, p, q] = pair[:, a, :, q, p] = _readout(
                rec, lambda occ: 0.5 * (occ[:, p] - occ[:, q])[:, None]
                * np.column_stack([np.ones(len(occ)), occ]))
            pair[0, a, :, q, p] *= 1.0 - 2 * a
        else:
            p, q, ax1, r, s, ax2 = key
            (mean,), (se,) = _readout(rec, lambda occ: (
                (0.5 * (occ[:, p] - occ[:, q])) * (0.5 * (occ[:, r] - occ[:, s])))[:, None])
            a, b = "xy".index(ax1), "xy".index(ax2)
            quad[:, a, b, p, q, r, s] = quad[:, b, a, r, s, p, q] = mean, se

    # <c+_r c_c> = <S^x_rc> + i <S^y_rc>, bare and times n_s
    moment = pair[0, 0] + 1j * pair[0, 1]
    moment_se = np.sqrt(pair[1, 0] ** 2 + pair[1, 1] ** 2)
    c2, se2 = moment[0], moment_se[0]
    c2[np.diag_indices(n)], se2[np.diag_indices(n)] = nn[0].diagonal(), nn[1].diagonal()
    lower = np.tril_indices(n, -1)
    c2[lower] = c2.T[lower].conj()

    # every raw moment with i < j, k < l
    i, j, k, l = np.array([a + b for a, b in product(combinations(range(n), 2), repeat=2)]).T
    val, err = np.empty(i.size, dtype=np.complex128), np.empty(i.size)
    # <c+i c+j ck cl> = -<(c+i ck)(c+j cl)> for disjoint index pairs; S^y
    # of a pair changes sign with its order
    m = (i != k) & (i != l) & (j != k) & (j != l)
    q4, q4_se = quad[:, :, :, np.minimum(i, k)[m], np.maximum(i, k)[m],
                     np.minimum(j, l)[m], np.maximum(j, l)[m]]
    f1, f2 = np.where(i < k, 1.0, -1.0)[m], np.where(j < l, 1.0, -1.0)[m]
    val[m] = -(q4[0, 0] + 1j * (f2 * q4[0, 1]) + 1j * (f1 * q4[1, 0])
               - (f1 * f2) * q4[1, 1])
    err[m] = np.sqrt((q4_se**2).sum(axis=(0, 1)))
    # doubly shared: canonical ordering forces k = i, l = j
    both = (i == k) & (j == l)
    val[both], err[both] = -nn[0, i[both], j[both]], nn[1, i[both], j[both]]
    # one shared index s, anticommuted out: -<n_s c+_r c_c> when it sits
    # at the same place in both pairs, +<n_s c+_r c_c> when not
    one = ~(m | both)
    s = np.where((i == k) | (i == l), i, j)[one]
    r, c = (i + j)[one] - s, (k + l)[one] - s
    val[one] = np.where(((i == k) | (j == l))[one], -1.0, 1.0) * moment[1 + s, r, c]
    err[one] = moment_se[1 + s, r, c]

    raw, se4 = np.zeros((n, n, n, n), dtype=np.complex128), np.zeros((n, n, n, n))
    for (a, b, sa) in ((i, j, 1.0), (j, i, -1.0)):
        for (c, d, sc) in ((k, l, 1.0), (l, k, -1.0)):
            raw[a, b, c, d] = sa * sc * val
            se4[a, b, c, d] = err
    # the moment is Hermitian under full index reversal; averaging the two
    # independent estimates keeps unbiasedness and halves the variance
    raw = 0.5 * (raw + raw.transpose(3, 2, 1, 0).conj())
    se4 = 0.5 * np.sqrt(se4**2 + se4.transpose(3, 2, 1, 0) ** 2)

    connected = connected_four_point(raw, c2)
    a2, v2 = np.abs(c2) ** 2, se2**2
    se_prod1, se_prod2 = (np.sqrt(np.einsum(f, a2, v2) + np.einsum(f, v2, a2))
                          for f in ("il,jk->ijkl", "ik,jl->ijkl"))
    se_conn = np.sqrt(se4**2 + se_prod1**2 + se_prod2**2)
    return (TwoPointMatrix(entries=c2), se2,
            FourPointTensor(entries=connected), se_conn)


def save_shot_records(path: str, plan: MeasurementPlan, records,
                      provenance: dict | None = None):
    """JSON-lines persistence: one header line, then one line per basis."""
    header = serialize.make_header(
        "shots",
        records[0].mode_count if records else plan.n_modes,
        tolerances={},
        provenance=provenance,
    )
    header["plan"] = {
        "order": 2,  # as in scaling_report
        "n_modes": plan.n_modes,
        "shots_per_basis": plan.shots_per_basis,
        "n_bases": plan.n_bases,
    }
    lines = [serialize.to_json_line(header)]
    # mode count -> bit pattern -> (rank, label), made once: labels (mode 0 leftmost)
    # sort as their ranks, the bit-reversed patterns, so keys go out sorted as built
    labels: dict[int, dict[int, tuple[int, str]]] = {}
    for rec in records:
        table = labels.setdefault(rec.mode_count, {})
        patterns = rec.patterns.tolist()
        for b in set(patterns) - table.keys():
            label = format(b, f"0{rec.mode_count}b")[::-1]
            table[b] = (int(label, 2), label)
        ranked, counts = [table[b] for b in patterns], rec.counts.tolist()
        order = np.argsort([rank for rank, _ in ranked]).tolist()
        lines.append(json.dumps({
            "basis_id": rec.basis_id, "counts": {ranked[k][1]: counts[k] for k in order},
            "key": list(rec.key), "mode_count": rec.mode_count, "shots": rec.shots,
        }, separators=(",", ":")))
    serialize.atomic_write_text(path, "\n".join(lines) + "\n")


def load_shot_records(path: str):
    """Inverse of :func:`save_shot_records`; returns (header, records)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: no shots header")
    header = serialize.from_json_line(lines[0])
    serialize.check_header(header, "shots", path)
    records = []
    for ln in lines[1:]:
        doc = serialize.from_json_line(ln)
        labels = doc["counts"]
        # int() alone would also read "0_1", " 01", "+1" and short labels
        if not all(len(p) == doc["mode_count"] and set(p) <= {"0", "1"} for p in labels):
            raise DomainError(f"shot labels of basis {doc['basis_id']} are not "
                              f"{doc['mode_count']} characters of 0 and 1")
        # no dtype: patterns past int64 load as uint64 or object, which ShotRecord rejects
        patterns = np.array([int(p[::-1], 2) for p in labels])
        order = np.argsort(patterns)
        records.append(ShotRecord(
            basis_id=doc["basis_id"],
            key=tuple(doc["key"]),
            mode_count=doc["mode_count"],
            shots=doc["shots"],
            patterns=patterns[order],
            # sampled counts are ints, exact Born weights floats; keep either
            counts=np.array(list(labels.values()))[order],
        ))
    return header, records
