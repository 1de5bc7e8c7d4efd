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

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from . import serialize
from .correlations import FourPointTensor, TwoPointMatrix
from .fock import (
    CapacityError,
    DensityMatrix,
    DomainError,
    FockBasis,
    ladder_map,
    quadratic_operator,
)

HALF_TURN = math.pi / 2.0
# each basis rotates the whole reduced state; 897 bases at 8 modes
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


def apply_rotation(state: DensityMatrix, rot: TunnelingRotation) -> DensityMatrix:
    """Rotate a DensityMatrix by one tunneling pulse, U rho U+.

    The generator squares to 1/4 on each partner doublet of c+_j c_i, so
    U = cos(t/2) - i sin(t/2) (2S) mixes the rows, then the columns, of
    each doublet and leaves every other state alone.
    """
    if not isinstance(state, DensityMatrix):
        raise DomainError(f"cannot rotate {type(state).__name__}")
    i, j = rot.pair
    target, sel, partner, sign = ladder_map(
        state.basis, ((j, "create"), (i, "annihilate")))
    if target is not state.basis and sel.size:
        raise DomainError(
            "rotation partner states fall outside the basis; use a full or "
            "fixed-N basis"
        )
    c = math.cos(0.5 * rot.angle)
    s = math.sin(0.5 * rot.angle)
    if rot.axis == "x":
        # 2S^x doublet element is the string sign on both corners
        u_ps = u_sp = -1j * s * sign
    else:
        # 2S^y doublet is [[0, -i sgn], [+i sgn, 0]] with row/col order
        # (i occupied, j occupied); multiplying by -i makes it real
        u_ps, u_sp = s * sign, -s * sign
    # u_ps = U[partner, sel] and u_sp = U[sel, partner]
    rho = state.elements.copy()
    top, bottom = rho[sel], rho[partner]
    rho[sel] = c * top + u_sp[:, None] * bottom
    rho[partner] = c * bottom + u_ps[:, None] * top
    left, right = rho[:, sel], rho[:, partner]
    rho[:, sel] = left * c + right * u_sp.conj()
    rho[:, partner] = right * c + left * u_ps.conj()
    # a sparse product sums from +0, so no element of it is -0; keep that
    rho += 0.0
    return DensityMatrix(state.basis, rho)


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
    """Basis inventory covering all correlators of the requested order."""

    n_modes: int
    order: int
    bases: tuple[MeasurementBasis, ...]
    shots_per_basis: int

    def __post_init__(self):
        self.index_by_key = {b.key: b.id for b in self.bases}

    @property
    def n_bases(self) -> int:
        return len(self.bases)

    def basis(self, key: tuple) -> MeasurementBasis:
        if key not in self.index_by_key:
            raise CoverageError(f"plan does not cover {key}")
        return self.bases[self.index_by_key[key]]

    def scaling_report(self) -> dict:
        """Basis counts against the N(N-1) / N(N-1)(N-2)(N-3) budgets."""
        n = self.n_modes
        pair = sum(1 for b in self.bases if b.key[0] == "pair")
        quad = sum(1 for b in self.bases if b.key[0] == "pairs")
        overhead = self.n_bases - quad
        c = math.ceil(overhead / (n * n)) if n else 0
        return {
            "n_modes": n,
            "order": self.order,
            "total_bases": self.n_bases,
            "pair_bases": pair,
            "quad_bases": quad,
            "pair_budget": n * (n - 1),
            "quad_budget": n * (n - 1) * (n - 2) * (n - 3),
            "overhead_coefficient": c,
        }


def plan_bases(n_modes: int, order: int, shots_per_basis: int = 1000) -> MeasurementPlan:
    """Enumerate measurement bases for the given correlation order.

    Order 1 needs both transverse readouts of every pair; order 2 adds,
    for every 4-subset of modes, its three pairings into two disjoint
    rotated pairs with all four axis combinations.  Shared-index
    four-point moments need no bases of their own: they are reductions
    of the pair bases and the identity basis.
    """
    if order not in (1, 2):
        raise DomainError("measurement order must be 1 or 2")
    if n_modes < 2:
        raise DomainError("need at least two modes to measure")
    n_bases = 1 + n_modes * (n_modes - 1)
    if order == 2:
        n_bases += 12 * math.comb(n_modes, 4)
    if n_bases > MAX_BASES:
        raise CapacityError(f"order-{order} plan on {n_modes} modes needs {n_bases} "
                            f"bases, over the {MAX_BASES}-basis capacity guard")
    bases = []

    def add(key, rotations):
        bases.append(MeasurementBasis(id=len(bases), key=key,
                                      rotations=tuple(rotations)))

    add(("identity",), ())
    for p, q in combinations(range(n_modes), 2):
        for axis in ("x", "y"):
            add(("pair", p, q, axis), [readout_rotation((p, q), axis)])
    if order == 2:
        for sub in combinations(range(n_modes), 4):
            a, b, c, d = sub
            for (p, q), (r, s) in (((a, b), (c, d)),
                                   ((a, c), (b, d)),
                                   ((a, d), (b, c))):
                for ax1 in ("x", "y"):
                    for ax2 in ("x", "y"):
                        add(("pairs", p, q, ax1, r, s, ax2),
                            [readout_rotation((p, q), ax1),
                             readout_rotation((r, s), ax2)])
    return MeasurementPlan(n_modes=n_modes, order=order, bases=tuple(bases),
                           shots_per_basis=shots_per_basis)


@dataclass
class ShotRecord:
    """Occupation counts sampled in one basis."""

    basis_id: int
    key: tuple
    mode_count: int
    shots: int
    counts: dict

    def __post_init__(self):
        # records are also read back from files, so every field is checked
        if not self.shots >= 1:
            raise DomainError(f"a shot record needs at least one shot, not {self.shots}")
        if self.counts and not 0 <= min(self.counts) <= max(self.counts) < 1 << self.mode_count:
            raise DomainError(f"bit patterns outside {self.mode_count} modes")
        # float counts are allowed so exact Born weights can pose as records
        counts = np.fromiter(self.counts.values(), dtype=float, count=len(self.counts))
        if not np.all((counts >= 0.0) & (counts < math.inf)):
            raise DomainError("shot counts must be finite and non-negative")
        total = sum(self.counts.values())
        if abs(total - self.shots) > 1e-9 * max(1.0, self.shots):
            raise DomainError("shot counts do not sum to the shot number")


def basis_seed(master_seed: int, basis_id: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(basis_id,))


def _born_weights(state, mbasis: MeasurementBasis) -> np.ndarray:
    """Occupation weights after the basis's rotations, clipped at zero."""
    if not isinstance(state, DensityMatrix):
        raise DomainError(f"cannot measure {type(state).__name__}")
    rotated = state
    for rot in mbasis.rotations:
        rotated = apply_rotation(rotated, rot)
    return np.clip(np.real(np.diag(rotated.elements)), 0.0, None)


def sample_occupations(state, mbasis: MeasurementBasis, shots: int,
                       seed) -> ShotRecord:
    """Rotate, then draw occupation bitstrings from the Born weights."""
    if shots < 1:
        raise DomainError("need at least one shot")
    probs = _born_weights(state, mbasis)
    total = probs.sum()
    if not abs(total - 1.0) <= 1e-8:
        raise DomainError(f"sampling weights sum to {total:.6g}, not 1")
    probs /= total
    rng = np.random.default_rng(seed)
    drawn = rng.multinomial(shots, probs)
    hit = np.nonzero(drawn)[0]
    counts = {int(state.basis.states[k]): int(drawn[k]) for k in hit}
    return ShotRecord(basis_id=mbasis.id, key=mbasis.key,
                      mode_count=state.basis.mode_count, shots=shots,
                      counts=counts)


def run_plan(state, plan: MeasurementPlan, master_seed: int,
             shots: int | None = None) -> list[ShotRecord]:
    """Sample every basis of a plan with per-basis derived seeds."""
    shots = plan.shots_per_basis if shots is None else shots
    return [
        sample_occupations(state, b, shots, basis_seed(master_seed, b.id))
        for b in plan.bases
    ]


def exact_records(state, plan: MeasurementPlan) -> list[ShotRecord]:
    """Infinite-shot limit: Born weights posing as counts.

    Feeding these to the estimators returns exact expectation values,
    which isolates estimator algebra from sampling noise.
    """
    out = []
    for mbasis in plan.bases:
        probs = _born_weights(state, mbasis)
        probs = probs / probs.sum()
        counts = {int(b): float(p)
                  for b, p in zip(state.basis.states, probs) if p > 0.0}
        out.append(ShotRecord(basis_id=mbasis.id, key=mbasis.key,
                              mode_count=state.basis.mode_count, shots=1,
                              counts=counts))
    return out


def _shot_mean(record: ShotRecord, values_fn):
    """Sample mean and standard error of a bitstring observable."""
    bits = np.fromiter(record.counts.keys(), dtype=np.int64,
                       count=len(record.counts))
    weights = np.fromiter(record.counts.values(), dtype=float,
                          count=len(record.counts))
    vals = values_fn(bits)
    mean = float(np.dot(weights, vals)) / record.shots
    var = float(np.dot(weights, (vals - mean) ** 2)) / record.shots
    se = math.sqrt(var / record.shots)
    return mean, se


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


class _RecordSet:
    def __init__(self, plan: MeasurementPlan, records):
        self.plan = plan
        by_id = {}
        for rec in records:
            if rec.key != plan.bases[rec.basis_id].key:
                raise CoverageError(
                    f"record for basis {rec.basis_id} carries key {rec.key}, "
                    f"plan says {plan.bases[rec.basis_id].key}"
                )
            by_id[rec.basis_id] = rec
        self.by_id = by_id

    def record(self, key: tuple) -> ShotRecord:
        if key not in self.plan.index_by_key:
            raise CoverageError(f"plan does not cover {key}")
        bid = self.plan.index_by_key[key]
        if bid not in self.by_id:
            raise CoverageError(f"no shot record for basis {key}")
        return self.by_id[bid]

    def pair_moment(self, first: int, second: int, extra_fn=None):
        """<c+_first c_second> (optionally weighted by a diagonal factor)."""
        p, q, flip = _canonical_pair(first, second)
        total = 0.0j
        var = 0.0
        sz = _pair_sz(p, q)
        for axis in ("x", "y"):
            rec = self.record(("pair", p, q, axis))
            if extra_fn is None:
                fn = sz
            else:
                fn = lambda bits, e=extra_fn, s=sz: e(bits) * s(bits)
            mean, se = _shot_mean(rec, fn)
            sign = flip if axis == "y" else 1.0
            total += _axis_coef(axis) * sign * mean
            var += se * se
        return total, math.sqrt(var)

    def double_pair_moment(self, pair1, axis1, pair2, axis2):
        """<S^axis1_pair1 S^axis2_pair2> for disjoint pairs, with swap signs."""
        p, q, f1 = _canonical_pair(*pair1)
        r, s, f2 = _canonical_pair(*pair2)
        if (p, q) > (r, s):
            (p, q, f1, axis1), (r, s, f2, axis2) = (
                (r, s, f2, axis2), (p, q, f1, axis1))
        rec = self.record(("pairs", p, q, axis1, r, s, axis2))
        sz1, sz2 = _pair_sz(p, q), _pair_sz(r, s)
        mean, se = _shot_mean(rec, lambda bits: sz1(bits) * sz2(bits))
        sign = (f1 if axis1 == "y" else 1.0) * (f2 if axis2 == "y" else 1.0)
        return sign * mean, se


def _estimate_two_point(rs: _RecordSet):
    n = rs.plan.n_modes
    c2 = np.zeros((n, n), dtype=np.complex128)
    se = np.zeros((n, n))
    ident = rs.record(("identity",))
    for p in range(n):
        c2[p, p], se[p, p] = _shot_mean(ident, _occ(p))
    for p, q in combinations(range(n), 2):
        val, err = rs.pair_moment(p, q)
        c2[p, q] = val
        c2[q, p] = np.conj(val)
        se[p, q] = se[q, p] = err
    return c2, se


def _raw_four_moment(rs: _RecordSet, i, j, k, l):
    """<c+_i c+_j c_k c_l> for i < j, k < l from covered bases."""
    shared = {i, j} & {k, l}
    if len(shared) == 0:
        # <c+i c+j ck cl> = -<(c+i ck)(c+j cl)> for disjoint index pairs
        total = 0.0j
        var = 0.0
        for ax1 in ("x", "y"):
            for ax2 in ("x", "y"):
                mean, err = rs.double_pair_moment((i, k), ax1, (j, l), ax2)
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
        val, err = rs.pair_moment(r_idx, c_idx, extra_fn=_occ(s_idx))
        return sgn * val, err
    # doubly shared: canonical ordering forces k = i, l = j
    mean, err = _shot_mean(rs.record(("identity",)),
                           lambda bits: _occ(i)(bits) * _occ(j)(bits))
    return -mean, err


def estimate_correlations(plan: MeasurementPlan, records, order: int):
    """Turn shot records into correlation estimates with standard errors.

    order 1 returns (TwoPointMatrix, se matrix); order 2 returns the
    connected four-point tensor (FourPointTensor, se tensor) built from
    raw moments with plug-in subtraction of the estimated two-point
    part.  Statistical noise is per-entry shot noise; the subtraction
    propagates it to first order in the estimated means.
    """
    rs = _RecordSet(plan, records)
    c2, se2 = _estimate_two_point(rs)
    if order == 1:
        return TwoPointMatrix(entries=c2), se2
    if order != 2:
        raise DomainError("estimation order must be 1 or 2")
    if plan.order < 2:
        raise CoverageError("plan was built for order 1 only")

    n = plan.n_modes
    raw = np.zeros((n, n, n, n), dtype=np.complex128)
    se4 = np.zeros((n, n, n, n))
    for i, j in combinations(range(n), 2):
        for k, l in combinations(range(n), 2):
            val, err = _raw_four_moment(rs, i, j, k, l)
            for (a, b, sa) in ((i, j, 1.0), (j, i, -1.0)):
                for (c, d, sc) in ((k, l, 1.0), (l, k, -1.0)):
                    raw[a, b, c, d] = sa * sc * val
                    se4[a, b, c, d] = err
    # the moment is Hermitian under full index reversal; averaging the two
    # independent estimates keeps unbiasedness and halves the variance
    raw = 0.5 * (raw + raw.transpose(3, 2, 1, 0).conj())
    se4 = 0.5 * np.sqrt(se4**2 + se4.transpose(3, 2, 1, 0) ** 2)

    connected = (raw
                 - np.einsum("il,jk->ijkl", c2, c2)
                 + np.einsum("ik,jl->ijkl", c2, c2))
    a2 = np.abs(c2)
    se_prod1 = np.sqrt(
        np.einsum("il,jk->ijkl", a2**2, se2**2)
        + np.einsum("il,jk->ijkl", se2**2, a2**2)
    )
    se_prod2 = np.sqrt(
        np.einsum("ik,jl->ijkl", a2**2, se2**2)
        + np.einsum("ik,jl->ijkl", se2**2, a2**2)
    )
    se_conn = np.sqrt(se4**2 + se_prod1**2 + se_prod2**2)
    return FourPointTensor(entries=connected), se_conn


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
        "order": plan.order,
        "n_modes": plan.n_modes,
        "shots_per_basis": plan.shots_per_basis,
        "n_bases": plan.n_bases,
    }
    lines = [serialize.to_json_line(header)]
    for rec in records:
        lines.append(serialize.to_json_line({
            "basis_id": rec.basis_id,
            "key": list(rec.key),
            "mode_count": rec.mode_count,
            "shots": rec.shots,
            "counts": {format(b, f"0{rec.mode_count}b")[::-1]: c
                       for b, c in sorted(rec.counts.items())},
        }))
    serialize.atomic_write_text(path, "\n".join(lines) + "\n")


def load_shot_records(path: str):
    """Inverse of :func:`save_shot_records`; returns (header, records)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    header = serialize.from_json_line(lines[0])
    serialize.check_header(header, "shots")
    records = []
    for ln in lines[1:]:
        doc = serialize.from_json_line(ln)
        # sampled counts are ints, exact Born weights floats; keep either
        counts = {int(pattern[::-1], 2): c
                  for pattern, c in doc["counts"].items()}
        records.append(ShotRecord(
            basis_id=doc["basis_id"],
            key=tuple(doc["key"]),
            mode_count=doc["mode_count"],
            shots=doc["shots"],
            counts=counts,
        ))
    return header, records
