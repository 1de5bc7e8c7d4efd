import dataclasses
import json
import math
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fermiscope import fock, measure
from fermiscope.correlations import measure_four_point_connected, measure_two_point
from fermiscope.fock import CapacityError, DensityMatrix, DomainError, FockBasis
from fermiscope.measure import (
    MAX_BASES,
    CoverageError,
    MeasurementBasis,
    PlanError,
    ShotRecord,
    TunnelingRotation,
    apply_rotation,
    basis_seed,
    estimate_correlations,
    exact_records,
    load_shot_records,
    pair_operator,
    plan_bases,
    readout_rotation,
    readout_rules,
    run_plan,
    save_shot_records,
)
from fermiscope.validate import random_mixed_state

from conftest import bell_pair, paired_state, pure_density
from oracles import (
    apply_rotation_sparse,
    born_weights_loop,
    estimate_correlations_loop,
    same_bits,
)


def _same_record(a: ShotRecord, b: ShotRecord) -> bool:
    """Equal fields, with patterns and counts of one dtype and the same bits."""
    return ((a.basis_id, a.key, a.mode_count, a.shots)
            == (b.basis_id, b.key, b.mode_count, b.shots)
            and a.patterns.dtype == b.patterns.dtype
            and np.array_equal(a.patterns, b.patterns)
            and a.counts.dtype == b.counts.dtype
            and same_bits(a.counts, b.counts))


def test_readout_rules_frozen():
    rules = readout_rules()
    axis, angle = rules["x"]
    assert axis == "y" and angle == pytest.approx(-np.pi / 2)
    axis, angle = rules["y"]
    assert axis == "x" and angle == pytest.approx(np.pi / 2)


def test_apply_rotation_matches_exponential(rng):
    basis = FockBasis(4)
    mixed = random_mixed_state(rng, 4).elements
    general = rng.normal(size=(basis.dim, basis.dim)) + 1j * rng.normal(
        size=(basis.dim, basis.dim))
    for axis in ("x", "y"):
        for _ in range(3):
            i, j = sorted(int(x) for x in rng.choice(4, size=2, replace=False))
            angle = float(rng.uniform(-3.0, 3.0))
            rot = TunnelingRotation((i, j), axis, angle)
            u = scipy.linalg.expm(-1j * angle * pair_operator(basis, (i, j), axis))
            for mat in (mixed, general):
                got = apply_rotation(DensityMatrix(basis, mat), rot).elements
                assert np.abs(got - u @ mat @ u.conj().T).max() < 1e-12
                assert abs(np.trace(got) - np.trace(mat)) < 1e-12


def test_apply_rotation_matches_sparse_oracle_bit_for_bit(rng):
    def same_as_oracle(rho, rotations):
        fast = slow = rho
        for rot in rotations:
            fast = apply_rotation(fast, rot)
            slow = apply_rotation_sparse(slow, rot)
        return same_bits(fast.elements, slow.elements)

    for n_modes in (2, 4, 6):
        basis = FockBasis(n_modes)
        # rows of -0, which the sparse products never return
        signed = random_mixed_state(rng, n_modes).elements
        signed[::3] = complex(-0.0, -0.0)
        states = [
            random_mixed_state(rng, n_modes),
            DensityMatrix(basis, np.eye(basis.dim)),
            DensityMatrix(basis, np.diag(rng.uniform(size=basis.dim))),
            DensityMatrix(basis, signed),
        ]
        # every basis of the plan: single rotations, and double rotations
        # once there are four modes
        plan = plan_bases(n_modes)
        for rho in states:
            for angle in (0.0, 0.4, -2.9):
                for axis in ("x", "y"):
                    rot = TunnelingRotation((0, n_modes - 1), axis, angle)
                    assert same_as_oracle(rho, [rot])
            for mbasis in plan.bases:
                assert same_as_oracle(rho, mbasis.rotations), mbasis.key
    fixed = FockBasis(6, 3)
    a = rng.normal(size=(fixed.dim, fixed.dim)) + 1j * rng.normal(size=(fixed.dim, fixed.dim))
    rho = DensityMatrix(fixed, a @ a.conj().T / np.trace(a @ a.conj().T))
    for mbasis in plan_bases(6).bases:
        assert same_as_oracle(rho, mbasis.rotations), mbasis.key


def _plan_test_states(rng, n_modes):
    basis = FockBasis(n_modes)
    weights = rng.uniform(size=basis.dim)
    weights[::2] = 0.0  # exact-zero Born weights
    signed = random_mixed_state(rng, n_modes).elements
    signed[::3] = complex(-0.0, -0.0)  # rows of -0
    return [
        random_mixed_state(rng, n_modes),
        DensityMatrix(basis, np.eye(basis.dim)),
        DensityMatrix(basis, np.diag(weights / weights.sum())),
        DensityMatrix(basis, signed),
    ]


def _wide_pulse_bases(n_modes):
    """Layers of two and three pulses, some with angles where cos(t/2) < 0."""
    pairs = [(p, p + 1) for p in range(0, n_modes - 1, 2)]
    bases = []
    for angle in (4.0, -4.0, 0.7):
        for axes in ("xy", "yx", "yy", "xx", "xyx"):
            rotations = [TunnelingRotation(pair, axis, angle)
                         for pair, axis in zip(pairs, axes)]
            if len(rotations) == len(axes):
                bases.append(MeasurementBasis(id=len(bases), key=("layer", len(bases)),
                                              rotations=tuple(rotations)))
    return bases


def test_rotated_diagonal_is_the_diagonal_of_apply_rotation_bit_for_bit(rng):
    # the weights are clipped at 0, which turns -0 into +0, so the signed
    # zeros of the diagonal form are checked here, before the clip
    cases = [rho for n in (2, 4, 6) for rho in _plan_test_states(rng, n)]
    general = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    general[::5] = complex(-0.0, 0.0)
    cases.append(DensityMatrix(FockBasis(4), general))
    fixed = FockBasis(6, 3)
    cases.append(DensityMatrix(fixed, np.diag(rng.uniform(size=fixed.dim))))
    for rho in cases:
        n_modes = rho.basis.mode_count
        for pair in ((0, 1), (0, n_modes - 1)):
            for axis in ("x", "y"):
                for angle in (0.0, 0.4, -2.9, 4.0):
                    rot = TunnelingRotation(pair, axis, angle)
                    got = measure._rotated_diagonal(rho, rot)
                    want = np.diagonal(apply_rotation(rho, rot).elements)
                    assert same_bits(got, want), (n_modes, pair, axis, angle)


def test_plan_weights_match_the_per_basis_loop_bit_for_bit(rng):
    cases = [(rho, plan_bases(n).bases + tuple(_wide_pulse_bases(n)))
             for n in (4, 6) for rho in _plan_test_states(rng, n)]
    fixed = FockBasis(6, 3)
    a = rng.normal(size=(fixed.dim, fixed.dim)) + 1j * rng.normal(size=(fixed.dim, fixed.dim))
    cases.append((DensityMatrix(fixed, a @ a.conj().T / np.trace(a @ a.conj().T)),
                  plan_bases(6).bases))
    for rho, bases in cases:
        weights = measure._born_weights(rho, bases)
        assert len(weights) == len(bases)
        for mbasis, got in zip(bases, weights):
            assert same_bits(got, born_weights_loop(rho, mbasis)), mbasis.key


def test_run_plan_matches_sampling_from_the_loop_weights(rng):
    rho = _plan_test_states(rng, 4)[0]
    plan = plan_bases(4, shots_per_basis=300)
    records = run_plan(rho, plan, 41)
    assert [r.basis_id for r in records] == list(range(plan.n_bases))
    for mbasis, rec in zip(plan.bases, records):
        probs = born_weights_loop(rho, mbasis)
        probs /= probs.sum()
        drawn = np.random.default_rng(basis_seed(41, mbasis.id)).multinomial(300, probs)
        hit = np.nonzero(drawn)[0]
        assert (rec.key, rec.shots) == (mbasis.key, 300)
        assert np.array_equal(rec.patterns, rho.basis.states[hit])
        assert np.array_equal(rec.counts, drawn[hit])
        assert rec.patterns.dtype == rec.counts.dtype == np.int64


def test_plan_rotates_each_first_pulse_once(monkeypatch):
    pulses = []
    kernel = measure.apply_rotation

    def spy(state, rot):
        pulses.append(rot)
        return kernel(state, rot)

    monkeypatch.setattr(measure, "apply_rotation", spy)
    for n_modes in (4, 6):
        pulses.clear()
        plan = plan_bases(n_modes)
        exact_records(random_mixed_state(np.random.default_rng(n_modes), n_modes), plan)
        # one full rotation per (pair, axis), the shared first pulse
        assert len(pulses) == len(set(pulses)) == n_modes * (n_modes - 1)
        assert set(pulses) == {b.rotations[0] for b in plan.bases if b.rotations}


@settings(max_examples=25)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1))
def test_exact_records_estimators_are_exact(seed):
    rho = random_mixed_state(np.random.default_rng(seed), 4)
    plan = plan_bases(4)
    records = exact_records(rho, plan)
    c2, _, c4, _ = estimate_correlations(plan, records)
    assert np.abs(c2.entries - measure_two_point(rho).entries).max() < 1e-12
    want = measure_four_point_connected(rho)
    assert np.abs(c4.entries - want.entries).max() < 1e-12


@pytest.mark.parametrize("n_modes", [4, 6, 8])
def test_estimator_matches_loop_oracle_on_sampled_records(n_modes):
    # sampled counts are integers and readouts multiples of 1/4, so every
    # shot sum is exact and C2/C4 must agree to the sign of each zero; the
    # pairing of each disjoint C4 entry shows here and not on exact records
    rho = random_mixed_state(np.random.default_rng(n_modes), n_modes)
    plan = plan_bases(n_modes, shots_per_basis=300)
    records = run_plan(rho, plan, 11)
    c2, c2_se, c4, c4_se = estimate_correlations(plan, records)
    w2, w2_se, w4, w4_se = estimate_correlations_loop(plan, records)
    assert same_bits(c2.entries, w2.entries)
    assert same_bits(c4.entries, w4.entries)
    assert np.abs(c2_se - w2_se).max() <= 1e-15
    assert np.abs(c4_se - w4_se).max() <= 1e-15


@pytest.mark.parametrize("case", ["id past the plan", "negative id",
                                  "repeated basis", "other mode count"])
def test_estimator_rejects_malformed_records(case):
    plan = plan_bases(2)
    records = exact_records(pure_density(bell_pair()), plan)
    last = records[-1]
    if case == "id past the plan":
        records[-1] = dataclasses.replace(last, basis_id=7)
    elif case == "negative id":
        records[-1] = dataclasses.replace(last, basis_id=-1)
    elif case == "repeated basis":
        records.append(dataclasses.replace(records[0], patterns=np.array([0b01]),
                                               counts=np.array([1.0])))
    else:
        records = [dataclasses.replace(r, mode_count=3) for r in records]
    with pytest.raises(CoverageError):
        estimate_correlations(plan, records)


def test_doublet_tables_are_shared_and_read_only():
    # a pulse on (1, 4) mixes the doublets of the shared c+_4 c_1 table
    _, sel, partner, _ = fock._chain_table(6, 3, None, ((4, "create"), (1, "annihilate")))
    for axis in ("x", "y"):
        got = measure._pulse(FockBasis(6, 3), TunnelingRotation((1, 4), axis, 0.3))
        assert got[0] is sel and got[1] is partner
    assert not sel.flags.writeable and not partner.flags.writeable
    # a list pair is stored as a tuple, so its rotation can key a group
    rot = TunnelingRotation([1, 4], "x", 0.3)
    assert rot.pair == (1, 4) and hash(rot) == hash(TunnelingRotation((1, 4), "x", 0.3))


def test_rotation_rejects_partners_outside_the_basis():
    # the pair-(0, 1) partner of |1001> is |1010>, which has 2 Sz = 2
    basis = FockBasis(4, 2, sz_twice=0)
    rho = DensityMatrix(basis, np.eye(basis.dim) / basis.dim)
    with pytest.raises(DomainError, match="outside the basis"):
        apply_rotation(rho, TunnelingRotation((0, 1), "x", 0.3))


def test_rotation_validation():
    with pytest.raises(DomainError):
        TunnelingRotation((1, 1), "x", 0.3)
    with pytest.raises(DomainError):
        TunnelingRotation((0, 1), "z", 0.3)


@pytest.mark.parametrize("n,count", [(2, 3), (4, 25), (6, 211)])
def test_plan_basis_counts(n, count):
    plan = plan_bases(n)
    assert plan.n_bases == count


def test_plan_overhead_stays_constant():
    for n in (4, 6, 8):
        report = plan_bases(n).scaling_report()
        assert report["overhead_coefficient"] == 1
        assert report["quad_bases"] == math.comb(n, 4) * 12
        assert report["pair_budget"] == n * (n - 1)


def test_plan_guards():
    with pytest.raises(DomainError):
        plan_bases(1)
    with pytest.raises(PlanError):
        MeasurementBasis(
            id=0,
            key=("pairs", 0, 1, "x", 1, 2, "x"),
            rotations=(readout_rotation((0, 1), "x"), readout_rotation((1, 2), "x")),
        )


@pytest.mark.parametrize("shots", [2.5, 0, True])
def test_plan_rejects_bad_shots_per_basis(shots):
    with pytest.raises(DomainError, match="shots_per_basis"):
        plan_bases(2, shots_per_basis=shots)
    # checked before the capacity guard, so before any basis is built
    with pytest.raises(DomainError, match="shots_per_basis"):
        plan_bases(10**6, shots_per_basis=shots)


def test_plan_lookup_and_coverage():
    # a basis id indexes plan.bases, and no two bases share a key
    plan = plan_bases(4)
    assert [b.id for b in plan.bases] == list(range(plan.n_bases))
    assert len({b.key for b in plan.bases}) == plan.n_bases
    records = exact_records(pure_density(paired_state()), plan)
    with pytest.raises(CoverageError, match="no shot record"):
        estimate_correlations(plan, records[:3] + records[4:])


def test_exact_records_reproduce_two_point():
    rho = pure_density(bell_pair())
    plan = plan_bases(2)
    c2, se, _, _ = estimate_correlations(plan, exact_records(rho, plan))
    assert np.abs(c2.entries - measure_two_point(rho).entries).max() < 1e-12
    assert np.all(se >= 0.0)


def test_exact_records_reproduce_four_point(rng):
    # below four modes the plan has no double-pair bases, and C4 comes from
    # the identity and pair readouts alone
    for n_modes in (2, 3, 4, 6):
        rho = random_mixed_state(rng, n_modes)
        plan = plan_bases(n_modes)
        records = exact_records(rho, plan)
        c2, _, c4, _ = estimate_correlations(plan, records)
        assert np.abs(c2.entries - measure_two_point(rho).entries).max() < 1e-12
        want = measure_four_point_connected(rho)
        assert np.abs(c4.entries - want.entries).max() < 1e-12


def test_pure_states_are_not_measured():
    # the protocol rotates and samples density matrices only
    psi = paired_state()
    plan = plan_bases(4, shots_per_basis=10)
    rot = TunnelingRotation((0, 1), "x", 0.3)
    with pytest.raises(DomainError, match="StateVector"):
        apply_rotation(psi, rot)
    with pytest.raises(DomainError, match="StateVector"):
        exact_records(psi, plan)
    with pytest.raises(DomainError, match="StateVector"):
        run_plan(psi, plan, 3)
    rho = apply_rotation(pure_density(psi), rot)
    assert np.trace(rho.elements).real == pytest.approx(1.0)


def test_sampling_is_seed_deterministic():
    rho = pure_density(paired_state())
    plan = plan_bases(4, shots_per_basis=200)
    a = run_plan(rho, plan, 99)
    b = run_plan(rho, plan, 99)
    assert all(_same_record(x, y) for x, y in zip(a, b))
    c = run_plan(rho, plan, 100)
    assert not all(_same_record(x, y) for x, y in zip(a, c))


def test_estimates_tighten_with_shots():
    rho = pure_density(paired_state())
    exact = measure_two_point(rho).entries
    devs = []
    for shots in (200, 20_000):
        plan = plan_bases(4, shots_per_basis=shots)
        c2, *_ = estimate_correlations(plan, run_plan(rho, plan, 7))
        devs.append(np.abs(c2.entries - exact).max())
    assert devs[1] < devs[0]


def test_shot_record_count_validation():
    bad = [
        (10, [0, 3], [4, 5]),              # counts miss the shot number
        (10, [0, 3], [13, -3]),            # a negative count
        (10, [7], [10]),                   # pattern 7 needs three modes
        (10, [-1], [10]),
        (0, [], []),                       # no shots at all
        (1, [0], [math.nan]),
        (1, [0, 1], [math.inf, -math.inf]),
        (10, [3, 0], [5, 5]),              # patterns out of order
        (10, [1, 1], [5, 5]),              # a repeated pattern
        (10, [0, 3], [10]),                # one count short
        (10, [[0, 3]], [[5, 5]]),          # not one-dimensional
        (10, [0.0, 3.0], [5, 5]),          # float patterns
        (1, [0], [True]),                  # bool and str counts
        (1, [0], ["1"]),
    ]
    for shots, patterns, counts in bad:
        with pytest.raises(DomainError):
            ShotRecord(basis_id=0, key=("identity",), mode_count=2, shots=shots,
                       patterns=np.array(patterns), counts=np.array(counts))
    # exact Born weights pose as float counts of one shot
    ShotRecord(basis_id=0, key=("identity",), mode_count=2, shots=1,
               patterns=np.array([0, 3]), counts=np.array([0.25, 0.75]))
    basis = FockBasis(2)
    nan_state = DensityMatrix(basis, np.full((basis.dim, basis.dim), math.nan))
    with pytest.raises(DomainError, match="sum to nan"):
        run_plan(nan_state, plan_bases(2, shots_per_basis=10), 0)


def test_basis_seed_is_stable():
    a = basis_seed(42, 3).generate_state(2)
    b = basis_seed(42, 3).generate_state(2)
    assert np.array_equal(a, b)
    c = basis_seed(42, 4).generate_state(2)
    assert not np.array_equal(a, c)


def test_shot_records_round_trip(tmp_path):
    rho = pure_density(paired_state())
    plan = plan_bases(4, shots_per_basis=150)
    records = run_plan(rho, plan, 5)
    path = str(tmp_path / "shots.jsonl")
    save_shot_records(path, plan, records, provenance={"tag": "demo"})
    header, back = load_shot_records(path)
    assert header["plan"]["n_bases"] == plan.n_bases
    assert header["provenance"]["tag"] == "demo"
    assert len(back) == len(records)
    assert all(_same_record(x, y) for x, y in zip(records, back))
    again = str(tmp_path / "again.jsonl")
    save_shot_records(again, plan, back, provenance={"tag": "demo"})
    assert open(again, "rb").read() == open(path, "rb").read()


def test_exact_records_round_trip(tmp_path):
    # Born weights are float counts; they must load back as the same floats
    plan = plan_bases(2)
    records = exact_records(random_mixed_state(np.random.default_rng(0), 2), plan)
    path = str(tmp_path / "exact.jsonl")
    save_shot_records(path, plan, records)
    _, back = load_shot_records(path)
    assert len(back) == len(records)
    assert all(_same_record(x, y) for x, y in zip(records, back))
    assert all(rec.counts.dtype == np.float64 for rec in back)
    again = str(tmp_path / "again.jsonl")
    save_shot_records(again, plan, back)
    assert open(again, "rb").read() == open(path, "rb").read()


@pytest.mark.parametrize("n_modes", [4, 6])
def test_loaded_records_estimate_like_fresh_ones(tmp_path, n_modes):
    # a file lists patterns in label order; loading restores ascending
    # patterns, so the estimator sums the same terms in the same order
    plan = plan_bases(n_modes)
    path = str(tmp_path / "exact.jsonl")
    for seed in range(3):
        records = exact_records(
            random_mixed_state(np.random.default_rng(seed), n_modes), plan)
        save_shot_records(path, plan, records)
        fresh = estimate_correlations(plan, records)
        loaded = estimate_correlations(plan, load_shot_records(path)[1])
        for x, y in zip(fresh, loaded):
            x, y = getattr(x, "entries", x), getattr(y, "entries", y)
            assert same_bits(x, y)


@st.composite
def _shot_records(draw):
    """A plan and shot records for its first bases, with int or float counts."""
    n_modes = draw(st.integers(min_value=2, max_value=6))
    plan = plan_bases(n_modes, shots_per_basis=50)
    as_weights = draw(st.booleans())
    records = []
    for mbasis in plan.bases[:draw(st.integers(min_value=1, max_value=3))]:
        patterns = np.array(sorted(draw(st.sets(
            st.integers(min_value=0, max_value=2**n_modes - 1), min_size=1))),
            dtype=np.int64)
        if as_weights:
            weights = np.array(draw(st.lists(
                st.floats(min_value=0.0, max_value=1.0, allow_subnormal=False),
                min_size=patterns.size, max_size=patterns.size)))
            assume(weights.sum() > 0.0)
            counts, shots = weights / weights.sum(), 1
        else:
            counts = np.array(draw(st.lists(
                st.integers(min_value=0, max_value=10**6),
                min_size=patterns.size, max_size=patterns.size)), dtype=np.int64)
            assume(counts.sum() > 0)
            shots = int(counts.sum())
        records.append(ShotRecord(basis_id=mbasis.id, key=mbasis.key,
                                  mode_count=n_modes, shots=shots,
                                  patterns=patterns, counts=counts))
    return plan, records


@settings(max_examples=60)
@given(case=_shot_records())
def test_shot_records_round_trip_property(tmp_path_factory, case):
    plan, records = case
    path = tmp_path_factory.mktemp("shots") / "shots.jsonl"
    save_shot_records(str(path), plan, records)
    _, back = load_shot_records(str(path))
    assert len(back) == len(records)
    assert all(_same_record(x, y) for x, y in zip(records, back))
    again = path.with_name("again.jsonl")
    save_shot_records(str(again), plan, back)
    assert again.read_bytes() == path.read_bytes()


def test_plan_capacity_guard():
    # 1 + n(n-1) + 12 C(n,4) bases: 22 modes fit, 23 do not
    assert 1 + 22 * 21 + 12 * math.comb(22, 4) <= MAX_BASES
    for n_modes in (23, 10**6, 2**40):
        with pytest.raises(CapacityError):
            plan_bases(n_modes)


def test_shot_records_serialize_mode_zero_leftmost(tmp_path):
    plan = plan_bases(2, shots_per_basis=3)
    rec = ShotRecord(basis_id=0, key=("identity",), mode_count=2, shots=3,
                     patterns=np.array([0b01]), counts=np.array([3]))
    path = str(tmp_path / "one.jsonl")
    save_shot_records(path, plan, [rec])
    row = json.loads(open(path).read().splitlines()[1])
    assert row["counts"] == {"10": 3}  # mode 0 occupied prints first


@pytest.mark.parametrize("mode_count", [63, 64, 70])
def test_load_shot_records_rejects_patterns_past_int64(tmp_path, mode_count):
    plan = plan_bases(2, shots_per_basis=3)
    path = tmp_path / "one.jsonl"
    save_shot_records(str(path), plan, [])
    row = {"basis_id": 0, "key": ["identity"], "mode_count": mode_count, "shots": 3,
           "counts": {"0" * (mode_count - 1) + "1": 3}}
    path.write_text(path.read_text() + json.dumps(row) + "\n")
    if mode_count == 63:
        assert load_shot_records(str(path))[1][0].patterns[0] == 1 << 62
    else:
        with pytest.raises(DomainError):
            load_shot_records(str(path))


@pytest.mark.parametrize("label", ["0_1", " 01", "1", "+1"])
def test_load_shot_records_rejects_malformed_labels(tmp_path, label):
    # int(label[::-1], 2) alone reads the first three and fails on the last
    plan = plan_bases(2, shots_per_basis=3)
    rec = ShotRecord(basis_id=0, key=("identity",), mode_count=2, shots=3,
                     patterns=np.array([0b10]), counts=np.array([3]))
    path = tmp_path / "one.jsonl"
    save_shot_records(str(path), plan, [rec])
    header, row = path.read_text().splitlines()
    row = json.loads(row)
    row["counts"] = {label: 3}
    path.write_text(header + "\n" + json.dumps(row) + "\n")
    with pytest.raises(DomainError, match="0 and 1"):
        load_shot_records(str(path))


def test_load_shot_records_checks_its_header(tmp_path):
    plan = plan_bases(2, shots_per_basis=3)
    path = tmp_path / "one.jsonl"
    save_shot_records(str(path), plan, exact_records(pure_density(bell_pair()), plan))
    header, *rows = path.read_text().splitlines()
    for version in (2, 0, None):
        doc = {**json.loads(header), "version": version}
        path.write_text("\n".join([json.dumps(doc), *rows]) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: unsupported shots version")):
            load_shot_records(str(path))
    for text in ("", "\n \n"):
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_shot_records(str(path))
