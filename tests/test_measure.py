import json
import math

import numpy as np
import pytest
import scipy.linalg

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
    sample_occupations,
    save_shot_records,
)
from fermiscope.validate import random_mixed_state

from conftest import bell_pair, paired_state, pure_density
from oracles import apply_rotation_sparse, same_bits


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
        # once four modes allow an order-2 plan
        plan = plan_bases(n_modes, 2 if n_modes >= 4 else 1)
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
    for mbasis in plan_bases(6, 2).bases:
        assert same_as_oracle(rho, mbasis.rotations), mbasis.key


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


@pytest.mark.parametrize(
    "n,order,count",
    [(2, 1, 3), (4, 1, 13), (4, 2, 25), (6, 2, 211)],
)
def test_plan_basis_counts(n, order, count):
    plan = plan_bases(n, order)
    assert plan.n_bases == count


def test_plan_overhead_stays_constant():
    for n in (4, 6, 8):
        report = plan_bases(n, 2).scaling_report()
        assert report["overhead_coefficient"] == 1
        assert report["quad_bases"] == math.comb(n, 4) * 12
        assert report["pair_budget"] == n * (n - 1)


def test_plan_guards():
    with pytest.raises(DomainError):
        plan_bases(1, 1)
    with pytest.raises(DomainError):
        plan_bases(4, 3)
    with pytest.raises(PlanError):
        MeasurementBasis(
            id=0,
            key=("pairs", 0, 1, "x", 1, 2, "x"),
            rotations=(readout_rotation((0, 1), "x"), readout_rotation((1, 2), "x")),
        )


def test_plan_lookup_and_coverage():
    plan = plan_bases(4, 1)
    assert plan.basis(("pair", 0, 1, "x")).id >= 0
    with pytest.raises(CoverageError):
        plan.basis(("pair", 0, 1, "q"))
    records = exact_records(pure_density(paired_state()), plan)
    with pytest.raises(CoverageError):
        estimate_correlations(plan, records, order=2)


def test_exact_records_reproduce_two_point():
    rho = pure_density(bell_pair())
    plan = plan_bases(2, 1)
    c2, se = estimate_correlations(plan, exact_records(rho, plan), order=1)
    assert np.abs(c2.entries - measure_two_point(rho).entries).max() < 1e-12
    assert np.all(se >= 0.0)


def test_exact_records_reproduce_four_point(rng):
    for n_modes in (4, 6):
        rho = random_mixed_state(rng, n_modes)
        plan = plan_bases(n_modes, 2)
        records = exact_records(rho, plan)
        c2, _ = estimate_correlations(plan, records, order=1)
        c4, _ = estimate_correlations(plan, records, order=2)
        assert np.abs(c2.entries - measure_two_point(rho).entries).max() < 1e-12
        want = measure_four_point_connected(rho)
        assert np.abs(c4.entries - want.entries).max() < 1e-12


def test_pure_states_are_not_measured():
    # the protocol rotates and samples density matrices only
    psi = paired_state()
    plan = plan_bases(4, 1, shots_per_basis=10)
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
    plan = plan_bases(4, 1, shots_per_basis=200)
    a = run_plan(rho, plan, 99)
    b = run_plan(rho, plan, 99)
    assert all(x.counts == y.counts for x, y in zip(a, b))
    c = run_plan(rho, plan, 100)
    assert any(x.counts != y.counts for x, y in zip(a, c))


def test_estimates_tighten_with_shots():
    rho = pure_density(paired_state())
    exact = measure_two_point(rho).entries
    devs = []
    for shots in (200, 20_000):
        plan = plan_bases(4, 1, shots_per_basis=shots)
        c2, _ = estimate_correlations(plan, run_plan(rho, plan, 7), order=1)
        devs.append(np.abs(c2.entries - exact).max())
    assert devs[1] < devs[0]


def test_shot_record_count_validation():
    bad = [
        (10, {0: 4, 3: 5}),          # counts miss the shot number
        (10, {0: 13, 3: -3}),        # a negative count
        (10, {7: 10}),               # pattern 7 needs three modes
        (10, {-1: 10}),
        (0, {}),                     # no shots at all
        (1, {0: math.nan}),
        (1, {0: math.inf, 1: -math.inf}),
    ]
    for shots, counts in bad:
        with pytest.raises(DomainError):
            ShotRecord(basis_id=0, key=("identity",), mode_count=2, shots=shots,
                       counts=counts)
    # exact Born weights pose as float counts of one shot
    ShotRecord(basis_id=0, key=("identity",), mode_count=2, shots=1,
               counts={0: 0.25, 3: 0.75})
    basis = FockBasis(2)
    nan_state = DensityMatrix(basis, np.full((basis.dim, basis.dim), math.nan))
    with pytest.raises(DomainError, match="sum to nan"):
        sample_occupations(nan_state, plan_bases(2, 1).bases[0], 10, 0)


def test_basis_seed_is_stable():
    a = basis_seed(42, 3).generate_state(2)
    b = basis_seed(42, 3).generate_state(2)
    assert np.array_equal(a, b)
    c = basis_seed(42, 4).generate_state(2)
    assert not np.array_equal(a, c)


def test_shot_records_round_trip(tmp_path):
    rho = pure_density(paired_state())
    plan = plan_bases(4, 1, shots_per_basis=150)
    records = run_plan(rho, plan, 5)
    path = str(tmp_path / "shots.jsonl")
    save_shot_records(path, plan, records, provenance={"tag": "demo"})
    header, back = load_shot_records(path)
    assert header["plan"]["n_bases"] == plan.n_bases
    assert header["provenance"]["tag"] == "demo"
    assert len(back) == len(records)
    for x, y in zip(records, back):
        assert x.key == y.key
        assert x.counts == y.counts
    again = str(tmp_path / "again.jsonl")
    save_shot_records(again, plan, back, provenance={"tag": "demo"})
    assert open(again, "rb").read() == open(path, "rb").read()


def test_exact_records_round_trip(tmp_path):
    # Born weights are float counts; they must load back as the same floats
    plan = plan_bases(2, 1)
    records = exact_records(random_mixed_state(np.random.default_rng(0), 2), plan)
    path = str(tmp_path / "exact.jsonl")
    save_shot_records(path, plan, records)
    _, back = load_shot_records(path)
    assert back == records
    assert all(type(c) is float for rec in back for c in rec.counts.values())
    again = str(tmp_path / "again.jsonl")
    save_shot_records(again, plan, back)
    assert open(again, "rb").read() == open(path, "rb").read()


def test_plan_capacity_guard():
    # 1 + n(n-1) + 12 C(n,4) bases at order 2: 22 modes fit, 23 do not
    assert 1 + 22 * 21 + 12 * math.comb(22, 4) <= MAX_BASES
    for n_modes, order in ((23, 2), (10**6, 2), (10**6, 1), (2**40, 1)):
        with pytest.raises(CapacityError):
            plan_bases(n_modes, order)


def test_shot_records_serialize_mode_zero_leftmost(tmp_path):
    plan = plan_bases(2, 1, shots_per_basis=3)
    rec = ShotRecord(basis_id=0, key=("identity",), mode_count=2, shots=3,
                     counts={0b01: 3})
    path = str(tmp_path / "one.jsonl")
    save_shot_records(path, plan, [rec])
    row = json.loads(open(path).read().splitlines()[1])
    assert row["counts"] == {"10": 3}  # mode 0 occupied prints first
