import json
import math

import numpy as np
import pytest
import scipy.linalg

from fermiscope.correlations import measure_four_point_connected, measure_two_point
from fermiscope.fock import DomainError, FockBasis
from fermiscope.measure import (
    CoverageError,
    MeasurementBasis,
    PlanError,
    ShotRecord,
    TunnelingRotation,
    basis_seed,
    estimate_correlations,
    exact_records,
    load_shot_records,
    pair_operator,
    plan_bases,
    readout_rotation,
    readout_rules,
    rotation_matrix,
    run_plan,
    save_shot_records,
)
from fermiscope.validate import random_mixed_state

from conftest import bell_pair, paired_state, pure_density


def test_readout_rules_frozen():
    rules = readout_rules()
    axis, angle = rules["x"]
    assert axis == "y" and angle == pytest.approx(-np.pi / 2)
    axis, angle = rules["y"]
    assert axis == "x" and angle == pytest.approx(np.pi / 2)


def test_rotation_matrix_matches_exponential(rng):
    basis = FockBasis(4)
    for axis in ("x", "y"):
        for _ in range(3):
            i, j = sorted(int(x) for x in rng.choice(4, size=2, replace=False))
            angle = float(rng.uniform(-3.0, 3.0))
            rot = TunnelingRotation((i, j), axis, angle)
            fast = rotation_matrix(basis, rot).toarray()
            slow = scipy.linalg.expm(-1j * angle * pair_operator(basis, (i, j), axis))
            assert np.abs(fast - slow).max() < 1e-12
            assert np.abs(fast.conj().T @ fast - np.eye(basis.dim)).max() < 1e-12


def test_rotation_rejects_partners_outside_the_basis():
    # the pair-(0, 1) partner of |1001> is |1010>, which has 2 Sz = 2
    basis = FockBasis(4, 2, sz_twice=0)
    with pytest.raises(DomainError, match="outside the basis"):
        rotation_matrix(basis, TunnelingRotation((0, 1), "x", 0.3))


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
    rho = random_mixed_state(rng, 4)
    plan = plan_bases(4, 2)
    records = exact_records(rho, plan)
    c2, _ = estimate_correlations(plan, records, order=1)
    c4, _ = estimate_correlations(plan, records, order=2)
    assert np.abs(c2.entries - measure_two_point(rho).entries).max() < 1e-12
    want = measure_four_point_connected(rho)
    assert np.abs(c4.entries - want.entries).max() < 1e-12


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
    with pytest.raises(DomainError):
        ShotRecord(basis_id=0, key=("identity",), mode_count=2, shots=10,
                   counts={0: 4, 3: 5})


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


def test_shot_records_serialize_mode_zero_leftmost(tmp_path):
    plan = plan_bases(2, 1, shots_per_basis=3)
    rec = ShotRecord(basis_id=0, key=("identity",), mode_count=2, shots=3,
                     counts={0b01: 3})
    path = str(tmp_path / "one.jsonl")
    save_shot_records(path, plan, [rec])
    row = json.loads(open(path).read().splitlines()[1])
    assert row["counts"] == {"10": 3}  # mode 0 occupied prints first
