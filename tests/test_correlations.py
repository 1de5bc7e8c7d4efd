import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermiscope import correlations, harness
from fermiscope.correlations import (
    FourPointTensor,
    TwoPointMatrix,
    diagonalize_two_point,
    measure_four_point_connected,
    measure_two_point,
    rotate_four_point,
    subsystem_correlations,
)
from fermiscope.fock import DensityMatrix, DomainError, FockBasis, StateVector, partial_trace
from fermiscope.model import (
    HubbardParams,
    OccupationBitstring,
    build_hamiltonian,
    evolve,
    initial_state,
    plane_wave_state,
    select_initial_state,
)
from fermiscope.validate import random_frame, random_mixed_state, random_valid_tensor

from conftest import bell_pair, paired_state, pure_density, quench_snapshot
from oracles import (
    expectation_chain,
    four_point_all_orders,
    same_bits,
    subsystem_correlations_two_pass,
    trace_chain_dense,
    trace_chain_walk,
)


def test_two_point_of_vacuum_and_single_mode():
    basis = FockBasis(2)
    vac = StateVector(basis, np.array([1, 0, 0, 0], complex))
    assert np.abs(subsystem_correlations(vac, 2)[0].entries).max() == 0.0
    one = StateVector(basis, np.array([0, 1, 0, 0], complex))  # |10>
    assert np.allclose(subsystem_correlations(one, 2)[0].entries, np.diag([1.0, 0.0]))


def test_two_point_of_bell_pair():
    c2 = subsystem_correlations(bell_pair(), 2)[0].entries
    assert np.abs(c2 - 0.5 * np.ones((2, 2))).max() < 1e-14


def test_two_point_density_matrix_path_agrees():
    psi = bell_pair()
    a = subsystem_correlations(psi, 2)[0].entries
    b = measure_two_point(pure_density(psi)).entries
    assert np.abs(a - b).max() < 1e-14


def test_trace_counts_particles():
    psi = bell_pair()
    assert np.trace(subsystem_correlations(psi, 2)[0].entries).real == pytest.approx(1.0)


def test_connected_four_point_vanishes_on_determinant():
    params = HubbardParams(sites=3)
    occ = OccupationBitstring.from_string("101000")
    psi = plane_wave_state(params, occ)
    c4 = subsystem_correlations(psi, params.n_modes)[1]
    assert c4.max_abs() < 1e-12


def test_four_point_accepts_precomputed_two_point():
    rho = pure_density(paired_state())
    c2 = measure_two_point(rho)
    a = measure_four_point_connected(rho).entries
    b = measure_four_point_connected(rho, c2).entries
    assert np.abs(a - b).max() < 1e-14


def test_density_kernels_refuse_pure_states():
    for measure in (measure_two_point, measure_four_point_connected):
        with pytest.raises(DomainError, match="subsystem_correlations"):
            measure(bell_pair())


def test_two_point_validation():
    with pytest.raises(DomainError):
        TwoPointMatrix(np.array([[0.0, 1.0], [0.0, 0.0]])).validate()
    with pytest.raises(DomainError):
        TwoPointMatrix(np.diag([1.5, 0.0])).validate()
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError, match="non-finite"):
            TwoPointMatrix(np.diag([0.3, bad])).validate()
    TwoPointMatrix(np.diag([0.3, 0.7])).validate()


def test_four_point_validation(rng):
    good = random_valid_tensor(rng, 3)
    good.validate()
    with pytest.raises(DomainError):
        FourPointTensor(np.ones((3, 3, 3, 3))).validate()
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        t = good.entries.copy()
        t[0, 1, 2, 0] = bad
        with pytest.raises(DomainError, match="non-finite"):
            FourPointTensor(t).validate()


def test_diagonalize_orders_descending():
    frame = diagonalize_two_point(TwoPointMatrix(np.diag([0.3, 0.7])))
    assert np.allclose(frame.occupations, [0.7, 0.3])
    # frame mode 0 is physical mode 1
    assert abs(frame.rotation[1, 0]) == pytest.approx(1.0)


def test_diagonalize_clamps_pure_occupations():
    c2 = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
    frame = diagonalize_two_point(TwoPointMatrix(c2))
    assert frame.occupations[0] == pytest.approx(1.0 - 1e-10, abs=1e-16)
    assert frame.occupations[1] == pytest.approx(1e-10, abs=1e-16)


def test_diagonalize_recovers_frame(rng):
    frame = random_frame(rng, 4)
    v, g = frame.rotation, frame.occupations
    c2 = TwoPointMatrix((v * g[None, :]) @ v.conj().T)
    again = diagonalize_two_point(c2)
    assert np.abs(np.sort(again.occupations) - np.sort(g)).max() < 1e-12
    rotated = again.rotation.conj().T @ c2.entries @ again.rotation
    assert np.abs(rotated - np.diag(again.occupations)).max() < 1e-11


def test_diagonalize_is_deterministic(rng):
    frame = random_frame(rng, 4)
    c2 = TwoPointMatrix(
        (frame.rotation * frame.occupations[None, :]) @ frame.rotation.conj().T
    )
    a = diagonalize_two_point(c2)
    b = diagonalize_two_point(c2)
    assert a.rotation.tobytes() == b.rotation.tobytes()
    assert a.occupations.tobytes() == b.occupations.tobytes()


def test_rotate_four_point_matches_naive_contraction(rng):
    t = random_valid_tensor(rng, 3)
    frame = random_frame(rng, 3)
    v = frame.rotation
    want = np.einsum("abcd,ap,bq,cr,ds->pqrs", t.entries, v.conj(), v.conj(), v, v)
    got = rotate_four_point(t, frame).entries
    assert np.abs(got - want).max() < 1e-12


def test_rotated_tensor_keeps_symmetries(rng):
    t = random_valid_tensor(rng, 4)
    rotate_four_point(t, random_frame(rng, 4)).validate()


def test_save_load_round_trip(tmp_path, rng):
    frame = random_frame(rng, 3)
    c2 = TwoPointMatrix(
        (frame.rotation * frame.occupations[None, :]) @ frame.rotation.conj().T
    )
    c4 = random_valid_tensor(rng, 3)
    rho = DensityMatrix(FockBasis(3), np.eye(8) / 8)
    harness.save_trajectory(str(tmp_path), 0, 0, (0.0,), [(rho, c2, c4)],
                            [{"label": "round-trip"}])
    _, c2b, c4b, provenance = harness.load_snapshot(str(tmp_path), 0, 0, 0)
    assert np.array_equal(c2.entries, c2b.entries)
    assert np.array_equal(c4.entries, c4b.entries)
    assert provenance["label"] == "round-trip"


def test_snapshot_correlations_round_trip_exactly(tmp_path):
    rho, c2, c4 = quench_snapshot(4, 0.02, 2.0, 4, seed=8)
    harness.save_trajectory(str(tmp_path), 0, 0, (2.0,), [(rho, c2, c4)],
                            [{"t": 2.0}])
    _, c2b, c4b, provenance = harness.load_snapshot(str(tmp_path), 0, 0, 0)
    assert same_bits(c2b.entries, c2.entries)
    assert same_bits(c4b.entries, c4.entries)
    assert provenance["t"] == 2.0
    with open(tmp_path / "u0_m0.json") as fh:
        assert fh.read().count("\n") == 1  # compact: one line per document


@pytest.mark.parametrize("sites, keep_sites, seed", [(5, 2, 3), (6, 3, 4)])
def test_subsystem_correlations_equal_sliced_full_tensors(sites, keep_sites, seed):
    params = HubbardParams(sites=sites)
    spec = select_initial_state(params, sites - 1, seed)
    ham = build_hamiltonian(params.with_interaction(0.05), particles=sites - 1)
    psi = evolve(initial_state(params, spec), ham, 3.0)
    k = 2 * keep_sites
    c2, c4 = subsystem_correlations(psi, k)
    full_c2, full_c4 = subsystem_correlations(psi, 2 * sites)
    assert np.array_equal(c2.entries, full_c2.entries[:k, :k])
    assert np.array_equal(c4.entries, full_c4.entries[:k, :k, :k, :k])
    with pytest.raises(DomainError):
        subsystem_correlations(psi, 2 * sites + 1)


def test_fixed_sz_pure_state_moments_match_its_reduced_state(rng):
    # c_up and c_down lower a fixed-Sz state into different 2*Sz bases
    basis = FockBasis(6, 3, sz_twice=1)
    amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    psi = StateVector(basis, amps).normalized()
    c2, c4 = subsystem_correlations(psi, 4)
    rho = partial_trace(psi, 4)
    want_c2 = measure_two_point(rho)
    assert np.abs(c2.entries - want_c2.entries).max() < 1e-14
    want_c4 = measure_four_point_connected(rho, want_c2)
    assert np.abs(c4.entries - want_c4.entries).max() < 1e-14


def test_save_rejects_mismatched_sizes(tmp_path, rng):
    frame = random_frame(rng, 3)
    c2 = TwoPointMatrix(
        (frame.rotation * frame.occupations[None, :]) @ frame.rotation.conj().T
    )
    rho = DensityMatrix(FockBasis(3), np.eye(8) / 8)
    with pytest.raises(DomainError):
        harness.save_trajectory(str(tmp_path), 0, 0, (0.0,),
                                [(rho, c2, random_valid_tensor(rng, 4))], [{}])


def _dense_moments(rho):
    """C2 and connected C4 of ``rho`` from dense ladder-matrix traces."""
    n = rho.basis.mode_count
    c2 = np.array([[trace_chain_dense(rho, [(i, "create"), (j, "annihilate")])
                    for j in range(n)] for i in range(n)])
    raw = np.zeros((n,) * 4, complex)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    raw[i, j, k, l] = trace_chain_dense(
                        rho, [(i, "create"), (j, "create"),
                              (k, "annihilate"), (l, "annihilate")])
    connected = (raw - np.einsum("il,jk->ijkl", c2, c2)
                 + np.einsum("ik,jl->ijkl", c2, c2))
    return c2, connected


@pytest.mark.parametrize("n_modes", [4, 6])
def test_density_matrix_moments_match_dense_oracle(n_modes):
    rho = random_mixed_state(np.random.default_rng(n_modes), n_modes)
    c2 = measure_two_point(rho)
    c4 = measure_four_point_connected(rho, c2)
    want_c2, want_c4 = _dense_moments(rho)
    assert np.abs(c2.entries - want_c2).max() < 1e-13
    assert np.abs(c4.entries - want_c4).max() < 1e-13


@settings(max_examples=12)
@given(st.sampled_from([6, 8]).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(0, m), st.integers(0, 2**32 - 1))))
def test_reduced_state_moments_match_the_pure_state_lowering(case):
    n_modes, particles, seed = case
    basis = FockBasis(n_modes, particles)
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    psi = StateVector(basis, amps).normalized()
    for keep in range(2, n_modes + 1):
        rho = partial_trace(psi, keep)
        c2 = measure_two_point(rho)
        c4 = measure_four_point_connected(rho, c2)
        want_c2, want_c4 = subsystem_correlations(psi, keep)
        assert np.abs(c2.entries - want_c2.entries).max() <= 1e-13, keep
        assert np.abs(c4.entries - want_c4.entries).max() <= 1e-13, keep


@pytest.mark.parametrize("key", [(4, None, None), (6, 3, None)])
def test_chain_tables_match_the_walk_bit_for_bit(rng, key):
    basis = FockBasis(*key)
    a = rng.normal(size=(basis.dim, basis.dim)) + 1j * rng.normal(size=(basis.dim,) * 2)
    rho = DensityMatrix(basis, a @ a.conj().T)
    n = basis.mode_count
    chains = [((i, "create"), (j, "annihilate")) for i in range(n) for j in range(n)]
    chains += [((i, "create"), (j, "create"), (k, "annihilate"), (l, "annihilate"))
               for i in range(n) for j in range(n) for k in range(n) for l in range(n)]
    for ops in chains:
        assert same_bits(correlations._trace_chain(rho, ops), trace_chain_walk(rho, ops))


def test_chain_tables_reject_chains_that_leave_the_basis():
    basis = FockBasis(4, 2, sz_twice=0)
    rho = DensityMatrix(basis, np.eye(basis.dim) / basis.dim)
    assert correlations._trace_chain(rho, ((0, "create"), (2, "annihilate"))) == 0.0
    # a spin flip leads into another 2*Sz block, where rho has no element
    assert correlations._trace_chain(rho, ((0, "create"), (1, "annihilate"))) == 0.0


@pytest.mark.parametrize("key", [(6, 3, 1), (8, 4, 0), (6, 2, -2)])
def test_fixed_sz_density_moments_match_the_pure_state(rng, key):
    basis = FockBasis(*key)
    amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    psi = StateVector(basis, amps).normalized()
    rho = pure_density(psi)
    c2 = measure_two_point(rho)
    c4 = measure_four_point_connected(rho, c2)
    want_c2, want_c4 = subsystem_correlations(psi, basis.mode_count)
    assert np.abs(c2.entries - want_c2.entries).max() < 1e-13
    assert np.abs(c4.entries - want_c4.entries).max() < 1e-13
    # the spin-flip moments c†_up c_down are exactly zero on both routes
    assert c2.entries[0, 1] == want_c2.entries[0, 1] == 0.0


def test_dense_oracle_matches_expectation_chain(rng):
    basis = FockBasis(4)
    amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    psi = StateVector(basis, amps).normalized()
    for ops in ([(0, "create"), (3, "annihilate")],
                [(2, "create"), (0, "create"), (1, "annihilate"), (3, "annihilate")]):
        got = trace_chain_dense(pure_density(psi), ops)
        assert abs(got - expectation_chain(psi, ops)) < 1e-14


def test_chain_tables_are_shared_and_read_only():
    ops = ((1, "create"), (0, "create"), (2, "annihilate"), (3, "annihilate"))
    a = correlations._chain_table(4, None, None, ops)
    assert correlations._chain_table(4, None, None, ops) is a
    for arr in a[1:]:
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        a[3][0] = 0.0
    # the cache holds every C2 and C4 chain of an 8-mode subsystem at once
    n = 8
    chains = n * (n + 1) // 2 + math.comb(n, 2) ** 2
    assert chains == 820
    assert correlations._chain_table.cache_info().maxsize >= chains


def test_evicting_chain_tables_keeps_values(monkeypatch):
    rhos = [random_mixed_state(np.random.default_rng(s), 4) for s in (1, 2)]
    want = []
    for rho in rhos:
        c2 = measure_two_point(rho)
        want.append((c2.entries, measure_four_point_connected(rho, c2).entries))
    tiny = functools.lru_cache(maxsize=2)(correlations._chain_table.__wrapped__)
    monkeypatch.setattr(correlations, "_chain_table", tiny)
    for rho, (w2, w4) in zip(rhos, want):
        c2 = measure_two_point(rho)
        assert same_bits(c2.entries, w2)
        assert same_bits(measure_four_point_connected(rho, c2).entries, w4)
    assert tiny.cache_info().currsize == 2
    assert tiny.cache_info().misses == 2 * (10 + 36)  # every table rebuilt


def _counting_chain_table(monkeypatch, module):
    """Count the ``_chain_table`` lookups that ``module`` makes."""
    calls = []
    table = module._chain_table

    def counted(*key):
        calls.append(key)
        return table(*key)

    monkeypatch.setattr(module, "_chain_table", counted)
    return calls


@pytest.mark.parametrize("n_modes", [4, 6])
def test_density_four_point_traces_each_index_pair_once(monkeypatch, n_modes):
    rho = random_mixed_state(np.random.default_rng(n_modes), n_modes)
    c2 = measure_two_point(rho)
    calls = _counting_chain_table(monkeypatch, correlations)
    measure_four_point_connected(rho, c2)
    assert len(calls) == math.comb(n_modes, 2) ** 2  # 36 at 4 modes
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("key", [(8, None, None), (8, 4, None), (8, 4, 0)])
def test_subsystem_correlations_lower_the_state_once(monkeypatch, rng, key):
    import oracles

    basis = FockBasis(*key)
    amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    psi = StateVector(basis, amps).normalized()
    n = 6
    calls = _counting_chain_table(monkeypatch, correlations)
    subsystem_correlations(psi, n)
    assert len(calls) == 2 * n  # each c_j once on psi, once on all c_b psi
    # the two-pass lowering it replaced lowers psi a second time for C4
    calls = _counting_chain_table(monkeypatch, oracles)
    oracles.subsystem_correlations_two_pass(psi, n)
    assert len(calls) == 2 * n + n * n


@pytest.mark.parametrize("n", [2, 4, 8])
def test_pure_four_point_contracts_each_index_pair_once(monkeypatch, rng, n):
    basis = FockBasis(8, 4)
    amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    psi = StateVector(basis, amps).normalized()
    calls, einsum = [], np.einsum

    def counted(subscripts, *operands, **kwargs):
        calls.append((subscripts, [op.shape for op in operands]))
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", counted)
    subsystem_correlations(psi, n)
    # one contraction of n(n-1)/2 rows c_j c_i psi (i < j) per operand; the
    # rest are the Wick terms of connected_four_point
    pairs, dim = n * (n - 1) // 2, FockBasis(8, 2).dim
    assert [c for c in calls if "x" in c[0]] == [("px,qx->pq", [(pairs, dim)] * 2)]
    assert len(calls) == 3
    lo, hi, gather, signs = correlations._pair_layout(n)
    assert correlations._pair_layout(n)[2] is gather  # cached per mode count
    assert not (lo.flags.writeable or gather.flags.writeable or signs.flags.writeable)


@pytest.mark.parametrize("bad", [True, False, -1, 2.0, np.float64(2.0), "2", None])
def test_mode_counts_must_be_non_negative_integers(bad):
    psi = StateVector(FockBasis(4, 2), np.ones(6)).normalized()
    with pytest.raises(DomainError, match="non-negative integer"):
        FockBasis(bad)
    with pytest.raises(DomainError):
        partial_trace(psi, bad)
    with pytest.raises(DomainError):
        subsystem_correlations(psi, bad)


def test_numpy_integer_mode_counts_keep_working():
    psi = StateVector(FockBasis(4, 2), np.arange(1.0, 7.0)).normalized()
    basis = FockBasis(np.int64(4))
    assert basis.dim == 16 and type(basis.mode_count) is int
    assert same_bits(partial_trace(psi, np.int64(2)).elements, partial_trace(psi, 2).elements)
    for got, want in zip(subsystem_correlations(psi, np.int32(2)), subsystem_correlations(psi, 2)):
        assert same_bits(got.entries, want.entries)


def _pure_cases():
    """(state, kept modes) over unfiltered, fixed-N and fixed-(N, 2*Sz)
    bases, sectors 0 and 1 included, some with exactly zero amplitudes, the
    same states with -0 in place of every zero part, and a Chebyshev-evolved
    8-mode fixed-N state, exactly zero outside its 2*Sz block."""
    rng = np.random.default_rng(41)
    keys = [(4, None, None), (6, None, None), (6, 0, None), (6, 1, None),
            (6, 3, None), (8, 4, None), (6, 3, 1), (8, 4, 0), (6, 2, -2),
            (6, 1, 1), (6, 0, 0)]
    states = []
    for key in keys:
        basis = FockBasis(*key)
        amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        amps[rng.random(basis.dim) < 0.4] = 0.0
        amps[0] = 1.0
        states.append(StateVector(basis, amps).normalized())
    for psi in list(states):
        amps = psi.amplitudes.copy()
        amps.real[amps.real == 0] = -0.0
        amps.imag[amps.imag == 0] = -0.0
        states.append(StateVector(psi.basis, amps))
    params = HubbardParams(sites=4, interaction=0.3)
    start = initial_state(params, select_initial_state(params, 3, seed=2))
    evolved = evolve(start, build_hamiltonian(params, particles=3), 2.0, method="chebyshev")
    assert (evolved.amplitudes == 0).any() and evolved.basis.sz_twice is None
    states.append(evolved)
    return [(psi, keep) for psi in states
            for keep in sorted({1, psi.basis.mode_count // 2, psi.basis.mode_count})]


def test_pure_lowering_matches_the_two_pass_oracle_bit_for_bit():
    zeros = 0
    for psi, keep in _pure_cases():
        c2, c4 = subsystem_correlations(psi, keep)
        want_c2, want_c4 = subsystem_correlations_two_pass(psi, keep)
        assert same_bits(c2.entries, want_c2), (psi.basis.sector, keep)
        assert same_bits(c4.entries, want_c4), (psi.basis.sector, keep)
        zeros += int((c4.entries == 0).sum())
    assert zeros > 0


def _density_cases():
    """Random, diagonal, rank-1 and sparse states on unfiltered and fixed-N bases."""
    rng = np.random.default_rng(43)
    for key in [(4, None), (4, 2), (6, None), (6, 3), (6, 1)]:
        basis = FockBasis(*key)
        d = basis.dim
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        sparse = a * (rng.random((d, d)) < 0.2)
        for mat in (a @ a.conj().T, np.diag(rng.random(d)), np.outer(v, v.conj()),
                    sparse @ sparse.conj().T + np.diag(rng.random(d))):
            yield DensityMatrix(basis, mat / np.trace(mat).real)


def test_density_four_point_matches_the_all_orders_oracle_bit_for_bit():
    zeros = 0
    for rho in _density_cases():
        c2 = measure_two_point(rho)
        c4 = measure_four_point_connected(rho, c2).entries
        assert same_bits(c4, four_point_all_orders(rho, c2.entries))
        zeros += int((c4 == 0).sum())
    assert zeros > 0
