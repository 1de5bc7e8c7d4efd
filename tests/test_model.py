import numpy as np
import pytest

from fermiscope.fock import (
    DomainError,
    FockBasis,
    OccupationBitstring,
    StateVector,
    partial_trace,
)
from fermiscope.model import (
    HubbardParams,
    RankDeficientError,
    build_hamiltonian,
    dispersion,
    effective_rank,
    evolve,
    hop_matrix,
    initial_state,
    momentum_values,
    plane_wave_state,
    prepare_position_quench,
    select_initial_state,
    spin_squared,
    sz_twice_diagonal,
)

from oracles import evolve_krylov_full, quadratic_operator_loop, same_bits


def test_momentum_grid_folds_into_first_zone():
    ks = momentum_values(4)
    assert np.allclose(sorted(ks), [-np.pi / 2, 0.0, np.pi / 2, np.pi])


def test_dispersion_frozen_values():
    p3 = HubbardParams(sites=3, hop2=0.0)
    assert np.allclose(sorted(dispersion(p3, momentum_values(3))), [-1.0, -1.0, 2.0])
    p4 = HubbardParams(sites=4)  # next-neighbor hop 1/8 by default
    got = sorted(dispersion(p4, momentum_values(4)))
    assert np.allclose(got, [-1.75, -0.25, -0.25, 2.25])


def test_params_reject_short_chain():
    with pytest.raises(DomainError):
        HubbardParams(sites=2)


def test_free_spectrum_doubles_the_band():
    params = HubbardParams(sites=3, hop2=0.0)
    ham = build_hamiltonian(params, particles=1)
    w = np.linalg.eigvalsh(ham.matrix.toarray())
    band = np.repeat(sorted(dispersion(params, momentum_values(3))), 2)
    assert np.abs(np.sort(w) - band).max() < 1e-12


def test_plane_wave_state_is_free_eigenstate():
    params = HubbardParams(sites=3)
    occ = OccupationBitstring.from_string("100100")  # momentum modes 0 and 3
    psi = plane_wave_state(params, occ)
    assert psi.norm == pytest.approx(1.0)
    ham = build_hamiltonian(params, particles=2)
    ks = momentum_values(3)
    energy = dispersion(params, ks[0]) + dispersion(params, ks[1])
    residual = ham.matrix @ psi.amplitudes - energy * psi.amplitudes
    assert np.abs(residual).max() < 1e-12


def test_interaction_term_counts_double_occupancy():
    params = HubbardParams(sites=3, hop=0.0, hop2=0.0, interaction=2.5)
    ham = build_hamiltonian(params, particles=2)
    diag = np.real(ham.matrix.diagonal())
    both_on_site0 = ham.basis.index_of(0b000011)
    assert diag[both_on_site0] == pytest.approx(2.5)
    assert diag[ham.basis.index_of(0b000101)] == pytest.approx(0.0)


def test_evolution_methods_agree(rng):
    params = HubbardParams(sites=4, interaction=0.3)
    ham = build_hamiltonian(params, particles=3)
    amps = rng.normal(size=ham.basis.dim) + 1j * rng.normal(size=ham.basis.dim)
    psi = StateVector(ham.basis, amps).normalized()
    dense = evolve(psi, ham, 7.0, method="dense")
    krylov = evolve(psi, ham, 7.0, method="krylov")
    assert np.abs(dense.amplitudes - krylov.amplitudes).max() < 1e-9
    assert dense.norm == pytest.approx(1.0, abs=1e-12)
    # the random state spans every 2*Sz block; Krylov steps each one apart
    sz = sz_twice_diagonal(ham.basis)
    assert set(sz) == {-3, -1, 1, 3}
    for value in set(sz):
        block = sz == value
        want = np.linalg.norm(psi.amplitudes[block])
        got = np.linalg.norm(krylov.amplitudes[block])
        assert abs(got - want) <= 1e-14 * want


def test_hamiltonian_has_no_entries_between_sz_blocks():
    params = HubbardParams(sites=4, interaction=0.3)
    ham = build_hamiltonian(params, particles=3)
    sz = sz_twice_diagonal(ham.basis)
    rebuilt = np.zeros((ham.basis.dim, ham.basis.dim), dtype=complex)
    for value in np.unique(sz):
        idx, block = ham.block(int(value))
        assert np.array_equal(idx, np.flatnonzero(sz == value))
        assert not idx.flags.writeable
        assert ham.block(int(value))[1] is block  # cached on the instance
        rebuilt[np.ix_(idx, idx)] = block.toarray()
    assert same_bits(rebuilt, ham.matrix.toarray())


def test_krylov_output_is_zero_outside_the_support(rng):
    params = HubbardParams(sites=4, interaction=0.3)
    ham = build_hamiltonian(params, particles=3)
    sz = sz_twice_diagonal(ham.basis)
    support = np.isin(sz, (-1, 3))
    amps = np.where(support, rng.normal(size=sz.size) + 1j * rng.normal(size=sz.size), 0)
    psi = StateVector(ham.basis, amps).normalized()
    out = evolve(psi, ham, 7.0, method="krylov").amplitudes
    assert np.all(out[~support] == 0)
    assert np.all(out[support] != 0)
    dense = evolve(psi, ham, 7.0, method="dense").amplitudes
    assert np.abs(dense - out).max() < 1e-9


@pytest.mark.parametrize("kind", ["momentum", "position"])
def test_block_route_matches_full_sector_oracle(kind):
    params = HubbardParams(sites=6, interaction=0.3)
    ham = build_hamiltonian(params, particles=5)
    spec = select_initial_state(params, 5, 4, kind=kind)
    psi = initial_state(params, spec)
    assert np.unique(sz_twice_diagonal(ham.basis)[psi.amplitudes != 0]).size == 1
    for t in (0.5, 6.0):
        got = evolve(psi, ham, t, method="krylov")
        want = evolve_krylov_full(psi, ham, t)
        assert np.abs(got.amplitudes - want.amplitudes).max() <= 1e-12


def test_select_initial_state_is_deterministic():
    params = HubbardParams(sites=4)
    a = select_initial_state(params, 3, 123)
    b = select_initial_state(params, 3, 123)
    assert a == b
    c = select_initial_state(params, 3, 124)
    assert c.occupation != a.occupation or c.seed != a.seed


def test_select_initial_state_guards():
    params = HubbardParams(sites=4)
    with pytest.raises(DomainError):
        select_initial_state(params, 4, 0)  # half filling excluded
    with pytest.raises(DomainError):
        select_initial_state(params, 0, 0)
    with pytest.raises(DomainError):
        select_initial_state(params, 3, 0, kind="thermal")


def test_position_quench_reaches_full_rank():
    # 3 particles cannot fill the 4-mode block: one correlation
    # eigenvalue is pinned at zero, so the attainable rank is 2^3
    params = HubbardParams(sites=4)
    spec = select_initial_state(params, 3, 9, kind="position", t_free=8.0)
    psi = prepare_position_quench(params, spec, subsystem_sites=2)
    vals = partial_trace(psi, 4).eigenvalues()
    assert effective_rank(vals) == 8


def test_position_quench_certifies_on_longer_chain():
    params = HubbardParams(sites=6)
    spec = select_initial_state(params, 5, 2, kind="position", t_free=20.0)
    psi = prepare_position_quench(params, spec, subsystem_sites=3)
    vals = partial_trace(psi, 6).eigenvalues()
    assert effective_rank(vals) == 32


def test_position_quench_rejects_unfilled_cut():
    params = HubbardParams(sites=4)
    spec = select_initial_state(params, 3, 9, kind="position", t_free=1e-12)
    with pytest.raises(RankDeficientError):
        prepare_position_quench(params, spec, subsystem_sites=2)


def test_effective_rank_thresholds():
    assert effective_rank(np.array([0.5, 0.5, 1e-15])) == 2
    assert effective_rank(np.array([1.0])) == 1


def test_spin_squared_commutes_with_hamiltonian():
    params = HubbardParams(sites=3, interaction=0.7)
    ham = build_hamiltonian(params, particles=2)
    s2 = spin_squared(ham.basis)
    comm = (s2 @ ham.matrix - ham.matrix @ s2).tocoo()
    defect = np.abs(comm.data).max() if comm.nnz else 0.0
    assert defect < 1e-12


def test_spin_squared_eigenvalues_two_particles():
    basis = FockBasis(6, 2)
    w = np.linalg.eigvalsh(spin_squared(basis).toarray())
    # two fermions combine to singlet or triplet: s(s+1) in {0, 2}
    assert set(np.round(w).astype(int)) == {0, 2}
    assert np.abs(w - np.round(w)).max() < 1e-12


def test_spin_squared_on_a_fixed_sz_basis_is_a_block_of_fixed_n():
    # S+ leaves 2*Sz = 1 for 2*Sz = 3; the fixed-Sz S^2 must still match
    fixed_n = FockBasis(6, 3)
    fixed_sz = FockBasis(6, 3, sz_twice=1)
    idx = fixed_n.indices_of(fixed_sz.states)
    want = spin_squared(fixed_n).toarray()[np.ix_(idx, idx)]
    assert np.array_equal(spin_squared(fixed_sz).toarray(), want)


def test_hop_matrix_matches_the_loop_oracle():
    basis = FockBasis(6, 3)
    for i in range(6):
        for j in range(6):
            if i == j:
                continue
            h = np.zeros((6, 6))
            h[i, j] = 1.0
            hop = hop_matrix(basis, i, j)
            assert hop.shape == (basis.dim, basis.dim)
            assert same_bits(hop.toarray(), quadratic_operator_loop(basis, h))
    with pytest.raises(DomainError):
        hop_matrix(basis, 2, 2)


def test_evolution_is_incremental(rng):
    params = HubbardParams(sites=4, interaction=0.2)
    ham = build_hamiltonian(params, particles=3)
    psi = initial_state(params, select_initial_state(params, 3, 2))
    one = evolve(psi, ham, 5.0)
    two = evolve(evolve(psi, ham, 2.0), ham, 3.0)
    assert np.abs(one.amplitudes - two.amplitudes).max() < 1e-10
