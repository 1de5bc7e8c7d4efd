import math
import os
import subprocess
import sys

import numpy as np
import pytest

import fermiscope
from fermiscope import harness
from fermiscope.config import RunConfig, save_config
from fermiscope.fock import (
    DomainError,
    FockBasis,
    OccupationBitstring,
    StateVector,
    partial_trace,
)
from fermiscope.entanglement import _sector_basis
from fermiscope.model import (
    DENSE_LIMIT,
    HubbardParams,
    _chebyshev,
    build_hamiltonian,
    dispersion,
    evolve,
    initial_state,
    momentum_values,
    number_diagonal,
    plane_wave_state,
    select_initial_state,
    spin_spread,
    spin_squared_block,
    sz_twice_diagonal,
)

from conftest import mini_config
from oracles import (
    chebyshev_csr,
    commutator_norm_with_spin,
    evolve_krylov_full,
    hamiltonian_sparse_sum,
    hop_matrix,
    quadratic_operator_loop,
    same_bits,
    sector_basis_sparse,
    spin_squared,
)


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


@pytest.mark.parametrize("field", ["hop", "hop2", "interaction"])
@pytest.mark.parametrize("value", ["abc", math.nan, math.inf, True, 1j])
def test_params_reject_non_finite_or_non_real_amplitudes(field, value):
    # complex hops are rejected too: dispersion is a real cosine band
    with pytest.raises(DomainError, match=field):
        HubbardParams(sites=4, **{field: value})


def test_free_spectrum_doubles_the_band():
    params = HubbardParams(sites=3, hop2=0.0)
    ham = build_hamiltonian(params, particles=1)
    w = np.linalg.eigvalsh(ham.dense())
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
    residual = ham.dense() @ psi.amplitudes - energy * psi.amplitudes
    assert np.abs(residual).max() < 1e-12


def test_interaction_term_counts_double_occupancy():
    params = HubbardParams(sites=3, hop=0.0, hop2=0.0, interaction=2.5)
    ham = build_hamiltonian(params, particles=2)
    diag = np.real(np.diagonal(ham.dense()))
    both_on_site0 = ham.basis.index_of(0b000011)
    assert diag[both_on_site0] == pytest.approx(2.5)
    assert diag[ham.basis.index_of(0b000101)] == pytest.approx(0.0)


def test_evolution_methods_agree(rng):
    params = HubbardParams(sites=4, interaction=0.3)
    ham = build_hamiltonian(params, particles=3)
    amps = rng.normal(size=ham.basis.dim) + 1j * rng.normal(size=ham.basis.dim)
    psi = StateVector(ham.basis, amps).normalized()
    dense = evolve(psi, ham, 7.0, method="dense")
    cheb = evolve(psi, ham, 7.0, method="chebyshev")
    assert np.abs(dense.amplitudes - cheb.amplitudes).max() < 1e-9
    assert dense.norm == pytest.approx(1.0, abs=1e-12)
    # the random state spans every 2*Sz block; Chebyshev steps each one apart
    sz = sz_twice_diagonal(ham.basis)
    assert set(sz) == {-3, -1, 1, 3}
    for value in set(sz):
        block = sz == value
        want = np.linalg.norm(psi.amplitudes[block])
        got = np.linalg.norm(cheb.amplitudes[block])
        assert abs(got - want) <= 1e-14 * want
    # at t = 1000, a*t reaches 6400 on the 2*Sz = +-1 blocks, beyond the
    # a*t of about 3500 where the Bessel recurrence starts to rescale
    dense = evolve(psi, ham, 1000.0, method="dense")
    cheb = evolve(psi, ham, 1000.0, method="chebyshev")
    assert np.abs(dense.amplitudes - cheb.amplitudes).max() < 1e-9
    for value in set(sz):  # and each block's step there matches the CSR route bit for bit
        idx = ham.block(int(value))[0]
        assert _same_chebyshev_step(ham, int(value), psi.amplitudes[idx], 1000.0)


@pytest.mark.parametrize("mode_count, particles", [(2, None), (5, None), (8, 3), (12, None)])
def test_sz_twice_diagonal_matches_the_mode_loop(mode_count, particles):
    basis = FockBasis(mode_count, particles)
    want = np.zeros(basis.dim, dtype=np.int64)
    for mode in range(mode_count):  # even modes are spin up
        occ = (basis.states >> mode) & 1
        want += occ if mode % 2 == 0 else -occ
    got = sz_twice_diagonal(basis)
    assert got.dtype == np.int64 and np.array_equal(got, want)


def test_hamiltonian_has_no_entries_between_sz_blocks():
    params = HubbardParams(sites=4, interaction=0.3)
    ham = build_hamiltonian(params, particles=3)
    sz = sz_twice_diagonal(ham.basis)
    assert np.array_equal(ham.sz_twice, sz) and not ham.sz_twice.flags.writeable
    dense = ham.dense()
    rebuilt = np.zeros((ham.basis.dim, ham.basis.dim), dtype=complex)
    for value in np.unique(sz):
        idx, block = ham.block(int(value))
        assert np.array_equal(idx, np.flatnonzero(sz == value))
        assert not idx.flags.writeable
        assert ham.block(int(value))[1] is block  # cached on the instance
        rebuilt[np.ix_(idx, idx)] = dense[np.ix_(idx, idx)]
    assert same_bits(rebuilt, dense)


def test_chebyshev_output_is_zero_outside_the_support(rng):
    params = HubbardParams(sites=4, interaction=0.3)
    ham = build_hamiltonian(params, particles=3)
    sz = sz_twice_diagonal(ham.basis)
    support = np.isin(sz, (-1, 3))
    amps = np.where(support, rng.normal(size=sz.size) + 1j * rng.normal(size=sz.size), 0)
    psi = StateVector(ham.basis, amps).normalized()
    out = evolve(psi, ham, 7.0, method="chebyshev").amplitudes
    assert np.all(out[~support] == 0)
    assert np.all(out[support] != 0)
    dense = evolve(psi, ham, 7.0, method="dense").amplitudes
    assert np.abs(dense - out).max() < 1e-9


@pytest.mark.parametrize("method", ["dense", "chebyshev"])
def test_reduced_state_zeros_are_structural(method):
    # a quench from an occupation pattern keeps N and 2*Sz of the chain
    params = HubbardParams(sites=5)
    ham = build_hamiltonian(params.with_interaction(0.1), particles=4)
    psi = initial_state(params, select_initial_state(params, 4, seed=3))
    rho = partial_trace(evolve(psi, ham, 5.0, method=method), 4)
    n, sz = number_diagonal(rho.basis), sz_twice_diagonal(rho.basis)
    off_n = rho.elements[n[:, None] != n[None, :]]
    assert np.all(off_n == 0)
    assert not np.signbit(off_n.view(float)).any()  # +0.0, never -0.0
    off_sz = rho.elements[(n[:, None] == n[None, :]) & (sz[:, None] != sz[None, :])]
    assert off_sz.size > 0
    if method == "chebyshev":  # each 2*Sz block is stepped apart
        assert np.all(off_sz == 0)
        assert not np.signbit(off_sz.view(float)).any()
    else:  # the whole-sector eigenbasis leaks rounding into other blocks
        assert np.abs(off_sz).max() < 1e-13


@pytest.mark.parametrize("method", ["dense", "chebyshev"])
def test_evolve_rejects_other_sectors_and_non_finite_times(method):
    # 3 and 5 particles on 8 modes: both sectors have 56 states
    ham = build_hamiltonian(HubbardParams(sites=4, interaction=0.3), particles=5)
    other = FockBasis(8, 3)
    assert other.dim == ham.basis.dim
    psi = StateVector(other, np.full(other.dim, other.dim ** -0.5, dtype=complex))
    with pytest.raises(DomainError, match="Hamiltonian"):
        evolve(psi, ham, 1.0, method=method)
    psi = StateVector(ham.basis, psi.amplitudes)
    for t in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="finite"):
            evolve(psi, ham, t, method=method)


def test_one_state_block_evolves_by_its_phase():
    # every site holds one up fermion: the only state with 2*Sz = 4
    ham = build_hamiltonian(HubbardParams(sites=4, interaction=0.3), particles=4)
    idx, (_, half, _, _) = ham.block(4)
    assert idx.size == 1 and half == 0.0  # the layout is H = c
    psi = StateVector(ham.basis, np.zeros(ham.basis.dim, dtype=complex))
    psi.amplitudes[ham.basis.index_of(0b01010101)] = 1.0
    got = evolve(psi, ham, 7.0, method="chebyshev").amplitudes
    want = evolve(psi, ham, 7.0, method="dense").amplitudes
    assert np.abs(got - want).max() <= 1e-14
    assert np.all(got[np.arange(ham.basis.dim) != idx[0]] == 0)


@pytest.fixture(scope="module")
def reconstructed_run(tmp_path_factory):
    """Path of the saved config of a mini run after quench and reconstruct."""
    out = str(tmp_path_factory.mktemp("run"))
    config = mini_config(out)
    harness.cmd_quench(config)
    harness.cmd_reconstruct(config)
    path = os.path.join(out, "config.json")
    save_config(path, config)
    return path


@pytest.fixture(scope="module")
def chebyshev_run(tmp_path_factory):
    """Path of the saved config of a quench whose sector exceeds DENSE_LIMIT."""
    out = str(tmp_path_factory.mktemp("chebyshev"))
    config = RunConfig(model=HubbardParams(sites=8), master_seed=7701, subsystem_sites=4,
                       target_particles=7, times=(1.0,), u_values=(0.05,),
                       ensemble_size=1, workers=0, out_dir=out)
    assert FockBasis(16, config.particles).dim > DENSE_LIMIT
    path = os.path.join(out, "config.json")
    save_config(path, config)
    return path


POOL = ("concurrent.futures.process", "multiprocessing")
NO_SCIPY = ("scipy.sparse", "scipy.linalg", "scipy.special")


@pytest.mark.parametrize("argv, unwanted, run", [
    ((), (*NO_SCIPY, *POOL), None),
    (("quench",), (*NO_SCIPY, "numpy.ma", *POOL), "reconstructed_run"),
    (("quench",), (*NO_SCIPY, "numpy.ma", *POOL), "chebyshev_run"),
    # scipy.linalg.logm imports scipy.sparse.linalg, so only the pool is pinned here
    (("reconstruct",), POOL, "reconstructed_run"),
    (("figures", "all"), ("scipy.sparse", "scipy.linalg", *POOL), "reconstructed_run"),
    (("measure",), ("scipy.sparse", "scipy.linalg", *POOL), "reconstructed_run"),
], ids=["import-cli", "quench-dense", "quench-chebyshev", "reconstruct", "figures",
        "measure"])
def test_stage_loads_only_the_scipy_it_calls(argv, unwanted, run, request):
    # each stage runs in a fresh interpreter, so an unused import is start-up
    # time; at --workers 0 no stage needs the process pool
    code = "\n".join([
        "import sys",
        "import fermiscope.cli as cli",
        "if len(sys.argv) > 1:",
        "    cli.main(sys.argv[1:])",
        f"print('loaded', [m for m in {unwanted!r} if m in sys.modules])",
    ])
    if run:
        argv += ("--config", request.getfixturevalue(run))
    assert _last_line_in_fresh_interpreter(code, *argv) == "loaded []"


def test_sector_basis_loads_no_scipy():
    # S^2 is built on each (N, 2*Sz) block from the ladder tables
    code = "\n".join([
        "import sys",
        "from fermiscope.entanglement import _sector_basis",
        "_sector_basis(6)",
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))",
    ])
    assert _last_line_in_fresh_interpreter(code) == "[]"


def _last_line_in_fresh_interpreter(code: str, *argv) -> str:
    """Last line ``code`` prints in a new interpreter that imports this fermiscope."""
    src = os.path.dirname(os.path.dirname(fermiscope.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                         text=True, check=True, env=env).stdout
    return out.splitlines()[-1]


@pytest.mark.parametrize("kind", ["momentum", "position"])
def test_block_route_matches_full_sector_oracle(kind):
    params = HubbardParams(sites=6, interaction=0.3)
    ham = build_hamiltonian(params, particles=5)
    spec = select_initial_state(params, 5, 4)
    if kind == "momentum":
        psi = initial_state(params, spec)
    else:  # the pattern as a lattice product state
        psi = StateVector(ham.basis, np.zeros(ham.basis.dim))
        psi.amplitudes[ham.basis.index_of(spec.occupation)] = 1.0
    assert np.unique(sz_twice_diagonal(ham.basis)[psi.amplitudes != 0]).size == 1
    for t in (0.5, 6.0):
        got = evolve(psi, ham, t, method="chebyshev")
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


def test_spin_squared_commutes_with_hamiltonian():
    params = HubbardParams(sites=3, interaction=0.7)
    ham = build_hamiltonian(params, particles=2)
    for sz_twice in np.unique(sz_twice_diagonal(ham.basis)):
        s2 = spin_squared_block(FockBasis(6, 2, int(sz_twice)))
        idx = ham.block(int(sz_twice))[0]
        h = ham.dense()[np.ix_(idx, idx)]
        defect = np.abs(s2 @ h - h @ s2).max()
        assert defect < 1e-12


def test_spin_squared_eigenvalues_two_particles():
    w = np.concatenate([np.linalg.eigvalsh(spin_squared_block(FockBasis(6, 2, sz)))
                        for sz in (-2, 0, 2)])
    # two fermions combine to singlet or triplet: s(s+1) in {0, 2}
    assert w.size == FockBasis(6, 2).dim
    assert set(np.round(w).astype(int)) == {0, 2}
    assert np.abs(w - np.round(w)).max() < 1e-12


def test_spin_squared_on_a_fixed_sz_basis_is_a_block_of_fixed_n():
    # S+ leaves 2*Sz = 1 for 2*Sz = 3; the fixed-Sz S^2 must still match
    fixed_n = FockBasis(6, 3)
    fixed_sz = FockBasis(6, 3, sz_twice=1)
    idx = fixed_n.indices_of(fixed_sz.states)
    want = spin_squared(fixed_n).toarray()[np.ix_(idx, idx)]
    got = spin_squared_block(fixed_sz)
    assert got.dtype == np.complex128 and np.array_equal(got, want)
    with pytest.raises(DomainError):
        spin_squared_block(fixed_n)


@pytest.mark.parametrize("mode_count", [2, 4, 6, 8, 10])
def test_sector_basis_matches_the_sparse_s2_oracle(mode_count):
    got, want = _sector_basis(mode_count), sector_basis_sparse(mode_count)
    assert [label for label, _, _ in got] == [label for label, _, _ in want]
    for (_, idx, vecs), (_, idx_want, vecs_want) in zip(got, want):
        assert np.array_equal(idx, idx_want)
        assert same_bits(vecs, vecs_want)


@pytest.mark.parametrize("sites", [3, 4, 5, 6])
@pytest.mark.parametrize("hop, hop2, u", [(1.0, 0.125, 0.3), (-0.7, 0.3, 0.0),
                                          (0.0, 0.0, 0.7)],
                         ids=["next-nearest", "negative-hops", "no-bonds"])
def test_hamiltonian_table_matches_the_sparse_sum_oracle(sites, hop, hop2, u, rng):
    # 3 and 4 sites double the wrap-around next-nearest bonds
    params = HubbardParams(sites, hop, hop2, u)
    for particles in range(2 * sites + 1):
        ham = build_hamiltonian(params, particles)
        dense = ham.dense()
        assert same_bits(dense, hamiltonian_sparse_sum(params, ham.basis).toarray())
        if particles != sites - 1:
            continue
        # the Chebyshev route's fixed-(N, 2*Sz) blocks, at the quench's filling,
        # and a step on each block's layout against the CSR route
        for sz_twice in np.unique(ham.sz_twice):
            idx, _ = ham.block(int(sz_twice))
            basis = FockBasis(2 * sites, particles, int(sz_twice))
            assert same_bits(dense[np.ix_(idx, idx)],
                             hamiltonian_sparse_sum(params, basis).toarray())
            y = _random_vector(rng, idx.size)
            assert all(_same_chebyshev_step(ham, int(sz_twice), y, t) for t in (0.3, 5.0))


def _random_vector(rng, size: int) -> np.ndarray:
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def _same_chebyshev_step(ham, sz_twice: int, y: np.ndarray, t: float) -> bool:
    layout = ham.block(sz_twice)[1]
    return same_bits(_chebyshev(layout, y, t), chebyshev_csr(ham, sz_twice, y, t))


@pytest.mark.parametrize("hop, hop2, u", [(1.0, 0.125, 0.05), (-0.7, 0.3, 0.0)],
                         ids=["next-nearest", "negative-hops"])
def test_chebyshev_layout_matches_the_csr_oracle_bit_for_bit(hop, hop2, u, rng):
    # the 1568- and 3920-state blocks of the 8-site, 7-particle sector, from
    # random states and from a plane-wave quench state, which has exact zeros;
    # with negative hops, a sequential row sum of |H| moves the 2*Sz = +-3 bits
    params = HubbardParams(8, hop, hop2, u)
    ham = build_hamiltonian(params, 7)
    psi = initial_state(params, select_initial_state(params, 7, seed=3))
    steps = [(sz_twice, _random_vector(rng, 3920 if abs(sz_twice) == 1 else 1568))
             for sz_twice in (-3, -1, 1, 3)]
    sz_twice = int(ham.sz_twice[np.flatnonzero(psi.amplitudes)[0]])
    steps.append((sz_twice, psi.amplitudes[ham.block(sz_twice)[0]]))
    for sz_twice, y in steps:
        assert ham.block(sz_twice)[0].size == y.size
        for t in (5.0, 10.0):
            assert _same_chebyshev_step(ham, sz_twice, y, t)


@pytest.mark.parametrize("sites", [4, 5])
def test_spin_spread_matches_the_s2_oracle(sites):
    seen = set()
    for particles in range(1, 2 * sites):
        basis = FockBasis(2 * sites, particles)
        s2 = spin_squared(basis)
        spreads = [spin_spread(basis, int(bits)) for bits in basis.states]
        assert spreads == [commutator_norm_with_spin(s2, basis, int(bits))
                           for bits in basis.states]
        seen.update(spreads)
    assert 0.0 in seen and len(seen) > 2  # patterns kept and rejected alike


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
