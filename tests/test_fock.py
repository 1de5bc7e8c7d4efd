import functools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fermiscope import fock
from fermiscope.fock import (
    CapacityError,
    DensityMatrix,
    DomainError,
    FockBasis,
    OccupationBitstring,
    StateVector,
    ladder_map,
    ladder_matrix,
    partial_trace,
    popcount,
    quadratic_operator,
    sector_dimension,
)
from fermiscope.reconstruct import _between_mask, delta_rho
from fermiscope.validate import random_frame, random_valid_tensor

from conftest import paired_state
from oracles import (
    apply_ladder,
    enumerate_states_loop,
    expectation_chain,
    hamming_distance,
    occupation_phase,
    partial_trace_loop,
    quadratic_operator_loop,
    same_bits,
)


def test_bitstring_round_trip():
    n = OccupationBitstring.from_string("1011")
    assert n.bits == 0b1101  # leftmost char is mode 0
    assert n.particle_count == 3
    assert str(n) == "1011"
    assert n.occupation(0) == 1 and n.occupation(1) == 0


def test_bitstring_rejects_bad_input():
    with pytest.raises(DomainError):
        OccupationBitstring.from_string("10x1")
    with pytest.raises(DomainError):
        OccupationBitstring(1 << 4, 4)
    with pytest.raises(DomainError):
        OccupationBitstring(-1, 4)


def test_hamming_distance():
    a = OccupationBitstring.from_string("1100")
    b = OccupationBitstring.from_string("0110")
    assert hamming_distance(a, b) == 2
    with pytest.raises(DomainError):
        hamming_distance(a, OccupationBitstring.from_string("11000"))


def test_occupation_phase_counts_between_modes():
    n = OccupationBitstring.from_string("1011")
    assert occupation_phase(0, 3, set(), n) == 1
    assert occupation_phase(0, 3, {2}, n) == 0
    assert occupation_phase(3, 0, set(), n) == 1  # symmetric in i <-> j
    with pytest.raises(DomainError):
        occupation_phase(2, 2, set(), n)


def test_basis_enumeration_and_sectors():
    full = FockBasis(2)
    assert list(full.states) == [0, 1, 2, 3]
    for k in range(5):
        assert FockBasis(4, k).dim == math.comb(4, k)
    with pytest.raises(DomainError):
        FockBasis(4, 5)
    with pytest.raises(DomainError):
        FockBasis(4, sz_twice=0)  # magnetization needs a particle sector


def test_basis_magnetization_filter():
    # modes 2*site + spin; sz counts up minus down
    assert FockBasis(4, 2, sz_twice=0).dim == 4
    assert FockBasis(4, 2, sz_twice=2).dim == 1
    assert FockBasis(4, 2, sz_twice=-2).dim == 1
    # a fifth mode has no spin partner; it must not be dropped silently
    with pytest.raises(DomainError, match="even mode count"):
        FockBasis(5, 1, sz_twice=1)


def test_indices_of_rejects_non_members():
    basis = FockBasis(4, 2, sz_twice=0)
    assert list(basis.indices_of(np.array([0b0011, 0b1100]))) == [0, 3]
    with pytest.raises(DomainError):
        basis.indices_of(np.array([0b1111]))  # sorts past the end
    with pytest.raises(DomainError):
        basis.indices_of(np.array([0b1010]))  # sorts between members
    assert FockBasis(4, 2).indices_of(np.array([], dtype=np.int64)).size == 0
    # the scalar lookup is the same search
    assert basis.index_of(0b1100) == 3
    assert type(basis.index_of(OccupationBitstring(0b0011, 4))) is int
    for bits in (0b1111, 0b1010, 0b111, -1):
        with pytest.raises(DomainError):
            basis.index_of(bits)


def test_enumeration_matches_the_combinations_loop():
    # every (M <= 12, N, 2*Sz), wrong parities and out-of-range values included
    cases = 0
    for m in range(13):
        for n in [None, *range(m + 1)]:
            spins = [None] if n is None or m % 2 else [None, *range(-m - 2, m + 3)]
            for sz_twice in spins:
                got = fock._enumerate_states(m, n, sz_twice)
                want = enumerate_states_loop(m, n, sz_twice)
                assert got.dtype == want.dtype == np.int64
                assert np.array_equal(got, want), (m, n, sz_twice)
                cases += got.size == 0
    assert cases > 0  # empty sectors were among them


def test_basis_tables_are_shared_and_read_only():
    a, b = FockBasis(6, 3, sz_twice=1), FockBasis(6, 3, sz_twice=1)
    assert a.states is b.states
    assert not a.states.flags.writeable
    with pytest.raises(ValueError):
        a.states[0] = 0
    assert FockBasis(6, 3).states is not a.states


def test_capacity_guard():
    with pytest.raises(CapacityError):
        FockBasis(29)


def test_ladder_signs_count_higher_occupied_modes():
    basis = FockBasis(4)
    src = basis.index_of(OccupationBitstring.from_string("0010"))
    # creating mode 1 passes the occupied mode 2: sign -1
    cdag1 = ladder_matrix(basis, 1, "create")
    dst = basis.index_of(OccupationBitstring.from_string("0110"))
    assert cdag1[dst, src] == -1.0
    # creating mode 3 passes nothing above it: sign +1
    cdag3 = ladder_matrix(basis, 3, "create")
    dst3 = basis.index_of(OccupationBitstring.from_string("0011"))
    assert cdag3[dst3, src] == 1.0
    # annihilating mode 1 out of "0110" passes occupied mode 2
    c1 = ladder_matrix(basis, 1, "annihilate")
    src2 = basis.index_of(OccupationBitstring.from_string("0110"))
    assert c1[src, src2] == -1.0


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_canonical_anticommutators(m):
    basis = FockBasis(m)
    eye = np.eye(basis.dim)
    cs = [ladder_matrix(basis, i, "annihilate") for i in range(m)]
    ds = [ladder_matrix(basis, i, "create") for i in range(m)]
    for i in range(m):
        for j in range(m):
            acc = cs[i] @ ds[j] + ds[j] @ cs[i]
            want = eye if i == j else 0.0
            assert np.abs(acc - want).max() < 1e-12
            assert np.abs(cs[i] @ cs[j] + cs[j] @ cs[i]).max() < 1e-12


def test_apply_ladder_matches_matrix(rng):
    basis = FockBasis(4)
    amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    psi = StateVector(basis, amps).normalized()
    for mode in range(4):
        for kind in ("create", "annihilate"):
            got = apply_ladder(psi, mode, kind).amplitudes
            want = ladder_matrix(basis, mode, kind) @ psi.amplitudes
            assert np.abs(got - want).max() < 1e-14


def test_apply_ladder_shifts_sector():
    basis = FockBasis(4, 2)
    amps = np.zeros(basis.dim, complex)
    amps[0] = 1.0
    up = apply_ladder(StateVector(basis, amps), 3, "create")
    assert up.basis.sector == 3
    down = apply_ladder(StateVector(basis, amps), 0, "annihilate")
    assert down.basis.sector == 1


def test_ladder_map_lands_in_the_shifted_sz_basis():
    basis = FockBasis(6, 3, sz_twice=1)
    # c_up (even mode) lowers 2*Sz by one, c_down (odd mode) raises it
    for mode, sz_twice in ((2, 0), (3, 2)):
        target, cols, rows, signs = ladder_map(basis, ((mode, "annihilate"),))
        assert (target.mode_count, target.sector, target.sz_twice) == (6, 2, sz_twice)
        src = basis.states[cols]
        assert cols.size and np.all((src >> mode) & 1)
        assert np.array_equal(target.states[rows], src & ~(1 << mode))
        want = [(-1) ** popcount(int(b) >> (mode + 1)) for b in src]
        assert np.array_equal(signs, want)


def test_ladder_map_keeps_the_source_basis_when_n_and_sz_are_conserved():
    for basis in (FockBasis(4), FockBasis(4, 2), FockBasis(4, 2, sz_twice=0)):
        assert ladder_map(basis, ((0, "create"), (2, "annihilate")))[0] is basis
    full = FockBasis(4)
    assert ladder_map(full, ((1, "create"),))[0] is full
    with pytest.raises(DomainError):
        ladder_map(FockBasis(4), ((4, "create"),))
    for ops in (((0, "hop"),), ()):
        with pytest.raises(DomainError):
            ladder_map(FockBasis(4), ops)


@st.composite
def _bases_and_chains(draw):
    kind = draw(st.sampled_from(["full", "fixed_n", "fixed_sz"]))
    if kind == "fixed_sz":
        m = draw(st.sampled_from([2, 4, 6]))
        n = draw(st.integers(0, m))
        basis = FockBasis(m, n, draw(st.sampled_from(range(-n, n + 1, 2))))
    else:
        m = draw(st.integers(1, 6))
        basis = FockBasis(m, draw(st.integers(0, m)) if kind == "fixed_n" else None)
    op = st.tuples(st.integers(0, m - 1), st.sampled_from(["create", "annihilate"]))
    return basis, tuple(draw(st.lists(op, min_size=1, max_size=4)))


@given(_bases_and_chains())
def test_ladder_map_equals_the_dense_ladder_product(case):
    basis, ops = case
    m = basis.mode_count
    dn = sum(1 if kind == "create" else -1 for _, kind in ops)
    if basis.sector is not None and not 0 <= basis.sector + dn <= m:
        with pytest.raises(DomainError):
            ladder_map(basis, ops)
        return
    target, cols, rows, signs = ladder_map(basis, ops)
    full = FockBasis(m)
    prod = functools.reduce(np.matmul, [ladder_matrix(full, *op) for op in ops])
    prod = prod[:, full.indices_of(basis.states)]
    want = prod[full.indices_of(target.states)]
    got = np.zeros((target.dim, basis.dim))
    got[rows, cols] = signs
    assert np.array_equal(got, want)
    # the target basis holds every state the chain reaches
    assert np.count_nonzero(want) == np.count_nonzero(prod)


def test_ladder_matrix_requires_unfiltered_basis():
    with pytest.raises(DomainError):
        ladder_matrix(FockBasis(4, 2), 0, "create")


def test_quadratic_operator_matches_ladder_sum(rng):
    basis = FockBasis(4)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = 0.5 * (h + h.conj().T)
    want = np.zeros((basis.dim, basis.dim), complex)
    for i in range(4):
        for j in range(4):
            want += h[i, j] * (
                ladder_matrix(basis, i, "create")
                @ ladder_matrix(basis, j, "annihilate")
            )
    got = quadratic_operator(basis, h)
    assert np.abs(got - want).max() < 1e-13


def test_quadratic_operator_on_sector_basis(rng):
    h = rng.normal(size=(4, 4))
    h = 0.5 * (h + h.T)
    full = FockBasis(4)
    sec = FockBasis(4, 2)
    dense = quadratic_operator(full, h)
    rows = [full.index_of(int(b)) for b in sec.states]
    assert np.abs(quadratic_operator(sec, h) - dense[np.ix_(rows, rows)]).max() < 1e-13


def _ladder_sum(basis, h):
    """sum_ij h_ij c†_i c_j from dense ladder matrices, on the rows of ``basis``."""
    full = FockBasis(basis.mode_count)
    n = basis.mode_count
    want = np.zeros((full.dim, full.dim), complex)
    for i in range(n):
        for j in range(n):
            want += h[i, j] * (
                ladder_matrix(full, i, "create") @ ladder_matrix(full, j, "annihilate")
            )
    rows = full.indices_of(basis.states)
    return want[np.ix_(rows, rows)]


def _random_h(rng, basis, zeros=0.3):
    """Complex h with exact zeros; no up <-> down hops when ``basis`` fixes 2*Sz."""
    n = basis.mode_count
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = 0.5 * (h + h.conj().T)
    h[rng.random((n, n)) < zeros] = 0.0
    h[0, 1] = h[1, 0] = 0.0
    if basis.sz_twice is not None:
        spin = np.arange(n) % 2
        h[spin[:, None] != spin[None, :]] = 0.0
    return h


@pytest.mark.parametrize("key", [(4, None, None), (6, None, None), (6, 3, None),
                                 (6, 3, 1), (6, 2, 0), (4, 0, None)])
def test_quadratic_operator_matches_ladder_sum_with_zeros(rng, key):
    basis = FockBasis(*key)
    h = _random_h(rng, basis)
    got = quadratic_operator(basis, h)
    assert np.abs(got - _ladder_sum(basis, h)).max() < 1e-13
    # the loop that skips h_ij == 0 gives the same bits, signed zeros included
    assert same_bits(got, quadratic_operator_loop(basis, h))
    assert same_bits(quadratic_operator(basis, h.real), quadratic_operator_loop(basis, h.real))


def test_quadratic_operator_rejects_hops_out_of_the_basis():
    basis = FockBasis(4, 2, sz_twice=0)
    h = np.zeros((4, 4))
    h[0, 2] = h[2, 0] = 1.0  # spin-up hop: stays in the basis
    assert np.abs(quadratic_operator(basis, h) - _ladder_sum(basis, h)).max() < 1e-15
    h[0, 1] = 1.0  # up <- down flips 2*Sz
    with pytest.raises(DomainError):
        quadratic_operator(basis, h)


def test_hop_tables_are_shared_and_read_only():
    a = fock._hop_tables(6, 3, 1)
    assert fock._hop_tables(6, 3, 1) is a
    for arr in a:
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        a[5][0] = 0.0
    assert fock._hop_tables(6, 3, None) is not a


def test_evicting_hop_tables_keeps_values(rng, monkeypatch):
    keys = [(4, None, None), (4, 2, None), (6, 3, 1), (4, 1, None)]
    hs = [_random_h(rng, FockBasis(*k)) for k in keys]
    want = [quadratic_operator(FockBasis(*k), h) for k, h in zip(keys, hs)]
    tiny = functools.lru_cache(maxsize=1)(fock._hop_tables.__wrapped__)
    monkeypatch.setattr(fock, "_hop_tables", tiny)
    for _ in range(2):
        for k, h, w in zip(keys, hs, want):
            assert same_bits(quadratic_operator(FockBasis(*k), h), w)
    assert tiny.cache_info().currsize == 1
    assert tiny.cache_info().misses == 2 * len(keys)


def test_pair_tables_are_shared_and_read_only():
    a = fock._pair_tables(6)
    assert fock._pair_tables(6) is a
    for arr in a:
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        a[6][0] = 0.0
    assert fock._pair_tables(5) is not a
    # fewer than four modes hold no disjoint pairs
    for n in (2, 3):
        assert all(arr.size == 0 for arr in fock._pair_tables(n))


def test_pair_table_signs_count_like_occupation_phase():
    basis = FockBasis(6)
    a1, a2, b1, b2, rows, cols, signs = fock._pair_tables(6)
    assert len({*zip(rows.tolist(), cols.tolist())}) == cols.size
    for m in range(cols.size):
        bits = int(basis.states[cols[m]])
        vac, fill = {int(a1[m]), int(a2[m])}, {int(b1[m]), int(b2[m])}
        assert a1[m] < a2[m] and b1[m] < b2[m] and not vac & fill
        assert int(basis.states[rows[m]]) == bits ^ sum(1 << p for p in vac | fill)
        phi = (occupation_phase(a1[m], a2[m], fill, bits)
               + occupation_phase(b1[m], b2[m], vac, bits))
        assert signs[m] == (-1.0) ** phi


def test_evicting_pair_tables_keeps_values(rng, monkeypatch):
    sizes = (2, 4, 3, 6)
    cases = [(random_valid_tensor(rng, n), random_frame(rng, n)) for n in sizes]
    want = [delta_rho(t, frame).elements for t, frame in cases]
    tiny = functools.lru_cache(maxsize=1)(fock._pair_tables.__wrapped__)
    monkeypatch.setattr(fock, "_pair_tables", tiny)
    for _ in range(2):
        for (t, frame), w in zip(cases, want):
            assert same_bits(delta_rho(t, frame).elements, w)
    assert tiny.cache_info().currsize == 1
    assert tiny.cache_info().misses == 2 * len(sizes)


def test_between_mask_counts_like_occupation_phase():
    for bits in range(1 << 6):
        for lo in range(6):
            for hi in range(lo + 1, 6):
                want = occupation_phase(lo, hi, set(), bits)
                assert bin(bits & _between_mask(lo, hi)).count("1") == want


def test_expectation_chain_orders_left_to_right():
    psi = paired_state()
    # <n_0> = 1/2 on the paired superposition
    assert expectation_chain(psi, [(0, "create"), (0, "annihilate")]) == pytest.approx(0.5)
    # <c†_0 c_2> vanishes: the move leaves the support
    assert expectation_chain(psi, [(0, "create"), (2, "annihilate")]) == pytest.approx(0.0)


def test_partial_trace_of_paired_state():
    rho = partial_trace(paired_state(), 2)
    want = np.zeros((4, 4), complex)
    want[0, 0] = 0.5  # |00>
    want[3, 3] = 0.5  # |11>
    assert np.abs(rho.elements - want).max() < 1e-14


def test_partial_trace_properties(rng):
    basis = FockBasis(6, 3)
    amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    psi = StateVector(basis, amps).normalized()
    rho = partial_trace(psi, 4)
    assert rho.trace == pytest.approx(1.0)
    assert rho.hermiticity_defect() < 1e-14
    assert rho.eigenvalues().min() > -1e-14


@pytest.mark.parametrize("chunk", [fock.TRACE_CHUNK, 1])  # 1: a product per row
@pytest.mark.parametrize("key", [(6, None, None), (8, 4, None), (8, 3, 1)])
def test_partial_trace_keeps_the_bits_of_the_per_pattern_loop(rng, monkeypatch, key, chunk):
    monkeypatch.setattr(fock, "TRACE_CHUNK", chunk)
    basis = FockBasis(*key)
    amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    # exact and negative zeros, as in a t = 0 product state
    sparse = np.where(rng.random(basis.dim) < 0.7, -0.0, amps)
    sparse.imag[::2] = -0.0
    single = np.zeros(basis.dim, complex)
    single[basis.dim // 2] = 1.0
    for a in (amps, sparse, single):
        psi = StateVector(basis, a)
        for keep in range(1, basis.mode_count + 1):
            assert same_bits(partial_trace(psi, keep).elements,
                             partial_trace_loop(psi, keep).elements), keep
    layout = fock._trace_layout(*key, 4)
    assert fock._trace_layout(*key, 4) is layout
    for arr in (arr for block in layout for arr in block):
        assert not arr.flags.writeable


def test_sector_dimension_and_rank_bound():
    assert sector_dimension(10, 4) == math.comb(10, 4)
    assert sector_dimension(10, None) == 1 << 10


def test_state_vector_shape_and_norm():
    basis = FockBasis(2)
    with pytest.raises(DomainError):
        StateVector(basis, np.ones(3))
    psi = StateVector(basis, np.array([3.0, 4.0, 0.0, 0.0]))
    assert psi.norm == pytest.approx(5.0)
    assert psi.normalized().norm == pytest.approx(1.0)


def test_density_matrix_shape_guard():
    with pytest.raises(DomainError):
        DensityMatrix(FockBasis(2), np.eye(3))
