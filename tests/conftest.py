"""Shared builders for the test suite."""
from __future__ import annotations

import os
import tempfile

# One BLAS/OpenMP thread: the small dense kernels here lose to thread
# start-up, and results stay the same.  Set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
# Hypothesis caches the constants it finds in local source; keep that
# cache out of the working tree.
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "fermiscope-hypothesis"))

import numpy as np
import pytest
from hypothesis import settings

# Property tests draw the same examples on every run, keep no example
# database in the tree and assert nothing about their timing.
settings.register_profile("fermiscope", derandomize=True, database=None, deadline=None)
settings.load_profile("fermiscope")

from fermiscope.config import RunConfig
from fermiscope.correlations import measure_four_point_connected, measure_two_point
from fermiscope.fock import DensityMatrix, FockBasis, StateVector, partial_trace
from fermiscope.model import (
    HubbardParams,
    build_hamiltonian,
    evolve,
    initial_state,
    select_initial_state,
)


def mini_config(out_dir: str) -> RunConfig:
    """A 4-site run small enough to take every CLI stage in about a second."""
    return RunConfig(
        model=HubbardParams(sites=4),
        master_seed=7701,
        subsystem_sites=2,
        times=(1.0, 3.0),
        u_values=(0.05,),
        ensemble_size=2,
        shots_per_basis=300,
        workers=0,
        out_dir=out_dir,
    )


def bell_pair() -> StateVector:
    """(|10> + |01>)/sqrt(2) on two modes."""
    basis = FockBasis(2)
    amps = np.zeros(basis.dim, dtype=complex)
    amps[basis.index_of(0b01)] = 1 / np.sqrt(2)
    amps[basis.index_of(0b10)] = 1 / np.sqrt(2)
    return StateVector(basis, amps)


def paired_state() -> StateVector:
    """(|1100> + |0011>)/sqrt(2) on four modes, leftmost char mode 0."""
    basis = FockBasis(4)
    amps = np.zeros(basis.dim, dtype=complex)
    amps[basis.index_of(0b0011)] = 1 / np.sqrt(2)
    amps[basis.index_of(0b1100)] = 1 / np.sqrt(2)
    return StateVector(basis, amps)


def pure_density(psi: StateVector) -> DensityMatrix:
    return DensityMatrix(psi.basis, np.outer(psi.amplitudes, psi.amplitudes.conj()))


def quench_snapshot(sites: int, u: float, t: float, keep_modes: int, seed: int):
    """Reduced state plus its measured correlations after a quench."""
    params = HubbardParams(sites=sites)
    n = sites - 1
    spec = select_initial_state(params, n, seed)
    psi = initial_state(params, spec)
    psi = evolve(psi, build_hamiltonian(params.with_interaction(u), particles=n), t)
    rho = partial_trace(psi, keep_modes)
    c2 = measure_two_point(rho)
    c4 = measure_four_point_connected(rho, c2)
    return rho, c2, c4


@pytest.fixture
def rng():
    return np.random.default_rng(2718)
