"""Self-contained correctness battery behind the `validate` subcommand.

Every check either compares two independent computational routes or pins
a value that can be worked out by hand, so a pass means the conventions
(ordering, string signs, frame phases) agree across the whole stack, not
just that the code runs.  Checks print one line each and the battery
returns False if any of them misses its tolerance.  Matrix exponentials of
Hermitian generators come from one ``eigh`` each; only the frame unitary calls scipy.
"""

from __future__ import annotations

import numpy as np

from .correlations import (
    FourPointTensor,
    TwoPointMatrix,
    diagonalize_two_point,
    measure_four_point_connected,
    measure_two_point,
    subsystem_correlations,
)
from .entanglement import gaussian_companion, non_gaussianity, reference_distribution
from .fock import FockBasis, StateVector, ladder_matrix, partial_trace
from .measure import (
    TunnelingRotation,
    apply_rotation,
    estimate_correlations,
    exact_records,
    pair_operator,
    plan_bases,
)
from .model import (
    HubbardParams,
    InitialStateSpec,
    build_hamiltonian,
    dispersion,
    evolve,
    initial_state,
    momentum_values,
)
from .reconstruct import (
    delta_rho,
    delta_rho_decomposed,
    gaussian_eh,
    project_to_simplex,
    reconstruct_state,
)

POISSON_GUE_QUICK_TOL = 0.015


def random_valid_tensor(rng: np.random.Generator, n_modes: int,
                        scale: float = 1e-3) -> FourPointTensor:
    """Random tensor with the exact symmetries of a connected four-point
    function (antisymmetric within index pairs, Hermitian under full
    reversal), but otherwise unconstrained."""
    shape = (n_modes,) * 4
    t = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    t = t - t.transpose(1, 0, 2, 3)
    t = t - t.transpose(0, 1, 3, 2)
    t = 0.5 * (t + t.transpose(3, 2, 1, 0).conj())
    return FourPointTensor(scale * t)


def random_frame(rng: np.random.Generator, n_modes: int):
    """Generic diagonal frame: Haar-ish rotation, occupations off 0 and 1."""
    a = rng.normal(size=(n_modes, n_modes)) + 1j * rng.normal(
        size=(n_modes, n_modes))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))[None, :]
    g = rng.uniform(0.05, 0.95, size=n_modes)
    c2 = (q * g[None, :]) @ q.conj().T
    return diagonalize_two_point(TwoPointMatrix(c2))


def random_mixed_state(rng: np.random.Generator, n_modes: int):
    """Full-rank density matrix from a random positive square root."""
    from .fock import DensityMatrix

    dim = 1 << n_modes
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = a @ a.conj().T
    mat /= np.trace(mat).real
    return DensityMatrix(FockBasis(n_modes), mat)


def _check_anticommutation() -> tuple[float, str]:
    basis = FockBasis(4)
    eye = np.eye(basis.dim)
    worst = 0.0
    for i in range(4):
        ci = ladder_matrix(basis, i, "annihilate")
        for j in range(4):
            cj = ladder_matrix(basis, j, "annihilate")
            cjd = ladder_matrix(basis, j, "create")
            mixed = ci @ cjd + cjd @ ci - (eye if i == j else 0.0)
            worst = max(worst, float(np.abs(mixed).max()),
                        float(np.abs(ci @ cj + cj @ ci).max()))
    return worst, "all pairs on 4 modes"


def _check_partial_trace() -> tuple[float, str]:
    rng = np.random.default_rng(7)
    basis = FockBasis(6, sector=3)
    amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    psi = StateVector(basis, amps / np.linalg.norm(amps))
    rho = partial_trace(psi, 4)
    worst = abs(rho.trace - 1.0)
    worst = max(worst, float(max(0.0, -np.linalg.eigvalsh(rho.elements).min())))
    lowered = subsystem_correlations(psi, 4)[0].entries
    reduced = measure_two_point(rho).entries
    worst = max(worst, float(np.abs(lowered - reduced).max()))
    return worst, "trace, positivity, moment slicing"


def _check_dispersion() -> tuple[float, str]:
    params = HubbardParams(sites=4, hop=1.0, hop2=0.125)
    got = np.sort(dispersion(params, momentum_values(params.sites)))
    want = np.array([-1.75, -0.25, -0.25, 2.25])
    return float(np.abs(got - want).max()), "4-site band with double hop"


def _check_evolution() -> tuple[float, str]:
    params = HubbardParams(sites=4, interaction=0.3)
    ham = build_hamiltonian(params, particles=3)
    rng = np.random.default_rng(11)
    basis = ham.basis
    amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    psi = StateVector(basis, amps / np.linalg.norm(amps))
    a = evolve(psi, ham, 7.0, method="dense")
    b = evolve(psi, ham, 7.0, method="chebyshev")
    return float(np.abs(a.amplitudes - b.amplitudes).max()), \
        "dense vs iterative propagator"


def _check_reconstruction() -> tuple[float, str]:
    params = HubbardParams(sites=4, interaction=0.05)
    spec = InitialStateSpec(occupation=_half_filled_minus_one(params), seed=0)
    psi = initial_state(params, spec)
    ham = build_hamiltonian(params, particles=spec.occupation.particle_count)
    psi = evolve(psi, ham, 5.0)
    c2, c4 = subsystem_correlations(psi, 4)
    recon = reconstruct_state(c2, c4)
    worst = float(np.abs(
        measure_two_point(recon.assembled).entries - c2.entries).max())
    worst = max(worst, float(np.abs(
        measure_four_point_connected(recon.assembled).entries
        - c4.entries).max()))
    return worst, "quench snapshot, inputs re-measured"


def _half_filled_minus_one(params: HubbardParams):
    from .fock import OccupationBitstring

    n = params.sites - 1
    return OccupationBitstring((1 << n) - 1, params.n_modes)


def _check_decomposition() -> tuple[float, str]:
    rng = np.random.default_rng(23)
    frame = random_frame(rng, 4)
    tensor = random_valid_tensor(rng, 4)
    full = delta_rho(tensor, frame).elements
    i1, i2, i3 = delta_rho_decomposed(tensor, frame)
    return float(np.abs(full - (2.0 * i1 + 4.0 * i2 + i3)).max()), \
        "2 I1 + 4 I2 + I3 vs direct"


def _check_simplex() -> tuple[float, str]:
    got = project_to_simplex(np.array([0.6, 0.5, -0.1]))
    want = np.array([0.55, 0.45, 0.0])
    return float(np.abs(got - want).max()), "worked three-level example"


def _exp_hermitian(h: np.ndarray, factor: complex) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * np.exp(factor * w)) @ v.conj().T


def _check_pulses() -> tuple[float, str]:
    basis = FockBasis(4)
    rng = np.random.default_rng(3)
    rho = random_mixed_state(rng, 4)
    worst = 0.0
    for axis in ("x", "y"):
        for _ in range(4):
            i, j = sorted(rng.choice(4, size=2, replace=False))
            angle = float(rng.uniform(-3.0, 3.0))
            rot = TunnelingRotation((int(i), int(j)), axis, angle)
            fast = apply_rotation(rho, rot).elements
            u = _exp_hermitian(pair_operator(basis, (int(i), int(j)), axis), -1j * angle)
            worst = max(worst, float(np.abs(fast - u @ rho.elements @ u.conj().T).max()))
    return worst, "doublet mixing vs matrix exponential"


def _check_estimators() -> tuple[float, str]:
    rng = np.random.default_rng(5)
    rho = random_mixed_state(rng, 4)
    plan = plan_bases(4)
    c2_hat, _, c4_hat, _ = estimate_correlations(plan, exact_records(rho, plan))
    worst = float(np.abs(
        c2_hat.entries - measure_two_point(rho).entries).max())
    worst = max(worst, float(np.abs(
        c4_hat.entries - measure_four_point_connected(rho).entries).max()))
    return worst, "infinite-shot records vs direct moments"


def _check_references() -> tuple[float, str]:
    poisson = reference_distribution("poisson", samples=20000, seed=2)
    gue = reference_distribution("gue", samples=20000, seed=2)
    dev = max(abs(poisson.mean_r - 0.38629), abs(gue.mean_r - 0.59957))
    return dev, f"poisson {poisson.mean_r:.4f}, gue {gue.mean_r:.4f}"


def _check_thermal_form() -> tuple[float, str]:
    rng = np.random.default_rng(13)
    rho = random_mixed_state(rng, 3)
    c2 = measure_two_point(rho)
    gauss = gaussian_companion(rho)
    thermal = _exp_hermitian(gaussian_eh(c2), -1.0)
    return float(np.abs(thermal - gauss.elements).max()), \
        "exp(-EH) vs rotated product state"


def _check_self_angle() -> tuple[float, str]:
    rng = np.random.default_rng(17)
    gauss = gaussian_companion(random_mixed_state(rng, 3))
    return non_gaussianity(gauss), "gaussian state vs own companion"


CHECKS = (
    ("anticommutation", _check_anticommutation, 1e-12),
    ("partial trace", _check_partial_trace, 1e-12),
    ("band dispersion", _check_dispersion, 1e-12),
    ("time evolution", _check_evolution, 1e-9),
    ("reconstruction", _check_reconstruction, 1e-10),
    ("correction split", _check_decomposition, 1e-12),
    ("simplex projection", _check_simplex, 1e-10),
    ("tunneling pulses", _check_pulses, 1e-12),
    ("shot estimators", _check_estimators, 1e-12),
    ("gap references", _check_references, POISSON_GUE_QUICK_TOL),
    ("thermal form", _check_thermal_form, 1e-10),
    ("self angle", _check_self_angle, 1e-6),
)


def run_oracles() -> bool:
    """Run every check and print one line each; True only if all pass."""
    all_ok = True
    for name, fn, tol in CHECKS:
        value, detail = fn()
        ok = value <= tol
        all_ok = all_ok and ok
        mark = " ok " if ok else "FAIL"
        print(f"[{mark}] {name:<20s} {value:9.2e} <= {tol:.0e}"
              f"  ({detail})")
    return all_ok
