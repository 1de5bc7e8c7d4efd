"""Acceptance battery.

Ten end-to-end checks, one per release criterion, each printing a single
`C## PASS/FAIL` line with its measured numbers (run with `pytest -s` to
see the lines for passing tests too).  Tolerances and runtime budgets are
pinned; seeds are frozen so every run sees identical statistics.
"""
import itertools
import os
import time
import warnings

import numpy as np
import scipy.stats

from fermiscope import harness
from fermiscope.config import RunConfig
from fermiscope.correlations import (
    TwoPointMatrix,
    diagonalize_two_point,
    measure_four_point_connected,
    measure_two_point,
)
from fermiscope.entanglement import (
    eigenvalue_spectrum,
    entanglement_spectrum,
    gap_statistics,
    reference_distribution,
    sector_spectra,
)
from fermiscope.fock import DensityMatrix, FockBasis, partial_trace
from fermiscope.measure import estimate_correlations, plan_bases, run_plan
from fermiscope.model import (
    HubbardParams,
    build_hamiltonian,
    evolve,
    initial_state,
    select_initial_state,
)
from fermiscope.reconstruct import (
    AnsatzValidityWarning,
    delta_rho,
    delta_rho_decomposed,
    gaussian_state,
    project_to_simplex,
    reconstruct_state,
)
from fermiscope.serialize import sha256_of_file
from fermiscope.validate import random_frame, random_valid_tensor

from conftest import paired_state, pure_density

POISSON_R = 0.3863
GUE_R = 0.5996


def _report(tag: str, ok: bool, detail: str):
    print(f"\n{tag} {'PASS' if ok else 'FAIL'} {detail}")


def _member_specs(params: HubbardParams, n: int, count: int, entropy: int):
    seeds = np.random.SeedSequence(entropy).generate_state(count, dtype=np.uint64)
    return [select_initial_state(params, n, int(s)) for s in seeds]


def _quiet_reconstruct(c2, c4):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AnsatzValidityWarning)
        return reconstruct_state(c2, c4)


def test_c01_correlation_reproduction():
    start = time.perf_counter()
    times = (1.0, 2.0, 5.0, 10.0, 20.0)
    worst2 = worst4 = 0.0
    count = 0
    for sites, us, members in ((4, (0.01, 0.05), 3), (5, (0.02, 0.05), 2)):
        params = HubbardParams(sites=sites)
        n = sites - 1
        specs = _member_specs(params, n, members, entropy=sites)
        for u in us:
            ham = build_hamiltonian(params.with_interaction(u), particles=n)
            for spec in specs:
                psi = initial_state(params, spec)
                t_prev = 0.0
                for t in times:
                    psi = evolve(psi, ham, t - t_prev)
                    t_prev = t
                    rho = partial_trace(psi, 4)
                    c2 = measure_two_point(rho)
                    c4 = measure_four_point_connected(rho, c2)
                    rec = _quiet_reconstruct(c2, c4)
                    c2_back = measure_two_point(rec.assembled)
                    c4_back = measure_four_point_connected(rec.assembled, c2_back)
                    worst2 = max(worst2, np.abs(c2_back.entries - c2.entries).max())
                    worst4 = max(worst4, np.abs(c4_back.entries - c4.entries).max())
                    count += 1
    elapsed = time.perf_counter() - start
    ok = count >= 50 and worst2 < 1e-10 and worst4 < 1e-10 and elapsed < 300
    _report("C01", ok,
            f"snapshots {count}, max|dC2| {worst2:.2e}, max|dC4| {worst4:.2e}, "
            f"{elapsed:.0f}s")
    assert count >= 50
    assert worst2 < 1e-10 and worst4 < 1e-10
    assert elapsed < 300


def test_c02_perturbative_order_scaling():
    start = time.perf_counter()
    params = HubbardParams(sites=5)
    us = np.logspace(-3, -2, 5)
    members = 8
    specs = _member_specs(params, 4, members, entropy=99)
    slopes = {}
    reduced = {}
    for iu, u in enumerate(us):
        ham = build_hamiltonian(params.with_interaction(float(u)), particles=4)
        for m, spec in enumerate(specs):
            psi = evolve(initial_state(params, spec), ham, 10.0)
            reduced[iu, m] = psi
    for keep_sites in (2, 3):
        keep = 2 * keep_sites
        d_gauss = np.zeros((members, us.size))
        d_proj = np.zeros((members, us.size))
        for (iu, m), psi in reduced.items():
            rho = partial_trace(psi, keep)
            c2 = measure_two_point(rho)
            c4 = measure_four_point_connected(rho, c2)
            rec = _quiet_reconstruct(c2, c4)
            e_exact = entanglement_spectrum(rho)[0]
            e_gauss = eigenvalue_spectrum(rec.gaussian.weights)[0]
            e_proj = entanglement_spectrum(rec.projected)[0]
            d_gauss[m, iu] = abs(e_gauss - e_exact)
            d_proj[m, iu] = abs(e_proj - e_exact)
        log_u = np.log(us)
        slopes[keep_sites, "gauss"] = np.polyfit(
            log_u, np.log(d_gauss.mean(axis=0)), 1)[0]
        slopes[keep_sites, "proj"] = np.polyfit(
            log_u, np.log(d_proj.mean(axis=0)), 1)[0]
    elapsed = time.perf_counter() - start
    ok = all(
        abs(slopes[k, "gauss"] - 1.0) <= 0.35 and abs(slopes[k, "proj"] - 2.0) <= 0.35
        for k in (2, 3)
    ) and elapsed < 900
    _report("C02", ok,
            "slope(d0) vs U: " + ", ".join(
                f"keep {k}: gaussian {slopes[k, 'gauss']:.3f}, "
                f"projected {slopes[k, 'proj']:.3f}" for k in (2, 3))
            + f", {elapsed:.0f}s")
    for k in (2, 3):
        assert abs(slopes[k, "gauss"] - 1.0) <= 0.35
        assert abs(slopes[k, "proj"] - 2.0) <= 0.35
    assert elapsed < 900


def test_c03_early_time_non_gaussianity():
    from fermiscope.entanglement import non_gaussianity

    start = time.perf_counter()
    params = HubbardParams(sites=5)
    u = 0.05
    members = 4
    specs = _member_specs(params, 4, members, entropy=17)
    taus = np.logspace(np.log10(0.004), np.log10(0.04), 8)
    ham = build_hamiltonian(params.with_interaction(u), particles=4)
    theta_e = np.zeros((members, taus.size))
    theta_r = np.zeros_like(theta_e)
    for m, spec in enumerate(specs):
        psi = initial_state(params, spec)
        t_prev = 0.0
        for i, t in enumerate(taus / u):
            psi = evolve(psi, ham, t - t_prev)
            t_prev = t
            rho = partial_trace(psi, 4)
            c2 = measure_two_point(rho)
            c4 = measure_four_point_connected(rho, c2)
            rec = _quiet_reconstruct(c2, c4)
            theta_e[m, i] = non_gaussianity(rho)
            theta_r[m, i] = non_gaussianity(rec.assembled)
    omf_e = np.sin(theta_e.mean(axis=0)) ** 2
    omf_r = np.sin(theta_r.mean(axis=0)) ** 2
    expo_e = np.polyfit(np.log(taus), np.log(omf_e), 1)[0]
    expo_r = np.polyfit(np.log(taus), np.log(omf_r), 1)[0]
    slope_e = (theta_e.mean(axis=0) @ taus) / (taus @ taus)
    slope_r = (theta_r.mean(axis=0) @ taus) / (taus @ taus)
    rel = abs(slope_e - slope_r) / slope_e
    elapsed = time.perf_counter() - start
    ok = (abs(expo_e - 2.0) <= 0.3 and abs(expo_r - 2.0) <= 0.3
          and rel <= 0.10 and elapsed < 600)
    _report("C03", ok,
            f"1-F exponents exact {expo_e:.3f} recon {expo_r:.3f}, "
            f"theta slopes {slope_e:.4f}/{slope_r:.4f} (delta {rel:.1%}), "
            f"{elapsed:.0f}s")
    assert abs(expo_e - 2.0) <= 0.3
    assert abs(expo_r - 2.0) <= 0.3
    assert rel <= 0.10
    assert elapsed < 600


def _sector_runs(spectra):
    """The level array of each (record, block) of flat sector spectra; a
    block without levels adds no ratio, so pooling is unchanged."""
    return np.split(spectra.levels, np.cumsum(spectra.sizes.ravel())[:-1])


def _crossover_series(params, specs, u, times, keep, method="auto"):
    """Pooled sector mean-r over the ensemble at each time, both sides."""
    ham = build_hamiltonian(params.with_interaction(u),
                            particles=specs[0].occupation.particle_count)
    pools_exact = [[] for _ in times]
    pools_recon = [[] for _ in times]
    for spec in specs:
        psi = initial_state(params, spec)
        t_prev = 0.0
        for i, t in enumerate(times):
            psi = evolve(psi, ham, t - t_prev, method=method)
            t_prev = t
            rho = partial_trace(psi, keep)
            pools_exact[i].extend(_sector_runs(sector_spectra(rho)))
            c2 = measure_two_point(rho)
            c4 = measure_four_point_connected(rho, c2)
            rec = _quiet_reconstruct(c2, c4)
            pools_recon[i].extend(_sector_runs(sector_spectra(rec.projected)))
    exact = [gap_statistics(p, seed=3) for p in pools_exact]
    recon = [gap_statistics(p, seed=3) for p in pools_recon]
    return exact, recon


def _windows_mean_r(params, specs, u, windows, keep):
    """Pooled sector mean-r per time window, all windows from one evolution."""
    grid = sorted(set(itertools.chain.from_iterable(windows)))
    pools = [[] for _ in windows]
    ham = build_hamiltonian(params.with_interaction(u),
                            particles=specs[0].occupation.particle_count)
    for spec in specs:
        psi = initial_state(params, spec)
        t_prev = 0.0
        for t in grid:
            psi = evolve(psi, ham, t - t_prev, method="chebyshev")
            t_prev = t
            for pool, window in zip(pools, windows):
                if t in window:
                    pool.extend(_sector_runs(sector_spectra(partial_trace(psi, keep))))
    return [gap_statistics(pool, seed=3) for pool in pools]


def test_c04_level_statistics_crossover():
    start = time.perf_counter()
    # Crossover of the pooled sector mean-r on a half-chain subsystem: a
    # subsystem larger than its environment caps the exact reduced rank
    # (ConfigWarning), which leaves too few exact gap ratios to resolve it.
    params = HubbardParams(sites=8)
    times = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0)
    specs = _member_specs(params, 7, 10, entropy=21)
    exact, recon = _crossover_series(params, specs, 0.1, times, keep=8)
    r_exact = [s.mean_r for s in exact]
    r_recon = [s.mean_r for s in recon]
    n_exact = [s.ratios.size for s in exact]
    n_recon = [s.ratios.size for s in recon]
    rho_exact = scipy.stats.spearmanr(times, r_exact).statistic
    rho_recon = scipy.stats.spearmanr(times, r_recon).statistic
    overlap = [
        e.ci_low <= r.ci_high and r.ci_low <= e.ci_high
        for e, r in zip(exact, recon)
    ]
    agreement = sum(overlap) / len(overlap)

    # quantitative endpoints of the crossover at stronger interaction
    endpoint_specs = _member_specs(params, 7, 10, entropy=5)
    early_w = (0.05, 0.1)
    late_w = (8.0, 12.0, 16.0, 20.0)
    early, late = _windows_mean_r(params, endpoint_specs, 1.0,
                                  (early_w, late_w), keep=8)

    elapsed = time.perf_counter() - start
    failures = []
    if rho_exact <= 0.8:
        failures.append(f"exact-side Spearman {rho_exact:.2f} <= 0.8")
    if rho_recon <= 0.8:
        failures.append(f"recon-side Spearman {rho_recon:.2f} <= 0.8")
    if agreement < 0.8:
        failures.append(f"CI agreement {agreement:.0%} < 80%")
    if abs(early.mean_r - POISSON_R) > 0.05:
        failures.append(f"early mean-r {early.mean_r:.3f} off Poisson")
    if not 0.55 <= late.mean_r <= 0.65:
        failures.append(f"late mean-r {late.mean_r:.3f} outside [0.55, 0.65]")
    _report("C04", not failures,
            f"8 sites/4-site crossover U=0.1: exact r(t) {r_exact[0]:.2f}->"
            f"{r_exact[-1]:.2f} (Spearman {rho_exact:.2f}, "
            f"n={min(n_exact)}-{max(n_exact)}), recon {r_recon[0]:.2f}->"
            f"{r_recon[-1]:.2f} (Spearman {rho_recon:.2f}, "
            f"n={min(n_recon)}-{max(n_recon)}), CI agreement {agreement:.0%}; "
            f"8 sites/4-site endpoints U=1.0: early {early.mean_r:.3f} "
            f"(n={early.ratios.size}), late {late.mean_r:.3f} "
            f"(n={late.ratios.size}); {elapsed:.0f}s")
    assert not failures, "; ".join(failures)


def test_c05_reference_ensembles():
    start = time.perf_counter()
    poisson = reference_distribution("poisson", samples=100_001, seed=0)
    gue = reference_distribution("gue", samples=100_000, seed=0)
    elapsed = time.perf_counter() - start
    ok = (poisson.ratios.size >= 100_000 and gue.ratios.size >= 100_000
          and abs(poisson.mean_r - POISSON_R) <= 0.005
          and abs(gue.mean_r - GUE_R) <= 0.005 and elapsed < 120)
    _report("C05", ok,
            f"poisson {poisson.mean_r:.5f} (ci {poisson.ci_low:.5f}-"
            f"{poisson.ci_high:.5f}), gue {gue.mean_r:.5f} (ci "
            f"{gue.ci_low:.5f}-{gue.ci_high:.5f}), {elapsed:.0f}s")
    assert poisson.ratios.size >= 100_000 and gue.ratios.size >= 100_000
    assert abs(poisson.mean_r - POISSON_R) <= 0.005
    assert abs(gue.mean_r - GUE_R) <= 0.005
    assert elapsed < 120


def test_c06_gaussian_states_show_no_repulsion():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    pool = []
    per_draw = []
    for _ in range(20):
        frame = random_frame(rng, 6)
        weights = gaussian_state(frame).weights
        rho = DensityMatrix(FockBasis(6), np.diag(weights).astype(complex))
        spectrum = entanglement_spectrum(rho)
        per_draw.append(gap_statistics([spectrum], bootstrap=50).mean_r)
        pool.append(spectrum)
    stats = gap_statistics(pool, seed=0)
    elapsed = time.perf_counter() - start
    ok = stats.mean_r <= 0.45 and elapsed < 120
    _report("C06", ok,
            f"pooled mean-r {stats.mean_r:.4f} over 20 draws "
            f"(n={stats.ratios.size}, per-draw spread "
            f"{min(per_draw):.2f}-{max(per_draw):.2f}), {elapsed:.0f}s")
    assert stats.mean_r <= 0.45
    assert elapsed < 120


def test_c07_correction_term_decomposition():
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst = 0.0
    for k in range(100):
        n_modes = (2, 3, 4)[k % 3]
        t = random_valid_tensor(rng, n_modes)
        frame = random_frame(rng, n_modes)
        i1, i2, i3 = delta_rho_decomposed(t, frame)
        delta = delta_rho(t, frame).elements
        worst = max(worst, float(np.abs(2 * i1 + 4 * i2 + i3 - delta).max()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 60
    _report("C07", ok, f"max|2I1 + 4I2 + I3 - delta| {worst:.2e} "
            f"over 100 tensors, {elapsed:.0f}s")
    assert worst < 1e-12
    assert elapsed < 60


def _simplex_oracle(v: np.ndarray) -> np.ndarray:
    best, best_cost = None, np.inf
    idx = range(v.size)
    for r in range(1, v.size + 1):
        for support in itertools.combinations(idx, r):
            shift = (v[list(support)].sum() - 1.0) / r
            x = np.zeros(v.size)
            x[list(support)] = v[list(support)] - shift
            if x.min() < -1e-15:
                continue
            cost = float(((x - v) ** 2).sum())
            if cost < best_cost:
                best, best_cost = x, cost
    return best


def test_c08_positivity_projection_optimality():
    start = time.perf_counter()
    worked = project_to_simplex(np.array([0.6, 0.5, -0.1]))
    worked_dev = float(np.abs(worked - np.array([0.55, 0.45, 0.0])).max())
    rng = np.random.default_rng(8)
    worst = worked_dev
    for _ in range(200):
        v = rng.normal(size=3) * rng.uniform(0.2, 2.0)
        worst = max(worst, float(
            np.abs(project_to_simplex(v) - _simplex_oracle(v)).max()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 30
    _report("C08", ok,
            f"worked case dev {worked_dev:.1e}, worst vs QP oracle "
            f"{worst:.2e} over 200 spectra, {elapsed:.1f}s")
    assert worst < 1e-10
    assert elapsed < 30


def test_c09_measurement_protocol_consistency():
    start = time.perf_counter()
    rho = pure_density(paired_state())
    exact = measure_two_point(rho).entries
    shot_grid = (400, 1600, 6400, 25600)
    errors = []
    for shots in shot_grid:
        devs = []
        for rep in range(6):
            plan = plan_bases(4, shots_per_basis=shots)
            c2, *_ = estimate_correlations(plan, run_plan(rho, plan, 1000 + rep))
            devs.append(np.abs(c2.entries - exact).max())
        errors.append(np.mean(devs))
    slope = np.polyfit(np.log(shot_grid), np.log(errors), 1)[0]

    plan = plan_bases(4, shots_per_basis=100_000)
    c2, se, *_ = estimate_correlations(plan, run_plan(rho, plan, 77))
    dev = np.abs(c2.entries - exact)
    z = np.where(se > 0, dev / np.where(se > 0, se, 1.0), 0.0)
    z_max = float(z.max())
    elapsed = time.perf_counter() - start
    ok = abs(slope + 0.5) <= 0.1 and z_max <= 3.0 and elapsed < 300
    _report("C09", ok,
            f"shot-scaling slope {slope:.3f}, 1e5-shot max|z| {z_max:.2f}, "
            f"{elapsed:.0f}s")
    assert abs(slope + 0.5) <= 0.1
    assert z_max <= 3.0
    assert elapsed < 300


def test_c10_outputs_are_reproducible(tmp_path):
    start = time.perf_counter()

    def run(out):
        config = RunConfig(
            model=HubbardParams(sites=4),
            master_seed=314159,
            subsystem_sites=2,
            times=(1.0, 3.0),
            u_values=(0.02, 0.05),
            ensemble_size=2,
            shots_per_basis=400,
            out_dir=out,
        )
        harness.cmd_quench(config)
        harness.cmd_reconstruct(config)
        for which in ("fig2", "fig3", "fig4"):
            harness.cmd_figures(config, which)
        fdir = os.path.join(out, "figures")
        return {
            name: sha256_of_file(os.path.join(fdir, name))
            for name in sorted(os.listdir(fdir))
        }

    a = run(str(tmp_path / "a"))
    b = run(str(tmp_path / "b"))
    elapsed = time.perf_counter() - start
    same = a == b
    _report("C10", same,
            f"{len(a)} figure outputs byte-identical across reruns, "
            f"{elapsed:.0f}s")
    assert a.keys() == b.keys() and len(a) >= 5
    assert same
