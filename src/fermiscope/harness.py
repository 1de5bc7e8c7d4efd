"""Batch drivers: quench snapshots, reconstruction, measurement, figures.

Work is organized as independent tasks (one per interaction for the
quench, one per snapshot after it) so sweeps parallelize trivially; every
file is written atomically and every stage ends with a manifest of content
hashes, which makes "rerun produces identical bytes" a checkable property
rather than a hope.  All randomness flows from the config's master seed
through named derivation paths, never from the clock.
"""

from __future__ import annotations

import hashlib
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import serialize
from .config import RunConfig
from .correlations import (
    load_correlations,
    measure_four_point_connected,
    measure_two_point,
    save_correlations,
    subsystem_correlations,
)
from .entanglement import (
    DEFAULT_ERROR_INDICES,
    EntanglementSpectrum,
    StatisticsUnavailableError,
    entanglement_spectrum,
    gap_statistics,
    non_gaussianity,
    sector_spectra,
    spectral_error,
)
from .fock import CapacityError, DensityMatrix, sector_dimension
from .fock import partial_trace
from .measure import estimate_correlations, plan_bases, run_plan, save_shot_records
from .model import (
    build_hamiltonian,
    evolve,
    initial_state,
    prepare_position_quench,
    select_initial_state,
)
from .reconstruct import (
    AnsatzValidityWarning,
    load_density_matrix,
    reconstruct_state,
    save_density_matrix,
)

CAPACITY_LIMIT = 1 << 22
FIG2_TIME_ANCHOR = 10.0
FIG3_U_ANCHOR = 5.6e-3


def snapshot_tag(iu: int, member: int, it: int) -> str:
    return f"u{iu}_m{member}_t{it}"


def run_summary(config: RunConfig) -> dict:
    """Config summary for manifests, without execution-only fields.

    Worker count and output location change how a run executes, never
    what it produces, so identical physics must yield identical bytes.
    """
    doc = config.summary()
    doc.pop("workers")
    doc.pop("out_dir")
    return doc


def member_seeds(config: RunConfig) -> list[int]:
    """Per-member integer seeds derived once from the master seed."""
    ss = np.random.SeedSequence(config.master_seed)
    return [int(x) for x in ss.generate_state(config.ensemble_size,
                                              dtype=np.uint64)]


def stat_seed(config: RunConfig, *tags) -> int:
    """Stable bootstrap seed named by its consumers, not by position."""
    text = repr((config.master_seed,) + tags).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big")


def initial_specs(config: RunConfig):
    return [
        select_initial_state(
            config.model,
            config.particles,
            seed,
            kind=config.initial_kind,
            t_free=config.t_free,
        )
        for seed in member_seeds(config)
    ]


def _run_tasks(fn, tasks, workers: int):
    if workers <= 1:
        return [fn(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def _quench_dir(out_root: str) -> str:
    return os.path.join(out_root, "quench")


def _recon_dir(out_root: str) -> str:
    return os.path.join(out_root, "recon")


def _quench_task(task):
    """All snapshots of one interaction; its members share one Hamiltonian."""
    config, out_dir, iu, specs = task
    ham = build_hamiltonian(config.model.with_interaction(config.u_values[iu]),
                            particles=config.particles)
    return [name for member, spec in enumerate(specs)
            for name in _member_snapshots(config, out_dir, iu, member, spec, ham)]


def _member_snapshots(config, out_dir, iu, member, spec, ham):
    """All snapshots of one (interaction, member) pair."""
    u = config.u_values[iu]
    if spec.kind == "position":
        psi = prepare_position_quench(
            config.model, spec, config.subsystem_sites,
            tol=config.evolve_tol, method=config.evolve_method,
        )
    else:
        psi = initial_state(config.model, spec)
    keep = config.subsystem_modes
    names = []
    t_prev = 0.0
    for it, t in enumerate(config.times):
        if t != t_prev:
            psi = evolve(psi, ham, t - t_prev, tol=config.evolve_tol,
                         method=config.evolve_method)
            t_prev = t
        rho = partial_trace(psi, keep)
        c2, c4 = subsystem_correlations(psi, keep)
        prov = {
            "u": float(u),
            "t": float(t),
            "member": member,
            "seed": spec.seed,
            "kind": spec.kind,
            "occupation": str(spec.occupation),
            "max_abs_c4": float(c4.max_abs()),
        }
        tag = snapshot_tag(iu, member, it)
        state_name = f"{tag}_state.json"
        corr_name = f"{tag}_corr.json"
        save_density_matrix(os.path.join(out_dir, state_name), rho,
                            provenance=prov)
        save_correlations(os.path.join(out_dir, corr_name), c2, c4,
                          provenance=prov)
        names.extend((state_name, corr_name))
    return names


def cmd_quench(config: RunConfig, out_root: str | None = None) -> str:
    """Evolve the ensemble over the (U, t) grid and write snapshots."""
    out_root = config.out_dir if out_root is None else out_root
    dim = sector_dimension(config.model.n_modes, config.particles)
    if dim > CAPACITY_LIMIT:
        raise CapacityError(
            f"sector dimension {dim} exceeds {CAPACITY_LIMIT}; reduce "
            "sites or the particle number, or run on dedicated hardware"
        )
    out_dir = _quench_dir(out_root)
    os.makedirs(out_dir, exist_ok=True)
    specs = initial_specs(config)
    members_doc = {
        "header": serialize.make_header("ensemble", config.model.n_modes),
        "members": [
            {
                "member": m,
                "seed": s.seed,
                "kind": s.kind,
                "occupation": str(s.occupation),
                "trials": s.trials,
                "t_free": s.t_free,
            }
            for m, s in enumerate(specs)
        ],
    }
    serialize.dump_json(os.path.join(out_dir, "initial_states.json"),
                        members_doc)
    tasks = [(config, out_dir, iu, specs)
             for iu in range(len(config.u_values))]
    names = ["initial_states.json"]
    for result in _run_tasks(_quench_task, tasks, config.workers):
        names.extend(result)
    manifest = os.path.join(out_dir, "manifest.json")
    serialize.write_manifest(manifest, {
        name: os.path.join(out_dir, name) for name in names
    }, config_summary=run_summary(config))
    return manifest


def _sector_spectra_doc(rho: DensityMatrix, cutoff: float) -> list[dict]:
    out = []
    for spec in sector_spectra(rho, cutoff=cutoff):
        out.append({
            "n": spec.label.n,
            "m": spec.label.m,
            "s": spec.label.s,
            "levels": [float(x) for x in spec.levels],
        })
    return out


def _recon_task(task):
    config, qdir, rdir, iu, member, it = task
    tag = snapshot_tag(iu, member, it)
    rho_exact, state_header = load_density_matrix(
        os.path.join(qdir, f"{tag}_state.json"))
    c2, c4, _ = load_correlations(os.path.join(qdir, f"{tag}_corr.json"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", AnsatzValidityWarning)
        recon = reconstruct_state(
            c2, c4, clamp=config.clamp,
            warn_threshold=config.warn_threshold,
        )
    warned = any(issubclass(w.category, AnsatzValidityWarning)
                 for w in caught)

    c2_assembled = measure_two_point(recon.assembled)
    residual_c2 = float(np.abs(c2_assembled.entries - c2.entries).max())
    residual_c4 = float(np.abs(
        measure_four_point_connected(recon.assembled, c2_assembled).entries
        - c4.entries).max())

    spec_exact = entanglement_spectrum(rho_exact, cutoff=config.rank_cutoff)
    spec_gauss = entanglement_spectrum(recon.gaussian_matrix,
                                       cutoff=config.rank_cutoff)
    spec_proj = entanglement_spectrum(recon.projected,
                                      cutoff=config.rank_cutoff)
    theta_exact = non_gaussianity(rho_exact)
    theta_recon = non_gaussianity(recon.projected)
    negativity = float(np.linalg.eigvalsh(recon.assembled.elements).min())

    prov = state_header.get("provenance", {})
    doc = {
        "header": serialize.make_header(
            "reconstruction", rho_exact.basis.mode_count,
            tolerances={"clamp": config.clamp,
                        "rank_cutoff": config.rank_cutoff},
            provenance=prov,
        ),
        "u": float(config.u_values[iu]),
        "t": float(config.times[it]),
        "tau": float(config.u_values[iu] * config.times[it]),
        "member": member,
        "theta_exact": float(theta_exact),
        "theta_recon": float(theta_recon),
        "one_minus_f_exact": float(math.sin(theta_exact) ** 2),
        "one_minus_f_recon": float(math.sin(theta_recon) ** 2),
        "residual_c2": residual_c2,
        "residual_c4": residual_c4,
        "max_abs_c4": float(c4.max_abs()),
        "ansatz_warning": bool(warned),
        "assembled_min_eigenvalue": negativity,
        "error_indices": list(DEFAULT_ERROR_INDICES),
        "delta_gaussian": spectral_error(spec_exact, spec_gauss),
        "delta_projected": spectral_error(spec_exact, spec_proj),
        "spectrum_exact": _sector_spectra_doc(rho_exact, config.rank_cutoff),
        "spectrum_recon": _sector_spectra_doc(recon.projected,
                                              config.rank_cutoff),
    }
    name = f"{tag}_recon.json"
    serialize.dump_json(os.path.join(rdir, name), doc)
    return name


def cmd_reconstruct(config: RunConfig, out_root: str | None = None) -> str:
    """Reconstruct every snapshot and write diagnostics next to it."""
    out_root = config.out_dir if out_root is None else out_root
    qdir = _quench_dir(out_root)
    if not os.path.isdir(qdir):
        raise FileNotFoundError(f"no quench outputs under {qdir}")
    rdir = _recon_dir(out_root)
    os.makedirs(rdir, exist_ok=True)
    tasks = [
        (config, qdir, rdir, iu, m, it)
        for iu in range(len(config.u_values))
        for m in range(config.ensemble_size)
        for it in range(len(config.times))
    ]
    names = _run_tasks(_recon_task, tasks, config.workers)
    manifest = os.path.join(rdir, "manifest.json")
    serialize.write_manifest(manifest, {
        name: os.path.join(rdir, name) for name in names
    }, config_summary=run_summary(config))
    return manifest


def cmd_measure(config: RunConfig, out_root: str | None = None,
                iu: int = 0, member: int = 0,
                it: int | None = None) -> str:
    """Simulate the sampling protocol on one stored snapshot."""
    out_root = config.out_dir if out_root is None else out_root
    qdir = _quench_dir(out_root)
    it = len(config.times) - 1 if it is None else it
    tag = snapshot_tag(iu, member, it)
    state_path = os.path.join(qdir, f"{tag}_state.json")
    if not os.path.isfile(state_path):
        raise FileNotFoundError(f"missing snapshot {state_path}")
    rho, _ = load_density_matrix(state_path)
    c2_exact, c4_exact, _ = load_correlations(
        os.path.join(qdir, f"{tag}_corr.json"))

    mdir = os.path.join(out_root, "measure")
    os.makedirs(mdir, exist_ok=True)
    plan = plan_bases(config.subsystem_modes, config.measure_order,
                      shots_per_basis=config.shots_per_basis)
    records = run_plan(rho, plan, stat_seed(config, "measure", iu, member, it))
    shots_name = f"shots_{tag}.jsonl"
    save_shot_records(os.path.join(mdir, shots_name), plan, records)

    c2_hat, c2_se = estimate_correlations(plan, records, order=1)
    doc = {
        "header": serialize.make_header(
            "estimate", config.subsystem_modes,
            provenance={"tag": tag, "shots_per_basis": plan.shots_per_basis},
        ),
        "plan": plan.scaling_report(),
        "two_point": serialize.complex_to_nested(c2_hat.entries),
        "two_point_se": c2_se.tolist(),
        "max_dev_c2": float(np.abs(c2_hat.entries - c2_exact.entries).max()),
    }
    if config.measure_order == 2:
        c4_hat, c4_se = estimate_correlations(plan, records, order=2)
        doc["four_point"] = serialize.complex_to_nested(c4_hat.entries)
        doc["four_point_se"] = c4_se.tolist()
        doc["max_dev_c4"] = float(
            np.abs(c4_hat.entries - c4_exact.entries).max())
    est_name = f"estimate_{tag}.json"
    serialize.dump_json(os.path.join(mdir, est_name), doc)
    manifest = os.path.join(mdir, f"manifest_{tag}.json")
    serialize.write_manifest(manifest, {
        shots_name: os.path.join(mdir, shots_name),
        est_name: os.path.join(mdir, est_name),
    }, config_summary=run_summary(config))
    return manifest


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _write_csv(path: str, header: list[str], rows: list):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    serialize.atomic_write_text(path, "\n".join(lines) + "\n")


def _load_recon(out_root: str, iu: int, member: int, it: int) -> dict:
    path = os.path.join(_recon_dir(out_root),
                        f"{snapshot_tag(iu, member, it)}_recon.json")
    if not os.path.isfile(path):
        raise FileNotFoundError(f"missing reconstruction output {path}")
    return serialize.load_json(path)


def _early_slope(taus: np.ndarray, thetas: np.ndarray) -> float | None:
    """Through-origin slope of theta over the first decade of tau > 0."""
    pos = taus > 0
    if not np.any(pos):
        return None
    tau_min = taus[pos].min()
    sel = pos & (taus <= 10.0 * tau_min)
    if sel.sum() < 2:
        return None
    x, y = taus[sel], thetas[sel]
    return float(np.dot(x, y) / np.dot(x, x))


def _theta_table(config: RunConfig, out_root: str):
    """Rows (u, t, tau, member, thetas, 1-F) for every snapshot."""
    rows = []
    for iu in range(len(config.u_values)):
        for m in range(config.ensemble_size):
            for it in range(len(config.times)):
                doc = _load_recon(out_root, iu, m, it)
                rows.append((iu, m, it, doc))
    return rows


def _figures_fig2(config: RunConfig, out_root: str, fdir: str) -> dict:
    entries = _theta_table(config, out_root)
    n_t = len(config.times)
    slope_cols = {}
    for iu, u in enumerate(config.u_values):
        taus = np.array([u * t for t in config.times])
        mean_exact = np.zeros(n_t)
        mean_recon = np.zeros(n_t)
        for it in range(n_t):
            vals = [d["theta_exact"] for ju, m, jt, d in entries
                    if ju == iu and jt == it]
            mean_exact[it] = float(np.mean(vals))
            vals = [d["theta_recon"] for ju, m, jt, d in entries
                    if ju == iu and jt == it]
            mean_recon[it] = float(np.mean(vals))
        slope_cols[iu] = (_early_slope(taus, mean_exact),
                          _early_slope(taus, mean_recon))

    rows = []
    for iu, m, it, doc in entries:
        s_ex, s_re = slope_cols[iu]
        rows.append((
            doc["u"], doc["t"], doc["tau"], m,
            doc["theta_exact"], doc["theta_recon"],
            doc["one_minus_f_exact"], doc["one_minus_f_recon"],
            s_ex, s_re,
        ))
    theta_path = os.path.join(fdir, "fig2_theta.csv")
    _write_csv(theta_path, [
        "u", "t", "tau", "member", "theta_exact", "theta_recon",
        "one_minus_f_exact", "one_minus_f_recon",
        "theta_slope_exact", "theta_slope_recon",
    ], rows)

    it_star = int(np.argmin(np.abs(np.array(config.times)
                                   - FIG2_TIME_ANCHOR)))
    delta_rows = []
    for iu, u in enumerate(config.u_values):
        d0_gauss, d0_proj = [], []
        for m in range(config.ensemble_size):
            doc = _load_recon(out_root, iu, m, it_star)
            if doc["delta_gaussian"][0] is not None:
                d0_gauss.append(doc["delta_gaussian"][0])
            if doc["delta_projected"][0] is not None:
                d0_proj.append(doc["delta_projected"][0])
        delta_rows.append((
            u, config.times[it_star],
            np.mean(d0_gauss) if d0_gauss else None,
            np.std(d0_gauss) / math.sqrt(len(d0_gauss)) if d0_gauss else None,
            np.mean(d0_proj) if d0_proj else None,
            np.std(d0_proj) / math.sqrt(len(d0_proj)) if d0_proj else None,
        ))
    delta_path = os.path.join(fdir, "fig2_delta.csv")
    _write_csv(delta_path, [
        "u", "t_star", "delta0_gaussian_mean", "delta0_gaussian_se",
        "delta0_projected_mean", "delta0_projected_se",
    ], delta_rows)
    return {"fig2_theta.csv": theta_path, "fig2_delta.csv": delta_path}


def _pool_sector_spectra(config: RunConfig, out_root: str, iu: int, it: int,
                         kind: str):
    """All sector spectra of one (u, t) cell across the ensemble."""
    key = "spectrum_exact" if kind == "exact" else "spectrum_recon"
    pool = []
    for m in range(config.ensemble_size):
        doc = _load_recon(out_root, iu, m, it)
        for sec in doc[key]:
            pool.append(EntanglementSpectrum(
                levels=np.array(sec["levels"], dtype=float)))
    return pool


def _cell_statistics(config: RunConfig, out_root: str, iu: int, it: int,
                     kind: str):
    spectra = _pool_sector_spectra(config, out_root, iu, it, kind)
    try:
        return gap_statistics(
            spectra,
            bins=config.histogram_bins,
            bootstrap=config.bootstrap_resamples,
            seed=stat_seed(config, "gaps", kind, iu, it),
            degeneracy_tol=config.degeneracy_tol,
        )
    except StatisticsUnavailableError:
        return None


def _figures_fig3(config: RunConfig, out_root: str, fdir: str) -> dict:
    iu = int(np.argmin(np.abs(np.array(config.u_values) - FIG3_U_ANCHOR)))
    n_t = len(config.times)
    it_early = 1 if n_t > 1 else 0
    it_late = n_t - 1

    meanr_rows = []
    for it in range(n_t):
        row = [config.u_values[iu], config.times[it]]
        for kind in ("exact", "recon"):
            stats = _cell_statistics(config, out_root, iu, it, kind)
            if stats is None:
                warnings.warn(
                    f"no gap ratios for {kind} at t = {config.times[it]}; "
                    "emitting empty cells",
                    stacklevel=2,
                )
                row.extend([None, None, None, None, None])
            else:
                row.extend([stats.mean_r, stats.ci_low, stats.ci_high,
                            stats.ratios.size, stats.dropped_degenerate])
        meanr_rows.append(tuple(row))
    meanr_path = os.path.join(fdir, "fig3_meanr.csv")
    _write_csv(meanr_path, [
        "u", "t",
        "mean_r_exact", "ci_lo_exact", "ci_hi_exact", "n_ratios_exact",
        "dropped_exact",
        "mean_r_recon", "ci_lo_recon", "ci_hi_recon", "n_ratios_recon",
        "dropped_recon",
    ], meanr_rows)

    hist_rows = []
    for label, it in (("early", it_early), ("late", it_late)):
        for kind in ("exact", "recon"):
            stats = _cell_statistics(config, out_root, iu, it, kind)
            if stats is None:
                continue
            for center, dens in zip(stats.bin_centers, stats.density):
                hist_rows.append((label, config.times[it], kind,
                                  center, dens))
    hist_path = os.path.join(fdir, "fig3_hist.csv")
    _write_csv(hist_path, ["window", "t", "kind", "bin_center", "density"],
               hist_rows)

    spectra_rows = []
    for it in range(n_t):
        for m in range(config.ensemble_size):
            doc = _load_recon(out_root, iu, m, it)
            for kind, key in (("exact", "spectrum_exact"),
                              ("recon", "spectrum_recon")):
                for sec in doc[key]:
                    for li, eps in enumerate(sec["levels"]):
                        spectra_rows.append((
                            config.u_values[iu], config.times[it], m, kind,
                            sec["n"], sec["m"], sec["s"], li, eps,
                        ))
    spectra_path = os.path.join(fdir, "fig3_spectra.csv")
    _write_csv(spectra_path, [
        "u", "t", "member", "kind", "n", "m", "s", "level_index", "epsilon",
    ], spectra_rows)
    return {
        "fig3_meanr.csv": meanr_path,
        "fig3_hist.csv": hist_path,
        "fig3_spectra.csv": spectra_path,
    }


def _figures_fig4(config: RunConfig, out_root: str, fdir: str) -> dict:
    rows = []
    for iu, u in enumerate(config.u_values):
        for it, t in enumerate(config.times):
            row = [u, t]
            for kind in ("exact", "recon"):
                stats = _cell_statistics(config, out_root, iu, it, kind)
                if stats is None:
                    row.extend([None, None, None, None])
                else:
                    row.extend([stats.mean_r, stats.ci_low, stats.ci_high,
                                stats.ratios.size])
            rows.append(tuple(row))
    path = os.path.join(fdir, "fig4_grid.csv")
    _write_csv(path, [
        "u", "t",
        "mean_r_exact", "ci_lo_exact", "ci_hi_exact", "n_ratios_exact",
        "mean_r_recon", "ci_lo_recon", "ci_hi_recon", "n_ratios_recon",
    ], rows)
    return {"fig4_grid.csv": path}


def cmd_figures(config: RunConfig, which: str,
                out_root: str | None = None) -> str:
    """Assemble analysis CSVs from reconstruction outputs."""
    out_root = config.out_dir if out_root is None else out_root
    fdir = os.path.join(out_root, "figures")
    os.makedirs(fdir, exist_ok=True)
    builders = {
        "fig2": _figures_fig2,
        "fig3": _figures_fig3,
        "fig4": _figures_fig4,
    }
    if which not in builders:
        raise ValueError(f"unknown figure {which!r}; pick from "
                         f"{sorted(builders)}")
    files = builders[which](config, out_root, fdir)
    manifest = os.path.join(fdir, f"manifest_{which}.json")
    serialize.write_manifest(manifest, files,
                             config_summary=run_summary(config))
    return manifest
