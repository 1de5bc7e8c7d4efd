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


KINDS = ("exact", "recon")
_STAT_COLUMNS = ("mean_r", "ci_lo", "ci_hi", "n_ratios", "dropped")
# Each figure's CSV files and their columns.
FIGURE_COLUMNS = {
    "fig2": {
        "fig2_theta.csv": ["u", "t", "tau", "member", "theta_exact",
                           "theta_recon", "one_minus_f_exact",
                           "one_minus_f_recon", "theta_slope_exact",
                           "theta_slope_recon"],
        "fig2_delta.csv": ["u", "t_star", "delta0_gaussian_mean",
                           "delta0_gaussian_se", "delta0_projected_mean",
                           "delta0_projected_se"],
    },
    "fig3": {
        "fig3_meanr.csv": ["u", "t"] + [f"{col}_{kind}" for kind in KINDS
                                        for col in _STAT_COLUMNS],
        "fig3_hist.csv": ["window", "t", "kind", "bin_center", "density"],
        "fig3_spectra.csv": ["u", "t", "member", "kind", "n", "m", "s",
                             "level_index", "epsilon"],
    },
    "fig4": {
        "fig4_grid.csv": ["u", "t"] + [f"{col}_{kind}" for kind in KINDS
                                       for col in _STAT_COLUMNS[:4]],
    },
}


def _load_cell(config: RunConfig, out_root: str, iu: int,
               it: int) -> list[dict]:
    """The reconstruction documents of one (u, t) cell, in member order."""
    docs = []
    for m in range(config.ensemble_size):
        path = os.path.join(_recon_dir(out_root),
                            f"{snapshot_tag(iu, m, it)}_recon.json")
        if not os.path.isfile(path):
            raise FileNotFoundError(f"missing reconstruction output {path}")
        docs.append(serialize.load_json(path))
    return docs


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


def _fig2_rows(config: RunConfig, iu: int, cells: list, it_star: int):
    """The fig2_theta rows (member-major) and fig2_delta row of one u."""
    u = config.u_values[iu]
    taus = np.array([u * t for t in config.times])
    slopes = [
        _early_slope(taus, np.array([np.mean([d[key] for d in docs])
                                     for docs in cells]))
        for key in ("theta_exact", "theta_recon")
    ]
    theta_rows = [
        (d["u"], d["t"], d["tau"], m, d["theta_exact"], d["theta_recon"],
         d["one_minus_f_exact"], d["one_minus_f_recon"], *slopes)
        for m in range(config.ensemble_size)
        for d in (docs[m] for docs in cells)
    ]
    delta_row = [u, config.times[it_star]]
    for key in ("delta_gaussian", "delta_projected"):
        vals = [d[key][0] for d in cells[it_star] if d[key][0] is not None]
        delta_row += ([np.mean(vals), np.std(vals) / math.sqrt(len(vals))]
                      if vals else [None, None])
    return theta_rows, tuple(delta_row)


def _cell_statistics(config: RunConfig, docs: list, iu: int, it: int,
                     kind: str):
    """Gap statistics of one cell's sector spectra, pooled over members."""
    spectra = [EntanglementSpectrum(levels=np.array(sec["levels"], dtype=float))
               for doc in docs for sec in doc[f"spectrum_{kind}"]]
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


def _stat_cells(stats: dict, width: int) -> list:
    """Per kind, the first ``width`` of (mean r, CI, ratios, dropped)."""
    cells = []
    for kind in KINDS:
        s = stats[kind]
        cells += [None] * width if s is None else [
            s.mean_r, s.ci_low, s.ci_high, s.ratios.size,
            s.dropped_degenerate][:width]
    return cells


def cmd_figures(config: RunConfig, which: str,
                out_root: str | None = None) -> list[str]:
    """Assemble analysis CSVs from reconstruction outputs in one pass.

    ``which`` is one figure name or "all"; the manifest paths of the
    figures written are returned.  Each (u, t) cell reads its members'
    reconstruction documents once, and its gap statistics are computed
    once per kind, only for the cells fig3 or fig4 report.
    """
    if which != "all" and which not in FIGURE_COLUMNS:
        raise ValueError(f"unknown figure {which!r}; pick from "
                         f"{sorted(FIGURE_COLUMNS)} or 'all'")
    targets = list(FIGURE_COLUMNS) if which == "all" else [which]
    out_root = config.out_dir if out_root is None else out_root
    fdir = os.path.join(out_root, "figures")
    os.makedirs(fdir, exist_ok=True)
    times = config.times
    n_t = len(times)
    iu_fig3 = int(np.argmin(np.abs(np.array(config.u_values)
                                   - FIG3_U_ANCHOR)))
    it_star = int(np.argmin(np.abs(np.array(times) - FIG2_TIME_ANCHOR)))
    windows = (("early", 1 if n_t > 1 else 0), ("late", n_t - 1))

    rows = {name: [] for fig in targets for name in FIGURE_COLUMNS[fig]}
    ius = [iu_fig3] if targets == ["fig3"] else range(len(config.u_values))
    for iu in ius:
        u = config.u_values[iu]
        cells = [_load_cell(config, out_root, iu, it) for it in range(n_t)]
        if "fig2" in targets:
            theta_rows, delta_row = _fig2_rows(config, iu, cells, it_star)
            rows["fig2_theta.csv"] += theta_rows
            rows["fig2_delta.csv"].append(delta_row)
        fig3 = "fig3" in targets and iu == iu_fig3
        if not (fig3 or "fig4" in targets):
            continue
        for it, (t, docs) in enumerate(zip(times, cells)):
            stats = {kind: _cell_statistics(config, docs, iu, it, kind)
                     for kind in KINDS}
            if "fig4" in targets:
                rows["fig4_grid.csv"].append((u, t, *_stat_cells(stats, 4)))
            if not fig3:
                continue
            for kind in KINDS:
                if stats[kind] is None:
                    warnings.warn(f"no gap ratios for {kind} at t = {t}; "
                                  "emitting empty cells", stacklevel=2)
            rows["fig3_meanr.csv"].append((u, t, *_stat_cells(stats, 5)))
            rows["fig3_hist.csv"] += [
                (label, t, kind, center, dens)
                for label, jt in windows if jt == it
                for kind in KINDS if stats[kind] is not None
                for center, dens in zip(stats[kind].bin_centers,
                                        stats[kind].density)
            ]
            rows["fig3_spectra.csv"] += [
                (u, t, m, kind, sec["n"], sec["m"], sec["s"], li, eps)
                for m, doc in enumerate(docs) for kind in KINDS
                for sec in doc[f"spectrum_{kind}"]
                for li, eps in enumerate(sec["levels"])
            ]

    manifests = []
    for fig in targets:
        files = {}
        for name, header in FIGURE_COLUMNS[fig].items():
            files[name] = os.path.join(fdir, name)
            _write_csv(files[name], header, rows[name])
        manifest = os.path.join(fdir, f"manifest_{fig}.json")
        serialize.write_manifest(manifest, files,
                                 config_summary=run_summary(config))
        manifests.append(manifest)
    return manifests
