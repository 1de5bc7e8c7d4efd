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
import itertools
import math
import os
import warnings

import numpy as np

from . import serialize
from .config import RunConfig
from .correlations import (
    OCCUPATION_CLAMP,
    FourPointTensor,
    TwoPointMatrix,
    measure_four_point_connected,
    measure_two_point,
    subsystem_correlations,
)
from .entanglement import (
    DEFAULT_ERROR_INDICES,
    RANK_CUTOFF,
    StatisticsUnavailableError,
    eigenvalue_spectrum,
    entanglement_spectrum,
    gap_statistics,
    non_gaussianity,
    sector_spectra,
    spectral_error,
)
from .fock import CapacityError, DensityMatrix, DomainError, FockBasis
from .fock import partial_trace, sector_dimension
from .measure import estimate_correlations, plan_bases, run_plan, save_shot_records
from .model import build_hamiltonian, evolve, initial_state, select_initial_state
from .reconstruct import AnsatzValidityWarning, reconstruct_state

CAPACITY_LIMIT = 1 << 22
# matrix entries per reconstruct chunk: 16 four-mode records, else one record
RECON_CHUNK_ENTRIES = 4096
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
    return [select_initial_state(config.model, config.particles, seed)
            for seed in member_seeds(config)]


def _run_tasks(fn, tasks, workers: int):
    if workers <= 1:
        return [fn(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def _quench_dir(config: RunConfig) -> str:
    return os.path.join(config.out_dir, "quench")


def _recon_dir(config: RunConfig) -> str:
    return os.path.join(config.out_dir, "recon")


def _quench_task(task):
    """All snapshots of one interaction; its members share one Hamiltonian."""
    config, out_dir, iu, specs = task
    ham = build_hamiltonian(config.model.with_interaction(config.u_values[iu]),
                            particles=config.particles)
    return [name for member, spec in enumerate(specs)
            for name in _member_snapshots(config, out_dir, iu, member, spec, ham)]


def _member_snapshots(config, out_dir, iu, member, spec, ham):
    """All snapshots of one (interaction, member) pair, as one trajectory."""
    u = config.u_values[iu]
    psi = initial_state(config.model, spec)
    keep = config.subsystem_modes
    snapshots, provenance = [], []
    t_prev = 0.0
    for t in config.times:
        if t != t_prev:
            psi = evolve(psi, ham, t - t_prev)
            t_prev = t
        rho = partial_trace(psi, keep)
        c2, c4 = subsystem_correlations(psi, keep)
        snapshots.append((rho, c2, c4))
        provenance.append({
            "u": float(u),
            "t": float(t),
            "member": member,
            "seed": spec.seed,
            "kind": "momentum",  # every quench; recon headers copy this provenance
            "occupation": str(spec.occupation),
            "max_abs_c4": float(c4.max_abs()),
        })
    return save_trajectory(out_dir, iu, member, config.times, snapshots,
                           provenance)


def _trajectory_dtype(n_modes: int) -> np.dtype:
    """One snapshot record: the reduced state, C2 and connected C4."""
    n, dim = n_modes, 1 << n_modes
    return np.dtype([("rho", np.complex128, (dim, dim)),
                     ("c2", np.complex128, (n, n)),
                     ("c4", np.complex128, (n, n, n, n))])


def save_trajectory(qdir: str, iu: int, member: int, times, snapshots,
                    provenance: list[dict]) -> list[str]:
    """Write one (u, member) trajectory and return its two file names.

    ``u{iu}_m{member}.npy`` stacks one (rho, C2, C4) record per time, bit
    for bit; ``u{iu}_m{member}.json`` holds the header, times and provenance.
    """
    n = snapshots[0][0].basis.mode_count
    records = np.zeros(len(times), _trajectory_dtype(n))
    for it, (rho, c2, c4) in enumerate(snapshots):
        if rho.basis.mode_count != n or c2.n_modes != n or c4.n_modes != n:
            raise DomainError(f"snapshot {it} does not have {n} modes")
        records[it] = (rho.elements, c2.entries, c4.entries)
    stem = os.path.join(qdir, f"u{iu}_m{member}")
    serialize.dump_npy(stem + ".npy", records)
    serialize.dump_json(stem + ".json", {
        "header": serialize.make_header("trajectory", n),
        "times": [float(t) for t in times],
        "provenance": provenance,
    })
    return [os.path.basename(stem) + ext for ext in (".json", ".npy")]


def load_snapshot(qdir: str, iu: int, member: int, it: int):
    """(rho, C2, C4, provenance) of snapshot ``it``, reading only its record.

    A header, payload or ``it`` that does not match raises ValueError
    (DomainError for ``it``) naming the file.
    """
    stem = os.path.join(qdir, f"u{iu}_m{member}")
    doc = serialize.load_json(stem + ".json")
    serialize.check_header(doc["header"], "trajectory", stem + ".json")
    n, count = doc["header"]["n_modes"], len(doc["times"])
    if len(doc["provenance"]) != count:
        raise ValueError(f"{stem}.json: {len(doc['provenance'])} provenance "
                         f"entries for {count} times")
    if not 0 <= it < count:
        raise DomainError(f"{stem}.json: time index {it} outside its "
                          f"{count} snapshots")
    record = serialize.load_npy_record(stem + ".npy", _trajectory_dtype(n),
                                       count, it)
    return (DensityMatrix(FockBasis(n), record["rho"].copy()),
            TwoPointMatrix(record["c2"].copy()),
            FourPointTensor(record["c4"].copy()),
            doc["provenance"][it])


def cmd_quench(config: RunConfig) -> str:
    """Evolve the ensemble over the (U, t) grid and write snapshots."""
    dim = sector_dimension(config.model.n_modes, config.particles)
    if dim > CAPACITY_LIMIT:
        raise CapacityError(
            f"sector dimension {dim} exceeds {CAPACITY_LIMIT}; reduce "
            "sites or the particle number, or run on dedicated hardware"
        )
    out_dir = _quench_dir(config)
    os.makedirs(out_dir, exist_ok=True)
    specs = initial_specs(config)
    members_doc = {
        "header": serialize.make_header("ensemble", config.model.n_modes),
        "members": [
            {
                "member": m,
                "seed": s.seed,
                "kind": "momentum",
                "occupation": str(s.occupation),
                "trials": s.trials,
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


def _sector_spectra_doc(spectra) -> list[dict]:
    return [{"n": spec.label.n, "m": spec.label.m, "s": spec.label.s,
             "levels": [float(x) for x in spec.levels]}
            for spec in spectra]


def analyze_records(c2: TwoPointMatrix, c4: FourPointTensor,
                    rho_exact: DensityMatrix) -> list[dict]:
    """The physics fields of the recon documents of a stack of (C2, C4, rho) records.

    Each spectrum is read once: the exact one by one ``eigvalsh``, the Gaussian
    one from its product weights, and the projected one and the assembled state's
    minimum eigenvalue from the one ``eigh`` of :func:`project_positive`.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AnsatzValidityWarning)
        recon = reconstruct_state(c2, c4)
    c2_assembled = measure_two_point(recon.assembled)
    c4_assembled = measure_four_point_connected(recon.assembled, c2_assembled).entries
    spec_exact = entanglement_spectrum(rho_exact)
    theta_exact = non_gaussianity(rho_exact).tolist()
    theta_recon = non_gaussianity(recon.projected).tolist()
    sectors_exact = sector_spectra(rho_exact)
    sectors_recon = sector_spectra(recon.projected)
    return [{
        "theta_exact": theta_exact[i],
        "theta_recon": theta_recon[i],
        "one_minus_f_exact": math.sin(theta_exact[i]) ** 2,
        "one_minus_f_recon": math.sin(theta_recon[i]) ** 2,
        "residual_c2": float(np.abs(c2_assembled.entries[i] - c2.entries[i]).max()),
        "residual_c4": float(np.abs(c4_assembled[i] - c4.entries[i]).max()),
        "max_abs_c4": float(np.abs(c4.entries[i]).max()),
        "ansatz_warning": bool(recon.strained[i]),
        "assembled_min_eigenvalue": float(recon.assembled_eigenvalues[i, 0]),
        "error_indices": list(DEFAULT_ERROR_INDICES),
        "delta_gaussian": spectral_error(
            spec_exact[i], eigenvalue_spectrum(recon.gaussian.weights[i])),
        "delta_projected": spectral_error(
            spec_exact[i], eigenvalue_spectrum(recon.projected_eigenvalues[i])),
        "spectrum_exact": _sector_spectra_doc(sectors_exact[i]),
        "spectrum_recon": _sector_spectra_doc(sectors_recon[i]),
    } for i in range(len(spec_exact))]


def _recon_task(task):
    """Analyze a chunk of distinct records as one stack; write each tag's document."""
    config, qdir, rdir, groups = task
    snaps = [[load_snapshot(qdir, *tag) for tag in tags] for tags in groups]
    rho = DensityMatrix(snaps[0][0][0].basis, np.stack([g[0][0].elements for g in snaps]))
    c2 = TwoPointMatrix(np.stack([g[0][1].entries for g in snaps]))
    c4 = FourPointTensor(np.stack([g[0][2].entries for g in snaps]))
    provenances = [[snap[3] for snap in group] for group in snaps]
    del snaps  # the stacks now hold the only copy of each record
    names = []
    for tags, provs, fields in zip(groups, provenances, analyze_records(c2, c4, rho)):
        for (iu, member, it), provenance in zip(tags, provs):
            u, t = config.u_values[iu], config.times[it]
            header = serialize.make_header(
                "reconstruction", rho.basis.mode_count,
                tolerances={"clamp": OCCUPATION_CLAMP, "rank_cutoff": RANK_CUTOFF},
                provenance=provenance)
            names.append(f"{snapshot_tag(iu, member, it)}_recon.json")
            serialize.dump_json(os.path.join(rdir, names[-1]), {
                "header": header, "u": float(u), "t": float(t), "tau": float(u * t),
                "member": member, **fields})
    return names


def cmd_reconstruct(config: RunConfig) -> str:
    """Reconstruct every snapshot and write diagnostics next to it.

    Byte-identical stored records (each U repeats a member's t = 0) are analyzed
    once, in chunks of at most RECON_CHUNK_ENTRIES matrix entries: one task each.
    """
    qdir = _quench_dir(config)
    if not os.path.isdir(qdir):
        raise FileNotFoundError(f"no quench outputs under {qdir}")
    rdir = _recon_dir(config)
    os.makedirs(rdir, exist_ok=True)
    dtype, count = _trajectory_dtype(config.subsystem_modes), len(config.times)
    groups = {}
    for iu, m, it in itertools.product(range(len(config.u_values)),
                                       range(config.ensemble_size), range(count)):
        record = serialize.load_npy_record(os.path.join(qdir, f"u{iu}_m{m}.npy"),
                                           dtype, count, it)
        groups.setdefault(hashlib.sha256(record).digest(), []).append((iu, m, it))
    groups = list(groups.values())
    size = max(1, RECON_CHUNK_ENTRIES // dtype["rho"].shape[0] ** 2)
    tasks = [(config, qdir, rdir, groups[i:i + size]) for i in range(0, len(groups), size)]
    names = sum(_run_tasks(_recon_task, tasks, config.workers), [])
    manifest = os.path.join(rdir, "manifest.json")
    serialize.write_manifest(manifest, {
        name: os.path.join(rdir, name) for name in names
    }, config_summary=run_summary(config))
    return manifest


def cmd_measure(config: RunConfig, iu: int = 0, member: int = 0,
                it: int | None = None) -> str:
    """Simulate the sampling protocol on one stored snapshot."""
    it = len(config.times) - 1 if it is None else it
    for name, index, size in (("u_index", iu, len(config.u_values)),
                              ("member", member, config.ensemble_size),
                              ("time_index", it, len(config.times))):
        if not 0 <= index < size:
            raise DomainError(f"{name} {index} outside 0..{size - 1}")
    tag = snapshot_tag(iu, member, it)
    rho, c2_exact, c4_exact, _ = load_snapshot(_quench_dir(config), iu,
                                               member, it)

    mdir = os.path.join(config.out_dir, "measure")
    os.makedirs(mdir, exist_ok=True)
    plan = plan_bases(config.subsystem_modes, shots_per_basis=config.shots_per_basis)
    records = run_plan(rho, plan, stat_seed(config, "measure", iu, member, it))
    shots_name = f"shots_{tag}.jsonl"
    save_shot_records(os.path.join(mdir, shots_name), plan, records)

    c2_hat, c2_se, c4_hat, c4_se = estimate_correlations(plan, records)
    doc = {
        "header": serialize.make_header(
            "estimate", config.subsystem_modes,
            provenance={"tag": tag, "shots_per_basis": plan.shots_per_basis},
        ),
        "plan": plan.scaling_report(),
        "two_point": serialize.complex_to_nested(c2_hat.entries),
        "two_point_se": c2_se.tolist(),
        "max_dev_c2": float(np.abs(c2_hat.entries - c2_exact.entries).max()),
        "four_point": serialize.complex_to_nested(c4_hat.entries),
        "four_point_se": c4_se.tolist(),
        "max_dev_c4": float(np.abs(c4_hat.entries - c4_exact.entries).max()),
    }
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


def _load_cell(config: RunConfig, iu: int, it: int) -> list[dict]:
    """The reconstruction documents of one (u, t) cell, in member order."""
    docs = []
    for m in range(config.ensemble_size):
        path = os.path.join(_recon_dir(config),
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
    levels = [sec["levels"] for doc in docs for sec in doc[f"spectrum_{kind}"]]
    try:
        return gap_statistics(levels,
                              seed=stat_seed(config, "gaps", kind, iu, it))
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


def cmd_figures(config: RunConfig, which: str) -> list[str]:
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
    fdir = os.path.join(config.out_dir, "figures")
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
        cells = [_load_cell(config, iu, it) for it in range(n_t)]
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
