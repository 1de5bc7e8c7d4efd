"""fermiscope benchmark: the four CLI stages, timed, checked and traced.

    python3 benchmarks/run.py --workload sweep-5site --seed 0 --seconds 45 --trace 0

Each stage (``quench``, ``reconstruct``, ``figures all``, ``measure``) runs
in its own fresh ``python -m fermiscope.cli`` process, one at a time, with
``--workers 0`` and one BLAS/OpenMP thread.  A run repeats the whole
pipeline while another repetition still fits in ``--seconds`` (at least
twice, so reruns can be compared) and reports medians over them.
``--trace 1`` instead alternates untraced and traced pipelines and reports
per-layer spans from ``trace_shim``.  The last line of stdout is the JSON result; the lines
before it name every metric with its unit and record the environment.

See README.md in this directory for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import trace_shim

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE_PATH = BENCH_DIR / "reference.json"

# The benchmark seed picks one of these master seeds, so every run can be
# checked against a summary recorded at commit e5897f0.
BASE_MASTER_SEED = 20240817
N_MASTER_SEEDS = 4

WORKLOADS = {
    # The built-in default config: many tiny snapshots, so per-snapshot
    # overhead (rebuilds, full-state C4, frame unitaries, JSON) dominates.
    "sweep-5site": {},
    # Few large snapshots: Krylov evolution in the 11440-dim sector,
    # 256x256 frame unitaries and an 897-basis order-2 measurement.
    "chain-8site": {
        "sites": 8,
        "fields": {
            "target_particles": 7,
            "subsystem_sites": 4,
            "u_values": [0.05],
            "ensemble_size": 1,
            "times": [0.0, 5.0, 10.0, 20.0],
        },
    },
}

STAGES = (
    ("quench", ["quench"]),
    ("reconstruct", ["reconstruct"]),
    ("figures", ["figures", "all"]),
    ("measure", ["measure"]),
)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# glibc otherwise moves its mmap threshold as a process frees memory, so
# whether each 1 MB temporary is a fresh, page-faulting mapping depends on
# allocation history: measure_s on chain-8site flipped between 3.6 s and
# 6.4 s with the master seed.  Fixed thresholds serve them from the heap.
ALLOCATOR_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(256 << 20),
}
MIN_REPS = 2
SETUP_REPEATS = 5
# A run must end within 180 s; children still alive at this point are killed.
RUN_LIMIT_S = 170.0
RESIDUAL_LIMIT = 1e-10
# Reference tolerances: |got - ref| <= ATOL + RTOL * |ref|; counts exact.
ATOL = 1e-9
RTOL = 1e-6
FIGURE_FILES = ("fig2_delta.csv", "fig3_meanr.csv", "fig4_grid.csv")

# Functions whose calls and self seconds are reported as per-layer metrics:
# every layer function the metric map names, plus the helpers that took a
# visible share of self time on either workload when the benchmark was set.
LAYER_FUNCTIONS = (
    "fock.FockBasis", "fock.quadratic_operator", "fock.partial_trace",
    "fock.ladder_map", "fock.popcount",
    "model.build_hamiltonian", "model.evolve", "model.select_initial_state",
    "model.hop_matrix",
    "correlations.measure_four_point_connected",
    "correlations.measure_two_point", "correlations.diagonalize_two_point",
    "correlations.rotate_four_point",
    "reconstruct.mode_rotation_unitary", "reconstruct.reconstruct_state",
    "reconstruct.delta_rho", "reconstruct.project_positive",
    "reconstruct.gaussian_state",
    "entanglement.gap_statistics", "entanglement.non_gaussianity",
    "entanglement.entanglement_spectrum", "entanglement.sector_spectra",
    "entanglement.sector_project",
    "measure.run_plan", "measure.estimate_correlations",
    "measure.save_shot_records", "measure.plan_bases",
    "measure.sample_occupations", "measure.apply_rotation",
    "measure.rotation_matrix",
    "serialize.dump_json", "serialize.load_json", "serialize.write_manifest",
    "serialize.atomic_write_text", "serialize.complex_to_nested",
    "serialize.nested_to_complex", "serialize.to_json_line",
)
LAYER_COUNTERS = (
    ("measure.run_plan", "shots"),
    ("serialize.dump_json", "bytes"),
    ("serialize.load_json", "bytes"),
)

SETUP_CODE = """
import json, platform, sys
import fermiscope.cli
import numpy, scipy
from fermiscope.config import default_config, save_config
from fermiscope.model import HubbardParams
spec = json.loads(sys.argv[1])
config = default_config(spec["master_seed"])
if "sites" in spec:
    config = config.override(model=HubbardParams(sites=spec["sites"]),
                             **spec["fields"])
save_config(sys.argv[2], config)
print(json.dumps({"python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "module": fermiscope.cli.__file__}))
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, broken setup)."""


def end_to_end_units() -> dict[str, str]:
    units = {"setup_s": "s", "wall_s": "s"}
    units.update({f"{name}_s": "s" for name, _ in STAGES})
    units["peak_rss_mb"] = "MB"
    return units


def per_layer_units() -> dict[str, str]:
    units = {}
    for fn in LAYER_FUNCTIONS:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.s"] = "s"
    for fn, key in LAYER_COUNTERS:
        units[f"{fn}.{key}"] = "count"
    units["serialize.bytes_written"] = "count"
    units["harness.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def master_seed_for(seed: int) -> int:
    return BASE_MASTER_SEED + seed % N_MASTER_SEEDS


def stage_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in THREAD_VARS:
        env[var] = "1"
    env.update(ALLOCATOR_ENV)
    return env


def run_process(argv, env, log_path: Path,
                deadline: float) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, wall seconds, peak RSS MB).

    The child is killed if it is still running at ``deadline``
    (``time.perf_counter()`` seconds).
    """
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=log)
        timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def setup(workload: str, master_seed: int, work: Path, env: dict,
          deadline: float):
    """Import ``fermiscope.cli`` in fresh interpreters and write the config.

    One untimed warm-up fills the bytecode cache, as any user's first run
    does; the median of the timed repeats is ``setup_s``.
    """
    spec = dict(WORKLOADS[workload], master_seed=master_seed)
    config_path = work / "config.json"
    argv = [sys.executable, "-c", SETUP_CODE, json.dumps(spec),
            str(config_path)]
    times = []
    info = None
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        out = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                             text=True, timeout=max(1.0, deadline - t0))
        elapsed = time.perf_counter() - t0
        if out.returncode != 0:
            raise BenchError(f"setup failed:\n{out.stderr.strip()}")
        info = json.loads(out.stdout.strip().splitlines()[-1])
        if i:
            times.append(elapsed)
    if not Path(info["module"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"fermiscope imported from {info['module']}, "
                         f"not from {SRC}")
    config = json.loads(config_path.read_text())
    return config_path, config, statistics.median(times), info


def run_pipeline(config_path: Path, out: Path, env: dict,
                 spans_dir: Path | None, deadline: float) -> dict:
    """All four stages, serially; spans are written when tracing."""
    log = out.parent / f"{out.name}.stderr.log"
    result = {"codes": {}, "times": {}, "rss": {}, "spans": {}, "log": log}
    for name, args in STAGES:
        common = args + ["--config", str(config_path), "--out", str(out),
                         "--workers", "0"]
        if spans_dir is None:
            argv = [sys.executable, "-m", "fermiscope.cli"] + common
        else:
            spans = spans_dir / f"{name}.json"
            argv = [sys.executable, trace_shim.__file__, "--spans",
                    str(spans), "--"] + common
            result["spans"][name] = spans
        code, wall, rss = run_process(argv, env, log, deadline)
        result["codes"][name] = code
        result["times"][name] = wall
        result["rss"][name] = rss
    return result


# ---------------------------------------------------------------- checks


def _parse_cell(text: str):
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        return float(text)


def summarize(out: Path) -> dict:
    """Residuals, and the values compared with the reference: thetas,
    figure statistics and the measurement's max deviations."""
    thetas, residuals = {}, {}
    for path in sorted((out / "recon").glob("*_recon.json")):
        doc = json.loads(path.read_text())
        tag = path.name[:-len("_recon.json")]
        thetas[tag] = [doc["theta_exact"], doc["theta_recon"]]
        residuals[tag] = [doc["residual_c2"], doc["residual_c4"]]
    figures = {}
    for name in FIGURE_FILES:
        with open(out / "figures" / name, newline="") as fh:
            rows = list(csv.reader(fh))
        figures[name] = [rows[0]] + [[_parse_cell(c) for c in row]
                                     for row in rows[1:]]
    estimate = next((out / "measure").glob("estimate_*.json"))
    doc = json.loads(estimate.read_text())
    return {
        "thetas": thetas,
        "residuals": residuals,
        "figures": figures,
        "measure": {k: doc[k] for k in ("max_dev_c2", "max_dev_c4")
                    if k in doc},
    }


def values_match(got, ref) -> bool:
    """Recursive value comparison: floats within tolerance, rest exact."""
    if isinstance(ref, dict):
        return (isinstance(got, dict) and got.keys() == ref.keys()
                and all(values_match(got[k], ref[k]) for k in ref))
    if isinstance(ref, list):
        return (isinstance(got, list) and len(got) == len(ref)
                and all(values_match(g, r) for g, r in zip(got, ref)))
    if isinstance(ref, float) and isinstance(got, (int, float)):
        if math.isnan(ref):
            return math.isnan(got)
        return abs(got - ref) <= ATOL + RTOL * abs(ref)
    return type(got) is type(ref) and got == ref


def stage_ops(config: dict) -> dict[str, int]:
    """Snapshots passing through each stage: one operation each."""
    n = (len(config["u_values"]) * config["ensemble_size"]
         * len(config["times"]))
    return {"quench": n, "reconstruct": n, "figures": n, "measure": 1}


def exit_failures(pipeline: dict, problems: list) -> set[str]:
    """Stages that exited non-zero, with the tail of their stderr."""
    bad = {name for name, code in pipeline["codes"].items() if code != 0}
    if bad:
        tail = pipeline["log"].read_text(errors="replace").splitlines()[-5:]
        problems.append(f"stages {sorted(bad)} exited "
                        f"{[pipeline['codes'][n] for n in sorted(bad)]}; "
                        "stderr ends: " + " | ".join(tail))
    return bad


def check_first(out: Path, pipeline: dict, config: dict, reference,
                problems: list) -> int:
    """Failed operations of the first pipeline, checked against values."""
    ops = stage_ops(config)
    bad = exit_failures(pipeline, problems)
    if bad:
        return sum(ops[name] for name in bad)
    try:
        summary = summarize(out)
    except (OSError, KeyError, ValueError, StopIteration) as exc:
        problems.append(f"outputs unreadable: {exc!r}")
        return sum(ops.values())
    if reference is None:
        problems.append("no reference summary for this master seed")
        return sum(ops.values())
    recon_bad = set()
    for tag, pair in summary["residuals"].items():
        for key, value in zip(("residual_c2", "residual_c4"), pair):
            if not value <= RESIDUAL_LIMIT:
                problems.append(f"{tag}: {key} = {value:.3g}")
                recon_bad.add(tag)
    ref_thetas = reference["thetas"]
    for tag in sorted(set(ref_thetas) | set(summary["thetas"])):
        if not values_match(summary["thetas"].get(tag), ref_thetas.get(tag)):
            problems.append(f"{tag}: thetas differ from the reference")
            recon_bad.add(tag)
    failed = len(recon_bad)
    if not values_match(summary["figures"], reference["figures"]):
        problems.append("figure statistics differ from the reference")
        failed += ops["figures"]
    if not values_match(summary["measure"], reference["measure"]):
        problems.append("max_dev_c2/max_dev_c4 differ from the reference")
        failed += ops["measure"]
    return failed


MANIFESTS = {
    "quench": "quench/manifest.json",
    "reconstruct": "recon/manifest.json",
    "figures": "figures/manifest_fig*.json",
    "measure": "measure/manifest_*.json",
}


def manifests(out: Path) -> dict:
    """Per stage, the file hashes its manifests record (None if absent)."""
    return {
        stage: {p.name: json.loads(p.read_text())["files"]
                for p in sorted(out.glob(pattern))} or None
        for stage, pattern in MANIFESTS.items()
    }


def check_rerun(first: dict, out: Path, pipeline: dict, config: dict,
                problems: list) -> int:
    """Failed operations of a rerun: stage errors or changed manifests."""
    ops = stage_ops(config)
    bad = exit_failures(pipeline, problems)
    again = manifests(out)
    for name, _ in STAGES:
        if name not in bad and (again[name] is None
                                or again[name] != first[name]):
            problems.append(f"rerun: {name} manifests differ")
            bad.add(name)
    return sum(ops[name] for name in bad)


def bytes_under(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


# ----------------------------------------------------------- environment


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fermiscope").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(info: dict, workload: str, seed: int, master_seed: int,
                env: dict) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "master_seed": master_seed,
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: env.get(var) for var in THREAD_VARS},
        "allocator": {var: env.get(var) for var in ALLOCATOR_ENV},
        "python": info["python"],
        "numpy": info["numpy"],
        "scipy": info["scipy"],
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


# ------------------------------------------------------------------ run


def layer_metrics(pipeline: dict) -> dict[str, float]:
    """Per-layer values of one traced pipeline, summed over its stages."""
    tables = [trace_shim.self_times(json.loads(Path(p).read_text())["spans"])
              for p in pipeline["spans"].values()]

    def total(fn, key):
        return sum(table.get(fn, {}).get(key, 0) for table in tables)

    values = {}
    for fn in LAYER_FUNCTIONS:
        values[f"{fn}.calls"] = total(fn, "calls")
        values[f"{fn}.s"] = total(fn, "s")
    for fn, key in LAYER_COUNTERS:
        values[f"{fn}.{key}"] = total(fn, key)
    values["harness.self_s"] = total(trace_shim.ROOT, "s")
    return values


def run(workload: str, seed: int, seconds: float, trace: bool,
        reference_doc: dict) -> dict:
    if not (SRC / "fermiscope" / "cli.py").is_file():
        raise BenchError(f"no fermiscope sources under {SRC}")
    deadline = time.perf_counter() + RUN_LIMIT_S
    master_seed = master_seed_for(seed)
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = stage_env()
    config_path, config, setup_s, info = setup(workload, master_seed, work,
                                               env, deadline)
    print("env " + json.dumps(environment(info, workload, seed, master_seed,
                                          env), sort_keys=True))
    reference = reference_doc.get(workload, {}).get(str(master_seed))

    problems: list[str] = []
    plain, traced = [], []
    attempted = failed = 0
    first = None
    bytes_written = 0
    t_start = time.perf_counter()
    rep = 0
    while True:
        rep += 1
        out = work / f"rep{rep}"
        spans_dir = None
        if trace and rep % 2 == 0:
            spans_dir = work / f"spans{rep}"
            spans_dir.mkdir()
        pipeline = run_pipeline(config_path, out, env, spans_dir, deadline)
        attempted += sum(stage_ops(config).values())
        if first is None:
            failed += check_first(out, pipeline, config, reference, problems)
            first = manifests(out)
            bytes_written = bytes_under(out)
        else:
            failed += check_rerun(first, out, pipeline, config, problems)
        (traced if spans_dir else plain).append(pipeline)
        print(f"rep {rep}{' traced' if spans_dir else ''}: " + ", ".join(
            f"{name} {t:.3f} s" for name, t in pipeline["times"].items()))
        shutil.rmtree(out, ignore_errors=True)
        now = time.perf_counter()
        rep_time = (now - t_start) / rep
        if now + rep_time > deadline or (
                rep >= MIN_REPS and (rep + 1) * rep_time > seconds):
            break

    for line in problems[:20]:
        print(f"check: {line}")
    print(f"checked {attempted} operations, {failed} failed "
          f"(failed_ratio {failed / attempted:.6g})")

    if trace:
        if not traced:
            raise BenchError(f"no time left for a traced pipeline within "
                             f"{RUN_LIMIT_S:.0f} s")
        per_rep = [layer_metrics(p) for p in traced]
        metrics = {name: statistics.median(r[name] for r in per_rep)
                   for name in per_rep[0]}
        metrics["serialize.bytes_written"] = bytes_written
        metrics["trace.overhead_s"] = (
            statistics.median(sum(p["times"].values()) for p in traced)
            - statistics.median(sum(p["times"].values()) for p in plain))
        units = per_layer_units()
        samples = len(traced)
    else:
        metrics = {"setup_s": setup_s}
        metrics["wall_s"] = statistics.median(
            sum(p["times"].values()) for p in plain)
        for name, _ in STAGES:
            metrics[f"{name}_s"] = statistics.median(
                p["times"][name] for p in plain)
        metrics["peak_rss_mb"] = statistics.median(
            max(p["rss"].values()) for p in plain)
        units = end_to_end_units()
        samples = len(plain)
    for name in units:
        n = SETUP_REPEATS if name == "setup_s" else samples
        value = metrics[name]
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} {shown} {units[name]} (median of {n})")
    shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }


def record_reference(seeds) -> dict:
    """Summaries of one untraced pipeline per workload and master seed."""
    doc = {}
    env = stage_env()
    for workload in WORKLOADS:
        doc[workload] = {}
        for master_seed in seeds:
            work = WORK / "reference" / workload
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            deadline = time.perf_counter() + RUN_LIMIT_S
            config_path, _, _, _ = setup(workload, master_seed, work, env,
                                         deadline)
            out = work / "out"
            pipeline = run_pipeline(config_path, out, env, None, deadline)
            if any(pipeline["codes"].values()):
                raise BenchError(f"{workload}/{master_seed}: stage failed "
                                 f"{pipeline['codes']}")
            summary = summarize(out)
            del summary["residuals"]
            doc[workload][str(master_seed)] = summary
            print(f"recorded {workload} {master_seed}", file=sys.stderr)
    shutil.rmtree(WORK / "reference", ignore_errors=True)
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: each in turn, one "
                             "result line per workload)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from this code")
    args = parser.parse_args(argv)
    try:
        if args.record_reference:
            seeds = [BASE_MASTER_SEED + i for i in range(N_MASTER_SEEDS)]
            REFERENCE_PATH.write_text(
                json.dumps(record_reference(seeds), sort_keys=True) + "\n")
            return 0
        reference_doc = json.loads(REFERENCE_PATH.read_text())
        for workload in [args.workload] if args.workload else WORKLOADS:
            result = run(workload, args.seed, args.seconds,
                         bool(args.trace), reference_doc)
            print(json.dumps(result, sort_keys=True))
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
