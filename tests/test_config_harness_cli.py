import csv
import json
import math
import os
import shutil
import stat
import sys
from collections import Counter

import numpy as np
import pytest

from fermiscope import cli, fock, harness, measure, serialize, validate
from fermiscope.config import (
    ConfigWarning,
    RunConfig,
    default_config,
    load_config,
    save_config,
)
from fermiscope.correlations import (
    FourPointTensor,
    TwoPointMatrix,
    measure_four_point_connected,
    measure_two_point,
)
from fermiscope.fock import CapacityError, DensityMatrix, DomainError, FockBasis
from fermiscope.model import HubbardParams
from fermiscope.serialize import load_json, sha256_of_file

from conftest import mini_config
from oracles import (
    analyze_snapshot_loop,
    gap_statistics_loop,
    recon_fields_rediagonalized,
    same_bits,
)


def test_default_config_shape():
    config = default_config()
    assert config.model.sites == 5
    assert config.particles == 4  # one below half filling
    assert config.subsystem_modes == 4


def test_config_round_trip(tmp_path):
    config = mini_config(str(tmp_path))
    path = str(tmp_path / "config.json")
    save_config(path, config)
    again = load_config(path)
    assert again.summary() == config.summary()


def test_config_rejects_unknown_keys(tmp_path):
    config = mini_config(str(tmp_path))
    path = str(tmp_path / "config.json")
    save_config(path, config)
    good = json.load(open(path))
    # "shots" names nothing; every plan measures C2 and C4, so "measure_order"
    # has nothing to choose; every quench starts from a plane-wave state, so
    # "initial_kind" and "t_free" have nothing to set; the rest name settings
    # that are module constants
    for key in ("shots", "measure_order", "initial_kind", "t_free", "clamp",
                "warn_threshold", "rank_cutoff", "degeneracy_tol", "histogram_bins",
                "bootstrap_resamples"):
        json.dump(dict(good, **{key: 5}), open(path, "w"))
        with pytest.raises(DomainError, match=f"unknown config keys: \\['{key}'\\]"):
            load_config(path)


def test_config_guards(tmp_path):
    with pytest.raises(DomainError):
        mini_config(str(tmp_path)).override(times=(2.0, 1.0))
    with pytest.raises(DomainError):
        mini_config(str(tmp_path)).override(u_values=(0.05, 0.05))
    # a negative seed would fail deep in numpy's SeedSequence
    with pytest.raises(DomainError, match="master_seed"):
        mini_config(str(tmp_path)).override(master_seed=-1)
    with pytest.raises(DomainError, match="master_seed"):
        cli._resolve_config(cli.build_parser().parse_args(["quench", "--seed", "-1"]))
    with pytest.raises(DomainError, match="shots_per_basis"):
        mini_config(str(tmp_path)).override(shots_per_basis=0)
    non_finite = ((0.0, math.nan), (0.0, math.inf), (math.nan,))
    bad_values = {"times": non_finite, "u_values": non_finite}
    for name, values in bad_values.items():
        for value in values:
            with pytest.raises(DomainError, match=name):
                mini_config(str(tmp_path)).override(**{name: value})
    with pytest.warns(ConfigWarning):
        mini_config(str(tmp_path)).override(subsystem_sites=3)
    # JSON input of the wrong type: each raises a DomainError naming its field
    path = str(tmp_path / "config.json")
    save_config(path, mini_config(str(tmp_path)))
    good = json.load(open(path))
    bad_json = [("ensemble_size", 2.5), ("subsystem_sites", 1.5),
                ("shots_per_basis", 10.5), ("workers", 1.5),
                ("master_seed", True), ("times", "abc"), ("times", "123"),
                ("u_values", [0.05, False])]
    for name, value in bad_json:
        json.dump(dict(good, **{name: value}), open(path, "w"))
        with pytest.raises(DomainError, match=name):
            load_config(path)
    for model, name in (({"sites": 5.5}, "sites"), ({"sites": 4, "hops": 1.0}, "hops"),
                        ({"hop": 1.0}, "sites"), ([4], "model"),
                        ({"sites": 4, "hop": "abc"}, "hop"),
                        ({"sites": 4, "hop": math.nan}, "hop"),
                        ({"sites": 4, "hop": True}, "hop")):
        json.dump(dict(good, model=model), open(path, "w"))
        with pytest.raises(DomainError, match=name):
            load_config(path)


def test_validate_battery_passes(capsys):
    assert cli.main(["validate"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len([line for line in lines if line.startswith("[ ok ]")]) == 12


def test_run_summary_drops_execution_details(tmp_path):
    config = mini_config(str(tmp_path))
    summary = harness.run_summary(config)
    assert "workers" not in summary
    assert "out_dir" not in summary
    assert summary["master_seed"] == 7701


def test_member_seeds_and_stat_seed(tmp_path):
    config = mini_config(str(tmp_path))
    seeds = harness.member_seeds(config)
    assert len(seeds) == config.ensemble_size
    assert seeds == harness.member_seeds(config)
    a = harness.stat_seed(config, "gaps", 0, 1)
    assert a == harness.stat_seed(config, "gaps", 0, 1)
    assert a != harness.stat_seed(config, "gaps", 0, 2)
    shifted = config.override(master_seed=1)
    assert a != harness.stat_seed(shifted, "gaps", 0, 1)


def test_snapshot_tag_format():
    assert harness.snapshot_tag(2, 0, 5) == "u2_m0_t5"


def test_capacity_guard_rejects_large_runs(tmp_path):
    config = RunConfig(
        model=HubbardParams(sites=14),
        master_seed=1,
        subsystem_sites=2,
        times=(1.0,),
        u_values=(0.01,),
        ensemble_size=1,
        out_dir=str(tmp_path),
    )
    with pytest.raises(CapacityError):
        harness.cmd_quench(config)


def test_pipeline_end_to_end(tmp_path):
    config = mini_config(str(tmp_path))
    qman = harness.cmd_quench(config)
    qdir = os.path.dirname(qman)
    assert sorted(f for f in os.listdir(qdir) if f.startswith("u")) == [
        "u0_m0.json", "u0_m0.npy", "u0_m1.json", "u0_m1.npy"]  # 1 u x 2 members
    members = load_json(os.path.join(qdir, "initial_states.json"))["members"]
    assert len(members) == 2

    rman = harness.cmd_reconstruct(config)
    rdir = os.path.dirname(rman)
    doc = load_json(os.path.join(rdir, "u0_m0_t1_recon.json"))
    assert doc["residual_c2"] < 1e-10
    assert doc["residual_c4"] < 1e-10
    assert doc["theta_exact"] >= 0.0
    assert isinstance(doc["spectrum_exact"], list)

    mman = harness.cmd_measure(config, iu=0, member=0)
    mdir = os.path.dirname(mman)
    est = load_json(os.path.join(mdir, "estimate_u0_m0_t1.json"))
    assert est["max_dev_c2"] < 0.2
    assert os.path.isfile(os.path.join(mdir, "shots_u0_m0_t1.jsonl"))

    fmans = harness.cmd_figures(config, "all")
    assert [os.path.basename(f) for f in fmans] == [
        "manifest_fig2.json", "manifest_fig3.json", "manifest_fig4.json"]
    assert all(os.path.isfile(f) for f in fmans)
    fdir = os.path.join(str(tmp_path), "figures")
    with open(os.path.join(fdir, "fig2_theta.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert {"u", "t", "tau", "theta_exact", "theta_recon"} <= set(rows[0])
    assert len(rows) == 4
    grid = list(csv.DictReader(open(os.path.join(fdir, "fig4_grid.csv"))))
    assert len(grid) == 2  # one u, two times

    # regeneration is byte-stable
    before = sha256_of_file(os.path.join(fdir, "fig2_theta.csv"))
    harness.cmd_figures(config, "fig2")
    assert sha256_of_file(os.path.join(fdir, "fig2_theta.csv")) == before


def test_measure_stage_is_reproducible(tmp_path):
    config = mini_config(str(tmp_path))
    harness.cmd_quench(config)
    manifest = harness.cmd_measure(config)
    first = open(manifest, "rb").read()
    assert harness.cmd_measure(config) == manifest
    assert open(manifest, "rb").read() == first
    # the shots file is a fixed point of loading and saving
    shots = next(tmp_path.glob("measure/shots_*.jsonl"))
    _, records = measure.load_shot_records(str(shots))
    plan = measure.plan_bases(config.subsystem_modes,
                              shots_per_basis=config.shots_per_basis)
    again = tmp_path / "again.jsonl"
    measure.save_shot_records(str(again), plan, records)
    assert again.read_bytes() == shots.read_bytes()


def test_outputs_get_the_mode_open_would_give(tmp_path):
    old = os.umask(0o022)
    try:
        for umask in (0o022, 0o077):
            os.umask(umask)
            opened = tmp_path / f"o{umask:o}"
            with open(opened, "w") as fh:
                fh.write("x\n")
            text, raw, npy = (tmp_path / f"{kind}{umask:o}"
                              for kind in ("text", "raw", "npy"))
            serialize.atomic_write_text(str(text), "x\n")
            serialize.atomic_write_text(str(raw), b"\x00\xff")
            serialize.dump_npy(str(npy), np.zeros(2, complex))
            assert raw.read_bytes() == b"\x00\xff"
            for written in (text, raw, npy):
                mode = stat.S_IMODE(os.stat(written).st_mode)
                assert mode == stat.S_IMODE(os.stat(opened).st_mode) == 0o666 & ~umask
    finally:
        os.umask(old)


def test_a_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    path = str(tmp_path / "out.json")
    with pytest.raises(UnicodeEncodeError):  # raised before any file is made
        serialize.atomic_write_text(path, "x\ud800")

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(serialize.os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        serialize.atomic_write_text(path, b"written in full")
    assert os.listdir(tmp_path) == []


def test_writes_leave_the_process_umask_alone(tmp_path, monkeypatch):
    # open()'s 0o666 less the umask, with no process-wide umask swap
    real_umask = os.umask
    old = real_umask(0o027)
    try:
        def no_umask(mask):
            raise AssertionError("atomic_write_text changed the umask")

        monkeypatch.setattr(serialize.os, "umask", no_umask)
        path = tmp_path / "out.json"
        serialize.atomic_write_text(str(path), "x\n")
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o666 & ~0o027
        monkeypatch.setattr(serialize.os, "replace", lambda src, dst: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            serialize.atomic_write_text(str(tmp_path / "failed.json"), "y\n")
        assert os.listdir(tmp_path) == ["out.json"]  # no .tmp-* left
        assert path.read_text() == "x\n"
    finally:
        real_umask(old)


def test_reconstruct_analyzes_each_distinct_input_once(tmp_path, monkeypatch):
    # every U shares a member's t = 0 state, so 8 snapshots hold 6 inputs
    config = mini_config(str(tmp_path)).override(u_values=(0.05, 0.2), times=(0.0, 1.0))
    harness.cmd_quench(config)
    inputs = set()
    for *_, c2, c4, rho in _mini_snapshots(config):
        inputs.add(b"".join(a.tobytes() for a in (rho.elements, c2.entries, c4.entries)))
    assert len(inputs) == 6
    calls = []
    real = harness.analyze_records

    def counting(c2, c4, rho):
        calls.append(len(rho.elements))
        return real(c2, c4, rho)

    monkeypatch.setattr(harness, "analyze_records", counting)
    harness.cmd_reconstruct(config)
    assert sum(calls) == len(inputs)
    # the t = 0 documents differ in u, tau and their header's provenance only
    docs = [load_json(str(tmp_path / "recon" / f"u{iu}_m1_t0_recon.json")) for iu in (0, 1)]
    assert [d["u"] for d in docs] == [0.05, 0.2]
    assert [d["header"]["provenance"]["u"] for d in docs] == [0.05, 0.2]
    for doc in docs:
        for key in ("u", "tau", "header"):
            doc.pop(key)
    assert docs[0] == docs[1]


def test_quench_builds_ladder_tables_once_per_basis(tmp_path, monkeypatch):
    calls = []
    real = fock.ladder_map

    def counting(basis, ops):
        calls.append(ops)
        return real(basis, ops)

    # every module that holds the kernel, wherever it was imported
    for name, module in list(sys.modules.items()):
        if name.startswith("fermiscope") and getattr(module, "ladder_map", None) is real:
            monkeypatch.setattr(module, "ladder_map", counting)
    counts = []
    for k, change in enumerate(({}, {"times": (0.5, 1.0, 2.0, 3.0)},
                                {"u_values": (0.05, 0.2)})):
        fock._hop_tables.cache_clear()
        fock._chain_table.cache_clear()
        calls.clear()
        harness.cmd_quench(mini_config(str(tmp_path / str(k))).override(**change))
        counts.append(len(calls))
    # twice the snapshots or twice the interactions, the same tables
    assert counts[0] == counts[1] == counts[2] > 0


def _mini_snapshots(config):
    """(task, C2, C4, rho) of every quench snapshot of ``config``."""
    qdir = os.path.join(config.out_dir, "quench")
    for iu in range(len(config.u_values)):
        for m in range(config.ensemble_size):
            for it in range(len(config.times)):
                rho, c2, c4, provenance = harness.load_snapshot(qdir, iu, m, it)
                yield (config, qdir, config.out_dir, [[((iu, m, it), provenance)]]), c2, c4, rho


def _stacked(snapshots):
    """The (C2, C4, rho) stacks of ``_mini_snapshots`` items."""
    *_, c2, c4, rho = zip(*snapshots)
    return (TwoPointMatrix(np.stack([x.entries for x in c2])),
            FourPointTensor(np.stack([x.entries for x in c4])),
            DensityMatrix(rho[0].basis, np.stack([x.elements for x in rho])))


def test_snapshot_analysis_matches_the_rediagonalizing_oracle(tmp_path):
    config = mini_config(str(tmp_path))
    harness.cmd_quench(config)
    moved = ("delta_gaussian", "delta_projected", "assembled_min_eigenvalue")
    count = 0
    snapshots = list(_mini_snapshots(config))
    for (_, c2, c4, rho), got in zip(snapshots, harness.analyze_records(*_stacked(snapshots)),
                                     strict=True):
        want = recon_fields_rediagonalized(c2, c4, rho)
        assert sorted(got) == sorted(want)
        for key in set(want) - set(moved):
            if key.startswith("spectrum_"):
                assert [(s["n"], s["m"], s["s"]) for s in got[key]] == \
                    [(s["n"], s["m"], s["s"]) for s in want[key]]
                assert all(same_bits(a["levels"], b["levels"])
                           for a, b in zip(got[key], want[key])), key
            else:
                assert same_bits(got[key], want[key]), key
        # levels read from known eigenvalues move the spectral errors by
        # far less than the benchmark's 1e-9 + 1e-6 |ref| tolerance
        for key in moved[:2]:
            for a, b in zip(got[key], want[key], strict=True):
                assert (a is None) == (b is None), key
                if b is not None:
                    assert abs(a - b) <= 0.01 * (1e-9 + 1e-6 * abs(b)), key
        assert abs(got[moved[2]] - want[moved[2]]) <= 1e-15
        count += 1
    assert count == 4


def test_recon_task_diagonalizes_each_state_once(tmp_path, monkeypatch):
    config = mini_config(str(tmp_path))
    harness.cmd_quench(config)
    dim = 1 << config.subsystem_modes
    calls = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counting(a, *args, _real=real, **kwargs):
            if np.shape(a)[-2:] == (dim, dim):
                calls.append(math.prod(np.shape(a)[:-2]))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    tasks = [task for task, *_ in _mini_snapshots(config)]
    harness._recon_task((*tasks[0][:3], [group for task in tasks for group in task[3]]))
    # per record: the exact spectrum, and the assembled state's eigh in
    # project_positive, in one stacked call each
    assert calls == [len(tasks)] * 2


def _recon_bytes(config) -> dict:
    rdir = os.path.join(config.out_dir, "recon")
    return {name: open(os.path.join(rdir, name), "rb").read() for name in os.listdir(rdir)}


def _invariance_config(out_dir: str) -> RunConfig:
    # 2 members x (3 U x 3 times > 0, plus the t = 0 every U shares): 20 records
    return mini_config(out_dir).override(u_values=(0.05, 0.2, 0.4), times=(0.0, 1.0, 2.0, 3.0))


def test_recon_bytes_do_not_depend_on_chunks_or_workers(tmp_path, monkeypatch):
    base = _invariance_config(str(tmp_path / "base"))
    harness.cmd_quench(base)
    entries_per_record = 1 << 2 * base.subsystem_modes
    default = harness.RECON_CHUNK_ENTRIES
    assert default == 16 * entries_per_record
    real = harness.analyze_records
    chunks = []

    def counting(c2, c4, rho):
        chunks.append(len(c2.entries))
        return real(c2, c4, rho)

    monkeypatch.setattr(harness, "analyze_records", counting)
    outputs = []
    for k, (records, workers) in enumerate(((16, 0), (1, 0), (7, 0), (16, 2))):
        config = base.override(out_dir=str(tmp_path / str(k)), workers=workers)
        shutil.copytree(os.path.join(base.out_dir, "quench"),
                        os.path.join(config.out_dir, "quench"))
        monkeypatch.setattr(harness, "RECON_CHUNK_ENTRIES", records * entries_per_record)
        chunks.clear()
        harness.cmd_reconstruct(config)
        if workers == 0:  # a pool's workers count in their own copies
            assert sum(chunks) == 20 and max(chunks) == records
        outputs.append(_recon_bytes(config))
    assert len(outputs[0]) == 2 * 3 * 4 + 1
    assert all(out == outputs[0] for out in outputs[1:])


def test_stacked_analysis_matches_the_one_record_oracle(tmp_path):
    config = _invariance_config(str(tmp_path))
    harness.cmd_quench(config)
    snapshots = list(_mini_snapshots(config))
    rng = np.random.default_rng(30)

    def states(n_modes):
        basis = FockBasis(n_modes)
        mixed = [validate.random_mixed_state(rng, n_modes).elements for _ in range(2)]
        # maximally mixed: C2 = 1/2 exactly, so the frame order is all tie-breaks
        flat = np.eye(basis.dim, dtype=complex) / basis.dim
        # mode 0 always empty: an occupation of exactly 0, clamped
        empty = mixed[0] * ((basis.states[:, None] & 1) == 0) * ((basis.states[None, :] & 1) == 0)
        mats = mixed + [flat, empty / np.trace(empty).real]
        out = [(None, measure_two_point(DensityMatrix(basis, m)),
                measure_four_point_connected(DensityMatrix(basis, m)), DensityMatrix(basis, m))
               for m in mats]
        # a C4 large enough to strain the ansatz
        return out + [(None, out[0][1], validate.random_valid_tensor(rng, n_modes, 0.5),
                       out[0][3])]

    for group in (snapshots, states(4), states(6)):
        got = [json.dumps(d, sort_keys=True) for d in harness.analyze_records(*_stacked(group))]
        want = [json.dumps(analyze_snapshot_loop(c2, c4, rho), sort_keys=True)
                for _, c2, c4, rho in group]
        assert got == want
    assert json.loads(got[-1])["ansatz_warning"]


def _two_snapshot_trajectory():
    """A fixed two-mode trajectory of two snapshots, some zeros negative."""
    rho = np.diag([0.5, 0.25, 0.125, 0.125]).astype(complex)
    c2 = np.array([[0.375, 0.125j], [-0.125j, 0.25]])
    c4 = np.arange(16).reshape((2,) * 4) * (0.5 - 0.25j) / 64
    snapshots = [(DensityMatrix(FockBasis(2), m), TwoPointMatrix(a), FourPointTensor(b))
                 for m, a, b in ((rho, c2, c4), (rho[::-1, ::-1], c2.T, -c4))]
    return (0.0, 1.5), snapshots, [{"t": 0.0}, {"t": 1.5}]


def test_trajectory_round_trips_and_pins_its_payload_bytes(tmp_path):
    times, snapshots, provenance = _two_snapshot_trajectory()
    assert harness.save_trajectory(str(tmp_path), 3, 1, times, snapshots,
                                   provenance) == ["u3_m1.json", "u3_m1.npy"]
    for it, want in enumerate(snapshots):
        *got, prov = harness.load_snapshot(str(tmp_path), 3, 1, it)
        assert prov == provenance[it]
        assert same_bits(got[0].elements, want[0].elements)
        assert same_bits(got[1].entries, want[1].entries)
        assert same_bits(got[2].entries, want[2].entries)
    # another .npy header layout would break byte-identical reruns
    assert sha256_of_file(str(tmp_path / "u3_m1.npy")) == (
        "273fff526c261f0bedaf5d49828efb970149c160f15499a7822b0b33c7214339")
    with pytest.raises(DomainError):
        harness.save_trajectory(str(tmp_path), 0, 0, times[:1],
                                [(*snapshots[0][:2], FourPointTensor(np.zeros((3,) * 4)))],
                                provenance[:1])


def test_load_snapshot_names_the_file_it_rejects(tmp_path):
    times, snapshots, provenance = _two_snapshot_trajectory()
    qdir = str(tmp_path)
    harness.save_trajectory(qdir, 0, 0, times, snapshots, provenance)
    npy, doc = tmp_path / "u0_m0.npy", tmp_path / "u0_m0.json"
    good_npy, good_doc = npy.read_bytes(), load_json(str(doc))

    def rejected(error, path):
        with pytest.raises(error) as info:
            harness.load_snapshot(qdir, 0, 0, 1)
        assert str(path) in str(info.value)
        npy.write_bytes(good_npy)
        serialize.dump_json(str(doc), good_doc)

    for cut in (4, 100, len(good_npy) - 16):  # magic, header, last record
        npy.write_bytes(good_npy[:cut])
        rejected(ValueError, npy)
    for array in (np.zeros(2, complex),  # another dtype
                  np.zeros(2, harness._trajectory_dtype(3)),  # another n_modes
                  np.zeros(1, harness._trajectory_dtype(2))):  # one record
        serialize.dump_npy(str(npy), array)
        rejected(ValueError, npy)
    with open(npy, "wb") as fh:  # pickled objects are refused unread
        np.lib.format.write_array(fh, np.array([{}, {}]), version=(1, 0))
    rejected(ValueError, npy)
    npy.write_bytes(good_npy[:6] + b"\x02" + good_npy[7:])  # format version 2.0
    rejected(ValueError, npy)
    npy.write_bytes(good_npy.replace(b"'fortran_order': False", b"'fortran_order': True "))
    rejected(ValueError, npy)
    for key, value in (("format", "fermiscope-state"), ("convention", "ascending-JW"),
                       ("version", 2)):
        serialize.dump_json(str(doc), {**good_doc,
                                       "header": {**good_doc["header"], key: value}})
        rejected(ValueError, doc)
    # one provenance entry short of the times
    serialize.dump_json(str(doc), {**good_doc, "provenance": good_doc["provenance"][:1]})
    rejected(ValueError, doc)
    with pytest.raises(DomainError, match="u0_m0.json"):
        harness.load_snapshot(qdir, 0, 0, 2)
    npy.unlink()
    rejected(FileNotFoundError, npy)
    doc.unlink()
    rejected(FileNotFoundError, doc)


def test_reconstruct_names_the_trajectory_it_rejects(tmp_path):
    config = mini_config(str(tmp_path))
    harness.cmd_quench(config)
    npy, doc = tmp_path / "quench" / "u0_m1.npy", tmp_path / "quench" / "u0_m1.json"
    good_npy, good_doc = npy.read_bytes(), load_json(str(doc))
    npy.write_bytes(good_npy[:-16])  # the last record cut short
    with pytest.raises(ValueError, match="u0_m1.npy"):
        harness.cmd_reconstruct(config)
    npy.write_bytes(good_npy)
    serialize.dump_json(str(doc), {**good_doc, "provenance": good_doc["provenance"][:1]})
    with pytest.raises(ValueError, match="u0_m1.json"):
        harness.cmd_reconstruct(config)


def test_reconstruct_reads_each_trajectory_whole_and_its_header_once(tmp_path, monkeypatch):
    config = mini_config(str(tmp_path))
    harness.cmd_quench(config)
    headers, reads = Counter(), []
    real_json, real_fromfile = serialize.load_json, np.fromfile

    def load_json_counting(path):
        headers[os.path.basename(path)] += 1
        return real_json(path)

    def fromfile_counting(fh, dtype, count=-1, **kwargs):
        reads.append((os.path.basename(fh.name), count))
        return real_fromfile(fh, dtype, count=count, **kwargs)

    monkeypatch.setattr(serialize, "load_json", load_json_counting)
    monkeypatch.setattr(np, "fromfile", fromfile_counting)
    harness.cmd_reconstruct(config)
    stems = [f"u0_m{m}" for m in range(config.ensemble_size)]
    assert headers == Counter(stem + ".json" for stem in stems)
    # the grouping pass and the one task each read every file whole: no record reads
    assert sorted(reads) == sorted((stem + ".npy", len(config.times)) for stem in stems * 2)


def test_measure_rejects_indices_outside_the_grids(tmp_path):
    config = mini_config(str(tmp_path))  # no quench: nothing can be read
    for kwargs, name in (({"iu": -1}, "u_index"), ({"iu": 1}, "u_index"),
                         ({"member": -1}, "member"), ({"member": 2}, "member"),
                         ({"it": -1}, "time_index"), ({"it": 2}, "time_index")):
        with pytest.raises(DomainError, match=name):
            harness.cmd_measure(config, **kwargs)
    with pytest.raises(FileNotFoundError, match="u0_m1.json"):
        harness.cmd_measure(config, member=1)


def test_parallel_run_matches_serial(tmp_path):
    # two interactions, so the two workers each run one per-U task; the
    # shared t = 0 inputs make reconstruct tasks that write two documents
    serial = mini_config(str(tmp_path / "a")).override(u_values=(0.05, 0.2),
                                                       times=(0.0, 1.0))
    parallel = serial.override(out_dir=str(tmp_path / "b"), workers=2)
    for config in (serial, parallel):
        harness.cmd_quench(config)
        harness.cmd_reconstruct(config)
    for stage, sample in (("quench", "u1_m1.npy"),
                          ("recon", "u1_m1_t1_recon.json")):
        names = sorted(os.listdir(tmp_path / "a" / stage))
        assert names == sorted(os.listdir(tmp_path / "b" / stage))
        assert sample in names and "manifest.json" in names
        for name in names:
            a = sha256_of_file(str(tmp_path / "a" / stage / name))
            b = sha256_of_file(str(tmp_path / "b" / stage / name))
            assert a == b, f"{stage}/{name}"


def test_figures_all_reads_and_computes_each_cell_once(tmp_path,
                                                       monkeypatch):
    config = mini_config(str(tmp_path))
    harness.cmd_quench(config)
    harness.cmd_reconstruct(config)
    fdir = tmp_path / "figures"
    for which in ("fig2", "fig3", "fig4"):
        harness.cmd_figures(config, which)
    singles = {name: sha256_of_file(str(fdir / name))
               for name in os.listdir(fdir)}
    shutil.rmtree(fdir)

    loads, gap_seeds = Counter(), Counter()
    real_load, real_gaps = serialize.load_json, harness.gap_statistics

    def counting_load(path):
        loads[os.path.basename(path)] += 1
        return real_load(path)

    def counting_gaps(spectra, **kwargs):
        gap_seeds[kwargs["seed"]] += 1
        return real_gaps(spectra, **kwargs)

    monkeypatch.setattr(serialize, "load_json", counting_load)
    monkeypatch.setattr(harness, "gap_statistics", counting_gaps)
    harness.cmd_figures(config, "all")
    monkeypatch.undo()

    assert {name: sha256_of_file(str(fdir / name))
            for name in os.listdir(fdir)} == singles
    assert len(singles) == 9  # six CSVs and three manifests
    recon = [f"{harness.snapshot_tag(0, m, it)}_recon.json"
             for m in range(2) for it in range(2)]
    assert loads == Counter(recon)
    cells = [harness.stat_seed(config, "gaps", kind, 0, it)
             for kind in ("exact", "recon") for it in range(2)]
    assert gap_seeds == Counter(cells)

    # the per-spectrum oracle gives the same bytes in every file, fig3_hist,
    # fig3_spectra and fig2_theta included
    shutil.rmtree(fdir)
    monkeypatch.setattr(harness, "gap_statistics", gap_statistics_loop)
    harness.cmd_figures(config, "all")
    assert {name: sha256_of_file(str(fdir / name))
            for name in os.listdir(fdir)} == singles


def test_cli_parses_and_runs(tmp_path, capsys):
    config = mini_config(str(tmp_path))
    path = str(tmp_path / "config.json")
    save_config(path, config)
    assert cli.main(["quench", "--config", path]) == 0
    assert cli.main(["reconstruct", "--config", path]) == 0
    assert cli.main(["figures", "fig2", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "manifest" in out
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["figures", "fig9"])


def test_cli_overrides_apply(tmp_path):
    config = mini_config(str(tmp_path))
    path = str(tmp_path / "config.json")
    save_config(path, config)
    args = cli.build_parser().parse_args(
        ["quench", "--config", path, "--seed", "9", "--workers", "3",
         "--out", "elsewhere"]
    )
    resolved = cli._resolve_config(args)
    assert resolved.master_seed == 9
    assert resolved.workers == 3
    assert resolved.out_dir == "elsewhere"
