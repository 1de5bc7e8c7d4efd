import csv
import json
import os
import shutil
from collections import Counter

import numpy as np
import pytest

from fermiscope import cli, harness, serialize
from fermiscope.config import (
    ConfigWarning,
    RunConfig,
    default_config,
    load_config,
    save_config,
)
from fermiscope.fock import CapacityError, DomainError
from fermiscope.model import HubbardParams
from fermiscope.serialize import load_json, sha256_of_file


def mini_config(out_dir: str) -> RunConfig:
    return RunConfig(
        model=HubbardParams(sites=4),
        master_seed=7701,
        subsystem_sites=2,
        times=(1.0, 3.0),
        u_values=(0.05,),
        ensemble_size=2,
        shots_per_basis=300,
        measure_order=1,
        workers=0,
        out_dir=out_dir,
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
    doc = json.load(open(path))
    doc["shots"] = 5
    json.dump(doc, open(path, "w"))
    with pytest.raises(DomainError):
        load_config(path)


def test_config_guards(tmp_path):
    with pytest.raises(DomainError):
        mini_config(str(tmp_path)).override(times=(2.0, 1.0))
    with pytest.raises(DomainError):
        mini_config(str(tmp_path)).override(u_values=(0.05, 0.05))
    with pytest.raises(DomainError):
        mini_config(str(tmp_path)).override(measure_order=3)
    with pytest.raises(DomainError):
        mini_config(str(tmp_path)).override(initial_kind="position")
    for name in ("bootstrap_resamples", "histogram_bins", "shots_per_basis"):
        with pytest.raises(DomainError, match=name):
            mini_config(str(tmp_path)).override(**{name: 0})
    with pytest.warns(ConfigWarning):
        mini_config(str(tmp_path)).override(subsystem_sites=3)


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
    states = sorted(f for f in os.listdir(qdir) if f.endswith("_state.json"))
    assert len(states) == 4  # 1 u x 2 members x 2 times
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


def test_parallel_run_matches_serial(tmp_path):
    # two interactions, so the two workers each run one per-U task
    serial = mini_config(str(tmp_path / "a")).override(u_values=(0.05, 0.2))
    parallel = serial.override(out_dir=str(tmp_path / "b"), workers=2)
    for config in (serial, parallel):
        harness.cmd_quench(config)
        harness.cmd_reconstruct(config)
    for stage, sample in (("quench", "u1_m1_t1_corr.json"),
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
