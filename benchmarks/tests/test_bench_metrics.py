"""Unit tests for the benchmark's metric names, seeds and value checks.

    python3 -m pytest benchmarks/tests -q
"""

import json
import re
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _declared():
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_metric_names_are_well_formed_and_unique():
    names = list(run.end_to_end_units()) + list(run.per_layer_units())
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_benchmark_json_matches_reported_metrics():
    doc = _declared()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
        run.end_to_end_units()
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == \
        run.per_layer_units()
    assert {w["name"] for w in doc["workloads"]} == set(run.WORKLOADS)


def test_every_seed_has_a_reference():
    reference = json.loads(run.REFERENCE_PATH.read_text())
    for workload in run.WORKLOADS:
        for seed in range(2 * run.N_MASTER_SEEDS):
            assert str(run.master_seed_for(seed)) in reference[workload]


def test_values_match_tolerances():
    assert run.values_match({"a": [1.0, 2, None]}, {"a": [1.0 + 1e-10, 2, None]})
    assert not run.values_match([1.0], [1.0 + 1e-3])
    assert not run.values_match([3], [2])
    assert not run.values_match([None], [0.0])
    assert not run.values_match({"a": 1.0}, {"a": 1.0, "b": 2.0})
    assert run.values_match(1.0 + 5e-7, 1.0)
