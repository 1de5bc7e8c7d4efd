"""Unit tests for the span shim: self-time arithmetic and patch/restore.

    python3 -m pytest benchmarks/tests -q
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import trace_shim  # noqa: E402
from trace_shim import Shim, Tracer, self_times  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > a [5, 6]
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 2.0, 3.0, 1, {"bytes": 7}],
        ["a", 5.0, 6.0, 0, None],
    ]
    table = self_times(spans)
    assert table["root"] == {"calls": 1, "s": 6.0}
    assert table["a"] == {"calls": 2, "s": 3.0}
    assert table["b"] == {"calls": 1, "s": 1.0, "bytes": 7}
    assert sum(row["s"] for row in table.values()) == 10.0


def test_tracer_records_parents_and_closes_on_exception():
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 2.0, 3.0, 5.0, 8.0]))
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.end(inner, {"shots": 4})
    wrapped = trace_shim._wrap(tracer, "boom", lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        wrapped()
    tracer.end(outer)
    assert [s[trace_shim.PARENT] for s in tracer.spans] == [-1, 0, 0]
    table = self_times(tracer.spans)
    assert table["outer"]["s"] == 8.0 - 1.0 - 2.0
    assert table["inner"] == {"calls": 1, "s": 1.0, "shots": 4}
    assert table["boom"]["s"] == 2.0


def _bindings():
    """Every name bound in a fermiscope module, plus FockBasis.__init__."""
    import fermiscope.cli  # noqa: F401  (imports every pipeline module)
    from fermiscope.fock import FockBasis

    found = {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name.startswith("fermiscope")
        for attr, value in vars(mod).items()
    }
    found[("FockBasis", "__init__")] = FockBasis.__dict__["__init__"]
    return found


def test_shim_patches_importers_and_restores_every_name():
    from fermiscope import fock, harness, model

    before = _bindings()
    tracer = Tracer()
    with Shim(tracer) as shim:
        patched = {(id(owner), attr) for owner, attr, _ in shim.patched}
        assert harness.partial_trace is fock.partial_trace
        assert harness.partial_trace.__wrapped__ is before[
            ("fermiscope.fock", "partial_trace")]
        assert harness.build_hamiltonian is model.build_hamiltonian
        assert (id(harness), "build_hamiltonian") in patched
        assert (id(fock.FockBasis), "__init__") in patched
        fock.FockBasis(4, 2)
        assert self_times(tracer.spans)["fock.FockBasis"]["calls"] == 1
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert not shim.patched
