"""Span tracing for one fermiscope CLI process, installed from outside.

The shim wraps the public functions of each layer module (and the
``FockBasis`` constructor) so that every call records a span: name,
start, end and the span that was open when it began.  Names are patched
in the defining module and in every fermiscope module that imported them
by name, because ``harness`` and ``entanglement`` use ``from x import f``.
Spans stay in memory and are written once, when the process ends.

Run as a script it is a drop-in for ``python -m fermiscope.cli``:

    python benchmarks/trace_shim.py --spans OUT.json -- quench --config C
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("fock", "model", "correlations", "reconstruct", "entanglement",
          "measure", "serialize")
PACKAGE = "fermiscope"
ROOT = "harness"

# A span is [name, start, end, parent_index, counts]; parent -1 is the root.
NAME, START, END, PARENT, COUNTS = range(5)


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent, None])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int, counts: dict | None = None):
        # exceptions unwind through every wrapper, so the top is always ours
        self._open.pop()
        span = self.spans[index]
        span[END] = self.clock()
        span[COUNTS] = counts


def self_times(spans) -> dict[str, dict]:
    """Per-name call count, self seconds and summed counters.

    A span's self time is its duration minus the durations of its direct
    children; calls on one thread nest, so children never overlap.
    """
    child_total = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_total[span[PARENT]] += span[END] - span[START]
    table: dict[str, dict] = {}
    for i, span in enumerate(spans):
        row = table.setdefault(span[NAME], {"calls": 0, "s": 0.0})
        row["calls"] += 1
        row["s"] += span[END] - span[START] - child_total[i]
        for key, value in (span[COUNTS] or {}).items():
            row[key] = row.get(key, 0) + value
    return table


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# Extra counters recorded at the same boundary as the span.
def _count_shots(args, kwargs, result):
    return {"shots": sum(int(rec.shots) for rec in result)}


def _count_path_bytes(args, kwargs, result):
    return {"bytes": _file_bytes(args[0] if args else kwargs.get("path"))}


COUNTERS = {
    "measure.run_plan": _count_shots,
    "serialize.dump_json": _count_path_bytes,
    "serialize.load_json": _count_path_bytes,
}


def _wrap(tracer: Tracer, name: str, fn):
    counter = COUNTERS.get(name)

    def traced(*args, **kwargs):
        index = tracer.begin(name)
        counts = None
        try:
            result = fn(*args, **kwargs)
            if counter is not None:
                counts = counter(args, kwargs, result)
            return result
        finally:
            tracer.end(index, counts)

    return functools.wraps(fn)(traced)


def layer_targets(modules) -> list[tuple[str, object, str, object]]:
    """(span name, owner, attribute, original) for every traced callable.

    Owners are the defining module, or the class for ``FockBasis``.
    """
    targets = []
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                targets.append((f"{short}.{attr}", mod, attr, obj))
    cls = modules["fock"].FockBasis
    targets.append(("fock.FockBasis", cls, "__init__", cls.__init__))
    return targets


class Shim:
    """Patches layer callables everywhere they are bound; undo restores."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.patched: list[tuple[object, str, object]] = []

    def install(self):
        modules = {short: importlib.import_module(f"{PACKAGE}.{short}")
                   for short in LAYERS}
        # import every module of the package so by-name imports are bound
        importlib.import_module(f"{PACKAGE}.cli")
        users = [m for n, m in sorted(sys.modules.items())
                 if m is not None and n.startswith(PACKAGE)]
        for name, owner, attr, original in layer_targets(modules):
            wrapper = _wrap(self.tracer, name, original)
            self._patch(owner, attr, original, wrapper)
            if inspect.isclass(owner):
                continue
            for mod in users:
                if mod is not owner and vars(mod).get(attr) is original:
                    self._patch(mod, attr, original, wrapper)
        return self

    def _patch(self, owner, attr, original, wrapper):
        self.patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def run_cli(argv: list[str], spans_path: str) -> int:
    """Run ``fermiscope.cli.main(argv)`` traced, then write the spans."""
    tracer = Tracer()
    try:
        with Shim(tracer):
            cli = importlib.import_module(f"{PACKAGE}.cli")
            root = tracer.begin(ROOT)
            try:
                code = cli.main(argv)
            finally:
                tracer.end(root)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans}, fh, separators=(",", ":"))
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: trace_shim.py --spans OUT.json -- <fermiscope args>",
              file=sys.stderr)
        return 2
    return run_cli(argv[3:], argv[1])


if __name__ == "__main__":
    sys.exit(main())
