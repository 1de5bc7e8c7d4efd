"""Shared JSON/CSV plumbing: complex arrays, atomic writes, manifests.

Complex numbers are stored as two-element [re, im] lists; arrays nest
row-major, innermost axis last.  All writers go through an atomic
temp-then-rename so interrupted runs never leave half files, and all
documents carry a header naming the sign convention so files are
self-describing.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import numpy as np

CONVENTION = "descending-JW"


def complex_to_nested(a: np.ndarray):
    """Nested lists of [re, im] pairs, row-major."""
    a = np.asarray(a, dtype=np.complex128)
    stacked = np.stack([a.real, a.imag], axis=-1)
    return stacked.tolist()


def nested_to_complex(data, shape=None) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.shape[-1] != 2:
        raise ValueError("complex payload must end in [re, im] pairs")
    out = arr[..., 0] + 1j * arr[..., 1]
    if shape is not None and out.shape != tuple(shape):
        raise ValueError(f"payload shape {out.shape} != declared {tuple(shape)}")
    return out


def make_header(kind: str, n_modes: int, tolerances: dict | None = None,
                provenance: dict | None = None) -> dict:
    header = {
        "format": f"fermiscope-{kind}",
        "version": 1,
        "n_modes": int(n_modes),
        "convention": CONVENTION,
        "tolerances": tolerances or {},
    }
    if provenance:
        header["provenance"] = provenance
    return header


def check_header(header: dict, kind: str):
    fmt = header.get("format")
    if fmt != f"fermiscope-{kind}":
        raise ValueError(f"unexpected document format {fmt!r}")
    conv = header.get("convention")
    if conv != CONVENTION:
        raise ValueError(f"unsupported sign convention {conv!r}")


def atomic_write_text(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.umask(umask := os.umask(0o022))  # mkstemp made it 0600: use open()'s mode
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_json(path: str, document: dict):
    """Compact sorted JSON; without ``indent`` the C encoder does the work."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    atomic_write_text(path, text + "\n")


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def to_json_line(document: dict) -> str:
    """Single-line JSON for append-style record files."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def from_json_line(line: str) -> dict:
    return json.loads(line)


def sha256_of_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path: str, entries: dict, config_summary: dict | None = None):
    """Manifest of output files with content hashes, for byte-level rerun checks."""
    doc = {
        "format": "fermiscope-manifest",
        "version": 1,
        "files": {
            name: sha256_of_file(p) for name, p in sorted(entries.items())
        },
    }
    if config_summary is not None:
        doc["config"] = config_summary
    dump_json(path, doc)
