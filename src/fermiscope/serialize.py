"""Shared JSON/CSV/.npy plumbing: complex arrays, atomic writes, manifests.

JSON stores complex numbers as [re, im] pairs, nested row-major; bulk
arrays go to version 1.0 .npy files, every bit and no pickles.  All
writers go through one atomic temp-then-rename so interrupted runs never
leave half files, and all documents carry a header naming the sign
convention so files are self-describing.
"""

from __future__ import annotations

import hashlib
import io
import json
import os

import numpy as np

CONVENTION = "descending-JW"
VERSION = 1


def complex_to_nested(a: np.ndarray):
    """Nested lists of [re, im] pairs, row-major."""
    a = np.asarray(a, dtype=np.complex128)
    stacked = np.stack([a.real, a.imag], axis=-1)
    return stacked.tolist()


def make_header(kind: str, n_modes: int, tolerances: dict | None = None,
                provenance: dict | None = None) -> dict:
    header = {
        "format": f"fermiscope-{kind}",
        "version": VERSION,
        "n_modes": int(n_modes),
        "convention": CONVENTION,
        "tolerances": tolerances or {},
    }
    if provenance:
        header["provenance"] = provenance
    return header


def check_header(header: dict, kind: str, path: str):
    """Refuse a header of another format, version or sign convention,
    naming the file ``path`` it was read from."""
    fmt = header.get("format")
    if fmt != f"fermiscope-{kind}":
        raise ValueError(f"{path}: unexpected document format {fmt!r}")
    version = header.get("version")
    if version != VERSION:
        raise ValueError(f"{path}: unsupported {kind} version {version!r}")
    conv = header.get("convention")
    if conv != CONVENTION:
        raise ValueError(f"{path}: unsupported sign convention {conv!r}")


def atomic_write_text(path: str, data: str | bytes):
    """Write ``data`` (a str as UTF-8) to ``path`` through a temp file and a rename.

    The temp file is made beside ``path`` as ``open()`` makes files: 0o666 less the umask.
    """
    payload = data.encode() if isinstance(data, str) else data
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f".tmp-{os.getpid()}-{os.path.basename(path)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def dump_json(path: str, document: dict):
    """Compact sorted JSON; without ``indent`` the C encoder does the work."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    atomic_write_text(path, text + "\n")


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def dump_npy(path: str, array: np.ndarray):
    """``array`` as a version 1.0 .npy file, refusing object payloads."""
    buf = io.BytesIO()
    np.lib.format.write_array(buf, array, version=(1, 0), allow_pickle=False)
    atomic_write_text(path, buf.getvalue())


def load_npy(path: str, dtype: np.dtype, count: int) -> np.ndarray:
    """The ``count`` ``dtype`` records of a .npy file, read whole in one call.

    Any other version, dtype (object ones included, so no pickle is ever
    read), shape, memory order or file size raises ValueError naming the file.
    """
    with open(path, "rb") as fh:
        try:
            if np.lib.format.read_magic(fh) != (1, 0):
                raise ValueError("not a version 1.0 .npy file")
            shape, fortran, got = np.lib.format.read_array_header_1_0(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        if got != dtype or shape != (count,) or fortran:
            raise ValueError(f"{path}: holds {shape} of {got}, expected "
                             f"({count},) of {dtype}")
        size = os.fstat(fh.fileno()).st_size
        if size != fh.tell() + count * dtype.itemsize:
            raise ValueError(f"{path}: {size} bytes do not hold {count} records")
        return np.fromfile(fh, dtype, count=count)


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
