"""Deterministic report serialization: JSON, CSV and flat binary snapshots,
and the stored eigenpairs one subcommand hands to the next.

Identical inputs must produce byte-identical files, so floats are rendered
with fixed rules: 17 significant digits in JSON, shortest round-trip (repr)
in CSV.  JSON keys are emitted sorted, and every string, keys included, is
escaped as json.dumps escapes it, with non-ASCII text kept as is.  Snapshots
use a flat little-endian layout: int64 ndim, int64 points_per_axis, float64
half_width, then each field's row-major doubles.  Stored eigenpairs are an
uncompressed `.npz` archive of three arrays: `key`, a string naming what the
pairs were solved for, `eigenvalues` and `eigenfields` (one column per pair).
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from pathlib import Path
from typing import Sequence

import numpy as np

from .grid import Grid, make_grid


def _json_format(value, indent: int) -> str:
    pad = " " * indent
    if value is None:
        return "null"
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if v != v:
            return "null"
        if v in (float("inf"), float("-inf")):
            return '"inf"' if v > 0 else '"-inf"'
        return format(v, ".17g")
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_json_format(v, indent + 2) for v in value]
        inner = ",\n".join(pad + "  " + it for it in items)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = []
        for key in sorted(value, key=str):
            rendered = _json_format(value[key], indent + 2)
            parts.append(f"{pad}  {_json_format(str(key), 0)}: {rendered}")
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(value).__name__} deterministically")


def json_dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, floats at 17 significant digits."""
    return _json_format(obj, 0) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(json_dumps(obj), encoding="utf-8")


def csv_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """CSV with shortest round-trip float formatting."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(csv_cell(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_snapshots(path, grid: Grid, fields: Sequence[np.ndarray]) -> None:
    """Flat binary snapshot file (header: ndim, n, L; then row-major doubles)."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<qqd", grid.ndim, grid.points_per_axis, grid.half_width))
        for u in fields:
            arr = np.ascontiguousarray(grid.check_field(u), dtype="<f8")
            fh.write(arr.tobytes())


def read_snapshots(path) -> tuple[int, int, float, np.ndarray]:
    """Inverse of write_snapshots; returns (ndim, n, L, fields[k, nodes]).
    ValueError for a file shorter than its header, a header that make_grid
    refuses or a payload that is not a whole number of fields."""
    raw = Path(path).read_bytes()
    if len(raw) < 24:
        raise ValueError(f"snapshot file of {len(raw)} bytes is shorter than its 24-byte header")
    ndim, n, half_width = struct.unpack_from("<qqd", raw, 0)
    nodes = make_grid(ndim, half_width, n).num_nodes
    body = np.frombuffer(raw, dtype="<f8", offset=24)
    if body.size % nodes:
        raise ValueError("snapshot payload is not a whole number of fields")
    return int(ndim), int(n), float(half_width), body.reshape(-1, nodes)


def write_eigenpairs(path, key: str, eigenvalues: np.ndarray,
                     eigenfields: np.ndarray) -> None:
    """Store eigenpairs under a key, atomically: the archive is written to a
    temporary file in the same directory, then renamed over path, so a
    reader finds the old file, the new one or none, never a partial one."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, key=np.array(key), eigenvalues=eigenvalues,
                     eigenfields=eigenfields)
        os.replace(tmp, path)
    finally:
        Path(tmp).unlink(missing_ok=True)


def read_eigenpairs(path, key: str) -> tuple[np.ndarray, np.ndarray] | None:
    """The (eigenvalues, eigenfields) that write_eigenpairs stored at path
    under this key; None when the file is missing, cannot be read as such an
    archive, or was stored under another key.  Nothing is unpickled."""
    try:
        archive = np.load(path, allow_pickle=False)
        if not isinstance(archive, np.lib.npyio.NpzFile):  # a bare .npy array
            return None
        with archive:
            stored = archive["key"]
            if stored.shape != () or str(stored) != key:
                return None
            return archive["eigenvalues"], archive["eigenfields"]
    except Exception:  # noqa: BLE001
        # a damaged archive raises any of a dozen types from zipfile, zlib and
        # the .npy reader (BadZipFile, NotImplementedError for a flipped flag
        # bit, ValueError, EOFError, ...); each one means: solve again
        return None
