"""Binary checkpoint container for a model's named parameters and buffers.

Layout (all little-endian):

    magic  b"SBCP"
    u16    format version (1)
    u32    meta length, then that many bytes of UTF-8 JSON
    u32    entry count
    per entry:
        u16  name length, then UTF-8 name
        u8   dtype code (4 = float32, 8 = float64)
        u8   ndim
        u32  dims[ndim]
        raw  little-endian float payload

Entry names are namespaced: ``param/...`` for trainable parameters and
``buffer/...`` for running statistics.  The file holds exactly what
loading restores, and no optimizer state.  Reading fails closed on a
length field past the end of the file, a repeated entry name or trailing
bytes; loading validates the stored names and shapes against the
constructed model and fails closed on any mismatch.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .data import _bytes_left, _read_exact
from .errors import FormatError, ValidationError

MAGIC = b"SBCP"
VERSION = 1
_DTYPE_CODES = {4: np.dtype("<f4"), 8: np.dtype("<f8")}


def _code_for(dtype) -> int:
    itemsize = np.dtype(dtype).itemsize
    if itemsize not in _DTYPE_CODES:
        raise ValidationError(f"cannot serialize dtype {dtype}")
    return itemsize


def _write_entry(f, name: str, arr: np.ndarray) -> None:
    data = np.ascontiguousarray(arr)
    code = _code_for(data.dtype)
    enc = name.encode("utf-8")
    f.write(struct.pack("<H", len(enc)))
    f.write(enc)
    f.write(struct.pack("<BB", code, data.ndim))
    f.write(struct.pack(f"<{data.ndim}I", *data.shape))
    f.write(data.astype(_DTYPE_CODES[code], copy=False).tobytes())


def _read_entry(f, i: int):
    (name_len,) = struct.unpack("<H", _read_exact(f, 2, f"entry {i} name length"))
    raw = _read_exact(f, name_len, f"entry {i} name")
    try:
        name = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"checkpoint entry name {raw!r} is not UTF-8 ({exc})") from exc
    code, ndim = struct.unpack("<BB", _read_exact(f, 2, f"entry {name!r} dtype"))
    if code not in _DTYPE_CODES:
        raise FormatError(f"unknown dtype code {code} for entry {name!r}")
    shape = struct.unpack(f"<{ndim}I", _read_exact(f, 4 * ndim, f"entry {name!r} shape"))
    dtype = _DTYPE_CODES[code]
    payload = _read_exact(f, math.prod(shape) * dtype.itemsize, f"entry {name!r} payload")
    return name, np.frombuffer(payload, dtype=dtype).reshape(shape).copy()


def _model_state(model) -> dict:
    """{entry name: the model's array} over every parameter and buffer."""
    state = {"param/" + n: p.data for n, p in model.named_parameters()}
    state.update(("buffer/" + n, b) for n, b in model.named_buffers())
    return state


def save_checkpoint(path, model, meta: dict | None = None) -> None:
    """Write the model's state to ``<path>.tmp``, then rename it over ``path``.

    A write that fails deletes the temporary file, so a file already at
    ``path`` stays as it was.
    """
    entries = _model_state(model)
    blob = json.dumps(meta or {}, sort_keys=True).encode("utf-8")
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<H", VERSION))
            f.write(struct.pack("<I", len(blob)))
            f.write(blob)
            f.write(struct.pack("<I", len(entries)))
            for name, arr in entries.items():
                _write_entry(f, name, arr)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_checkpoint(path):
    """Return (meta, {name: array}) without validating against a model."""
    with open(path, "rb") as f:
        if _read_exact(f, 4, "magic") != MAGIC:
            raise FormatError(f"{path}: not a checkpoint file (bad magic)")
        (version,) = struct.unpack("<H", _read_exact(f, 2, "version"))
        if version != VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        (meta_len,) = struct.unpack("<I", _read_exact(f, 4, "meta length"))
        try:
            meta = json.loads(_read_exact(f, meta_len, "meta").decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
            raise FormatError(f"{path}: checkpoint meta is not UTF-8 JSON ({exc})") from exc
        if not isinstance(meta, dict):
            raise FormatError(f"{path}: checkpoint meta is not a JSON object")
        (count,) = struct.unpack("<I", _read_exact(f, 4, "entry count"))
        entries = {}
        for i in range(count):
            name, arr = _read_entry(f, i)
            if name in entries:
                raise FormatError(f"{path}: checkpoint entry {name!r} appears twice")
            entries[name] = arr
        if trailing := _bytes_left(f):
            raise FormatError(f"{path}: {trailing} trailing bytes after the last entry")
    return meta, entries


def restore_checkpoint(model, entries: dict) -> None:
    """Copy the entries that ``read_checkpoint`` returned into the model.

    The entries must be exactly the model's parameters and buffers, each
    with the model's shape.
    """
    state = _model_state(model)
    missing = sorted(set(state) - set(entries))
    unknown = sorted(set(entries) - set(state))
    if missing or unknown:
        raise ValidationError(
            f"checkpoint does not match model: {len(missing)} missing, first {missing[:5]}; "
            f"{len(unknown)} unknown, first {unknown[:5]}")
    for name, target in state.items():
        arr = entries[name]
        if arr.shape != target.shape:
            raise ValidationError(
                f"{name!r}: checkpoint shape {arr.shape} != model shape {target.shape}")
        target[...] = arr  # in place, cast to the model's dtype
