"""Bounded reads and atomic writes of the wire formats.

Every parser reads through a :class:`Reader`: each read checks its length
against the bytes left before anything is allocated, and a short read
raises :class:`FormatError`. :func:`inflate` undoes a zlib pass with a cap
on its output. Writers share their sections' ``struct.Struct`` layouts with
the readers; the u64 fields and the u64-triple table live here. The CLI's
outputs, containers and probability fields are written through
:func:`atomic`, so a failed write leaves neither a partial file nor a temp.
"""

from __future__ import annotations

import contextlib
import os
import struct
import sys
import zlib

import numpy as np

from .errors import FormatError

U32 = struct.Struct("<I")
U64 = struct.Struct("<Q")


def triples(rows) -> bytes:
    """The u64-triple table of ``rows``, each an (x, y, z) triple."""
    return np.array(rows, dtype="<u8").reshape(-1, 3).tobytes()


class Reader:
    """A cursor over ``buf`` from ``offset``."""

    def __init__(self, buf, offset: int = 0):
        self.buf, self.offset = buf, offset

    def _skip(self, n: int) -> int:
        at = self.offset
        if n > len(self.buf) - at:
            raise FormatError(f"truncated: {n} bytes wanted at byte {at}, {len(self.buf) - at} left")
        self.offset = at + n
        return at

    def take(self, layout: struct.Struct) -> tuple:
        return layout.unpack_from(self.buf, self._skip(layout.size))

    def array(self, dtype, count: int) -> np.ndarray:
        dtype = np.dtype(dtype)
        return np.frombuffer(self.buf, dtype=dtype, count=count, offset=self._skip(dtype.itemsize * count))

    def bytes(self, n: int) -> bytes:
        at = self._skip(n)
        return bytes(self.buf[at : at + n])

    def triples(self, n: int) -> list:
        return [tuple(t) for t in self.array("<u8", 3 * n).reshape(-1, 3).tolist()]


def inflate(data: bytes, limit: int) -> bytes:
    """Undo a zlib pass whose output is at most ``limit`` bytes; a stream
    that inflates past it, stops short of its end or carries bytes after
    it is a FormatError."""
    d = zlib.decompressobj()
    try:
        # zlib takes a C-sized cap; a corrupt count can ask for more
        out = d.decompress(data, min(limit, sys.maxsize - 1) + 1)
    except zlib.error as exc:
        raise FormatError(f"zlib pass failed to undo: {exc}") from exc
    if len(out) > limit:
        raise FormatError(f"zlib stream inflates past its {limit}-byte bound")
    if not d.eof or d.unused_data:
        raise FormatError("zlib stream does not end with its data")
    return out


def atomic(path, write) -> None:
    """Run ``write`` on a temp file next to ``path``, then rename it over
    ``path``. The temp file is removed if either step fails."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def atomic_write(path, data: bytes) -> None:
    def write(tmp):
        with open(tmp, "wb") as fh:
            fh.write(data)

    atomic(path, write)
