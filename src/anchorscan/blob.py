"""Bounds-checked sequential reads for the serialized formats.

Every decoder (database, filter bank, transition table, gap) reads its blob
front to back through one BlobReader, so a truncated or overlong blob fails with
ValueError rather than struct.error, IndexError or a short array.
"""
from __future__ import annotations

import struct

import numpy as np


class BlobReader:
    """Reads `buf`, bytes or a memoryview of them, from `pos` on; every
    chunk it returns is bytes."""

    def __init__(self, buf: bytes | memoryview, what: str, pos: int = 0):
        self.buf = buf
        self.what = what
        self.pos = pos

    def take(self, size: int) -> bytes:
        end = self.pos + size
        if end > len(self.buf):
            raise ValueError(
                f"truncated {self.what}: {size} bytes needed at offset {self.pos}, "
                f"{len(self.buf) - self.pos} left"
            )
        chunk = bytes(self.buf[self.pos : end])
        self.pos = end
        return chunk

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype: np.typing.DTypeLike, count: int) -> np.ndarray:
        """`count` items of `dtype`, read-only like np.frombuffer."""
        dt = np.dtype(dtype)
        return np.frombuffer(self.take(dt.itemsize * count), dtype=dt)

    def blob(self) -> bytes:
        """A u64-length-prefixed sub-blob."""
        (size,) = self.unpack("<Q")
        return self.take(size)

    def finish(self) -> None:
        if self.pos != len(self.buf):
            raise ValueError(f"{len(self.buf) - self.pos} trailing bytes after {self.what}")
