"""Bitmap-compressed state transition tables and bounded thread runs.

A dense DFA row stores 256 successor ids, nearly all of them the dead
state. The compressed form keeps one 256-bit occupancy bitmap per state,
per-word rank prefixes, and a packed array of the non-dead successors;
lookup is bitmap test + popcount rank. Anything absent resolves to dead.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .automata import DEAD, Dfa
from .blob import BlobReader

FORWARD = "forward"
REVERSE = "reverse"

_MAGIC = b"ASTT"
_VERSION = 1


@dataclass
class CompressedStt:
    n_states: int
    start: int
    bitmap: np.ndarray      # (S, 4) uint64, little bit order within words
    prefix: np.ndarray      # (S, 4) uint16, popcount of preceding words
    offsets: np.ndarray     # (S,) uint32 into successors
    successors: np.ndarray  # (nnz,) uint16 or uint32
    accepts: tuple[frozenset[int], ...]
    entries: dict[int, int] = field(default_factory=dict)

    def lookup(self, state: int, byte: int) -> int:
        word = int(self.bitmap[state, byte >> 6])
        bit = byte & 63
        if not (word >> bit) & 1:
            return DEAD
        rank = int(self.prefix[state, byte >> 6]) + (word & ((1 << bit) - 1)).bit_count()
        return int(self.successors[int(self.offsets[state]) + rank])

    def lookup_many(self, states: np.ndarray, bytes_: np.ndarray) -> np.ndarray:
        """Vectorized lookup over parallel (state, byte) arrays."""
        words = self.bitmap[states, bytes_ >> 6]
        bit = (bytes_ & 63).astype(np.uint64)
        present = (words >> bit) & np.uint64(1)
        below = words & ((np.uint64(1) << bit) - np.uint64(1))
        rank = self.prefix[states, bytes_ >> 6].astype(np.int64) + np.bitwise_count(below)
        idx = self.offsets[states].astype(np.int64) + rank
        live = present.astype(bool)
        out = np.full(len(idx), DEAD, dtype=np.int64)
        if live.any():
            out[live] = self.successors[idx[live]]
        return out

    @property
    def succ_width(self) -> int:
        return self.successors.dtype.itemsize

    @property
    def compressed_bytes(self) -> int:
        return (
            self.bitmap.nbytes + self.prefix.nbytes + self.offsets.nbytes + self.successors.nbytes
        )

    @property
    def compression_ratio(self) -> float:
        dense = self.n_states * 256 * self.succ_width
        return self.compressed_bytes / dense

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CompressedStt)
            and self.n_states == other.n_states
            and self.start == other.start
            and self.entries == other.entries
            and self.accepts == other.accepts
            and self.successors.dtype == other.successors.dtype
            and np.array_equal(self.bitmap, other.bitmap)
            and np.array_equal(self.prefix, other.prefix)
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.successors, other.successors)
        )

    # --- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        out = [
            _MAGIC,
            struct.pack(
                "<HBIIQI",
                _VERSION,
                self.succ_width,
                self.n_states,
                self.start,
                len(self.successors),
                len(self.entries),
            ),
        ]
        for key in sorted(self.entries):
            out.append(struct.pack("<II", key, self.entries[key]))
        for ids in self.accepts:
            out.append(struct.pack("<H", len(ids)))
            out.extend(struct.pack("<I", i) for i in sorted(ids))
        out.append(self.bitmap.astype("<u8").tobytes())
        out.append(self.prefix.astype("<u2").tobytes())
        out.append(self.offsets.astype("<u4").tobytes())
        out.append(self.successors.astype(f"<u{self.succ_width}").tobytes())
        return b"".join(out)

    @staticmethod
    def from_bytes(blob: bytes) -> "CompressedStt":
        r = BlobReader(blob, "transition table")
        if r.take(4) != _MAGIC:
            raise ValueError("not a transition table blob")
        version, width, n_states, start, nnz, n_entries = r.unpack("<HBIIQI")
        if version != _VERSION:
            raise ValueError(f"unsupported transition table version {version}")
        if width not in (2, 4):
            raise ValueError(f"unsupported successor width {width}")
        entries = {}
        for _ in range(n_entries):
            key, state = r.unpack("<II")
            entries[key] = state
        accepts = []
        for _ in range(n_states):
            (count,) = r.unpack("<H")
            accepts.append(frozenset(r.unpack(f"<{count}I")))
        bitmap = r.array("<u8", n_states * 4).reshape(n_states, 4)
        prefix = r.array("<u2", n_states * 4).reshape(n_states, 4)
        offsets = r.array("<u4", n_states)
        successors = r.array(f"<u{width}", nnz)
        r.finish()
        return CompressedStt(
            n_states=n_states,
            start=start,
            bitmap=bitmap.astype(np.uint64),
            prefix=prefix.astype(np.uint16),
            offsets=offsets.astype(np.uint32),
            successors=successors.astype(np.uint16 if width == 2 else np.uint32),
            accepts=tuple(accepts),
            entries=entries,
        )


def compress(dfa: Dfa) -> CompressedStt:
    """Bitmap-encode a dense DFA; lookups stay exactly equivalent."""
    table = dfa.table
    n = table.shape[0]
    nz = table != DEAD
    packed = np.packbits(nz, axis=1, bitorder="little")  # (S, 32) uint8
    bitmap = packed.view("<u8").astype(np.uint64).reshape(n, 4)
    counts = np.bitwise_count(bitmap)
    prefix = np.zeros((n, 4), dtype=np.uint16)
    np.cumsum(counts[:, :3], axis=1, out=prefix[:, 1:], dtype=np.uint16)
    nnz_per_state = counts.sum(axis=1)
    offsets = np.zeros(n, dtype=np.uint32)
    np.cumsum(nnz_per_state[:-1], out=offsets[1:], dtype=np.uint32)
    dtype = np.uint16 if n <= 0x10000 else np.uint32
    successors = table[nz].astype(dtype)
    return CompressedStt(
        n_states=n,
        start=dfa.start,
        bitmap=bitmap,
        prefix=prefix,
        offsets=offsets,
        successors=successors,
        accepts=dfa.accepts,
        entries=dict(dfa.entries),
    )


def run_thread(
    stt: CompressedStt,
    data: bytes,
    start_offset: int,
    direction: str,
    state: int | None = None,
) -> tuple[list[tuple[int, int, int]], int]:
    """One bounded automaton run over the packet.

    Steps byte-by-byte from start_offset (reverse decrements), recording
    (label, span start, span end) for every accepting state visited, the
    span being the bytes consumed so far. Stops on the dead state or the
    packet edge; the step into dead is included in the returned depth.
    """
    if direction == FORWARD:
        step = 1
    elif direction == REVERSE:
        step = -1
    else:
        raise ValueError(f"direction must be {FORWARD!r} or {REVERSE!r}")
    s = stt.start if state is None else state
    records: list[tuple[int, int, int]] = []
    for label in stt.accepts[s]:
        # accepting before any byte: an empty span just off the start edge
        records.append((label, start_offset, start_offset - 1) if step > 0 else (label, start_offset + 1, start_offset))
    depth = 0
    pos = start_offset
    n = len(data)
    lookup = stt.lookup
    accepts = stt.accepts
    while 0 <= pos < n:
        s = lookup(s, data[pos])
        depth += 1
        if s == DEAD:
            break
        for label in accepts[s]:
            if step > 0:
                records.append((label, start_offset, pos))
            else:
                records.append((label, pos, start_offset))
        pos += step
    return records, depth
