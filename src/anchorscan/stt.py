"""Bitmap-compressed state transition tables and bounded thread runs.

A dense DFA row stores 256 successor ids, nearly all of them the dead
state. The stored form keeps one 256-bit occupancy bitmap per state,
per-word rank prefixes, and a packed array of the non-dead successors; it
is what databases hold on disk and what `compressed_bytes` measures.

Scanning steps through dense rows instead: one flat array indexed by
`(state << 8) | byte`, derived from the compressed arrays on first use and
never serialized. The rows cost `n_states * 256 * succ_width` bytes, no
more than the dense `(S, 256)` uint32 table compile already held.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property

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

    @cached_property
    def rows(self) -> memoryview:
        """Flat dense successor rows: `rows[(state << 8) | byte]`.

        Built from the bitmap and the packed successors on first use, so
        compiling never holds them; the dead state is 0, so absent
        transitions are the zero fill.
        """
        present = np.unpackbits(self.bitmap.astype("<u8").view(np.uint8), bitorder="little")
        dense = np.zeros(self.n_states * 256, dtype=self.successors.dtype)
        dense[present.view(bool)] = self.successors
        return memoryview(dense)

    def lookup(self, state: int, byte: int) -> int:
        return self.rows[(state << 8) | byte]

    def lookup_many(self, states: np.ndarray, bytes_: np.ndarray) -> np.ndarray:
        """Vectorized lookup over parallel (state, byte) arrays."""
        index = (np.asarray(states, dtype=np.int64) << 8) | np.asarray(bytes_, dtype=np.int64)
        return np.asarray(self.rows)[index].astype(np.int64)

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
        want_prefix, want_offsets, want_nnz = _ranks(bitmap.astype(np.uint64))
        if (
            nnz != want_nnz
            or not np.array_equal(prefix, want_prefix)
            or not np.array_equal(offsets, want_offsets)
            or max(start, *entries.values(), int(successors.max(initial=0))) >= n_states
        ):
            raise ValueError("inconsistent transition table")
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


def _ranks(bitmap: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Per-word rank prefixes, per-state successor offsets and the total
    successor count that an occupancy bitmap implies."""
    n = bitmap.shape[0]
    counts = np.bitwise_count(bitmap)
    prefix = np.zeros((n, 4), dtype=np.uint16)
    np.cumsum(counts[:, :3], axis=1, out=prefix[:, 1:], dtype=np.uint16)
    nnz_per_state = counts.sum(axis=1)
    offsets = np.zeros(n, dtype=np.uint32)
    np.cumsum(nnz_per_state[:-1], out=offsets[1:], dtype=np.uint32)
    return prefix, offsets, int(nnz_per_state.sum())


def compress(dfa: Dfa) -> CompressedStt:
    """Bitmap-encode a dense DFA; lookups stay exactly equivalent."""
    table = dfa.table
    n = table.shape[0]
    nz = table != DEAD
    packed = np.packbits(nz, axis=1, bitorder="little")  # (S, 32) uint8
    bitmap = packed.view("<u8").astype(np.uint64).reshape(n, 4)
    prefix, offsets, _ = _ranks(bitmap)
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
        forward = True
    elif direction == REVERSE:
        forward = False
    else:
        raise ValueError(f"direction must be {FORWARD!r} or {REVERSE!r}")
    s = stt.start if state is None else state
    accepts = stt.accepts
    records: list[tuple[int, int, int]] = []
    labels = accepts[s]
    if labels:
        # accepting before any byte: an empty span just off the start edge
        for label in labels:
            records.append((label, start_offset, start_offset - 1) if forward else (label, start_offset + 1, start_offset))
    n = len(data)
    if not 0 <= start_offset < n:
        return records, 0
    # one loop per direction over plain indices: threads average about five
    # steps, so setting up an iterator (a range, a memoryview slice) costs
    # more than it saves per step
    rows = stt.rows
    pos = start_offset
    if forward:
        while pos < n:
            s = rows[(s << 8) | data[pos]]
            if s == DEAD:
                return records, pos - start_offset + 1
            labels = accepts[s]
            if labels:
                for label in labels:
                    records.append((label, start_offset, pos))
            pos += 1
        return records, n - start_offset
    while pos >= 0:
        s = rows[(s << 8) | data[pos]]
        if s == DEAD:
            return records, start_offset - pos + 1
        labels = accepts[s]
        if labels:
            for label in labels:
                records.append((label, pos, start_offset))
        pos -= 1
    return records, start_offset + 1
