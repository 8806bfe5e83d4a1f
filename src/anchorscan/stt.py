"""Default-plus-exception state transition tables and bounded thread runs.

A dense DFA row stores 256 successor ids, and nearly all of them are one
id: the dead state in a literal's row, the next link in a counted
any-byte run's. The stored form keeps, per state, that default successor
(the row's most frequent one, the smallest id on a tie), a 256-bit bitmap
of the bytes whose successor differs from it, and a packed array of those
exception successors in state-then-byte order. It is what databases hold
on disk and what `compressed_bytes` measures.

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
_VERSION = 3


@dataclass
class CompressedStt:
    n_states: int
    start: int
    defaults: np.ndarray    # (S,) default successor per state, successor dtype
    bitmap: np.ndarray      # (S, 4) uint64 exception bits, little bit order within words
    successors: np.ndarray  # (nnz,) uint16 or uint32, one per set bitmap bit
    accepts: tuple[frozenset[int], ...]
    entries: dict[int, int] = field(default_factory=dict)

    @cached_property
    def rows(self) -> memoryview:
        """Flat dense successor rows: `rows[(state << 8) | byte]`.

        Built from the defaults and the exceptions on first use, so
        compiling never holds them: each row starts as its default and the
        bitmap's set bits take the packed successors in order.
        """
        present = np.unpackbits(self.bitmap.astype("<u8").view(np.uint8), bitorder="little")
        dense = np.repeat(self.defaults, 256)
        dense[present.view(bool)] = self.successors
        return memoryview(dense)

    @property
    def succ_width(self) -> int:
        return self.successors.dtype.itemsize

    @property
    def compressed_bytes(self) -> int:
        return self.defaults.nbytes + self.bitmap.nbytes + self.successors.nbytes

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
            and np.array_equal(self.defaults, other.defaults)
            and np.array_equal(self.bitmap, other.bitmap)
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
        out.append(self.defaults.astype(f"<u{self.succ_width}").tobytes())
        out.append(self.bitmap.astype("<u8").tobytes())
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
        defaults = r.array(f"<u{width}", n_states)
        bitmap = r.array("<u8", n_states * 4).reshape(n_states, 4).astype(np.uint64)
        successors = r.array(f"<u{width}", nnz)
        r.finish()
        if (
            nnz != int(np.bitwise_count(bitmap).sum(dtype=np.int64))
            or max(start, *entries.values(), int(defaults.max(initial=0)), int(successors.max(initial=0))) >= n_states
        ):
            raise ValueError("inconsistent transition table")
        dtype = np.uint16 if width == 2 else np.uint32
        return CompressedStt(
            n_states=n_states,
            start=start,
            defaults=defaults.astype(dtype),
            bitmap=bitmap,
            successors=successors.astype(dtype),
            accepts=tuple(accepts),
            entries=entries,
        )


def compress(dfa: Dfa) -> CompressedStt:
    """Encode a dense DFA as per-state defaults plus exceptions; lookups
    stay exactly equivalent."""
    n = dfa.table.shape[0]
    table = dfa.table.astype(np.uint16 if n <= 0x10000 else np.uint32)
    defaults = _modes(np.sort(table, axis=1))
    exceptions = table != defaults[:, None]
    bitmap = np.packbits(exceptions, axis=1, bitorder="little").view("<u8").astype(np.uint64)
    return CompressedStt(
        n_states=n,
        start=dfa.start,
        defaults=defaults,
        bitmap=bitmap,
        successors=table[exceptions],
        accepts=dfa.accepts,
        entries=dict(dfa.entries),
    )


def _modes(ordered: np.ndarray) -> np.ndarray:
    """The most frequent value of each sorted 256-wide row, the smallest on
    a tie: the first of the row's longest runs."""
    starts = np.ones(ordered.shape, dtype=bool)
    starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    at = np.flatnonzero(starts)
    lengths = np.diff(at, append=ordered.size)
    row = at >> 8
    longest = np.maximum.reduceat(lengths, np.searchsorted(row, np.arange(len(ordered))))
    best = at[lengths == longest[row]]
    _, first = np.unique(best >> 8, return_index=True)
    return ordered.ravel()[best[first]]


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
