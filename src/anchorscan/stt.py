"""Default-plus-run state transition tables and bounded thread runs.

A dense DFA row stores 256 successor ids, and nearly all of them are one
id: the dead state in a literal's row, the next link in a counted
any-byte run's. The stored form keeps, per state, that default successor
(the row's most frequent one, the smallest id on a tie) and the bytes
whose successor differs from it as byte-range runs: a maximal stretch of
consecutive bytes that all go to one successor other than the default,
stored as its first byte, its last byte and that successor. A class or
counted gap sends whole byte ranges to one next link, so a row's
exceptions are far fewer runs than bytes. Accept labels are stored as
sorted `(state, label)` pairs. This is what databases hold on disk and
what `compressed_bytes` measures.

Scanning steps through dense rows instead: one flat array indexed by
`(state << 8) | byte`, derived from the stored arrays on first use and
never serialized. The rows cost `n_states * 256 * succ_width` bytes, no
more than the dense `(S, 256)` uint32 table compile already held.

A reverse thread starts in `start` at a filter hit and reads the hit's
two bytes first. `start_pairs`, also derived on first use and never
serialized, maps each such pair to the state those two steps reach, so
such a thread makes one lookup in place of two; it is -1 wherever either
step accepts, or the first one dies, and there the thread steps as any
other. A thread returns its accepting visits as `(state, far end)` pairs;
the caller reads the labels off `accepts`.
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


@dataclass
class CompressedStt:
    n_states: int
    start: int
    defaults: np.ndarray    # (S,) default successor per state, uint16 or uint32
    run_counts: np.ndarray  # (S,) uint8 runs per state; a row has at most 255 exception bytes
    run_first: np.ndarray   # (R,) uint8 first byte of each run, state-then-byte order
    run_last: np.ndarray    # (R,) uint8 last byte of each run
    run_succ: np.ndarray    # (R,) successor of every byte in the run, the defaults' dtype
    accepts: tuple[frozenset[int], ...]
    entries: dict[int, int] = field(default_factory=dict)

    @cached_property
    def rows(self) -> memoryview:
        """Flat dense successor rows: `rows[(state << 8) | byte]`.

        Built from the defaults and the runs on first use, so compiling
        never holds them.
        """
        return memoryview(self.dense_rows(np.arange(self.n_states)).ravel())

    @cached_property
    def start_pairs(self) -> memoryview:
        """int32 per little-endian pair `data[pos - 1] | data[pos] << 8`: the
        state after a run from `start` reads `data[pos]` and then
        `data[pos - 1]`, or -1 where `start` accepts, or the first step dies
        or accepts, so that a run taking it can have recorded nothing
        before it. The second step may die (`DEAD`) or accept.

        256 KB, built from the dense rows of `start` and of its successors
        alone on first use, and never serialized.
        """
        pairs = np.full((256, 256), -1, dtype=np.int32)  # [byte at pos, byte before it]
        accepting = np.array([bool(labels) for labels in self.accepts])
        if not accepting[self.start]:
            first = self.dense_rows(np.array([self.start]))[0]
            on = (first != DEAD) & ~accepting[first]
            seen, back = np.unique(first[on], return_inverse=True)
            pairs[on] = self.dense_rows(seen)[back]
        return memoryview(pairs.ravel())

    def dense_rows(self, states: np.ndarray) -> np.ndarray:
        """The dense rows of `states` alone, shape `(len(states), 256)`:
        each row starts as its default and every run overwrites its byte
        range with its successor."""
        states = np.asarray(states, dtype=np.intp)
        counts = self.run_counts[states].astype(np.intp)
        # the runs of each state, state-then-byte order, and the row each lands in
        first_run = np.cumsum(self.run_counts, dtype=np.intp)[states] - counts
        runs = np.arange(int(counts.sum())) + np.repeat(first_run - (np.cumsum(counts) - counts), counts)
        row = np.repeat(np.arange(len(states), dtype=np.intp), counts)
        lengths = self.run_last[runs].astype(np.intp) - self.run_first[runs] + 1
        starts = (row << 8) + self.run_first[runs]
        # run i covers starts[i] .. starts[i] + lengths[i] - 1; laid end to
        # end from 0, its bytes are shifted by starts[i] minus their offset
        offsets = np.cumsum(lengths) - lengths
        at = np.arange(int(lengths.sum())) + np.repeat(starts - offsets, lengths)
        dense = np.repeat(self.defaults[states], 256)
        dense[at] = np.repeat(self.run_succ[runs], lengths)
        return dense.reshape(len(states), 256)

    @property
    def succ_width(self) -> int:
        return self.defaults.dtype.itemsize

    @property
    def compressed_bytes(self) -> int:
        return (
            self.defaults.nbytes
            + self.run_counts.nbytes
            + self.run_first.nbytes
            + self.run_last.nbytes
            + self.run_succ.nbytes
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
            and self.defaults.dtype == other.defaults.dtype
            and np.array_equal(self.defaults, other.defaults)
            and np.array_equal(self.run_counts, other.run_counts)
            and np.array_equal(self.run_first, other.run_first)
            and np.array_equal(self.run_last, other.run_last)
            and np.array_equal(self.run_succ, other.run_succ)
        )

    # --- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        width = f"<u{self.succ_width}"
        pairs = [(s, label) for s, labels in enumerate(self.accepts) for label in sorted(labels)]
        keys = sorted(self.entries)
        return b"".join(
            [
                struct.pack("<IIII", self.n_states, self.start, len(keys), len(pairs)),
                np.array([(k, self.entries[k]) for k in keys], dtype="<u4").tobytes(),
                np.array([s for s, _ in pairs], dtype=width).tobytes(),
                np.array([label for _, label in pairs], dtype="<u4").tobytes(),
                self.defaults.astype(width).tobytes(),
                self.run_counts.tobytes(),
                self.run_first.tobytes(),
                self.run_last.tobytes(),
                self.run_succ.astype(width).tobytes(),
            ]
        )

    @staticmethod
    def from_bytes(blob: bytes) -> "CompressedStt":
        """The table that fills `blob` (`read`)."""
        r = BlobReader(blob, "transition table")
        stt = CompressedStt.read(r)
        r.finish()
        return stt

    @staticmethod
    def read(r: BlobReader) -> "CompressedStt":
        """Read one table, refusing with ValueError any that `compress`
        could not have written in this form, so every table it accepts
        re-serializes byte for byte. The successor width follows from the
        state count and the run count from the per-state run counts."""
        n_states, start, n_entries, n_pairs = r.unpack("<IIII")
        dtype = _id_dtype(n_states)
        ids = np.dtype(dtype).newbyteorder("<")
        entries = r.array("<u4", 2 * n_entries).reshape(n_entries, 2).astype(np.int64)
        pair_states = r.array(ids, n_pairs).astype(np.int64)
        pair_labels = r.array("<u4", n_pairs).astype(np.int64)
        defaults = r.array(ids, n_states)
        run_counts = r.array("u1", n_states)
        n_runs = int(run_counts.sum(dtype=np.int64))
        run_first = r.array("u1", n_runs)
        run_last = r.array("u1", n_runs)
        run_succ = r.array(ids, n_runs)
        if max(start, int(entries[:, 1].max(initial=0)), int(pair_states.max(initial=0)),
               int(defaults.max(initial=0)), int(run_succ.max(initial=0))) >= n_states:
            raise ValueError("transition table names a state it does not have")
        if np.any(entries[1:, 0] <= entries[:-1, 0]):
            raise ValueError("transition table entries are not strictly increasing")
        step = np.diff(pair_states)
        if np.any((step < 0) | ((step == 0) & (np.diff(pair_labels) <= 0))):
            raise ValueError("transition table accept pairs are not strictly increasing")
        run_state = np.repeat(np.arange(n_states), run_counts)
        if np.any(run_first > run_last):
            raise ValueError("transition table run ends before it starts")
        if np.any(run_succ == defaults[run_state]):
            raise ValueError("transition table run repeats its state's default")
        same_row = run_state[1:] == run_state[:-1]
        gap = run_first[1:].astype(np.int64) - run_last[:-1]
        if np.any(same_row & (gap <= 0)):
            raise ValueError("transition table runs overlap or are out of order")
        if np.any(same_row & (gap == 1) & (run_succ[1:] == run_succ[:-1])):
            raise ValueError("transition table splits one run in two")
        # each default is its row's mode, the smallest id on a tie: no
        # successor's runs cover more bytes than the default keeps, nor as
        # many with a smaller id
        if n_runs:
            lengths = run_last.astype(np.int64) - run_first + 1
            kept = 256 - np.bincount(run_state, weights=lengths, minlength=n_states).astype(np.int64)
            order = np.lexsort((run_succ, run_state))
            state, succ = run_state[order], run_succ[order].astype(np.int64)
            group = np.flatnonzero((np.diff(state, prepend=-1) != 0) | (np.diff(succ, prepend=-1) != 0))
            covered = np.add.reduceat(lengths[order], group)
            state, succ = state[group], succ[group]
            if np.any((covered > kept[state]) | ((covered == kept[state]) & (succ < defaults[state]))):
                raise ValueError("transition table default is not its row's most frequent successor")
        labels: dict[int, list[int]] = {}
        for s, label in zip(pair_states.tolist(), pair_labels.tolist()):
            labels.setdefault(s, []).append(label)
        return CompressedStt(
            n_states=n_states,
            start=start,
            defaults=defaults.astype(dtype),
            run_counts=run_counts.copy(),
            run_first=run_first.copy(),
            run_last=run_last.copy(),
            run_succ=run_succ.astype(dtype),
            accepts=tuple(frozenset(labels.get(s, ())) for s in range(n_states)),
            entries=dict(entries.tolist()),
        )


def compress(dfa: Dfa) -> CompressedStt:
    """Encode a dense DFA as per-state defaults plus byte-range runs;
    lookups stay exactly equivalent."""
    n = dfa.table.shape[0]
    table = dfa.table.astype(_id_dtype(n))
    defaults = _modes(np.sort(table, axis=1))
    exceptions = (table != defaults[:, None]).ravel()
    flat = table.ravel()
    # edges[p]: byte p - 1 and byte p lie in different rows or go to
    # different successors. A run starts at an exception byte with an edge
    # before it and ends at one with an edge after it; a neighbour across
    # no edge has the same successor, so it is an exception in the same run
    edges = np.ones(flat.size + 1, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=edges[1:-1])
    edges[::256] = True
    firsts = np.flatnonzero(exceptions & edges[:-1])
    lasts = np.flatnonzero(exceptions & edges[1:])
    return CompressedStt(
        n_states=n,
        start=dfa.start,
        defaults=defaults,
        run_counts=np.bincount(firsts >> 8, minlength=n).astype(np.uint8),
        run_first=(firsts & 0xFF).astype(np.uint8),
        run_last=(lasts & 0xFF).astype(np.uint8),
        run_succ=flat[firsts],
        accepts=dfa.accepts,
        entries=dict(dfa.entries),
    )


def _id_dtype(n_states: int) -> type:
    """The successor dtype of a table of `n_states` states: u16 while every
    id fits, else u32."""
    return np.uint16 if n_states <= 0x10000 else np.uint32


def _modes(ordered: np.ndarray) -> np.ndarray:
    """The most frequent value of each sorted 256-wide row, the smallest on
    a tie: the first of the row's longest stretches of one value."""
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
) -> tuple[list[tuple[int, int]], int]:
    """One bounded automaton run over the packet.

    Steps byte-by-byte from start_offset (reverse decrements), recording
    (accepting state, far end of the span) for every accepting state
    visited, the span being the bytes consumed so far and its near end
    start_offset; its labels are `stt.accepts[state]`. Stops on the dead
    state or the packet edge; the step into dead is included in the
    returned depth. A reverse run from `start` at an offset past the first
    byte takes its first two steps in one `start_pairs` lookup when it can.
    """
    if direction == REVERSE:
        forward = False
    elif direction == FORWARD:
        forward = True
    else:
        raise ValueError(f"direction must be {FORWARD!r} or {REVERSE!r}")
    accepts = stt.accepts
    n = len(data)
    pos = start_offset
    s = -1
    if state is None and not forward and 0 < pos < n:
        s = stt.start_pairs[data[pos - 1] | data[pos] << 8]
        if s == DEAD:
            return [], 2
    if s >= 0:  # neither `start` nor the first step accepted, and the run is alive
        pos -= 2
        hits = [(s, pos + 1)] if accepts[s] else []
    else:
        s = stt.start if state is None else state
        # accepting before any byte: an empty span just off the start edge
        hits = [(s, start_offset - 1 if forward else start_offset + 1)] if accepts[s] else []
        if not 0 <= start_offset < n:
            return hits, 0
    # one loop per direction over plain indices: threads average about five
    # steps, so setting up an iterator (a range, a memoryview slice) costs
    # more than it saves per step
    rows = stt.rows
    if forward:
        while pos < n:
            s = rows[(s << 8) | data[pos]]
            if s == DEAD:
                return hits, pos - start_offset + 1
            if accepts[s]:
                hits.append((s, pos))
            pos += 1
        return hits, n - start_offset
    while pos >= 0:
        s = rows[(s << 8) | data[pos]]
        if s == DEAD:
            return hits, start_offset - pos + 1
        if accepts[s]:
            hits.append((s, pos))
        pos -= 1
    return hits, start_offset + 1
