from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorscan.automata import DEAD, Dfa, build_forward_dfa, build_reverse_dfa, determinize, minimize, thompson
from anchorscan.parser import parse
from anchorscan.stt import FORWARD, REVERSE, CompressedStt, compress, run_thread
from test_parser import _trees


def tree_of(pattern: str):
    return parse(pattern).tree


def lookup(stt: CompressedStt, state: int, byte: int) -> int:
    """One successor, read from the dense `rows` the scan steps through."""
    return stt.rows[(state << 8) | byte]


def lookup_many(stt: CompressedStt, states: np.ndarray, bytes_: np.ndarray) -> np.ndarray:
    """Vectorized `lookup` over parallel (state, byte) arrays."""
    index = (np.asarray(states, dtype=np.int64) << 8) | np.asarray(bytes_, dtype=np.int64)
    return np.asarray(stt.rows)[index].astype(np.int64)


def assert_lookup_equal(stt: CompressedStt, dfa: Dfa):
    """lookup and lookup_many equal the dense table for every (state, byte)."""
    table = dfa.table
    for lo in range(0, dfa.n_states, 4096):
        block = table[lo : lo + 4096]
        states = np.repeat(np.arange(lo, lo + len(block)), 256)
        got = lookup_many(stt, states, np.tile(np.arange(256), len(block)))
        assert np.array_equal(got.reshape(len(block), 256), block)
    for s, row in enumerate(table.tolist()):
        assert [lookup(stt, s, b) for b in range(256)] == row


# --- reference: a run search over the stored arrays alone ------------------


def run_lookup(stt: CompressedStt, state: int, byte: int) -> int:
    """The successor of `(state, byte)` read off the stored arrays without
    `rows`: the state's runs follow the runs of every earlier state, and
    the byte takes the successor of the last run starting at or before it
    if that run reaches it, or else the state's default."""
    lo = int(stt.run_counts[:state].sum())
    firsts = stt.run_first[lo : lo + int(stt.run_counts[state])]
    i = int(np.searchsorted(firsts, byte, side="right")) - 1
    if i >= 0 and byte <= stt.run_last[lo + i]:
        return int(stt.run_succ[lo + i])
    return int(stt.defaults[state])


def runs_of(stt: CompressedStt, state: int) -> list[tuple[int, int, int]]:
    """`(first, last, successor)` for each of a state's runs."""
    lo = int(stt.run_counts[:state].sum())
    at = slice(lo, lo + int(stt.run_counts[state]))
    return list(zip(stt.run_first[at].tolist(), stt.run_last[at].tolist(), stt.run_succ[at].tolist()))


def reference_mode(row: list[int]) -> int:
    """A row's most frequent successor, the smallest id on a tie."""
    counts = Counter(row)
    return min(counts, key=lambda v: (-counts[v], v))


@st.composite
def _defaulted_tables(draw):
    """Dense tables whose rows mostly repeat one successor that need not be
    dead, with class-like stretches of one successor, some touching, and
    up to 200 single exceptions per row, so that some rows have no
    majority and some tie."""
    n = draw(st.integers(1, 12))
    table = np.zeros((n, 256), dtype=np.uint32)
    for s in range(n):
        table[s] = draw(st.integers(0, n - 1))
        stretch = st.tuples(st.integers(0, 255), st.integers(1, 96), st.integers(0, n - 1))
        for first, size, succ in draw(st.lists(stretch, max_size=6)):
            table[s, first : first + size] = succ
        for b in draw(st.lists(st.integers(0, 255), max_size=200, unique=True)):
            table[s, b] = draw(st.integers(0, n - 1))
    return Dfa(table=table, accepts=tuple(frozenset() for _ in range(n)), start=draw(st.integers(0, n - 1)))


def reference_run_thread(stt, data, start_offset, direction, state=None):
    step = 1 if direction == FORWARD else -1
    s = stt.start if state is None else state
    records = []
    for label in stt.accepts[s]:
        records.append((label, start_offset, start_offset - 1) if step > 0 else (label, start_offset + 1, start_offset))
    depth = 0
    pos = start_offset
    while 0 <= pos < len(data):
        s = run_lookup(stt, s, data[pos])
        depth += 1
        if s == DEAD:
            break
        for label in stt.accepts[s]:
            records.append((label, start_offset, pos) if step > 0 else (label, pos, start_offset))
        pos += step
    return records, depth


def run_records(stt, data, start_offset, direction, state=None):
    """`run_thread`'s `(hits, depth)` with every `(state, far end)` hit
    expanded through `stt.accepts` into reference records: one
    `(label, span start, span end)` per label, the span's near end being
    `start_offset`."""
    hits, depth = run_thread(stt, data, start_offset, direction, state)
    if direction == FORWARD:
        return [(label, start_offset, far) for s, far in hits for label in stt.accepts[s]], depth
    return [(label, far, start_offset) for s, far in hits for label in stt.accepts[s]], depth


class TestCompress:
    def test_exhaustive_equality_on_builders(self):
        rev = build_reverse_dfa([(0, tree_of("user=")), (1, tree_of("[0-9]{2}ab"))])
        fwd = build_forward_dfa([(0, tree_of("[a-f0-9]{8}")), (1, tree_of("x(y|z){1,3}"))])
        for dfa in (rev, fwd):
            stt = compress(dfa)
            assert_lookup_equal(stt, dfa)
            assert stt.start == dfa.start
            assert stt.entries == dfa.entries
            assert stt.accepts == dfa.accepts

    def test_dead_only_table(self):
        # a forward table with no back parts has one state and no runs
        dfa = build_forward_dfa([])
        stt = compress(dfa)
        assert stt.run_succ.size == 0
        assert_lookup_equal(stt, dfa)
        assert lookup(stt, 0, 65) == 0

    def test_random_sparse_table(self):
        rng = random.Random(5)
        n = 1000
        table = np.zeros((n, 256), dtype=np.uint32)
        for s in range(1, n):
            for _ in range(rng.randrange(9)):
                table[s, rng.randrange(256)] = rng.randrange(n)
        dfa = Dfa(table=table, accepts=tuple(frozenset() for _ in range(n)))
        stt = compress(dfa)
        for _ in range(10_000):
            s, b = rng.randrange(n), rng.randrange(256)
            assert lookup(stt, s, b) == run_lookup(stt, s, b) == int(table[s, b])
        assert_lookup_equal(stt, dfa)

    def test_scalar_matches_vector(self):
        dfa = build_reverse_dfa([(0, tree_of("abc")), (1, tree_of("[ab]{3}"))])
        stt = compress(dfa)
        rng = random.Random(9)
        for _ in range(500):
            s, b = rng.randrange(dfa.n_states), rng.randrange(256)
            assert lookup(stt, s, b) == int(
                lookup_many(stt, np.array([s]), np.array([b]))[0]
            )

    def test_dead_only_ratio_is_fixed_overhead(self):
        dfa = Dfa(table=np.zeros((1, 256), dtype=np.uint32), accepts=(frozenset(),), start=0)
        stt = compress(dfa)
        # one 2B default and one 1B run count per state, no runs
        assert stt.compressed_bytes == 3
        assert stt.compression_ratio == pytest.approx(3 / 512)

    def test_default_is_the_most_frequent_successor(self):
        table = np.zeros((4, 256), dtype=np.uint32)
        table[1] = 3
        table[1, :10] = 2  # a majority
        table[2, :128] = 3
        table[2, 128:] = 1  # a tie goes to the smaller id
        table[3, :100] = 2
        table[3, 100:200] = 3
        table[3, 200:] = 1  # no majority: 2 and 3 tie at 100
        stt = compress(Dfa(table=table, accepts=(frozenset(),) * 4))
        assert stt.defaults.tolist() == [0, 3, 1, 2]
        assert [runs_of(stt, s) for s in range(4)] == [[], [(0, 9, 2)], [(0, 127, 3)], [(100, 199, 3), (200, 255, 1)]]
        for s in range(4):
            assert [run_lookup(stt, s, b) for b in range(256)] == table[s].tolist()

    @given(_defaulted_tables())
    @settings(max_examples=150, deadline=None)
    def test_defaults_and_round_trip_on_defaulted_tables(self, dfa):
        stt = compress(dfa)
        assert stt.defaults.tolist() == [reference_mode(row) for row in dfa.table.tolist()]
        assert_lookup_equal(stt, dfa)
        for s in range(dfa.n_states):
            assert [run_lookup(stt, s, b) for b in range(256)] == dfa.table[s].tolist()
            runs = runs_of(stt, s)
            # sorted, disjoint and maximal: touching runs go to different
            # successors, and no run goes to the default
            assert all(a[1] < b[0] and (a[1] + 1 < b[0] or a[2] != b[2]) for a, b in zip(runs, runs[1:]))
            assert all(succ != stt.defaults[s] for _, _, succ in runs)
        blob = stt.to_bytes()
        back = CompressedStt.from_bytes(blob)
        assert back == stt
        assert back.to_bytes() == blob
        assert_lookup_equal(back, dfa)

    @given(_defaulted_tables(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_dense_rows_of_some_states(self, dfa, data):
        # any states, repeated and out of order, read from the stored arrays
        # alone: the dense rows of every state are never built
        stt = compress(dfa)
        states = data.draw(st.lists(st.integers(0, dfa.n_states - 1), max_size=8))
        assert np.array_equal(stt.dense_rows(np.array(states, dtype=np.int64)), dfa.table[states])
        assert "rows" not in vars(stt)

    @pytest.mark.parametrize("suffix", ["POST /.{0,40}login", r"[^\n]{0,60}x", "id=[^&]{2,30}&"])
    def test_counted_run_forward_table_is_small(self, suffix):
        # each link of a counted any-byte or class run moves to the next
        # link on nearly every byte, so its row is one default and a few
        # exceptions where the dead-state bitmap stored every byte
        dfa = build_forward_dfa([(0, tree_of(suffix))])
        stt = compress(dfa)
        assert_lookup_equal(stt, dfa)
        assert stt.compression_ratio <= 0.10

    def test_ratio_improves_on_sparse_automata(self):
        fragments = [(i, tree_of(f"{chr(97 + i)}{chr(97 + (i * 7) % 26)}")) for i in range(20)]
        stt = compress(build_reverse_dfa(fragments))
        assert stt.compression_ratio < 0.12

    def test_wide_successor_dtype(self):
        table = np.zeros((70000, 256), dtype=np.uint32)
        table[1, 5] = 69999
        table[69999, 255] = 65536
        dfa = Dfa(table=table, accepts=tuple(frozenset() for _ in range(70000)))
        stt = compress(dfa)
        assert stt.run_succ.dtype == np.uint32
        assert lookup(stt, 1, 5) == 69999
        assert stt.rows.format == "I"
        assert_lookup_equal(stt, dfa)
        back = CompressedStt.from_bytes(stt.to_bytes())
        assert back.rows.format == "I"
        assert np.array_equal(np.asarray(back.rows), np.asarray(stt.rows))

    def test_narrow_rows_match_successor_width(self):
        stt = compress(build_reverse_dfa([(0, tree_of("user="))]))
        assert stt.run_succ.dtype == np.uint16
        assert stt.rows.format == "H"
        assert len(stt.rows) == stt.n_states * 256

    def test_rows_built_on_first_use_only(self):
        stt = compress(build_reverse_dfa([(0, tree_of("user="))]))
        assert "rows" not in vars(stt)
        rows = stt.rows
        assert stt.rows is rows  # cached, not rebuilt per step
        assert CompressedStt.from_bytes(stt.to_bytes()) == stt  # never serialized


class TestRunThread:
    def test_reverse_depth_with_context(self):
        stt = compress(build_reverse_dfa([(0, tree_of("user="))]))
        packet = b"xuser=y"
        records, depth = run_records(stt, packet, 5, REVERSE)
        assert records == [(0, 1, 5)]
        assert depth == 6  # five fragment bytes plus the step into dead

    def test_reverse_depth_at_packet_edge(self):
        stt = compress(build_reverse_dfa([(0, tree_of("user="))]))
        records, depth = run_records(stt, b"user=", 4, REVERSE)
        assert records == [(0, 0, 4)]
        assert depth == 5

    def test_dead_leading_byte(self):
        stt = compress(build_reverse_dfa([(0, tree_of("ab"))]))
        records, depth = run_records(stt, b"zz", 1, REVERSE)
        assert records == []
        assert depth == 1

    def test_depth_bounded_by_fragment_length(self):
        stt = compress(build_reverse_dfa([(0, tree_of("ab")), (1, tree_of("cd"))]))
        rng = random.Random(3)
        packet = bytes(rng.choice(b"abcdx") for _ in range(400))
        for off in range(len(packet)):
            _, depth = run_thread(stt, packet, off, REVERSE)
            assert depth <= 3

    def test_forward_from_entry(self):
        dfa = build_forward_dfa([(7, tree_of("[0-9]{3}"))])
        stt = compress(dfa)
        records, depth = run_records(stt, b"xx123y", 2, FORWARD, stt.entries[7])
        assert records == [(7, 2, 4)]
        assert depth == 4  # three digits plus the dead step onto 'y'

    def test_forward_empty_match_at_entry(self):
        dfa = build_forward_dfa([(5, tree_of("a{0,2}"))])
        stt = compress(dfa)
        records, _ = run_records(stt, b"xxaab", 2, FORWARD, stt.entries[5])
        assert (5, 2, 1) in records  # zero-length match at the entry edge
        assert (5, 2, 2) in records
        assert (5, 2, 3) in records
        assert (5, 2, 4) not in records

    def test_every_accept_visit_recorded(self):
        stt = compress(build_reverse_dfa([(0, tree_of("a{2,4}"))]))
        records, _ = run_records(stt, b"aaaaaa", 4, REVERSE)
        assert records == [(0, 3, 4), (0, 2, 4), (0, 1, 4)]

    def test_bad_direction(self):
        stt = compress(build_reverse_dfa([(0, tree_of("ab"))]))
        with pytest.raises(ValueError):
            run_thread(stt, b"ab", 0, "sideways")


def reference_start_pairs(dfa: Dfa) -> list[int]:
    """`start_pairs` by brute force over the dense table: for every pair
    `before | at << 8`, the state after two reverse steps from `start`, or
    -1 where `start` or the first step accepts or the first step dies."""
    table = dfa.table.tolist()
    accepting = [bool(labels) for labels in dfa.accepts]
    out = []
    for pair in range(65536):
        before, at = pair & 0xFF, pair >> 8
        first = table[dfa.start][at]
        if accepting[dfa.start] or first == DEAD or accepting[first]:
            out.append(-1)
        else:
            out.append(table[first][before])
    return out


#: reverse tables for the start-pair cases: one whose start accepts, one
#: whose first step accepts on `b`, and one that dies on a second step
_START_ACCEPTS = [(0, "a{0,2}")]
_FIRST_ACCEPTS = [(0, "b"), (1, "ab")]
_TWO_BYTES = [(0, "ab"), (1, "cd")]
_MIXED = [(0, "user="), (1, "[0-9]{2}ab"), (2, "a{2,4}"), (3, "(ab|b)c?")]


def reverse_table(fronts) -> tuple[Dfa, CompressedStt]:
    dfa = build_reverse_dfa([(label, tree_of(pattern)) for label, pattern in fronts])
    return dfa, compress(dfa)


class TestStartPairs:
    @pytest.mark.parametrize("fronts", [_START_ACCEPTS, _FIRST_ACCEPTS, _TWO_BYTES, _MIXED], ids=["start-accepts", "first-accepts", "two-bytes", "mixed"])
    def test_equals_a_brute_force_two_step_run(self, fronts):
        dfa, stt = reverse_table(fronts)
        pairs = stt.start_pairs
        assert (pairs.format, pairs.nbytes) == ("i", 256 * 1024)
        assert pairs.tolist() == reference_start_pairs(dfa)

    def test_built_on_first_use_only(self):
        _dfa, stt = reverse_table(_MIXED)
        assert "start_pairs" not in vars(stt)
        pairs = stt.start_pairs
        assert stt.start_pairs is pairs
        assert CompressedStt.from_bytes(stt.to_bytes()) == stt  # never serialized

    def test_start_that_accepts_takes_no_pair(self):
        _dfa, stt = reverse_table(_START_ACCEPTS)
        assert set(stt.start_pairs.tolist()) == {-1}
        for offset in range(3):
            got = run_records(stt, b"xaa", offset, REVERSE)
            assert got == reference_run_thread(stt, b"xaa", offset, REVERSE)
            assert (0, offset + 1, offset) in got[0]  # the empty span off the hit's edge

    def test_first_step_that_accepts_takes_no_pair(self):
        _dfa, stt = reverse_table(_FIRST_ACCEPTS)
        assert stt.start_pairs[ord("a") | ord("b") << 8] == -1
        assert run_records(stt, b"ab", 1, REVERSE) == ([(0, 1, 1), (1, 0, 1)], 2)
        assert run_records(stt, b"zab", 2, REVERSE) == reference_run_thread(stt, b"zab", 2, REVERSE) == ([(0, 2, 2), (1, 1, 2)], 3)

    def test_death_on_the_second_step(self):
        _dfa, stt = reverse_table(_TWO_BYTES)
        assert stt.start_pairs[ord("z") | ord("b") << 8] == DEAD
        assert run_thread(stt, b"zb", 1, REVERSE) == ([], 2) == reference_run_thread(stt, b"zb", 1, REVERSE)
        assert run_thread(stt, b"xzb", 2, REVERSE) == ([], 2)

    def test_offsets_0_and_1(self):
        _dfa, stt = reverse_table(_TWO_BYTES)
        # offset 0 has no byte before it, so no pair: one step, then the edge
        assert run_records(stt, b"b", 0, REVERSE) == ([], 1) == reference_run_thread(stt, b"b", 0, REVERSE)
        assert run_records(stt, b"bx", 0, REVERSE) == ([], 1)
        # offset 1: the pair is the whole run, which then meets the edge
        assert run_records(stt, b"ab", 1, REVERSE) == ([(0, 0, 1)], 2) == reference_run_thread(stt, b"ab", 1, REVERSE)
        assert run_records(stt, b"cdx", 1, REVERSE) == ([(1, 0, 1)], 2)

    def test_threads_take_the_pair_only_past_the_first_byte_from_start(self):
        # a forged entry shows which threads read the table: a reverse
        # thread from `start` at offset 1 or more does, in place of its
        # first two steps; one at offset 0, one from a given state and a
        # forward one do not
        _dfa, stt = reverse_table(_TWO_BYTES)
        forged = np.asarray(stt.start_pairs).copy()
        forged[ord("z") | ord("b") << 8] = stt.rows[(stt.rows[(stt.start << 8) | ord("b")] << 8) | ord("a")]
        vars(stt)["start_pairs"] = memoryview(forged)
        assert run_records(stt, b"zb", 1, REVERSE) == ([(0, 0, 1)], 2)
        assert run_records(stt, b"xzb", 2, REVERSE) == ([(0, 1, 2)], 3)
        assert run_thread(stt, b"zb", 1, REVERSE, stt.start) == ([], 2) == reference_run_thread(stt, b"zb", 1, REVERSE)
        assert run_thread(stt, b"b", 0, REVERSE) == ([], 1)
        assert run_thread(stt, b"zb", 0, FORWARD) == ([], 1)

    @given(st.lists(st.sampled_from(b"abcdz"), max_size=24).map(bytes))
    @settings(max_examples=100, deadline=None)
    def test_every_table_agrees_with_the_reference_at_every_offset(self, packet):
        for fronts in (_START_ACCEPTS, _FIRST_ACCEPTS, _TWO_BYTES):
            _dfa, stt = reverse_table(fronts)
            for offset in range(len(packet)):
                assert run_records(stt, packet, offset, REVERSE) == reference_run_thread(stt, packet, offset, REVERSE)


#: header bytes: states, start, entries, pairs
_HEADER = 16


def _pairs_at(stt: CompressedStt) -> int:
    """Offset of the accept pairs' states: after the header and entries."""
    return _HEADER + 8 * len(stt.entries)


def _with(stt: CompressedStt, **arrays) -> CompressedStt:
    """`stt` with some stored arrays replaced, each in its field's dtype."""
    return replace(stt, **{k: np.array(v, dtype=getattr(stt, k).dtype) for k, v in arrays.items()})


def _runs_dfa() -> Dfa:
    table = np.zeros((4, 256), dtype=np.uint32)
    table[1, 10:20] = 2
    table[1, 20:30] = 3
    table[1, 40] = 2
    table[2] = 2
    table[2, :5] = 1
    accepts = (frozenset(), frozenset(), frozenset({5, 7}), frozenset({1}))
    return Dfa(table=table, accepts=accepts, start=1, entries={8: 2, 3: 1})


#: four states with several runs in one row, two labels on one state and
#: two entries, small enough to corrupt by hand
_RUNS_TABLE = compress(_runs_dfa())


class TestSerialization:
    def test_round_trip(self):
        dfa = build_forward_dfa([(3, tree_of("[a-f]{4}")), (8, tree_of("xy?z"))])
        stt = compress(dfa)
        blob = stt.to_bytes()
        back = CompressedStt.from_bytes(blob)
        assert back == stt
        assert back.to_bytes() == blob

    def test_round_trip_preserves_lookup(self):
        dfa = build_reverse_dfa([(0, tree_of("foo|bar")), (1, tree_of("[0-9]+x"))])
        stt = compress(dfa)
        back = CompressedStt.from_bytes(stt.to_bytes())
        assert_lookup_equal(back, dfa)

    def test_inconsistent_arrays_raise_value_error(self):
        stt = compress(build_forward_dfa([(3, tree_of("[a-f]{4}")), (8, tree_of("xy?z"))]))
        bad = [
            replace(stt, run_succ=stt.run_succ[:-1]),
            replace(stt, run_first=np.append(stt.run_first, stt.run_first[:1])),
            replace(stt, start=stt.n_states),
            replace(stt, entries={**stt.entries, 3: stt.n_states}),
            replace(stt, defaults=np.append(stt.defaults[:-1], np.uint16(stt.n_states))),
        ]
        for table in bad:
            with pytest.raises(ValueError):
                CompressedStt.from_bytes(table.to_bytes())

    def test_run_successor_out_of_range_raises_value_error(self):
        stt = _RUNS_TABLE
        with pytest.raises(ValueError, match="names a state it does not have"):
            CompressedStt.from_bytes(_with(stt, run_succ=[2, 3, 2, stt.n_states]).to_bytes())

    def test_accept_state_out_of_range_raises_value_error(self):
        blob = bytearray(_RUNS_TABLE.to_bytes())
        at = _pairs_at(_RUNS_TABLE)
        assert blob[at + 4 : at + 6] == (3).to_bytes(2, "little")  # the last pair's state
        blob[at + 4 : at + 6] = (4).to_bytes(2, "little")
        with pytest.raises(ValueError, match="names a state it does not have"):
            CompressedStt.from_bytes(bytes(blob))

    def test_run_counts_must_sum_to_the_run_count(self):
        # the run count is not stored: the counts say how many runs to read,
        # so counts that miss the four stored runs misread them or the end
        for counts in ([0, 3, 1, 1], [0, 2, 1, 0]):
            with pytest.raises(ValueError):
                CompressedStt.from_bytes(_with(_RUNS_TABLE, run_counts=counts).to_bytes())

    def test_run_ending_before_it_starts_raises_value_error(self):
        with pytest.raises(ValueError, match="ends before it starts"):
            CompressedStt.from_bytes(_with(_RUNS_TABLE, run_first=[19, 20, 40, 0], run_last=[10, 29, 40, 4]).to_bytes())

    def test_run_to_the_default_raises_value_error(self):
        # state 2's default is 2
        with pytest.raises(ValueError, match="repeats its state's default"):
            CompressedStt.from_bytes(_with(_RUNS_TABLE, run_succ=[2, 3, 2, 2]).to_bytes())

    @pytest.mark.parametrize(
        "first, last",
        [([20, 10, 40, 0], [29, 19, 40, 4]), ([10, 20, 40, 0], [22, 29, 40, 4]), ([10, 19, 40, 0], [19, 29, 40, 4])],
        ids=["unsorted", "overlapping", "sharing a byte"],
    )
    def test_unsorted_or_overlapping_runs_raise_value_error(self, first, last):
        with pytest.raises(ValueError, match="overlap or are out of order"):
            CompressedStt.from_bytes(_with(_RUNS_TABLE, run_first=first, run_last=last).to_bytes())

    def test_touching_runs_to_one_successor_raise_value_error(self):
        # state 1's run 10..19 -> 2 cut in two
        split = _with(
            _RUNS_TABLE, run_counts=[0, 4, 1, 0], run_first=[10, 15, 20, 40, 0], run_last=[14, 19, 29, 40, 4],
            run_succ=[2, 2, 3, 2, 1],
        )
        assert np.array_equal(np.asarray(split.rows), np.asarray(_RUNS_TABLE.rows))
        with pytest.raises(ValueError, match="splits one run in two"):
            CompressedStt.from_bytes(split.to_bytes())

    def test_default_that_is_not_the_mode_raises_value_error(self):
        # state 2 with default 1 and a run 5..255 -> 2: the same row, but 1
        # keeps 5 bytes where 2 covers 251
        flipped = _with(
            _RUNS_TABLE, defaults=[0, 0, 1, 0], run_first=[10, 20, 40, 5], run_last=[19, 29, 40, 255],
            run_succ=[2, 3, 2, 2],
        )
        assert np.array_equal(np.asarray(flipped.rows), np.asarray(_RUNS_TABLE.rows))
        with pytest.raises(ValueError, match="not its row's most frequent successor"):
            CompressedStt.from_bytes(flipped.to_bytes())

    def test_default_that_loses_a_tie_raises_value_error(self):
        # state 2 half 1, half 2: the tie goes to 1, the smaller id
        tied = _with(_RUNS_TABLE, run_first=[10, 20, 40, 0], run_last=[19, 29, 40, 127])
        with pytest.raises(ValueError, match="not its row's most frequent successor"):
            CompressedStt.from_bytes(tied.to_bytes())
        table = np.asarray(tied.rows).reshape(4, 256)
        again = compress(Dfa(table=table, accepts=tied.accepts, start=tied.start, entries=tied.entries))
        assert int(again.defaults[2]) == 1
        assert CompressedStt.from_bytes(again.to_bytes()) == again

    def test_wide_ids_for_a_small_table_raise_value_error(self):
        stt = _RUNS_TABLE
        wide = replace(stt, defaults=stt.defaults.astype(np.uint32), run_succ=stt.run_succ.astype(np.uint32))
        assert wide.succ_width == 4
        # the width is not stored: 4 states are read as u16 ids, and the
        # u32 ones misread
        with pytest.raises(ValueError):
            CompressedStt.from_bytes(wide.to_bytes())

    def test_narrow_ids_for_a_large_table_raise_value_error(self):
        n = 0x10001
        narrow = CompressedStt(
            n_states=n, start=0, defaults=np.zeros(n, np.uint16), run_counts=np.zeros(n, np.uint8),
            run_first=np.zeros(0, np.uint8), run_last=np.zeros(0, np.uint8), run_succ=np.zeros(0, np.uint16),
            accepts=(frozenset(),) * n,
        )
        # 65537 states are read as u32 ids, and the u16 ones run short
        with pytest.raises(ValueError, match="truncated transition table"):
            CompressedStt.from_bytes(narrow.to_bytes())

    @pytest.mark.parametrize("labels", [(7, 5), (5, 5)], ids=["decreasing", "repeated"])
    def test_accept_pairs_must_strictly_increase(self, labels):
        blob = bytearray(_RUNS_TABLE.to_bytes())
        at = _pairs_at(_RUNS_TABLE) + 3 * 2  # the labels follow the three u16 states
        assert blob[at : at + 12] == np.array([5, 7, 1], dtype="<u4").tobytes()
        blob[at : at + 8] = np.array(labels, dtype="<u4").tobytes()
        with pytest.raises(ValueError, match="accept pairs are not strictly increasing"):
            CompressedStt.from_bytes(bytes(blob))

    @pytest.mark.parametrize("keys", [(8, 3), (3, 3)], ids=["decreasing", "repeated"])
    def test_entries_must_strictly_increase(self, keys):
        # a repeated key would load as one entry and re-serialize shorter
        blob = bytearray(_RUNS_TABLE.to_bytes())
        assert blob[_HEADER : _HEADER + 16] == np.array([3, 1, 8, 2], dtype="<u4").tobytes()
        blob[_HEADER : _HEADER + 4] = keys[0].to_bytes(4, "little")
        blob[_HEADER + 8 : _HEADER + 12] = keys[1].to_bytes(4, "little")
        with pytest.raises(ValueError, match="entries are not strictly increasing"):
            CompressedStt.from_bytes(bytes(blob))

    def test_hand_built_table_round_trips(self):
        stt = _RUNS_TABLE
        assert [runs_of(stt, s) for s in range(4)] == [[], [(10, 19, 2), (20, 29, 3), (40, 40, 2)], [(0, 4, 1)], []]
        blob = stt.to_bytes()
        assert CompressedStt.from_bytes(blob).to_bytes() == blob
        assert len(blob) == _HEADER + 16 + 3 * (2 + 4) + stt.compressed_bytes
        assert stt.compressed_bytes == 4 * 2 + 4 + 4 * (1 + 1 + 2)

    def test_bad_magic(self):
        # a table has no magic: junk reads as a header of 0x4b4e554a states
        with pytest.raises(ValueError):
            CompressedStt.from_bytes(b"JUNKJUNKJUNK" + b"\x00" * 64)

    def test_truncated_defaults_raise_value_error(self):
        # one default short, with the run counts and runs intact
        stt = compress(build_forward_dfa([(3, tree_of("[a-f]{4}")), (8, tree_of("x.{0,9}z"))]))
        blob = stt.to_bytes()
        at = len(blob) - stt.compressed_bytes + stt.defaults.nbytes
        assert blob[at - stt.defaults.nbytes : at] == stt.defaults.astype("<u2").tobytes()
        with pytest.raises(ValueError):
            CompressedStt.from_bytes(blob[: at - 2] + blob[at:])

    def test_truncated_or_padded_blob_raises_value_error(self):
        blob = compress(build_forward_dfa([(3, tree_of("[a-f]{4}")), (8, tree_of("xy?z"))])).to_bytes()
        for size in range(len(blob)):
            with pytest.raises(ValueError):
                CompressedStt.from_bytes(blob[:size])
        with pytest.raises(ValueError):
            CompressedStt.from_bytes(blob + b"\x00")


class TestProperties:
    @given(_trees(2))
    @settings(max_examples=80, deadline=None)
    def test_compressed_equals_dense(self, tree):
        dfa = minimize(determinize(thompson([tree])))
        assert_lookup_equal(compress(dfa), dfa)


_REVERSE = compress(build_reverse_dfa([
    (0, tree_of("user=")), (1, tree_of("[0-9]{2}ab")), (2, tree_of("a{2,4}")), (3, tree_of("(ab|b)c?")),
]))
_FORWARD = compress(build_forward_dfa([(5, tree_of("a{0,2}")), (6, tree_of("[0-9]+b")), (7, tree_of("sera"))]))


@st.composite
def _packet_and_offset(draw):
    packet = draw(st.binary(max_size=48) | st.lists(st.sampled_from(b"user=abc09"), max_size=48).map(bytes))
    return packet, draw(st.integers(-2, len(packet) + 1))


class TestRunThreadAgainstRankReference:
    """`run_thread` against `reference_run_thread`, which steps through
    `run_lookup`."""

    @given(_packet_and_offset())
    @settings(max_examples=300, deadline=None)
    def test_reverse(self, packet_offset):
        packet, offset = packet_offset
        got = run_records(_REVERSE, packet, offset, REVERSE)
        assert got == reference_run_thread(_REVERSE, packet, offset, REVERSE)

    @given(_packet_and_offset(), st.sampled_from([None, 5, 6, 7]))
    @settings(max_examples=300, deadline=None)
    def test_forward(self, packet_offset, split):
        packet, offset = packet_offset
        state = None if split is None else _FORWARD.entries[split]
        got = run_records(_FORWARD, packet, offset, FORWARD, state)
        assert got == reference_run_thread(_FORWARD, packet, offset, FORWARD, state)

    @given(st.binary(min_size=1, max_size=48) | st.lists(st.sampled_from(b"user=abc09"), min_size=1, max_size=48).map(bytes))
    @settings(max_examples=200, deadline=None)
    def test_packet_edges_both_directions(self, packet):
        # threads that start at the first and the last byte run to the
        # opposite edge or stop at once, where an off-by-one shows
        for offset in (0, len(packet) - 1):
            assert run_records(_REVERSE, packet, offset, REVERSE) == reference_run_thread(_REVERSE, packet, offset, REVERSE)
            for state in (None, *_FORWARD.entries.values()):
                got = run_records(_FORWARD, packet, offset, FORWARD, state)
                assert got == reference_run_thread(_FORWARD, packet, offset, FORWARD, state)

    def test_reference_agrees_on_a_match_dense_packet(self):
        packet = b"xuser=12abaaaabcuser=" * 5
        for offset in range(len(packet)):
            assert run_records(_REVERSE, packet, offset, REVERSE) == reference_run_thread(_REVERSE, packet, offset, REVERSE)
            for split in (5, 6, 7):
                state = _FORWARD.entries[split]
                assert run_records(_FORWARD, packet, offset, FORWARD, state) == reference_run_thread(
                    _FORWARD, packet, offset, FORWARD, state
                )


@st.composite
def corruptions(draw, blobs):
    """One of `blobs` cut short, or with one to three bytes flipped."""
    blob = draw(st.sampled_from(blobs))
    if draw(st.booleans()):
        return blob[: draw(st.integers(0, len(blob) - 1))]
    out = bytearray(blob)
    for _ in range(draw(st.integers(1, 3))):
        out[draw(st.integers(0, len(out) - 1))] ^= draw(st.integers(1, 255))
    return bytes(out)


class TestCorruptTables:
    @given(corruptions([_RUNS_TABLE.to_bytes(), _REVERSE.to_bytes(), _FORWARD.to_bytes()]))
    @settings(max_examples=500, deadline=None)
    def test_fails_cleanly_or_round_trips(self, blob):
        # a corrupt table is refused with ValueError, or it is a table in
        # the one form compress writes, whose every successor is a state
        try:
            stt = CompressedStt.from_bytes(blob)
        except ValueError:
            return
        assert stt.to_bytes() == blob
        rows = np.asarray(stt.rows)
        assert int(rows.max()) < stt.n_states
        dense = Dfa(table=rows.reshape(-1, 256), accepts=stt.accepts, start=stt.start, entries=stt.entries)
        assert compress(dense).to_bytes() == blob
