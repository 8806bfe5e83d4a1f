from __future__ import annotations

import random
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


def assert_lookup_equal(stt: CompressedStt, dfa: Dfa):
    """lookup and lookup_many equal the dense table for every (state, byte)."""
    table = dfa.table
    for lo in range(0, dfa.n_states, 4096):
        block = table[lo : lo + 4096]
        states = np.repeat(np.arange(lo, lo + len(block)), 256)
        got = stt.lookup_many(states, np.tile(np.arange(256), len(block)))
        assert np.array_equal(got.reshape(len(block), 256), block)
    lookup = stt.lookup
    for s, row in enumerate(table.tolist()):
        assert [lookup(s, b) for b in range(256)] == row


# --- reference: bitmap test + popcount rank over the compressed arrays -----


def rank_lookup(stt: CompressedStt, state: int, byte: int) -> int:
    word = int(stt.bitmap[state, byte >> 6])
    bit = byte & 63
    if not (word >> bit) & 1:
        return DEAD
    rank = int(stt.prefix[state, byte >> 6]) + (word & ((1 << bit) - 1)).bit_count()
    return int(stt.successors[int(stt.offsets[state]) + rank])


def reference_run_thread(stt, data, start_offset, direction, state=None):
    step = 1 if direction == FORWARD else -1
    s = stt.start if state is None else state
    records = []
    for label in stt.accepts[s]:
        records.append((label, start_offset, start_offset - 1) if step > 0 else (label, start_offset + 1, start_offset))
    depth = 0
    pos = start_offset
    while 0 <= pos < len(data):
        s = rank_lookup(stt, s, data[pos])
        depth += 1
        if s == DEAD:
            break
        for label in stt.accepts[s]:
            records.append((label, start_offset, pos) if step > 0 else (label, pos, start_offset))
        pos += step
    return records, depth


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
        # a forward table with no back parts has one state and zero successors
        dfa = build_forward_dfa([])
        stt = compress(dfa)
        assert stt.successors.size == 0
        assert_lookup_equal(stt, dfa)
        assert stt.lookup(0, 65) == 0

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
            assert stt.lookup(s, b) == rank_lookup(stt, s, b) == int(table[s, b])
        assert_lookup_equal(stt, dfa)

    def test_scalar_matches_vector(self):
        dfa = build_reverse_dfa([(0, tree_of("abc")), (1, tree_of("[ab]{3}"))])
        stt = compress(dfa)
        rng = random.Random(9)
        for _ in range(500):
            s, b = rng.randrange(dfa.n_states), rng.randrange(256)
            assert stt.lookup(s, b) == int(
                stt.lookup_many(np.array([s]), np.array([b]))[0]
            )

    def test_dead_only_ratio_is_fixed_overhead(self):
        dfa = Dfa(table=np.zeros((1, 256), dtype=np.uint32), accepts=(frozenset(),), start=0)
        stt = compress(dfa)
        # bitmap 32B + prefix 8B + offsets 4B per state, no successors
        assert stt.compressed_bytes == 44
        assert stt.compression_ratio == pytest.approx(44 / 512)

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
        assert stt.successors.dtype == np.uint32
        assert stt.lookup(1, 5) == 69999
        assert stt.rows.format == "I"
        assert_lookup_equal(stt, dfa)
        back = CompressedStt.from_bytes(stt.to_bytes())
        assert back.rows.format == "I"
        assert np.array_equal(np.asarray(back.rows), np.asarray(stt.rows))

    def test_narrow_rows_match_successor_width(self):
        stt = compress(build_reverse_dfa([(0, tree_of("user="))]))
        assert stt.successors.dtype == np.uint16
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
        records, depth = run_thread(stt, packet, 5, REVERSE)
        assert records == [(0, 1, 5)]
        assert depth == 6  # five fragment bytes plus the step into dead

    def test_reverse_depth_at_packet_edge(self):
        stt = compress(build_reverse_dfa([(0, tree_of("user="))]))
        records, depth = run_thread(stt, b"user=", 4, REVERSE)
        assert records == [(0, 0, 4)]
        assert depth == 5

    def test_dead_leading_byte(self):
        stt = compress(build_reverse_dfa([(0, tree_of("ab"))]))
        records, depth = run_thread(stt, b"zz", 1, REVERSE)
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
        records, depth = run_thread(stt, b"xx123y", 2, FORWARD, state=stt.entries[7])
        assert records == [(7, 2, 4)]
        assert depth == 4  # three digits plus the dead step onto 'y'

    def test_forward_empty_match_at_entry(self):
        dfa = build_forward_dfa([(5, tree_of("a{0,2}"))])
        stt = compress(dfa)
        records, _ = run_thread(stt, b"xxaab", 2, FORWARD, state=stt.entries[5])
        assert (5, 2, 1) in records  # zero-length match at the entry edge
        assert (5, 2, 2) in records
        assert (5, 2, 3) in records
        assert (5, 2, 4) not in records

    def test_every_accept_visit_recorded(self):
        stt = compress(build_reverse_dfa([(0, tree_of("a{2,4}"))]))
        records, _ = run_thread(stt, b"aaaaaa", 4, REVERSE)
        assert records == [(0, 3, 4), (0, 2, 4), (0, 1, 4)]

    def test_bad_direction(self):
        stt = compress(build_reverse_dfa([(0, tree_of("ab"))]))
        with pytest.raises(ValueError):
            run_thread(stt, b"ab", 0, "sideways")


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
            replace(stt, offsets=stt.offsets + np.uint32(1)),
            replace(stt, prefix=stt.prefix[::-1].copy()),
            replace(stt, successors=np.append(stt.successors[:-1], np.uint16(stt.n_states))),
            replace(stt, start=stt.n_states),
            replace(stt, entries={**stt.entries, 3: stt.n_states}),
        ]
        for table in bad:
            with pytest.raises(ValueError):
                CompressedStt.from_bytes(table.to_bytes())

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            CompressedStt.from_bytes(b"JUNKJUNKJUNK" + b"\x00" * 64)

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
    @given(_packet_and_offset())
    @settings(max_examples=300, deadline=None)
    def test_reverse(self, packet_offset):
        packet, offset = packet_offset
        got = run_thread(_REVERSE, packet, offset, REVERSE)
        assert got == reference_run_thread(_REVERSE, packet, offset, REVERSE)

    @given(_packet_and_offset(), st.sampled_from([None, 5, 6, 7]))
    @settings(max_examples=300, deadline=None)
    def test_forward(self, packet_offset, split):
        packet, offset = packet_offset
        state = None if split is None else _FORWARD.entries[split]
        got = run_thread(_FORWARD, packet, offset, FORWARD, state)
        assert got == reference_run_thread(_FORWARD, packet, offset, FORWARD, state)

    @given(st.binary(min_size=1, max_size=48) | st.lists(st.sampled_from(b"user=abc09"), min_size=1, max_size=48).map(bytes))
    @settings(max_examples=200, deadline=None)
    def test_packet_edges_both_directions(self, packet):
        # threads that start at the first and the last byte run to the
        # opposite edge or stop at once, where an off-by-one shows
        for offset in (0, len(packet) - 1):
            assert run_thread(_REVERSE, packet, offset, REVERSE) == reference_run_thread(_REVERSE, packet, offset, REVERSE)
            for state in (None, *_FORWARD.entries.values()):
                got = run_thread(_FORWARD, packet, offset, FORWARD, state)
                assert got == reference_run_thread(_FORWARD, packet, offset, FORWARD, state)

    def test_reference_agrees_on_a_match_dense_packet(self):
        packet = b"xuser=12abaaaabcuser=" * 5
        for offset in range(len(packet)):
            assert run_thread(_REVERSE, packet, offset, REVERSE) == reference_run_thread(_REVERSE, packet, offset, REVERSE)
            for split in (5, 6, 7):
                state = _FORWARD.entries[split]
                assert run_thread(_FORWARD, packet, offset, FORWARD, state) == reference_run_thread(
                    _FORWARD, packet, offset, FORWARD, state
                )
