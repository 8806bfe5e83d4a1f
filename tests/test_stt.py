from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings

from anchorscan.automata import Dfa, build_forward_dfa, build_reverse_dfa, determinize, minimize, thompson
from anchorscan.parser import parse
from anchorscan.stt import FORWARD, REVERSE, CompressedStt, compress, run_thread
from test_parser import _trees


def tree_of(pattern: str):
    return parse(pattern).tree


def assert_lookup_equal(stt: CompressedStt, dfa: Dfa):
    states, bytes_ = np.meshgrid(
        np.arange(dfa.n_states, dtype=np.int64), np.arange(256, dtype=np.int64), indexing="ij"
    )
    got = stt.lookup_many(states.ravel(), bytes_.ravel()).reshape(dfa.n_states, 256)
    assert np.array_equal(got, dfa.table.astype(np.int64))


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
            assert stt.lookup(s, b) == int(table[s, b])
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
        dfa = Dfa(table=table, accepts=tuple(frozenset() for _ in range(70000)))
        stt = compress(dfa)
        assert stt.successors.dtype == np.uint32
        assert stt.lookup(1, 5) == 69999


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
