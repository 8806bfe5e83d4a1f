from __future__ import annotations

import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorscan.blob import BlobReader
from anchorscan.decompose import FilterKey, pick_filter_key
from anchorscan.chars import ByteClass
from anchorscan.parser import parse
from anchorscan.prefilter import (
    UNIT_DIRECT,
    UNIT_XOR4,
    UNIT_XOR8,
    DirectFilterUnit,
    FilterBank,
    build_filter_bank,
    build_xor_unit,
    splitmix64,
    _splitmix64_vec,
)


def key_of(text: bytes) -> FilterKey:
    return FilterKey(tuple(ByteClass.of(b) for b in text))


def bank_of(*keys: bytes) -> FilterBank:
    return build_filter_bank([(i, key_of(k)) for i, k in enumerate(keys)])


class TestSplitmix:
    def test_known_values(self):
        # self-consistency pin: fixed inputs must hash identically forever,
        # serialized filters depend on it
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(1) == 0x910A2DEC89025CC1
        assert splitmix64(0xDEADBEEF) == 0x4ADFB90F68C9EB9B

    def test_vector_matches_scalar(self):
        xs = np.arange(0, 5000, 7, dtype=np.uint64)
        vec = _splitmix64_vec(xs)
        for x, v in zip(xs.tolist(), vec.tolist()):
            assert splitmix64(x) == v


class TestDirectUnit:
    def test_exhaustive_exactness(self):
        inserted = {b"ab", b"zz", b"\x00\xff", b"~\x01"}
        unit = DirectFilterUnit.of(inserted)
        assert unit.key_count == 4
        for hi in range(256):
            for lo in range(0, 256, 5):
                w = bytes([hi, lo])
                assert unit.contains(w) == (w in inserted)

    def test_vector_matches_scalar(self):
        rng = random.Random(7)
        unit = DirectFilterUnit.of(bytes([rng.randrange(256), rng.randrange(256)]) for _ in range(300))
        mask = unit.members()
        for v in range(0, 65536, 37):
            assert bool(mask[v]) == unit.contains(bytes([v >> 8, v & 0xFF]))


class TestPairSetEncoding:
    def decode(self, blob: bytes) -> DirectFilterUnit:
        r = BlobReader(blob, "pair set")
        unit = DirectFilterUnit.read(r)
        r.finish()
        return unit

    @pytest.mark.parametrize("count, size", [(0, 3), (1, 5), (4094, 8191), (4095, 8193), (65536, 8193)])
    def test_smaller_encoding_round_trips(self, count, size):
        values = random.Random(count).sample(range(65536), count)
        unit = DirectFilterUnit.of(bytes([v >> 8, v & 0xFF]) for v in values)
        blob = unit.to_bytes()
        assert len(blob) == size  # a list of n members takes 3 + 2n bytes, the raw bitmap 1 + 8192
        assert self.decode(blob) == unit

    @pytest.mark.parametrize(
        "blob",
        [
            struct.pack("<BH2H", 1, 2, 9, 7),  # unsorted
            struct.pack("<BH2H", 1, 2, 7, 7),  # duplicate
            struct.pack("<BH", 1, 4095) + bytes(8190),  # longer than the raw bitmap
            struct.pack("<B", 2) + bytes(8192),  # unknown tag
        ],
    )
    def test_malformed_list_raises_value_error(self, blob):
        with pytest.raises(ValueError):
            self.decode(blob)


class TestXorUnit:
    def test_zero_false_negatives_exhaustive(self):
        rng = random.Random(11)
        keys = list({rng.randbytes(8) for _ in range(5000)})
        unit = build_xor_unit(keys, 8, 8, base_seed=123)
        for k in keys:
            assert unit.contains(k)

    def test_false_positive_rate_in_band(self):
        rng = random.Random(12)
        keys = list({rng.randbytes(8) for _ in range(10_000)})
        unit = build_xor_unit(keys, 8, 8, base_seed=99)
        member = set(keys)
        probes = np.frombuffer(rng.randbytes(8 * 100_000), dtype=">u8").astype(np.uint64)
        mask = unit.hit_mask(probes)
        false_pos = sum(
            1
            for v, hit in zip(probes.tolist(), mask.tolist())
            if hit and v.to_bytes(8, "big") not in member
        )
        rate = false_pos / len(probes)
        assert 2**-9 <= rate <= 2**-7

    def test_vector_matches_scalar(self):
        rng = random.Random(13)
        keys = [rng.randbytes(4) for _ in range(500)]
        unit = build_xor_unit(keys, 4, 8, base_seed=5)
        probes = np.frombuffer(rng.randbytes(4 * 2000), dtype=">u4").astype(np.uint64)
        mask = unit.hit_mask(probes)
        for v, hit in zip(probes.tolist(), mask.tolist()):
            assert unit.contains(int(v).to_bytes(4, "big")) == bool(hit)

    def test_deterministic_build(self):
        keys = [bytes([i, i + 1, 3, 7]) for i in range(0, 200, 2)]
        a = build_xor_unit(keys, 4, 8, base_seed=42)
        b = build_xor_unit(list(reversed(keys)), 4, 8, base_seed=42)
        assert a == b

    def test_empty_unit_rejects_everything(self):
        unit = build_xor_unit([], 4, 8, base_seed=1)
        assert unit.is_empty
        assert not unit.contains(b"abcd")
        assert not unit.hit_mask(np.arange(10, dtype=np.uint64)).any()

    @given(st.sets(st.binary(min_size=4, max_size=4), min_size=1, max_size=200), st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_members_always_found(self, keys, seed):
        unit = build_xor_unit(sorted(keys), 4, 8, base_seed=seed)
        assert all(unit.contains(k) for k in keys)

    @pytest.mark.parametrize("fp_bits, dtype", [(8, np.uint8), (12, np.uint16), (20, np.uint32)])
    def test_fingerprints_stored_at_real_width(self, fp_bits, dtype):
        rng = random.Random(fp_bits)
        keys = [rng.randbytes(8) for _ in range(200)]
        bank = build_filter_bank([(i, key_of(k)) for i, k in enumerate(keys)], fp_bits=fp_bits)
        assert bank.unit8.fingerprints.dtype == dtype
        back = FilterBank.from_bytes(bank.to_bytes())
        assert back.unit8.fingerprints.dtype == dtype
        assert back == bank
        assert all(back.query(k) for k in keys)


class TestBankScan:
    def test_hits_are_window_ends(self):
        bank = bank_of(b"cd")
        ends, units = bank.scan(b"abcdcd")
        assert ends.tolist() == [3, 5]
        assert set(units.tolist()) == {UNIT_DIRECT}

    def test_direct_hits_exact_against_brute(self):
        rng = random.Random(17)
        keys = [rng.randbytes(2) for _ in range(40)]
        bank = bank_of(*keys)
        data = rng.randbytes(4096)
        ends, units = bank.scan(data)
        got = {int(e) for e, u in zip(ends, units) if u == UNIT_DIRECT}
        want = {i for i in range(1, len(data)) if data[i - 1 : i + 1] in set(keys)}
        assert got == want

    def test_no_false_negatives_any_width(self):
        rng = random.Random(19)
        k4, k8 = rng.randbytes(4), rng.randbytes(8)
        bank = bank_of(b"qq", k4, k8)
        data = rng.randbytes(100) + k4 + rng.randbytes(50) + k8 + b"qq" + rng.randbytes(30)
        ends, units = bank.scan(data)
        hits = set(zip(ends.tolist(), units.tolist()))
        assert (103, UNIT_XOR4) in hits
        assert (161, UNIT_XOR8) in hits
        assert (163, UNIT_DIRECT) in hits

    def test_unit_order_at_equal_offset(self):
        # plant a 2-key and a 4-key ending at the same offset
        bank = bank_of(b"cd", b"abcd")
        ends, units = bank.scan(b"xabcdy")
        same = [(e, u) for e, u in zip(ends.tolist(), units.tolist()) if e == 4]
        assert same == [(4, UNIT_DIRECT), (4, UNIT_XOR4)]

    def test_short_packets(self):
        bank = bank_of(b"ab", b"abcd", b"abcdefgh")
        for data in [b"", b"a", b"ab", b"abc"]:
            ends, units = bank.scan(data)
            expected = [1] if data == b"ab" or data == b"abc" else []
            got = [e for e, u in zip(ends.tolist(), units.tolist()) if u == UNIT_DIRECT]
            assert got == expected

    def test_empty_bank(self):
        bank = build_filter_bank([])
        assert bank.key_count == 0
        ends, units = bank.scan(b"anything goes here")
        assert len(ends) == 0
        for w in (b"ab", b"abcd", b"abcdefgh"):
            assert not bank.query(w)

    def test_class_keys_expand(self):
        (split,) = pick_filter_key(parse("x[ab]yz").tree)
        bank = build_filter_bank([(0, split.key)])
        # key covers both expansions
        assert bank.query(b"xayz") and bank.query(b"xbyz")

    @given(
        st.lists(
            st.sampled_from([2, 4, 8]).flatmap(lambda w: st.binary(min_size=w, max_size=w)),
            min_size=1,
            max_size=10,
            unique=True,
        ),
        st.binary(max_size=64),
        st.integers(0, 7),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_gated_scan_equals_brute_query(self, keys, filler, at, data):
        bank = bank_of(*keys)
        head = data.draw(st.sampled_from([b"", *keys]))  # planted at offset `at`
        tail = data.draw(st.sampled_from([b"", *keys]))  # planted at the packet end
        body = filler[: 64 - len(head) - len(tail)]
        at = min(at, len(body))
        packet = body[:at] + head + body[at:] + tail
        ends, units = bank.scan(packet)
        got = list(zip(ends.tolist(), units.tolist()))
        # unit codes equal window widths
        want = [
            (j, w)
            for j in range(len(packet))
            for w in (UNIT_DIRECT, UNIT_XOR4, UNIT_XOR8)
            if j >= w - 1 and bank.query(packet[j - w + 1 : j + 1])
        ]
        assert got == want
        if head:
            assert (at + len(head) - 1, len(head)) in got
        if tail:
            assert (len(packet) - 1, len(tail)) in got

    def test_gated_hits_subset_of_ungated(self):
        rng = random.Random(37)
        keys4 = [rng.randbytes(4) for _ in range(300)]
        keys8 = [rng.randbytes(8) for _ in range(300)]
        bank = bank_of(*keys4, *keys8)
        # random bytes, planted keys, and windows that pass only one gate
        data = bytearray(rng.randbytes(2000))
        planted = {}
        for i in range(6000):
            key = rng.choice(keys4 + keys8)
            w = len(key)
            if i % 500 == 0:
                data += key
                planted[len(data) - 1] = w
            elif i % 2:
                data += key[:2] + rng.randbytes(w - 2)
            else:
                data += rng.randbytes(w - 2) + key[-2:]
        data = bytes(data)
        ends, units = bank.scan(data)
        u = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
        for unit, code in ((bank.unit4, UNIT_XOR4), (bank.unit8, UNIT_XOR8)):
            w = unit.width
            values = np.zeros(len(data) - w + 1, dtype=np.uint64)
            for col in range(w):
                values = (values << np.uint64(8)) | u[col : len(u) - w + 1 + col]
            ungated = set((np.flatnonzero(unit.hit_mask(values)) + w - 1).tolist())
            gated = {int(e) for e, c in zip(ends, units) if c == code}
            assert gated <= ungated
            assert gated == {e for e in ungated if bank.query(data[e - w + 1 : e + 1])}
            assert {e for e, width in planted.items() if width == w} <= gated
            assert len(gated) < len(ungated)

    def test_scalar_query_matches_scan(self):
        rng = random.Random(23)
        keys = [rng.randbytes(4) for _ in range(100)]
        bank = bank_of(*keys)
        data = rng.randbytes(2000)
        ends, units = bank.scan(data)
        got4 = {int(e) for e, u in zip(ends, units) if u == UNIT_XOR4}
        want4 = {i for i in range(3, len(data)) if bank.query(data[i - 3 : i + 1])}
        assert got4 == want4


class TestSerialization:
    def test_round_trip(self):
        rng = random.Random(29)
        bank = bank_of(b"ab", rng.randbytes(4), rng.randbytes(4), rng.randbytes(8))
        blob = bank.to_bytes()
        back = FilterBank.from_bytes(blob)
        assert back == bank
        assert back.to_bytes() == blob

    def test_round_trip_preserves_behavior(self):
        rng = random.Random(31)
        keys = [rng.randbytes(8) for _ in range(50)]
        bank = bank_of(*keys)
        back = FilterBank.from_bytes(bank.to_bytes())
        data = rng.randbytes(3000)
        a = bank.scan(data)
        b = back.scan(data)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            FilterBank.from_bytes(b"NOPE" + b"\x00" * 100)

    def test_truncated_or_padded_blob_raises_value_error(self):
        rng = random.Random(41)
        blob = bank_of(b"ab", rng.randbytes(4), rng.randbytes(8)).to_bytes()
        for size in range(len(blob)):
            with pytest.raises(ValueError):
                FilterBank.from_bytes(blob[:size])
        with pytest.raises(ValueError):
            FilterBank.from_bytes(blob + b"\x00")
