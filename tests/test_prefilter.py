from __future__ import annotations

import copy
import dataclasses
import random
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorscan import prefilter, synth
from anchorscan.blob import BlobReader
from anchorscan.decompose import FilterKey, pick_filter_key
from anchorscan.chars import ByteClass
from anchorscan.engine import compile_rules, scan_corpus
from anchorscan.parser import parse
from anchorscan.prefilter import (
    UNIT_DIRECT,
    UNIT_XOR4,
    UNIT_XOR8,
    DirectFilterUnit,
    FilterBank,
    FilterBuildError,
    HeldPairs,
    XorFilterUnit,
    FP_BITS,
    build_filter_bank,
    build_xor_unit,
    splitmix64,
    _DIRECT,
    _DIRECTX,
    _FIND_SETUP,
    _GATHER_PER_BYTE,
    _GATHER_SETUP,
    _HEAD4,
    _HEAD8,
    _LEAD,
    _SCALAR_WINDOWS,
    _SPARSE_LEADS,
    context_gate,
    _splitmix64_vec,
    _unpacked,
)
from anchorscan.stt import REVERSE, run_thread


def key_of(text: bytes) -> FilterKey:
    return FilterKey(tuple(ByteClass.of(b) for b in text))


def bank_of(*keys: bytes) -> FilterBank:
    return build_filter_bank([key_of(k) for k in keys])


def hit_mask(unit: XorFilterUnit, values: np.ndarray) -> np.ndarray:
    """Membership of every value of a uint64 array in a xor unit, as a bool
    array: `contains` over an array, through `_mix_vec`."""
    if not unit.key_count:
        return np.zeros(len(values), dtype=bool)
    slots, fp = unit._mix_vec(values)
    return np.bitwise_xor.reduce(unit.fingerprints[slots], axis=0) == fp


def reference_query(bank: FilterBank, window: bytes, before: bytes = b"") -> bool:
    """Brute-force membership of one 2-, 4- or 8-byte window, through the
    same gates `scan` applies; the reference `scan` must agree with.
    `before` is the byte before the window, empty at window 0: a 2-byte key
    of `ctx2` is a hit only when that byte and the key's first byte are a
    pair of `pre2`."""
    if len(window) == 2:
        if bank.ctx2.contains(window):
            return bool(before) and bank.pre2.contains(before + window[:1])
        return bank.unit2.contains(window)
    if len(window) == 4:
        head, tail = bank.head4, bank.tail4
    elif len(window) == 8:
        head, tail = bank.head8, bank.tail8
    else:
        raise ValueError("window must be 2, 4 or 8 bytes")
    return head.contains(window[:2]) and tail.contains(window[-2:]) and bank.xor.contains(window)


def brute_hits(bank: FilterBank, packet: bytes) -> list[tuple[int, int]]:
    """(end, unit code) of every window `reference_query` accepts, in scan order."""
    return [
        (j, w)  # unit codes equal window widths
        for j in range(len(packet))
        for w in (UNIT_DIRECT, UNIT_XOR4, UNIT_XOR8)
        if j >= w - 1 and reference_query(bank, packet[j - w + 1 : j + 1], packet[max(j - w, 0) : j - w + 1])
    ]


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

    @pytest.mark.parametrize("count", [0, 4094])
    def test_raw_bitmap_a_list_would_beat_raises_value_error(self, count):
        # a set this small is written as a list, so a raw bitmap of it
        # would not re-serialize as the same bytes
        members = np.zeros(65536, dtype=np.uint8)
        members[:count] = 1
        blob = struct.pack("<B", 0) + np.packbits(members, bitorder="little").tobytes()
        with pytest.raises(ValueError, match="bitmap where a list is shorter"):
            self.decode(blob)


def reference_build_xor_unit(keys, base_seed, attempts=100) -> XorFilterUnit:
    """The scalar build that `build_xor_unit` replaced: every key hashed
    through `_mix` in the peel and again in the backfill, slots written as
    numpy scalars. Kept as the reference its units must equal exactly."""
    unit = XorFilterUnit()
    values = sorted({int.from_bytes(k, "big") for k in keys})
    if not values:
        return unit
    unit.key_count = len(values)
    unit.block_len = -(-(32 + -(-123 * len(values) // 100)) // 3)
    for attempt in range(attempts):
        unit.seed = splitmix64(base_seed ^ (attempt * 0x9E3779B97F4A7C15 & (2**64 - 1)))
        m = 3 * unit.block_len
        count, key_xor, triples = [0] * m, [0] * m, []
        for idx, value in enumerate(values):
            triple = unit._mix(value)[:3]
            triples.append(triple)
            for j in triple:
                count[j] += 1
                key_xor[j] ^= idx
        stack = []
        queue = [j for j in range(m) if count[j] == 1]
        while queue:
            slot = queue.pop()
            if count[slot] != 1:
                continue
            idx = key_xor[slot]
            stack.append((values[idx], slot))
            for j in triples[idx]:
                count[j] -= 1
                key_xor[j] ^= idx
                if count[j] == 1:
                    queue.append(j)
        if len(stack) != len(values):
            continue
        slots = np.zeros(m, dtype=np.uint8)
        for value, slot in reversed(stack):
            i0, i1, i2, acc = unit._mix(value)
            for j in (i0, i1, i2):
                if j != slot:
                    acc ^= int(slots[j])
            slots[slot] = acc
        unit.fingerprints = slots
        return unit
    raise FilterBuildError("reference build failed")


class TestXorUnit:
    @given(
        st.sets(st.sampled_from([4, 8]).flatmap(lambda w: st.binary(min_size=w, max_size=w)), max_size=300).map(sorted),
        st.integers(0, 2**32),
        st.integers(1, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_build_equals_reference(self, keys, seed, attempts):
        # keys of both widths, as the bank's one unit holds them
        try:
            want = reference_build_xor_unit(keys, seed, attempts)
        except FilterBuildError:
            with pytest.raises(FilterBuildError):
                build_xor_unit(keys, seed, attempts)
            return
        got = build_xor_unit(keys, seed, attempts)
        assert got == want
        assert got.fingerprints.dtype == want.fingerprints.dtype

    def test_zero_false_negatives_exhaustive(self):
        rng = random.Random(11)
        keys = list({rng.randbytes(8) for _ in range(5000)})
        unit = build_xor_unit(keys, base_seed=123)
        for k in keys:
            assert unit.contains(k)

    def test_false_positive_rate_in_band(self):
        rng = random.Random(12)
        keys = list({rng.randbytes(8) for _ in range(10_000)})
        unit = build_xor_unit(keys, base_seed=99)
        member = set(keys)
        probes = np.frombuffer(rng.randbytes(8 * 100_000), dtype=">u8").astype(np.uint64)
        mask = hit_mask(unit, probes)
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
        unit = build_xor_unit(keys, base_seed=5)
        probes = np.frombuffer(rng.randbytes(4 * 2000), dtype=">u4").astype(np.uint64)
        mask = hit_mask(unit, probes)
        for v, hit in zip(probes.tolist(), mask.tolist()):
            assert unit.contains(int(v).to_bytes(4, "big")) == bool(hit)

    def test_deterministic_build(self):
        keys = [bytes([i, i + 1, 3, 7]) for i in range(0, 200, 2)]
        a = build_xor_unit(keys, base_seed=42)
        b = build_xor_unit(list(reversed(keys)), base_seed=42)
        assert a == b

    def test_empty_unit_rejects_everything(self):
        unit = build_xor_unit([], base_seed=1)
        assert unit.key_count == 0
        assert not unit.contains(b"abcd")
        assert not hit_mask(unit, np.arange(10, dtype=np.uint64)).any()

    @given(st.sets(st.binary(min_size=4, max_size=4), min_size=1, max_size=200), st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_members_always_found(self, keys, seed):
        unit = build_xor_unit(sorted(keys), base_seed=seed)
        assert all(unit.contains(k) for k in keys)

    def test_fingerprints_are_one_byte(self):
        rng = random.Random(8)
        keys = [rng.randbytes(8) for _ in range(200)]
        bank = bank_of(*keys)
        assert bank.xor.fingerprints.dtype == np.uint8
        # the blob ends with the xor unit's slots, one byte each
        blob = bank.to_bytes()
        slots = bank.xor.fingerprints
        assert len(slots) == 3 * bank.xor.block_len and blob.endswith(slots.tobytes())
        back = FilterBank.from_bytes(blob)
        assert back.xor.fingerprints.dtype == np.uint8
        assert back == bank
        assert all(reference_query(back, k) for k in keys)


class TestOneRoundHash:
    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), st.integers(1, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_slots_fall_in_their_blocks(self, value, seed, block_len):
        unit = XorFilterUnit(seed=seed, block_len=block_len, key_count=1)
        i0, i1, i2, fp = unit._mix(value)
        assert 0 <= i0 < block_len <= i1 < 2 * block_len <= i2 < 3 * block_len
        assert 0 <= fp < 2**FP_BITS
        slots, fps = unit._mix_vec(np.array([value], dtype=np.uint64))
        assert slots[:, 0].tolist() == [i0, i1, i2] and fps.tolist() == [fp]

    @given(
        st.lists(st.binary(min_size=4, max_size=4), max_size=12),
        st.lists(st.binary(min_size=8, max_size=8), max_size=12),
        st.binary(max_size=80),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_vector_path_equals_scalar_path(self, keys4, keys8, filler, data):
        """The one vectorized call over the windows of both widths, and the
        scalar loop, give for every window what `contains` gives; either
        width may have no keys."""
        bank = bank_of(*keys4, *keys8)
        planted = data.draw(st.lists(st.sampled_from(keys4 + keys8), max_size=4)) if keys4 + keys8 else []
        packet = filler + b"".join(planted)
        starts4, starts8 = range(len(packet) - 3), range(len(packet) - 7)
        want = sorted(
            [(k + 3, UNIT_XOR4) for k in starts4 if bank.xor.contains(packet[k : k + 4])]
            + [(k + 7, UNIT_XOR8) for k in starts8 if bank.xor.contains(packet[k : k + 8])]
        )
        for s4, s8 in ((list(starts4), list(starts8)), (np.array(starts4), np.array(starts8))):
            with mock.patch.object(prefilter, "_SCALAR_WINDOWS", len(packet)):
                scalar = bank._hashed_hits(packet, s4, s8)
            for got in (scalar, bank._hash_vector(packet, s4, s8)):
                assert all(type(h) is int for h in got)
                assert list(zip(*_unpacked(got))) == want
        ends = {e for e, _ in want}
        at = len(filler)
        for key in planted:  # every planted key is a hit
            at += len(key)
            assert at - 1 in ends


class TestBankScan:
    def test_hits_are_window_ends(self):
        bank = bank_of(b"cd")
        ends, units = bank.scan(b"abcdcd")
        assert ends == [3, 5]
        assert set(units) == {UNIT_DIRECT}

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
        hits = set(zip(ends, units))
        assert (103, UNIT_XOR4) in hits
        assert (161, UNIT_XOR8) in hits
        assert (163, UNIT_DIRECT) in hits

    @pytest.mark.parametrize("path", ["scalar", "vector", "dense"])
    def test_keys_of_equal_value_across_widths(self, path, monkeypatch):
        # one integer, so one member of the one xor unit; each key is still
        # found at its own width, on every scan path
        if path == "vector":  # every gated window is hashed in the vectorized call
            monkeypatch.setattr(prefilter, "_SCALAR_WINDOWS", -1)
        if path == "dense":
            monkeypatch.setattr(prefilter, "_SPARSE_LEADS", -1)
        k4, k8 = b"abcd", b"\0\0\0\0abcd"
        assert int.from_bytes(k4, "big") == int.from_bytes(k8, "big")
        bank = bank_of(k4, k8)
        assert bank.xor.key_count == 1 and bank.key_count == 1
        assert list(zip(*bank.scan(k4))) == [(3, UNIT_XOR4)]
        # the 8-byte key ends in the 4-byte one
        assert list(zip(*bank.scan(k8))) == [(7, UNIT_XOR4), (7, UNIT_XOR8)]
        for packet in (k4, k8, b"zz" + k4 + b"zz", b"z" + k8 + b"z" + k4, k4 + k8, b"\0" * 12 + k4):
            assert list(zip(*bank.scan(packet))) == brute_hits(bank, packet)

    def test_unit_order_at_equal_offset(self):
        # plant a 2-key and a 4-key ending at the same offset
        bank = bank_of(b"cd", b"abcd")
        ends, units = bank.scan(b"xabcdy")
        same = [(e, u) for e, u in zip(ends, units) if e == 4]
        assert same == [(4, UNIT_DIRECT), (4, UNIT_XOR4)]

    # lead pairs: cd (the 2-byte key), ab and wx (4-byte heads), ef (the
    # 8-byte head); wxyz holds no 2-byte key, so its hits come alone
    exits_bank = bank_of(b"cd", b"abcd", b"wxyz", b"efghijkl")

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize(
        "packet, leads, hits",
        [
            (b"zzzzzzzzzzzz", 0, []),  # no lead window
            (b"zabzzwxzzefzzzzzzz", 3, []),  # head leads whose tails fail
            (b"zcdzzcdcd", 3, [(2, UNIT_DIRECT), (6, UNIT_DIRECT), (8, UNIT_DIRECT)]),  # direct hits only
            (b"zzwxyzzz", 1, [(5, UNIT_XOR4)]),  # a xor hit only
            (b"zabcdz", 2, [(4, UNIT_DIRECT), (4, UNIT_XOR4)]),  # the direct hit first at a shared end
        ],
    )
    def test_each_exit_equals_brute(self, packet, leads, hits, dense, monkeypatch):
        if dense:  # every packet of two bytes or more takes the dense path
            monkeypatch.setattr(prefilter, "_SPARSE_LEADS", -1)
        bank = self.exits_bank
        windows = np.ndarray((len(packet) - 1,), "<u2", packet, 0, (1,))
        assert np.count_nonzero(bank.flags[windows] >= _LEAD) == leads
        first, second = bank.scan(packet), bank.scan(packet)
        assert list(zip(*first)) == hits == brute_hits(bank, packet)
        assert all(type(x) is int for x in first[0] + first[1])
        # fresh lists on every call: a caller may keep or change them
        assert first == second
        assert first[0] is not second[0] and first[1] is not second[1]

    def test_short_packets(self):
        bank = bank_of(b"ab", b"abcd", b"abcdefgh")
        for data in [b"", b"a", b"ab", b"abc"]:
            ends, units = bank.scan(data)
            expected = [1] if data == b"ab" or data == b"abc" else []
            got = [e for e, u in zip(ends, units) if u == UNIT_DIRECT]
            assert got == expected

    def test_empty_bank(self):
        bank = build_filter_bank([])
        assert bank.key_count == 0
        ends, units = bank.scan(b"anything goes here")
        assert len(ends) == 0
        for w in (b"ab", b"abcd", b"abcdefgh"):
            assert not reference_query(bank, w)

    def test_class_keys_expand(self):
        (split,) = pick_filter_key(parse("x[ab]yz").tree)
        bank = build_filter_bank([split.key])
        # key covers both expansions
        assert reference_query(bank, b"xayz") and reference_query(bank, b"xbyz")

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
        got = list(zip(ends, units))
        assert got == brute_hits(bank, packet)
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
        for w, code in ((4, UNIT_XOR4), (8, UNIT_XOR8)):
            values = np.zeros(len(data) - w + 1, dtype=np.uint64)
            for col in range(w):
                values = (values << np.uint64(8)) | u[col : len(u) - w + 1 + col]
            ungated = set((np.flatnonzero(hit_mask(bank.xor, values)) + w - 1).tolist())
            gated = {int(e) for e, c in zip(ends, units) if c == code}
            assert gated <= ungated
            assert gated == {e for e in ungated if reference_query(bank, data[e - w + 1 : e + 1])}
            assert {e for e, width in planted.items() if width == w} <= gated
            assert len(gated) < len(ungated)

    def test_scalar_query_matches_scan(self):
        rng = random.Random(23)
        keys = [rng.randbytes(4) for _ in range(100)]
        bank = bank_of(*keys)
        data = rng.randbytes(2000)
        ends, units = bank.scan(data)
        got4 = {int(e) for e, u in zip(ends, units) if u == UNIT_XOR4}
        want4 = {i for i in range(3, len(data)) if reference_query(bank, data[i - 3 : i + 1])}
        assert got4 == want4


class TestHashingThreshold:
    """`scan` hashes up to _SCALAR_WINDOWS gated windows of a unit one by one
    and more in one vectorized call; both paths must give the same hits."""

    # disjoint alphabets, so no window of one unit passes the other's gates,
    # and no key holds the separator byte 0
    keys4 = [bytes(random.Random(i).choices(b"abcdefgh", k=4)) for i in range(6)]
    keys8 = [bytes(random.Random(i).choices(b"ABCDEFGH", k=8)) for i in range(6)]
    bank = bank_of(b"a\x01", *keys4, *keys8)

    def packet(self, keys: list[bytes], count: int) -> bytes:
        """`count` gated windows of the keys' width: every third one a real
        key, the rest one key's head pair joined to another key's tail pair."""
        w = len(keys[0])
        rng = random.Random(count * w)
        out = bytearray(b"\x00" * w)
        for i in range(count):
            a, b = rng.choice(keys), rng.choice(keys)
            out += a if i % 3 == 0 else a[:2] + rng.randbytes(w - 4) + b[-2:]
            out += b"\x00" * (w - 1)  # no window straddling two plants passes
        return bytes(out)

    def gated_windows(self, packet: bytes, w: int) -> int:
        keys = self.keys4 if w == 4 else self.keys8
        heads, tails = {k[:2] for k in keys}, {k[-2:] for k in keys}
        return sum(
            packet[k : k + 2] in heads and packet[k + w - 2 : k + w] in tails
            for k in range(len(packet) - w + 1)
        )

    def assert_scan_is_brute(self, packet: bytes) -> None:
        ends, units = self.bank.scan(packet)
        assert all(type(x) is int for x in ends + units)
        assert list(zip(ends, units)) == brute_hits(self.bank, packet)

    @pytest.mark.parametrize("w", [4, 8])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_scalar_and_vector_paths(self, w, extra, monkeypatch):
        calls = []
        vector = FilterBank._hash_vector
        monkeypatch.setattr(
            FilterBank, "_hash_vector", lambda bank, d, s4, s8: calls.append(len(s4) + len(s8)) or vector(bank, d, s4, s8)
        )
        count = _SCALAR_WINDOWS + extra
        packet = self.packet(self.keys4 if w == 4 else self.keys8, count)
        assert self.gated_windows(packet, w) == count
        assert self.gated_windows(packet, 12 - w) == 0
        self.assert_scan_is_brute(packet)
        assert calls == ([count] if extra else [])
        hits = [u for u in self.bank.scan(packet)[1] if u == w]
        assert len(hits) >= -(-count // 3)  # every planted key is found

    def test_one_call_over_both_units(self, monkeypatch):
        # neither unit alone passes the threshold; together they do
        calls = []
        vector = FilterBank._hash_vector
        monkeypatch.setattr(
            FilterBank, "_hash_vector", lambda bank, d, s4, s8: calls.append((len(s4), len(s8))) or vector(bank, d, s4, s8)
        )
        count4 = _SCALAR_WINDOWS // 2 + 1
        count8 = _SCALAR_WINDOWS - count4 + 1
        packet = self.packet(self.keys4, count4) + self.packet(self.keys8, count8)
        assert (self.gated_windows(packet, 4), self.gated_windows(packet, 8)) == (count4, count8)
        self.assert_scan_is_brute(packet)
        assert calls == [(count4, count8)]

    @pytest.mark.parametrize("length", range(10))
    def test_short_packets(self, length):
        k4, k8 = self.keys4[0], self.keys8[0]
        for packet in (k4 + k8, k8 + k4, b"a\x01" + k4 + k4, k4[:2] + k8[-2:] + k8):
            self.assert_scan_is_brute(packet[:length])
            self.assert_scan_is_brute(packet[len(packet) - length :])


class TestLeadWindowThreshold:
    """`scan` visits up to _SPARSE_LEADS lead windows of a packet (those
    whose pair has the direct bit or a head-gate bit) one by one, and tests
    the gates of a packet with more over all its windows at once; both
    paths must give the same hits."""

    key = b"ABCDEFGH"
    # lead pairs: AB (both head gates), EF (a 4-key head), GH (the 2-key)
    bank = bank_of(b"GH", b"ABCD", b"EFGH", key)

    def lead_windows(self, packet: bytes) -> int:
        sets = (self.bank.unit2, self.bank.head4, self.bank.head8)
        return sum(any(s.contains(packet[k : k + 2]) for s in sets) for k in range(len(packet) - 1))

    def packet(self, leads: int) -> bytes:
        """`leads` lead windows, with a key of every width in the first and
        the last windows, direct hits between, and gated 4- and 8-byte
        windows that are not keys."""
        middle = b"\x00GH\x00ABGH\x00AB\x01\x02\x03\x04GH\x00EF\x05GH\x00"
        top = leads - self.lead_windows(self.key + middle + self.key)
        assert top >= 0
        return self.key + middle + b"AB\x00" * top + self.key

    def assert_scan_is_brute(self, packet: bytes) -> list[tuple[int, int]]:
        ends, units = self.bank.scan(packet)
        assert all(type(x) is int for x in ends + units)
        hits = list(zip(ends, units))
        assert hits == brute_hits(self.bank, packet)
        return hits

    @pytest.mark.parametrize("extra", [0, 1])
    def test_sparse_and_dense_paths(self, extra, monkeypatch):
        calls = []
        dense = FilterBank._scan_dense
        monkeypatch.setattr(FilterBank, "_scan_dense", lambda bank, *a: calls.append(1) or dense(bank, *a))
        packet = self.packet(_SPARSE_LEADS + extra)
        assert self.lead_windows(packet) == _SPARSE_LEADS + extra
        hits = self.assert_scan_is_brute(packet)
        assert calls == ([1] if extra else [])
        end = len(packet) - 1
        assert {(3, UNIT_XOR4), (7, UNIT_XOR8)} <= set(hits)  # the first windows
        assert {(end, UNIT_DIRECT), (end, UNIT_XOR4), (end, UNIT_XOR8)} <= set(hits)  # the last

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("length", range(10))
    def test_short_packets(self, length, dense, monkeypatch):
        if dense:  # every packet of two bytes or more takes the dense path
            monkeypatch.setattr(prefilter, "_SPARSE_LEADS", -1)
        packet = self.packet(_SPARSE_LEADS)
        # the prefixes end in head pairs whose tail pairs are cut off
        self.assert_scan_is_brute(packet[:length])
        self.assert_scan_is_brute(packet[len(packet) - length :])


def gate_free(bank: FilterBank) -> FilterBank:
    """The same bank with its context gate emptied."""
    return dataclasses.replace(bank, ctx2=DirectFilterUnit.of(()), pre2=DirectFilterUnit.of(()))


def gate_free_db(db):
    """The same database with its bank's context gate emptied; a copy, as a
    new database would derive the gate again."""
    free = copy.copy(db)
    free.bank = gate_free(db.bank)
    return free


def pairs(unit: DirectFilterUnit) -> set[bytes]:
    return {bytes([v >> 8, v & 0xFF]) for v in np.flatnonzero(unit.members()).tolist()}


class TestContextGate:
    """A 2-byte key of `ctx2`, whose reverse run is alive after reading the
    key with nothing accepted, is a hit at window k only when k > 0 and
    window k - 1 is a pair of `pre2`; the gate drops only hits whose reverse
    run records nothing."""

    # "ab" and the class expansions "ae" and "af" need an x or a y before
    # them; "cd" is a whole rule, so its run accepts and it is not gated
    db = compile_rules(["[xy]ab", "[xy]a[ef]", "cd"])[0]

    def test_pair_sets(self):
        bank = self.db.bank
        assert pairs(bank.unit2) == {b"ab", b"ae", b"af", b"cd"}
        assert pairs(bank.ctx2) == {b"ab", b"ae", b"af"}
        assert pairs(bank.pre2) == {b"xa", b"ya"}

    def test_lead_bit_marks_every_lead_window(self):
        flags = self.db.bank.flags
        assert np.array_equal(flags >= _LEAD, (flags & (_DIRECT | _DIRECTX | _HEAD4 | _HEAD8)) != 0)
        assert np.count_nonzero(flags >= _LEAD) == 4

    def test_bank_from_keys_alone_has_no_gate(self):
        bank = bank_of(b"ab", b"abcd")
        assert bank.ctx2.key_count == bank.pre2.key_count == 0
        assert bank.scan(b"ab") == ([1], [UNIT_DIRECT])

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize(
        "packet, ends",
        [
            (b"ab", []),  # window 0, also the last window
            (b"xab", [2]),
            (b"zab", []),
            (b"abxa", []),  # window 0, with a `pre2` pair as the last window
            (b"xaab", []),  # a `pre2` pair two windows before
            (b"yaf", [2]),  # a key of a class expansion
            (b"zaexab", [5]),
            (b"xyaeyaf", [3, 6]),
            (b"cdcd", [1, 3]),  # an ungated key at window 0
            (b"xacd", [3]),
        ],
    )
    def test_gated_hits(self, packet, ends, dense, monkeypatch):
        if dense:  # every packet of two bytes or more takes the dense path
            monkeypatch.setattr(prefilter, "_SPARSE_LEADS", -1)
        bank = self.db.bank
        got = list(zip(*bank.scan(packet)))
        assert got == [(e, UNIT_DIRECT) for e in ends] == brute_hits(bank, packet)
        for end, _unit in set(zip(*gate_free(bank).scan(packet))) - set(got):
            assert run_thread(self.db.reverse_stt, packet, end, REVERSE)[0] == []

    @pytest.mark.parametrize("dense", [False, True])
    def test_xor_hit_at_a_dropped_end_is_kept(self, dense, monkeypatch):
        # a compiled bank would let "za" through, as "zzab"'s front reads
        # on past "ab"; a forged gate drops the direct hit under the xor one
        if dense:
            monkeypatch.setattr(prefilter, "_SPARSE_LEADS", -1)
        bank = dataclasses.replace(bank_of(b"ab", b"zzab"), ctx2=DirectFilterUnit.of([b"ab"]), pre2=DirectFilterUnit.of([b"xa"]))
        assert list(zip(*bank.scan(b"zzab"))) == [(3, UNIT_XOR4)] == brute_hits(bank, b"zzab")
        assert list(zip(*bank.scan(b"xzzab"))) == [(4, UNIT_XOR4)]
        assert list(zip(*bank.scan(b"zzxab"))) == [(4, UNIT_DIRECT)]

    def assert_gate_is_exact(self, db, free, packet: bytes) -> None:
        """On both scan paths: the scan equals the brute query, it drops
        only direct hits of the gate-free bank, and the reverse run from
        each dropped end records nothing."""
        for sparse_leads in (_SPARSE_LEADS, -1):  # -1: every packet takes the dense path
            with mock.patch.object(prefilter, "_SPARSE_LEADS", sparse_leads):
                gated = list(zip(*db.bank.scan(packet)))
                ungated = set(zip(*free.bank.scan(packet)))
            assert gated == brute_hits(db.bank, packet)
            assert set(gated) <= ungated
            for end, unit in ungated - set(gated):
                assert unit == UNIT_DIRECT
                assert run_thread(db.reverse_stt, packet, end, REVERSE)[0] == []

    @given(st.integers(0, 2**32), st.integers(0, 2**32), st.integers(4, 16))
    @settings(max_examples=40, deadline=None)
    def test_gate_drops_only_dead_triggers(self, rules_seed, packets_seed, count):
        """Over `synth` rule sets and traffic, the gate is exact (above),
        also with each direct key moved to window 0 and the pair before it
        to the last window; and the matches equal those of the same
        database with its gate emptied."""
        rules = synth.diff_ruleset(count, seed=rules_seed)
        db = compile_rules(rules)[0]
        free = gate_free_db(db)
        packets = synth.diff_packets(rules, 30, seed=packets_seed)
        for packet in packets:
            self.assert_gate_is_exact(db, free, packet)
            for end, unit in zip(*free.bank.scan(packet)):
                if unit == UNIT_DIRECT and end > 1:
                    self.assert_gate_is_exact(db, free, packet[end - 1 :] + packet[end - 2 : end])
        assert scan_corpus(db, packets, 1).matches == scan_corpus(free, packets, 1).matches


def reference_held_ends(held, ctx2: DirectFilterUnit, pre2: DirectFilterUnit, live: set[int], data: bytes) -> list[int]:
    """`HeldPairs.ends` by brute force: the end of every window whose pair
    serves a rule of `live`, where a pair of `ctx2` at window k also needs
    k > 0 and window k - 1 in `pre2`."""
    chosen = {value.to_bytes(2, "big") for value, rules in held if live.intersection(rules)}
    return [
        k + 1
        for k in range(len(data) - 1)
        if data[k : k + 2] in chosen and (not ctx2.contains(data[k : k + 2]) or (k and pre2.contains(data[k - 1 : k + 1])))
    ]


def held_pairs(values, rules: int, seed: int):
    """Held entries over sorted pair `values`, each serving a random
    non-empty, increasing set of `rules` rules."""
    rng = random.Random(seed)
    return tuple((v, tuple(sorted(rng.sample(range(rules), rng.randint(1, rules))))) for v in sorted(values))


class TestHeldPairs:
    """`HeldPairs.ends` finds the held pairs of the live rules with one
    `bytes.find` loop per pair up to a break-even pair count, and with one
    gather over every window above it; both must equal the reference."""

    @given(
        st.sets(st.integers(0, 15), min_size=1, max_size=16),
        st.integers(0, 2**32),
        st.sets(st.integers(0, 3)),
        st.lists(st.sampled_from(b"abcdx\x00"), max_size=40).map(bytes),
    )
    @settings(max_examples=200, deadline=None)
    def test_both_methods_equal_the_reference(self, picks, seed, live, data):
        # pairs over a 5-letter alphabet, so packets over it hold many
        values = [(b"abcdx"[i % 5] << 8) | b"abcdx"[i // 5 % 5] for i in picks]
        rng = random.Random(seed)
        held = held_pairs(set(values), 4, seed)
        ctx2 = DirectFilterUnit.of_values([v for v, _r in held if rng.random() < 0.5])
        pre2 = DirectFilterUnit.of_values([(x << 8) | y for x in b"abcdx" for y in b"abcdx" if rng.random() < 0.3])
        search = HeldPairs(held, ctx2, pre2)
        want = reference_held_ends(held, ctx2, pre2, live, data)
        chosen = sum(1 << slot for slot, (_v, rules) in enumerate(held, 1) if live.intersection(rules))
        assert search.ends(data, live) == want
        assert search._find_ends(data, chosen) == want
        if len(data) >= 2:  # `ends` asks the gather for two bytes or more
            assert search._gather_ends(data, chosen) == want

    @pytest.mark.parametrize("count", [200, 33_000])
    def test_wide_slot_tables(self, count):
        # past 127 pairs a slot takes 16 bits, past 32 767 it takes 32
        rng = random.Random(count)
        held = held_pairs(rng.sample(range(65536), count), 3, count)
        ctx2 = DirectFilterUnit.of_values([v for v, _r in held[::3]])
        pre2 = DirectFilterUnit.of_values(rng.sample(range(65536), 20_000))
        search = HeldPairs(held, ctx2, pre2)
        assert search._table.dtype == (np.uint16 if count < 32768 else np.uint32)
        for live in ({0}, {1, 2}):
            chosen = sum(1 << slot for slot, (_v, rules) in enumerate(held, 1) if live.intersection(rules))
            for _ in range(3):
                data = b"".join(v.to_bytes(2, "big") + rng.randbytes(rng.randrange(3)) for v, _r in rng.sample(held, 150))
                want = reference_held_ends(held, ctx2, pre2, live, data)
                assert search._gather_ends(data, chosen) == search._find_ends(data, chosen) == want

    @pytest.mark.parametrize("n", [111, 1500])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_break_even(self, n, extra, monkeypatch):
        # `find` up to the break-even pair count, the gather past it
        pairs_at = next(p for p in range(1, 64) if (p + 1) * (n + _FIND_SETUP) > _GATHER_PER_BYTE * n + _GATHER_SETUP)
        held = tuple((v, (i,)) for i, v in enumerate(range(0x6161, 0x6161 + 64)))
        search = HeldPairs(held, DirectFilterUnit.of(()), DirectFilterUnit.of(()))
        calls = []
        for name in ("_find_ends", "_gather_ends"):
            method = getattr(HeldPairs, name)
            monkeypatch.setattr(HeldPairs, name, lambda self, d, c, name=name, method=method: calls.append(name) or method(self, d, c))
        data = b"".join(v.to_bytes(2, "big") for v, _r in held)[:n].ljust(n, b"-")
        live = set(range(pairs_at + extra))
        assert search.ends(data, live) == reference_held_ends(held, DirectFilterUnit.of(()), DirectFilterUnit.of(()), live, data)
        assert calls == ["_gather_ends" if extra else "_find_ends"]

    @pytest.mark.parametrize("gather", [False, True])
    @pytest.mark.parametrize("data, ends", [(b"", []), (b"a", []), (b"ab", [1]), (b"xa", []), (b"aaa", [1, 2])])
    def test_short_packets(self, data, ends, gather, monkeypatch):
        monkeypatch.setattr(prefilter, "_GATHER_SETUP", -(10**9) if gather else 10**9)
        held = ((pair_value(b"aa"), (0,)), (pair_value(b"ab"), (0,)))
        assert HeldPairs(held, DirectFilterUnit.of(()), DirectFilterUnit.of(())).ends(data, {0}) == ends
        assert HeldPairs(held, DirectFilterUnit.of(()), DirectFilterUnit.of(())).ends(data, {1}) == []


def pair_value(text: bytes) -> int:
    return (text[0] << 8) | text[1]


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
        assert back.scan(data) == bank.scan(data)

    def test_blob_holds_five_pair_sets_and_one_unit(self):
        # no magic, version, width byte or context gate: the direct unit
        # and the four gates, then the xor unit's 16-byte header (seed, key
        # count, block length) and its one-byte slots
        bank = bank_of(b"ab", b"abcd", b"wxyz", b"efghijkl")
        pair_sets = (bank.unit2, bank.head4, bank.tail4, bank.head8, bank.tail8)
        size = sum(len(p.to_bytes()) for p in pair_sets) + 16 + 3 * bank.xor.block_len
        assert bank.xor.key_count == 3 and len(bank.to_bytes()) == size

    def test_gated_bank_round_trips(self):
        db = TestContextGate.db
        bank, rev = db.bank, db.reverse_stt
        assert bank.ctx2.key_count
        blob = bank.to_bytes()
        # the gate is not stored: a load has none, and the reverse table
        # gives it again
        assert blob == gate_free(bank).to_bytes()
        back = FilterBank.from_bytes(blob)
        assert back == gate_free(bank) != bank
        back = dataclasses.replace(back, **dict(zip(("ctx2", "pre2"), context_gate(back.unit2, rev))))
        assert back == bank
        assert back.to_bytes() == blob
        assert back.scan(b"abxabzab") == bank.scan(b"abxabzab") == ([4], [UNIT_DIRECT])

    def test_bad_magic(self):
        # a bank has no magic: junk fails on its first pair-set tag, "N"
        with pytest.raises(ValueError, match="unknown pair-set encoding 78"):
            FilterBank.from_bytes(b"NOPE" + b"\x00" * 100)

    def test_truncated_or_padded_blob_raises_value_error(self):
        rng = random.Random(41)
        for bank in (bank_of(b"ab", rng.randbytes(4), rng.randbytes(8)), TestContextGate.db.bank):
            blob = bank.to_bytes()
            for size in range(len(blob)):
                with pytest.raises(ValueError):
                    FilterBank.from_bytes(blob[:size])
            with pytest.raises(ValueError):
                FilterBank.from_bytes(blob + b"\x00")
