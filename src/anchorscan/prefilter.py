"""The filter bank: membership structures gating the rest of the pipeline.

Two units. Length-2 keys live in an exact 2^16-bit bitmap (no false
positives). Length-4 and length-8 keys live together in one 3-way xor
filter, each read as a big-endian integer: per key, three slots chosen by
hash must xor to the key's fingerprint. Lookups cost three loads and never
miss a member. The two widths share one key space, so a 4-byte key and an
8-byte key of the same value are one member; such an alias can only add a
false positive. A window is hashed with one `splitmix64` round; each slot
maps a 21-bit chunk of that hash into its block by multiply-shift, and the
one-byte fingerprint is the top 8 bits of the hash times the golden ratio
(`XorFilterUnit._mix`), so a lookup needs no second round and no division.
Non-members pass at about 2^-8.

Each width sits behind two more 2^16-bit bitmaps, its gates: the set of
first two bytes and the set of last two bytes of its concrete keys. Scanning
maps every 2-byte window of a packet to one flag byte (the direct unit's
bits, the four gate bits and a lead bit) with a single gather, reports the
direct hits, and hashes a 4- or 8-byte window only when its head and tail
pairs both pass their width's gates. Every key passes its own gates, so the
gates cost no false negatives; on clean traffic most packets make no hash
call at all. A xor hit is reported with its window's width as its unit
code, `UNIT_XOR4` or `UNIT_XOR8`.

The direct unit has a context gate too, read off the reverse automaton
that runs from every hit. A 2-byte key (a, b) whose reverse run is still
alive after reading b and a, with nothing accepted, is in `ctx2`: its run
records nothing unless it survives the byte x before the key as well.
`pre2` holds every pair (x, a) after which the run of some `ctx2` key
(a, .) is alive. A `ctx2` hit at window k is reported only when k > 0 and
window k - 1 is in `pre2`, so the gate drops only hits whose reverse thread
would record nothing. The gate is derived, never stored: a database reads
it off its reverse table (`context_gate`) when it is compiled or loaded.
A bank built or loaded from keys alone has no context gate.

Only lead windows, those with a direct bit or a head-gate bit, can start a
hit; their flags carry the top bit, so `flags >= 0x80` lists them, once per
packet. A packet with few of them (a 1500-byte random packet has about 6)
is finished by one Python pass over its lead windows, or at once when it
has none; one with many is tested with numpy over all windows. Windows are
read in place through one-byte-stride views of the packet. Both paths hash
their gated windows in one place: one by one with the scalar `contains`
when a packet has few, and otherwise in one vectorized call over the
windows of both widths. `scan` returns its hits as lists of plain ints, new
on every call; the Python pass collects its direct hits in order and sorts
only when a xor hit joins them. Tests hold `scan` to a brute-force
per-window query that applies the same gates.

The engine keeps the 2-byte keys that only non-trigger fragments need out
of the bank, as `HeldPairs`: a packet is searched for those pairs only
when a rule they serve is live in it, behind a context gate of their own.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import or_

import numpy as np

from .automata import DEAD
from .blob import BlobReader
from .decompose import FilterKey
from .stt import CompressedStt

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_CHUNK_BITS = 21  # a slot comes from one 21-bit chunk of a window's hash
_CHUNK = (1 << _CHUNK_BITS) - 1
#: fingerprint width of the xor unit: one byte per slot
FP_BITS = 8

#: unit codes; also the tie-break order for hits at the same end offset
UNIT_DIRECT = 2
UNIT_XOR4 = 4
UNIT_XOR8 = 8

# bits of FilterBank.flags; each head bit sits one above its tail bit, so
# `(flags[head] >> 1) & flags[tail] & _TAILw` tests both gates of a window,
# and `_PRE` sits one above `_DIRECTX` the same way: a `_DIRECTX` window k
# is a hit only when window k - 1 has `_PRE`
_DIRECT = 0x01  # a 2-byte key, reported as it is
_TAIL4 = 0x02
_HEAD4 = 0x04
_TAIL8 = 0x08
_HEAD8 = 0x10
_DIRECTX = 0x20  # a 2-byte key of `ctx2`, reported only behind a `_PRE` window
_PRE = 0x40  # a pair of `pre2`
#: set on every lead window, one that can start a hit (a direct bit or a
#: head-gate bit), as the top bit, so `flags >= _LEAD` lists the leads
_LEAD = 0x80

#: gated windows per packet, over both widths, up to which `scan` hashes
#: each window in a scalar loop instead of one vectorized call over all of
#: them. On a 2-core x86 host with numpy 2.4 the call costs a near-fixed
#: 25-28 us (about 35 numpy dispatches) whatever its length, and a window
#: in the scalar loop, one `contains` call, about 1.7-1.8 us, so the two
#: break even near 15 windows.
#: Of the benchmark packets, each `hitdense` one has 56 or more gated
#: windows, and every seed-1 `planted` one 9 or fewer.
_SCALAR_WINDOWS = 16

#: lead windows per packet up to which `scan` visits each in Python instead
#: of testing the gates over every window with numpy. Both paths list the
#: leads first, so the choice costs no extra pass. On 1500-byte packets
#: (2-core x86 host, numpy 2.4) the Python pass costs about 7 us plus
#: 0.25 us per lead window (5.4 us with none), and the numpy test 29-37 us;
#: with every other lead window hashed they break even at 88-92 lead
#: windows (128-144 without hashing). A packet of the seed-1 and seed-2
#: benchmark corpora has at most 60 lead windows, or at least 179.
_SPARSE_LEADS = 88

#: the dtype of a packet's 2-byte windows as `scan` reads them, parsed once
_U16 = np.dtype("<u2")

# A hit is packed into one int, `(end << 2) | unit`, with unit 0, 1 and 2
# for the direct, xor-4 and xor-8 units: sorting the ints orders hits by
# end and then by unit code, and the code is `UNIT_DIRECT << unit`. A
# w-byte window at start k ends at k + w - 1, so its hit is `4k + _BIAS`.
# The sparse path packs its direct hits only to merge them with xor hits.
_BIAS4 = (3 << 2) | 1
_BIAS8 = (7 << 2) | 2
_BIASES = np.array([_BIAS4, _BIAS8], dtype=np.int64)


def splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


_GOLDEN_U64 = np.uint64(_GOLDEN)
_MIX_STEPS = ((np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)), (np.uint64(27), np.uint64(0x94D049BB133111EB)))
_LAST_SHIFT = np.uint64(31)
_CHUNK_SHIFTS = np.array([[0], [21], [42]], dtype=np.uint64)  # per slot, its chunk
_THIRDS = np.array([[0], [1], [2]], dtype=np.uint64)  # per slot, its block
_CHUNK_U64 = np.uint64(_CHUNK)
_CHUNK_BITS_U64 = np.uint64(_CHUNK_BITS)
_FP_SHIFT = np.uint64(64 - FP_BITS)


def _splitmix64_vec(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """`splitmix64` over an array, into `out` (which may be `x` itself) or
    one new uint64 array; every later step works in place on it, through
    one temporary array for the shifts."""
    x = np.add(x, _GOLDEN_U64, out=out, dtype=np.uint64)
    shifted = np.empty_like(x)
    for shift, mul in _MIX_STEPS:
        x ^= np.right_shift(x, shift, out=shifted)
        x *= mul
    x ^= np.right_shift(x, _LAST_SHIFT, out=shifted)
    return x


def _windows(data: bytes, w: int) -> np.ndarray:
    """Every w-byte window of `data` read in place as a big-endian integer."""
    return np.ndarray((max(len(data) - w + 1, 0),), f">u{w}", data, 0, (1,))


class FilterBuildError(RuntimeError):
    pass


# --- exact unit for 2-byte keys ------------------------------------------------


class DirectFilterUnit:
    """65536-bit bitmap indexed by the big-endian value of a 2-byte window."""

    def __init__(self, bitmap: np.ndarray):
        self.bitmap = bitmap

    @staticmethod
    def of(keys) -> "DirectFilterUnit":
        """The unit holding every 2-byte string in `keys`."""
        return DirectFilterUnit.of_values([(k[0] << 8) | k[1] for k in keys])

    @staticmethod
    def of_values(values) -> "DirectFilterUnit":
        """The unit holding the 2-byte strings of these big-endian values."""
        members = np.zeros(65536, dtype=np.uint8)
        members[values] = 1
        return DirectFilterUnit(np.packbits(members, bitorder="little"))

    def contains(self, window: bytes) -> bool:
        idx = (window[0] << 8) | window[1]
        return bool((int(self.bitmap[idx >> 3]) >> (idx & 7)) & 1)

    @property
    def key_count(self) -> int:
        return int(np.unpackbits(self.bitmap).sum())

    def members(self) -> np.ndarray:
        """uint8 0/1 per 2-byte window value, indexed like `contains`."""
        return np.unpackbits(self.bitmap, bitorder="little")

    def __eq__(self, other) -> bool:
        return isinstance(other, DirectFilterUnit) and np.array_equal(self.bitmap, other.bitmap)

    # serialized as a one-byte tag, then whichever is smaller: the raw
    # bitmap, or a u16 count and the strictly increasing u16 member values
    _RAW = 0
    _LIST = 1
    _MAX_LIST = (8192 - 3) // 2  # longest list still smaller than the raw bitmap

    def to_bytes(self) -> bytes:
        members = np.flatnonzero(self.members())
        if len(members) > self._MAX_LIST:
            return struct.pack("<B", self._RAW) + self.bitmap.tobytes()
        return struct.pack("<BH", self._LIST, len(members)) + members.astype("<u2").tobytes()

    @staticmethod
    def read(r: BlobReader) -> "DirectFilterUnit":
        (tag,) = r.unpack("<B")
        if tag == DirectFilterUnit._RAW:
            unit = DirectFilterUnit(r.array("u1", 8192))
            if unit.key_count <= DirectFilterUnit._MAX_LIST:
                raise ValueError(f"pair set of {unit.key_count} members is a bitmap where a list is shorter")
            return unit
        if tag != DirectFilterUnit._LIST:
            raise ValueError(f"unknown pair-set encoding {tag}")
        (count,) = r.unpack("<H")
        if count > DirectFilterUnit._MAX_LIST:
            raise ValueError(f"pair-set list of {count} members is longer than its bitmap")
        values = r.array("<u2", count).astype(np.int64)
        if np.any(values[1:] <= values[:-1]):
            raise ValueError("pair-set list is not strictly increasing")
        return DirectFilterUnit.of_values(values)


# --- the xor unit for 4- and 8-byte keys ---------------------------------------


@dataclass
class XorFilterUnit:
    """3-way xor filter over byte windows read as big-endian integers.

    `fingerprints` holds three consecutive blocks of `block_len` one-byte
    slots; a key hashes to one slot per block and is a member iff the three
    slots xor to its fingerprint. Windows of every width share the one key
    space of their integer values.
    """

    seed: int = 0
    block_len: int = 0
    key_count: int = 0
    fingerprints: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.uint8))

    @cached_property
    def slot_view(self) -> memoryview:
        """`fingerprints` as a memoryview: scalar reads give plain ints, about
        4x cheaper than numpy scalar indexing. Derived, not serialized."""
        return memoryview(self.fingerprints)

    def _mix(self, value: int) -> tuple[int, int, int, int]:
        """The three slots and the fingerprint of a window value, from one
        `splitmix64` round `h`: each slot maps a 21-bit chunk of `h` into
        its block by multiply-shift (Lemire, TOMACS 2019), and the
        fingerprint is the top `FP_BITS` bits of `h` times the golden
        ratio, mod 2^64."""
        h = splitmix64(value ^ self.seed)
        bl = self.block_len
        return (
            (h & _CHUNK) * bl >> _CHUNK_BITS,
            (((h >> 21) & _CHUNK) * bl >> _CHUNK_BITS) + bl,
            (((h >> 42) & _CHUNK) * bl >> _CHUNK_BITS) + 2 * bl,
            (h * _GOLDEN & _M64) >> (64 - FP_BITS),
        )

    def contains(self, window: bytes) -> bool:
        if not self.key_count:
            return False
        i0, i1, i2, fp = self._mix(int.from_bytes(window, "big"))
        slots = self.slot_view
        return slots[i0] ^ slots[i1] ^ slots[i2] == fp

    def _mix_vec(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`_mix` over a uint64 array: a `(3, n)` int64 array of the three
        slots per value and the uint64 fingerprints. Each step works in
        place on one array per result, so a call makes few dispatches."""
        bl = np.uint64(self.block_len)
        h = np.bitwise_xor(values, np.uint64(self.seed), dtype=np.uint64)
        _splitmix64_vec(h, out=h)
        fp = np.multiply(h, _GOLDEN_U64)
        fp >>= _FP_SHIFT
        slots = np.right_shift(h, _CHUNK_SHIFTS)  # one 21-bit chunk per row
        slots &= _CHUNK_U64
        slots *= bl
        slots >>= _CHUNK_BITS_U64
        slots += _THIRDS * bl  # each row's block start
        return slots.view(np.int64), fp  # every slot is below 2^63

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, XorFilterUnit)
            and self.seed == other.seed
            and self.block_len == other.block_len
            and self.key_count == other.key_count
            and np.array_equal(self.fingerprints, other.fingerprints)
        )


def build_xor_unit(keys: list[bytes], base_seed: int, attempts: int = 100) -> XorFilterUnit:
    """Peel-and-backfill construction over the keys' big-endian values, of
    any width; retries with fresh seeds on failure.

    Each attempt hashes every key once with `_mix_vec`, as the vectorized
    scan does, and the peel and the backfill share the resulting `(3, n)`
    slot array.
    """
    unit = XorFilterUnit()
    values = np.array(sorted({int.from_bytes(k, "big") for k in keys}), dtype=np.uint64)
    n = len(values)
    if not n:
        return unit
    unit.key_count = n
    # 1.23x capacity factor plus constant slack so tiny key sets still peel
    capacity = 32 + -(-123 * n // 100)
    unit.block_len = -(-capacity // 3)

    for attempt in range(attempts):
        unit.seed = splitmix64(base_seed ^ (attempt * 0x9E3779B97F4A7C15 & _M64))
        slots, fp = unit._mix_vec(values)
        order = _peel(slots, 3 * unit.block_len)
        if order is None:
            continue
        # a key's own slot is still 0 when it is filled, so xor-ing all
        # three slots into its fingerprint leaves the other two's xor
        fps = memoryview(fp)
        a, b, c = map(memoryview, slots)
        cells = [0] * (3 * unit.block_len)
        peeled, filled = order
        for i in reversed(range(n)):
            idx = peeled[i]
            cells[filled[i]] = fps[idx] ^ cells[a[idx]] ^ cells[b[idx]] ^ cells[c[idx]]
        unit.fingerprints = np.array(cells, dtype=np.uint8)
        return unit
    raise FilterBuildError(f"xor unit failed to build after {attempts} seeds for {n} keys")


def _peel(slots: np.ndarray, m: int) -> tuple[memoryview, memoryview] | None:
    """Order keys (by index) so each has a slot no later key touches, as
    two parallel int64 arrays, read through memoryviews: the key indices
    and their slots. None if stuck. `slots` is the `(3, n)` array of every
    key's three slots; memoryviews read and write the arrays as plain ints,
    so the peel holds no int object per key or slot."""
    n = slots.shape[1]
    flat = slots.ravel()
    counts = np.bincount(flat, minlength=m)
    queue = np.flatnonzero(counts == 1).tolist()
    # xor of key indices per slot; identifies the lone key
    key_xors = np.zeros(m, dtype=np.int64)
    np.bitwise_xor.at(key_xors, flat, np.tile(np.arange(n, dtype=np.int64), 3))
    count, key_xor = memoryview(counts), memoryview(key_xors)
    a, b, c = map(memoryview, slots)
    keys, filled = (memoryview(np.empty(n, dtype=np.int64)) for _ in range(2))
    top = 0
    while queue:
        slot = queue.pop()
        if count[slot] != 1:
            continue
        idx = key_xor[slot]
        keys[top] = idx
        filled[top] = slot
        top += 1
        for j in (a[idx], b[idx], c[idx]):
            count[j] -= 1
            key_xor[j] ^= idx
            if count[j] == 1:
                queue.append(j)
    if top != n:
        return None
    return keys, filled


# --- the bank ---------------------------------------------------------------------


@dataclass
class FilterBank:
    unit2: DirectFilterUnit
    #: the 4- and 8-byte keys, in one key space
    xor: XorFilterUnit
    #: gates: first and last two bytes of every concrete 4- and 8-byte key
    head4: DirectFilterUnit
    tail4: DirectFilterUnit
    head8: DirectFilterUnit
    tail8: DirectFilterUnit
    #: the context gate: the 2-byte keys whose hits need their context byte
    #: (a subset of `unit2`), and the pairs (byte before, key's first byte)
    #: that let such a hit through; derived from the reverse table by the
    #: database that holds the bank, not serialized, and both empty in a
    #: bank built or loaded from keys alone
    ctx2: DirectFilterUnit = field(default_factory=lambda: DirectFilterUnit.of(()))
    pre2: DirectFilterUnit = field(default_factory=lambda: DirectFilterUnit.of(()))

    @cached_property
    def flags(self) -> np.ndarray:
        """Little-endian 2-byte window value -> direct, gate and lead bits.
        Derived on first scan and never serialized, so a database that
        gives its bank a context gate builds them once."""
        ctx = self.ctx2.members()
        flags = np.zeros(65536, dtype=np.uint8)
        for bit, members in (
            (_DIRECT, self.unit2.members() > ctx),
            (_TAIL4, self.tail4.members()),
            (_HEAD4, self.head4.members()),
            (_TAIL8, self.tail8.members()),
            (_HEAD8, self.head8.members()),
            (_DIRECTX, ctx),
            (_PRE, self.pre2.members()),
        ):
            flags |= members * np.uint8(bit)
        flags[(flags & (_DIRECT | _DIRECTX | _HEAD4 | _HEAD8)) != 0] |= _LEAD
        return _little_endian(flags)

    @property
    def key_count(self) -> int:
        return self.unit2.key_count + self.xor.key_count

    def scan(self, data: bytes) -> tuple[list[int], list[int]]:
        """All filter hits over a packet.

        Returns (end_offsets, unit_codes), two lists of ints sorted by end
        offset, direct unit before xor-4 before xor-8 at equal offsets.
        """
        n = len(data)
        if n < 2:
            return [], []
        # every 2-byte window read in place as a little-endian integer:
        # element k of a view with a one-byte stride is bytes k..k+1
        flags = self.flags.take(np.ndarray((n - 1,), _U16, data, 0, (1,)))
        leads = (flags >= _LEAD).nonzero()[0]  # listed off a bool array, numpy's fast path
        if len(leads) > _SPARSE_LEADS:
            return self._scan_dense(data, flags)
        if not len(leads):
            return [], []
        fb = flags.tobytes()
        ends = []  # direct hits, ascending
        starts4, starts8 = [], []
        for k in leads.tolist():
            f = fb[k]
            # window k ends at k + 1; a context-gated key needs the pair
            # before it, window k - 1, to pass `pre2`
            if f & _DIRECT or (f & _DIRECTX and k and fb[k - 1] & _PRE):
                ends.append(k + 1)
            # a w-byte window at k passes when its tail pair, window
            # k + w - 2, passes its gate too
            if f & _HEAD4 and k + 2 < n - 1 and fb[k + 2] & _TAIL4:
                starts4.append(k)
            if f & _HEAD8 and k + 6 < n - 1 and fb[k + 6] & _TAIL8:
                starts8.append(k)
        if starts4 or starts8:
            xor = self._hashed_hits(data, starts4, starts8)
            if xor:
                return _unpacked([end << 2 for end in ends] + xor)
        return ends, [UNIT_DIRECT] * len(ends)

    def _scan_dense(self, data: bytes, flags: np.ndarray) -> tuple[list[int], list[int]]:
        """`scan` for a packet with many lead windows: the gates are
        tested over all windows at once, on the flags `scan` gathered."""
        heads = flags >> 1  # head gate bits moved onto their tail bits, `_PRE` onto `_DIRECTX`
        # window k passes when its head pair (flags[k]) and its tail pair
        # (flags[k + w - 2]) both pass their gates
        starts4 = (heads[:-2] & flags[2:] & _TAIL4).nonzero()[0]
        starts8 = (heads[:-6] & flags[6:] & _TAIL8).nonzero()[0]
        # a context-gated key at window k passes when window k - 1 has `_PRE`
        direct = flags & _DIRECT
        direct[1:] |= heads[:-1] & flags[1:] & _DIRECTX
        direct = direct.nonzero()[0]
        direct += 1  # window k ends at k + 1
        direct <<= 2
        hits = np.concatenate((direct, np.array(self._hashed_hits(data, starts4, starts8), dtype=np.int64)))
        hits.sort()
        return (hits >> 2).tolist(), (UNIT_DIRECT << (hits & 3)).tolist()

    def _hashed_hits(self, data: bytes, starts4, starts8) -> list[int]:
        """The packed hits of the gated 4- and 8-byte windows at `starts4`
        and `starts8` (ints, ascending) that the xor unit holds: tested one
        by one with `contains` up to `_SCALAR_WINDOWS` windows, in one
        vectorized call above."""
        if len(starts4) + len(starts8) > _SCALAR_WINDOWS:
            return self._hash_vector(data, starts4, starts8)
        contains = self.xor.contains
        hits = []
        for starts, w, bias in ((starts4, 4, _BIAS4), (starts8, 8, _BIAS8)):
            for k in map(int, starts):
                if contains(data[k : k + w]):
                    hits.append(4 * k + bias)
        return hits

    def _hash_vector(self, data: bytes, starts4, starts8) -> list[int]:
        """`_hashed_hits` in one vectorized pass over the windows of both
        widths."""
        unit = self.xor
        if not unit.key_count:  # an empty unit has no slots to index, and holds no window
            return []
        starts4 = np.asarray(starts4, dtype=np.int64)
        starts8 = np.asarray(starts8, dtype=np.int64)
        values = np.concatenate((_windows(data, 4)[starts4], _windows(data, 8)[starts8]), dtype=np.uint64)
        slots, fp = unit._mix_vec(values)
        held = np.bitwise_xor.reduce(unit.fingerprints[slots], axis=0) == fp
        hits = np.concatenate((starts4, starts8))
        hits *= 4
        hits += _BIASES.repeat((len(starts4), len(starts8)))
        return hits[held].tolist()

    # --- serialization: pair sets, then the xor unit's seed, sizes and slots ---

    def to_bytes(self) -> bytes:
        out = [pair_set.to_bytes() for pair_set in (self.unit2, self.head4, self.tail4, self.head8, self.tail8)]
        out.append(struct.pack("<QII", self.xor.seed, self.xor.key_count, self.xor.block_len))
        out.append(self.xor.fingerprints.tobytes())
        return b"".join(out)

    @staticmethod
    def from_bytes(blob: bytes) -> "FilterBank":
        """The bank of a blob, with no context gate."""
        r = BlobReader(blob, "filter bank")
        unit2, head4, tail4, head8, tail8 = [DirectFilterUnit.read(r) for _ in range(5)]
        seed, key_count, block_len = r.unpack("<QII")
        if (key_count > 0) != (block_len > 0):
            raise ValueError(f"corrupt xor unit header ({key_count} keys, block {block_len})")
        xor = XorFilterUnit(seed, block_len, key_count, r.array(np.uint8, 3 * block_len).copy())
        r.finish()
        return FilterBank(unit2, xor, head4, tail4, head8, tail8)


def _little_endian(flags: np.ndarray) -> np.ndarray:
    """A table over big-endian 2-byte values, reindexed by little-endian
    value: the pair sets index a window by its big-endian value, and the
    scans read windows little-endian, with the first byte low."""
    return np.ascontiguousarray(flags.reshape(256, 256).T).ravel()


#: `HeldPairs.ends` finds each pair with `bytes.find` while
#: `pairs * (n + _FIND_SETUP) <= _GATHER_PER_BYTE * n + _GATHER_SETUP` for a
#: packet of n bytes, and above that gathers every window's slot once. On a
#: 2-core x86 host (Python 3.11, numpy 2.4) a pair's `find` loop costs about
#: 0.28 us plus 1.06 ns a byte, and the gather, about ten numpy calls, about
#: 7.1 us plus 3.1 ns a byte. In units of one byte's `find` that is n + 260
#: per pair against 3n + 6700, so the two break even at about 6 pairs on
#: 1500-byte packets, 14 on 300-byte and 19 on 111-byte ones. Of the seed-1
#: benchmark packets, a `hitdense` one needs 25 pairs at the median, and a
#: `planted` or `clean` one at most 6.
_FIND_SETUP = 260
_GATHER_PER_BYTE = 3
_GATHER_SETUP = 6700


class HeldPairs:
    """2-byte pairs kept out of the filter bank, each serving some rules,
    found in a packet only for the rules that ask, behind the pairs' own
    context gate (`context_gate`, as the bank's direct unit has one).

    Pair i of `held` (1 up) has slot i. `_table` maps a little-endian
    window value to its pair's slot (0 for none) and sets the top bit on a
    window of `pre2`; a context-gated pair at window k counts only when
    window k - 1 has that bit, as in the bank."""

    def __init__(self, held, ctx2: DirectFilterUnit, pre2: DirectFilterUnit):
        """`held` lists (big-endian pair value, rule indices) entries."""
        values = np.array([value for value, _rules in held], dtype=np.int64)
        # slot -> the pair as a 2-byte string (slot 0 is no pair)
        self._pairs = [b"", *(int(v).to_bytes(2, "big") for v in values)]
        # rule index -> the bits of its pairs' slots, for the rules that have any
        self._rule_slots: dict[int, int] = {}
        for slot, (_value, rules) in enumerate(held, 1):
            for rule_idx in rules:
                self._rule_slots[rule_idx] = self._rule_slots.get(rule_idx, 0) | 1 << slot
        self._rules = frozenset(self._rule_slots)
        # the narrowest table whose top bit is free above every slot
        dtype = next(t for t in (np.uint8, np.uint16, np.uint32) if len(values) < 1 << (8 * np.dtype(t).itemsize - 1))
        self._shift = 8 * np.dtype(dtype).itemsize - 1
        self._slot_mask = (1 << self._shift) - 1
        table = np.zeros(65536, dtype=dtype)
        table[values] = np.arange(1, len(values) + 1)
        table |= pre2.members().astype(table.dtype) << self._shift
        self._table = _little_endian(table)
        self._cells = memoryview(self._table)  # scalar reads give plain ints
        # per slot, 2 for a pair that needs no context and 1 for a gated one
        self._kinds = np.concatenate(([0], 2 - ctx2.members()[values])).astype(np.uint8)

    def ends(self, data: bytes, live) -> list[int]:
        """The end offsets, ascending, of the windows of `data` that hold a
        pair serving a rule in `live` and pass the gate."""
        chosen = reduce(or_, map(self._rule_slots.__getitem__, self._rules.intersection(live)), 0)
        n = len(data)
        if not chosen or n < 2:
            return []
        if chosen.bit_count() * (n + _FIND_SETUP) <= _GATHER_PER_BYTE * n + _GATHER_SETUP:
            return self._find_ends(data, chosen)
        return self._gather_ends(data, chosen)

    def _find_ends(self, data: bytes, chosen: int) -> list[int]:
        """`ends` with one `bytes.find` loop per pair of the slot bits
        `chosen`."""
        cells, shift = self._cells, self._shift
        ends = []
        while chosen:
            slot = (chosen & -chosen).bit_length() - 1
            chosen &= chosen - 1
            pair = self._pairs[slot]
            gated = self._kinds[slot] == 1
            k = data.find(pair)
            while k >= 0:
                if not gated or (k and cells[data[k - 1] | data[k] << 8] >> shift):
                    ends.append(k + 1)
                k = data.find(pair, k + 1)  # occurrences may overlap
        ends.sort()
        return ends

    def _gather_ends(self, data: bytes, chosen: int) -> list[int]:
        """`ends` from one gather of every window's slot, mapped through the
        kinds of the slots in `chosen`."""
        wanted = np.unpackbits(
            np.frombuffer(chosen.to_bytes(len(self._pairs) // 8 + 1, "little"), np.uint8),
            count=len(self._pairs),
            bitorder="little",
        )
        wanted *= self._kinds  # 0, or the kind of a chosen pair
        t = self._table.take(np.ndarray((len(data) - 1,), _U16, data, 0, (1,)))
        w = wanted.take(t & self._slot_mask)
        # a window passes when its kind plus the previous window's pre bit
        # is 2 or more: always for kind 2, behind a pre bit for kind 1
        w[1:] += t[:-1] >> self._shift
        w >>= 1
        hits = w.view(bool).nonzero()[0]
        hits += 1
        return hits.tolist()


def _unpacked(hits: list[int]) -> tuple[list[int], list[int]]:
    """Packed hits sorted, as `scan`'s end offsets and unit codes."""
    hits.sort()
    return [h >> 2 for h in hits], [UNIT_DIRECT << (h & 3) for h in hits]


def build_filter_bank(keys: list[FilterKey]) -> FilterBank:
    """Expand every split's key, plant the 2-byte strings in the direct
    unit and the longer ones in the xor unit, and the first and last two
    bytes of each longer one in its width's gates. The bank has no context
    gate: the database that holds it derives one (`context_gate`)."""
    by_len: dict[int, set[bytes]] = {2: set(), 4: set(), 8: set()}
    for key in keys:
        by_len[key.length].update(key.expand())

    return FilterBank(
        DirectFilterUnit.of(by_len[2]),
        build_xor_unit([*by_len[4], *by_len[8]], splitmix64(0x5EED)),
        DirectFilterUnit.of(k[:2] for k in by_len[4]),
        DirectFilterUnit.of(k[2:] for k in by_len[4]),
        DirectFilterUnit.of(k[:2] for k in by_len[8]),
        DirectFilterUnit.of(k[6:] for k in by_len[8]),
    )


def context_gate(pairs: DirectFilterUnit, stt: CompressedStt) -> tuple[DirectFilterUnit, DirectFilterUnit]:
    """`ctx2` and `pre2` of the 2-byte keys in `pairs`, from `stt`, the
    reverse table that runs from every hit. It reads the keys' two-step
    runs off `CompressedStt.start_pairs` and only the dense rows of the
    states those runs reach (`CompressedStt.dense_rows`).

    A direct hit (a, b) at window k starts a reverse run that reads b, then
    a, then the byte x before them. `ctx2` holds the keys whose run is
    still alive after b and a with nothing accepted: such a hit records
    nothing unless the run survives x. `pre2` holds every pair (x, a) after
    which the run of some `ctx2` key (a, .) is still alive. So a `ctx2` hit
    with no `pre2` pair before it, or at window 0, records nothing.
    """
    values = np.flatnonzero(pairs.members())
    first = values >> 8
    # -1 where the start or b accepts or b kills the run; `start_pairs`
    # is indexed little-endian, a | b << 8
    after_a = np.asarray(stt.start_pairs)[first | (values & 0xFF) << 8]
    accepting = np.array([bool(labels) for labels in stt.accepts])
    # the dead state accepts nothing and only leads to itself
    gated = (after_a >= 0) & (after_a != DEAD)
    gated[gated] = ~accepting[after_a[gated]]
    seen, back = np.unique(after_a[gated], return_inverse=True)
    keys, x = (stt.dense_rows(seen)[back] != DEAD).nonzero()
    return DirectFilterUnit.of_values(values[gated]), DirectFilterUnit.of_values((x << 8) | first[gated][keys])
