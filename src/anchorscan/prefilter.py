"""The filter bank: membership structures gating the rest of the pipeline.

Three units, one per supported key length. Length-2 keys live in an exact
2^16-bit bitmap (no false positives). Length-4 and length-8 keys live in
3-way xor filters: per key, three slots chosen by hash must xor to the key's
fingerprint. Lookups cost three loads and never miss a member; non-members
pass at roughly 2^-k for k fingerprint bits.

Each xor unit sits behind two more 2^16-bit bitmaps, its gates: the set of
first two bytes and the set of last two bytes of its concrete keys. Scanning
maps every 2-byte window of a packet to one flag byte (the direct unit's bit
and the four gate bits) with a single gather, reports the direct hits, and
hashes a 4- or 8-byte window only when its head and tail pairs both pass
their gates. Every key passes its own gates, so the gates cost no false
negatives; on clean traffic most packets make no hash call at all. Windows
are read in place as big-endian integers through one-byte-stride views of
the packet. A unit with a few gated windows hashes them one by one with the
scalar `contains`; more go through one vectorized `hit_mask` call. The
scalar `query` path applies the same gates and is kept bit-identical to
`scan` (tests enforce this).
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .blob import BlobReader
from .decompose import FilterKey

_M64 = (1 << 64) - 1
_CHUNK = 0x1FFFFF  # 21-bit index chunks from one 64-bit hash

#: unit codes; also the tie-break order for hits at the same end offset
UNIT_DIRECT = 2
UNIT_XOR4 = 4
UNIT_XOR8 = 8

# bits of FilterBank.flags; each head bit sits one above its tail bit, so
# `(flags[head] >> 1) & flags[tail] & _TAILw` tests both gates of a window
_DIRECT = 0x01
_TAIL4 = 0x02
_HEAD4 = 0x04
_TAIL8 = 0x08
_HEAD8 = 0x10

#: gated windows per unit up to which `scan` hashes each window with the
#: scalar `XorFilterUnit.contains` instead of one vectorized `hit_mask` call.
#: `hit_mask` costs a fixed ~40 numpy dispatches (about 50 us on a 2-core
#: x86 host, numpy 2.4) whatever its length; one `contains` costs about
#: 4.5-5 us there, so the two break even near 10-12 windows. 8 stays below
#: that, where a scalar run can never cost much more than the call it saves.
_SCALAR_WINDOWS = 8


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def _splitmix64_vec(x: np.ndarray) -> np.ndarray:
    x = (x + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


class FilterBuildError(RuntimeError):
    pass


def _fp_dtype(fp_bits: int) -> np.dtype:
    """Narrowest unsigned dtype holding an fp_bits-wide fingerprint."""
    if not 1 <= fp_bits <= 32:
        raise ValueError(f"fingerprint width must be 1..32 bits, got {fp_bits}")
    return np.dtype(np.uint8 if fp_bits <= 8 else np.uint16 if fp_bits <= 16 else np.uint32)


# --- exact unit for 2-byte keys ------------------------------------------------


class DirectFilterUnit:
    """65536-bit bitmap indexed by the big-endian value of a 2-byte window."""

    def __init__(self, bitmap: np.ndarray):
        self.bitmap = bitmap

    @staticmethod
    def of(keys) -> "DirectFilterUnit":
        """The unit holding every 2-byte string in `keys`."""
        members = np.zeros(65536, dtype=np.uint8)
        members[[(k[0] << 8) | k[1] for k in keys]] = 1
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
            return DirectFilterUnit(r.array("u1", 8192))
        if tag != DirectFilterUnit._LIST:
            raise ValueError(f"unknown pair-set encoding {tag}")
        (count,) = r.unpack("<H")
        if count > DirectFilterUnit._MAX_LIST:
            raise ValueError(f"pair-set list of {count} members is longer than its bitmap")
        values = r.array("<u2", count).astype(np.int64)
        if np.any(values[1:] <= values[:-1]):
            raise ValueError("pair-set list is not strictly increasing")
        members = np.zeros(65536, dtype=np.uint8)
        members[values] = 1
        return DirectFilterUnit(np.packbits(members, bitorder="little"))


# --- xor units for 4- and 8-byte keys --------------------------------------------


@dataclass
class XorFilterUnit:
    """3-way xor filter over fixed-width byte windows.

    `fingerprints` holds three consecutive blocks of `block_len` slots, each
    slot in the narrowest dtype that fits `fp_bits`; a key hashes to one slot
    per block and is a member iff the three slots xor to its fingerprint.
    """

    width: int
    fp_bits: int
    seed: int = 0
    block_len: int = 0
    key_count: int = 0
    fingerprints: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.uint8))

    @property
    def is_empty(self) -> bool:
        return self.key_count == 0

    @cached_property
    def slot_view(self) -> memoryview:
        """`fingerprints` as a memoryview: scalar reads give plain ints, about
        4x cheaper than numpy scalar indexing. Derived, not serialized."""
        return memoryview(self.fingerprints)

    def _mix(self, value: int) -> tuple[int, int, int, int]:
        h = splitmix64(value ^ self.seed)
        bl = self.block_len
        return (
            (h & _CHUNK) % bl,
            ((h >> 21) & _CHUNK) % bl + bl,
            ((h >> 42) & _CHUNK) % bl + 2 * bl,
            splitmix64(h) & ((1 << self.fp_bits) - 1),
        )

    def contains(self, window: bytes) -> bool:
        if not self.key_count:
            return False
        i0, i1, i2, fp = self._mix(int.from_bytes(window, "big"))
        slots = self.slot_view
        return slots[i0] ^ slots[i1] ^ slots[i2] == fp

    def hit_mask(self, values: np.ndarray) -> np.ndarray:
        if self.is_empty:
            return np.zeros(len(values), dtype=bool)
        h = _splitmix64_vec(values ^ np.uint64(self.seed))
        bl = np.uint64(self.block_len)
        chunk = np.uint64(_CHUNK)
        i0 = (h & chunk) % bl
        i1 = ((h >> np.uint64(21)) & chunk) % bl + bl
        i2 = ((h >> np.uint64(42)) & chunk) % bl + np.uint64(2) * bl
        fp = _splitmix64_vec(h) & np.uint64((1 << self.fp_bits) - 1)
        slots = self.fingerprints
        got = slots[i0.astype(np.int64)] ^ slots[i1.astype(np.int64)] ^ slots[i2.astype(np.int64)]
        return got.astype(np.uint64) == fp

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, XorFilterUnit)
            and self.width == other.width
            and self.fp_bits == other.fp_bits
            and self.seed == other.seed
            and self.block_len == other.block_len
            and self.key_count == other.key_count
            and np.array_equal(self.fingerprints, other.fingerprints)
        )


def build_xor_unit(
    keys: list[bytes],
    width: int,
    fp_bits: int,
    base_seed: int,
    attempts: int = 100,
) -> XorFilterUnit:
    """Peel-and-backfill construction; retries with fresh seeds on failure."""
    unit = XorFilterUnit(width=width, fp_bits=fp_bits)
    values = sorted({int.from_bytes(k, "big") for k in keys})
    if not values:
        return unit
    n = len(values)
    unit.key_count = n
    # 1.23x capacity factor plus constant slack so tiny key sets still peel
    capacity = 32 + -(-123 * n // 100)
    unit.block_len = -(-capacity // 3)

    for attempt in range(attempts):
        unit.seed = splitmix64(base_seed ^ (attempt * 0x9E3779B97F4A7C15 & _M64))
        order = _peel(unit, values)
        if order is None:
            continue
        slots = np.zeros(3 * unit.block_len, dtype=_fp_dtype(fp_bits))
        for value, slot in reversed(order):
            i0, i1, i2, fp = unit._mix(value)
            acc = fp
            for j in (i0, i1, i2):
                if j != slot:
                    acc ^= int(slots[j])
            slots[slot] = acc
        unit.fingerprints = slots
        return unit
    raise FilterBuildError(
        f"xor unit (width {width}) failed to build after {attempts} seeds for {n} keys"
    )


def _peel(unit: XorFilterUnit, values: list[int]) -> list[tuple[int, int]] | None:
    """Order keys so each has a slot no later key touches; None if stuck."""
    m = 3 * unit.block_len
    count = [0] * m
    key_xor = [0] * m  # xor of key indices per slot; identifies the lone key
    triples = []
    for idx, value in enumerate(values):
        i0, i1, i2, _ = unit._mix(value)
        triples.append((i0, i1, i2))
        for j in (i0, i1, i2):
            count[j] += 1
            key_xor[j] ^= idx
    stack: list[tuple[int, int]] = []
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
        return None
    return stack


# --- the bank ---------------------------------------------------------------------


@dataclass
class FilterBank:
    unit2: DirectFilterUnit
    unit4: XorFilterUnit
    unit8: XorFilterUnit
    #: gates: first and last two bytes of every concrete 4- and 8-byte key
    head4: DirectFilterUnit
    tail4: DirectFilterUnit
    head8: DirectFilterUnit
    tail8: DirectFilterUnit
    #: 2-byte window value -> direct and gate bits; derived, not serialized
    flags: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.flags = np.zeros(65536, dtype=np.uint8)
        for bit, pair_set in (
            (_DIRECT, self.unit2),
            (_TAIL4, self.tail4),
            (_HEAD4, self.head4),
            (_TAIL8, self.tail8),
            (_HEAD8, self.head8),
        ):
            self.flags |= pair_set.members() * np.uint8(bit)

    @property
    def key_count(self) -> int:
        return self.unit2.key_count + self.unit4.key_count + self.unit8.key_count

    def query(self, window: bytes) -> bool:
        if len(window) == 2:
            return self.unit2.contains(window)
        if len(window) == 4:
            head, tail, unit = self.head4, self.tail4, self.unit4
        elif len(window) == 8:
            head, tail, unit = self.head8, self.tail8, self.unit8
        else:
            raise ValueError("window must be 2, 4 or 8 bytes")
        return head.contains(window[:2]) and tail.contains(window[-2:]) and unit.contains(window)

    def scan(self, data: bytes) -> tuple[np.ndarray, np.ndarray]:
        """All filter hits over a packet.

        Returns (end_offsets, unit_codes) sorted by end offset, direct unit
        before xor-4 before xor-8 at equal offsets.
        """
        n = len(data)
        if n < 2:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.uint8)
        # every w-byte window read in place as a big-endian integer: element
        # k of a view with a one-byte stride is bytes k..k+w-1
        flags = self.flags[np.ndarray((n - 1,), ">u2", data, 0, (1,))]
        direct = (flags & _DIRECT).nonzero()[0] + 1  # window k ends at k + 1
        heads = flags >> 1  # head gate bits moved onto their tail bits
        offs, codes = [direct], [UNIT_DIRECT]
        for unit, tail_bit, code, dtype in (
            (self.unit4, _TAIL4, UNIT_XOR4, ">u4"),
            (self.unit8, _TAIL8, UNIT_XOR8, ">u8"),
        ):
            w = unit.width
            # window k passes when its head pair (flags[k]) and its tail pair
            # (flags[k + w - 2]) both pass their gates
            starts = (heads[: 2 - w] & flags[w - 2 :] & tail_bit).nonzero()[0]
            if len(starts) > _SCALAR_WINDOWS:
                values = np.ndarray((n - w + 1,), dtype, data, 0, (1,))[starts]
                offs.append(starts[unit.hit_mask(values)] + (w - 1))
                codes.append(code)
            elif len(starts):
                hit = [k + w - 1 for k in starts.tolist() if unit.contains(data[k : k + w])]
                if hit:
                    offs.append(np.array(hit, dtype=np.int64))
                    codes.append(code)
        if len(offs) == 1:
            return direct, np.full(len(direct), UNIT_DIRECT, dtype=np.uint8)
        end = np.concatenate(offs)
        unit = np.repeat(np.array(codes, dtype=np.uint8), [len(e) for e in offs])
        order = np.lexsort((unit, end))
        return end[order], unit[order]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FilterBank)
            and self.unit2 == other.unit2
            and self.unit4 == other.unit4
            and self.unit8 == other.unit8
            and self.head4 == other.head4
            and self.tail4 == other.tail4
            and self.head8 == other.head8
            and self.tail8 == other.tail8
        )

    # --- serialization: magic, version, fp bits, pair sets, seeds, slots ---

    MAGIC = b"ASFB"
    VERSION = 3

    def to_bytes(self) -> bytes:
        fp_bits = self.unit8.fp_bits
        out = [self.MAGIC, struct.pack("<HB", self.VERSION, fp_bits)]
        for pair_set in (self.unit2, self.head4, self.tail4, self.head8, self.tail8):
            out.append(pair_set.to_bytes())
        slot = _fp_dtype(fp_bits).newbyteorder("<")
        for unit in (self.unit4, self.unit8):
            out.append(struct.pack("<BQII", unit.width, unit.seed, unit.key_count, unit.block_len))
            out.append(unit.fingerprints.astype(slot).tobytes())
        return b"".join(out)

    @staticmethod
    def from_bytes(blob: bytes) -> "FilterBank":
        r = BlobReader(blob, "filter bank")
        if r.take(4) != FilterBank.MAGIC:
            raise ValueError("not a filter bank blob")
        version, fp_bits = r.unpack("<HB")
        if version != FilterBank.VERSION:
            raise ValueError(f"unsupported filter bank version {version}")
        dtype = _fp_dtype(fp_bits)
        bitmaps = [DirectFilterUnit.read(r) for _ in range(5)]
        units = []
        for expected in (4, 8):
            width, seed, key_count, block_len = r.unpack("<BQII")
            if width != expected or (key_count > 0) != (block_len > 0):
                raise ValueError(f"corrupt xor unit header (width {width}, {key_count} keys, block {block_len})")
            fingerprints = r.array(dtype.newbyteorder("<"), 3 * block_len).astype(dtype)
            units.append(
                XorFilterUnit(
                    width=width,
                    fp_bits=fp_bits,
                    seed=seed,
                    block_len=block_len,
                    key_count=key_count,
                    fingerprints=fingerprints,
                )
            )
        r.finish()
        unit2, head4, tail4, head8, tail8 = bitmaps
        return FilterBank(unit2, units[0], units[1], head4, tail4, head8, tail8)


def build_filter_bank(
    keyed_splits: list[tuple[int, FilterKey]],
    fp_bits: int = 8,
    seed: int = 0x5EED,
    attempts: int = 100,
) -> FilterBank:
    """Expand every split's key, plant the strings in the right unit and
    their first and last two bytes in that unit's gates."""
    by_len: dict[int, set[bytes]] = {2: set(), 4: set(), 8: set()}
    for _split_id, key in keyed_splits:
        by_len[key.length].update(key.expand())

    unit4 = build_xor_unit(sorted(by_len[4]), 4, fp_bits, splitmix64(seed ^ 4), attempts)
    unit8 = build_xor_unit(sorted(by_len[8]), 8, fp_bits, splitmix64(seed ^ 8), attempts)
    return FilterBank(
        DirectFilterUnit.of(by_len[2]),
        unit4,
        unit8,
        DirectFilterUnit.of(k[:2] for k in by_len[4]),
        DirectFilterUnit.of(k[2:] for k in by_len[4]),
        DirectFilterUnit.of(k[:2] for k in by_len[8]),
        DirectFilterUnit.of(k[6:] for k in by_len[8]),
    )
