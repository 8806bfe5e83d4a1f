"""Gap verification: turning fragment matches into whole-rule matches.

A decomposed rule alternates gaps and bounded fragments,
gap[0] frag[0] gap[1] frag[1] ... frag[n-1] gap[n]. The scan stage reports
fragment matches; this module keeps per-fragment records and checks the
gap content between a new match and its predecessors, in three flavors:
pure length intervals (any-byte gaps), length plus class membership, and
a compiled automaton for anything structured.

Edge gaps get role-aware semantics. An interior gap must match its
interval exactly. A leading gap on an unanchored rule may match any
suffix of the preceding bytes (the implicit search prefix absorbs the
rest); a trailing gap without `$` may match any prefix of the remaining
bytes. Anchored edges are exact again.

Every gap's `check(data, gs, ge)` returns `(ok, n)`. On success `n` is the
length of the shortest window the gap accepts, measured from the fragment
edge (the whole interval in exact mode); on failure it is the number of
bytes read before the gap was rejected. Gaps that examine bytes add `n` to
the verifier's byte count either way; for a trailing gap, `n` is how far
past the last fragment the rule's match ends.
"""
from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import length_hint
from typing import NamedTuple

from .automata import (
    DEAD,
    NfaBuildError,
    StateExplosionError,
    determinize,
    minimize,
    thompson,
)
from .blob import BlobReader
from .chars import ByteClass
from .decompose import UnsupportedRuleError
from .parser import Atom, Node, Rep, reverse_tree
from .stt import CompressedStt, compress

LEADING = "leading"
INTERIOR = "interior"
TRAILING = "trailing"

EXACT = "exact"    # gap must cover the interval exactly
SUFFIX = "suffix"  # gap may match any suffix of the interval (leading edge)
PREFIX = "prefix"  # gap may match any prefix of the interval (trailing edge)

_INF = 0xFFFFFFFF

#: fragment records kept per (rule, fragment) in one packet; a record past
#: the cap is dropped and counted in `saturated`
RECORD_CAP = 64


@dataclass(frozen=True)
class EmptyGap:
    """No gap pattern at all; exact mode insists the interval is empty."""

    examines_bytes = False

    mode: str

    def check(self, data: bytes, gs: int, ge: int) -> tuple[bool, int]:
        if self.mode == EXACT:
            return ge - gs + 1 == 0, 0
        return ge - gs + 1 >= 0, 0


@dataclass(frozen=True)
class DotGap:
    """Any-byte interval: pure length arithmetic, no content reads."""

    examines_bytes = False

    lo: int
    hi: int | None
    mode: str

    def check(self, data: bytes, gs: int, ge: int) -> tuple[bool, int]:
        length = ge - gs + 1
        if length < 0:
            return False, 0
        if self.mode == EXACT:
            ok = self.lo <= length and (self.hi is None or length <= self.hi)
            return ok, length if ok else 0
        # a shorter window inside the interval is always available
        ok = length >= self.lo
        return ok, self.lo if ok else 0


@dataclass(frozen=True)
class ClassGap:
    """Class-constrained interval: length bound plus byte membership.

    Membership is tested at C speed: `bytes.translate` maps every byte of
    the window through a 256-byte table (1 for members, 0 otherwise) and
    `find`/`rfind` locate the first non-member from the fragment edge.
    """

    examines_bytes = True

    cls: ByteClass
    lo: int
    hi: int | None
    mode: str
    #: byte -> 1 if a member else 0; derived from `cls`, not serialized
    table: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mask = self.cls.mask
        object.__setattr__(self, "table", bytes((mask >> b) & 1 for b in range(256)))

    def check(self, data: bytes, gs: int, ge: int) -> tuple[bool, int]:
        length = ge - gs + 1
        if length < 0:
            return False, 0
        if self.mode == EXACT:
            if length < self.lo or (self.hi is not None and length > self.hi):
                return False, 0
            miss = data[gs : ge + 1].translate(self.table).find(0)
            return (False, miss + 1) if miss >= 0 else (True, length)
        lo = self.lo
        if length < lo:
            return False, 0
        if lo == 0:
            return True, 0  # the empty window is always available
        # from the fragment edge, a run of lo class bytes suffices
        if self.mode == SUFFIX:
            miss = data[ge - lo + 1 : ge + 1].translate(self.table).rfind(0)
            return (False, lo - miss) if miss >= 0 else (True, lo)
        miss = data[gs : gs + lo].translate(self.table).find(0)
        return (False, miss + 1) if miss >= 0 else (True, lo)


@dataclass(frozen=True)
class DfaGap:
    """Structured gap: a compiled automaton decides the interval content.

    Exact mode runs forward over the whole interval and requires an accept
    on the final byte. Suffix mode holds the reversed-pattern automaton and
    walks backwards from the fragment edge, accepting anywhere; prefix mode
    walks forward, accepting anywhere.
    """

    examines_bytes = True

    stt: CompressedStt
    mode: str

    def check(self, data: bytes, gs: int, ge: int) -> tuple[bool, int]:
        length = ge - gs + 1
        if length < 0:
            return False, 0
        stt = self.stt
        accepts = stt.accepts
        state = stt.start
        rows = stt.rows
        # iterate a copy of the window, the cheapest per-step loop; on an
        # early return the bytes left in the iterator give the count read
        window = data[gs : ge + 1]
        if self.mode == EXACT:
            it = iter(window)
            for byte in it:
                state = rows[(state << 8) | byte]
                if state == DEAD:
                    return False, length - length_hint(it)
            return bool(accepts[state]), length
        if accepts[state]:
            return True, 0  # the gap pattern matches the empty string
        it = iter(window[::-1] if self.mode == SUFFIX else window)
        for byte in it:
            state = rows[(state << 8) | byte]
            if state == DEAD:
                return False, length - length_hint(it)
            if accepts[state]:
                return True, length - length_hint(it)
        return False, length


Gap = EmptyGap | DotGap | ClassGap | DfaGap


def classify_gap(
    tree: Node | None,
    role: str,
    edge_anchored: bool = False,
    state_cap: int = 1_000_000,
) -> Gap:
    """Build the checker for one gap given its position in the rule.

    A bare repetition of one byte class becomes interval arithmetic (plus
    membership for proper classes); everything else compiles to an
    automaton. Interior gaps and anchored edges check exactly; unanchored
    edges get suffix/prefix semantics.
    """
    if role == INTERIOR or edge_anchored:
        mode = EXACT
    elif role == LEADING:
        mode = SUFFIX
    elif role == TRAILING:
        mode = PREFIX
    else:
        raise ValueError(f"unknown gap role {role!r}")

    if tree is None:
        return EmptyGap(mode)
    if isinstance(tree, Rep) and isinstance(tree.item, Atom):
        cls = tree.item.cls
        if cls.population == 256:
            return DotGap(tree.lo, tree.hi, mode)
        return ClassGap(cls, tree.lo, tree.hi, mode)
    compiled = reverse_tree(tree) if mode == SUFFIX else tree
    try:
        dfa = minimize(determinize(thompson([compiled], state_cap=state_cap), cap=state_cap))
    except (NfaBuildError, StateExplosionError) as exc:
        raise UnsupportedRuleError("gap-dfa-explosion", str(exc)) from exc
    return DfaGap(compress(dfa), mode)


# --- gap serialization -------------------------------------------------------

_KIND = {EmptyGap: 0, DotGap: 1, ClassGap: 2, DfaGap: 3}
_MODE_CODE = {EXACT: 0, SUFFIX: 1, PREFIX: 2}
_MODE_NAME = {v: k for k, v in _MODE_CODE.items()}


def gap_to_bytes(gap: Gap) -> bytes:
    kind = _KIND[type(gap)]
    head = struct.pack("<BB", kind, _MODE_CODE[gap.mode])
    if isinstance(gap, EmptyGap):
        return head
    if isinstance(gap, DotGap):
        return head + struct.pack("<II", gap.lo, _INF if gap.hi is None else gap.hi)
    if isinstance(gap, ClassGap):
        return head + struct.pack("<II", gap.lo, _INF if gap.hi is None else gap.hi) + gap.cls.mask.to_bytes(32, "little")
    blob = gap.stt.to_bytes()
    return head + struct.pack("<Q", len(blob)) + blob


def gap_from_bytes(buf: bytes, pos: int) -> tuple[Gap, int]:
    r = BlobReader(buf, "gap", pos)
    kind, mode_code = r.unpack("<BB")
    if mode_code not in _MODE_NAME:
        raise ValueError(f"unknown gap mode {mode_code}")
    mode = _MODE_NAME[mode_code]
    if kind == 0:
        return EmptyGap(mode), r.pos
    if kind == 1:
        lo, hi = r.unpack("<II")
        return DotGap(lo, None if hi == _INF else hi, mode), r.pos
    if kind == 2:
        lo, hi = r.unpack("<II")
        mask = int.from_bytes(r.take(32), "little")
        return ClassGap(ByteClass(mask), lo, None if hi == _INF else hi, mode), r.pos
    if kind == 3:
        stt = CompressedStt.from_bytes(r.blob())
        return DfaGap(stt, mode), r.pos
    raise ValueError(f"unknown gap kind {kind}")


# --- per-packet verification state -------------------------------------------


class MatchEvent(NamedTuple):
    rule_idx: int
    k: int       # fragment index within the rule, 0-based
    pos_s: int   # first byte of the fragment match
    pos_e: int   # last byte of the fragment match


@dataclass(frozen=True)
class RuleChecks:
    """Verifier-side view of one compiled rule."""

    rule_id: int
    n_fragments: int
    gaps: tuple[Gap, ...]  # length n_fragments + 1
    anchored_end: bool
    #: the leading gap accepts any first fragment without a check; derived
    #: from `gaps[0]`, not serialized
    free_lead: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # a rule with no gaps at all is refused when its database loads
        object.__setattr__(self, "free_lead", bool(self.gaps) and _accepts_any_lead(self.gaps[0]))


def _keeps_earliest_only(gap: Gap) -> bool:
    return isinstance(gap, DotGap) and gap.lo == 0 and gap.hi is None


def _accepts_any_lead(gap: Gap) -> bool:
    """True when the leading gap accepts every interval `[0, pos_s)`
    without reading a byte: no pattern on an unanchored edge, or `.*`."""
    if isinstance(gap, EmptyGap):
        return gap.mode != EXACT
    return _keeps_earliest_only(gap)


class VerificationState:
    """Per-packet fragment records and gap checking.

    Feed fragment match events in non-decreasing pos_e order; rule matches
    come back as (rule_id, end_offset) pairs, deduplicated per packet.
    """

    def __init__(self, checks: Sequence[RuleChecks], data: bytes):
        self.checks = checks
        self.data = data
        self.records: dict[tuple[int, int], list[int]] = {}  # (rule_idx, k) -> pos_e list
        self.emitted: set[tuple[int, int]] = set()
        self.saturated = 0
        self.verify_bytes = 0
        self.escalated = False

    def on_fragment_match(self, ev: tuple[int, int, int, int]) -> list[tuple[int, int]]:
        """Take one fragment match, a `MatchEvent` or a plain tuple of the
        same fields, and return the rule matches it completes."""
        rule_idx, k, pos_s, pos_e = ev
        rule = self.checks[rule_idx]
        gaps = rule.gaps
        data = self.data

        # gaps that examine bytes escalate the packet and count what they read
        if k == 0:
            if rule.free_lead:
                ok = True
            else:
                gap = gaps[0]
                ok, n = gap.check(data, 0, pos_s - 1)
                if gap.examines_bytes:
                    self.escalated = True
                    self.verify_bytes += n
        else:
            ok = False
            prev_ends = self.records.get((rule_idx, k - 1))
            if prev_ends:
                gap = gaps[k]
                check = gap.check
                examines = gap.examines_bytes
                for prev_end in prev_ends:
                    ok, n = check(data, prev_end + 1, pos_s - 1)
                    if examines:
                        self.escalated = True
                        self.verify_bytes += n
                    if ok:
                        break
        if not ok:
            return []

        n_fragments = rule.n_fragments
        if k < n_fragments - 1:
            key = (rule_idx, k)
            kept = self.records.setdefault(key, [])
            if kept and _keeps_earliest_only(gaps[k + 1]):
                return []  # earliest record already suffices for a 0..inf gap
            if len(kept) >= RECORD_CAP:
                self.saturated += 1
                return []
            kept.append(pos_e)
            return []

        # last fragment: the trailing gap decides, and the match ends at the
        # packet end for `$`, else after the gap's shortest window
        gap = gaps[n_fragments]
        ok, gap_len = gap.check(data, pos_e + 1, len(data) - 1)
        if gap.examines_bytes:
            self.escalated = True
            self.verify_bytes += gap_len
        if not ok:
            return []
        end = len(data) - 1 if rule.anchored_end else pos_e + gap_len
        if (rule.rule_id, end) in self.emitted:
            return []
        self.emitted.add((rule.rule_id, end))
        return [(rule.rule_id, end)]
