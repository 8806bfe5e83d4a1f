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
from dataclasses import dataclass

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


def _interval_len(gs: int, ge: int) -> int:
    return ge - gs + 1


@dataclass(frozen=True)
class EmptyGap:
    """No gap pattern at all; exact mode insists the interval is empty."""

    mode: str

    def check(self, data: bytes, gs: int, ge: int) -> tuple[bool, int]:
        if self.mode == EXACT:
            return _interval_len(gs, ge) == 0, 0
        return _interval_len(gs, ge) >= 0, 0

    @property
    def examines_bytes(self) -> bool:
        return False


@dataclass(frozen=True)
class DotGap:
    """Any-byte interval: pure length arithmetic, no content reads."""

    lo: int
    hi: int | None
    mode: str

    def check(self, data: bytes, gs: int, ge: int) -> tuple[bool, int]:
        length = _interval_len(gs, ge)
        if length < 0:
            return False, 0
        if self.mode == EXACT:
            ok = self.lo <= length and (self.hi is None or length <= self.hi)
            return ok, length if ok else 0
        # a shorter window inside the interval is always available
        ok = length >= self.lo
        return ok, self.lo if ok else 0

    @property
    def examines_bytes(self) -> bool:
        return False


@dataclass(frozen=True)
class ClassGap:
    """Class-constrained interval: length bound plus byte membership."""

    cls: ByteClass
    lo: int
    hi: int | None
    mode: str

    def check(self, data: bytes, gs: int, ge: int) -> tuple[bool, int]:
        length = _interval_len(gs, ge)
        if length < 0:
            return False, 0
        mask = self.cls.mask
        if self.mode == EXACT:
            if length < self.lo or (self.hi is not None and length > self.hi):
                return False, 0
            for i, pos in enumerate(range(gs, ge + 1)):
                if not (mask >> data[pos]) & 1:
                    return False, i + 1
            return True, length
        if length < self.lo:
            return False, 0
        if self.lo == 0:
            return True, 0  # the empty window is always available
        # scan from the fragment edge; a run of lo class bytes suffices
        span = range(ge, gs - 1, -1) if self.mode == SUFFIX else range(gs, ge + 1)
        run = 0
        for i, pos in enumerate(span):
            if not (mask >> data[pos]) & 1:
                return False, i + 1
            run += 1
            if run >= self.lo:
                return True, i + 1
        return False, length  # unreachable: lo <= length guarantees a return above

    @property
    def examines_bytes(self) -> bool:
        return True


@dataclass(frozen=True)
class DfaGap:
    """Structured gap: a compiled automaton decides the interval content.

    Exact mode runs forward over the whole interval and requires an accept
    on the final byte. Suffix mode holds the reversed-pattern automaton and
    walks backwards from the fragment edge, accepting anywhere; prefix mode
    walks forward, accepting anywhere.
    """

    stt: CompressedStt
    mode: str

    def check(self, data: bytes, gs: int, ge: int) -> tuple[bool, int]:
        length = _interval_len(gs, ge)
        if length < 0:
            return False, 0
        accepts = self.stt.accepts
        state = self.stt.start
        if self.mode != EXACT and accepts[state]:
            return True, 0  # the gap pattern matches the empty string
        if self.mode == SUFFIX:
            span = range(ge, gs - 1, -1)
        else:
            span = range(gs, ge + 1)
        rows = self.stt.rows
        exact = self.mode == EXACT
        for consumed, pos in enumerate(span, 1):
            state = rows[(state << 8) | data[pos]]
            if state == DEAD:
                return False, consumed
            if not exact and accepts[state]:
                return True, consumed
        if exact:
            return bool(accepts[state]), length
        return False, length

    @property
    def examines_bytes(self) -> bool:
        return True


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


@dataclass(frozen=True)
class MatchEvent:
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


def _keeps_earliest_only(gap: Gap) -> bool:
    return isinstance(gap, DotGap) and gap.lo == 0 and gap.hi is None


class VerificationState:
    """Per-packet fragment records and gap checking.

    Feed fragment match events in non-decreasing pos_e order; rule matches
    come back as (rule_id, end_offset) pairs, deduplicated per packet.
    """

    def __init__(self, checks: list[RuleChecks], data: bytes, record_cap: int = 64):
        self.checks = checks
        self.data = data
        self.record_cap = record_cap
        self.records: dict[tuple[int, int], list[int]] = {}  # (rule_idx, k) -> pos_e list
        self.emitted: set[tuple[int, int]] = set()
        self.saturated = 0
        self.verify_bytes = 0
        self.escalated = False

    def _check(self, gap: Gap, gs: int, ge: int) -> tuple[bool, int]:
        ok, n = gap.check(self.data, gs, ge)
        if gap.examines_bytes:
            self.escalated = True
            self.verify_bytes += n
        return ok, n

    def on_fragment_match(self, ev: MatchEvent) -> list[tuple[int, int]]:
        rule = self.checks[ev.rule_idx]
        data = self.data

        if ev.k == 0:
            ok, _ = self._check(rule.gaps[0], 0, ev.pos_s - 1)
        else:
            ok = False
            gap = rule.gaps[ev.k]
            for prev_end in self.records.get((ev.rule_idx, ev.k - 1), ()):
                ok, _ = self._check(gap, prev_end + 1, ev.pos_s - 1)
                if ok:
                    break
        if not ok:
            return []

        if ev.k < rule.n_fragments - 1:
            key = (ev.rule_idx, ev.k)
            kept = self.records.setdefault(key, [])
            if kept and _keeps_earliest_only(rule.gaps[ev.k + 1]):
                return []  # earliest record already suffices for a 0..inf gap
            if len(kept) >= self.record_cap:
                self.saturated += 1
                return []
            kept.append(ev.pos_e)
            return []

        # last fragment: the trailing gap decides, and the match ends at the
        # packet end for `$`, else after the gap's shortest window
        ok, gap_len = self._check(rule.gaps[rule.n_fragments], ev.pos_e + 1, len(data) - 1)
        if not ok:
            return []
        end = len(data) - 1 if rule.anchored_end else ev.pos_e + gap_len
        if (rule.rule_id, end) in self.emitted:
            return []
        self.emitted.add((rule.rule_id, end))
        return [(rule.rule_id, end)]
