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

An interior gap finds a matching record of the fragment before it without
checking every record's interval anew, so verification stays
linear in the packet length:

- Empty, any-byte and class gaps accept an interval by its length and, for
  a class, the membership of every byte in it. Records arrive in `pos_e`
  order, so `bisect` finds the latest one that leaves at least `lo` bytes;
  its interval is the shortest the bounds allow and lies inside every
  longer one, so it matches if any record does, and it is the only one
  checked. These records are never capped.
- A gap language L is *left-absorbing* when Σ*L = L: a record earlier than
  a matching one matches too, so only the earliest record is kept. `.{lo,}`
  is; a gap automaton is tested when its rule is built or loaded
  (`DfaGap.absorbing`), within a fixed number of steps.
- An automaton gap runs forward from each kept record, and each run is
  kept and resumed by the next event, so a packet reads each byte at most
  once per record. A gap that is also *right-absorbing* (LΣ* = L), the
  `.*X.*` shape that decomposition leaves around an unkeyable fragment,
  stops at its first accept: every later interval matches, so each later
  check is one comparison.
- `RECORD_CAP` bounds only the records of automaton gaps that are not
  left-absorbing, the one kind that keeps more than one record to run.

`RuleChecks` holds what the verifier needs per event, derived once per
rule: the last fragment index, how each interior gap finds its record and
how many records it keeps, and whether the edge gaps accept without a
check.
"""
from __future__ import annotations

import struct
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from operator import length_hint

import numpy as np

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

#: records kept per (rule, fragment) in one packet when the next gap is an
#: automaton that is not left-absorbing, the one kind that checks each
#: record in turn; a record past the cap is dropped and counted in
#: `saturated`. Other gaps keep every record, or only the earliest.
RECORD_CAP = 64

#: work allowed per gap automaton when deciding left absorption: state
#: pairs visited, each counted once per byte class; a gap past it counts as
#: neither left- nor right-absorbing, so no table can stall a load
ABSORB_STEPS = 1 << 16

#: bytes an exact class gap translates first, and at most at once: the
#: chunks double from the first size up to the last, so a check's time and
#: memory follow the bytes it reads up to the first non-member, however far
#: the interval runs (an anchored edge gap's runs to the packet edge). The
#: first chunk covers any interval inside a 1500-byte packet in one call.
_CLASS_CHUNKS = (2048, 1 << 16)


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
    `find`/`rfind` locate the first non-member from the fragment edge. An
    exact interval is translated in growing chunks (`_CLASS_CHUNKS`).
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
            size, most = _CLASS_CHUNKS
            start = gs
            while start <= ge:
                stop = min(start + size, ge + 1)
                miss = data[start:stop].translate(self.table).find(0)
                if miss >= 0:
                    return False, start - gs + miss + 1
                start, size = stop, min(2 * size, most)
            return True, length
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

    @cached_property
    def absorbing(self) -> tuple[bool, bool]:
        """Whether the exact-mode gap language L is left-absorbing (Σ*L =
        L) and right-absorbing (LΣ* = L), as `(left, right)`; derived from
        the table on first use, not serialized. Other modes count as
        neither."""
        if self.mode != EXACT:
            return False, False
        return _absorbing(self.stt)

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


def _absorbing(stt: CompressedStt) -> tuple[bool, bool]:
    """`(left, right)` absorption of the language an exact-mode table
    accepts, where state 0 is dead whatever its row says, as in `check`.

    Right: the accepting states are closed under every byte, so a run that
    has accepted accepts at every later byte. Left: Σ*L = L holds exactly
    when bL ⊆ L for every byte b (induction on the prefix), that is when
    the language of the start state is included in that of each state one
    byte on. A depth-first walk over the pairs of states reachable from
    those `(start, next)` pairs by the same bytes looks for an accepting
    first state whose partner does not accept; past `ABSORB_STEPS` it gives
    up and the gap counts as neither.
    """
    start = stt.start
    if start == DEAD:
        return False, False
    rows = stt.rows
    accepts = [bool(labels) for labels in stt.accepts]
    accepts[DEAD] = False
    # every row is constant between run edges: one byte per stretch suffices
    edges = {0, *stt.run_first.tolist(), *(int(b) + 1 for b in stt.run_last.tolist())}
    reps = sorted(b for b in edges if b < 256)
    todo = [(start, rows[(start << 8) | b]) for b in reps]
    seen = set(todo)
    steps = 0
    while todo:
        p, q = todo.pop()
        if p == q or p == DEAD:
            continue  # equal languages, or an empty one
        if accepts[p] and not accepts[q]:
            return False, _accept_closed(stt, accepts, reps)
        steps += len(reps)
        if steps > ABSORB_STEPS:
            return False, False
        for b in reps:
            pair = (rows[(p << 8) | b], DEAD if q == DEAD else rows[(q << 8) | b])
            if pair not in seen:
                seen.add(pair)
                todo.append(pair)
    return True, _accept_closed(stt, accepts, reps)


def _accept_closed(stt: CompressedStt, accepts: list[bool], reps: list[int]) -> bool:
    acc = np.array(accepts, dtype=bool)
    succ = np.asarray(stt.rows).reshape(stt.n_states, 256)[acc][:, reps]
    return bool(acc[succ].all())


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
    """A u8 kind and a u8 mode, then the gap's bounds, class mask or table:
    no length prefix, since each kind's layout says where it ends."""
    kind = _KIND[type(gap)]
    head = struct.pack("<BB", kind, _MODE_CODE[gap.mode])
    if isinstance(gap, EmptyGap):
        return head
    if isinstance(gap, DotGap):
        return head + struct.pack("<II", gap.lo, _INF if gap.hi is None else gap.hi)
    if isinstance(gap, ClassGap):
        return head + struct.pack("<II", gap.lo, _INF if gap.hi is None else gap.hi) + gap.cls.mask.to_bytes(32, "little")
    return head + gap.stt.to_bytes()


def gap_from_bytes(buf: bytes | memoryview, pos: int) -> tuple[Gap, int]:
    """The gap at `pos` of `buf` and the offset just past it."""
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
        return DfaGap(CompressedStt.read(r), mode), r.pos
    raise ValueError(f"unknown gap kind {kind}")


# --- per-packet verification state -------------------------------------------


#: how an interior gap finds a matching record of the fragment before it
_LOOKUP = 0  # the latest record that leaves `lo` bytes, by position (`bisect`)
_RUNS = 1    # each kept record's automaton run, resumed where it stopped


@dataclass(frozen=True)
class RuleChecks:
    """Verifier-side view of one compiled rule.

    The fields after `anchored_end` are the rule's plan, derived from the
    gaps when it is built or loaded and never serialized, so that the
    verifier reads them per event instead of deciding them again.
    """

    rule_id: int
    n_fragments: int
    gaps: tuple[Gap, ...]  # length n_fragments + 1
    anchored_end: bool
    #: the leading gap accepts any first fragment without a check
    free_lead: bool = field(init=False, repr=False, compare=False)
    #: the trailing gap accepts any last fragment, with an empty window,
    #: without a check
    free_trail: bool = field(init=False, repr=False, compare=False)
    #: index of the last fragment
    last: int = field(init=False, repr=False, compare=False)
    #: per gap index k, for interior gaps: `(how, gap, a, b)`, how gap k
    #: finds a record of fragment k - 1; `a, b` are the length bounds for
    #: `_LOOKUP`, and `a` says whether the gap is right-absorbing for `_RUNS`
    links: tuple[tuple | None, ...] = field(init=False, repr=False, compare=False)
    #: per fragment k before the last: how many of its records to keep,
    #: 1 when the earliest dominates the rest, `RECORD_CAP`, or None for all
    limits: tuple[int | None, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # a rule whose gaps do not fit its fragments is refused when its
        # database loads, so only a well-formed rule is ever scanned
        gaps = self.gaps
        # compile classifies every interior gap in exact mode, and a parsed
        # gap never has an empty language, so its automaton never starts
        # dead: a gap that breaks either comes from a forged database
        for gap in gaps[1:-1]:
            if gap.mode != EXACT:
                raise ValueError(f"rule {self.rule_id} has an interior gap in {gap.mode} mode")
            if isinstance(gap, DfaGap) and gap.stt.start == DEAD:
                raise ValueError(f"rule {self.rule_id} has an interior gap automaton that starts dead")
        interior = [_link(gap) for gap in gaps[1:-1]]
        derived = {
            "free_lead": bool(gaps) and _accepts_any_lead(gaps[0]),
            "free_trail": bool(gaps) and _accepts_any_trail(gaps[-1]),
            "last": self.n_fragments - 1,
            "links": (None, *(link for link, _ in interior)),
            "limits": tuple(limit for _, limit in interior),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)


def _keeps_earliest_only(gap: Gap) -> bool:
    """True when the gap language is left-absorbing, so that the earliest
    record matches whenever a later one does: `.{lo,}`, or an automaton
    found to be."""
    if isinstance(gap, DotGap):
        return gap.hi is None
    return isinstance(gap, DfaGap) and gap.absorbing[0]


def _link(gap: Gap) -> tuple[tuple, int | None]:
    """`(link, limit)` for an interior gap, which `RuleChecks` has checked
    is in exact mode: how it finds a record, and how many records of the
    fragment before it to keep."""
    earliest = _keeps_earliest_only(gap)
    if isinstance(gap, EmptyGap):
        return (_LOOKUP, gap, 0, 0), None
    if isinstance(gap, (DotGap, ClassGap)):
        return (_LOOKUP, gap, gap.lo, gap.hi), 1 if earliest else None
    return (_RUNS, gap, gap.absorbing[1], None), 1 if earliest else RECORD_CAP


def _accepts_any_lead(gap: Gap) -> bool:
    """True when the leading gap accepts every interval `[0, pos_s)`
    without reading a byte: no pattern on an unanchored edge, or `.*`."""
    if isinstance(gap, EmptyGap):
        return gap.mode != EXACT
    return isinstance(gap, DotGap) and gap.lo == 0 and gap.hi is None


def _accepts_any_trail(gap: Gap) -> bool:
    """True when the trailing gap's check returns `(True, 0)` for every
    interval without reading a byte: no pattern, or `.{0,hi}`, on an
    unanchored edge."""
    if gap.mode == EXACT:
        return False
    return isinstance(gap, EmptyGap) or (isinstance(gap, DotGap) and gap.lo == 0)


class VerificationState:
    """Per-packet fragment records and gap checking.

    Feed fragment match events in non-decreasing pos_e order; rule matches
    come back as (rule_id, end_offset) pairs, deduplicated per packet.
    """

    def __init__(self, checks: Sequence[RuleChecks], data: bytes):
        self.checks = checks
        self.data = data
        self.records: dict[tuple[int, int], list[int]] = {}  # (rule_idx, k) -> pos_e list
        #: (rule_idx, k) -> per record of fragment k, `(state, next byte)`:
        #: how far the automaton of the gap after it has run from it
        self.runs: dict[tuple[int, int], list[tuple[int, int]]] = {}
        self.emitted: set[tuple[int, int]] = set()
        self.saturated = 0
        self.verify_bytes = 0
        self.escalated = False

    def on_fragment_match(self, ev: tuple[int, int, int, int]) -> list[tuple[int, int]]:
        """Take one fragment match, a `(rule_idx, k, pos_s, pos_e)` tuple:
        fragment k (0-based) of the rule matched bytes pos_s..pos_e. Return
        the rule matches it completes."""
        rule_idx, k, pos_s, pos_e = ev
        rule = self.checks[rule_idx]

        # gaps that examine bytes escalate the packet and count what they read
        if k:
            key = (rule_idx, k - 1)
            ends = self.records.get(key)
            if not ends:
                return []
            how, gap, a, b = rule.links[k]
            examines = gap.examines_bytes
            if examines:
                self.escalated = True
            last = pos_s - 1  # the gap's last byte; it starts after a record
            if how == _LOOKUP:
                # the latest record that leaves lo bytes has the shortest
                # interval the bounds allow, inside every longer one
                i = bisect_right(ends, last - a) - 1
                if i < 0 or (b is not None and ends[i] < last - b):
                    return []
                if examines:
                    ok, n = gap.check(self.data, ends[i] + 1, last)
                    self.verify_bytes += n
                    if not ok:
                        return []
            elif not self._run_accepts(key, gap.stt, a, ends, last):
                return []
        elif not rule.free_lead:
            gap = rule.gaps[0]
            ok, n = gap.check(self.data, 0, pos_s - 1)
            if gap.examines_bytes:
                self.escalated = True
                self.verify_bytes += n
            if not ok:
                return []

        if k < rule.last:
            key = (rule_idx, k)
            kept = self.records.get(key)
            if kept is None:
                self.records[key] = [pos_e]
            else:
                limit = rule.limits[k]
                if limit is None or len(kept) < limit:
                    kept.append(pos_e)
                elif limit == RECORD_CAP:
                    self.saturated += 1
            return []

        # last fragment: the trailing gap decides, and the match ends at the
        # packet end for `$`, else after the gap's shortest window
        if rule.free_trail:
            end = len(self.data) - 1 if rule.anchored_end else pos_e
        else:
            gap, data = rule.gaps[-1], self.data
            ok, gap_len = gap.check(data, pos_e + 1, len(data) - 1)
            if gap.examines_bytes:
                self.escalated = True
                self.verify_bytes += gap_len
            if not ok:
                return []
            end = len(data) - 1 if rule.anchored_end else pos_e + gap_len
        found = (rule.rule_id, end)
        if found in self.emitted:
            return []
        self.emitted.add(found)
        return [found]

    def _run_accepts(self, key: tuple[int, int], stt: CompressedStt, right: bool, ends: list[int], last: int) -> bool:
        """Whether an exact-mode gap automaton accepts `[r + 1, last]` for
        some record r in `ends`, trying them in order like `check` would.

        Each record's run is kept in `runs[key]` and resumed where it
        stopped, so while gap ends move forward a packet reads each byte at
        most once per record. A run settles for good at the dead state and,
        when the gap is right-absorbing, at its first accept, which holds
        for every later end. An interval that ends before the byte a run
        has reached is run again from its record, and that run not kept.
        """
        runs = self.runs.get(key)
        if runs is None:
            runs = self.runs[key] = []
        rows, accepts, data = stt.rows, stt.accepts, self.data
        for i, r in enumerate(ends):
            if r > last:
                return False  # this record and every later one overlap the fragment
            if i < len(runs):
                state, pos = runs[i]
                keep = pos <= last + 1
                if not keep:
                    state, pos = stt.start, r + 1
            else:
                state, pos, keep = stt.start, r + 1, True
                runs.append((state, pos))
            if pos <= last and state != DEAD and not (right and accepts[state]):
                window = data[pos : last + 1]
                it = iter(window)
                for byte in it:
                    state = rows[(state << 8) | byte]
                    if state == DEAD or (right and accepts[state]):
                        break
                read = len(window) - length_hint(it)
                self.verify_bytes += read
                pos += read
            if keep:
                runs[i] = (state, pos)
            # a live run has reached `last`, or settled in the accept sink
            if state != DEAD and accepts[state]:
                return True
        return False
