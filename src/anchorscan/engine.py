"""End-to-end compile and scan orchestration.

Compilation runs parse, decomposition, gap classification, filter bank
construction and the two anchored automata, producing an immutable
database that serializes bit-exactly. Scanning walks each packet through
filter hits, reverse threads from the hits, forward threads for split
continuations, and finally the gap verifier, collecting per-stage
counters along the way.

Each rule has one trigger fragment, the one whose keys are rarest. A
2-byte key of another fragment that is no trigger fragment's key is a
held pair. The filter bank leaves the held pairs out; a packet is searched
for one only once a rule it serves has recorded a trigger split there.
`scan_packet` runs one loop over the bank's hit offsets and then the held
pairs' occurrences, and every record goes straight on to its forward
thread; only the verifier asks which rules are live.

A database stores no context gate. `CompiledDatabase.__post_init__` reads
both, the bank's and the held pairs', off the reverse table, at compile and
at load alike, so neither the bank's build nor its load sees an automaton.
"""
from __future__ import annotations

import gc
import json
import multiprocessing as mp
import os
import signal
import socket
import struct
import threading
import time
import traceback
import weakref
import zlib
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .automata import build_forward_dfa, build_reverse_dfa
from .blob import BlobReader
from .config import CompileConfig
from .decompose import FilterKey, UnsupportedRuleError, decompose_rule
from .parser import PatternError, parse
from .prefilter import DirectFilterUnit, FilterBank, HeldPairs, build_filter_bank, context_gate
from .stt import FORWARD, REVERSE, CompressedStt, compress, run_thread
from .verify import (
    INTERIOR,
    LEADING,
    TRAILING,
    RuleChecks,
    VerificationState,
    classify_gap,
    gap_from_bytes,
    gap_to_bytes,
)

_MAGIC = b"ASDB"
_VERSION = 8


def _json(obj) -> bytes:
    """The one byte form a database stores a JSON section in."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


class CompileError(ValueError):
    """No rule survived compilation."""


@dataclass(frozen=True)
class SplitMeta:
    """Scan-side identity of one keyed split; its id is its position in
    `CompiledDatabase.splits`."""

    rule_idx: int   # dense index into the database's rule tables
    frag_k: int     # 0-based fragment position within the rule
    trigger: bool   # a split of its rule's trigger fragment


@dataclass(frozen=True)
class SkippedRule:
    rule_id: int
    reason: str
    message: str


@dataclass
class CompileReport:
    rule_count: int
    supported: list[int]
    skipped: list[SkippedRule]
    timings: dict[str, float]
    counters: dict[str, int]


@dataclass
class CompiledDatabase:
    """Immutable scan artifact; every field is set once at compile time."""

    bank: FilterBank
    reverse_stt: CompressedStt
    forward_stt: CompressedStt  # entries keyed by split id: the splits that continue forward
    splits: tuple[SplitMeta, ...]
    checks: tuple[RuleChecks, ...]
    manifest: dict
    #: the held pairs, ascending: (big-endian 2-byte key value, the sorted
    #: indices of the rules with a non-trigger fragment keyed on it); none
    #: is a key of `bank`
    held: tuple[tuple[int, tuple[int, ...]], ...]
    #: reverse state -> one (split id, rule_idx, frag_k, forward entry
    #: state or -1, trigger bit) per label it accepts, by split id:
    #: everything a reverse-thread accept needs, in one index; derived,
    #: not serialized
    state_splits: tuple[tuple[tuple[int, int, int, int, bool], ...], ...] = field(
        init=False, repr=False, compare=False
    )
    #: the held pairs with their rules, behind their own context gate;
    #: derived
    held_search: HeldPairs = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        """Build the scan tables, rejecting cross-references the scan would
        trip over: a split outside the rule tables, a reverse accept or a
        forward entry that names no split, a rule with no trigger fragment
        or a fragment only partly one, and a held pair that is a key of the
        bank or serves no rule in order. Then read both context gates off
        the reverse table, and replace the bank by the same bank with its
        gate."""
        checks, entries = self.checks, self.forward_stt.entries
        for rule_idx, rc in enumerate(checks):
            if len(rc.gaps) != rc.n_fragments + 1:
                raise ValueError(f"rule {rule_idx} has {len(rc.gaps)} gaps for {rc.n_fragments} fragments")
        table = []
        triggers: dict[tuple[int, int], bool] = {}  # (rule_idx, frag_k) -> trigger bit
        for sid, m in enumerate(self.splits):
            if not (0 <= m.rule_idx < len(checks) and 0 <= m.frag_k < checks[m.rule_idx].n_fragments):
                raise ValueError(f"split {sid} names fragment {m.frag_k} of rule {m.rule_idx}, which does not exist")
            if triggers.setdefault((m.rule_idx, m.frag_k), m.trigger) != m.trigger:
                raise ValueError(f"fragment {m.frag_k} of rule {m.rule_idx} is a trigger in only some splits")
            table.append((sid, m.rule_idx, m.frag_k, entries.get(sid, -1), m.trigger))
        if max(set().union(*self.reverse_stt.accepts), default=-1) >= len(table):
            raise ValueError("reverse automaton accepts a label that is not a split id")
        if max(entries, default=-1) >= len(table):
            raise ValueError(f"forward entry {max(entries)} names no split")
        untriggered = set(range(len(checks))).difference(r for (r, _k), bit in triggers.items() if bit)
        if untriggered:
            raise ValueError(f"rule {min(untriggered)} has no trigger fragment")
        keys = self.bank.unit2.members()
        last = -1
        for value, rules in self.held:
            if not last < value < 65536:
                raise ValueError("held pairs are not strictly increasing 2-byte values")
            if keys[value]:
                # a trigger key held back would keep its rule from going live
                raise ValueError(f"held pair {value:#06x} is a 2-byte key of the filter bank")
            if not rules or not all(a < b for a, b in zip((-1, *rules), (*rules, len(checks)))):
                raise ValueError(f"held pair {value:#06x} serves {list(rules)}, not an increasing list of rules")
            last = value
        self.state_splits = tuple(tuple(table[sid] for sid in sorted(labels)) for labels in self.reverse_stt.accepts)
        ctx2, pre2 = context_gate(self.bank.unit2, self.reverse_stt)
        self.bank = replace(self.bank, ctx2=ctx2, pre2=pre2)
        held = DirectFilterUnit.of_values([value for value, _rules in self.held])
        self.held_search = HeldPairs(self.held, *context_gate(held, self.reverse_stt))

    # --- serialization ---------------------------------------------------

    def to_bytes(self) -> bytes:
        out = [_MAGIC, struct.pack("<B", _VERSION)]

        def blob(b: bytes) -> None:
            out.append(struct.pack("<Q", len(b)))
            out.append(b)

        blob(_json(self.manifest))
        blob(self.bank.to_bytes())
        blob(self.reverse_stt.to_bytes())
        blob(self.forward_stt.to_bytes())

        out.append(struct.pack("<I", len(self.splits)))
        for m in self.splits:
            out.append(struct.pack("<IIB", m.rule_idx, m.frag_k, m.trigger))

        out.append(struct.pack("<I", len(self.held)))
        for value, rules in self.held:
            out.append(struct.pack(f"<HI{len(rules)}I", value, len(rules), *rules))

        out.append(struct.pack("<I", len(self.checks)))
        for rc in self.checks:
            out.append(struct.pack("<IIB", rc.rule_id, rc.n_fragments, int(rc.anchored_end)))
            out.extend(gap_to_bytes(gap) for gap in rc.gaps)
        # checksum the chunks in place: an extra copy of a megabyte-sized
        # database fragments the heap and measurably raises peak RSS
        crc = 0
        for chunk in out:
            crc = zlib.crc32(chunk, crc)
        out.append(struct.pack("<I", crc))
        return b"".join(out)

    @staticmethod
    def from_bytes(buf: bytes) -> "CompiledDatabase":
        r = BlobReader(buf, "rule database")
        if r.take(4) != _MAGIC:
            raise ValueError("not a rule database")
        (version,) = r.unpack("<B")
        if version != _VERSION:
            raise ValueError(f"unsupported database version {version}")
        if len(buf) < r.pos + 4:
            raise ValueError("truncated rule database: no checksum")
        (crc,) = struct.unpack("<I", buf[-4:])
        body = memoryview(buf)[:-4]
        if zlib.crc32(body) != crc:
            raise ValueError("rule database checksum mismatch")
        # the sections are read up to the checksum, never into it
        r = BlobReader(body, "rule database", r.pos)

        raw = r.blob()
        manifest = json.loads(raw)
        if _json(manifest) != raw:
            raise ValueError("rule database manifest is not in canonical form")
        bank = FilterBank.from_bytes(r.blob())
        reverse_stt = CompressedStt.from_bytes(r.blob())
        forward_stt = CompressedStt.from_bytes(r.blob())

        (n_splits,) = r.unpack("<I")
        splits = []
        for _ in range(n_splits):
            rule_idx, frag_k, trigger = r.unpack("<IIB")
            if trigger > 1:
                raise ValueError(f"split {len(splits)} has flag {trigger}, not 0 or 1")
            splits.append(SplitMeta(rule_idx, frag_k, bool(trigger)))

        (n_held,) = r.unpack("<I")
        held = []
        for _ in range(n_held):
            value, count = r.unpack("<HI")
            held.append((value, tuple(r.array("<u4", count).tolist())))

        (n_rules,) = r.unpack("<I")
        checks = []
        for _ in range(n_rules):
            rule_id, n_frag, anchored_end = r.unpack("<IIB")
            if anchored_end > 1:
                raise ValueError(f"rule {rule_id} has end flag {anchored_end}, not 0 or 1")
            gaps = []
            for _ in range(n_frag + 1):
                gap, r.pos = gap_from_bytes(body, r.pos)
                gaps.append(gap)
            checks.append(RuleChecks(rule_id, n_frag, tuple(gaps), bool(anchored_end)))
        r.finish()
        return CompiledDatabase(
            bank=bank,
            reverse_stt=reverse_stt,
            forward_stt=forward_stt,
            splits=tuple(splits),
            checks=tuple(checks),
            manifest=manifest,
            held=tuple(held),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_bytes(self.to_bytes())

    @staticmethod
    def load(path: str | Path) -> "CompiledDatabase":
        return CompiledDatabase.from_bytes(Path(path).read_bytes())


def compile_rules(
    patterns: list[str],
    config: CompileConfig = CompileConfig(),
) -> tuple[CompiledDatabase, CompileReport]:
    """Compile a rule set, skipping unsupported rules individually.

    Raises CompileError only when nothing survives. The report carries the
    four stage timings: decomposition, verification-table build, filter
    construction, automata construction.
    """
    skipped: list[SkippedRule] = []
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    decomposed = []  # (rule_id, DecomposedRule)
    for rid, pattern in enumerate(patterns):
        try:
            rule = parse(pattern, rule_id=rid)
            decomposed.append((rid, decompose_rule(rule, config)))
        except PatternError as exc:
            skipped.append(SkippedRule(rid, "parse-error", str(exc)))
        except UnsupportedRuleError as exc:
            skipped.append(SkippedRule(rid, exc.reason, str(exc)))
    timings["decompose"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    survivors = []  # (rule_id, DecomposedRule, RuleChecks)
    for rid, dec in decomposed:
        n = dec.fragment_count
        try:
            gaps = []
            for gi, tree in enumerate(dec.gaps):
                if gi == 0:
                    role, anchored = LEADING, dec.rule.anchored_start
                elif gi == n:
                    role, anchored = TRAILING, dec.rule.anchored_end
                else:
                    role, anchored = INTERIOR, False
                gaps.append(classify_gap(tree, role, anchored))
        except UnsupportedRuleError as exc:
            skipped.append(SkippedRule(rid, exc.reason, str(exc)))
            continue
        checks = RuleChecks(rid, n, tuple(gaps), dec.rule.anchored_end)
        survivors.append((rid, dec, checks))
    timings["verify_tables"] = time.perf_counter() - t0

    if not survivors:
        detail = "; ".join(f"rule {s.rule_id}: {s.reason}" for s in skipped)
        raise CompileError(f"no rule survived compilation ({detail})")

    # global split numbering across surviving rules
    split_meta: list[SplitMeta] = []
    keys: list[FilterKey] = []
    rev_in: list[tuple[int, object]] = []
    fwd_in: list[tuple[int, object]] = []
    trigger_pairs: set[bytes] = set()  # 2-byte keys of trigger fragments
    served: dict[bytes, set[int]] = {}  # 2-byte key of other fragments -> their rules
    for rule_idx, (_, dec, _) in enumerate(survivors):
        # the rarest fragment, by summed key probability; `min` keeps the earliest on a tie
        trigger = min(dec.bounded, key=lambda frag: sum(sp.key.probability for sp in frag.splits))
        for frag in dec.bounded:
            for sp in frag.splits:
                sid = len(split_meta)
                split_meta.append(SplitMeta(rule_idx, frag.index - 1, frag is trigger))
                keys.append(sp.key)
                rev_in.append((sid, sp.front))
                if sp.back is not None:
                    fwd_in.append((sid, sp.back))
                if sp.key.length == 2:
                    for pair in sp.key.expand():
                        if frag is trigger:
                            trigger_pairs.add(pair)
                        else:
                            served.setdefault(pair, set()).add(rule_idx)
    held = tuple(
        (int.from_bytes(pair, "big"), tuple(sorted(rules)))
        for pair, rules in sorted(served.items())
        if pair not in trigger_pairs
    )
    # the bank holds the 2-byte keys of trigger fragments alone: every other
    # fragment's 2-byte key is a trigger's or a held pair
    bank_keys = [key for key, m in zip(keys, split_meta) if key.length != 2 or m.trigger]

    t0 = time.perf_counter()
    bank = build_filter_bank(bank_keys)
    timings["filter_build"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    # each dense automaton is freed once compressed, so that the reverse
    # one's table is not held through the forward build
    reverse_stt = compress(build_reverse_dfa(rev_in))
    forward_stt = compress(build_forward_dfa(fwd_in))
    timings["dfa_build"] = time.perf_counter() - t0

    db = CompiledDatabase(
        bank=bank,
        reverse_stt=reverse_stt,
        forward_stt=forward_stt,
        splits=tuple(split_meta),
        checks=tuple(rc for _, _, rc in survivors),
        manifest={"rules": list(patterns)},
        held=held,
    )
    report = CompileReport(
        rule_count=len(patterns),
        supported=[rid for rid, _, _ in survivors],
        skipped=skipped,
        timings=timings,
        counters={
            "fragments": sum(dec.fragment_count for _, dec, _ in survivors),
            "splits": len(split_meta),
            "filter_keys": bank.key_count,
            "held_pairs": len(held),
            "reverse_states": reverse_stt.n_states,
            "forward_states": forward_stt.n_states,
        },
    )
    return db, report


# --- scanning -----------------------------------------------------------------


@dataclass
class ScanStats:
    packets: int = 0
    bytes: int = 0
    filter_hits: int = 0
    held_runs: int = 0
    forward_threads: int = 0
    adfa_transitions: int = 0
    escalated_packets: int = 0
    verify_bytes: int = 0
    saturated_records: int = 0

    def merge(self, other: "ScanStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    @property
    def reverse_threads(self) -> int:
        """One reverse thread runs per trigger, so this is `filter_hits`;
        `held_runs` of them started at a held pair."""
        return self.filter_hits


def scan_packet(db: CompiledDatabase, data: bytes, stats: ScanStats) -> list[tuple[int, int]]:
    """Match one packet; returns (rule id, end offset) pairs.

    One loop runs a reverse thread from every trigger offset. It starts
    with the distinct filter-hit offsets; a rule whose trigger split
    records there is live. The bank holds no held pair, so once its offsets
    run out `live` is settled: the packet is then searched for the held
    pairs of live rules, and the occurrences the bank did not hit join the
    loop. Every record goes straight on to its forward thread and event,
    and the verifier takes the events of live rules only. A rule can match
    only where its trigger fragment matched, and every trigger key is in
    the bank, so no match is lost.
    """
    stats.packets += 1
    stats.bytes += len(data)
    if not data:
        return []

    # `db.bank.scan`, `run_thread` and `VerificationState` are looked up at
    # call time, once per packet: perfbench/tracing.py replaces these names
    # (and `FilterBank.scan`) to time each layer, and checks its call counts
    # against ScanStats. Binding them at import would bypass the tracer.
    # The unit codes that `scan` returns are the tracer's too.
    run = run_thread
    ends, _codes = db.bank.scan(data)
    if not ends:
        return []
    reverse_stt = db.reverse_stt
    forward_stt = db.forward_stt
    forward_accepts = forward_stt.accepts
    state_splits = db.state_splits
    live: set[int] = set()  # rules whose trigger split recorded
    events: set[tuple[int, int, int, int]] = set()  # (pos_e, rule_idx, k, pos_s)
    fwd_runs: dict[int, list[tuple[int, int]]] = {}  # entry -> its thread's hits at this trigger
    triggers = fwd_threads = steps = held_runs = 0
    last_pos = -1
    ends.append(-1)  # marks where the bank's offsets run out; `scan` returns a fresh list
    for pos in ends:
        if pos == last_pos:
            continue  # one escalation per trigger offset, whatever units fired
        if pos < 0:  # the bank's offsets ran out, so `live` is settled
            found = db.held_search.ends(data, live) if live else None
            if found:
                ran = set(ends)
                held = [p for p in found if p not in ran]
                held_runs = len(held)
                ends += held  # the loop goes on over them
            continue
        last_pos = pos
        triggers += 1
        hits, depth = run(reverse_stt, data, pos, REVERSE)
        steps += depth
        if not hits:
            continue
        if fwd_runs:
            fwd_runs.clear()
        # a hit is (accepting state, pos_s); each of the state's splits records
        for state, s in hits:
            for split_id, rule_idx, k, entry, trigger in state_splits[state]:
                if trigger:
                    live.add(rule_idx)
                if entry < 0:
                    events.add((pos, rule_idx, k, s))
                    continue
                fhits = fwd_runs.get(entry)
                if fhits is None:
                    fwd_threads += 1
                    fhits, fdepth = run(forward_stt, data, pos + 1, FORWARD, entry)
                    steps += fdepth
                    fwd_runs[entry] = fhits
                for fstate, fe in fhits:
                    if split_id in forward_accepts[fstate]:
                        events.add((fe, rule_idx, k, s))
    stats.filter_hits += triggers
    stats.held_runs += held_runs
    stats.forward_threads += fwd_threads
    stats.adfa_transitions += steps

    if not (live and events):
        return []
    vs = VerificationState(db.checks, data)
    on_match = vs.on_fragment_match
    matches: list[tuple[int, int]] = []
    for e, rule_idx, k, s in sorted(events):
        if rule_idx in live:
            found = on_match((rule_idx, k, s, e))
            if found:
                matches.extend(found)
    stats.escalated_packets += int(vs.escalated)
    stats.verify_bytes += vs.verify_bytes
    stats.saturated_records += vs.saturated
    matches.sort()
    return matches


@dataclass
class ScanReport:
    stats: ScanStats
    matches: list[tuple[int, int, int]]  # (packet index, rule id, end offset)

    def to_dict(self) -> dict:
        st = self.stats

        def ratio(num: int, den: int) -> float:
            return num / den if den else 0.0

        return {
            "packets": st.packets,
            "bytes": st.bytes,
            "filter_hits": st.filter_hits,
            "held_runs": st.held_runs,
            "filter_hit_ratio": ratio(st.filter_hits, st.bytes),
            "reverse_threads": st.reverse_threads,
            "forward_threads": st.forward_threads,
            "adfa_transitions": st.adfa_transitions,
            "adfa_byte_ratio": ratio(st.adfa_transitions, st.bytes),
            "escalated_packets": st.escalated_packets,
            "escalated_ratio": ratio(st.escalated_packets, st.packets),
            "verify_bytes": st.verify_bytes,
            "verify_byte_ratio": ratio(st.verify_bytes, st.bytes),
            "saturated_records": st.saturated_records,
            "matches": [
                {"packet": p, "rule": r, "end": e} for p, r, e in self.matches
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_csv(self) -> str:
        d = self.to_dict()
        cols = [k for k in d if k != "matches"] + ["match_count"]
        vals = [str(d[k]) for k in d if k != "matches"] + [str(len(self.matches))]
        return ",".join(cols) + "\n" + ",".join(vals) + "\n"


def _scan_range(
    db: CompiledDatabase, packets: list[bytes], start: int, stop: int, base: int, stats: ScanStats, matches: list
) -> None:
    """Scan packets[start:stop], reporting packet `i` as `base + i`."""
    for idx in range(start, stop):
        for rule_id, end in scan_packet(db, packets[idx], stats):
            matches.append((base + idx, rule_id, end))


def _scan_chunks(db: CompiledDatabase, packets: list[bytes], base: int, size: int, next_chunk) -> tuple[ScanStats, list]:
    """Scan chunks of `size` packets, claiming each from the shared counter
    `next_chunk`, until every chunk is claimed."""
    stats = ScanStats()
    matches: list = []
    lock = next_chunk.get_lock()
    while True:
        with lock:
            start = next_chunk.value * size
            if start >= len(packets):
                return stats, matches
            next_chunk.value += 1
        _scan_range(db, packets, start, min(start + size, len(packets)), base, stats, matches)


def _windows(packets: list[bytes], limit: int):
    """Consecutive `(start, stop)` runs of packets, each of at most `limit`
    bytes or a single packet."""
    start = nbytes = 0
    for i, packet in enumerate(packets):
        if nbytes + len(packet) > limit and i > start:
            yield start, i
            start, nbytes = i, 0
        nbytes += len(packet)
    if start < len(packets):
        yield start, len(packets)


def _pin(cpus: set[int]) -> bool:
    """Bind the calling thread to `cpus`; False, leaving it as it was, if
    the host refuses (a CPU it does not have, say)."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        return False
    return True


def _serve(db: CompiledDatabase, next_chunk, conn, inherited: list, cpu: int) -> None:
    """Worker loop: pinned to `cpu` where the host allows, for each
    `(packets, base, size)` received on `conn`, scan the chunks it claims
    and send back their `(ScanStats, matches)`, or the traceback text if
    the scan raised. Returns, ending the process, once the parent's end of
    `conn` is closed."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the parent's to handle
    for other in inherited:  # the parent's ends, so that only the parent holds them open
        other.close()
    _pin({cpu})
    while True:
        try:
            packets, base, size = conn.recv()
        except EOFError:
            return
        try:
            reply = _scan_chunks(db, packets, base, size, next_chunk)
        except Exception:
            reply = traceback.format_exc()
        conn.send(reply)


class _WorkerPool:
    """`n - 1` forked processes that scan packets alongside the calling
    process, against the database they inherited.

    A call goes in rounds of at most `WINDOW_BYTES` of packets. Each round
    sends every child the round's packets and cuts them into
    `CHUNKS_PER_PROCESS * n` chunks, which the calling process and the
    children claim one at a time from a shared counter: a process that runs
    slower, because other work holds its CPU, claims fewer chunks.

    Each process has a CPU of its own, taken in order from the calling
    thread's affinity mask when the pool is made: the calling thread gets
    the first for the span of `scan` only, and then has its mask back,
    while each child pins itself to one of the next `n - 1` at start. Left
    to the scheduler, the two processes of a 2-CPU pool were found sharing
    one CPU, a time slice each, for whole rounds. Placement is best effort:
    a process the host will not pin runs unpinned. A caller whose mask has
    changed since is served by a new pool.

    The database reaches the children through the fork, never pickled.
    Pipes, read and written by the calling thread, rather than
    `multiprocessing.Pool`, whose helper threads would contend for the GIL
    with the chunks scanned here. The children are forked, not spawned,
    because inheriting the database is the point; the engine starts no
    threads that a fork could break. They are daemonic: they are terminated
    at interpreter exit, and exit on their own once the parent's end of
    their pipe closes.
    """

    CHUNKS_PER_PROCESS = 8
    WINDOW_BYTES = 4 << 20  # bounds the copies a round makes; fits the send buffer below

    def __init__(self, db: CompiledDatabase, n: int):
        self.db = weakref.ref(db)
        self.pid = os.getpid()
        self.mask = os.sched_getaffinity(0)
        self.cpus = sorted(self.mask)[:n]  # this process's first, then one per child
        self.conns: list = []
        self.procs: list = []
        ctx = mp.get_context("fork")
        self.next_chunk = ctx.Value("q", 0)
        try:
            for cpu in self.cpus[1:]:
                here, there = ctx.Pipe()
                with socket.fromfd(here.fileno(), socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                    # room for a whole round (as far as net.core.wmem_max allows),
                    # so that sending it does not wait for the child to wake and read
                    sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, self.WINDOW_BYTES)
                proc = ctx.Process(
                    target=_serve, args=(db, self.next_chunk, there, [*self.conns, here], cpu), daemon=True
                )
                # frozen at the fork, the inherited objects are never scanned by
                # the child's collector, which keeps more of their pages shared
                gc.freeze()
                try:
                    proc.start()
                finally:
                    gc.unfreeze()
                there.close()
                self.conns.append(here)
                self.procs.append(proc)
        except BaseException:
            self.close()
            raise

    def serves(self, db: CompiledDatabase, n: int) -> bool:
        return (
            self.db() is db
            and len(self.procs) == n - 1
            and self.pid == os.getpid()
            and self.mask == os.sched_getaffinity(0)
        )

    def scan(self, db: CompiledDatabase, packets: list[bytes]) -> tuple[ScanStats, list]:
        before = os.sched_getaffinity(0)
        pinned = _pin({self.cpus[0]})
        try:
            total, matches = ScanStats(), []
            for start, stop in _windows(packets, self.WINDOW_BYTES):
                window = packets[start:stop]
                size = -(-len(window) // (self.CHUNKS_PER_PROCESS * (len(self.procs) + 1)))
                self.next_chunk.value = 0  # no child is claiming: each answered the last round
                for k, conn in enumerate(self.conns):
                    try:
                        conn.send((window, start, size))
                    except OSError as exc:
                        raise self._exited(k) from exc
                replies = [_scan_chunks(db, window, start, size, self.next_chunk)]
                for k, conn in enumerate(self.conns):
                    try:
                        replies.append(conn.recv())
                    except (EOFError, OSError) as exc:
                        raise self._exited(k) from exc
                    if isinstance(replies[-1], str):
                        raise RuntimeError(f"worker process {self.procs[k].pid} failed:\n{replies[-1]}")
                for stats, found in replies:
                    total.merge(stats)
                    matches.extend(found)
            return total, matches
        finally:
            if pinned:
                os.sched_setaffinity(0, before)

    def _exited(self, k: int) -> RuntimeError:
        return RuntimeError(f"worker process {self.procs[k].pid} exited")

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        for proc in self.procs:
            proc.terminate()
            proc.join()


_pool: _WorkerPool | None = None  # the processes serving the last database scanned in parallel
_pool_lock = threading.Lock()  # one parallel scan at a time on the pool's pipes


def _scan_parallel(db: CompiledDatabase, packets: list[bytes], n: int) -> tuple[ScanStats, list]:
    global _pool
    with _pool_lock:
        if _pool is not None and not _pool.serves(db, n):
            if _pool.pid == os.getpid():  # a forked copy of another process's pool is not ours to close
                _pool.close()
            _pool = None
        if _pool is None:
            _pool = _WorkerPool(db, n)
        try:
            return _pool.scan(db, packets)
        except BaseException:
            # a failed call leaves replies unread or a child gone: start afresh next time
            _pool.close()
            _pool = None
            raise


def worker_pids() -> list[int]:
    """Process ids of the workers this process keeps for parallel scans."""
    pool = _pool
    return [proc.pid for proc in pool.procs] if pool is not None and pool.pid == os.getpid() else []


def scan_corpus(
    db: CompiledDatabase,
    packets: list[bytes],
    workers: int = 1,
) -> ScanReport:
    """Scan packets with `n = min(workers, usable CPUs)` processes and merge
    their counters and matches; the report does not depend on n.

    With n = 1 the corpus is scanned in this thread. Otherwise this process
    and n - 1 forked worker processes share the packets out in chunks, each
    process on a CPU of its own (see `_WorkerPool`). The workers are started
    on the first such call for a database and kept for later calls with the
    same database object, n and affinity mask; a change in any of them
    starts new ones. A scan that raises in a worker, or a worker that dies,
    makes the call raise `RuntimeError`, and the next call starts new
    workers.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    n = min(workers, len(os.sched_getaffinity(0)))
    if n == 1:
        stats, matches = ScanStats(), []
        _scan_range(db, packets, 0, len(packets), 0, stats, matches)
    else:
        stats, matches = _scan_parallel(db, packets, n)
    matches.sort()
    return ScanReport(stats=stats, matches=matches)


# --- corpus readers -----------------------------------------------------------


def read_corpus(path: str | Path) -> list[bytes]:
    """Load packets: a directory is one packet per file (sorted by name),
    a .pkts file is a u32-little-endian length-prefixed container, any
    other file is a single packet."""
    p = Path(path)
    if p.is_dir():
        return [f.read_bytes() for f in sorted(p.iterdir()) if f.is_file()]
    data = p.read_bytes()
    if p.suffix != ".pkts":
        return [data]
    packets = []
    pos = 0
    while pos < len(data):
        if pos + 4 > len(data):
            raise ValueError("truncated packet container")
        (size,) = struct.unpack_from("<I", data, pos)
        pos += 4
        if pos + size > len(data):
            raise ValueError("truncated packet container")
        packets.append(data[pos : pos + size])
        pos += size
    return packets


def write_corpus(path: str | Path, packets: list[bytes]) -> None:
    """Write the length-prefixed container format."""
    with open(path, "wb") as fh:
        for packet in packets:
            fh.write(struct.pack("<I", len(packet)))
            fh.write(packet)
