"""End-to-end compile and scan orchestration.

Compilation runs parse, decomposition, gap classification, filter bank
construction and the two anchored automata, producing an immutable
database that serializes bit-exactly. Scanning walks each packet through
filter hits, reverse threads from every hit, forward threads for split
continuations, and finally the gap verifier, collecting per-stage
counters along the way.
"""
from __future__ import annotations

import hashlib
import json
import struct
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .automata import build_forward_dfa, build_reverse_dfa
from .blob import BlobReader
from .config import CompileConfig
from .decompose import UnsupportedRuleError, decompose_rule
from .parser import PatternError, parse
from .prefilter import FilterBank, build_filter_bank
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
_VERSION = 2


class CompileError(ValueError):
    """No rule survived compilation."""


@dataclass(frozen=True)
class SplitMeta:
    """Scan-side identity of one keyed split."""

    split_id: int
    rule_idx: int   # dense index into the database's rule tables
    frag_k: int     # 0-based fragment position within the rule
    has_back: bool


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
    forward_stt: CompressedStt  # entries keyed by split id
    splits: tuple[SplitMeta, ...]
    checks: tuple[RuleChecks, ...]
    config: CompileConfig
    manifest: dict
    #: split id -> (rule_idx, frag_k, forward entry state or -1): everything
    #: a reverse-thread accept needs, in one index; derived, not serialized
    scan_table: tuple[tuple[int, int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        """Build the scan table, rejecting cross-references the scan would
        trip over: a split outside the rule tables, a reverse accept that
        names no split, a continued split with no forward entry."""
        checks, entries = self.checks, self.forward_stt.entries
        for rule_idx, rc in enumerate(checks):
            if len(rc.gaps) != rc.n_fragments + 1:
                raise ValueError(f"rule {rule_idx} has {len(rc.gaps)} gaps for {rc.n_fragments} fragments")
        table = []
        for sid, m in enumerate(self.splits):
            if not (0 <= m.rule_idx < len(checks) and 0 <= m.frag_k < checks[m.rule_idx].n_fragments):
                raise ValueError(f"split {sid} names fragment {m.frag_k} of rule {m.rule_idx}, which does not exist")
            if m.has_back and sid not in entries:
                raise ValueError(f"split {sid} continues forward but has no forward entry")
            table.append((m.rule_idx, m.frag_k, entries[sid] if m.has_back else -1))
        if max(set().union(*self.reverse_stt.accepts), default=-1) >= len(table):
            raise ValueError("reverse automaton accepts a label that is not a split id")
        self.scan_table = tuple(table)

    # --- serialization ---------------------------------------------------

    def to_bytes(self) -> bytes:
        out = [_MAGIC, struct.pack("<B", _VERSION)]

        def blob(b: bytes) -> None:
            out.append(struct.pack("<Q", len(b)))
            out.append(b)

        blob(json.dumps(self.config.as_dict(), sort_keys=True, separators=(",", ":")).encode())
        blob(json.dumps(self.manifest, sort_keys=True, separators=(",", ":")).encode())
        blob(self.bank.to_bytes())
        blob(self.reverse_stt.to_bytes())
        blob(self.forward_stt.to_bytes())

        out.append(struct.pack("<I", len(self.splits)))
        for m in self.splits:
            out.append(struct.pack("<IIB", m.rule_idx, m.frag_k, int(m.has_back)))

        out.append(struct.pack("<I", len(self.checks)))
        for rc in self.checks:
            out.append(struct.pack("<IIB", rc.rule_id, rc.n_fragments, int(rc.anchored_end)))
            out.append(struct.pack("<I", len(rc.gaps)))
            for gap in rc.gaps:
                blob(gap_to_bytes(gap))
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
        if zlib.crc32(memoryview(buf)[:-4]) != crc:
            raise ValueError("rule database checksum mismatch")

        config = CompileConfig.from_dict(json.loads(r.blob()))
        manifest = json.loads(r.blob())
        bank = FilterBank.from_bytes(r.blob())
        reverse_stt = CompressedStt.from_bytes(r.blob())
        forward_stt = CompressedStt.from_bytes(r.blob())

        (n_splits,) = r.unpack("<I")
        splits = []
        for sid in range(n_splits):
            rule_idx, frag_k, has_back = r.unpack("<IIB")
            splits.append(SplitMeta(sid, rule_idx, frag_k, bool(has_back)))

        (n_rules,) = r.unpack("<I")
        checks = []
        for _ in range(n_rules):
            rule_id, n_frag, anchored_end = r.unpack("<IIB")
            (n_gaps,) = r.unpack("<I")
            gaps = []
            for _ in range(n_gaps):
                chunk = r.blob()
                gap, used = gap_from_bytes(chunk, 0)
                if used != len(chunk):
                    raise ValueError("gap blob length mismatch")
                gaps.append(gap)
            checks.append(RuleChecks(rule_id, n_frag, tuple(gaps), bool(anchored_end)))
        if r.pos != len(buf) - 4:
            raise ValueError("rule database does not end at its checksum")
        return CompiledDatabase(
            bank=bank,
            reverse_stt=reverse_stt,
            forward_stt=forward_stt,
            splits=tuple(splits),
            checks=tuple(checks),
            config=config,
            manifest=manifest,
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
                gaps.append(classify_gap(tree, role, anchored, config.state_cap))
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
    keyed: list[tuple[int, object]] = []
    rev_in: list[tuple[int, object]] = []
    fwd_in: list[tuple[int, object]] = []
    for rule_idx, (_, dec, _) in enumerate(survivors):
        for frag in dec.bounded:
            for sp in frag.splits:
                sid = len(split_meta)
                split_meta.append(SplitMeta(sid, rule_idx, frag.index - 1, sp.back is not None))
                keyed.append((sid, sp.key))
                rev_in.append((sid, sp.front))
                if sp.back is not None:
                    fwd_in.append((sid, sp.back))

    t0 = time.perf_counter()
    bank = build_filter_bank(
        keyed,
        fp_bits=config.fingerprint_bits,
        seed=config.filter_seed,
        attempts=config.filter_build_attempts,
    )
    timings["filter_build"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    reverse_stt = compress(build_reverse_dfa(rev_in, config.state_cap))
    forward_stt = compress(build_forward_dfa(fwd_in, config.state_cap))
    timings["dfa_build"] = time.perf_counter() - t0

    skipped_ids = {s.rule_id for s in skipped}
    manifest = {
        "format": _VERSION,
        "config": config.as_dict(),
        "rules": [
            {
                "pattern": p,
                "digest": hashlib.sha256(p.encode()).hexdigest(),
                "supported": rid not in skipped_ids,
            }
            for rid, p in enumerate(patterns)
        ],
    }
    db = CompiledDatabase(
        bank=bank,
        reverse_stt=reverse_stt,
        forward_stt=forward_stt,
        splits=tuple(split_meta),
        checks=tuple(rc for _, _, rc in survivors),
        config=config,
        manifest=manifest,
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
    reverse_threads: int = 0
    forward_threads: int = 0
    adfa_transitions: int = 0
    escalated_packets: int = 0
    verify_bytes: int = 0
    saturated_records: int = 0

    def merge(self, other: "ScanStats") -> None:
        self.packets += other.packets
        self.bytes += other.bytes
        self.filter_hits += other.filter_hits
        self.reverse_threads += other.reverse_threads
        self.forward_threads += other.forward_threads
        self.adfa_transitions += other.adfa_transitions
        self.escalated_packets += other.escalated_packets
        self.verify_bytes += other.verify_bytes
        self.saturated_records += other.saturated_records


def scan_packet(db: CompiledDatabase, data: bytes, stats: ScanStats) -> list[tuple[int, int]]:
    """Match one packet; returns (rule id, end offset) pairs."""
    stats.packets += 1
    stats.bytes += len(data)
    if not data:
        return []

    # `db.bank.scan`, `run_thread` and `VerificationState` are looked up at
    # call time, once per packet: perfbench/tracing.py replaces these names
    # (and `FilterBank.scan`) to time each layer, and checks its call counts
    # against ScanStats. Binding them at import would bypass the tracer.
    run = run_thread
    reverse_stt = db.reverse_stt
    forward_stt = db.forward_stt
    scan_table = db.scan_table
    ends, _codes = db.bank.scan(data)
    events: set[tuple[int, int, int, int]] = set()  # (pos_e, rule_idx, k, pos_s)
    fwd_runs: dict[int, list[tuple[int, int, int]]] = {}  # entry -> records at this trigger
    triggers = fwd_threads = steps = 0
    last_pos = -1
    for pos in ends.tolist():
        if pos == last_pos:
            continue  # one escalation per trigger offset, whatever units fired
        last_pos = pos
        triggers += 1
        records, depth = run(reverse_stt, data, pos, REVERSE)
        steps += depth
        if not records:
            continue
        if fwd_runs:
            fwd_runs.clear()
        for split_id, s, _e in records:
            rule_idx, k, entry = scan_table[split_id]
            if entry < 0:
                events.add((pos, rule_idx, k, s))
                continue
            frecords = fwd_runs.get(entry)
            if frecords is None:
                fwd_threads += 1
                frecords, fdepth = run(forward_stt, data, pos + 1, FORWARD, entry)
                steps += fdepth
                fwd_runs[entry] = frecords
            for label, _fs, fe in frecords:
                if label == split_id:
                    events.add((fe, rule_idx, k, s))
    stats.filter_hits += triggers
    stats.reverse_threads += triggers
    stats.forward_threads += fwd_threads
    stats.adfa_transitions += steps

    if not events:
        return []
    vs = VerificationState(db.checks, data, db.config.record_cap)
    on_match = vs.on_fragment_match
    matches: list[tuple[int, int]] = []
    for e, rule_idx, k, s in sorted(events):
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


def _scan_shard(db: CompiledDatabase, shard: list[tuple[int, bytes]]) -> tuple[ScanStats, list]:
    stats = ScanStats()
    matches = []
    for idx, packet in shard:
        for rule_id, end in scan_packet(db, packet, stats):
            matches.append((idx, rule_id, end))
    return stats, matches


def scan_corpus(
    db: CompiledDatabase,
    packets: list[bytes],
    workers: int = 1,
) -> ScanReport:
    """Scan packets across independent contexts; the report is
    worker-count invariant."""
    indexed = list(enumerate(packets))
    shards = [indexed[i::workers] for i in range(workers)] if workers > 1 else [indexed]
    total = ScanStats()
    matches: list[tuple[int, int, int]] = []
    if len(shards) == 1:
        results = [_scan_shard(db, shards[0])]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda s: _scan_shard(db, s), shards))
    for stats, shard_matches in results:
        total.merge(stats)
        matches.extend(shard_matches)
    matches.sort()
    return ScanReport(stats=total, matches=matches)


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
