#!/usr/bin/env python3
"""anchorscan benchmark: the `mixed` rule set against three seeded corpora.

Run from the repository root:

    python3 perfbench/run.py --workload clean --seed 1 --seconds 25 --trace 0

All load comes from this one process. Corpus scans are batch jobs: each
batch (about 50 ms of work) is scanned with `scan_corpus` at workers=1 and
at workers=2, never more threads than the host's two cores, and throughput
is the median over batches. Per-packet latency is `scan_packet` service
time in a closed loop with one caller: every visited packet is timed
LATENCY_REPEATS times, spread over its batch, its service time is the
median of its timings, and p50/p99 are taken over packets. Every scan uses
the database after a `to_bytes`/`from_bytes` round trip, and a seeded
sample of packets is checked against the oracle outside the timed region.

Times are reported at a reference host speed: each timed operation is
divided by the slowness that a calibration loop measures just before and
after it (see HostSpeed).

--trace 0 reports the end-to-end metrics of BENCHMARK.json with tracing
off. --trace 1 reports its per-layer metrics from one traced scan of the
whole corpus (spans written to .bench_out/) and the tracing overhead.
The lines before the last name every metric with its unit and the bases
of its ratios; the last line is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BATCH_BYTES = 60_000
SETUP_REPEATS = 5
MIN_LATENCY_PACKETS = 1000  # so that at least 10 packets lie beyond p99
LATENCY_REPEATS = 4  # timings of each packet per visit, spread over the visit
REF_NS = 4_500_000  # calibration loop time at the reference speed (typical of a busy 2-core host)

_TABLE_BITS = 19  # 2 MB of uint32, about the size of the compiled tables
_TABLE = (np.arange(1 << _TABLE_BITS, dtype=np.uint64) * 2654435761 % (1 << 30)).astype(np.uint32)


def slowness() -> float:
    """How many times slower than the reference speed the host runs now.

    Times a fixed loop shaped like the engine's work but sharing no code
    with it: scalar lookups at scattered offsets of a 2 MB numpy table (the
    automaton steps), tuple-keyed dict and set updates (the verifier) and
    short vector operations (the filter bank).
    """
    t0 = perf_counter_ns()
    idx = acc = 1
    counts: dict[tuple[int, int], int] = {}
    seen = set()
    for i in range(4000):
        idx = (idx * 1103515245 + 12345) & ((1 << _TABLE_BITS) - 1)
        value = int(_TABLE[idx])
        acc ^= value
        key = (value & 1023, i & 7)
        counts[key] = counts.get(key, 0) + 1
        seen.add(value & 4095)
    for _ in range(10):
        acc ^= int(((_TABLE[:8192] << np.uint32(3)) ^ _TABLE[8192:16384]).sum() & 0xFF)
    return (perf_counter_ns() - t0) / REF_NS


class HostSpeed:
    """Calibration samples taken between timed operations.

    On a shared host the speed of the engine and of the calibration loop
    drift together, by up to 2x within seconds. Dividing an operation's time
    by the mean slowness sampled just before and just after it reports the
    time at the reference speed, which is what the metrics give.
    """

    def __init__(self) -> None:
        self.samples = [slowness()]

    def factor(self) -> float:
        """Slowness over the operation that has just ended."""
        self.samples.append(slowness())
        return (self.samples[-2] + self.samples[-1]) / 2

    def summary(self) -> str:
        return (
            f"host slowness median {statistics.median(self.samples):.3f}, "
            f"range {min(self.samples):.3f}-{max(self.samples):.3f} over {len(self.samples)} samples"
        )


def load_engine() -> None:
    """Import anchorscan from this checkout's sources, or exit non-zero."""
    if not (SRC / "anchorscan" / "engine.py").is_file():
        sys.exit(f"perfbench: no anchorscan sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import anchorscan

    if Path(anchorscan.__file__).resolve().parent != (SRC / "anchorscan").resolve():
        sys.exit(f"perfbench: anchorscan was imported from {anchorscan.__file__}")


class Checks:
    """Scan operations attempted and failed, and failed self-checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: Counter = Counter()

    def run(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # a failed scan is counted and reported, not fatal
            self.failed += 1
            if self.failed == 1:
                traceback.print_exc()
            return None

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems[what] += 1


def split_batches(packets: list[bytes], batch_bytes: int) -> list[list[bytes]]:
    batches, cur, size = [], [], 0
    for packet in packets:
        cur.append(packet)
        size += len(packet)
        if size >= batch_bytes:
            batches.append(cur)
            cur, size = [], 0
    if cur and batches:
        batches[-1].extend(cur)
    elif cur:
        batches.append(cur)
    return batches


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def measure(db, batches, seconds, checks, notes) -> dict:
    """Untraced scan throughput (workers 1 and 2) and per-packet latency."""
    from anchorscan.engine import ScanStats, scan_corpus, scan_packet

    scan_corpus(db, batches[0], 1)  # warm-up, untimed
    rates = {1: [], 2: []}
    service: dict[tuple[int, int], list[float]] = {}  # (batch, index) -> ns
    reference: dict[int, tuple] = {}
    wanted = min(MIN_LATENCY_PACKETS, sum(map(len, batches)))
    host = HostSpeed()
    deadline = perf_counter() + seconds
    i = 0
    while perf_counter() < deadline or len(service) < wanted:
        b = i % len(batches)
        batch = batches[b]
        i += 1
        nbytes = sum(map(len, batch))
        for workers in (1, 2):
            t0 = perf_counter()
            report = checks.run(scan_corpus, db, batch, workers)
            elapsed = perf_counter() - t0
            speed = host.factor()
            if report is None:
                continue
            rates[workers].append(nbytes / 1e6 * speed / elapsed)
            got = (report.stats, report.matches)
            checks.expect(reference.setdefault(b, got) == got, "scan_corpus result differs between passes or workers")
        for _ in range(LATENCY_REPEATS):  # repeats spread over time, not back to back
            stats = ScanStats()
            matches = []
            block = []
            for idx, packet in enumerate(batch):
                t0 = perf_counter_ns()
                found = checks.run(scan_packet, db, packet, stats)
                block.append(perf_counter_ns() - t0)
                matches.extend((idx, rule, end) for rule, end in found or ())
            speed = host.factor()
            for idx, elapsed_ns in enumerate(block):
                service.setdefault((b, idx), []).append(elapsed_ns / speed)
            if b in reference:
                checks.expect(reference[b] == (stats, matches), "scan_packet results differ from scan_corpus")
    per_packet = [statistics.median(times) for times in service.values()]
    notes.append(
        f"scan: {len(rates[1])} batches at workers=1, {len(rates[2])} at workers=2, "
        f"{len(batches)} distinct; latency: {len(per_packet)} packets from "
        f"{sum(map(len, service.values()))} timings, each packet its median; {host.summary()}"
    )
    return {
        "scan_mb_s": statistics.median(rates[1]),
        "scan2_mb_s": statistics.median(rates[2]),
        "pkt_p50_us": percentile(per_packet, 50) / 1000,
        "pkt_p99_us": percentile(per_packet, 99) / 1000,
    }


def oracle_check(db, rules, supported, packets, count, seed, checks, notes) -> float:
    """Share of sampled (rule, packet) pairs on which engine and oracle agree.

    A pair fails when the engine's yes/no differs from `oracle_match`, when an
    engine end is not among the oracle's ends, or when the scan raises.
    """
    from anchorscan.engine import ScanStats, scan_packet
    from anchorscan.oracle import oracle_match
    from anchorscan.parser import parse

    rng = random.Random(f"oracle-{seed}")
    sample = sorted(rng.sample(range(len(packets)), min(count, len(packets))))
    trees = [parse(rules[rid], rid) for rid in supported]
    tally: Counter = Counter()
    for i in sample:
        data = packets[i]
        found = checks.run(scan_packet, db, data, ScanStats())
        ends: dict[int, set[int]] = {}
        for rule, end in found or ():
            ends.setdefault(rule, set()).add(end)
        for tree in trees:
            expected = oracle_match(tree, data)
            got = ends.get(tree.rule_id, set())
            tally["pairs"] += 1
            if found is None:
                tally["raised"] += 1
            elif expected and not got:
                tally["missed"] += 1
            elif got and not expected:
                tally["false_match"] += 1
            elif not got <= set(expected.ends):
                tally["stray_end"] += 1
    failed = tally["raised"] + tally["missed"] + tally["false_match"] + tally["stray_end"]
    notes.append(
        f"oracle: {failed} of {tally['pairs']} (rule, packet) pairs disagree "
        f"(mismatch_share {failed / tally['pairs']:.6f}; missed {tally['missed']}, "
        f"false {tally['false_match']}, ends outside the oracle's {tally['stray_end']}, "
        f"raised {tally['raised']}) over {len(sample)} packets x {len(trees)} rules"
    )
    return 1 - failed / tally["pairs"]


def traced(db, rules, blob, packets, batches, seconds, checks, notes, header) -> dict:
    """Per-layer metrics from one traced scan of the corpus, plus overhead."""
    from anchorscan.engine import compile_rules, scan_corpus
    from tracing import Tracer

    tracer = Tracer()
    host = HostSpeed()
    with tracer.installed():
        traced_db, compile_report = tracer.call("compile", compile_rules, rules)
    build_speed = host.factor()
    checks.expect(traced_db.to_bytes() == blob, "traced compile produced a different database")
    build, _ = tracer.self_ns()

    reference = checks.run(scan_corpus, db, packets, 1)
    tracer.reset()
    host.factor()  # a fresh sample just before the traced scan
    with tracer.installed():
        report = checks.run(scan_corpus, db, packets, 1)
    scan_speed = host.factor()
    if reference is None or report is None:
        return {}
    checks.expect(report.to_json() == reference.to_json(), "traced scan report differs from the untraced one")
    layers, roots = tracer.self_ns()
    checks.expect(
        set(roots) == {"engine"} and roots["engine"] == tracer.root_ns("engine"),
        "layer self times do not add up to the scan_packet total",
    )
    st, n = report.stats, tracer.counts
    checks.expect(n["stt.reverse.threads"] == st.reverse_threads == st.filter_hits, "reverse thread count differs from ScanStats")
    checks.expect(n["stt.forward.threads"] == st.forward_threads, "forward thread count differs from ScanStats")
    checks.expect(n["stt.reverse.steps"] + n["stt.forward.steps"] == st.adfa_transitions, "automaton steps differ from ScanStats")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{header['workload']}.jsonl.gz", header)
    (OUT / f"rule-matches-{header['workload']}.json").write_text(
        json.dumps({str(rule): count for rule, count in sorted(tracer.rule_matches.items())}, indent=1)
    )
    scan_ns = tracer.root_ns("engine")
    notes.append(
        f"trace: {len(tracer.spans)} spans over {st.packets} packets, {st.bytes} B; self-time shares of "
        f"scan_packet: " + ", ".join(f"{k} {v / scan_ns:.1%}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1]))
    )

    # times at the reference host speed, like the end-to-end metrics
    def ns(layer: str) -> float:
        return layers.get(layer, 0) / scan_speed

    def build_s(layer: str) -> float:
        return build.get(layer, 0) / build_speed / 1e9

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {
        "prefilter.scan_s": ns("prefilter") / 1e9,
        "prefilter.ns_per_byte": ratio(ns("prefilter"), st.bytes),
        "prefilter.hits2": n["prefilter.hits2"],
        "prefilter.hits4": n["prefilter.hits4"],
        "prefilter.hits8": n["prefilter.hits8"],
        "prefilter.triggers": st.filter_hits,
        "prefilter.productive_ratio": ratio(n["prefilter.productive"], st.filter_hits),
        "stt.reverse_s": ns("stt.reverse") / 1e9,
        "stt.reverse_threads": st.reverse_threads,
        "stt.reverse_steps": n["stt.reverse.steps"],
        "stt.reverse_ns_per_step": ratio(ns("stt.reverse"), n["stt.reverse.steps"]),
        "stt.forward_s": ns("stt.forward") / 1e9,
        "stt.forward_threads": st.forward_threads,
        "stt.forward_steps": n["stt.forward.steps"],
        "verify.s": ns("verify") / 1e9,
        "verify.events": n["verify.events"],
        "verify.bytes": st.verify_bytes,
        "verify.escalated_packets": st.escalated_packets,
        "verify.saturated_records": st.saturated_records,
        "verify.match_yield": ratio(len(report.matches), n["verify.events"]),
        "engine.self_s": ns("engine") / 1e9,
        "engine.self_ns_per_packet": ratio(ns("engine"), st.packets),
        "engine.matches": len(report.matches),
        "engine.rules_hit": len(tracer.rule_matches),
        "parser.s": build_s("parser"),
        "decompose.s": build_s("decompose"),
        "decompose.splits": compile_report.counters["splits"],
        "verify.classify_s": build_s("verify.classify"),
        "prefilter.build_s": build_s("prefilter.build"),
        "prefilter.keys": compile_report.counters["filter_keys"],
        "automata.reverse_build_s": build_s("automata.reverse_build"),
        "automata.forward_build_s": build_s("automata.forward_build"),
        "automata.reverse_states": compile_report.counters["reverse_states"],
        "automata.forward_states": compile_report.counters["forward_states"],
        "stt.compress_s": build_s("stt.compress"),
        "stt.compressed_bytes": db.reverse_stt.compressed_bytes + db.forward_stt.compressed_bytes,
    }

    # tracing overhead: alternate untraced and traced scans of each batch
    rates = {False: [], True: []}
    deadline = perf_counter() + seconds
    i = 0
    while perf_counter() < deadline:
        batch = batches[i % len(batches)]
        i += 1
        nbytes = sum(map(len, batch))
        for on in (False, True):
            tracer.reset()
            t0 = perf_counter()
            if on:
                with tracer.installed():
                    done = checks.run(scan_corpus, db, batch, 1)
            else:
                done = checks.run(scan_corpus, db, batch, 1)
            elapsed = perf_counter() - t0
            speed = host.factor()
            if done is not None:
                rates[on].append(nbytes / 1e6 * speed / elapsed)
    tracer.reset()
    metrics["trace.untraced_mb_s"] = statistics.median(rates[False])
    metrics["trace.traced_mb_s"] = statistics.median(rates[True])
    notes.append(f"trace overhead: medians over {len(rates[True])} batch pairs; {host.summary()}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="anchorscan benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_engine()
    from anchorscan.engine import CompiledDatabase, compile_rules
    from workloads import WORKLOADS, mixed_rules

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    checks = Checks()
    notes: list[str] = []

    rules = mixed_rules()
    setup = []
    host = HostSpeed()
    for _ in range(1 if args.trace else SETUP_REPEATS):
        t0 = perf_counter()
        compiled, compile_report = compile_rules(rules)
        elapsed = perf_counter() - t0
        setup.append(elapsed / host.factor())
    blob = compiled.to_bytes()
    db = CompiledDatabase.from_bytes(blob)
    checks.expect(db == compiled, "database changed in a to_bytes/from_bytes round trip")
    notes.append(
        f"rules: {len(rules)}, {len(compile_report.supported)} supported; "
        f"setup: median of {len(setup)} compiles"
    )

    packets = workload.make(rules, args.seed)
    batches = split_batches(packets, workload.batch_bytes)
    notes.append(f"corpus: {len(packets)} packets, {sum(map(len, packets))} B, {len(batches)} batches")

    if args.trace:
        header = {"workload": args.workload, "seed": args.seed}
        metrics = traced(db, rules, blob, packets, batches, args.seconds, checks, notes, header)
        declared = spec["per_layer"]
    else:
        metrics = measure(db, batches, args.seconds, checks, notes)
        metrics["setup_s"] = statistics.median(setup)
        metrics["db_bytes"] = len(blob)
        declared = spec["end_to_end"]
    agree = oracle_check(db, rules, compile_report.supported, packets, workload.oracle_packets, args.seed, checks, notes)
    if not args.trace:
        metrics["oracle_agree_share"] = agree
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    units = {m["name"]: m["unit"] for m in declared}
    checks.expect(set(metrics) == set(units), "metrics differ from those BENCHMARK.json declares")
    for note in notes:
        print(note)
    for what, times in checks.problems.items():
        print(f"FAILED CHECK ({times}x): {what}")
    for name in units:
        if name in metrics:
            print(f"{name:28} {metrics[name]:>16.6f} {units[name]}")
    result = {
        "correct": not checks.problems and checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
