"""Command-line surface: compile, scan, diff, bench, gen."""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import multiprocessing
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .automata import StateExplosionError, classic_state_count
from .config import CompileConfig
from .engine import (
    CompiledDatabase,
    CompileError,
    ScanStats,
    compile_rules,
    read_corpus,
    scan_corpus,
    scan_packet,
    worker_pids,
    write_corpus,
)
from .oracle import oracle_match
from .parser import parse
from .prefilter import build_xor_unit, splitmix64
from .synth import DOTSTAR_MAX_K, diff_packets, dotstar_family, filter_stress_ruleset, random_packets


def read_rules_file(path: str | Path) -> list[str]:
    """One pattern per line; blank lines and # comments are skipped."""
    rules = []
    for line in Path(path).read_text().splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        rules.append(line)
    return rules


def _in_range(convert, low, high=None, *, above: bool = False):
    """An argparse type: `convert(text)`, refused with a usage error unless
    it is at least `low` (above it, with `above`) and at most `high`. A NaN
    is in no range."""

    bound = f"above {low}" if above else f"at least {low}"
    if high is not None:
        bound += f" and at most {high}"

    def parse(text: str):
        value = convert(text)
        if not ((value > low if above else value >= low) and (high is None or value <= high)):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names it when `convert` refuses the text
    return parse


_positive = _in_range(int, 1)
_family_size = _in_range(int, 1, DOTSTAR_MAX_K)


def _family_sizes(text: str) -> list[int]:
    """An argparse type: comma-separated `_family_size` values."""
    sizes = [_family_size(part) for part in text.split(",") if part]
    if not sizes:
        raise argparse.ArgumentTypeError(f"must list at least one size, got {text!r}")
    return sizes


def _print_csv(rows: list[dict], out=None) -> None:
    if not rows:
        return
    out = out or sys.stdout
    writer = csv.DictWriter(out, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)


# --- bench suites --------------------------------------------------------------


def bench_statecount(ks: list[int], cap: int = 1_000_000) -> list[dict]:
    """Classic combined-DFA size vs the anchored automata, per family size."""
    rows = []
    for k in ks:
        rules = dotstar_family(k)
        db, report = compile_rules(rules)
        anchored = report.counters["reverse_states"] + report.counters["forward_states"]
        trees = [parse(p, i).tree for i, p in enumerate(rules)]
        try:
            classic = classic_state_count(trees, cap=cap)
            capped = False
        except StateExplosionError as exc:
            classic = exc.visited
            capped = True
        rows.append(
            {
                "k": k,
                "classic_states": classic,
                "classic_capped": int(capped),
                "anchored_states": anchored,
                "ratio": round(classic / anchored, 2),
            }
        )
    return rows


def bench_compression(ks: list[int]) -> list[dict]:
    """Compressed transition-table footprint against the dense equivalent."""
    rows = []
    for k in ks:
        db, _ = compile_rules(dotstar_family(k))
        for side, stt in (("reverse", db.reverse_stt), ("forward", db.forward_stt)):
            rows.append(
                {
                    "k": k,
                    "side": side,
                    "states": stt.n_states,
                    "runs": len(stt.run_succ),
                    "accept_pairs": sum(map(len, stt.accepts)),
                    "dense_bytes": stt.n_states * 256 * stt.succ_width,
                    "compressed_bytes": stt.compressed_bytes,
                    "ratio": round(stt.compression_ratio, 4),
                }
            )
    return rows


def bench_filterfp(
    n_keys: int = 10_000,
    n_probes: int = 100_000,
    seed: int = 7,
) -> list[dict]:
    """Measured false-positive rate of a xor unit over eight-byte keys."""
    rng = random.Random(seed)
    keys = set()
    while len(keys) < n_keys:
        keys.add(rng.randbytes(8))
    unit = build_xor_unit(sorted(keys), splitmix64(seed))
    false_positives = 0
    probes = 0
    while probes < n_probes:
        probe = rng.randbytes(8)
        if probe in keys:
            continue
        probes += 1
        if unit.contains(probe):
            false_positives += 1
    return [
        {
            "unit": "xor8",
            "keys": n_keys,
            "probes": n_probes,
            "false_positives": false_positives,
            "fp_rate": false_positives / n_probes,
            "band_low": 2**-9,
            "band_high": 2**-7,
        }
    ]


def bench_overheads(
    n_rules: int = 25,
    corpus_bytes: int = 2_000_000,
    workers: int = 1,
    seed: int = 0x0E,
) -> list[dict]:
    """Compile cost plus scan-side work ratios on uniform random traffic.

    The compile and the scan run in a fresh spawned interpreter, so
    `maxrss_mb` is their own peak, not that of whatever ran in this
    process before. With `workers > 1` it adds the peak of each scan
    worker that interpreter forked.
    """
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        return [pool.submit(_overheads, n_rules, corpus_bytes, workers, seed).result()]


def _overheads(n_rules: int, corpus_bytes: int, workers: int, seed: int) -> dict:
    rules = filter_stress_ruleset(n_rules, seed)
    t0 = time.perf_counter()
    db, report = compile_rules(rules)
    compile_s = time.perf_counter() - t0
    packets = random_packets(corpus_bytes, seed=seed + 1)
    t0 = time.perf_counter()
    scan = scan_corpus(db, packets, workers=workers)
    scan_s = time.perf_counter() - t0
    pids = ["self", *worker_pids()] if workers > 1 else ["self"]
    d = scan.to_dict()
    return {
        "rules": n_rules,
        "corpus_bytes": d["bytes"],
        "compile_s": round(compile_s, 3),
        "scan_s": round(scan_s, 3),
        "throughput_mb_s": round(d["bytes"] / 1e6 / scan_s, 2) if scan_s else 0.0,
        "db_bytes": len(db.to_bytes()),
        "maxrss_mb": round(sum(_peak_rss_mb(pid) for pid in pids), 1),
        "filter_hit_ratio": round(d["filter_hit_ratio"], 6),
        "adfa_byte_ratio": round(d["adfa_byte_ratio"], 6),
        "escalated_ratio": round(d["escalated_ratio"], 6),
        "verify_byte_ratio": round(d["verify_byte_ratio"], 6),
    }


def _peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set of a process's own address space, in MB.

    Linux's `ru_maxrss` also counts the peak of the address space that an
    exec replaced, and a child started through vfork, as `spawn` is,
    execs from its parent's: it would report the parent's peak. `VmHWM`
    starts afresh at the exec. A forked child's starts at the resident
    set it shares with its parent at the fork.
    """
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


# --- commands -------------------------------------------------------------------


def _cmd_compile(args) -> int:
    config = CompileConfig(
        max_key_prob=args.pt,
        max_key_len=args.lt,
        long_pop_threshold=args.long_pop,
        long_count_threshold=args.long_count,
    )
    try:
        rules = read_rules_file(args.rules)
        db, report = compile_rules(rules, config)
        db.save(args.out)
    except (OSError, UnicodeDecodeError, CompileError) as exc:
        print(f"compile failed: {exc}", file=sys.stderr)
        return 1
    print(f"compiled {len(report.supported)}/{report.rule_count} rules -> {args.out}")
    for stage in ("decompose", "verify_tables", "filter_build", "dfa_build"):
        print(f"  {stage:14s} {report.timings[stage] * 1000:9.2f} ms")
    for name, value in report.counters.items():
        print(f"  {name:14s} {value}")
    for skip in report.skipped:
        print(f"  skipped rule {skip.rule_id}: {skip.reason} ({skip.message})")
    return 0


def _cmd_scan(args) -> int:
    try:
        db = CompiledDatabase.load(args.db)
        packets = read_corpus(args.corpus)
        # opened before the scan, so that a path it cannot write fails at once
        out = open(args.json, "w") if args.json else contextlib.nullcontext()
    except (OSError, ValueError) as exc:
        print(f"scan failed: {exc}", file=sys.stderr)
        return 1
    try:
        with out:
            report = scan_corpus(db, packets, workers=args.workers)
            if args.json:
                out.write(report.to_json())
    except BaseException as exc:
        if args.json:  # leave no empty or partial report behind
            Path(args.json).unlink(missing_ok=True)
        if not isinstance(exc, OSError):
            raise
        print(f"scan failed: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(report.to_csv())
    return 0


def _cmd_diff(args) -> int:
    try:
        patterns = read_rules_file(args.rules)
        db, report = compile_rules(patterns)
        packets = read_corpus(args.corpus) if args.corpus else None
    except (OSError, ValueError) as exc:  # CompileError, a truncated .pkts
        print(f"diff failed: {exc}", file=sys.stderr)
        return 1
    if packets is None:
        packets = diff_packets(
            [patterns[i] for i in report.supported], args.cases, args.seed
        )
    supported = {i: parse(patterns[i], i) for i in report.supported}

    disagreements = 0
    comparisons = 0
    for pkt_idx, packet in enumerate(packets):
        ends: dict[int, set[int]] = {}
        for rid, end in scan_packet(db, packet, ScanStats()):
            ends.setdefault(rid, set()).add(end)
        for rid, rule in supported.items():
            want = oracle_match(rule, packet)
            got = ends.get(rid, set())
            comparisons += 1
            # the engine must agree on whether the rule matches, and end
            # each of its matches where the oracle also ends one
            if bool(got) != bool(want) or not got <= set(want.ends):
                disagreements += 1
                if disagreements <= 10:
                    print(
                        f"DISAGREE packet {pkt_idx} rule {rid} ({patterns[rid]!r}): "
                        f"engine ends={sorted(got)} oracle ends={sorted(want.ends)}"
                    )
    print(
        f"{len(supported)}/{len(patterns)} rules, {len(packets)} packets, "
        f"{comparisons} comparisons, {disagreements} disagreements"
    )
    return 3 if disagreements else 0


def _cmd_bench(args) -> int:
    ks = args.k or [2, 6, 10, 14, 20]
    if args.suite == "statecount":
        rows = bench_statecount(ks)
    elif args.suite == "compression":
        rows = bench_compression(ks)
    elif args.suite == "filterfp":
        rows = bench_filterfp()
    else:
        rows = bench_overheads(workers=args.workers)
    buf = io.StringIO()
    _print_csv(rows, buf)
    text = buf.getvalue()
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            print(f"bench failed: {exc}", file=sys.stderr)
            return 1
    sys.stdout.write(text)
    return 0


def _cmd_gen(args) -> int:
    try:
        if args.family:
            text = "\n".join(dotstar_family(args.k)) + "\n"
            if args.out:
                Path(args.out).write_text(text)
            else:
                sys.stdout.write(text)
            return 0
        if not args.out:
            print("--traffic requires --out", file=sys.stderr)
            return 2
        packets = random_packets(args.bytes, args.packet_len, args.seed)
        write_corpus(args.out, packets)
        print(f"wrote {len(packets)} packets ({args.bytes} bytes) -> {args.out}")
        return 0
    except OSError as exc:  # an unwritable --out
        print(f"gen failed: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anchorscan",
        description="Filtered anchored-automata regex scanning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a rules file into a database")
    p.add_argument("--rules", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pt", type=_in_range(float, 0, 1, above=True), default=1e-4, help="max key probability")
    p.add_argument("--lt", type=_in_range(int, 2, 8), default=8, help="max key window length")
    p.add_argument("--long-pop", type=_in_range(int, 1, 256), default=128, dest="long_pop")
    p.add_argument("--long-count", type=_in_range(int, 0), default=50, dest="long_count")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("scan", help="scan a corpus against a compiled database")
    p.add_argument("--db", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--workers", type=_positive, default=1, help="scanning processes, capped at the usable CPUs")
    p.add_argument("--json", help="write the full JSON report here")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("diff", help="differential test: engine vs reference matcher")
    p.add_argument("--rules", required=True)
    p.add_argument("--corpus", help="packet corpus; generated when omitted")
    p.add_argument("--cases", type=_positive, default=1000)
    p.add_argument("--seed", type=int, default=0xBEEF)
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("bench", help="emit experiment CSV rows")
    p.add_argument("--suite", required=True, choices=["statecount", "compression", "filterfp", "overheads"])
    p.add_argument("--k", type=_family_sizes, help="comma-separated family sizes")
    p.add_argument("--workers", type=_positive, default=1, help="scanning processes, capped at the usable CPUs")
    p.add_argument("--out", help="also write the CSV here")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("gen", help="generate synthetic rules or traffic")
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--family", choices=["dotstar"], help="rule family")
    kind.add_argument("--traffic", choices=["random"], help="traffic kind")
    p.add_argument("--k", type=_family_size, default=20, help="family size")
    p.add_argument("--bytes", type=_positive, default=1_000_000)
    p.add_argument("--seed", type=int, default=0x7AFF)
    p.add_argument("--packet-len", type=_positive, default=1500, dest="packet_len")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
