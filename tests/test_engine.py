"""Compile/scan orchestration, serialization, reports, differential sanity."""
import json
import random

import pytest

from anchorscan.config import CompileConfig
from anchorscan.engine import (
    CompiledDatabase,
    CompileError,
    ScanStats,
    compile_rules,
    read_corpus,
    scan_corpus,
    scan_packet,
    write_corpus,
)
from anchorscan.oracle import oracle_match
from anchorscan.parser import parse


def scan_once(db, data):
    return scan_packet(db, data, ScanStats())


def test_single_literal_rule():
    db, report = compile_rules(["abc"])
    assert report.supported == [0]
    assert report.counters["fragments"] == 1
    assert report.counters["forward_states"] == 1  # dead-only, no back parts
    assert scan_once(db, b"xxabczz") == [(0, 4)]
    assert scan_once(db, b"xxabzz") == []


def test_dotstar_rule_worked_example():
    db, _ = compile_rules(["ab.*cd"])
    stats = ScanStats()
    assert scan_packet(db, b"aabcd", stats) == [(0, 4)]
    # one filter trigger per fragment key occurrence
    assert stats.filter_hits == 2
    assert scan_once(db, b"cdab") == []


def test_no_hit_packet_costs_nothing():
    db, _ = compile_rules(["ab.*cd"])
    stats = ScanStats()
    assert scan_packet(db, b"zzzzzzzz", stats) == []
    assert stats.filter_hits == 0
    assert stats.reverse_threads == 0
    assert stats.adfa_transitions == 0


def test_counted_gap_rule():
    db, _ = compile_rules(["ab.{2,3}cd"])
    assert scan_once(db, b"abXcd") == []
    assert scan_once(db, b"abXXcd") == [(0, 5)]
    assert scan_once(db, b"abXXXcd") == [(0, 6)]
    assert scan_once(db, b"abXXXXcd") == []


def test_anchored_rule():
    db, _ = compile_rules(["^ab.*cd$"])
    assert scan_once(db, b"abzcd") == [(0, 4)]
    assert scan_once(db, b"xabzcd") == []
    assert scan_once(db, b"abzcdz") == []


def test_trailing_anchor_reports_last_byte():
    db, _ = compile_rules(["ab.*cd$"])
    assert scan_once(db, b"xxabzzcd") == [(0, 7)]
    db, _ = compile_rules(["abcd$"])
    assert scan_once(db, b"zzabcd") == [(0, 5)]


def test_multiple_rules_attribution():
    rules = ["user=[a-z]{1,8}", "GET /[a-z]+", "abc.*xyz"]
    db, report = compile_rules(rules)
    assert report.supported == [0, 1, 2]
    # every admissible end offset is reported, matching search semantics
    assert scan_once(db, b"user=root;") == [(0, e) for e in (5, 6, 7, 8)]
    assert scan_once(db, b"GET /index") == [(1, e) for e in (5, 6, 7, 8, 9)]
    assert scan_once(db, b"..abc--xyz..") == [(2, 9)]
    out = scan_once(db, b"user=ab GET /cd")
    assert {r for r, _ in out} == {0, 1}


def test_duplicate_rules_both_report():
    db, _ = compile_rules(["abc", "abc"])
    assert scan_once(db, b"zabcz") == [(0, 3), (1, 3)]


def test_skip_collects_reasons():
    db, report = compile_rules(["ab(", ".*", "good.*rule"])
    assert report.supported == [2]
    reasons = {s.rule_id: s.reason for s in report.skipped}
    assert reasons[0] == "parse-error"
    assert reasons[1] == "no-filterable-fragment"
    # skipped rules never appear in matches
    assert scan_once(db, b"ab( .* good+rule") == [(2, 15)]


def test_all_rules_fail_raises():
    with pytest.raises(CompileError):
        compile_rules(["ab(", ".*"])


def test_manifest_flags():
    db, _ = compile_rules(["abc", "(", "xx.*yy"])
    flags = [r["supported"] for r in db.manifest["rules"]]
    assert flags == [True, False, True]
    assert all(len(r["digest"]) == 64 for r in db.manifest["rules"])


def test_single_byte_fragments_unsupported():
    # 1-byte fragments cannot host a filter key of supported width
    _, report = compile_rules(["x.*y", "ok.*pair"])
    assert report.supported == [1]
    assert report.skipped[0].reason == "no-filterable-fragment"


def test_database_roundtrip_bit_exact(tmp_path):
    rules = ["ab.*cd", "user=[a-z]{1,8}", "^hdr: [0-9]{2,40}$", "foo.{0,20}bar"]
    db, _ = compile_rules(rules)
    blob = db.to_bytes()
    db2 = CompiledDatabase.from_bytes(blob)
    assert db2.to_bytes() == blob

    path = tmp_path / "rules.db"
    db.save(path)
    db3 = CompiledDatabase.load(path)
    assert db3.to_bytes() == blob
    for pkt in (b"aabcd", b"user=xy", b"hdr: 42", b"fooQQbar", b"nothing"):
        assert scan_once(db3, pkt) == scan_once(db, pkt)


def test_bad_database_blob():
    with pytest.raises(ValueError):
        CompiledDatabase.from_bytes(b"NOPE" + b"\x00" * 64)


def test_every_truncated_database_raises_value_error():
    blob = compile_rules(["ab.*cd", "xy[0-9]{3}zw"])[0].to_bytes()
    for size in range(len(blob)):
        with pytest.raises(ValueError):
            CompiledDatabase.from_bytes(blob[:size])
    with pytest.raises(ValueError):
        CompiledDatabase.from_bytes(blob + b"\x00")


def test_compile_report_timings():
    _, report = compile_rules(["ab.*cd", "xyz"])
    assert set(report.timings) == {"decompose", "verify_tables", "filter_build", "dfa_build"}
    assert all(t >= 0 for t in report.timings.values())


def test_stats_invariants():
    db, _ = compile_rules(["ab.*cd", "user=[a-z]{1,8}"])
    stats = ScanStats()
    rng = random.Random(7)
    for _ in range(50):
        pkt = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 300)))
        scan_packet(db, pkt, stats)
    scan_packet(db, b"xx user=abc yy ab..cd", stats)
    assert stats.reverse_threads == stats.filter_hits
    assert stats.escalated_packets <= stats.packets
    assert stats.adfa_transitions >= stats.reverse_threads


# --- corpus handling ----------------------------------------------------------


def test_corpus_container_roundtrip(tmp_path):
    packets = [b"", b"one", b"two two", bytes(range(256))]
    path = tmp_path / "traffic.pkts"
    write_corpus(path, packets)
    assert read_corpus(path) == packets


def test_corpus_container_truncated(tmp_path):
    path = tmp_path / "bad.pkts"
    path.write_bytes(b"\xff\x00\x00\x00zz")
    with pytest.raises(ValueError):
        read_corpus(path)


def test_corpus_directory(tmp_path):
    d = tmp_path / "pkts"
    d.mkdir()
    (d / "b.bin").write_bytes(b"second")
    (d / "a.bin").write_bytes(b"first")
    assert read_corpus(d) == [b"first", b"second"]


def test_corpus_raw_file(tmp_path):
    path = tmp_path / "payload.raw"
    path.write_bytes(b"one single packet")
    assert read_corpus(path) == [b"one single packet"]


def test_empty_corpus_report():
    db, _ = compile_rules(["abc"])
    report = scan_corpus(db, [], workers=1)
    d = report.to_dict()
    assert d["packets"] == 0
    assert d["filter_hit_ratio"] == 0.0
    assert d["matches"] == []


def test_report_schema():
    db, _ = compile_rules(["ab.*cd"])
    report = scan_corpus(db, [b"aabcd", b"zz"], workers=1)
    d = report.to_dict()
    assert list(d) == [
        "packets",
        "bytes",
        "filter_hits",
        "filter_hit_ratio",
        "reverse_threads",
        "forward_threads",
        "adfa_transitions",
        "adfa_byte_ratio",
        "escalated_packets",
        "escalated_ratio",
        "verify_bytes",
        "verify_byte_ratio",
        "saturated_records",
        "matches",
    ]
    assert d["matches"] == [{"packet": 0, "rule": 0, "end": 4}]
    json.loads(report.to_json())  # valid JSON
    header, row, _ = report.to_csv().split("\n")
    assert len(header.split(",")) == len(row.split(","))


def test_worker_count_invariance():
    rules = ["ab.*cd", "user=[a-z]{1,8}", "GET /[a-z]+"]
    db, _ = compile_rules(rules)
    rng = random.Random(11)
    packets = []
    for _ in range(60):
        pkt = bytearray(rng.randbytes(rng.randrange(0, 200)))
        if rng.random() < 0.5:
            ins = rng.choice([b"ab123cd", b"user=abc", b"GET /files"])
            cut = rng.randrange(0, len(pkt) + 1)
            pkt[cut:cut] = ins
        packets.append(bytes(pkt))
    reports = [scan_corpus(db, packets, workers=w).to_json() for w in (1, 4, 8)]
    assert reports[0] == reports[1] == reports[2]


# --- differential sanity ------------------------------------------------------

DIFF_RULES = [
    "abc",
    "^ab.*cd$",
    "ab.{2,3}cd",
    "user=[a-z]{1,8}",
    "(GET|POST) /[a-z]+",
    "a{2,4}bcd.*xyz",
    "foo.*bar.*baz",
    "[Hh]ost: [a-z.]{4,40}",
    "AUTH\\s",
    "^PARTIAL",
    "BODY$",
    "ab[0-9]{60,80}cd",
]

SEED_STRINGS = [
    b"abc",
    b"abXXcd",
    b"user=abc",
    b"GET /abc",
    b"POST /files",
    b"aabcdQxyz",
    b"fooQbarQbaz",
    b"Host: ab.cd",
    b"AUTH ",
    b"PARTIAL",
    b"BODY",
    b"ab" + b"5" * 70 + b"cd",
]


def test_mini_differential():
    db, report = compile_rules(DIFF_RULES)
    assert report.supported == list(range(len(DIFF_RULES)))
    parsed = [parse(p, i) for i, p in enumerate(DIFF_RULES)]
    rng = random.Random(1234)
    alpha = b"abcdxyzGETPOST /=u0123456789.: \n"
    for _ in range(400):
        pkt = bytearray(rng.choice(alpha) for _ in range(rng.randrange(0, 60)))
        if rng.random() < 0.6:
            cut = rng.randrange(0, len(pkt) + 1)
            pkt[cut:cut] = rng.choice(SEED_STRINGS)
        pkt = bytes(pkt)
        got = {r for r, _ in scan_once(db, pkt)}
        want = {r.rule_id for r in parsed if oracle_match(r, pkt)}
        assert got == want, f"packet {pkt!r}: engine {got} oracle {want}"
