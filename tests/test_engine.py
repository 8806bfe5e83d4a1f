"""Compile/scan orchestration, serialization, reports, differential sanity."""
import json
import random
from dataclasses import replace
from itertools import accumulate

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


def test_every_bit_flip_raises_value_error():
    blob = compile_rules(["ab.*cd", "xy[0-9]{3}zw"])[0].to_bytes()
    flipped = bytearray(blob)
    for i in range(len(blob)):
        for bit in range(8):
            flipped[i] ^= 1 << bit
            with pytest.raises(ValueError):
                CompiledDatabase.from_bytes(bytes(flipped))
            flipped[i] ^= 1 << bit


# --- load-time validation of config and cross-references ---------------------

XREF_RULES = ["ab.*cd", r"user=[a-z]{1,8}\.cgi"]  # splits 0, 1 end rule 0; split 2 continues forward


def forged_blob(db, **fields):
    """`db.to_bytes()` with some fields replaced, checksum and all, without
    the checks a database makes when it is built: what a load must refuse."""
    bad = object.__new__(CompiledDatabase)
    vars(bad).update(vars(db), **fields)
    return bad.to_bytes()


def forgeries(db):
    """Field replacements, by name, that each break one thing a load checks."""
    rc0 = db.checks[0]
    accepts = list(db.reverse_stt.accepts)
    accepting = next(i for i, labels in enumerate(accepts) if labels)
    accepts[accepting] = accepts[accepting] | {len(db.splits)}
    return {
        "record_cap 0": dict(config=replace(db.config, record_cap=0)),
        "record_cap -1": dict(config=replace(db.config, record_cap=-1)),
        "record_cap '7'": dict(config=replace(db.config, record_cap="7")),
        "split rule_idx 99": dict(splits=(replace(db.splits[0], rule_idx=99), *db.splits[1:])),
        "split frag_k past the rule": dict(splits=(db.splits[0], replace(db.splits[1], frag_k=2), db.splits[2])),
        "reverse label not a split": dict(reverse_stt=replace(db.reverse_stt, accepts=tuple(accepts))),
        "continued split without entry": dict(forward_stt=replace(db.forward_stt, entries={})),
        "gap count not fragments + 1": dict(checks=(replace(rc0, gaps=rc0.gaps[:-1]), *db.checks[1:])),
    }


FORGERIES = (
    "record_cap 0", "record_cap -1", "record_cap '7'", "split rule_idx 99", "split frag_k past the rule",
    "reverse label not a split", "continued split without entry", "gap count not fragments + 1",
)


def test_forged_blob_is_faithful():
    db, _ = compile_rules(XREF_RULES)
    assert forged_blob(db) == db.to_bytes()
    assert db.scan_table == ((0, 0, -1), (0, 1, -1), (1, 0, db.forward_stt.entries[2]))


def test_forgeries_are_all_tested():
    assert set(forgeries(compile_rules(XREF_RULES)[0])) == set(FORGERIES)


@pytest.mark.parametrize("case", FORGERIES)
def test_load_rejects_bad_config_and_cross_references(case):
    db, _ = compile_rules(XREF_RULES)
    blob = forged_blob(db, **forgeries(db)[case])
    with pytest.raises(ValueError):
        CompiledDatabase.from_bytes(blob)


@pytest.mark.parametrize("value", [0, -1, "7", 7.0, True, None])
def test_config_from_dict_rejects_bad_record_cap(value):
    with pytest.raises(ValueError):
        CompileConfig.from_dict({**CompileConfig().as_dict(), "record_cap": value})


@pytest.mark.parametrize(
    "name, value",
    [("fingerprint_bits", 0), ("fingerprint_bits", 33), ("filter_seed", -1), ("filter_seed", 2**64),
     ("state_cap", 0), ("max_key_len", 1), ("max_key_prob", 0), ("max_key_prob", float("nan")),
     ("max_key_prob", "1e-4"), ("long_pop_threshold", 1.5)],
)
def test_config_from_dict_rejects_out_of_range(name, value):
    with pytest.raises(ValueError):
        CompileConfig.from_dict({**CompileConfig().as_dict(), name: value})


def test_config_from_dict_accepts_what_compile_writes():
    for config in (CompileConfig(), CompileConfig(max_key_prob=1, long_pop_threshold=-5, record_cap=1)):
        assert CompileConfig.from_dict(json.loads(json.dumps(config.as_dict()))) == config
    with pytest.raises(ValueError):
        CompileConfig.from_dict([])


def test_compile_leaves_dense_rows_unbuilt():
    # rows appear on first scan, never during compile, where peak RSS is reached
    db, _ = compile_rules(["ab.*cd", "user=[a-z]{1,8}\\.cgi", "abcd[^\\n]*=[0-9]{3,}"])
    tables = [db.reverse_stt, db.forward_stt] + [g.stt for rc in db.checks for g in rc.gaps if hasattr(g, "stt")]
    assert len(tables) == 3
    assert not any("rows" in vars(t) for t in tables)
    scan_once(db, b"user=abc.cgi")
    assert "rows" in vars(db.reverse_stt)


@pytest.mark.parametrize(
    "rule, packet, end",
    [
        (r"abcd[^\n]{60,}", b"abcd" + b"x" * 70, 63),
        (r"cmd=[^&]{70,}", b"cmd=" + b"y" * 80, 73),
        (r"GET /.*admin.{3,}", b"GET /x/admin" + b"z" * 10, 14),
        (r"abcd[^\n]*=[0-9]{3,}", b"abcdqq=12345", 9),  # trailing gap is a DfaGap
        (r"abcd[^\n]{0,}", b"abcd" + b"x" * 5, 3),  # gap accepts the empty string
        (r"^hdr: [0-9]{2,40}$", b"hdr: 1234", 8),  # $-anchored: the packet end
    ],
)
def test_trailing_gap_end_is_a_match_end(rule, packet, end):
    db, _ = compile_rules([rule])
    assert scan_once(db, packet) == [(0, end)]
    assert end == oracle_match(parse(rule, 0), packet).ends[0]


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


def test_every_truncated_corpus_container(tmp_path):
    packets = [b"", b"one", b"two two", bytes(range(256))]
    path = tmp_path / "traffic.pkts"
    write_corpus(path, packets)
    blob = path.read_bytes()
    record_ends = [0, *accumulate(4 + len(p) for p in packets)]
    for size in range(len(blob)):
        path.write_bytes(blob[:size])
        if size in record_ends:
            assert read_corpus(path) == packets[: record_ends.index(size)]
        else:
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
