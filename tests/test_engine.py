"""Compile/scan orchestration, serialization, reports, differential sanity."""
import hashlib
import json
import multiprocessing
import os
import pickle
import random
import signal
import struct
import subprocess
import sys
import textwrap
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import replace
from itertools import accumulate
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from anchorscan import engine, prefilter, synth
from anchorscan.automata import DEAD
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
from anchorscan.prefilter import DirectFilterUnit, context_gate
from anchorscan.verify import EXACT, INTERIOR, SUFFIX, DfaGap, DotGap, EmptyGap, RuleChecks, classify_gap
from test_stt import corruptions

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import PAPER_RULES, WORKLOADS, mixed_rules  # noqa: E402


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
    assert db.manifest == {
        "rules": [
            {"pattern": "abc", "supported": True},
            {"pattern": "(", "supported": False},
            {"pattern": "xx.*yy", "supported": True},
        ]
    }


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


def test_version_2_database_raises_value_error():
    # version 2 databases also stored the config and a digest per rule in
    # the manifest, and version 1 transition tables; a correct checksum
    # does not make them loadable
    blob = compile_rules(["ab.*cd"])[0].to_bytes()
    assert blob[4] == 6
    old = blob[:4] + b"\x02" + blob[5:-4]
    old += struct.pack("<I", zlib.crc32(old))
    with pytest.raises(ValueError, match="unsupported database version 2"):
        CompiledDatabase.from_bytes(old)


def test_version_3_database_raises_value_error():
    # version 3 had no trigger bits and no held pairs: its split flags
    # would read as non-trigger splits and its rule count as a held count
    blob = compile_rules(["ab.*cd"])[0].to_bytes()
    old = blob[:4] + b"\x03" + blob[5:-4]
    old += struct.pack("<I", zlib.crc32(old))
    with pytest.raises(ValueError, match="unsupported database version 3"):
        CompiledDatabase.from_bytes(old)


def test_version_4_database_raises_value_error():
    # version 4 began with a config section, which version 5 would read as
    # its manifest, and held an `ASFB` version 5 bank
    blob = compile_rules(["ab.*cd"])[0].to_bytes()
    config = b'{"long_count_threshold":50,"long_pop_threshold":128,"max_key_len":8,"max_key_prob":0.0001}'
    old = blob[:4] + b"\x04" + struct.pack("<Q", len(config)) + config + blob[5:-4]
    old += struct.pack("<I", zlib.crc32(old))
    with pytest.raises(ValueError, match="unsupported database version 4"):
        CompiledDatabase.from_bytes(old)


def test_version_5_database_raises_value_error():
    # version 5 kept its held pairs in the bank's direct unit as well, which
    # version 6 refuses; the version byte refuses it first
    db, _ = compile_rules(TRIGGER_RULES)
    body = forged_blob(db, bank=with_held_keys(db))[:-4]
    with pytest.raises(ValueError, match="is a 2-byte key of the filter bank"):
        CompiledDatabase.from_bytes(resealed(body))
    with pytest.raises(ValueError, match="unsupported database version 5"):
        CompiledDatabase.from_bytes(resealed(body[:4] + b"\x05" + body[5:]))


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


#: every gap kind: empty, `.*`, a counted class and a gap automaton
FUZZ_RULES = ["user=[a-z]{2,8}x", "GET /.*admin", r"ab[^\n]{60,70}cdef", r"abcd[^\n]*=[0-9]{3,}"]
FUZZ_BODY = compile_rules(FUZZ_RULES)[0].to_bytes()[:-4]


@given(corruptions([FUZZ_BODY]))
@settings(max_examples=300, deadline=None)
def test_corrupt_database_with_a_good_checksum_fails_cleanly_or_round_trips(body):
    # past the checksum, every section's own checks must refuse the damage
    # with ValueError, or the database is one that compile could write
    blob = resealed(body)
    try:
        db = CompiledDatabase.from_bytes(blob)
    except ValueError:
        return
    assert db.to_bytes() == blob
    gap_tables = [gap.stt for rc in db.checks for gap in rc.gaps if isinstance(gap, DfaGap)]
    for stt in (db.reverse_stt, db.forward_stt, *gap_tables):
        assert max(stt.rows) < stt.n_states


def resealed(body: bytes) -> bytes:
    """A database body with its checksum appended."""
    return body + struct.pack("<I", zlib.crc32(body))


@pytest.mark.parametrize("section", ["manifest"])
def test_non_canonical_json_section_raises_value_error(section):
    # json.loads takes spacing and key orders that would not survive a
    # re-save, so a load compares the section with its one stored form
    db, _ = compile_rules(XREF_RULES)
    body = db.to_bytes()[:-4]
    stored = json.dumps(db.manifest, sort_keys=True, separators=(",", ":")).encode()
    at = body.index(struct.pack("<Q", len(stored)) + stored)
    for variant in (json.dumps(db.manifest, sort_keys=True).encode(), stored[:-1] + b',"a":1}'):
        forged = body[:at] + struct.pack("<Q", len(variant)) + variant + body[at + 8 + len(stored) :]
        with pytest.raises(ValueError, match=f"{section} is not in canonical form"):
            CompiledDatabase.from_bytes(resealed(forged))


# --- load-time validation of cross-references ---------------------------------

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
        "split rule_idx 99": dict(splits=(replace(db.splits[0], rule_idx=99), *db.splits[1:])),
        "split frag_k past the rule": dict(splits=(db.splits[0], replace(db.splits[1], frag_k=2), db.splits[2])),
        "reverse label not a split": dict(reverse_stt=replace(db.reverse_stt, accepts=tuple(accepts))),
        "continued split without entry": dict(forward_stt=replace(db.forward_stt, entries={})),
        "gap count not fragments + 1": dict(checks=(replace(rc0, gaps=rc0.gaps[:-1]), *db.checks[1:])),
        "split flag 4": dict(splits=(db.splits[0], replace(db.splits[1], has_back=4), db.splits[2])),
        "rule end flag 2": dict(checks=(replace(rc0, anchored_end=2), *db.checks[1:])),
    }


FORGERIES = (
    "split rule_idx 99", "split frag_k past the rule",
    "reverse label not a split", "continued split without entry", "gap count not fragments + 1",
    "split flag 4", "rule end flag 2",
)


def test_forged_blob_is_faithful():
    db, _ = compile_rules(XREF_RULES)
    assert forged_blob(db) == db.to_bytes()
    assert db.scan_table == ((0, 0, -1, True), (0, 1, -1, False), (1, 0, db.forward_stt.entries[2], True))


def test_forgeries_are_all_tested():
    assert set(forgeries(compile_rules(XREF_RULES)[0])) == set(FORGERIES)


@pytest.mark.parametrize("case", FORGERIES)
def test_load_rejects_bad_config_and_cross_references(case):
    db, _ = compile_rules(XREF_RULES)
    blob = forged_blob(db, **forgeries(db)[case])
    with pytest.raises(ValueError):
        CompiledDatabase.from_bytes(blob)


@pytest.mark.parametrize("ctx2, pre2", [(["ab"], ["qa"]), ([], []), (["ab"], ["xa"])])
def test_load_derives_the_context_gate_its_automaton_gives(ctx2, pre2):
    # "ab" needs an x or a y before it; a `pre2` of {qa} would drop the hit
    # of "xab", and one without "ya" that of "yab": silent misses. The gate
    # is not stored, so a wrong one in memory cannot survive a save and load
    db, _ = compile_rules(["[xy]ab", "cd"])
    assert scan_once(db, b"xab") == scan_once(db, b"yab") == [(0, 2)]
    bank = replace(
        db.bank, ctx2=DirectFilterUnit.of(x.encode() for x in ctx2), pre2=DirectFilterUnit.of(x.encode() for x in pre2)
    )
    blob = forged_blob(db, bank=bank)
    assert blob == db.to_bytes()
    back = CompiledDatabase.from_bytes(blob)
    assert back.bank == db.bank
    assert scan_once(back, b"xab") == scan_once(back, b"yab") == [(0, 2)]


@given(st.integers(0, 2**32), st.integers(1, 24))
@settings(max_examples=25, deadline=None)
def test_load_equals_compile(rules_seed, count):
    # a load rebuilds what a database does not store, the context gate and
    # the scan tables, as compile built them
    db, _ = compile_rules(synth.diff_ruleset(count, seed=rules_seed))
    blob = db.to_bytes()
    back = CompiledDatabase.from_bytes(blob)
    assert back == db
    assert back.to_bytes() == blob
    assert (back.bank.ctx2, back.bank.pre2) == (db.bank.ctx2, db.bank.pre2)
    assert back.bank.flags.tobytes() == db.bank.flags.tobytes()
    # the bank holds no held pair
    keys = db.bank.unit2.members()
    assert not any(keys[value] for value, _rules in db.held)


@pytest.mark.parametrize("rules", [mixed_rules(), list(PAPER_RULES)], ids=["mixed", "paper"])
def test_database_stores_manifest_first_and_no_context_gate(rules):
    # the body opens with the manifest, with no config section before it,
    # and the bank's blob is that of the same bank without its gate
    db, _ = compile_rules(rules)
    blob = db.to_bytes()
    manifest = json.dumps(db.manifest, sort_keys=True, separators=(",", ":")).encode()
    assert blob[5:13 + len(manifest)] == struct.pack("<Q", len(manifest)) + manifest
    assert db.bank.ctx2.key_count and db.bank.pre2.key_count
    bank = db.bank.to_bytes()
    assert bank == replace(db.bank, ctx2=DirectFilterUnit.of(()), pre2=DirectFilterUnit.of(())).to_bytes()
    assert struct.pack("<Q", len(bank)) + bank in blob
    back = CompiledDatabase.from_bytes(blob)
    assert (back.bank.ctx2, back.bank.pre2) == (db.bank.ctx2, db.bank.pre2)


def test_compile_writes_only_exact_interior_gaps_that_start_live():
    # a gap whose language is empty would compile to an automaton that
    # starts dead; the parser refuses every such pattern
    bad = [r"ab[^\x00-\xff]cd", r"ab(x[^\x00-\xff])cd", r"ab(x{0})cd", r"ab(|x)cd"]
    _, report = compile_rules(["zzzz", *bad])
    assert report.supported == [0]
    assert {s.reason for s in report.skipped} == {"parse-error"}
    db, _ = compile_rules(mixed_rules())
    interior = [gap for rc in db.checks for gap in rc.gaps[1:-1]]
    assert any(isinstance(gap, DfaGap) for gap in interior)
    assert all(gap.mode == EXACT for gap in interior)
    assert all(gap.stt.start != DEAD for gap in interior if isinstance(gap, DfaGap))


def forged_rule(rc: RuleChecks, gaps) -> RuleChecks:
    """`rc` with other gaps, without the checks a rule makes when it is built."""
    bad = object.__new__(RuleChecks)
    vars(bad).update(vars(rc), gaps=tuple(gaps))
    return bad


@pytest.mark.parametrize(
    "gap, message",
    [
        (DotGap(0, None, SUFFIX), "interior gap in suffix mode"),
        (DfaGap(replace(classify_gap(parse(".*a").tree, INTERIOR).stt, start=DEAD), EXACT), "starts dead"),
    ],
)
def test_load_rejects_an_interior_gap_compile_cannot_write(gap, message):
    db, _ = compile_rules(XREF_RULES)
    lead, _interior, trail = db.checks[0].gaps  # ab.*cd
    blob = forged_blob(db, checks=(forged_rule(db.checks[0], (lead, gap, trail)), *db.checks[1:]))
    with pytest.raises(ValueError, match=message):
        CompiledDatabase.from_bytes(blob)


# --- trigger fragments and held pairs ------------------------------------------


def pair(text: bytes) -> int:
    return (text[0] << 8) | text[1]


def trigger_fragments(db) -> set[tuple[int, int]]:
    return {(m.rule_idx, m.frag_k) for m in db.splits if m.trigger}


def with_held_keys(db):
    """`db.bank` with the held pairs back in its direct unit, and the context
    gate of that unit."""
    values = [*np.flatnonzero(db.bank.unit2.members()).tolist(), *(value for value, _rules in db.held)]
    unit2 = DirectFilterUnit.of_values(values)
    rs = db.reverse_stt
    ctx2, pre2 = context_gate(unit2, rs.start, rs.accepts, rs.dense_rows)
    return replace(db.bank, unit2=unit2, ctx2=ctx2, pre2=pre2)


def all_triggers(db):
    """The same database with every split a trigger, and the held pairs
    back in the bank: every hit offset runs in one pass, and every record
    counts."""
    return replace(db, bank=with_held_keys(db), splits=tuple(replace(m, trigger=True) for m in db.splits), held=())


#: "cd" is held for rules 0 and 1, "ef" for rule 2; "ab" is rule 1's trigger
TRIGGER_RULES = ["(ab|cd).*xyzw", "ab.*cd", "ef.*wxyz0"]


def trigger_forgeries(db):
    """Field replacements, by name, that each break one thing a load checks
    of the trigger bits and the held pairs, with the message it raises."""
    s = db.splits
    cd, ef = db.held
    ab = (pair(b"ab"), (0,))
    return {
        "trigger in one split of a fragment": (dict(splits=(replace(s[0], trigger=True), *s[1:])), "only some splits"),
        "rule without a trigger": (dict(splits=(*s[:3], replace(s[3], trigger=False), *s[4:])), "no trigger fragment"),
        "held pairs out of order": (dict(held=(ef, cd)), "strictly increasing"),
        "held pair repeated": (dict(held=(cd, cd, ef)), "strictly increasing"),
        "held pair a trigger key": (dict(held=(ab, cd, ef)), "is a 2-byte key of the filter bank"),
        "held pair serving no rule": (dict(held=(cd, (ef[0], ()))), "not an increasing list"),
        "held rules out of order": (dict(held=(cd, (ef[0], (2, 1)))), "not an increasing list"),
        "held rule repeated": (dict(held=(cd, (ef[0], (2, 2)))), "not an increasing list"),
        "held rule past the rules": (dict(held=(cd, (ef[0], (2, 3)))), "not an increasing list"),
    }


TRIGGER_FORGERIES = list(trigger_forgeries(compile_rules(TRIGGER_RULES)[0]))


class TestTriggerFragments:
    def test_the_rarest_fragment_is_the_trigger(self):
        # "cdef" is rarer than "ab", "xy" than "[a-c]b"; "ab" and "cd" tie,
        # so the earlier is the trigger, and a one-fragment rule's is its own
        db, _ = compile_rules(["ab.*cdef", "[a-c]b.*xy", "ab.*cd", "wxyz"])
        assert trigger_fragments(db) == {(0, 1), (1, 1), (2, 0), (3, 0)}

    def test_held_pairs(self):
        db, report = compile_rules(TRIGGER_RULES)
        assert trigger_fragments(db) == {(0, 1), (1, 0), (2, 1)}
        # "ab" is a key of rule 0's first fragment too, but it triggers rule 1
        assert db.held == ((pair(b"cd"), (0, 1)), (pair(b"ef"), (2,)))
        assert report.counters["held_pairs"] == 2
        assert CompiledDatabase.from_bytes(db.to_bytes()).held == db.held
        assert db.bank.unit2.key_count == 1  # "ab"
        stats = ScanStats()
        assert scan_packet(db, b"xab--cd", stats) == [(1, 6)]
        assert (stats.filter_hits, stats.held_runs) == (2, 1)

    #: "ab" is held for rules 0 and 2, "ij" for rule 3; "gh" triggers rule 3,
    #: and the 8-byte "qrstuvwx" rule 4
    HELD_RULES = ["ab.*cdef", "xyab", "ab.*wxyz", "gh.*ij", "qrstuvwx.*lmno"]

    #: reverse threads the held-pair search starts, per packet below
    HELD_RUNS = {
        b"ab--cdef": 1,
        b"cdef--ab": 1,
        b"gh--ij": 1,
        b"ij--gh": 1,
        b"gh--ij--ij": 2,
        b"ab--wxyz--cdef": 1,
    }

    @pytest.mark.parametrize(
        "packet, matches, runs, held",
        [
            (b"--ab--", [], 0, 1),  # no rule is live, so nothing is searched
            (b"ab--ij", [], 0, 2),
            (b"ab--cdef", [(0, 7)], 2, 0),  # the trigger after the held pair
            (b"cdef--ab", [], 2, 0),  # live, but "ab" comes too late to match
            (b"cdef", [], 1, 0),
            (b"gh--ij", [(3, 5)], 2, 0),  # a 2-byte trigger runs in the first pass
            (b"ij--gh", [], 2, 0),
            (b"xyab", [(1, 3)], 1, 0),  # the xor hit at the held pair's end runs in the first pass
            (b"ab--xyab", [(1, 7)], 1, 1),  # rule 1 is live, but "ab" serves rules 0 and 2
            (b"ab--wxyz--cdef", [(0, 13), (2, 7)], 3, 0),
            (b"qrstuvwx--lmno", [(4, 13)], 2, 0),  # "lmno" records before its rule is live
            (b"gh--ij--ij", [(3, 5), (3, 9)], 3, 0),
            (b"cdef--xyab", [(1, 9)], 2, 0),  # "ab" ends where the xor hit already ran
        ],
    )
    def test_held_hits_run_behind_a_live_rule(self, packet, matches, runs, held):
        """`runs` reverse threads run, and `held` hits are held back: the
        offsets that the same database with the held pairs in its bank would
        run beyond those."""
        db, _ = compile_rules(self.HELD_RULES)
        assert db.held == ((pair(b"ab"), (0, 2)), (pair(b"ij"), (3,)))
        assert not db.bank.unit2.contains(b"ab") and not db.bank.unit2.contains(b"ij")
        stats, free = ScanStats(), ScanStats()
        assert scan_packet(db, packet, stats) == matches
        assert (stats.filter_hits, stats.held_runs) == (runs, self.HELD_RUNS.get(packet, 0))
        assert stats.reverse_threads == stats.filter_hits
        assert scan_packet(all_triggers(db), packet, free) == matches
        assert free.filter_hits == runs + held

    #: "ab" is held for rule 0 behind the context gate (an x or a y must come
    #: before it), "aa" for rule 1 with no gate, "ij" for rule 2
    GATED_RULES = ["[xy]ab.*wxyz", "aa.*qrst", "gh.*ij"]

    @pytest.mark.parametrize("find", [True, False])
    @pytest.mark.parametrize(
        "packet, matches, runs, held",
        [
            (b"ab--wxyz", [], 1, 0),  # window 0: no byte before it
            (b"xab--wxyz", [(0, 8)], 2, 1),  # window 1, behind "xa"
            (b"zab--wxyz", [], 1, 0),  # window 1, but "za" is no `pre2` pair
            (b"yab-xab-zab-wxyz", [(0, 15)], 3, 2),
            (b"aaa--qrst", [(1, 8)], 3, 2),  # overlapping occurrences: "aa" ends at 1 and 2
            (b"qrst", [], 1, 0),
            (b"aa", [], 0, 0),  # 0-2 bytes: no rule can be live
            (b"a", [], 0, 0),
            (b"", [], 0, 0),
        ],
    )
    def test_held_search_keeps_its_gate(self, packet, matches, runs, held, find, monkeypatch):
        """On both search methods: `find` makes every search a `bytes.find`
        one, and otherwise every search gathers."""
        monkeypatch.setattr(prefilter, "_GATHER_SETUP", 10**9 if find else -(10**9))
        db, _ = compile_rules(self.GATED_RULES)
        assert db.held == ((pair(b"aa"), (1,)), (pair(b"ab"), (0,)), (pair(b"ij"), (2,)))
        stats = ScanStats()
        assert scan_packet(db, packet, stats) == matches
        assert (stats.filter_hits, stats.held_runs) == (runs, held)
        assert scan_once(all_triggers(db), packet) == matches

    @pytest.mark.parametrize("case", TRIGGER_FORGERIES)
    def test_trigger_forgery_is_refused(self, case):
        db, _ = compile_rules(TRIGGER_RULES)
        fields, message = trigger_forgeries(db)[case]
        with pytest.raises(ValueError, match=message):
            CompiledDatabase.from_bytes(forged_blob(db, **fields))

    @given(st.integers(0, 2**32), st.integers(0, 2**32), st.integers(4, 16))
    @settings(max_examples=30, deadline=None)
    def test_held_hits_lose_no_match(self, rules_seed, packets_seed, count):
        """Over `synth` rule sets and traffic, at one worker and at two, the
        matches equal those of the same database with every split a trigger
        and the held pairs back in the bank, and no more reverse threads run:
        a held run is at an offset that database runs too, and the gates
        built from fewer pairs are no looser."""
        rules = synth.diff_ruleset(count, seed=rules_seed)
        db = compile_rules(rules)[0]
        free = all_triggers(db)
        packets = synth.diff_packets(rules, 30, seed=packets_seed)
        with mock.patch.object(engine.os, "sched_getaffinity", lambda pid: {0, 1}):
            for workers in (1, 2):
                got, want = scan_corpus(db, packets, workers), scan_corpus(free, packets, workers)
                assert got.matches == want.matches
                assert want.stats.held_runs == 0
                assert got.stats.filter_hits <= want.stats.filter_hits


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


@pytest.mark.parametrize(
    "rules, size, sha_prefix",
    [
        (mixed_rules(), 85_726, "c76fbdcbc67a48cf"),
        (list(PAPER_RULES), 25_408, "bebc11a64ce05653"),
    ],
    ids=["mixed", "paper"],
)
def test_compiled_bytes_are_pinned(rules, size, sha_prefix):
    # a change to compilation that moves a single database byte must say so
    # and re-pin these values
    blob = compile_rules(rules)[0].to_bytes()
    assert (len(blob), hashlib.sha256(blob).hexdigest()[:16]) == (size, sha_prefix)


#: 100 "ab" records, more than the 64 that a capped record list would keep;
#: only the last five end within 70 bytes of "cdef"
SATURATING_RULE = r"ab[^\n]{60,70}cdef"
SATURATING_PACKET = b"ab" * 100 + b"z" * 61 + b"cdef"


def test_saturating_case_oracle_end():
    assert oracle_match(parse(SATURATING_RULE, 0), SATURATING_PACKET).ends == (264,)


def test_bounded_class_gap_survives_record_saturation():
    db, _ = compile_rules([SATURATING_RULE])
    assert scan_once(db, SATURATING_PACKET) == [(0, 264)]


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


def test_reverse_threads_is_filter_hits():
    # one reverse thread runs per trigger, so the count is read off
    # `filter_hits`, through merges and the pickling that workers do
    db, _ = compile_rules(["ab.*cd", "xyz"])
    a, b = ScanStats(), ScanStats()
    scan_packet(db, b"aabcdxyz", a)
    scan_packet(db, b"xyzab", b)
    assert a.reverse_threads == a.filter_hits > 0
    a.merge(b)
    assert a.reverse_threads == a.filter_hits
    assert pickle.loads(pickle.dumps(a)).reverse_threads == a.filter_hits
    with pytest.raises(AttributeError):
        a.reverse_threads = 0
    with pytest.raises(TypeError):
        ScanStats(reverse_threads=1)


def test_report_schema():
    db, _ = compile_rules(["ab.*cd"])
    report = scan_corpus(db, [b"aabcd", b"zz"], workers=1)
    d = report.to_dict()
    assert list(d) == [
        "packets",
        "bytes",
        "filter_hits",
        "held_runs",
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


# --- parallel scans in worker processes ------------------------------------------


@contextmanager
def deadline(seconds: float):
    """Raise TimeoutError in this thread if the block runs past `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def cpus(monkeypatch, count: int) -> None:
    """Pretend this process may run on `count` CPUs."""
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: set(range(count)))


def no_processes(monkeypatch) -> None:
    def refuse(*args):
        raise AssertionError("a serial scan started worker processes")

    monkeypatch.setattr(engine, "_WorkerPool", refuse)


def worker_pids() -> set[int]:
    return {proc.pid for proc in multiprocessing.active_children()}


def process_gone(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return True
    return state in ("Z", "X")  # exited; waits only to be reaped


SMALL_RULES = ["ab.*cd", "user=[a-z]{1,8}"]
SMALL_PACKETS = [b"xxab12cd", b"user=abc", b"", b"zz"] * 5


@pytest.fixture(scope="module")
def mixed_db():
    return compile_rules(mixed_rules())[0]


@pytest.mark.parametrize(
    "workload, count",
    [("clean", 40), ("planted", 400), ("hitdense", 40)],
)
def test_reports_identical_at_any_worker_count(mixed_db, workload, count):
    packets = WORKLOADS[workload].make(mixed_rules(), 3)[:count]
    reports = [scan_corpus(mixed_db, packets, workers=w).to_json() for w in (1, 2, 4, 8)]
    assert reports[1:] == reports[:1] * 3



# --- long packets ---------------------------------------------------------------


@pytest.fixture(scope="module")
def hitdense_bytes():
    """The seed-1 `hitdense` corpus as one byte string."""
    return b"".join(WORKLOADS["hitdense"].make(mixed_rules(), 1))


def test_long_hitdense_packet_agrees_with_the_oracle(mixed_db, hitdense_bytes):
    # records pile up behind first fragments far past any cap a packet of
    # 1500 bytes would reach
    packet = hitdense_bytes[:100_000]
    found: dict[int, set[int]] = {}
    for rule_id, end in scan_once(mixed_db, packet):
        found.setdefault(rule_id, set()).add(end)
    rules = mixed_rules()
    for rc in mixed_db.checks:
        want = oracle_match(parse(rules[rc.rule_id], rc.rule_id), packet)
        got = found.get(rc.rule_id, set())
        assert bool(got) == bool(want), rules[rc.rule_id]
        assert got <= set(want.ends), rules[rc.rule_id]


def test_verify_bytes_grow_linearly_with_packet_length(mixed_db, hitdense_bytes):
    half, whole = ScanStats(), ScanStats()
    scan_packet(mixed_db, hitdense_bytes[:100_000], half)
    scan_packet(mixed_db, hitdense_bytes[:200_000], whole)
    assert 0 < whole.verify_bytes <= 2.5 * half.verify_bytes
    assert whole.saturated_records == 0


def test_random_megabyte_packet_reads_little_in_verification(mixed_db):
    packet = random.Random(7).randbytes(1 << 20)
    stats = ScanStats()
    scan_packet(mixed_db, packet, stats)
    assert stats.verify_bytes <= len(packet) // 100


def test_packets_are_scanned_here_or_in_child_processes(monkeypatch, tmp_path):
    db, _ = compile_rules(SMALL_RULES)
    log = tmp_path / "scans.txt"
    real = engine.scan_packet

    def spy(db, data, stats):
        with open(log, "a") as fh:  # children log here too; their memory is their own
            fh.write(f"{os.getpid()} {threading.get_ident()}\n")
        time.sleep(0.02)  # so that every process gets to claim chunks
        return real(db, data, stats)

    monkeypatch.setattr(engine, "scan_packet", spy)
    here = f"{os.getpid()} {threading.get_ident()}"
    serial = scan_corpus(db, SMALL_PACKETS, workers=1).to_json()

    with monkeypatch.context() as m:
        no_processes(m)
        assert scan_corpus(db, SMALL_PACKETS, workers=1).to_json() == serial
        cpus(m, 1)  # one usable CPU: any worker count scans serially
        assert scan_corpus(db, SMALL_PACKETS, workers=4).to_json() == serial
    assert set(log.read_text().splitlines()) == {here}

    log.unlink()
    cpus(monkeypatch, 3)
    assert scan_corpus(db, SMALL_PACKETS, workers=3).to_json() == serial
    lines = log.read_text().splitlines()
    assert len(lines) == len(SMALL_PACKETS) and here in lines
    children = {int(line.split()[0]) for line in lines if line != here}
    assert len(children) == 2 and children <= worker_pids()


def test_rounds_merge_like_one_scan(monkeypatch):
    db, _ = compile_rules(SMALL_RULES)
    serial = scan_corpus(db, SMALL_PACKETS, workers=1).to_json()
    cpus(monkeypatch, 2)
    monkeypatch.setattr(engine._WorkerPool, "WINDOW_BYTES", 20)  # rounds of 4 packets, 18 B
    assert list(engine._windows(SMALL_PACKETS, 20)) == [(i, i + 4) for i in range(0, 20, 4)]
    assert list(engine._windows([b"x" * 50, b"y"], 20)) == [(0, 1), (1, 2)]
    assert scan_corpus(db, SMALL_PACKETS, workers=2).to_json() == serial


def test_worker_count_must_be_positive():
    db, _ = compile_rules(SMALL_RULES)
    for workers in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            scan_corpus(db, SMALL_PACKETS, workers=workers)


def test_worker_count_is_capped_at_the_usable_cpus(monkeypatch):
    db, _ = compile_rules(SMALL_RULES)
    serial = scan_corpus(db, SMALL_PACKETS, workers=1).to_json()
    cpus(monkeypatch, 2)
    assert scan_corpus(db, SMALL_PACKETS, workers=10_000).to_json() == serial
    assert len(worker_pids()) == 1


def test_workers_are_kept_for_a_database_and_renewed_for_another():
    db, _ = compile_rules(SMALL_RULES)
    first = scan_corpus(db, SMALL_PACKETS, workers=2).to_json()
    pids = worker_pids()
    assert pids
    assert scan_corpus(db, SMALL_PACKETS, workers=2).to_json() == first
    assert worker_pids() == pids

    other, _ = compile_rules(SMALL_RULES)
    assert scan_corpus(other, SMALL_PACKETS, workers=2).to_json() == first
    renewed = worker_pids()
    assert renewed and not renewed & pids
    assert all(process_gone(pid) for pid in pids)


def test_a_scan_that_raises_in_a_worker_surfaces_as_runtime_error(monkeypatch):
    parent = os.getpid()
    real = engine.scan_packet

    def fails_in_children(db, data, stats):
        if os.getpid() != parent:
            raise KeyError("injected")
        time.sleep(0.02)  # leaves chunks for the child to claim
        return real(db, data, stats)

    monkeypatch.setattr(engine, "scan_packet", fails_in_children)
    db, _ = compile_rules(SMALL_RULES)  # a new database, so the workers fork with the patch
    with deadline(30), pytest.raises(RuntimeError, match=r"failed:(.|\n)*KeyError: 'injected'"):
        scan_corpus(db, SMALL_PACKETS, workers=2)


def test_a_killed_worker_fails_one_call_and_the_next_starts_afresh():
    db, _ = compile_rules(SMALL_RULES)
    serial = scan_corpus(db, SMALL_PACKETS, workers=1).to_json()
    assert scan_corpus(db, SMALL_PACKETS, workers=2).to_json() == serial
    (victim,) = multiprocessing.active_children()
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=10)
    assert not victim.is_alive()
    with deadline(30):
        with pytest.raises(RuntimeError, match="exited"):
            scan_corpus(db, SMALL_PACKETS, workers=2)
        assert scan_corpus(db, SMALL_PACKETS, workers=2).to_json() == serial
    assert victim.pid not in worker_pids()


@pytest.mark.parametrize("ending", ["exit", "sigkill"])
def test_no_worker_outlives_its_parent(ending):
    script = textwrap.dedent(
        f"""
        import multiprocessing, sys, time
        from anchorscan.engine import compile_rules, scan_corpus
        db, _ = compile_rules({SMALL_RULES!r})
        scan_corpus(db, {SMALL_PACKETS!r}, workers=2)
        print(*[p.pid for p in multiprocessing.active_children()], flush=True)
        if {ending!r} == "sigkill":
            time.sleep(60)
        """
    )
    src = Path(engine.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True, env=env)
    try:
        pids = [int(pid) for pid in proc.stdout.readline().split()]
        if ending == "sigkill":
            proc.kill()
        assert proc.wait(timeout=60) == (0 if ending == "exit" else -signal.SIGKILL)
    finally:
        proc.kill()
        proc.stdout.close()
    assert len(pids) == min(2, len(os.sched_getaffinity(0))) - 1
    end = time.monotonic() + 10
    while not all(process_gone(pid) for pid in pids) and time.monotonic() < end:
        time.sleep(0.05)
    assert all(process_gone(pid) for pid in pids)


# --- leading gaps that accept every interval -----------------------------------


@pytest.fixture(scope="module")
def free_lead_dbs():
    """The paper rules plus `.*` leads, compiled once as they are and once
    with every leading gap forced through its check, as before the skip."""
    rules = [*PAPER_RULES, r".*cmd\.exe", r"^.*shadow", r"^abc.*def", r".{0,}zz[0-9]+"]
    db, report = compile_rules(rules)
    checked = []
    for rc in db.checks:
        rc = replace(rc)
        object.__setattr__(rc, "free_lead", False)
        checked.append(rc)
    supported = [rules[i] for i in report.supported]
    return db, replace(db, checks=tuple(checked)), supported


def test_free_lead_covers_empty_and_dotstar_leads(free_lead_dbs):
    db, checked, _ = free_lead_dbs
    free = [rc for rc in db.checks if rc.free_lead]
    assert {type(rc.gaps[0]) for rc in free} == {EmptyGap, DotGap}
    assert any(not rc.free_lead for rc in db.checks)
    assert not any(rc.free_lead for rc in checked.checks)
    # derived: outside equality and the database bytes, rebuilt on load
    assert checked.checks == db.checks and checked.to_bytes() == db.to_bytes()
    loaded = CompiledDatabase.from_bytes(db.to_bytes())
    assert [rc.free_lead for rc in loaded.checks] == [rc.free_lead for rc in db.checks]


@given(seed=st.integers(0, 2**32 - 1), dense=st.booleans())
@settings(max_examples=25, deadline=None)
def test_free_lead_skip_equals_checked_lead(free_lead_dbs, seed, dense):
    db, checked, rules = free_lead_dbs
    packets = synth.diff_packets(rules, 24, seed=seed)
    if dense:
        # match-dense packets, so records pile up behind first fragments
        packets = [b"".join(packets)[:1500]]
    packets.append(random.Random(seed).randbytes(300))
    for packet in packets:
        fast, slow = ScanStats(), ScanStats()
        assert scan_packet(db, packet, fast) == scan_packet(checked, packet, slow)
        assert fast == slow


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
