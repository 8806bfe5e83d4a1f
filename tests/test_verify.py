"""Gap checking and per-packet verification state."""
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorscan.automata import Dfa
from anchorscan.chars import ByteClass
from anchorscan.decompose import UnsupportedRuleError
from anchorscan import verify
from anchorscan.parser import parse
from anchorscan.verify import (
    EXACT,
    INTERIOR,
    LEADING,
    PREFIX,
    RECORD_CAP,
    SUFFIX,
    TRAILING,
    ClassGap,
    DfaGap,
    DotGap,
    EmptyGap,
    RuleChecks,
    VerificationState,
    classify_gap,
    gap_from_bytes,
    gap_to_bytes,
)
from anchorscan.stt import compress
from test_stt import lookup


def tree(pattern):
    return parse(pattern).tree


def state_for(gaps, data, *, n=2, anchored_end=False, rule_id=7):
    rc = RuleChecks(rule_id=rule_id, n_fragments=n, gaps=tuple(gaps), anchored_end=anchored_end)
    return VerificationState([rc], data)


def ev(k, s, e):
    return (0, k, s, e)


# --- classification ----------------------------------------------------------


def test_classify_kinds():
    assert classify_gap(None, LEADING) == EmptyGap(SUFFIX)
    g = classify_gap(tree(".{2,3}"), INTERIOR)
    assert g == DotGap(2, 3, EXACT)
    g = classify_gap(tree(".*"), INTERIOR)
    assert g == DotGap(0, None, EXACT)
    g = classify_gap(tree("[^\\n]{60,200}"), INTERIOR)
    assert isinstance(g, ClassGap)
    assert (g.lo, g.hi) == (60, 200)
    assert g.cls.population == 255
    g = classify_gap(tree("x[0-9]{1,3}"), TRAILING)
    assert isinstance(g, DfaGap) and g.mode == PREFIX


def test_classify_edge_modes():
    assert classify_gap(tree(".*"), LEADING).mode == SUFFIX
    assert classify_gap(tree(".*"), LEADING, edge_anchored=True).mode == EXACT
    assert classify_gap(tree(".*"), TRAILING).mode == PREFIX
    assert classify_gap(tree(".*"), TRAILING, edge_anchored=True).mode == EXACT
    with pytest.raises(ValueError):
        classify_gap(None, "sideways")


def test_classify_state_cap_breach():
    with pytest.raises(UnsupportedRuleError) as exc:
        classify_gap(tree("abcdef"), INTERIOR, state_cap=4)
    assert exc.value.reason == "gap-dfa-explosion"


# --- individual gap checks ---------------------------------------------------


def test_dot_gap_exact_bounds():
    g = DotGap(2, 3, EXACT)
    data = b"\x00" * 10
    assert g.check(data, 2, 1) == (False, 0)   # empty interval
    assert g.check(data, 2, 3) == (True, 2)    # success gives the window length
    assert g.check(data, 2, 4) == (True, 3)
    assert g.check(data, 2, 5) == (False, 0)   # length 4 > hi
    assert g.check(data, 4, 2) == (False, 0)   # negative length


def test_dot_gap_edge_ignores_hi():
    g = DotGap(2, 3, SUFFIX)
    data = b"\x00" * 10
    assert g.check(data, 0, 7) == (True, 2)    # length 8 > hi, but a lo-byte window fits
    assert g.check(data, 0, 0) == (False, 0)   # length 1 < lo


def test_class_gap_exact():
    g = ClassGap(ByteClass.from_bytes(b"0123456789"), 2, 4, EXACT)
    assert g.check(b"ab12cd", 2, 3) == (True, 2)
    assert g.check(b"ab1x3d", 2, 4) == (False, 2)  # stops at the miss
    assert g.check(b"ab1cde", 2, 2) == (False, 0)  # length below lo
    assert g.check(b"ab12345d", 2, 6) == (False, 0)  # length above hi


def test_class_gap_suffix_run():
    g = ClassGap(ByteClass.from_bytes(b"abcdefghijklmnopqrstuvwxyz"), 3, None, SUFFIX)
    # trailing run xyz satisfies lo=3 after exactly three reads
    assert g.check(b"ZZxyz", 0, 4) == (True, 3)
    # run breaks at Z after two reads
    assert g.check(b"Zxy", 0, 2) == (False, 3)
    assert g.check(b"xy", 0, 1) == (False, 0)  # interval too short


def test_class_gap_prefix_run():
    g = ClassGap(ByteClass.from_bytes(b"0123456789"), 2, 5, PREFIX)
    assert g.check(b"12ZZZZZZ", 0, 7) == (True, 2)
    assert g.check(b"1Z234567", 0, 7) == (False, 2)


def test_class_gap_zero_lo_is_free():
    g = ClassGap(ByteClass.from_bytes(b"9"), 0, 5, PREFIX)
    assert g.check(b"ZZZ", 0, 2) == (True, 0)


def test_dfa_gap_exact():
    g = classify_gap(tree("x[0-9]{1,3}"), INTERIOR)
    assert g.check(b"..x42..", 2, 4) == (True, 3)
    assert g.check(b"..x4a..", 2, 4) == (False, 3)
    assert g.check(b"..xyz..", 2, 4) == (False, 2)  # dead after 'y'
    assert g.check(b"..x....", 2, 2) == (False, 1)  # needs at least one digit
    assert g.check(b"", 0, -1) == (False, 0)


def test_dfa_gap_exact_empty_match():
    g = classify_gap(tree("(ab)?"), INTERIOR)
    assert g.check(b"....", 2, 1) == (True, 0)
    assert g.check(b"..ab", 2, 3) == (True, 2)
    assert g.check(b"..aZ", 2, 3) == (False, 2)


def test_dfa_gap_suffix():
    g = classify_gap(tree("x[0-9]{2}"), LEADING)
    assert g.mode == SUFFIX
    # suffix x42 of the interval matches, reading backwards 2,4,x
    assert g.check(b"..x42AB", 0, 4) == (True, 3)
    assert g.check(b"..x4zAB", 0, 4) == (False, 1)  # z kills the reverse walk


def test_dfa_gap_prefix():
    g = classify_gap(tree("=[0-9]+"), TRAILING)
    assert g.check(b"ab=123xx", 2, 7) == (True, 2)   # accepts at =1
    assert g.check(b"ab=x23xx", 2, 7) == (False, 2)


# --- references: the byte-by-byte checks the C-speed ones replaced -----------


def reference_class_check(gap, data, gs, ge):
    length = ge - gs + 1
    if length < 0:
        return False, 0
    mask = gap.cls.mask
    if gap.mode == EXACT:
        if length < gap.lo or (gap.hi is not None and length > gap.hi):
            return False, 0
        for i, pos in enumerate(range(gs, ge + 1)):
            if not (mask >> data[pos]) & 1:
                return False, i + 1
        return True, length
    if length < gap.lo:
        return False, 0
    if gap.lo == 0:
        return True, 0
    span = range(ge, gs - 1, -1) if gap.mode == SUFFIX else range(gs, ge + 1)
    run = 0
    for i, pos in enumerate(span):
        if not (mask >> data[pos]) & 1:
            return False, i + 1
        run += 1
        if run >= gap.lo:
            return True, i + 1
    raise AssertionError("lo <= length guarantees a return above")


def reference_dfa_check(gap, data, gs, ge):
    length = ge - gs + 1
    if length < 0:
        return False, 0
    stt, exact = gap.stt, gap.mode == EXACT
    state = stt.start
    if not exact and stt.accepts[state]:
        return True, 0
    span = range(ge, gs - 1, -1) if gap.mode == SUFFIX else range(gs, ge + 1)
    for consumed, pos in enumerate(span, 1):
        state = lookup(stt, state, data[pos])
        if state == 0:
            return False, consumed
        if not exact and stt.accepts[state]:
            return True, consumed
    return (bool(stt.accepts[state]), length) if exact else (False, length)


_ALPHABET = b"ab0z=\n9"


@st.composite
def _window(draw):
    """A packet over a small alphabet and an interval in it: empty and
    negative intervals, gs = 0 and ge = len - 1 included."""
    data = bytes(draw(st.lists(st.sampled_from(_ALPHABET), max_size=24)))
    gs = draw(st.integers(0, len(data)))
    ge = draw(st.integers(gs - 3, len(data) - 1))
    return data, gs, ge


@st.composite
def _class_gap(draw):
    members = draw(st.sets(st.sampled_from(_ALPHABET), min_size=1))
    extra = draw(st.integers(0, (1 << 256) - 1))  # bytes outside the alphabet
    lo = draw(st.integers(0, 8))
    hi = draw(st.none() | st.integers(lo, lo + 8))
    return ClassGap(ByteClass(ByteClass.from_bytes(bytes(members)).mask | extra), lo, hi, draw(st.sampled_from([EXACT, SUFFIX, PREFIX])))


_DFA_GAPS = [
    classify_gap(tree(pattern), role, anchored)
    for pattern in ("x[0-9]{1,3}", "(ab)?", "(a|bz)*0", "[ab]+9?", "=[0-9]+", ".{2}a", "a\\n*b")
    for role, anchored in ((INTERIOR, False), (LEADING, False), (TRAILING, False), (LEADING, True))
]


def _all_windows(data):
    return [(gs, ge) for gs in range(len(data) + 1) for ge in range(gs - 2, len(data))]


@given(_class_gap(), _window())
@settings(max_examples=400, deadline=None)
def test_class_gap_equals_reference(gap, window):
    data, gs, ge = window
    assert gap.check(data, gs, ge) == reference_class_check(gap, data, gs, ge)


@given(st.sampled_from(_DFA_GAPS), _window())
@settings(max_examples=400, deadline=None)
def test_dfa_gap_equals_reference(gap, window):
    data, gs, ge = window
    assert gap.check(data, gs, ge) == reference_dfa_check(gap, data, gs, ge)


@pytest.mark.parametrize("data", [b"", b"a", b"ab0ab0zz", b"==0123a\nbz9ab", b"zzzzzzzzzzzz"])
def test_gap_checks_equal_references_on_every_window(data):
    class_gaps = [
        ClassGap(ByteClass.from_bytes(members), lo, hi, mode)
        for members in (b"ab", b"z", b"0123456789=")
        for lo, hi in ((0, None), (1, 1), (2, 5), (3, None))
        for mode in (EXACT, SUFFIX, PREFIX)
    ]
    for gs, ge in _all_windows(data):
        for gap in class_gaps:
            assert gap.check(data, gs, ge) == reference_class_check(gap, data, gs, ge), (gap, gs, ge)
        for gap in _DFA_GAPS:
            assert gap.check(data, gs, ge) == reference_dfa_check(gap, data, gs, ge), (gap, gs, ge)


@st.composite
def _long_window(draw):
    """A packet of up to 1 500 bytes, all `[^\\n]` members but for a few
    newlines, and an interval in it that may cross several chunks."""
    size = draw(st.integers(0, 1500))
    data = bytearray(b"x" * size)
    for at in draw(st.lists(st.integers(0, max(size - 1, 0)), max_size=3)) if size else ():
        data[at] = ord("\n")
    gs = draw(st.integers(0, size))
    ge = draw(st.integers(gs - 1, size - 1))
    return bytes(data), gs, ge


@given(st.integers(0, 70), st.none() | st.integers(70, 1500), _long_window())
@settings(max_examples=300, deadline=None)
def test_exact_class_gap_in_chunks_equals_reference(lo, hi, window):
    """Exact checks translate their interval in chunks that grow from the
    first size to the last; the result and the byte count do not depend on
    where the chunks fall."""
    data, gs, ge = window
    gap = classify_gap(tree("[^\\n]" + ("{%d,}" % lo if hi is None else "{%d,%d}" % (lo, hi))), TRAILING, True)
    assert isinstance(gap, ClassGap) and gap.mode == EXACT
    want = reference_class_check(gap, data, gs, ge)
    for chunks in (verify._CLASS_CHUNKS, (1, 4), (3, 10), (64, 64)):
        with mock.patch.object(verify, "_CLASS_CHUNKS", chunks):
            assert gap.check(data, gs, ge) == want, chunks


def test_exact_class_gap_allocates_up_to_its_miss():
    """`alpha[^\\n]{55,}$` on a 16 MB packet whose first newline is 100
    bytes past `alpha`: the check reads 101 bytes, and allocates little."""
    gap = classify_gap(tree("[^\\n]{55,}"), TRAILING, True)
    assert isinstance(gap, ClassGap) and gap.mode == EXACT
    data = b"alpha" + b"y" * 100 + b"\n" + b"z" * (16 * 2**20 - 106)
    tracemalloc.start()
    try:
        result = gap.check(data, 5, len(data) - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (False, 101)
    assert peak < 64 * 1024


def test_class_gap_table_is_derived():
    g = ClassGap(ByteClass.from_bytes(b"az"), 1, None, PREFIX)
    assert g.table == bytes(int(b in b"az") for b in range(256))
    assert "table" not in repr(g)
    assert g == ClassGap(ByteClass.from_bytes(b"az"), 1, None, PREFIX)
    assert gap_from_bytes(gap_to_bytes(g), 0)[0].table == g.table


def test_free_lead_is_derived():
    free = [EmptyGap(SUFFIX), DotGap(0, None, SUFFIX), DotGap(0, None, EXACT)]
    checked = [
        EmptyGap(EXACT),
        DotGap(1, None, SUFFIX),
        DotGap(0, 5, EXACT),
        ClassGap(ByteClass.from_bytes(b"az"), 0, None, SUFFIX),  # reads bytes
        classify_gap(tree("x|yz"), LEADING),
    ]
    for lead in free + checked:
        rc = RuleChecks(1, 1, (lead, EmptyGap(PREFIX)), False)
        assert rc.free_lead == (lead in free), lead
        assert "free_lead" not in repr(rc)


# --- verification state: worked rules ---------------------------------------


def dotstar_rule(data, **kw):
    """ab.*cd decomposed by hand: fragments ab, cd."""
    gaps = [
        classify_gap(None, LEADING),
        classify_gap(tree(".*"), INTERIOR),
        classify_gap(None, TRAILING),
    ]
    return state_for(gaps, data, **kw)


def test_dotstar_match():
    st = dotstar_rule(b"aabcd")
    assert st.on_fragment_match(ev(0, 1, 2)) == []
    assert st.on_fragment_match(ev(1, 3, 4)) == [(7, 4)]


def test_dotstar_order_violation():
    st = dotstar_rule(b"cdab")
    assert st.on_fragment_match(ev(1, 0, 1)) == []  # cd first: no predecessor
    assert st.on_fragment_match(ev(0, 2, 3)) == []
    assert st.emitted == set()


def test_counted_gap_rejects_short():
    gaps = [
        classify_gap(None, LEADING),
        classify_gap(tree(".{2,3}"), INTERIOR),
        classify_gap(None, TRAILING),
    ]
    st = state_for(gaps, b"abXcd")
    st.on_fragment_match(ev(0, 0, 1))
    assert st.on_fragment_match(ev(1, 3, 4)) == []  # gap of 1 byte

    st = state_for(gaps, b"abXXcd")
    st.on_fragment_match(ev(0, 0, 1))
    assert st.on_fragment_match(ev(1, 4, 5)) == [(7, 5)]  # gap of 2 bytes


def test_adjacent_fragments_zero_gap():
    st = dotstar_rule(b"abcd")
    st.on_fragment_match(ev(0, 0, 1))
    assert st.on_fragment_match(ev(1, 2, 3)) == [(7, 3)]


def test_overlapping_fragments_rejected():
    st = dotstar_rule(b"abcd")
    st.on_fragment_match(ev(0, 0, 1))
    # a cd match starting inside ab cannot follow it
    assert st.on_fragment_match(ev(1, 1, 2)) == []


def test_leading_anchor_exact():
    gaps = [
        classify_gap(tree(".{2,3}"), LEADING, edge_anchored=True),
        classify_gap(None, TRAILING),
    ]
    st = state_for(gaps, b"XXab", n=1)
    assert st.on_fragment_match(ev(0, 2, 3)) == [(7, 3)]
    st = state_for(gaps, b"XXXXXab", n=1)
    assert st.on_fragment_match(ev(0, 5, 6)) == []  # five bytes before, hi is 3


def test_leading_unanchored_any_offset():
    gaps = [
        classify_gap(tree(".{2,3}"), LEADING),
        classify_gap(None, TRAILING),
    ]
    st = state_for(gaps, b"XXXXXab", n=1)
    assert st.on_fragment_match(ev(0, 5, 6)) == [(7, 6)]
    st = state_for(gaps, b"Xab", n=1)
    assert st.on_fragment_match(ev(0, 1, 2)) == []  # only one byte available


def test_anchored_start_empty_gap():
    gaps = [
        classify_gap(None, LEADING, edge_anchored=True),
        classify_gap(None, TRAILING),
    ]
    st = state_for(gaps, b"abab", n=1)
    assert st.on_fragment_match(ev(0, 0, 1)) == [(7, 1)]
    assert st.on_fragment_match(ev(0, 2, 3)) == []  # not at offset 0


def test_trailing_anchor_requires_packet_end():
    gaps = [
        classify_gap(None, LEADING),
        classify_gap(tree(".*"), INTERIOR),
        classify_gap(None, TRAILING, edge_anchored=True),
    ]
    st = state_for(gaps, b"xabycd", anchored_end=True)
    st.on_fragment_match(ev(0, 1, 2))
    assert st.on_fragment_match(ev(1, 4, 5)) == [(7, 5)]

    st = state_for(gaps, b"xabycdz", anchored_end=True)
    st.on_fragment_match(ev(0, 1, 2))
    assert st.on_fragment_match(ev(1, 4, 5)) == []


def test_trailing_gap_with_anchor_reports_packet_end():
    # ab.*cd[0-9]* style tail: match end is the last packet byte
    gaps = [
        classify_gap(None, LEADING),
        classify_gap(tree(".*"), INTERIOR),
        classify_gap(tree("[0-9]{0,4}"), TRAILING, edge_anchored=True),
    ]
    st = state_for(gaps, b"ab_cd12", anchored_end=True)
    st.on_fragment_match(ev(0, 0, 1))
    assert st.on_fragment_match(ev(1, 3, 4)) == [(7, 6)]

    st = state_for(gaps, b"ab_cd1x", anchored_end=True)
    st.on_fragment_match(ev(0, 0, 1))
    assert st.on_fragment_match(ev(1, 3, 4)) == []


def test_single_fragment_anchored_both():
    gaps = [
        classify_gap(None, LEADING, edge_anchored=True),
        classify_gap(None, TRAILING, edge_anchored=True),
    ]
    st = state_for(gaps, b"ab", n=1, anchored_end=True)
    assert st.on_fragment_match(ev(0, 0, 1)) == [(7, 1)]
    st = state_for(gaps, b"abx", n=1, anchored_end=True)
    assert st.on_fragment_match(ev(0, 0, 1)) == []


def test_three_fragment_chain():
    gaps = [
        classify_gap(None, LEADING),
        classify_gap(tree(".*"), INTERIOR),
        classify_gap(tree("[0-9]{2,3}"), INTERIOR),
        classify_gap(None, TRAILING),
    ]
    rc = RuleChecks(rule_id=3, n_fragments=3, gaps=tuple(gaps), anchored_end=False)
    data = b"ab--cd45ef"
    st = VerificationState([rc], data)
    assert st.on_fragment_match((0, 0, 0, 1)) == []
    assert st.on_fragment_match((0, 1, 4, 5)) == []
    assert st.on_fragment_match((0, 2, 8, 9)) == [(3, 9)]

    # digits gap wrong length: no match
    st = VerificationState([rc], b"ab--cd4ef_")
    st.on_fragment_match((0, 0, 0, 1))
    st.on_fragment_match((0, 1, 4, 5))
    assert st.on_fragment_match((0, 2, 7, 8)) == []


# --- records, caps, counters -------------------------------------------------


def test_earliest_only_for_unbounded_dot():
    st = dotstar_rule(b"ab" * 8 + b"cd")
    for s in range(0, 6, 2):
        st.on_fragment_match(ev(0, s, s + 1))
    assert st.records[(0, 0)] == [1]
    assert st.saturated == 0


def test_record_cap_saturation():
    gaps = [
        classify_gap(None, LEADING),
        classify_gap(tree("(ab)*"), INTERIOR),  # an automaton, not left-absorbing: capped
        classify_gap(None, TRAILING),
    ]
    events = RECORD_CAP + 3
    st = state_for(gaps, b"ab" * events + b"cd")
    for s in range(0, 2 * events, 2):
        st.on_fragment_match(ev(0, s, s + 1))
    assert st.records[(0, 0)] == list(range(1, 2 * RECORD_CAP, 2))
    assert st.saturated == 3
    assert st.on_fragment_match(ev(1, 2 * events, 2 * events + 1)) == [(7, 2 * events + 1)]


@pytest.mark.parametrize("pattern", [".{0,200}", "[ab]{0,200}", "[ab]{2,}"])
def test_length_and_class_gaps_keep_every_record(pattern):
    gaps = [
        classify_gap(None, LEADING),
        classify_gap(tree(pattern), INTERIOR),
        classify_gap(None, TRAILING),
    ]
    events = RECORD_CAP + 3
    st = state_for(gaps, b"ab" * events + b"cd")
    for s in range(0, 2 * events, 2):
        st.on_fragment_match(ev(0, s, s + 1))
    assert st.records[(0, 0)] == list(range(1, 2 * events, 2))
    assert st.saturated == 0
    assert st.on_fragment_match(ev(1, 2 * events, 2 * events + 1)) == [(7, 2 * events + 1)]


def test_bounded_gap_needs_matching_record():
    gaps = [
        classify_gap(None, LEADING),
        classify_gap(tree(".{4,6}"), INTERIOR),
        classify_gap(None, TRAILING),
    ]
    st = state_for(gaps, b"ab__ab____cd")
    st.on_fragment_match(ev(0, 0, 1))
    st.on_fragment_match(ev(0, 4, 5))
    # gap from first ab is 8 (too long), from second is 4: match via the second
    assert st.on_fragment_match(ev(1, 10, 11)) == [(7, 11)]


def test_duplicate_emission_suppressed():
    st = dotstar_rule(b"ababcd")
    st.on_fragment_match(ev(0, 0, 1))
    st.on_fragment_match(ev(0, 2, 3))
    assert st.on_fragment_match(ev(1, 4, 5)) == [(7, 5)]
    assert st.on_fragment_match(ev(1, 4, 5)) == []


def test_escalation_and_byte_accounting():
    st = dotstar_rule(b"aabcd")
    st.on_fragment_match(ev(0, 1, 2))
    st.on_fragment_match(ev(1, 3, 4))
    assert st.escalated is False
    assert st.verify_bytes == 0

    gaps = [
        classify_gap(None, LEADING),
        classify_gap(tree("[0-9]{100,200}"), INTERIOR),
        classify_gap(None, TRAILING),
    ]
    data = b"ab" + b"7" * 150 + b"cd"
    st = state_for(gaps, data)
    st.on_fragment_match(ev(0, 0, 1))
    out = st.on_fragment_match(ev(1, 152, 153))
    assert out == [(7, 153)]
    assert st.escalated is True
    assert st.verify_bytes == 150  # whole interval read on success


def test_multiple_rules_independent():
    mk = lambda rid: RuleChecks(
        rule_id=rid,
        n_fragments=2,
        gaps=(
            classify_gap(None, LEADING),
            classify_gap(tree(".*"), INTERIOR),
            classify_gap(None, TRAILING),
        ),
        anchored_end=False,
    )
    st = VerificationState([mk(10), mk(11)], b"ab_cd")
    st.on_fragment_match((0, 0, 0, 1))
    st.on_fragment_match((1, 0, 0, 1))
    assert st.on_fragment_match((1, 1, 3, 4)) == [(11, 4)]
    assert st.on_fragment_match((0, 1, 3, 4)) == [(10, 4)]


# --- serialization -----------------------------------------------------------


@pytest.mark.parametrize(
    "gap",
    [
        EmptyGap(EXACT),
        EmptyGap(PREFIX),
        DotGap(0, None, EXACT),
        DotGap(3, 17, SUFFIX),
        ClassGap(ByteClass.from_bytes(b"0123456789"), 60, 200, EXACT),
        ClassGap(ByteClass.from_bytes(bytes(range(255))), 1, None, PREFIX),
    ],
)
def test_gap_roundtrip(gap):
    blob = gap_to_bytes(gap)
    out, pos = gap_from_bytes(blob, 0)
    assert pos == len(blob)
    assert out == gap


def test_dfa_gap_roundtrip():
    g = classify_gap(tree("x[0-9]{1,3}"), INTERIOR)
    blob = gap_to_bytes(g) + b"trailer"
    out, pos = gap_from_bytes(blob, 0)
    assert pos == len(blob) - 7
    assert out.mode == g.mode
    assert out.stt == g.stt
    assert out.check(b"x42", 0, 2) == (True, 3)


def test_gap_stream_roundtrip():
    gaps = [
        EmptyGap(SUFFIX),
        DotGap(2, 3, EXACT),
        classify_gap(tree("x[0-9]{1,3}"), TRAILING),
    ]
    blob = b"".join(gap_to_bytes(g) for g in gaps)
    pos = 0
    out = []
    while pos < len(blob):
        g, pos = gap_from_bytes(blob, pos)
        out.append(g)
    assert out[0] == gaps[0]
    assert out[1] == gaps[1]
    assert out[2].stt == gaps[2].stt


# --- absorbing gaps ----------------------------------------------------------


@pytest.mark.parametrize(
    "pattern, expected",
    [
        (".*(u|ey).*", (True, True)),
        ("(a|.)*", (True, True)),  # every string, the empty one included
        (".*a", (True, False)),
        ("a.*", (False, True)),
        ("[^\\n]{60,}\\n[^\\n]{60,}", (False, False)),
        ("(cd|ef)*gh", (False, False)),
        ("(ab)*", (False, False)),
    ],
)
def test_absorbing(pattern, expected):
    gap = classify_gap(tree(pattern), INTERIOR)
    assert isinstance(gap, DfaGap)
    assert gap.absorbing == expected
    # derived: not serialized, rebuilt for a loaded gap
    assert gap_from_bytes(gap_to_bytes(gap), 0)[0].absorbing == expected


def test_edge_gaps_are_not_absorbing():
    assert classify_gap(tree(".*(u|ey).*"), LEADING).absorbing == (False, False)
    assert classify_gap(tree(".*(u|ey).*"), TRAILING).absorbing == (False, False)


@pytest.mark.parametrize("pattern", [".*(a|bz).*", ".*a", "a.*", "(ab)*", "[ab]*b", "a\\n*b", "(..)+", "(.*a)?b"])
def test_absorbing_flags_hold_on_short_words(pattern):
    """A flag is only ever set where it holds: every short word of L stays
    in L with a byte put before it (left) or after it (right)."""
    gap = classify_gap(tree(pattern), INTERIOR)
    left, right = gap.absorbing

    def accepts(word):
        return gap.check(word, 0, len(word) - 1)[0]

    alphabet = b"abz\n"
    words = [b""]
    for _ in range(4):
        words += [w + bytes([c]) for w in words if len(w) == _ for c in alphabet]
    for word in filter(accepts, words):
        for c in alphabet:
            assert not left or accepts(bytes([c]) + word), (word, c)
            assert not right or accepts(word + bytes([c])), (word, c)


def forged_gap(n: int, accepting: bool = True) -> DfaGap:
    """An exact-mode gap over states 1..n - 1 (x + 1 for x in Z_(n-1)):
    byte a adds one, byte b triples, the rest stay. Every state accepts,
    so the language is every string, and for a prime n - 1 the state pairs
    one byte apart reach about n^2 more pairs."""
    m = n - 1
    table = np.zeros((n, 256), dtype=np.uint32)
    for x in range(m):
        table[x + 1] = x + 1
        table[x + 1, ord("a")] = (x + 1) % m + 1
        table[x + 1, ord("b")] = (3 * x) % m + 1
    accepts = tuple(frozenset({0}) if s and accepting else frozenset() for s in range(n))
    return DfaGap(compress(Dfa(table, accepts)), EXACT)


def test_forged_gap_past_the_pair_cap_loads_quickly_and_is_not_absorbing():
    assert forged_gap(6).absorbing == (True, True)  # few pairs: decided exactly
    gap, _ = gap_from_bytes(gap_to_bytes(forged_gap(600)), 0)
    t0 = time.perf_counter()
    rc = RuleChecks(1, 2, (EmptyGap(SUFFIX), gap, EmptyGap(PREFIX)), False)
    elapsed = time.perf_counter() - t0
    assert gap.absorbing == (False, False)
    assert rc.limits == (RECORD_CAP,)
    # the walk stops after ABSORB_STEPS steps; about 360 000 pairs lie beyond
    assert elapsed < 5.0


# --- records found by position and resumed runs ------------------------------


def reference_record_check(gap, data, ends, pos_s):
    """The per-record loop the verifier used to run: `check` from every
    record in turn until one matches, as `(ok, bytes read)`."""
    read = 0
    for end in ends:
        ok, n = gap.check(data, end + 1, pos_s - 1)
        if gap.examines_bytes:
            read += n
        if ok:
            return True, read
    return False, read


_INTERIOR_DFAS = [
    classify_gap(tree(pattern), INTERIOR)
    for pattern in (".*(a|bz).*", ".*a", "a.*", "(ab)*", "a\\n*b", "x[0-9]{1,3}", "[ab]*9?", "(a|bz)*0")
]


@st.composite
def _interior_gap(draw):
    kind = draw(st.sampled_from(["empty", "dot", "class", "dfa"]))
    if kind == "empty":
        return EmptyGap(EXACT)
    if kind == "dfa":
        return draw(st.sampled_from(_INTERIOR_DFAS))
    lo = draw(st.integers(0, 6))
    hi = draw(st.none() | st.integers(lo, lo + 10))
    if kind == "dot":
        return DotGap(lo, hi, EXACT)
    members = draw(st.sets(st.sampled_from(_ALPHABET), min_size=1))
    return ClassGap(ByteClass.from_bytes(bytes(members)), lo, hi, EXACT)


@st.composite
def _events(draw):
    """A packet and the fragment events a scan would feed the verifier for
    a two-fragment rule: distinct, in (pos_e, k, pos_s) order."""
    data = bytes(draw(st.lists(st.sampled_from(_ALPHABET), min_size=1, max_size=120)))
    n = len(data)
    raw = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, n - 1), st.integers(0, 3)), max_size=100))
    events = {(min(s + length, n - 1), k, s) for k, s, length in raw}
    return data, [(k, s, e) for e, k, s in sorted(events)]


@given(_interior_gap(), _events())
@settings(max_examples=400, deadline=None)
def test_record_lookups_equal_the_per_record_loop(gap, packet):
    data, events = packet
    st = state_for([EmptyGap(SUFFIX), gap, EmptyGap(PREFIX)], data)
    capped = st.checks[0].limits[0] == RECORD_CAP
    assert capped == (isinstance(gap, DfaGap) and not gap.absorbing[0])
    ends = []  # every fragment-0 record, uncapped: the free lead accepts all
    emitted = set()
    escalated = False
    for k, s, e in events:
        before = st.verify_bytes
        got = st.on_fragment_match(ev(k, s, e))
        if k == 0:
            ends.append(e)
            assert got == []
            continue
        ok, read = reference_record_check(gap, data, ends[:RECORD_CAP] if capped else ends, s)
        want = [(7, e)] if ok and (7, e) not in emitted else []
        emitted.update(want)
        assert got == want, (k, s, e)
        assert st.verify_bytes - before <= read
        escalated |= bool(ends) and gap.examines_bytes
    assert st.escalated == escalated
    assert st.saturated == (max(0, len(ends) - RECORD_CAP) if capped else 0)


def test_runs_resume_and_are_not_taken_back():
    gaps = [classify_gap(None, LEADING), classify_gap(tree("(ab)*"), INTERIOR), classify_gap(None, TRAILING)]
    data = b"xx" + b"ab" * 50 + b"cd"
    st = state_for(gaps, data)
    st.on_fragment_match(ev(0, 0, 1))
    assert st.on_fragment_match(ev(1, 102, 103)) == [(7, 103)]
    assert st.verify_bytes == 100
    # an end before the run's: run again from the record, and not kept
    assert st.on_fragment_match(ev(1, 12, 13)) == [(7, 13)]
    assert st.verify_bytes == 110
    assert st.runs[(0, 0)] == [(st.checks[0].gaps[1].stt.start, 102)]


def test_sink_runs_read_each_byte_once():
    gaps = [classify_gap(None, LEADING), classify_gap(tree(".*(u|ey).*"), INTERIOR), classify_gap(None, TRAILING)]
    data = b"tb" + b"x" * 50 + b"ey" + b"x" * 50 + b"rh" * 20
    st = state_for(gaps, data)
    st.on_fragment_match(ev(0, 0, 1))
    st.on_fragment_match(ev(0, 60, 61))  # a later record: the earliest dominates
    assert st.records[(0, 0)] == [1]
    assert st.on_fragment_match(ev(1, 30, 31)) == []
    assert st.verify_bytes == 28
    out = [st.on_fragment_match(ev(1, s, s + 1)) for s in range(104, 144, 2)]
    assert out == [[(7, s + 1)] for s in range(104, 144, 2)]
    assert st.verify_bytes == 52  # bytes 2-53: stopped in the accept sink at the y
