"""Gap checking and per-packet verification state."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorscan.chars import ByteClass
from anchorscan.decompose import UnsupportedRuleError
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
    MatchEvent,
    RuleChecks,
    VerificationState,
    classify_gap,
    gap_from_bytes,
    gap_to_bytes,
)
from test_stt import lookup


def tree(pattern):
    return parse(pattern).tree


def state_for(gaps, data, *, n=2, anchored_end=False, rule_id=7):
    rc = RuleChecks(rule_id=rule_id, n_fragments=n, gaps=tuple(gaps), anchored_end=anchored_end)
    return VerificationState([rc], data)


def ev(k, s, e):
    return MatchEvent(0, k, s, e)


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
    assert st.on_fragment_match(MatchEvent(0, 0, 0, 1)) == []
    assert st.on_fragment_match(MatchEvent(0, 1, 4, 5)) == []
    assert st.on_fragment_match(MatchEvent(0, 2, 8, 9)) == [(3, 9)]

    # digits gap wrong length: no match
    st = VerificationState([rc], b"ab--cd4ef_")
    st.on_fragment_match(MatchEvent(0, 0, 0, 1))
    st.on_fragment_match(MatchEvent(0, 1, 4, 5))
    assert st.on_fragment_match(MatchEvent(0, 2, 7, 8)) == []


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
        classify_gap(tree(".{0,200}"), INTERIOR),  # bounded: every record kept
        classify_gap(None, TRAILING),
    ]
    events = RECORD_CAP + 3
    st = state_for(gaps, b"ab" * events + b"cd")
    for s in range(0, 2 * events, 2):
        st.on_fragment_match(ev(0, s, s + 1))
    assert st.records[(0, 0)] == list(range(1, 2 * RECORD_CAP, 2))
    assert st.saturated == 3
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
    st.on_fragment_match(MatchEvent(0, 0, 0, 1))
    st.on_fragment_match(MatchEvent(1, 0, 0, 1))
    assert st.on_fragment_match(MatchEvent(1, 1, 3, 4)) == [(11, 4)]
    assert st.on_fragment_match(MatchEvent(0, 1, 3, 4)) == [(10, 4)]


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
