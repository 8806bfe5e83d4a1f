from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ref_match
from anchorscan import automata, verify
from anchorscan.automata import (
    DEAD,
    Dfa,
    Nfa,
    NfaBuildError,
    StateExplosionError,
    build_forward_dfa,
    build_reverse_dfa,
    classic_state_count,
    determinize,
    minimize,
    subset_state_count,
    thompson,
)
from anchorscan.chars import ByteClass
from anchorscan.engine import compile_rules
from anchorscan.parser import Alt, Atom, Rep, Seq, parse
from test_parser import _trees

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import PAPER_RULES  # noqa: E402


def tree_of(pattern: str):
    return parse(pattern).tree


def dfa_for(*patterns: str, minimized: bool = True) -> Dfa:
    dfa = determinize(thompson([tree_of(p) for p in patterns]))
    return minimize(dfa) if minimized else dfa


def run_dfa(dfa: Dfa, data: bytes, state: int) -> int:
    """The state the dense table reaches from `state` after `data`."""
    table = dfa.table
    for byte in data:
        state = int(table[state, byte])
    return state


def full_match_labels(dfa: Dfa, data: bytes, start: int | None = None) -> frozenset[int]:
    return dfa.accepts[run_dfa(dfa, data, dfa.start if start is None else start)]


def language(dfa: Dfa, alphabet: bytes, max_len: int) -> set[bytes]:
    return {
        s
        for s in ref_match.enumerate_strings(alphabet, max_len)
        if full_match_labels(dfa, s)
    }


class TestThompsonDeterminize:
    def test_single_literal(self):
        dfa = dfa_for("a")
        assert full_match_labels(dfa, b"a") == {0}
        assert not full_match_labels(dfa, b"")
        assert not full_match_labels(dfa, b"aa")
        assert not full_match_labels(dfa, b"b")

    def test_counted_repetition_language(self):
        dfa = dfa_for("a{2,4}")
        assert language(dfa, b"ab", 5) == {b"aa", b"aaa", b"aaaa"}

    def test_unbounded_repetition(self):
        dfa = dfa_for("ab*")
        assert language(dfa, b"ab", 4) == {b"a", b"ab", b"abb", b"abbb"}

    def test_alternation_labels(self):
        dfa = dfa_for("ab", "ab", "cd")
        assert full_match_labels(dfa, b"ab") == {0, 1}
        assert full_match_labels(dfa, b"cd") == {2}

    def test_abc_minimal_state_count(self):
        # start, a, ab, abc plus the dead state
        dfa = dfa_for("abc")
        assert dfa.n_states == 5

    def test_empty_pattern_set(self):
        dfa = determinize(thompson([]))
        assert dfa.n_states == 2  # dead + transitionless start
        assert not dfa.accepts[dfa.start]
        assert minimize(dfa).n_states == 1

    def test_dead_state_is_absorbing(self):
        dfa = dfa_for("ab", "a{2,3}")
        assert (dfa.table[DEAD] == DEAD).all()
        assert not dfa.accepts[DEAD]

    def test_dot_class_transitions(self):
        dfa = dfa_for(".a")
        for b in (0, 65, 255):
            assert full_match_labels(dfa, bytes([b, ord("a")]))
        assert not full_match_labels(dfa, b"xb")

    def test_nfa_state_cap(self):
        with pytest.raises(NfaBuildError):
            thompson([tree_of("[a-z]{200}")], state_cap=50)


class TestSubsetCounts:
    def test_probe_matches_dense(self):
        for patterns, unanchored in [
            (["ab", "cd.*ef"], False),
            (["ab.*cd"], True),
            (["a{2,4}", "(x|y)z"], False),
        ]:
            trees = [tree_of(p) for p in patterns]
            nfa = thompson(trees, unanchored=unanchored)
            dense = determinize(nfa)
            # dense numbering includes the dead state; the probe counts it
            # only when reachable
            dead_reachable = bool((dense.table[1:] == DEAD).any()) or dense.n_states == 1
            expect = dense.n_states if dead_reachable else dense.n_states - 1
            assert subset_state_count(nfa) == expect

    def test_explosion_raises_with_partial_count(self):
        trees = [tree_of(f"{chr(97 + i)}x.*{chr(97 + i)}y") for i in range(8)]
        with pytest.raises(StateExplosionError) as exc:
            classic_state_count(trees, cap=40)
        assert exc.value.visited > 40
        assert exc.value.cap == 40

    def test_anchored_completes_where_classic_explodes(self):
        trees = [tree_of(f"{chr(97 + i)}x.*{chr(97 + i)}y") for i in range(8)]
        cap = 200
        with pytest.raises(StateExplosionError):
            classic_state_count(trees, cap=cap)
        anchored = determinize(thompson(trees), cap=cap)
        assert anchored.n_states <= cap

    def test_dense_determinize_cap(self):
        trees = [tree_of(f"{chr(97 + i)}x.*{chr(97 + i)}y") for i in range(8)]
        nfa = thompson(trees, unanchored=True)
        with pytest.raises(StateExplosionError):
            determinize(nfa, cap=40)


class TestMinimize:
    def test_duplicate_alternative_merges(self):
        assert dfa_for("ab|ab").n_states == dfa_for("ab").n_states

    def test_fixpoint(self):
        dfa = dfa_for("(a|b)c{1,3}", minimized=False)
        once = minimize(dfa)
        twice = minimize(once)
        assert once.n_states == twice.n_states
        assert np.array_equal(once.table, twice.table)

    def test_language_preserved(self):
        raw = dfa_for("(ab|a)b*", minimized=False)
        mini = minimize(raw)
        assert mini.n_states <= raw.n_states
        assert language(mini, b"ab", 5) == language(raw, b"ab", 5)

    def test_label_sets_not_conflated(self):
        # same language, different ids: states must not merge across labels
        dfa = dfa_for("ab", "cd")
        assert full_match_labels(dfa, b"ab") == {0}
        assert full_match_labels(dfa, b"cd") == {1}


def reference_minimize(dfa: Dfa) -> Dfa:
    """The structured-sort, per-state-loop minimization that `minimize`
    replaced, kept as the reference its output must equal exactly."""
    table = dfa.table
    n = table.shape[0]
    reduced = np.unique(table, axis=1)

    label_keys: dict[frozenset[int], int] = {}
    block_of = np.zeros(n, dtype=np.int64)
    for s in range(n):
        key = dfa.accepts[s]
        if key not in label_keys:
            label_keys[key] = len(label_keys)
        block_of[s] = label_keys[key]

    n_blocks = len(label_keys)
    while True:
        sig = np.column_stack([block_of, block_of[reduced]])
        _, new_ids = np.unique(sig, axis=0, return_inverse=True)
        new_count = int(new_ids.max()) + 1
        if new_count == n_blocks:
            break
        block_of = new_ids.reshape(n)
        n_blocks = new_count

    _, first_state = np.unique(block_of, return_index=True)
    block_table = block_of[table[first_state]]  # (blocks, 256)
    block_accepts = [dfa.accepts[int(s)] for s in first_state]

    # renumber: dead first, then start/entries, then BFS over bytes
    renum = {int(block_of[DEAD]): DEAD}
    order = [int(block_of[DEAD])]
    frontier = [int(block_of[dfa.start])]
    frontier += [int(block_of[e]) for e in dfa.entries.values()]
    qpos = 0
    queue2: list[int] = []
    for b in frontier:
        if b not in renum:
            renum[b] = len(order)
            order.append(b)
            queue2.append(b)
    while qpos < len(queue2):
        b = queue2[qpos]
        qpos += 1
        for succ in block_table[b]:
            sb = int(succ)
            if sb not in renum:
                renum[sb] = len(order)
                order.append(sb)
                queue2.append(sb)

    m = len(order)
    new_table = np.zeros((m, 256), dtype=np.uint32)
    new_accepts: list[frozenset[int]] = [frozenset()] * m
    for new_id, b in enumerate(order):
        new_table[new_id] = [renum[int(x)] for x in block_table[b]]
        new_accepts[new_id] = block_accepts[b]
    entries = {k: renum[int(block_of[v])] for k, v in dfa.entries.items()}
    return Dfa(
        table=new_table,
        accepts=tuple(new_accepts),
        start=renum[int(block_of[dfa.start])],
        entries=entries,
    )


_LABEL_SETS = (frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1}), frozenset({2, 5}))


@st.composite
def raw_dfas(draw) -> Dfa:
    """Total DFAs with an absorbing, non-accepting dead state 0.

    States draw their rows from a few distinct rows and their columns from
    a few distinct columns (a single one makes every column equal), so
    equivalent states are common. Random targets leave some states
    unreachable; label sets include multi-label ones and the start and
    entries may be any state, the dead one included.
    """
    n = draw(st.integers(1, 30))
    n_rows = draw(st.integers(1, 8))
    n_cols = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, n, (n_rows, n_cols))
    cols = rng.integers(0, n_cols, 256)
    table = rows[rng.integers(0, n_rows, n)][:, cols].astype(np.uint32)
    table[DEAD] = DEAD
    labels = draw(st.lists(st.sampled_from(_LABEL_SETS), min_size=n - 1, max_size=n - 1))
    start = draw(st.integers(0, n - 1))
    entries = draw(st.dictionaries(st.integers(0, 9), st.integers(0, n - 1), max_size=4))
    return Dfa(table=table, accepts=(frozenset(), *labels), start=start, entries=entries)


_CHAIN_CLASSES = (
    ByteClass.of(ord("a")),
    ByteClass.of(ord("a"), ord("b")),
    ByteClass.full(),
    ByteClass.of(ord("\n")).negate(),
)


_LOOP_TAIL = 8


def _bound_after_loop(parts):
    """Cap the counted length after a chain's first unbounded part at
    `_LOOP_TAIL` bytes, trimming each later part's `lo`, then its `extra`.
    Every chain class overlaps every other, so behind a loop the subset
    construction tracks each alignment of the counted run that follows:
    its states grow exponentially with that run's length, and
    `.+a{2,}.{10,14}[ab]{12,15}` passed `determinize`'s 1 000 000-state
    cap. Loops stay anywhere in the chain."""
    out, left = [], None
    for cls, lo, extra in parts:
        if left is not None:
            lo = min(lo, left)
            extra = None if extra is None else min(extra, left - lo)
            left -= lo + (extra or 0)
        elif extra is None:
            left = _LOOP_TAIL
        out.append((cls, lo, extra))
    return out


def assert_same_dfa(got: Dfa, want: Dfa) -> None:
    assert got.table.dtype == want.table.dtype == np.uint32
    assert np.array_equal(got.table, want.table)
    assert got.accepts == want.accepts
    assert got.start == want.start
    assert got.entries == want.entries


class TestMinimizeEqualsReference:
    @given(raw_dfas())
    @settings(max_examples=400, deadline=None)
    def test_random_dfas(self, dfa):
        before = dfa.table.copy()
        assert_same_dfa(minimize(dfa), reference_minimize(dfa))
        assert np.array_equal(dfa.table, before)

    @given(
        st.lists(
            st.lists(
                st.tuples(st.sampled_from(_CHAIN_CLASSES), st.integers(0, 12), st.none() | st.integers(0, 8)),
                min_size=1,
                max_size=4,
            ).map(_bound_after_loop),
            min_size=1,
            max_size=3,
        ),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_counted_chains(self, patterns, with_entries):
        # unrolled counted repetitions split one link per refinement round,
        # so these take many rounds that each sign only a few states
        trees = [
            Seq(tuple(Rep(Atom(cls), lo, None if extra is None else lo + extra) for cls, lo, extra in parts))
            for parts in patterns
        ]
        nfa = thompson(trees)
        dfa = determinize(nfa, entry_states=nfa.entries if with_entries else None)
        assert_same_dfa(minimize(dfa), reference_minimize(dfa))

    def test_unreachable_equal_columns_and_entries(self):
        # state 4 is unreachable; states 2 and 3 are equivalent; every
        # column is equal, so the reduced alphabet has one class
        table = np.array([[0], [2], [3], [3], [1]], dtype=np.uint32).repeat(256, axis=1)
        accepts = (frozenset(), frozenset(), frozenset({0, 1}), frozenset({0, 1}), frozenset({7}))
        dfa = Dfa(table=table, accepts=accepts, start=1, entries={5: 3, 6: 2})
        got = minimize(dfa)
        assert_same_dfa(got, reference_minimize(dfa))
        assert got.n_states == 3 and got.entries == {5: 2, 6: 2}

    def test_paper_rules_compile_to_the_same_bytes(self, monkeypatch):
        rules = list(PAPER_RULES)
        fast = compile_rules(rules)[0].to_bytes()
        monkeypatch.setattr(automata, "minimize", reference_minimize)
        monkeypatch.setattr(verify, "minimize", reference_minimize)
        assert compile_rules(rules)[0].to_bytes() == fast


def reference_determinize(nfa: Nfa, cap: int = 1_000_000, *, entry_states: list[int] | None = None) -> Dfa:
    """The subset construction that `determinize` replaced: subsets keyed by
    fixed-width little-endian bytes, labels found by walking every accept
    state. Kept as the reference its output must equal exactly."""
    space = automata._SubsetSpace(nfa)
    starts = [nfa.start] + (entry_states or [])
    if any(space.closures[s] & space.core != space.core for s in starts):
        space.disable_core()
    C = space.n_classes
    not_core = ~space.core
    key_len = (nfa.n + 7) // 8
    accept_items = sorted(nfa.accepts.items())

    def key_of(subset: int) -> bytes:
        return subset.to_bytes(key_len, "little")

    def labels_of(subset: int) -> frozenset[int]:
        labels: frozenset[int] = frozenset()
        for state, ids in accept_items:
            if (subset >> state) & 1:
                labels |= ids
        return labels

    rows: list[list[int]] = [[DEAD] * C]
    labels: list[frozenset[int]] = [frozenset()]
    seen: dict[bytes, int] = {key_of(0): DEAD}
    queue: list[tuple[int, ...]] = [()]
    entry_ids: list[int] = []
    for s in starts:
        subset = space.closures[s]
        sid = seen.get(key_of(subset))
        if sid is None:
            sid = len(rows)
            seen[key_of(subset)] = sid
            rows.append([DEAD] * C)
            labels.append(labels_of(subset))
            queue.append(automata._bits(subset & not_core))
        entry_ids.append(sid)
    pos = 1
    while pos < len(queue):
        sid = pos
        succ = space.successors(queue[pos])
        pos += 1
        for c in range(C):
            subset = succ[c]
            nid = seen.get(key_of(subset))
            if nid is None:
                nid = len(rows)
                if nid > cap:
                    raise StateExplosionError(cap, nid)
                seen[key_of(subset)] = nid
                rows.append([DEAD] * C)
                labels.append(labels_of(subset))
                queue.append(automata._bits(subset & not_core))
            rows[sid][c] = nid
    table = np.array(rows, dtype=np.uint32)[:, space.class_of]
    entries = {i: entry_ids[1 + i] for i in range(len(entry_states or []))}
    return Dfa(table=table, accepts=tuple(labels), start=entry_ids[0], entries=entries)


_FULL = ByteClass.full().mask
#: transition masks: single bytes, a range, a few scattered bytes, every
#: byte (any-byte loops give subset construction a persistent core), and
#: every byte but one
_MASKS = (
    1 << ord("a"),
    1 << ord("b"),
    ByteClass.from_ranges((ord("a"), ord("z"))).mask,
    (1 << 0) | (1 << 200) | (1 << ord("b")),
    _FULL,
    _FULL ^ (1 << ord("a")),
)


@st.composite
def raw_nfas(draw) -> tuple[Nfa, list[int] | None]:
    """Random byte-class NFAs with their entry states.

    Edges draw from a few masks, any-byte ones included, and random epsilon
    edges may form cycles. Accept states carry single or multi-label sets,
    or there are none (the empty language). Entry states may be any
    state, so some miss the start closure's core and disable it.
    """
    n = draw(st.integers(1, 12))
    nfa = Nfa()
    nfa.n = n
    nfa.trans = [
        draw(st.lists(st.tuples(st.sampled_from(_MASKS), st.integers(0, n - 1)), max_size=3))
        for _ in range(n)
    ]
    nfa.eps = [draw(st.lists(st.integers(0, n - 1), max_size=2)) for _ in range(n)]
    if draw(st.booleans()):
        nfa.trans[0].append((_FULL, 0))  # an unanchored start: a core
    labels = st.frozensets(st.integers(0, 5), min_size=1, max_size=3)
    nfa.accepts = draw(st.dictionaries(st.integers(0, n - 1), labels, max_size=4))
    entries = draw(st.none() | st.lists(st.integers(0, n - 1), max_size=4))
    return nfa, entries


class TestDeterminizeEqualsReference:
    @given(raw_nfas())
    @settings(max_examples=400, deadline=None)
    def test_random_nfas(self, case):
        nfa, entries = case
        assert_same_dfa(
            determinize(nfa, entry_states=entries),
            reference_determinize(nfa, entry_states=entries),
        )

    @given(st.lists(_trees(2), max_size=4), st.booleans(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_thompson_nfas(self, trees, unanchored, with_entries):
        labels = [frozenset({i % 2, 7}) for i in range(len(trees))]
        nfa = thompson(trees, labels, unanchored=unanchored)
        entries = nfa.entries if with_entries else None
        assert_same_dfa(
            determinize(nfa, entry_states=entries),
            reference_determinize(nfa, entry_states=entries),
        )

    def test_core_disabled_by_an_entry(self):
        nfa = thompson([tree_of("ab"), tree_of("cd")], unanchored=True)
        space = automata._SubsetSpace(nfa)
        assert space.core  # the any-byte loops form a core ...
        # ... that the closure of the state before the final "d" misses
        (entry,) = [s for s in range(nfa.n) if (1 << ord("d"), s + 1) in nfa.trans[s]]
        assert space.closures[entry] & space.core != space.core
        got = determinize(nfa, entry_states=[entry])
        assert_same_dfa(got, reference_determinize(nfa, entry_states=[entry]))
        assert full_match_labels(got, b"d", got.entries[0]) == {1}

    def test_multi_label_and_empty_language(self):
        nfa = thompson([tree_of("ab"), tree_of("a[bc]")], [frozenset({1, 4}), frozenset({4, 9})])
        got = determinize(nfa)
        assert_same_dfa(got, reference_determinize(nfa))
        assert full_match_labels(got, b"ab") == {1, 4, 9}
        empty = Nfa()
        empty.n, empty.trans, empty.eps = 2, [[(_FULL, 1)], [(_FULL, 0)]], [[], []]
        got = determinize(empty, entry_states=[1])
        assert_same_dfa(got, reference_determinize(empty, entry_states=[1]))
        assert not any(got.accepts)

    def test_cap_raises_like_the_reference(self):
        nfa = thompson([tree_of("[ab]{6}")])
        with pytest.raises(StateExplosionError) as want:
            reference_determinize(nfa, cap=5)
        with pytest.raises(StateExplosionError) as got:
            determinize(nfa, cap=5)
        assert (got.value.cap, got.value.visited) == (want.value.cap, want.value.visited)


class TestLanguagePreservation:
    @given(_trees(2))
    @settings(max_examples=120, deadline=None)
    def test_pipeline_equals_backtracker(self, tree):
        dfa = minimize(determinize(thompson([tree])))
        for s in ref_match.enumerate_strings(b"abc", 4):
            assert bool(full_match_labels(dfa, s)) == ref_match.accepts(tree, s), s

    @given(st.lists(_trees(2), min_size=2, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_multi_pattern_labels(self, trees):
        dfa = minimize(determinize(thompson(trees)))
        for s in ref_match.enumerate_strings(b"ab", 4):
            got = full_match_labels(dfa, s)
            want = {i for i, t in enumerate(trees) if ref_match.accepts(t, s)}
            assert got == frozenset(want), s


class TestReverseDfa:
    def test_user_front(self):
        dfa = build_reverse_dfa([(0, tree_of("user="))])
        state = dfa.start
        seen = []
        for byte in reversed(b"user="):
            state = int(dfa.table[state, byte])
            seen.append(bool(dfa.accepts[state]))
        assert seen == [False, False, False, False, True]
        assert dfa.accepts[state] == {0}

    def test_shared_suffix_fronts(self):
        dfa = build_reverse_dfa([(3, tree_of("ab")), (9, tree_of("b"))])
        s1 = int(dfa.table[dfa.start, ord("b")])
        assert dfa.accepts[s1] == {9}
        s2 = int(dfa.table[s1, ord("a")])
        assert dfa.accepts[s2] == {3}

    def test_class_front(self):
        dfa = build_reverse_dfa([(0, tree_of("[0-9]{2}ab"))])
        state = dfa.start
        for byte in reversed(b"42ab"):
            state = int(dfa.table[state, byte])
        assert dfa.accepts[state] == {0}
        assert not full_match_labels(dfa, bytes(reversed(b"4xab")))

    def test_empty(self):
        dfa = build_reverse_dfa([])
        assert dfa.n_states == 1
        assert dfa.start == DEAD


class TestForwardDfa:
    def test_hex_back(self):
        dfa = build_forward_dfa([(0, tree_of("[a-f0-9]{32}"))])
        entry = dfa.entries[0]
        assert not full_match_labels(dfa, b"0123456789abcdef0123456789abcde", entry)
        assert full_match_labels(dfa, b"0123456789abcdef0123456789abcdef", entry) == {0}

    def test_identical_backs_merge(self):
        merged = build_forward_dfa([(1, tree_of("ab")), (2, tree_of("ab"))])
        single = build_forward_dfa([(1, tree_of("ab"))])
        assert merged.n_states == single.n_states
        assert merged.entries[1] == merged.entries[2]
        end = run_dfa(merged, b"ab", merged.entries[1])
        assert merged.accepts[end] == {1, 2}

    def test_distinct_backs_share_space(self):
        dfa = build_forward_dfa([(0, tree_of("ab")), (1, tree_of("a[bc]"))])
        assert dfa.accepts[run_dfa(dfa, b"ab", dfa.entries[0])] >= {0}
        assert dfa.accepts[run_dfa(dfa, b"ab", dfa.entries[1])] >= {1}
        assert dfa.accepts[run_dfa(dfa, b"ac", dfa.entries[1])] == {1}
        assert not dfa.accepts[run_dfa(dfa, b"ac", dfa.entries[0])]

    def test_empty(self):
        dfa = build_forward_dfa([])
        assert dfa.n_states == 1
        assert dfa.entries == {}


class TestDeterminism:
    def test_rebuild_is_byte_identical(self):
        frags = [(0, tree_of("user=")), (1, tree_of("[0-9]{2}x")), (2, tree_of("a(b|c)d"))]
        a = build_reverse_dfa(frags)
        b = build_reverse_dfa(frags)
        assert np.array_equal(a.table, b.table)
        assert a.accepts == b.accepts
        f1 = build_forward_dfa(frags)
        f2 = build_forward_dfa(frags)
        assert np.array_equal(f1.table, f2.table)
        assert f1.entries == f2.entries
