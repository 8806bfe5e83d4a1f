from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorscan.chars import ByteClass
from anchorscan.config import CompileConfig
from anchorscan.decompose import (
    MAX_EXPANSION,
    UnsupportedRuleError,
    _Cell,
    _window_sort_key,
    decompose_rule,
    is_gap_component,
    pick_filter_key,
    split_rule,
)
from anchorscan.parser import Alt, Atom, Node, Rep, Seq, parse, render
from ref_match import accepts, enumerate_strings

CFG = CompileConfig()


def tree_of(pattern: str) -> Node:
    return parse(pattern).tree


def recompose(gaps, bounded) -> Node:
    parts = []
    for gap, frag in zip(gaps, list(bounded) + [None]):
        if gap is not None:
            parts.append(gap)
        if frag is not None:
            parts.append(frag if isinstance(frag, (Atom, Seq, Alt, Rep)) else frag.tree)
    from anchorscan.parser import normalize

    return normalize(Seq(tuple(parts)))


class TestGapComponents:
    @pytest.mark.parametrize(
        "pattern,expected",
        [
            (".*", True),  # unbounded over all 256 bytes
            (".+", True),
            ("[^\\n]+", True),  # 255-wide class, unbounded
            ("[^\\n]{500}", True),  # 255-wide class, bound over threshold
            ("[^\\n]{51}", True),
            ("[^\\n]{50}", False),  # bound exactly at threshold: not a gap
            ("[^\\n]{2}", False),
            (".{2,5}", False),
            (".{51}", True),
            ("[0-9]+", False),  # narrow class: dies fast, stays bounded
            ("[0-9]{500}", False),
            ("a*", False),
            ("(ab)*", False),  # child is not a class
        ],
    )
    def test_classification(self, pattern, expected):
        assert is_gap_component(tree_of(pattern), CFG) is expected

    def test_thresholds_are_configurable(self):
        loose = CompileConfig(long_pop_threshold=9, long_count_threshold=1)
        assert is_gap_component(tree_of("[0-9]{2}"), loose)
        assert not is_gap_component(tree_of("[0-9]{2}"), CFG)


class TestSplitRule:
    def test_classic_dotstar_rule(self):
        gaps, bounded = split_rule(parse("ab.*cd"))
        assert [g and render(g) for g in gaps] == [None, ".*", None]
        assert [render(b) for b in bounded] == ["ab", "cd"]

    def test_trailing_gap(self):
        gaps, bounded = split_rule(parse("(ab|cd)e[^\\n]{100}"))
        assert len(bounded) == 1
        assert render(bounded[0]) == "(ab|cd)e"
        assert gaps[0] is None and gaps[1] is not None

    def test_leading_gap(self):
        gaps, bounded = split_rule(parse(".*user="))
        assert gaps[0] is not None and gaps[1] is None
        assert render(bounded[0]) == "user="

    def test_adjacent_gaps_coalesce(self):
        gaps, bounded = split_rule(parse("ab.*[^\\n]{100}cd"))
        assert len(bounded) == 2
        assert isinstance(gaps[1], Seq)

    def test_nested_gap_is_unsupported(self):
        with pytest.raises(UnsupportedRuleError) as exc:
            split_rule(parse("(a.*b|c)d"))
        assert exc.value.reason == "nested-gap-component"
        with pytest.raises(UnsupportedRuleError):
            split_rule(parse("(a.*){2}d"))

    def test_all_gap_is_unsupported(self):
        with pytest.raises(UnsupportedRuleError) as exc:
            split_rule(parse(".*"))
        assert exc.value.reason == "no-filterable-fragment"

    @pytest.mark.parametrize(
        "pattern",
        ["ab.*ba", "ab.*ba.*ca", ".*abc", "abc.*", "a(b|c)d.*ef"],
    )
    def test_recomposition_language(self, pattern):
        rule = parse(pattern)
        gaps, bounded = split_rule(rule)
        rebuilt = recompose(gaps, bounded)
        for s in enumerate_strings(b"abc", 6):
            assert accepts(rule.tree, s) == accepts(rebuilt, s)


class TestKeyExtraction:
    def test_worked_example_hex_suffix(self):
        splits = pick_filter_key(tree_of("user=[a-f0-9]{32}"))
        assert splits is not None and len(splits) == 1
        (split,) = splits
        assert bytes(c.single() for c in split.key.classes) == b"ser="
        assert split.front == tree_of("user=")
        assert split.back == tree_of("[a-f0-9]{32}")

    def test_worked_example_literal_tail(self):
        splits = pick_filter_key(tree_of("\\d{1,6}\\x00mic\\x7c"))
        (split,) = splits
        assert bytes(c.single() for c in split.key.classes) == b"mic\x7c"
        assert split.front == tree_of("\\d{1,6}\\x00mic\\x7c")
        assert split.back is None

    def test_wide_class_pair_is_unfriendly(self):
        # [^\n]{2}: probability (255/256)^2, nowhere near the threshold
        assert pick_filter_key(tree_of("[^\\n]{2}")) is None

    def test_single_byte_fragment_is_unfriendly(self):
        # length-1 windows are excluded by design
        assert pick_filter_key(tree_of("a")) is None

    def test_alternation_yields_one_split_per_alternative(self):
        splits = pick_filter_key(tree_of("(ab|cd)e"))
        assert len(splits) == 2
        keys = {bytes(c.single() for c in s.key.classes) for s in splits}
        assert keys == {b"be", b"de"}
        fronts = {render(s.front) for s in splits}
        assert fronts == {"abe", "cde"}
        assert all(s.back is None for s in splits)

    def test_expansion_cap_prefers_next_candidate(self):
        # an 8-long window with three hex cells expands to 4096 > 1024 and is
        # passed over for a window that fits the cap
        splits = pick_filter_key(tree_of("user=[a-f0-9]{32}"))
        assert splits[0].key.expansion <= MAX_EXPANSION

    def test_key_lengths_are_supported(self):
        for pattern in ["abc", "abcd", "abcde", "abcdefg", "abcdefgh", "abcdefghij"]:
            (split,) = pick_filter_key(tree_of(pattern))
            assert split.key.length in (2, 4, 8)
            assert split.key.probability < CFG.max_key_prob

    def test_trim_lengths(self):
        # natural length 3 -> 2, 5..7 -> 4, >=8 -> 8
        assert pick_filter_key(tree_of("abc"))[0].key.length == 2
        assert pick_filter_key(tree_of("abcde"))[0].key.length == 4
        assert pick_filter_key(tree_of("abcdefgh"))[0].key.length == 8

    def test_key_expand_enumerates_strings(self):
        (split,) = pick_filter_key(tree_of("x[ab]yz"))
        strings = split.key.expand()
        assert len(strings) == split.key.expansion
        assert len(set(strings)) == len(strings)

    @pytest.mark.parametrize(
        "pattern",
        ["user=[ab]{3}", "(ab|cd)e", "ab\\d{1,3}cdef", "x[ab]yz", "a{3}b{2}"],
    )
    def test_split_recomposition_language(self, pattern):
        fragment = tree_of(pattern)
        splits = pick_filter_key(fragment)
        assert splits
        for s in enumerate_strings(b"abcdeuxyz=01", 5):
            recombined = any(
                accepts(sp.front if sp.back is None else Seq((sp.front, sp.back)), s)
                for sp in splits
            )
            assert recombined == accepts(fragment, s)


def fraction_sort_key(cells: list[_Cell], position: int) -> tuple:
    """The rational ranking `_window_sort_key` replaced: probability as an
    exact `Fraction`, then longer, then leftmost."""
    expansion = 1
    for c in cells:
        expansion *= c.cls.population
    return Fraction(expansion, 256 ** len(cells)), -len(cells), position


#: populations that make equal probabilities across lengths common
#: (16 * 16 == 1 * 256, 2 * 128 == 1 * 256, ...)
_POPULATIONS = (1, 2, 3, 4, 16, 64, 128, 255, 256)


class TestWindowRanking:
    @given(
        st.integers(2, 12).flatmap(
            lambda max_len: st.tuples(
                st.just(max_len),
                st.lists(
                    st.tuples(
                        st.lists(st.sampled_from(_POPULATIONS), min_size=2, max_size=max_len),
                        st.integers(0, 20),
                    ),
                    min_size=1,
                    max_size=30,
                ),
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_integer_key_ranks_like_the_fraction(self, case):
        max_len, windows = case
        cands = [
            ([_Cell(0, i, ByteClass((1 << pop) - 1)) for i, pop in enumerate(pops)], position)
            for pops, position in windows
        ]
        old = [fraction_sort_key(cells, pos) for cells, pos in cands]
        new = [_window_sort_key(cells, pos, max_len) for cells, pos in cands]
        for i in range(len(cands)):
            for j in range(len(cands)):
                assert (old[i] < old[j]) == (new[i] < new[j])
                assert (old[i] == old[j]) == (new[i] == new[j])
        order = sorted(range(len(cands)), key=old.__getitem__)
        assert order == sorted(range(len(cands)), key=new.__getitem__)


class TestMerging:
    def test_interior_unfriendly_merges_both_gaps(self):
        dec = decompose_rule(parse("foo.*[0-9]{2}.*bar"))
        assert [render(b.tree) for b in dec.bounded] == ["foo", "bar"]
        assert dec.gaps[0] is None and dec.gaps[2] is None
        middle = dec.gaps[1]
        assert isinstance(middle, Seq) and len(middle.parts) == 3
        assert render(middle) == ".*[0-9]{2}.*"

    def test_leading_unfriendly_seeds_leading_gap(self):
        dec = decompose_rule(parse("[0-9]{2}.*foobar"))
        assert [render(b.tree) for b in dec.bounded] == ["foobar"]
        assert render(dec.gaps[0]) == "[0-9]{2}.*"

    def test_trailing_unfriendly(self):
        dec = decompose_rule(parse("foobar.*[0-9]{2}"))
        assert [render(b.tree) for b in dec.bounded] == ["foobar"]
        assert render(dec.gaps[1]) == ".*[0-9]{2}"

    def test_all_unfriendly_is_unsupported(self):
        with pytest.raises(UnsupportedRuleError) as exc:
            decompose_rule(parse("[0-9]{2}.*[0-9]{2}"))
        assert exc.value.reason == "no-filterable-fragment"

    def test_friendly_rule_untouched(self):
        dec = decompose_rule(parse("ab.*cd"))
        assert dec.fragment_count == 2
        assert [b.index for b in dec.bounded] == [1, 2]
        assert len(dec.gaps) == 3

    @pytest.mark.parametrize(
        "pattern",
        ["ab.*ba", "abc.*[ab]{2}.*cba", "[ab]{2}.*abc", "abc.*[ab]{2}"],
    )
    def test_merge_preserves_language(self, pattern):
        rule = parse(pattern)
        dec = decompose_rule(rule)
        rebuilt = recompose(dec.gaps, dec.bounded)
        for s in enumerate_strings(b"abc", 6):
            assert accepts(rule.tree, s) == accepts(rebuilt, s)


# --- properties -----------------------------------------------------------------

_letters = st.sampled_from([ByteClass.of(ord(c)) for c in "ab"] + [ByteClass.of(ord("a"), ord("b"))])


def _fragments(depth: int = 2):
    leaf = st.builds(Atom, _letters)
    if depth == 0:
        return leaf
    sub = _fragments(depth - 1)
    return st.one_of(
        leaf,
        st.builds(lambda a, b: Seq((a, b)), sub, sub),
        st.builds(lambda a, b: Alt((a, b)), sub, sub),
        st.builds(lambda i, lo, ex: Rep(i, lo, max(lo, 1) + ex), sub, st.integers(0, 2), st.integers(0, 1)),
    )


class TestProperties:
    @given(_fragments())
    @settings(max_examples=150, deadline=None)
    def test_splits_union_equals_fragment(self, fragment):
        from anchorscan.parser import normalize

        fragment = normalize(fragment)
        splits = pick_filter_key(fragment, CFG)
        if splits is None:
            return
        for sp in splits:
            assert sp.key.length in (2, 4, 8)
            assert sp.key.probability < CFG.max_key_prob
            assert sp.key.expansion <= MAX_EXPANSION
        for s in enumerate_strings(b"ab", 5):
            recombined = any(
                accepts(sp.front if sp.back is None else Seq((sp.front, sp.back)), s)
                for sp in splits
            )
            assert recombined == accepts(fragment, s)
