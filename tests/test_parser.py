from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorscan.chars import DIGIT, DOT, SPACE, WORD, ByteClass
from anchorscan.parser import (
    Alt,
    Atom,
    PatternSyntaxError,
    Rep,
    Seq,
    UnsupportedConstructError,
    normalize,
    parse,
    render,
    reverse_tree,
)
from ref_match import accepts, enumerate_strings, search_ends


def accepted_set(pattern: str, alphabet: bytes, max_len: int) -> set[bytes]:
    tree = parse(pattern).tree
    return {s for s in enumerate_strings(alphabet, max_len) if accepts(tree, s)}


class TestByteClass:
    def test_population(self):
        assert DOT.population == 256
        assert DIGIT.population == 10
        assert SPACE.population == 6
        assert WORD.population == 63
        assert parse("[^\\n]").tree.cls.population == 255

    def test_membership_and_negate(self):
        cls = ByteClass.from_ranges((0x61, 0x66), (0x30, 0x39))  # [a-f0-9]
        assert cls.population == 16
        assert ord("a") in cls and ord("5") in cls and ord("g") not in cls
        assert cls.negate().population == 240
        assert cls.negate().negate() == cls

    def test_empty_class_forbidden(self):
        with pytest.raises(ValueError):
            ByteClass(0)


class TestParsing:
    def test_single_literal(self):
        tree = parse("a").tree
        assert isinstance(tree, Atom)
        assert tree.cls.single() == ord("a")

    def test_counted_repetition_language(self):
        # expansion of a{2,4} over {a,b}, enumerated up to length 5
        got = accepted_set("a{2,4}", b"ab", 5)
        assert got == {b"aa", b"aaa", b"aaaa"}

    def test_dot_language(self):
        # a.b over alphabet {a,b,c}
        got = accepted_set("a.b", b"abc", 3)
        assert got == {b"aab", b"abb", b"acb"}

    def test_dot_is_all_bytes(self):
        tree = parse(".").tree
        assert tree.cls.mask == DOT.mask
        assert 0x0A in tree.cls  # newline included

    def test_hex_escape(self):
        assert parse("\\x41").tree.cls.single() == 0x41
        assert parse("\\xff").tree.cls.single() == 0xFF
        assert parse("\\x00").tree.cls.single() == 0x00

    def test_class_ranges_and_negation(self):
        cls = parse("[a-f0-9]").tree.cls
        assert cls.population == 16
        neg = parse("[^a-f0-9]").tree.cls
        assert neg.population == 240
        assert parse("[]a]").tree.cls.members() == [ord("]"), ord("a")]

    def test_class_with_escapes(self):
        cls = parse("[\\d\\x20]").tree.cls
        assert cls.population == 11

    def test_anchors(self):
        rule = parse("^ab$")
        assert rule.anchored_start and rule.anchored_end
        assert isinstance(rule.tree, Seq)
        rule = parse("ab\\$")  # escaped dollar is a literal
        assert not rule.anchored_end
        assert accepts(rule.tree, b"ab$")

    def test_alternation_and_groups(self):
        got = accepted_set("(ab|cd)e", b"abcde", 3)
        assert got == {b"abe", b"cde"}
        got = accepted_set("(?:ab|cd)e", b"abcde", 3)
        assert got == {b"abe", b"cde"}

    def test_quantifiers(self):
        assert accepted_set("ab?c", b"abc", 3) == {b"ac", b"abc"}
        assert b"" in {s for s in enumerate_strings(b"a", 2) if accepts(parse("a*").tree, s)}
        assert accepted_set("ab{2,}c", b"abc", 5) == {b"abbc", b"abbbc"}

    def test_lazy_marker_ignored(self):
        assert accepted_set("ab*?c", b"abc", 4) == accepted_set("ab*c", b"abc", 4)

    @pytest.mark.parametrize(
        "pattern",
        ["a{3,1}", "[z-a]", "(abc", "abc)", "a|", "|a", "a**", "*a", "a{2", "()", "[]", "\\x4", ""],
    )
    def test_syntax_errors(self, pattern):
        with pytest.raises(PatternSyntaxError):
            parse(pattern)

    @pytest.mark.parametrize(
        "pattern",
        ["(a)\\1", "(?=a)b", "(?!a)b", "(?<=a)b", "a\\bc", "(?i)abc", "a^b", "a$b"],
    )
    def test_unsupported_constructs(self, pattern):
        with pytest.raises(UnsupportedConstructError):
            parse(pattern)

    def test_empty_negated_class_is_error(self):
        with pytest.raises(PatternSyntaxError):
            parse("[^\\x00-\\xff]")

    def test_source_reparses_to_same_tree(self):
        for pat in ["ab.*cd", "user=[a-f0-9]{32}", "(ab|cd)e[^\\n]{100}", "\\d{1,6}\\x00mic\\x7c"]:
            rule = parse(pat)
            again = parse(rule.source)
            assert again.tree == rule.tree
            assert (again.anchored_start, again.anchored_end) == (
                rule.anchored_start,
                rule.anchored_end,
            )


# --- tree property tests ------------------------------------------------------

_small_class = st.sampled_from(
    [ByteClass.of(ord("a")), ByteClass.of(ord("b")), ByteClass.of(ord("a"), ord("b")), ByteClass.of(ord("c"))]
)


def _trees(depth: int = 3):
    leaf = st.builds(Atom, _small_class)
    if depth == 0:
        return leaf
    sub = _trees(depth - 1)
    return st.one_of(
        leaf,
        st.builds(lambda a, b: Seq((a, b)), sub, sub),
        st.builds(lambda a, b: Alt((a, b)), sub, sub),
        st.builds(
            lambda item, lo, extra, unbounded: Rep(
                item, lo, None if unbounded else max(lo, 1) + extra
            ),
            sub,
            st.integers(0, 2),
            st.integers(0, 2),
            st.booleans(),
        ),
    )


class TestTreeProperties:
    @given(_trees())
    @settings(max_examples=200)
    def test_normalize_idempotent(self, tree):
        once = normalize(tree)
        assert normalize(once) == once

    @given(_trees())
    @settings(max_examples=200)
    def test_reverse_is_involution(self, tree):
        assert reverse_tree(reverse_tree(tree)) == tree

    @given(_trees(2), st.binary(max_size=5).map(lambda b: bytes(x % 3 + ord("a") for x in b)))
    @settings(max_examples=300)
    def test_reverse_language(self, tree, data):
        assert accepts(tree, data) == accepts(reverse_tree(tree), data[::-1])

    @given(_trees(2))
    @settings(max_examples=200)
    def test_normalize_preserves_language(self, tree):
        norm = normalize(tree)
        for s in enumerate_strings(b"ab", 4):
            assert accepts(tree, s) == accepts(norm, s)

    @given(_trees(2))
    @settings(max_examples=100)
    def test_render_reparse_language(self, tree):
        rendered = render(normalize(tree))
        reparsed = parse(rendered).tree
        for s in enumerate_strings(b"abc", 3):
            assert accepts(tree, s) == accepts(reparsed, s)


class TestRulesetLoading:
    def test_search_semantics_with_anchors(self):
        rule = parse("^ab")
        assert search_ends(rule, b"abab") == {1}
        rule = parse("ab$")
        assert search_ends(rule, b"abab") == {3}
        rule = parse("ab")
        assert search_ends(rule, b"abab") == {1, 3}
