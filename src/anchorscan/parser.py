"""Pattern parsing into byte-class trees.

Supported syntax: literals, `\\xHH`/`\\d`/`\\s`/`\\w` (and negations) and
literal escapes, `.` (all 256 bytes), `[...]`/`[^...]` classes with ranges,
`(...)`/`(?:...)` grouping, `|`, the quantifiers `* + ? {m} {m,} {m,n}`, and
`^`/`$` anchors at the pattern edges. Everything is byte-oriented: a pattern
character with codepoint <= 0xFF denotes that byte value.

Out of scope and rejected with UnsupportedConstructError: backreferences,
lookaround, anchors in the interior, word boundaries, option flags. A lone
`?` after a quantifier (non-greedy marker) is accepted and ignored; laziness
does not change the matched language.
"""
from __future__ import annotations

from dataclasses import dataclass

from .chars import DIGIT, DOT, SPACE, WORD, ByteClass

# --- tree nodes -------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    """Leaf node: one byte drawn from a ByteClass."""

    cls: ByteClass


@dataclass(frozen=True)
class Seq:
    parts: tuple["Node", ...]


@dataclass(frozen=True)
class Alt:
    options: tuple["Node", ...]


@dataclass(frozen=True)
class Rep:
    """Repetition of `item` between `lo` and `hi` times; hi=None means unbounded."""

    item: "Node"
    lo: int
    hi: int | None


Node = Atom | Seq | Alt | Rep


@dataclass(frozen=True)
class Rule:
    rule_id: int
    source: str
    tree: Node
    anchored_start: bool = False
    anchored_end: bool = False


class PatternError(ValueError):
    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PatternSyntaxError(PatternError):
    pass


class UnsupportedConstructError(PatternError):
    pass


# --- parsing ----------------------------------------------------------------

_ESCAPE_CLASSES = {
    "d": DIGIT,
    "D": DIGIT.negate(),
    "s": SPACE,
    "S": SPACE.negate(),
    "w": WORD,
    "W": WORD.negate(),
}
_ESCAPE_BYTES = {"n": 0x0A, "r": 0x0D, "t": 0x09, "f": 0x0C, "v": 0x0B, "a": 0x07, "e": 0x1B}
_HEX = "0123456789abcdefABCDEF"


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str) -> PatternSyntaxError:
        return PatternSyntaxError(msg, self.pos)

    def unsupported(self, msg: str) -> UnsupportedConstructError:
        return UnsupportedConstructError(msg, self.pos)

    def peek(self) -> str | None:
        return self.text[self.pos] if self.pos < len(self.text) else None

    def take(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        return ch

    # alternation level
    def parse_alt(self) -> Node:
        branches = [self.parse_seq()]
        while self.peek() == "|":
            self.take()
            branches.append(self.parse_seq())
        if len(branches) == 1:
            return branches[0]
        return Alt(tuple(branches))

    def parse_seq(self) -> Node:
        parts: list[Node] = []
        while True:
            ch = self.peek()
            if ch is None or ch in "|)":
                break
            parts.append(self.parse_repeat())
        if not parts:
            raise self.error("empty branch")
        if len(parts) == 1:
            return parts[0]
        return Seq(tuple(parts))

    def parse_repeat(self) -> Node:
        node = self.parse_atom()
        seen_quant = False
        while True:
            ch = self.peek()
            if ch == "*":
                self._check_chain(seen_quant)
                self.take()
                node = Rep(node, 0, None)
                seen_quant = True
            elif ch == "+":
                self._check_chain(seen_quant)
                self.take()
                node = Rep(node, 1, None)
                seen_quant = True
            elif ch == "?":
                if seen_quant:
                    self.take()  # non-greedy marker; language-neutral
                    seen_quant = False
                    continue
                self.take()
                node = Rep(node, 0, 1)
                seen_quant = True
            elif ch == "{":
                self._check_chain(seen_quant)
                node = self._parse_counted(node)
                seen_quant = True
            else:
                break
        return node

    def _check_chain(self, seen: bool) -> None:
        if seen:
            raise self.error("chained quantifier")

    def _parse_counted(self, node: Node) -> Node:
        start = self.pos
        self.take()  # {
        lo = self._parse_int()
        hi: int | None
        if self.peek() == ",":
            self.take()
            if self.peek() == "}":
                hi = None
            else:
                hi = self._parse_int()
        else:
            hi = lo
        if self.peek() != "}":
            self.pos = start
            raise self.error("malformed counted repetition")
        self.take()
        if hi is not None and hi < lo:
            self.pos = start
            raise self.error("counted repetition with max < min")
        if hi == 0:
            self.pos = start
            raise self.error("zero-length repetition")
        return Rep(node, lo, hi)

    def _parse_int(self) -> int:
        digits = ""
        while (ch := self.peek()) is not None and ch.isdigit():
            digits += self.take()
        if not digits:
            raise self.error("expected number in counted repetition")
        return int(digits)

    def parse_atom(self) -> Node:
        ch = self.peek()
        if ch is None:
            raise self.error("unexpected end of pattern")
        if ch in "*+?{":
            raise self.error(f"quantifier {ch!r} with nothing to repeat")
        if ch == "^" or ch == "$":
            raise self.unsupported("anchor in pattern interior")
        if ch == "(":
            return self._parse_group()
        if ch == "[":
            return Atom(self._parse_class())
        if ch == ".":
            self.take()
            return Atom(DOT)
        if ch == "\\":
            return Atom(self._parse_escape(in_class=False))
        self.take()
        code = ord(ch)
        if code > 0xFF:
            raise self.error(f"non-byte character {ch!r}; use \\xHH escapes")
        return Atom(ByteClass.of(code))

    def _parse_group(self) -> Node:
        self.take()  # (
        if self.peek() == "?":
            self.take()
            nxt = self.peek()
            if nxt == ":":
                self.take()
            elif nxt in ("=", "!", "<"):
                raise self.unsupported("lookaround")
            else:
                raise self.unsupported("inline option flags")
        inner = self.parse_alt()
        if self.peek() != ")":
            raise self.error("unbalanced parenthesis")
        self.take()
        return inner

    def _parse_escape(self, in_class: bool) -> ByteClass:
        self.take()  # backslash
        ch = self.peek()
        if ch is None:
            raise self.error("dangling backslash")
        if ch in _ESCAPE_CLASSES:
            self.take()
            return _ESCAPE_CLASSES[ch]
        if ch in _ESCAPE_BYTES:
            self.take()
            return ByteClass.of(_ESCAPE_BYTES[ch])
        if ch == "x":
            self.take()
            if (
                self.pos + 1 >= len(self.text)
                or self.text[self.pos] not in _HEX
                or self.text[self.pos + 1] not in _HEX
            ):
                raise self.error("\\x escape needs two hex digits")
            value = int(self.text[self.pos : self.pos + 2], 16)
            self.pos += 2
            return ByteClass.of(value)
        if ch.isdigit():
            raise self.unsupported("backreference / octal escape")
        if ch in "bBAZzGQEK" or (ch.isalpha() and ch not in _ESCAPE_BYTES):
            raise self.unsupported(f"escape \\{ch}")
        self.take()
        code = ord(ch)
        if code > 0xFF:
            raise self.error(f"non-byte character {ch!r} in escape")
        return ByteClass.of(code)

    def _parse_class(self) -> ByteClass:
        start = self.pos
        self.take()  # [
        negate = False
        if self.peek() == "^":
            negate = True
            self.take()
        mask = 0
        first = True
        while True:
            ch = self.peek()
            if ch is None:
                self.pos = start
                raise self.error("unterminated character class")
            if ch == "]" and not first:
                self.take()
                break
            first = False
            lo_cls = self._class_element()
            if self.peek() == "-" and self.pos + 1 < len(self.text) and self.text[self.pos + 1] != "]":
                self.take()
                lo = lo_cls.single()
                if lo is None:
                    raise self.error("range bound must be a single byte")
                hi_cls = self._class_element()
                hi = hi_cls.single()
                if hi is None:
                    raise self.error("range bound must be a single byte")
                if hi < lo:
                    raise self.error("reversed range in character class")
                mask |= ByteClass.from_ranges((lo, hi)).mask
            else:
                mask |= lo_cls.mask
        if negate:
            mask ^= (1 << 256) - 1
        if mask == 0:
            self.pos = start
            raise self.error("empty character class")
        return ByteClass(mask)

    def _class_element(self) -> ByteClass:
        ch = self.peek()
        if ch == "\\":
            return self._parse_escape(in_class=True)
        self.take()
        code = ord(ch)
        if code > 0xFF:
            raise self.error(f"non-byte character {ch!r} in class")
        return ByteClass.of(code)


def _strip_anchors(text: str) -> tuple[str, bool, bool]:
    anchored_start = text.startswith("^")
    if anchored_start:
        text = text[1:]
    anchored_end = False
    if text.endswith("$"):
        backslashes = 0
        i = len(text) - 2
        while i >= 0 and text[i] == "\\":
            backslashes += 1
            i -= 1
        if backslashes % 2 == 0:
            anchored_end = True
            text = text[:-1]
    return text, anchored_start, anchored_end


def parse(pattern: str, rule_id: int = 0) -> Rule:
    """Parse one pattern into a Rule with a normalized tree.

    Raises PatternSyntaxError for malformed input and
    UnsupportedConstructError for syntax outside the supported subset.
    """
    body, a_start, a_end = _strip_anchors(pattern)
    if not body:
        raise PatternSyntaxError("empty pattern")
    p = _Parser(body)
    tree = p.parse_alt()
    if p.pos != len(body):
        raise p.error("unbalanced parenthesis" if p.peek() == ")" else "trailing garbage")
    return Rule(rule_id, pattern, normalize(tree), a_start, a_end)


# --- normalization and structural helpers ------------------------------------


def normalize(node: Node) -> Node:
    """Canonical form: no nested Seq-in-Seq / Alt-in-Alt, no single-child
    Seq/Alt, no {1,1} repetitions. Idempotent."""
    if isinstance(node, Atom):
        return node
    if isinstance(node, Seq):
        parts: list[Node] = []
        for child in node.parts:
            child = normalize(child)
            if isinstance(child, Seq):
                parts.extend(child.parts)
            else:
                parts.append(child)
        if len(parts) == 1:
            return parts[0]
        return Seq(tuple(parts))
    if isinstance(node, Alt):
        options: list[Node] = []
        for child in node.options:
            child = normalize(child)
            if isinstance(child, Alt):
                options.extend(child.options)
            else:
                options.append(child)
        if len(options) == 1:
            return options[0]
        return Alt(tuple(options))
    if isinstance(node, Rep):
        item = normalize(node.item)
        if node.lo == 1 and node.hi == 1:
            return item
        return Rep(item, node.lo, node.hi)
    raise TypeError(f"unknown node {node!r}")


def reverse_tree(node: Node) -> Node:
    """Mirror a tree so it accepts exactly the byte-reversed strings."""
    if isinstance(node, Atom):
        return node
    if isinstance(node, Seq):
        return Seq(tuple(reverse_tree(p) for p in reversed(node.parts)))
    if isinstance(node, Alt):
        return Alt(tuple(reverse_tree(o) for o in node.options))
    if isinstance(node, Rep):
        return Rep(reverse_tree(node.item), node.lo, node.hi)
    raise TypeError(f"unknown node {node!r}")


def render(node: Node) -> str:
    """Best-effort pattern text for a tree. No report or repr uses it; the
    tests state a decomposition's pieces with it."""
    if isinstance(node, Atom):
        return _render_class(node.cls)
    if isinstance(node, Seq):
        return "".join(_render_grouped(p, in_seq=True) for p in node.parts)
    if isinstance(node, Alt):
        return "|".join(render(o) for o in node.options)
    if isinstance(node, Rep):
        body = render(node.item)
        if isinstance(node.item, (Alt, Seq, Rep)):
            body = f"({body})"
        if node.lo == 0 and node.hi is None:
            return body + "*"
        if node.lo == 1 and node.hi is None:
            return body + "+"
        if node.lo == 0 and node.hi == 1:
            return body + "?"
        if node.hi is None:
            return f"{body}{{{node.lo},}}"
        if node.lo == node.hi:
            return f"{body}{{{node.lo}}}"
        return f"{body}{{{node.lo},{node.hi}}}"
    raise TypeError(f"unknown node {node!r}")


def _render_grouped(node: Node, in_seq: bool) -> str:
    text = render(node)
    if isinstance(node, (Alt, Seq)) and in_seq:
        return f"({text})"
    return text


_PLAIN = set(range(0x21, 0x7F)) - set(map(ord, r"\^$.[]|()*+?{}-/"))


def _render_byte(b: int) -> str:
    if b in _PLAIN:
        return chr(b)
    return f"\\x{b:02x}"


def _render_members(members: list[int]) -> str:
    spans: list[tuple[int, int]] = []
    for b in members:
        if spans and b == spans[-1][1] + 1:
            spans[-1] = (spans[-1][0], b)
        else:
            spans.append((b, b))
    out = []
    for lo, hi in spans:
        if hi - lo >= 2:
            out.append(f"{_render_byte(lo)}-{_render_byte(hi)}")
        else:
            out.extend(_render_byte(b) for b in range(lo, hi + 1))
    return "".join(out)


def _render_class(cls: ByteClass) -> str:
    if cls.mask == DOT.mask:
        return "."
    single = cls.single()
    if single is not None:
        return _render_byte(single)
    if cls.population > 128:
        return f"[^{_render_members(cls.negate().members())}]"
    return f"[{_render_members(cls.members())}]"
