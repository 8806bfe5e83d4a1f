"""Rule decomposition.

A rule is cut at its *gap components*: repetitions over near-universal byte
classes whose bound is large or absent (dot-star and friends). What remains
between the cuts are *bounded fragments*, the parts worth matching with
automata. Each bounded fragment then yields one *filter key* per alternative:
a fixed-length window of byte classes, rare enough under uniform traffic to
gate the whole pipeline, trimmed to a supported length. Fragments that cannot
produce such a key are folded back into the neighboring gaps and checked
during verification instead.

The result is the alternating sequence

    gap[0]  bounded[0]  gap[1]  bounded[1] ... bounded[n-1]  gap[n]

with the two edge gaps optional. Offsets and indices are 0-based throughout;
fragment numbering in reports is 1-based to match the alternating layout.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .chars import ByteClass
from .config import SUPPORTED_KEY_LENGTHS, CompileConfig
from .parser import Alt, Atom, Node, Rep, Rule, Seq, normalize


#: most concrete byte strings one filter key may expand to
MAX_EXPANSION = 1024
#: most alternatives a fragment's alternations may distribute into
ALT_CAP = 64


class UnsupportedRuleError(ValueError):
    """Raised when a rule cannot enter the pipeline; carries a reason code."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class FilterKey:
    """A window of byte classes of supported length, inserted into the filter."""

    classes: tuple[ByteClass, ...]

    @property
    def length(self) -> int:
        return len(self.classes)

    @property
    def expansion(self) -> int:
        n = 1
        for c in self.classes:
            n *= c.population
        return n

    @property
    def probability(self) -> float:
        """Chance that a uniform random window of this length is a member."""
        return self.expansion / 256.0 ** len(self.classes)

    def expand(self) -> list[bytes]:
        """Every concrete byte string the key admits."""
        return [bytes(combo) for combo in product(*(c.members() for c in self.classes))]


@dataclass(frozen=True)
class KeySplit:
    """One alternative of a bounded fragment, cut around its filter key.

    `front` runs from the fragment head through the key's last byte;
    `back` is the remainder (None when the key ends the fragment).
    """

    key: FilterKey
    front: Node
    back: Node | None


@dataclass(frozen=True)
class BoundedFragment:
    index: int  # 1-based position among bounded fragments
    tree: Node
    splits: tuple[KeySplit, ...]


@dataclass(frozen=True)
class DecomposedRule:
    rule: Rule
    bounded: tuple[BoundedFragment, ...]
    gaps: tuple[Node | None, ...]  # length == len(bounded) + 1

    @property
    def fragment_count(self) -> int:
        return len(self.bounded)


# --- gap component detection --------------------------------------------------


def is_gap_component(node: Node, config: CompileConfig = CompileConfig()) -> bool:
    """True for repetitions over a big byte class with a large or absent bound.

    Unbounded repetitions over classes wider than the population threshold
    (dot-star, "[^\\n]+") always qualify; bounded ones qualify when the upper
    bound exceeds the count threshold.
    """
    if not isinstance(node, Rep) or not isinstance(node.item, Atom):
        return False
    if node.item.cls.population <= config.long_pop_threshold:
        return False
    if node.hi is None:
        return True
    return node.hi > config.long_count_threshold


def _contains_gap_component(node: Node, config: CompileConfig) -> bool:
    if is_gap_component(node, config):
        return True
    if isinstance(node, Atom):
        return False
    if isinstance(node, (Seq, Alt)):
        children = node.parts if isinstance(node, Seq) else node.options
        return any(_contains_gap_component(c, config) for c in children)
    if isinstance(node, Rep):
        return _contains_gap_component(node.item, config)
    return False


def split_rule(rule: Rule, config: CompileConfig = CompileConfig()) -> tuple[list[Node | None], list[Node]]:
    """Cut the rule's top-level concatenation at gap components.

    Returns (gaps, bounded) with len(gaps) == len(bounded) + 1; entries of
    `gaps` may be None at the edges. Gap components nested under alternation
    or another repetition are unsupported, as are rules that are all gap.
    """
    parts = rule.tree.parts if isinstance(rule.tree, Seq) else (rule.tree,)
    gaps: list[Node | None] = []
    bounded: list[Node] = []
    pending_gap: list[Node] = []
    pending_bounded: list[Node] = []

    def flush_bounded() -> None:
        if pending_bounded:
            gaps.append(_seq_or_none(pending_gap))
            pending_gap.clear()
            bounded.append(_seq_of(pending_bounded))
            pending_bounded.clear()

    for part in parts:
        if is_gap_component(part, config):
            flush_bounded()
            pending_gap.append(part)
        else:
            if _contains_gap_component(part, config):
                raise UnsupportedRuleError(
                    "nested-gap-component",
                    f"rule {rule.rule_id}: gap component nested under "
                    "alternation or repetition",
                )
            pending_bounded.append(part)
    flush_bounded()
    gaps.append(_seq_or_none(pending_gap))

    if not bounded:
        raise UnsupportedRuleError(
            "no-filterable-fragment",
            f"rule {rule.rule_id}: nothing left to filter on after removing gap components",
        )
    return gaps, bounded


def _seq_of(parts: list[Node]) -> Node:
    return normalize(Seq(tuple(parts)))


def _seq_or_none(parts: list[Node]) -> Node | None:
    if not parts:
        return None
    return _seq_of(parts)


# --- key extraction -----------------------------------------------------------

# A linearized alternative is a list of items; runs of consecutive class cells
# (single atoms, fixed-count class repetitions unrolled) are where key windows
# live. `_Cell` ties each run position back to the item it came from.


@dataclass(frozen=True)
class _Cell:
    item_idx: int
    offset: int  # 0-based cell index within a fixed-count repetition
    cls: ByteClass


def _linearize(node: Node, cap: int) -> list[list[Node]] | None:
    """Distribute alternations into per-alternative item lists.

    Repetitions stay opaque (they either form runs when fixed-count over a
    class, or break runs). Returns None when the alternative count would
    exceed `cap`.
    """
    if isinstance(node, (Atom, Rep)):
        return [[node]]
    if isinstance(node, Seq):
        result: list[list[Node]] = [[]]
        for child in node.parts:
            sub = _linearize(child, cap)
            if sub is None or len(result) * len(sub) > cap:
                return None
            result = [r + s for r in result for s in sub]
        return result
    if isinstance(node, Alt):
        out: list[list[Node]] = []
        for option in node.options:
            sub = _linearize(option, cap)
            if sub is None:
                return None
            out.extend(sub)
            if len(out) > cap:
                return None
        return out
    raise TypeError(node)


def _runs(items: list[Node]) -> list[list[_Cell]]:
    """Maximal runs of class cells in item order."""
    runs: list[list[_Cell]] = []
    current: list[_Cell] = []
    for idx, item in enumerate(items):
        if isinstance(item, Atom):
            current.append(_Cell(idx, 0, item.cls))
        elif isinstance(item, Rep) and isinstance(item.item, Atom) and item.hi == item.lo:
            current.extend(_Cell(idx, off, item.item.cls) for off in range(item.lo))
        else:
            if current:
                runs.append(current)
                current = []
    if current:
        runs.append(current)
    return runs


def _window_sort_key(cells: list[_Cell], position: int, max_len: int) -> tuple[int, int, int]:
    # lowest probability first, then longer, then leftmost. A window's
    # probability is expansion / 256**len; over the common denominator
    # 256**max_len its numerator is an exact int, and ints compare at C speed.
    expansion = 1
    for c in cells:
        expansion *= c.cls.population
    return expansion << 8 * (max_len - len(cells)), -len(cells), position


def pick_filter_key(
    fragment: Node, config: CompileConfig = CompileConfig()
) -> list[KeySplit] | None:
    """Extract one KeySplit per alternative of a bounded fragment.

    Candidate windows (length 2..max_key_len) inside class runs are ranked by
    match probability; the best is trimmed to the nearest not-greater length
    in {2,4,8}, keeping the lowest-probability sub-window (rightmost on ties,
    which drags the front part as far right as possible). Candidates whose
    trimmed window exceeds the expansion cap or misses the probability
    threshold are passed over for the next one. Returns None when the
    fragment is unfriendly: no candidate qualifies in some alternative, or
    alternation distribution exceeds the cap.
    """
    alternatives = _linearize(fragment, ALT_CAP)
    if alternatives is None:
        return None
    splits: list[KeySplit] = []
    for items in alternatives:
        split = _pick_for_alternative(items, config)
        if split is None:
            return None
        splits.append(split)
    return splits


def _pick_for_alternative(items: list[Node], config: CompileConfig) -> KeySplit | None:
    candidates: list[tuple[tuple, list[_Cell]]] = []
    max_len = config.max_key_len
    position = 0
    for run in _runs(items):
        for length in range(2, min(max_len, len(run)) + 1):
            for start in range(len(run) - length + 1):
                cells = run[start : start + length]
                candidates.append((_window_sort_key(cells, position + start, max_len), cells))
        position += len(run)
    candidates.sort(key=lambda pair: pair[0])

    for _, cells in candidates:
        window = _trim(cells)
        key = FilterKey(tuple(c.cls for c in window))
        if key.expansion > MAX_EXPANSION:
            continue
        if key.probability >= config.max_key_prob:
            continue
        front, back = _cut_items(items, window[-1])
        return KeySplit(key, front, back)
    return None


def _trim(cells: list[_Cell]) -> list[_Cell]:
    length = max(l for l in SUPPORTED_KEY_LENGTHS if l <= len(cells))
    best: list[_Cell] | None = None
    best_exp = None
    for start in range(len(cells) - length + 1):
        window = cells[start : start + length]
        exp = 1
        for c in window:
            exp *= c.cls.population
        if best_exp is None or exp <= best_exp:  # <= keeps the rightmost tie
            best, best_exp = window, exp
    return best


def _cut_items(items: list[Node], last_cell: _Cell) -> tuple[Node, Node | None]:
    """Split the item list right after the key's final cell."""
    idx, off = last_cell.item_idx, last_cell.offset
    item = items[idx]
    front_items = list(items[:idx])
    back_items: list[Node] = []
    if isinstance(item, Atom):
        front_items.append(item)
    else:  # fixed-count class repetition
        assert isinstance(item, Rep) and isinstance(item.item, Atom)
        front_items.append(Rep(item.item, off + 1, off + 1))
        remainder = item.lo - (off + 1)
        if remainder > 0:
            back_items.append(Rep(item.item, remainder, remainder))
    back_items.extend(items[idx + 1 :])
    front = _seq_of(front_items)
    back = _seq_of(back_items) if back_items else None
    return front, back


# --- the full pipeline ----------------------------------------------------------


def decompose_rule(rule: Rule, config: CompileConfig = CompileConfig()) -> DecomposedRule:
    """split -> extract keys -> fold unfriendly fragments into their gaps.

    An unfriendly fragment merges with both neighboring gaps (the preceding
    one when it exists, else it seeds the leading gap); the merged content is
    checked during verification. Raises UnsupportedRuleError when no bounded
    fragment survives.
    """
    gaps, bounded = split_rule(rule, config)
    picks: list[list[KeySplit] | None] = [pick_filter_key(t, config) for t in bounded]

    while True:
        try:
            i = picks.index(None)
        except ValueError:
            break
        merged_parts = [t for t in (gaps[i], bounded[i], gaps[i + 1]) if t is not None]
        merged = _seq_of(merged_parts)
        bounded.pop(i)
        picks.pop(i)
        gaps[i : i + 2] = [merged]
        if not bounded:
            raise UnsupportedRuleError(
                "no-filterable-fragment",
                f"rule {rule.rule_id}: every fragment is unfriendly to the filter",
            )

    fragments = tuple(
        BoundedFragment(index=i + 1, tree=tree, splits=tuple(split_list))
        for i, (tree, split_list) in enumerate(zip(bounded, picks))
    )
    return DecomposedRule(rule=rule, bounded=fragments, gaps=tuple(gaps))
