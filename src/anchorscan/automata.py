"""NFA/DFA machinery and the anchored-automata builders.

Thompson construction over byte-class trees, subset construction with a
state cap, partition-refinement minimization, and the two scan-side
builders: a reverse DFA over reversed fragment prefixes and a merged
multi-entry forward DFA over fragment suffixes.

Subset construction works over the byte-class partition (distinct
transition behaviors, not raw bytes) and folds the persistent core of the
subset lattice out of the per-move loop: for unanchored pattern sets the
start closure re-arms on every byte, so it is OR-ed in once per class
instead of once per active NFA state. Subsets are tracked as the indices
outside that core, which keeps the classic-DFA explosion probe cheap enough
to count past a million states.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field
from hashlib import blake2b

import numpy as np

from .chars import DOT, ByteClass
from .parser import Alt, Atom, Node, Rep, Seq, reverse_tree

DEAD = 0


class NfaBuildError(Exception):
    """Thompson construction outgrew the configured state budget."""


class StateExplosionError(Exception):
    def __init__(self, cap: int, visited: int):
        self.cap = cap
        self.visited = visited
        super().__init__(
            f"subset construction exceeded the {cap}-state cap ({visited} subsets visited)"
        )


# --- Thompson construction --------------------------------------------------


class Nfa:
    """Byte-class NFA: per-state class transitions plus epsilon edges."""

    __slots__ = ("n", "trans", "eps", "start", "accepts", "entries")

    def __init__(self) -> None:
        self.n = 0
        self.trans: list[list[tuple[int, int]]] = []  # (class mask int, target)
        self.eps: list[list[int]] = []
        self.start = 0
        self.accepts: dict[int, frozenset[int]] = {}
        self.entries: list[int] = []  # per-pattern sub-NFA entry states


class _Builder:
    def __init__(self, cap: int):
        self.nfa = Nfa()
        self.cap = cap

    def new_state(self) -> int:
        nfa = self.nfa
        if nfa.n >= self.cap:
            raise NfaBuildError(f"pattern set needs more than {self.cap} NFA states")
        nfa.trans.append([])
        nfa.eps.append([])
        nfa.n += 1
        return nfa.n - 1

    def emit(self, node: Node, entry: int) -> int:
        if isinstance(node, Atom):
            t = self.new_state()
            self.nfa.trans[entry].append((node.cls.mask, t))
            return t
        if isinstance(node, Seq):
            for part in node.parts:
                entry = self.emit(part, entry)
            return entry
        if isinstance(node, Alt):
            join = self.new_state()
            for opt in node.options:
                self.nfa.eps[self.emit(opt, entry)].append(join)
            return join
        if isinstance(node, Rep):
            cur = entry
            for _ in range(node.lo):
                cur = self.emit(node.item, cur)
            if node.hi is None:
                # the loop lives on a private hub so iterations cannot
                # re-enter a shared entry state and re-fire sibling branches
                hub = self.new_state()
                self.nfa.eps[cur].append(hub)
                back = self.emit(node.item, hub)
                self.nfa.eps[back].append(hub)
                return hub
            ends = [cur]
            for _ in range(node.hi - node.lo):
                cur = self.emit(node.item, cur)
                ends.append(cur)
            join = self.new_state()
            for e in ends:
                self.nfa.eps[e].append(join)
            return join
        raise TypeError(f"unknown node {node!r}")


_DOTSTAR = Rep(Atom(DOT), 0, None)


def thompson(
    trees: list[Node],
    labels: list[frozenset[int]] | None = None,
    *,
    unanchored: bool = False,
    state_cap: int = 1_000_000,
) -> Nfa:
    """One NFA over all trees; a fresh start epsilon-fans to each pattern.

    Accept states carry the pattern's label set (the list index by default).
    `unanchored` prefixes every pattern with an explicit any-byte loop.
    Finite repetitions are unrolled; {m,} becomes m copies plus a loop.
    """
    b = _Builder(state_cap)
    nfa = b.nfa
    nfa.start = b.new_state()
    for i, tree in enumerate(trees):
        if unanchored:
            tree = Seq((_DOTSTAR, tree))
        entry = b.new_state()
        nfa.eps[nfa.start].append(entry)
        nfa.entries.append(entry)
        exit_ = b.emit(tree, entry)
        label = labels[i] if labels is not None else frozenset([i])
        nfa.accepts[exit_] = nfa.accepts.get(exit_, frozenset()) | label
    return nfa


# --- byte classes and closure precomputation --------------------------------


def _byte_classes(nfa: Nfa) -> tuple[np.ndarray, list[int]]:
    """Partition 0..255 by transition behavior.

    Returns (class_of_byte, representative byte per class), classes ordered
    by their smallest member so numbering is input-deterministic.
    """
    masks = sorted({mask for row in nfa.trans for mask, _ in row})
    if not masks:
        return np.zeros(256, dtype=np.int64), [0]
    arr = np.zeros((len(masks), 256), dtype=np.uint8)
    for i, mask in enumerate(masks):
        bits = np.frombuffer(mask.to_bytes(32, "little"), dtype=np.uint8)
        arr[i] = np.unpackbits(bits, bitorder="little")
    _, inverse = np.unique(arr, axis=1, return_inverse=True)
    inverse = inverse.reshape(256)
    firsts: dict[int, int] = {}
    for byte in range(256):
        firsts.setdefault(int(inverse[byte]), byte)
    order = sorted(firsts, key=firsts.get)
    remap = {old: new for new, old in enumerate(order)}
    class_of = np.array([remap[int(c)] for c in inverse], dtype=np.int64)
    reps = [firsts[old] for old in order]
    return class_of, reps


def _eps_closures(nfa: Nfa) -> list[int]:
    """Per-state epsilon closure as a bit mask over NFA states."""
    closures = [0] * nfa.n
    for s in range(nfa.n):
        seen = 1 << s
        stack = [s]
        while stack:
            q = stack.pop()
            for t in nfa.eps[q]:
                bit = 1 << t
                if not seen & bit:
                    seen |= bit
                    stack.append(t)
        closures[s] = seen
    return closures


def _bits(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class _SubsetSpace:
    """Precomputed sparse move structure for subset construction.

    Subsets are int bit masks over NFA states. Each state's class-moves are
    split into a uniform part (transitions covering every byte class, the
    any-byte loops) and per-class exceptions, so a subset move costs one OR
    per active transition instead of one per (state, class) pair.
    """

    def __init__(self, nfa: Nfa):
        self.nfa = nfa
        self.class_of, self.reps = _byte_classes(nfa)
        C = self.n_classes = len(self.reps)
        self.key_len = (nfa.n + 7) // 8
        closures = _eps_closures(nfa)
        self.closures = closures

        covered_cache: dict[int, list[int]] = {}
        self.uniform = [0] * nfa.n
        self.exc: list[list[tuple[int, int]]] = [[] for _ in range(nfa.n)]
        for s in range(nfa.n):
            per_class: dict[int, int] = {}
            for mask, t in nfa.trans[s]:
                covered = covered_cache.get(mask)
                if covered is None:
                    covered = sorted({int(self.class_of[b]) for b in ByteClass(mask).members()})
                    covered_cache[mask] = covered
                ct = closures[t]
                if len(covered) == C:
                    self.uniform[s] |= ct
                else:
                    for c in covered:
                        per_class[c] = per_class.get(c, 0) | ct
            self.exc[s] = sorted(per_class.items())

        # persistent core: the largest subset of the start closure that every
        # class-move regenerates; it is part of every reachable subset
        core = closures[nfa.start]
        while True:
            keep = core
            for move in self._moves_of(core):
                keep &= move
            if keep == core:
                break
            core = keep
        self.core = core
        self.base_move = self._moves_of(core)

        self.accept_items = sorted(nfa.accepts.items())
        self.accept_mask = 0
        for s in nfa.accepts:
            self.accept_mask |= 1 << s

    def disable_core(self) -> None:
        """Fall back to plain subset moves (entry subsets missing the core)."""
        self.core = 0
        self.base_move = [0] * self.n_classes

    def _moves_of(self, subset: int) -> list[int]:
        uni = 0
        acc = [0] * self.n_classes
        for s in _bits(subset):
            uni |= self.uniform[s]
            for c, add in self.exc[s]:
                acc[c] |= add
        return [a | uni for a in acc]

    def successors(self, extra_states: tuple[int, ...]) -> list[int]:
        """Full successor subsets per class for core plus the given states."""
        uni = 0
        acc = list(self.base_move)
        for s in extra_states:
            u = self.uniform[s]
            if u:
                uni |= u
            for c, add in self.exc[s]:
                acc[c] |= add
        if uni:
            acc = [a | uni for a in acc]
        return acc

    def key_of(self, subset: int) -> bytes:
        return subset.to_bytes(self.key_len, "little")

    def labels_of(self, subset: int) -> frozenset[int]:
        if not subset & self.accept_mask:
            return frozenset()
        labels: frozenset[int] = frozenset()
        for state, ids in self.accept_items:
            if (subset >> state) & 1:
                labels |= ids
        return labels


@dataclass
class Dfa:
    """Dense total DFA; state 0 is the absorbing dead state."""

    table: np.ndarray  # (states, 256) uint32
    accepts: tuple[frozenset[int], ...]
    start: int = 1
    entries: dict[int, int] = field(default_factory=dict)

    @property
    def n_states(self) -> int:
        return int(self.table.shape[0])

    def accepting(self, state: int) -> bool:
        return bool(self.accepts[state])

    def run(self, data: bytes, state: int | None = None) -> int:
        s = self.start if state is None else state
        table = self.table
        for byte in data:
            s = int(table[s, byte])
        return s


def determinize(
    nfa: Nfa,
    cap: int = 1_000_000,
    *,
    entry_states: list[int] | None = None,
) -> Dfa:
    """Subset construction; raises StateExplosionError past `cap` subsets.

    State 0 is the dead (empty) subset, state 1 the start subset; discovery
    order is BFS with classes taken in smallest-byte order, so numbering is
    reproducible. `entry_states` adds extra entry subsets (ids in order
    after the start) whose DFA ids land in Dfa.entries by list position.
    """
    space = _SubsetSpace(nfa)
    starts = [nfa.start] + (entry_states or [])
    if any(space.closures[s] & space.core != space.core for s in starts):
        space.disable_core()
    C = space.n_classes
    not_core = ~space.core

    rows: list[list[int]] = [[DEAD] * C]  # dead state row
    labels: list[frozenset[int]] = [frozenset()]
    seen: dict[bytes, int] = {space.key_of(0): DEAD}
    queue: list[tuple[int, ...]] = [()]  # non-core state indices per subset

    entry_ids: list[int] = []
    for s in starts:
        subset = space.closures[s]
        key = space.key_of(subset)
        sid = seen.get(key)
        if sid is None:
            sid = len(rows)
            seen[key] = sid
            rows.append([DEAD] * C)
            labels.append(space.labels_of(subset))
            queue.append(_bits(subset & not_core))
        entry_ids.append(sid)

    pos = 1
    while pos < len(queue):
        sid = pos
        succ = space.successors(queue[pos])
        pos += 1
        row = rows[sid]
        for c in range(C):
            subset = succ[c]
            key = space.key_of(subset)
            nid = seen.get(key)
            if nid is None:
                nid = len(rows)
                if nid > cap:
                    raise StateExplosionError(cap, nid)
                seen[key] = nid
                rows.append([DEAD] * C)
                labels.append(space.labels_of(subset))
                queue.append(_bits(subset & not_core))
            row[c] = nid
    del seen, queue

    class_table = np.array(rows, dtype=np.uint32)
    table = class_table[:, space.class_of]
    entries = {i: entry_ids[1 + i] for i in range(len(entry_states or []))}
    return Dfa(table=table, accepts=tuple(labels), start=entry_ids[0], entries=entries)


def subset_state_count(nfa: Nfa, cap: int = 1_000_000) -> int:
    """Count reachable subsets without materializing a table.

    Memory-bounded: subsets are deduplicated by 128-bit digests and queued
    as sparse index arrays. Raises StateExplosionError past `cap`.
    """
    space = _SubsetSpace(nfa)
    not_core = ~space.core
    key_len = space.key_len
    # frontier entries are packed indices and subsets are deduplicated by
    # 64-bit digests, keeping a million-state probe in the 100 MB range
    idx_width = "H" if nfa.n <= 0xFFFF else "I"

    def digest(subset: int) -> int:
        raw = blake2b(subset.to_bytes(key_len, "little"), digest_size=8).digest()
        return int.from_bytes(raw, "little")

    def pack(subset: int) -> bytes:
        ids = _bits(subset & not_core)
        return struct.pack(f"<{len(ids)}{idx_width}", *ids)

    start_subset = space.closures[nfa.start]
    seen = {digest(start_subset)}
    queue: list[bytes | None] = [pack(start_subset)]
    count = 1

    pos = 0
    while pos < len(queue):
        entry = queue[pos]
        queue[pos] = None  # expanded subsets are never revisited
        pos += 1
        succ = space.successors(memoryview(entry).cast(idx_width))
        for subset in succ:
            d = digest(subset)
            if d not in seen:
                seen.add(d)
                count += 1
                if count > cap:
                    raise StateExplosionError(cap, count)
                queue.append(pack(subset))
    return count


def classic_state_count(trees: list[Node], cap: int = 1_000_000) -> int:
    """Reachable-subset count of the classic combined DFA.

    The baseline prefixes every pattern with an explicit any-byte loop
    (patterns in rule files are implicitly unanchored) and determinizes the
    union NFA. The count includes the dead state when reachable.
    """
    nfa = thompson(trees, unanchored=True)
    return subset_state_count(nfa, cap)


# --- minimization -----------------------------------------------------------


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque void scalar per row, so `np.unique` sorts whole rows with
    a single byte-wise comparison instead of field by field."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


def minimize(dfa: Dfa) -> Dfa:
    """Partition-refinement (Moore) minimization preserving accept label sets.

    Bytes whose columns are equal in every state act alike, so refinement
    reads one column per distinct column, kept in order of its first byte.
    Initial blocks group states by label set. Each round gives every state
    the signature (its block, its successors' blocks) and splits blocks by
    exact signature equality, until a round splits nothing; the result is
    the coarsest stable partition, which does not depend on how blocks are
    numbered along the way. The blocks are then renumbered by BFS over
    bytes from the start (entries next) with the dead block pinned at 0,
    so the output is the same whatever ids the refinement assigned.
    """
    table = dfa.table
    n = table.shape[0]
    _, first_byte = np.unique(_row_keys(table.T), return_index=True)
    reduced = table[:, np.sort(first_byte)]

    label_keys: dict[frozenset[int], int] = {}
    block_of = np.array([label_keys.setdefault(a, len(label_keys)) for a in dfa.accepts], dtype=np.int32)
    n_blocks = len(label_keys)
    sig = np.empty((n, 1 + reduced.shape[1]), dtype=np.int32)
    while True:
        sig[:, 0] = block_of
        sig[:, 1:] = block_of[reduced]
        _, new_ids = np.unique(_row_keys(sig), return_inverse=True)
        new_count = int(new_ids.max()) + 1
        if new_count == n_blocks:
            break
        block_of = new_ids.astype(np.int32)
        n_blocks = new_count

    # one member per block stands for it; reading its successors off the
    # reduced columns in first-byte order meets each one in the same order
    # as reading all 256 bytes would
    _, first_state = np.unique(block_of, return_index=True)
    succ = block_of[reduced[first_state]].tolist()

    # renumber: dead first, then start/entries, then BFS over bytes; a
    # block is numbered when first dequeued, which is its first discovery
    seen = [False] * n_blocks
    order = [int(block_of[DEAD])]
    seen[order[0]] = True
    queue = [int(block_of[dfa.start])]
    queue += [int(block_of[e]) for e in dfa.entries.values()]
    qpos = 0
    while qpos < len(queue):
        b = queue[qpos]
        qpos += 1
        if seen[b]:
            continue
        seen[b] = True
        order.append(b)
        queue.extend(succ[b])
    renum = np.zeros(n_blocks, dtype=np.uint32)
    renum[order] = np.arange(len(order), dtype=np.uint32)

    members = first_state[order]
    return Dfa(
        table=renum[block_of[table[members]]],
        accepts=tuple(dfa.accepts[s] for s in members.tolist()),
        start=int(renum[block_of[dfa.start]]),
        entries={k: int(renum[block_of[v]]) for k, v in dfa.entries.items()},
    )


# --- scan-side builders ------------------------------------------------------


def build_reverse_dfa(
    fragments: list[tuple[int, Node]],
    state_cap: int = 1_000_000,
) -> Dfa:
    """Minimized DFA over the reversed fragment prefixes.

    Takes (fragment id, prefix tree) pairs; the automaton consumes prefix
    bytes in reverse order, so a scan can run it backwards from a filter
    hit. Accept labels are the fragment ids.
    """
    trees = [reverse_tree(tree) for _, tree in fragments]
    labels = [frozenset([fid]) for fid, _ in fragments]
    if not trees:
        return Dfa(table=np.zeros((1, 256), dtype=np.uint32), accepts=(frozenset(),), start=0)
    nfa = thompson(trees, labels, state_cap=state_cap)
    return minimize(determinize(nfa, cap=state_cap))


def build_forward_dfa(
    fragments: list[tuple[int, Node]],
    state_cap: int = 1_000_000,
) -> Dfa:
    """Merged multi-entry DFA over the fragment suffixes.

    Structurally identical suffix trees share one sub-automaton whose
    accepts carry every owning fragment id; Dfa.entries maps each fragment
    id to its entry state.
    """
    if not fragments:
        return Dfa(table=np.zeros((1, 256), dtype=np.uint32), accepts=(frozenset(),), start=0)
    distinct: dict[Node, int] = {}
    owners: list[set[int]] = []
    entry_slot: dict[int, int] = {}
    for fid, tree in fragments:
        slot = distinct.get(tree)
        if slot is None:
            slot = len(owners)
            distinct[tree] = slot
            owners.append(set())
        owners[slot].add(fid)
        entry_slot[fid] = slot

    trees = list(distinct)
    labels = [frozenset(o) for o in owners]
    nfa = thompson(trees, labels, state_cap=state_cap)
    dfa = determinize(nfa, cap=state_cap, entry_states=nfa.entries)
    dfa = minimize(dfa)
    dfa.entries = {fid: dfa.entries[slot] for fid, slot in entry_slot.items()}
    return dfa
