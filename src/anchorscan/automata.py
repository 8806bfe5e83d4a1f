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

from dataclasses import dataclass, field
from hashlib import blake2b

import numpy as np

from .chars import DOT, ByteClass
from .parser import Alt, Atom, Node, Rep, Seq, reverse_tree

DEAD = 0


class NfaBuildError(Exception):
    """Thompson construction outgrew its state cap."""


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

    def labels_of(self, subset: int) -> frozenset[int]:
        """Union of the label sets of the subset's accepting states."""
        hits = subset & self.accept_mask
        if not hits:
            return frozenset()
        accepts = self.nfa.accepts
        labels: frozenset[int] = frozenset()
        for state in _bits(hits):
            labels |= accepts[state]
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
    not_core = ~space.core

    # subsets are their own dict keys; an int mask hashes at C speed
    rows: list[list[int]] = [[DEAD] * space.n_classes]  # dead state row
    labels: list[frozenset[int]] = [frozenset()]
    seen: dict[int, int] = {0: DEAD}
    queue: list[tuple[int, ...]] = [()]  # non-core state indices per subset

    entry_ids: list[int] = []
    for s in starts:
        subset = space.closures[s]
        sid = seen.get(subset)
        if sid is None:
            sid = len(labels)
            seen[subset] = sid
            labels.append(space.labels_of(subset))
            queue.append(_bits(subset & not_core))
        entry_ids.append(sid)

    # rows are appended in queue order, so rows[sid] is subset sid's row;
    # a row is looked up in one pass, and only its new subsets, numbered in
    # class order, take the per-class loop
    pos = 1
    while pos < len(queue):
        succ = space.successors(queue[pos])
        row = list(map(seen.get, succ))
        if None in row:
            for c, nid in enumerate(row):
                if nid is None:
                    subset = succ[c]
                    nid = seen.get(subset)  # an earlier class may have added it
                    if nid is None:
                        nid = len(labels)
                        if nid > cap:
                            raise StateExplosionError(cap, nid)
                        seen[subset] = nid
                        labels.append(space.labels_of(subset))
                        queue.append(_bits(subset & not_core))
                    row[c] = nid
        rows.append(row)
        pos += 1
    del seen, queue

    class_table = np.array(rows, dtype=np.uint32)
    table = class_table[:, space.class_of]
    entries = {i: entry_ids[1 + i] for i in range(len(entry_states or []))}
    return Dfa(table=table, accepts=tuple(labels), start=entry_ids[0], entries=entries)


def subset_state_count(nfa: Nfa, cap: int = 1_000_000) -> int:
    """Count reachable subsets without materializing a table.

    Subsets are deduplicated by 64-bit blake2b digests, so a collision
    would undercount (about 3e-8 odds at a million subsets), and queued as
    their int masks. A subset's non-core state ids are taken only when it
    is expanded: most subsets found before the cap never are. Raises
    StateExplosionError past `cap`.
    """
    space = _SubsetSpace(nfa)
    not_core = ~space.core
    key_len = (nfa.n + 7) // 8
    # a queued mask costs about nfa.n / 8 bytes: `anchorscan bench --suite
    # statecount --k 300` (2 701 NFA states, capped at 1 000 001 subsets)
    # peaks near 470 MB RSS

    def digest(subset: int) -> int:
        raw = blake2b(subset.to_bytes(key_len, "little"), digest_size=8).digest()
        return int.from_bytes(raw, "little")

    start_subset = space.closures[nfa.start]
    seen = {digest(start_subset)}
    queue: list[int | None] = [start_subset]
    count = 1

    pos = 0
    while pos < len(queue):
        entry = queue[pos]
        queue[pos] = None  # expanded subsets are never revisited
        pos += 1
        for subset in space.successors(_bits(entry & not_core)):
            d = digest(subset)
            if d not in seen:
                seen.add(d)
                count += 1
                if count > cap:
                    raise StateExplosionError(cap, count)
                queue.append(subset)
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
    Initial blocks group states by label set. Each round gives states the
    signature (their block, their successors' blocks) and splits blocks by
    exact signature equality, until a round splits nothing; only states
    whose signature may have changed are signed again. The result is the
    coarsest stable partition, which does not depend on how blocks are
    numbered along the way. The blocks are then renumbered by BFS over
    bytes from the start (entries next) with the dead block pinned at 0,
    so the output is the same whatever ids the refinement assigned.
    """
    table = dfa.table
    n = table.shape[0]
    # one id per distinct column, numbered in order of its first byte; a
    # dict keyed by each column's bytes finds them exactly
    columns = np.ascontiguousarray(table.T)
    column_ids: dict[bytes, int] = {}
    column_of = np.array([column_ids.setdefault(columns[b].tobytes(), len(column_ids)) for b in range(256)])
    reduced = table[:, np.unique(column_of, return_index=True)[1]]

    label_keys: dict[frozenset[int], int] = {}
    block_of = np.array([label_keys.setdefault(a, len(label_keys)) for a in dfa.accepts], dtype=np.int32)
    n_blocks = len(label_keys)
    # A state's signature changes only when a successor moves to a fresh
    # block id. So a round signs only the states with such a successor
    # (`changed`) plus one stand-in for the other members of their blocks
    # (`unchanged`): those shared their old signature and still do. The
    # largest part of a split block keeps its id, so a state moves at most
    # log2(n) times, and the rounds along a long unrolled chain, which
    # splits one link per round, sign a few states instead of all of them.
    targets = reduced.ravel()
    preds = np.argsort(targets, kind="stable") // reduced.shape[1]  # grouped by successor
    preds_start = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(targets, minlength=n), out=preds_start[1:])

    todo = np.arange(n)  # the first n_rep states are the stand-ins
    n_rep = 0
    unchanged = unchanged_blk = stood_for = np.zeros(0, dtype=np.intp)
    while len(todo):
        blk = block_of[todo]
        sig = np.empty((len(todo), 1 + reduced.shape[1]), dtype=np.int32)
        sig[:, 0] = blk
        sig[:, 1:] = block_of[reduced[todo]]
        _, inverse = np.unique(_row_keys(sig), return_inverse=True)
        size = np.bincount(inverse)
        size[inverse[:n_rep]] += stood_for
        sig_blk = np.empty(len(size), dtype=np.int32)
        sig_blk[inverse] = blk
        # each signature lies in one block; the block's largest part keeps
        # its id and the other parts take fresh ids
        by_block = np.lexsort((-size, sig_blk))
        ordered = sig_blk[by_block]
        fresh = np.empty(len(size), dtype=bool)
        fresh[by_block[0]] = False
        fresh[by_block[1:]] = ordered[1:] == ordered[:-1]
        n_fresh = np.count_nonzero(fresh)
        if not n_fresh:
            break
        new_id = sig_blk.copy()
        new_id[fresh] = np.arange(n_blocks, n_blocks + n_fresh, dtype=np.int32)
        block_of[todo] = new_id[inverse]
        follow = np.zeros(n_blocks, dtype=np.int32)  # unchanged members go where their stand-in went
        follow[blk[:n_rep]] = new_id[inverse[:n_rep]]
        follow = follow[unchanged_blk]
        block_of[unchanged] = follow
        n_blocks += n_fresh

        moved = np.concatenate([todo[fresh[inverse]], unchanged[follow != unchanged_blk]])
        lens = preds_start[moved + 1] - preds_start[moved]
        ends = np.cumsum(lens)
        changed = np.zeros(n, dtype=bool)
        changed[preds[np.repeat(preds_start[moved] - ends + lens, lens) + np.arange(ends[-1])]] = True
        dirty = np.zeros(n_blocks, dtype=bool)
        dirty[block_of[changed]] = True
        unchanged = np.flatnonzero(dirty[block_of] & ~changed)
        unchanged_blk = block_of[unchanged]
        stand_in = np.empty(n_blocks, dtype=np.intp)
        stand_in[unchanged_blk] = unchanged  # any member will do
        count = np.bincount(unchanged_blk, minlength=n_blocks)
        rep_blocks = np.flatnonzero(count)
        stood_for = count[rep_blocks] - 1  # members besides the stand-in
        n_rep = len(rep_blocks)
        todo = np.concatenate([stand_in[rep_blocks], np.flatnonzero(changed)])

    # one member per block stands for it; reading its successors off the
    # reduced columns in first-byte order meets each one in the same order
    # as reading all 256 bytes would
    _, first_state = np.unique(block_of, return_index=True)
    succ = block_of[reduced[first_state]]

    # renumber: dead first, then start/entries, then BFS over bytes. A
    # block is numbered at its first discovery, so BFS runs level by
    # level: a level's blocks are the first occurrences of unseen blocks
    # among its parents' successor rows, read in parent order.
    seen = np.zeros(n_blocks, dtype=bool)
    order = [block_of[[DEAD]]]
    seen[order[0]] = True
    level = block_of[[dfa.start, *dfa.entries.values()]]
    while len(level):
        level = level[~seen[level]]
        level = level[np.sort(np.unique(level, return_index=True)[1])]
        seen[level] = True
        order.append(level)
        level = succ[level].ravel()
    order = np.concatenate(order)
    renum = np.zeros(n_blocks, dtype=np.uint32)
    renum[order] = np.arange(len(order), dtype=np.uint32)

    members = first_state[order]
    state_renum = renum[block_of]
    return Dfa(
        table=state_renum[reduced[members]].take(column_of, axis=1),
        accepts=tuple(dfa.accepts[s] for s in members.tolist()),
        start=int(state_renum[dfa.start]),
        entries={k: int(state_renum[v]) for k, v in dfa.entries.items()},
    )


# --- scan-side builders ------------------------------------------------------


def build_reverse_dfa(fragments: list[tuple[int, Node]]) -> Dfa:
    """Minimized DFA over the reversed fragment prefixes.

    Takes (fragment id, prefix tree) pairs; the automaton consumes prefix
    bytes in reverse order, so a scan can run it backwards from a filter
    hit. Accept labels are the fragment ids.
    """
    trees = [reverse_tree(tree) for _, tree in fragments]
    labels = [frozenset([fid]) for fid, _ in fragments]
    if not trees:
        return Dfa(table=np.zeros((1, 256), dtype=np.uint32), accepts=(frozenset(),), start=0)
    return minimize(determinize(thompson(trees, labels)))


def build_forward_dfa(fragments: list[tuple[int, Node]]) -> Dfa:
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
    nfa = thompson(trees, labels)
    dfa = determinize(nfa, entry_states=nfa.entries)
    dfa = minimize(dfa)
    dfa.entries = {fid: dfa.entries[slot] for fid, slot in entry_slot.items()}
    return dfa
