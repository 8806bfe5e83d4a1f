"""Seed-deterministic synthetic rules and traffic.

Everything here exists so experiments and differential tests are
reproducible from a single integer seed: the dotstar rule family whose
classic DFA blows up combinatorially, rule sets that exercise every gap
kind, and packet corpora with planted matches.
"""
from __future__ import annotations

import math
import random

from .config import CompileConfig
from .decompose import UnsupportedRuleError, decompose_rule
from .parser import Alt, Atom, Node, Rep, Seq, parse

_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
#: the largest dotstar family whose pair alphabet, about sqrt(2k) + 1
#: bytes, fits in `_ALPHABET`
DOTSTAR_MAX_K = (len(_ALPHABET) - 1) ** 2 // 2


def dotstar_family(k: int) -> list[str]:
    """k rules of the form XY.*ZW over a compact alphabet.

    The pair alphabet is sized just past sqrt(2k) so the 2k two-byte
    prefixes stay distinct while sharing single bytes heavily; the sharing
    is what makes the combined unanchored determinization explode while
    each anchored automaton stays tiny.
    """
    if not 1 <= k <= DOTSTAR_MAX_K:
        raise ValueError(f"k must be from 1 to {DOTSTAR_MAX_K}, got {k}")
    b = math.isqrt(2 * k - 1) + 1 + 1  # ceil(sqrt(2k)) + 1
    pairs = [(_ALPHABET[i // b], _ALPHABET[i % b]) for i in range(2 * k)]
    rules = []
    for i in range(k):
        (a1, a2), (b1, b2) = pairs[2 * i], pairs[2 * i + 1]
        rules.append(f"{a1}{a2}.*{b1}{b2}")
    return rules


def _word(rng: random.Random, lo: int = 2, hi: int = 6) -> str:
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(lo, hi)))


def diff_ruleset(count: int, seed: int = 0xD1FF) -> list[str]:
    """Rules spanning every supported construct, all compile-checked."""
    rng = random.Random(seed)
    config = CompileConfig()

    def candidates():
        w = lambda: _word(rng)
        c = lambda: rng.choice("abcdefghijklmnopqrstuvwxyz")
        while True:
            m = rng.randint(0, 4)
            n = m + rng.randint(1, 30)
            glo = rng.randint(55, 80)
            ghi = glo + rng.randint(10, 150)
            yield rng.choice(
                [
                    lambda: w(),
                    lambda: f"{w()}.*{w()}",
                    lambda: f"{w()}.{{{m},{n}}}{w()}",
                    lambda: f"{w()}.{{{m},}}{w()}",
                    lambda: f"{w()}[^{c()}]{{{glo},{ghi}}}{w()}",
                    lambda: f"{w()}[0-9]{{1,6}}",
                    lambda: f"({w()}|{w()}){w()}",
                    lambda: f"{w()}(0x|no)[a-f]{{2,4}}",
                    lambda: f"^{w()}.*{w()}",
                    lambda: f"{w()}.*{w()}$",
                    lambda: f"^{w()}{w()}$",
                    lambda: f"{w()}.*{w()}.*{w()}",
                    lambda: f"{w()}\\s{w()}",
                    lambda: f"{w()}.*({c()}|{c()}{c()}).*{w()}",
                    lambda: f"{w()}[0-9]{{2}}\\.[0-9]{{2}}",
                ]
            )()

    rules: list[str] = []
    for pattern in candidates():
        if len(rules) == count:
            break
        try:
            decompose_rule(parse(pattern, 0), config)
        except UnsupportedRuleError:
            continue
        rules.append(pattern)
    return rules


def filter_stress_ruleset(n_rules: int = 25, seed: int = 0x51) -> list[str]:
    """Literal-keyed dotstar rules whose keys land only in the exact
    two-byte table and the eight-byte xor unit, keeping the false-hit
    budget of the whole bank at its floor."""
    rng = random.Random(seed)
    rules = []
    seen: set[str] = set()
    while len(rules) < n_rules:
        head = _word(rng, 2, 2)
        tail = _word(rng, 8, 8)
        if head in seen or tail in seen:
            continue
        seen.add(head)
        seen.add(tail)
        rules.append(f"{head}.*{tail}")
    return rules


def sample_match(node: Node, rng: random.Random, rep_slack: int = 3) -> bytes:
    """One byte string the tree accepts, unbounded repetitions kept short."""
    if isinstance(node, Atom):
        return bytes([rng.choice(node.cls.members())])
    if isinstance(node, Seq):
        return b"".join(sample_match(p, rng, rep_slack) for p in node.parts)
    if isinstance(node, Alt):
        return sample_match(rng.choice(node.options), rng, rep_slack)
    if isinstance(node, Rep):
        hi = node.lo + rep_slack if node.hi is None else min(node.hi, node.lo + rep_slack)
        n = rng.randint(node.lo, hi)
        return b"".join(sample_match(node.item, rng, rep_slack) for _ in range(n))
    raise TypeError(f"unexpected node {node!r}")


def diff_packets(
    patterns: list[str],
    count: int,
    seed: int = 0xBEEF,
    max_len: int = 200,
) -> list[bytes]:
    """Packets mixing noise, planted matches, and near-miss mutations."""
    rng = random.Random(seed)
    trees = [parse(p, i) for i, p in enumerate(patterns)]
    alphabet = b"abcdefghijklmnopqrstuvwxyz 0123456789.*^$|"
    packets = []
    for _ in range(count):
        body = bytearray(rng.choice(alphabet) for _ in range(rng.randrange(0, max_len)))
        roll = rng.random()
        if roll < 0.55:
            embeds = 2 if roll < 0.15 else 1
            for _ in range(embeds):
                rule = rng.choice(trees)
                planted = bytearray(sample_match(rule.tree, rng))
                if rng.random() < 0.35 and planted:
                    planted[rng.randrange(len(planted))] = rng.choice(alphabet)
                if rule.anchored_start:
                    body[:0] = planted
                elif rule.anchored_end:
                    body.extend(planted)
                else:
                    cut = rng.randrange(0, len(body) + 1)
                    body[cut:cut] = planted
        packets.append(bytes(body))
    return packets


def random_packets(total_bytes: int, packet_len: int = 1500, seed: int = 0x7AFF) -> list[bytes]:
    """Uniform random traffic cut into fixed-size packets."""
    rng = random.Random(seed)
    packets = []
    remaining = total_bytes
    while remaining > 0:
        n = min(packet_len, remaining)
        packets.append(rng.randbytes(n))
        remaining -= n
    return packets
