"""Seeded inputs of the benchmark: the `mixed` rule set and three corpora.

The rule set is fixed (its own constant seed), so every workload compiles
the same database and only the traffic varies with `--seed`.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from anchorscan import synth
from anchorscan.parser import Alt, Atom, Rep, Seq, parse

RULES_SEED = 0xD1FF
DIFF_RULES = 176

#: Signature shapes from the paper, covering every gap kind: empty, dot
#: (bounded and unbounded), byte class (leading, interior, trailing; bounded
#: and unbounded), structured DFA gaps, and both edge anchors. Trailing class
#: gaps such as abcd[^\n]{60,} give the known out-of-oracle ends, and bounded
#: class gaps such as ab[^\n]{60,70}cdef are the other known defect shape;
#: they stay in so the benchmark keeps showing them.
PAPER_RULES = (
    r"GET /.*admin",
    r"user=[a-z]{1,8}\.cgi",
    r"^\x02[0-9]{4,}END$",
    r"abcd[^\n]{60,}",
    r"ab[^\n]{60,70}cdef",
    r"Host: [^\r\n]{64,}",
    r"passwd[^\n]{60,90}root",
    r"cmd=[^&]{70,}",
    r"ftp[^\n]{60,80}(put|get)[^\n]{60,}",
    r"[^\n]{60,}xyzzy",
    r"^[^\n]{60,}plugh",
    r"^USER [^\n]{60,}",
    r"alpha[^\n]{55,}$",
    r"mark[^\n]{60,}\n[^\n]{60,}done",
    r"POST /.{0,40}login",
    r"select.{4,}from",
    r"<script.*(alert|eval)\(",
    r"wget .*\.sh",
    r"ab(cd|ef)*gh.*ij",
    r"\.exe$",
    r"union(\s|\+)+select",
    r"(cmd|exec)=[a-z]{2,6};",
    r"id=[0-9]{1,5}(or|and)[0-9]{1,5}=",
    r"xy[a-z]{60,}zw",
    r"\x90\x90\x90\x90\x90\x90\x90\x90",
    r"login=(admin|root)&pw=",
    r"/etc/passwd",
    r"Content-Length: [0-9]{6,}",
    r"^\x16\x03[\x00-\x03].{2}\x01",
)


def mixed_rules() -> list[str]:
    """About 200 rules: the seeded differential set plus the paper shapes."""
    return synth.diff_ruleset(DIFF_RULES, seed=RULES_SEED) + list(PAPER_RULES)


def clean(rules: list[str], seed: int) -> list[bytes]:
    # The paper's happy path: uniform random 1500-byte packets, where the
    # filter bank should reject nearly everything.
    return synth.random_packets(1_800_000, packet_len=1500, seed=seed)


def planted(rules: list[str], seed: int) -> list[bytes]:
    # Small packets (0-200 bytes), about 55% carrying planted or mutated
    # matches: exposes the fixed per-packet cost and exercises every rule.
    return synth.diff_packets(rules, 7200, seed=seed)


def _plant(node, rng: random.Random, members: dict) -> bytes:
    """Like synth.sample_match, with byte-class members cached and runs of
    one class drawn at once; sample_match takes seconds for this corpus."""
    if isinstance(node, Atom):
        return bytes((rng.choice(_members(node, members)),))
    if isinstance(node, Seq):
        return b"".join(_plant(p, rng, members) for p in node.parts)
    if isinstance(node, Alt):
        return _plant(rng.choice(node.options), rng, members)
    if isinstance(node, Rep):
        n = rng.randint(node.lo, node.lo + 3 if node.hi is None else min(node.hi, node.lo + 3))
        if isinstance(node.item, Atom):
            return bytes(rng.choices(_members(node.item, members), k=n))
        return b"".join(_plant(node.item, rng, members) for _ in range(n))
    raise TypeError(f"unexpected node {node!r}")


def _members(atom: Atom, members: dict) -> list[int]:
    found = members.get(id(atom))  # the trees outlive the cache
    if found is None:
        found = members[id(atom)] = atom.cls.members()
    return found


def hitdense(rules: list[str], seed: int) -> list[bytes]:
    # Adversarial: 1500-byte packets packed back to back with matches, 35%
    # of them one byte off, so every packet escalates and the automata and
    # the gap verifier carry the load.
    rng = random.Random(seed)
    trees = [parse(p, i).tree for i, p in enumerate(rules)]
    members: dict = {}
    packets = []
    for _ in range(1200):
        body = bytearray()
        while len(body) < 1500:
            plant = bytearray(_plant(rng.choice(trees), rng, members))
            if plant and rng.random() < 0.35:
                plant[rng.randrange(len(plant))] = rng.randrange(256)
            body += plant
        packets.append(bytes(body[:1500]))
    return packets


@dataclass(frozen=True)
class Workload:
    make: Callable[[list[str], int], list[bytes]]
    batch_bytes: int  # one timed scan_corpus call, about 50 ms
    oracle_packets: int  # sample checked against the oracle, about 2 s each


WORKLOADS = {
    "clean": Workload(clean, 240_000, 12),
    "planted": Workload(planted, 30_000, 120),
    "hitdense": Workload(hitdense, 24_000, 12),
}
