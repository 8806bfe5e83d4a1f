"""Synthetic generators: shape, determinism, oracle agreement."""
import random

import pytest

from anchorscan.decompose import decompose_rule
from anchorscan.oracle import oracle_match
from anchorscan.parser import parse
from anchorscan.synth import (
    DOTSTAR_MAX_K,
    diff_packets,
    diff_ruleset,
    dotstar_family,
    filter_stress_ruleset,
    random_packets,
    sample_match,
)


def test_dotstar_family_frozen():
    assert dotstar_family(6) == [
        "aa.*ab",
        "ac.*ad",
        "ae.*ba",
        "bb.*bc",
        "bd.*be",
        "ca.*cb",
    ]


def test_dotstar_family_pairs_distinct():
    for k in (1, 5, 20, 120):
        rules = dotstar_family(k)
        assert len(rules) == k
        pairs = []
        for r in rules:
            head, tail = r.split(".*")
            pairs.extend([head, tail])
        assert len(set(pairs)) == 2 * k


def test_dotstar_family_bounds():
    with pytest.raises(ValueError):
        dotstar_family(0)
    with pytest.raises(ValueError):
        dotstar_family(10**6)
    # the largest family fits its pair alphabet; one more would index past it
    assert len(set(dotstar_family(DOTSTAR_MAX_K))) == DOTSTAR_MAX_K
    with pytest.raises(ValueError, match="k must be from 1 to 1860, got 1861"):
        dotstar_family(DOTSTAR_MAX_K + 1)


def test_diff_ruleset_all_supported():
    rules = diff_ruleset(40, seed=3)
    assert len(rules) == 40
    for pattern in rules:
        decompose_rule(parse(pattern, 0))  # raises if unsupported
    assert diff_ruleset(40, seed=3) == rules
    assert diff_ruleset(40, seed=4) != rules


def test_filter_stress_ruleset_key_shape():
    rules = filter_stress_ruleset(10, seed=1)
    assert len(rules) == 10
    for pattern in rules:
        head, tail = pattern.split(".*")
        assert len(head) == 2
        assert len(tail) == 8
    assert filter_stress_ruleset(10, seed=1) == rules


def test_sample_match_accepted_by_oracle():
    rng = random.Random(12)
    for pattern in diff_ruleset(25, seed=21):
        rule = parse(pattern, 0)
        for _ in range(4):
            sample = sample_match(rule.tree, rng)
            assert oracle_match(rule, sample), f"{pattern!r} rejected {sample!r}"


def test_diff_packets_deterministic():
    rules = diff_ruleset(10, seed=8)
    a = diff_packets(rules, 50, seed=77)
    b = diff_packets(rules, 50, seed=77)
    assert a == b
    assert len(a) == 50
    assert diff_packets(rules, 50, seed=78) != a


def test_diff_packets_contain_matches():
    rules = diff_ruleset(12, seed=15)
    parsed = [parse(p, i) for i, p in enumerate(rules)]
    packets = diff_packets(rules, 120, seed=16)
    hits = sum(1 for pkt in packets if any(oracle_match(r, pkt) for r in parsed))
    assert hits >= 20  # planted matches actually land


def test_random_packets_shape():
    packets = random_packets(4000, packet_len=1500, seed=5)
    assert [len(p) for p in packets] == [1500, 1500, 1000]
    assert random_packets(4000, packet_len=1500, seed=5) == packets
    assert random_packets(0) == []
