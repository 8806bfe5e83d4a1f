"""The scan reports of the benchmark corpora, pinned.

The seed-1 `clean`, `planted` and `hitdense` corpora of perfbench/, scanned
with the `mixed` rule set, must give these reports byte for byte at one
worker and at two. A change meant to leave every match and counter as it
was (a faster filter, another table encoding) is held to that here; one
that moves a report on purpose re-pins it and says which counter moved.
The match lists are pinned apart from the counters, so that a change that
may move a counter (another filter hash) must still find every match.
"""
import hashlib
import json
import sys
from pathlib import Path

import pytest

from anchorscan.engine import compile_rules, scan_corpus
from test_engine import cpus

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import WORKLOADS, mixed_rules  # noqa: E402

#: sha-256 of `ScanReport.to_json()` per workload, seed 1
REPORTS = {
    "clean": "7c9b5bd64fe1792735d020bc693802d1c786431908833337a8e3111e4c846b8b",
    "planted": "1957a43243b1daac5f7c523906d6b21c2d44d3c5f648b83ccf3edb2870d5a6f6",
    "hitdense": "70dcdf03313446072864eef9d2e090b93701c9f2cd3995d270609dd093d42c77",
}

#: sha-256 of the JSON of `ScanReport.to_dict()["matches"]` per workload, seed 1
MATCHES = {
    "clean": "9cc94c60a6594969fcf19098b85740d589d5d79f9634ffd6045cecc4f716cfba",
    "planted": "6b9c8afd459a9e6590f6835c8bee0b26fc493c1c94902a9b1b39a840184b3c67",
    "hitdense": "8cecf5ebda5c15ecf00a2cd28f9c0c72c94ed8c2176884ee671bff9c8c705583",
}


@pytest.fixture(scope="module")
def mixed():
    rules = mixed_rules()
    return rules, compile_rules(rules)[0]


def reports(mixed, workload, monkeypatch):
    """The workload's seed-1 report at one worker and at two."""
    rules, db = mixed
    packets = WORKLOADS[workload].make(rules, 1)
    cpus(monkeypatch, 2)  # so that workers=2 forks a worker on any host
    for workers in (1, 2):
        yield workers, scan_corpus(db, packets, workers)


@pytest.mark.parametrize("workload", list(MATCHES))
def test_report_matches_are_pinned(mixed, workload, monkeypatch):
    for workers, report in reports(mixed, workload, monkeypatch):
        digest = hashlib.sha256(json.dumps(report.to_dict()["matches"]).encode()).hexdigest()
        assert digest == MATCHES[workload], f"workers={workers} matches={len(report.matches)}"


@pytest.mark.parametrize("workload", list(REPORTS))
def test_report_is_pinned(mixed, workload, monkeypatch):
    for workers, report in reports(mixed, workload, monkeypatch):
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        # on a mismatch, show what a re-pin would have to explain
        counters = {k: v for k, v in report.to_dict().items() if k != "matches"}
        assert digest == REPORTS[workload], f"workers={workers} {counters} matches={len(report.matches)}"
