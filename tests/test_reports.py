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
    "clean": "e8d37ec9858e9b43d0891c67bb589bf64081347752dfa4e40c63b384da64bf61",
    "planted": "c6c9e30dae223f3ea06e230a614685e9221f2d504c7d600d96ba6451f2e788e5",
    "hitdense": "e9cda2ad68ca7404a54a9c047da2bc7fffd4bec5a066a054d617cb94ac369eb0",
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
