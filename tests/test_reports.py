"""The scan reports of the benchmark corpora, pinned.

The seed-1 `clean`, `planted` and `hitdense` corpora of perfbench/, scanned
with the `mixed` rule set, must give these reports byte for byte at one
worker and at two. A change meant to leave every match and counter as it
was (a faster filter, another table encoding) is held to that here; one
that moves a report on purpose re-pins it and says which counter moved.
"""
import hashlib
import sys
from pathlib import Path

import pytest

from anchorscan.engine import compile_rules, scan_corpus
from test_engine import cpus

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import WORKLOADS, mixed_rules  # noqa: E402

#: sha-256 of `ScanReport.to_json()` per workload, seed 1
REPORTS = {
    "clean": "ae535aa90179c50632a0fb69975bafaf1dd5db7c5dd0f353ea6b7dd425ee2faa",
    "planted": "ff0440ca64e8cc54918d0b5c83ff7538c9202db492a2a56449f55d0cac42aa56",
    "hitdense": "f8b2a88a317b2bf046608a93377f0cb223c491f4f79fb368f5ea8ee158003ef8",
}


@pytest.fixture(scope="module")
def mixed():
    rules = mixed_rules()
    return rules, compile_rules(rules)[0]


@pytest.mark.parametrize("workload", list(REPORTS))
def test_report_is_pinned(mixed, workload, monkeypatch):
    rules, db = mixed
    packets = WORKLOADS[workload].make(rules, 1)
    cpus(monkeypatch, 2)  # so that workers=2 forks a worker on any host
    for workers in (1, 2):
        report = scan_corpus(db, packets, workers)
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        # on a mismatch, show what a re-pin would have to explain
        counters = {k: v for k, v in report.to_dict().items() if k != "matches"}
        assert digest == REPORTS[workload], f"workers={workers} {counters} matches={len(report.matches)}"
