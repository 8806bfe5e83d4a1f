"""The per-layer benchmark harness (perfbench/tracing.py) against the engine.

The tracer times each layer by replacing the engine's module-global names
and `FilterBank.scan`; its self-checks compare the counts it sees with
ScanStats. These tests run it over a small mixed corpus and assert the
invariants `perfbench/run.py` checks in a traced run, so a refactor of the
scan loop that bypasses a wrapped name fails here, not in the benchmark.
"""
import random
import sys
from pathlib import Path

import pytest

from anchorscan import engine, synth
from anchorscan.engine import compile_rules, scan_corpus

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracing import Tracer  # noqa: E402
from workloads import PAPER_RULES  # noqa: E402


@pytest.fixture(scope="module")
def db_and_corpus():
    rules = list(PAPER_RULES)
    db, report = compile_rules(rules)
    rng = random.Random(5)
    supported = [rules[i] for i in report.supported]
    packets = synth.diff_packets(supported, 150, seed=5)
    # match-dense packets, so every packet escalates and forward threads run
    dense = b"".join(packets[i] for i in range(0, 150, 3))
    packets += [dense[i : i + 1500] for i in range(0, len(dense), 1500)]
    packets += [rng.randbytes(1500) for _ in range(4)] + [b"", b"a"]
    return db, packets


def test_traced_scan_keeps_the_harness_invariants(db_and_corpus):
    db, packets = db_and_corpus
    reference = scan_corpus(db, packets, 1)
    tracer = Tracer()
    with tracer.installed():
        report = scan_corpus(db, packets, 1)
    assert report.to_json() == reference.to_json()

    layers, roots = tracer.self_ns()
    assert set(roots) == {"engine"}
    assert roots["engine"] == tracer.root_ns("engine")
    assert {"prefilter", "stt.reverse", "stt.forward", "verify"} <= set(layers)

    st, n = report.stats, tracer.counts
    assert st.forward_threads > 0 and st.escalated_packets > 0 and report.matches
    assert n["stt.reverse.threads"] == st.reverse_threads == st.filter_hits
    assert n["stt.forward.threads"] == st.forward_threads
    assert n["stt.reverse.steps"] + n["stt.forward.steps"] == st.adfa_transitions
    assert sum(tracer.rule_matches.values()) == len(report.matches)
    # every match is completed by one verifier event, seen by the tracer
    assert n["verify.events"] >= len(report.matches)


def test_tracer_restores_the_engine():
    names = ("scan_packet", "run_thread", "VerificationState")
    before = {name: getattr(engine, name) for name in names}
    with Tracer().installed():
        assert all(getattr(engine, name) is not before[name] for name in names)
    assert all(getattr(engine, name) is before[name] for name in names)
