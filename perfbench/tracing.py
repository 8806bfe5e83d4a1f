"""Spans and counters recorded around the engine's calls into each layer.

`anchorscan.engine` looks its collaborators up by module-global name at call
time, so replacing those names (and `FilterBank.scan`) from outside records
one span per call without changing the engine. A span is the tuple
(id, parent id, layer, packet, start ns, end ns); spans stay in memory until
the caller writes them out. The tracer keeps one span stack, so trace only
single-threaded (workers=1) scans. The wrappers' own bookkeeping falls in
their parent's self time, mostly the engine's.
"""
from __future__ import annotations

import gzip
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

import anchorscan.engine as engine
from anchorscan.prefilter import UNIT_DIRECT, UNIT_XOR4, UNIT_XOR8, FilterBank
from anchorscan.stt import REVERSE

#: engine-global functions wrapped as plain spans, with their layer names
_PLAIN = {
    "parse": "parser",
    "decompose_rule": "decompose",
    "classify_gap": "verify.classify",
    "build_filter_bank": "prefilter.build",
    "build_reverse_dfa": "automata.reverse_build",
    "build_forward_dfa": "automata.forward_build",
    "compress": "stt.compress",
}

_WRAPPED = (*_PLAIN, "scan_packet", "run_thread", "VerificationState")

SPAN_FIELDS = ("id", "parent", "layer", "packet", "start_ns", "end_ns")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.rule_matches: Counter = Counter()  # rule id -> matches
        self.packet = -1
        self._stack = [-1]

    def call(self, layer: str, fn, *args, **kwargs):
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id; children name it as parent
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (sid, parent, layer, self.packet, t0, t1)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.rule_matches.clear()
        self.packet = -1

    # --- wrappers ---------------------------------------------------------

    def _wrappers(self, originals: dict) -> dict:
        tracer = self

        def plain(name):
            fn, layer = originals[name], _PLAIN[name]
            return lambda *args, **kwargs: tracer.call(layer, fn, *args, **kwargs)

        def scan_packet(db, data, stats):
            tracer.packet += 1
            matches = tracer.call("engine", originals["scan_packet"], db, data, stats)
            tracer.rule_matches.update(rule for rule, _end in matches)
            return matches

        def run_thread(*args):
            layer = "stt.reverse" if args[3] == REVERSE else "stt.forward"
            records, depth = tracer.call(layer, originals["run_thread"], *args)
            tracer.counts[layer + ".threads"] += 1
            tracer.counts[layer + ".steps"] += depth
            if records and layer == "stt.reverse":
                tracer.counts["prefilter.productive"] += 1
            return records, depth

        class TracedVerificationState(originals["VerificationState"]):
            def __init__(self, *args):
                tracer.call("verify", super().__init__, *args)

            def on_fragment_match(self, ev):
                tracer.counts["verify.events"] += 1
                return tracer.call("verify", super().on_fragment_match, ev)

        wrapped = {name: plain(name) for name in _PLAIN}
        wrapped.update(scan_packet=scan_packet, run_thread=run_thread, VerificationState=TracedVerificationState)
        return wrapped

    def _filter_scan(self, original):
        tracer = self

        def scan(bank, data):
            ends, codes = tracer.call("prefilter", original, bank, data)
            per_unit = np.bincount(codes, minlength=UNIT_XOR8 + 1)
            tracer.counts["prefilter.hits2"] += int(per_unit[UNIT_DIRECT])
            tracer.counts["prefilter.hits4"] += int(per_unit[UNIT_XOR4])
            tracer.counts["prefilter.hits8"] += int(per_unit[UNIT_XOR8])
            return ends, codes

        return scan

    @contextmanager
    def installed(self):
        """Replace the engine's names with tracing wrappers; always restore."""
        saved = {name: getattr(engine, name) for name in _WRAPPED}
        saved_scan = FilterBank.__dict__["scan"]
        for name, fn in self._wrappers(saved).items():
            setattr(engine, name, fn)
        FilterBank.scan = self._filter_scan(saved_scan)
        try:
            yield self
        finally:
            for name, fn in saved.items():
                setattr(engine, name, fn)
            FilterBank.scan = saved_scan

    # --- analysis ---------------------------------------------------------

    def self_ns(self) -> tuple[dict[str, int], dict[str, int]]:
        """Self time per layer, and total duration per root layer.

        Self time is a span's duration minus its children's durations.
        Raises ValueError if a child escapes its parent's interval, so the
        self times of a tree always add up to its root's duration.
        """
        own = [s[5] - s[4] for s in self.spans]
        roots: list[str] = []
        for sid, parent, layer, _pkt, t0, t1 in self.spans:
            if parent < 0:
                roots.append(layer)
                continue
            p = self.spans[parent]
            if not (p[4] <= t0 and t1 <= p[5]):
                raise ValueError(f"span {sid} ({layer}) lies outside its parent {parent}")
            own[parent] -= t1 - t0
            roots.append(roots[parent])
        by_layer: Counter = Counter()
        by_root: Counter = Counter()
        for span, self_time, root in zip(self.spans, own, roots):
            by_layer[span[2]] += self_time
            by_root[root] += self_time
        return dict(by_layer), dict(by_root)

    def root_ns(self, layer: str) -> int:
        return sum(s[5] - s[4] for s in self.spans if s[1] < 0 and s[2] == layer)

    def write(self, path, header: dict) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({**header, "fields": SPAN_FIELDS}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
