"""Command-line behavior: flags, outputs, exit codes."""
import csv
import hashlib
import io
import json
import resource

import pytest

from anchorscan.cli import _overheads, _peak_rss_mb, bench_overheads, read_rules_file, run
from anchorscan.config import CompileConfig
from anchorscan.engine import CompiledDatabase, compile_rules, read_corpus, worker_pids
from test_engine import XREF_RULES, FORGERIES, cpus, forged_blob, forgeries


def test_rules_file_parsing(tmp_path):
    f = tmp_path / "rules.txt"
    f.write_text("# comment\nab.*cd\n\n  \nuser=[a-z]{1,8}\n")
    assert read_rules_file(f) == ["ab.*cd", "user=[a-z]{1,8}"]


def test_rules_file_lines_are_verbatim(tmp_path):
    f = tmp_path / "rules.txt"
    f.write_text("  # indented comment\n/ab/\n ab \n\t\n")
    assert read_rules_file(f) == ["/ab/", " ab "]
    # every line ending splits lines, and none is kept in a pattern
    f.write_bytes(b"ab.*cd\r\n# c\r\n ab \rlast")
    assert read_rules_file(f) == ["ab.*cd", " ab ", "last"]


def test_gen_dotstar(tmp_path, capsys):
    out = tmp_path / "rules.txt"
    assert run(["gen", "--family", "dotstar", "--k", "5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    assert all(".*" in line for line in lines)

    assert run(["gen", "--family", "dotstar", "--k", "5"]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_gen_traffic_deterministic(tmp_path):
    a = tmp_path / "a.pkts"
    b = tmp_path / "b.pkts"
    for path in (a, b):
        assert run(["gen", "--traffic", "random", "--bytes", "30000", "--seed", "9", "--out", str(path)]) == 0
    da, db = a.read_bytes(), b.read_bytes()
    assert hashlib.sha256(da).hexdigest() == hashlib.sha256(db).hexdigest()
    packets = read_corpus(a)
    assert sum(len(p) for p in packets) == 30000
    assert all(len(p) == 1500 for p in packets)


def test_gen_usage_errors(capsys):
    assert run(["gen"]) == 2
    assert run(["gen", "--family", "nope"]) == 2
    assert run(["gen", "--traffic", "random", "--bytes", "10"]) == 2  # no --out


def test_compile_scan_roundtrip(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("ab.*cd\nuser=[a-z]{1,8}\n")
    db_path = tmp_path / "rules.db"
    assert run(["compile", "--rules", str(rules), "--out", str(db_path)]) == 0
    out = capsys.readouterr().out
    assert "compiled 2/2 rules" in out
    assert "dfa_build" in out

    corpus = tmp_path / "pkts"
    corpus.mkdir()
    (corpus / "0.bin").write_bytes(b"xx user=ab yy")
    (corpus / "1.bin").write_bytes(b"no matches here")
    (corpus / "2.bin").write_bytes(b"ab ... cd")
    json_out = tmp_path / "report.json"
    assert run(["scan", "--db", str(db_path), "--corpus", str(corpus), "--json", str(json_out)]) == 0
    stdout = capsys.readouterr().out
    reader = csv.DictReader(io.StringIO(stdout))
    row = next(reader)
    assert row["packets"] == "3"

    report = json.loads(json_out.read_text())
    assert report["packets"] == 3
    assert {(m["packet"], m["rule"]) for m in report["matches"]} == {(0, 1), (2, 0)}


def test_compile_flags_reach_config(tmp_path, monkeypatch):
    import anchorscan.cli as cli

    configs = []
    real = cli.compile_rules
    monkeypatch.setattr(cli, "compile_rules", lambda rules, config: configs.append(config) or real(rules, config))
    rules = tmp_path / "rules.txt"
    rules.write_text("ab.*cdef\n")
    db_path = tmp_path / "rules.db"
    assert run(["compile", "--rules", str(rules), "--out", str(db_path)]) == 0
    assert run([
        "compile", "--rules", str(rules), "--out", str(db_path),
        "--pt", "1e-3", "--lt", "4", "--long-pop", "100", "--long-count", "20",
    ]) == 0
    assert configs == [
        CompileConfig(),
        CompileConfig(max_key_prob=1e-3, max_key_len=4, long_pop_threshold=100, long_count_threshold=20),
    ]
    assert CompiledDatabase.load(db_path) == real(["ab.*cdef"], configs[1])[0]


def test_compile_missing_file(tmp_path, capsys):
    assert run(["compile", "--rules", str(tmp_path / "none.txt"), "--out", str(tmp_path / "x.db")]) == 1
    assert "compile failed" in capsys.readouterr().err


def test_compile_no_survivors(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("(\n.*\n")
    assert run(["compile", "--rules", str(rules), "--out", str(tmp_path / "x.db")]) == 1


def test_scan_missing_db(tmp_path, capsys):
    corpus = tmp_path / "c.bin"
    corpus.write_bytes(b"data")
    assert run(["scan", "--db", str(tmp_path / "none.db"), "--corpus", str(corpus)]) == 1
    assert "scan failed" in capsys.readouterr().err


def test_scan_truncated_db(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("ab.*cd\n")
    db_path = tmp_path / "x.db"
    assert run(["compile", "--rules", str(rules), "--out", str(db_path)]) == 0
    db_path.write_bytes(db_path.read_bytes()[:10])
    corpus = tmp_path / "c.bin"
    corpus.write_bytes(b"xxabyycdzz")
    capsys.readouterr()
    assert run(["scan", "--db", str(db_path), "--corpus", str(corpus)]) == 1
    assert "scan failed:" in capsys.readouterr().err


@pytest.mark.parametrize("case", FORGERIES)
def test_scan_rejects_forged_db(tmp_path, capsys, case):
    # checksummed, well-formed databases whose cross-references would fail
    # mid-scan are refused before any packet
    db, _ = compile_rules(XREF_RULES)
    db_path = tmp_path / "x.db"
    db_path.write_bytes(forged_blob(db, **forgeries(db)[case]))
    corpus = tmp_path / "c.bin"
    corpus.write_bytes(b"xxabyycdzz user=abc.cgi")
    assert run(["scan", "--db", str(db_path), "--corpus", str(corpus)]) == 1
    assert "scan failed:" in capsys.readouterr().err


def test_diff_clean(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("ab.*cd\nuser=[a-z]{1,8}\n^hdr[0-9]{2,3}$\n")
    assert run(["diff", "--rules", str(rules), "--cases", "60", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "0 disagreements" in out
    assert "3/3 rules" in out


def test_diff_with_corpus(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("ab.*cd\n")
    corpus = tmp_path / "c"
    corpus.mkdir()
    (corpus / "0").write_bytes(b"aabcd")
    (corpus / "1").write_bytes(b"cdab")
    assert run(["diff", "--rules", str(rules), "--corpus", str(corpus)]) == 0
    assert "2 packets, 2 comparisons, 0 disagreements" in capsys.readouterr().out


def test_compile_unwritable_out(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("ab.*cd\n")
    out = tmp_path / "no-such-dir" / "x.db"
    assert run(["compile", "--rules", str(rules), "--out", str(out)]) == 1
    assert "compile failed:" in capsys.readouterr().err


def test_compile_rules_file_not_utf8(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_bytes(b"ab.*cd\n\xff\xfe\n")
    out = tmp_path / "x.db"
    assert run(["compile", "--rules", str(rules), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "compile failed:" in captured.err
    assert "Traceback" not in captured.err
    assert not out.exists()


def scan_inputs(tmp_path) -> list[str]:
    """`scan` arguments for a compiled one-rule database and a one-packet
    corpus in `tmp_path`."""
    rules = tmp_path / "rules.txt"
    rules.write_text("ab.*cd\n")
    db_path = tmp_path / "x.db"
    assert run(["compile", "--rules", str(rules), "--out", str(db_path)]) == 0
    corpus = tmp_path / "c.bin"
    corpus.write_bytes(b"xxabyycdzz")
    return ["scan", "--db", str(db_path), "--corpus", str(corpus)]


def test_scan_unwritable_json(tmp_path, capsys, monkeypatch):
    import anchorscan.cli as cli

    scan = scan_inputs(tmp_path)
    capsys.readouterr()
    scans = []
    monkeypatch.setattr(cli, "scan_corpus", lambda *a, **k: scans.append(1))
    json_out = tmp_path / "no-such-dir" / "report.json"
    assert run([*scan, "--json", str(json_out)]) == 1
    captured = capsys.readouterr()
    assert "scan failed:" in captured.err
    assert "Traceback" not in captured.err
    assert scans == []  # refused before any packet was scanned


def test_failed_scan_leaves_no_json(tmp_path, monkeypatch):
    import anchorscan.cli as cli

    scan = scan_inputs(tmp_path)
    json_out = tmp_path / "report.json"

    def fail(*args, **kwargs):
        assert json_out.exists()  # opened before the scan
        raise RuntimeError("a scan worker died")

    monkeypatch.setattr(cli, "scan_corpus", fail)
    with pytest.raises(RuntimeError, match="worker died"):
        run([*scan, "--json", str(json_out)])
    assert not json_out.exists()


@pytest.mark.parametrize("corpus", ["missing.pkts", "truncated.pkts"])
def test_diff_bad_corpus_fails_cleanly(tmp_path, capsys, corpus):
    rules = tmp_path / "rules.txt"
    rules.write_text("ab.*cd\n")
    (tmp_path / "truncated.pkts").write_bytes(b"\x10\x00\x00\x00abcd")  # 16-byte record, 4 bytes
    assert run(["diff", "--rules", str(rules), "--corpus", str(tmp_path / corpus)]) == 1
    captured = capsys.readouterr()
    assert "diff failed:" in captured.err
    assert "Traceback" not in captured.err


def test_diff_counts_ends_outside_the_oracle(tmp_path, capsys, monkeypatch):
    import anchorscan.cli as cli

    rules = tmp_path / "rules.txt"
    rules.write_text("ab.*cd\n")
    corpus = tmp_path / "c"
    corpus.mkdir()
    (corpus / "0").write_bytes(b"xabxcdx")  # the oracle ends a match at 5 only
    assert run(["diff", "--rules", str(rules), "--corpus", str(corpus)]) == 0
    capsys.readouterr()

    real = cli.scan_packet
    monkeypatch.setattr(cli, "scan_packet", lambda *a: [(r, e + 1) for r, e in real(*a)])
    assert run(["diff", "--rules", str(rules), "--corpus", str(corpus)]) == 3
    out = capsys.readouterr().out
    assert "engine ends=[6] oracle ends=[5]" in out
    assert "1 comparisons, 1 disagreements" in out


def test_usage_exit_codes():
    with pytest.raises(SystemExit) as exc:
        run(["bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["bench", "--suite", "nope"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [["scan", "--db", "db.bin", "--corpus", "c.pkts"], ["bench", "--suite", "overheads"]])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_worker_counts_below_one_are_usage_errors(command, workers, capsys):
    with pytest.raises(SystemExit) as exc:
        run([*command, "--workers", workers])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"--workers: must be at least 1, got {workers}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--pt", "nan", "must be above 0 and at most 1, got nan"),
        ("--pt", "0", "must be above 0 and at most 1, got 0"),
        ("--pt", "-1", "must be above 0 and at most 1, got -1"),
        ("--pt", "1.5", "must be above 0 and at most 1, got 1.5"),
        ("--lt", "1", "must be at least 2 and at most 8, got 1"),
        ("--lt", "9", "must be at least 2 and at most 8, got 9"),
        ("--long-pop", "0", "must be at least 1 and at most 256, got 0"),
        ("--long-pop", "257", "must be at least 1 and at most 256, got 257"),
        ("--long-count", "-1", "must be at least 0, got -1"),
        ("--pt", "often", "invalid float value: 'often'"),
    ],
)
def test_compile_flags_out_of_range_are_usage_errors(flag, value, message, tmp_path, monkeypatch, capsys):
    import anchorscan.cli as cli

    monkeypatch.setattr(cli, "compile_rules", lambda *a: pytest.fail("compiled with a bad flag"))
    rules = tmp_path / "rules.txt"
    rules.write_text("ab.*cdef\n")
    with pytest.raises(SystemExit) as exc:
        run(["compile", "--rules", str(rules), "--out", str(tmp_path / "x.db"), flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"{flag}: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.db").exists()


def test_compile_flags_at_their_bounds(tmp_path, monkeypatch):
    import anchorscan.cli as cli

    configs = []
    monkeypatch.setattr(cli, "compile_rules", lambda rules, config: configs.append(config) or compile_rules(rules, config))
    rules = tmp_path / "rules.txt"
    rules.write_text("ab.*cdef\n")
    out = str(tmp_path / "x.db")
    assert run(["compile", "--rules", str(rules), "--out", out, "--pt", "1", "--lt", "2", "--long-pop", "1", "--long-count", "0"]) == 0
    assert run(["compile", "--rules", str(rules), "--out", out, "--lt", "8", "--long-pop", "256"]) == 0
    assert configs == [
        CompileConfig(max_key_prob=1.0, max_key_len=2, long_pop_threshold=1, long_count_threshold=0),
        CompileConfig(max_key_len=8, long_pop_threshold=256),
    ]


def test_bench_statecount(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert run(["bench", "--suite", "statecount", "--k", "2,4", "--out", str(out)]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["k"] for r in rows] == ["2", "4"]
    assert all(int(r["classic_states"]) >= int(r["anchored_states"]) for r in rows)
    assert out.read_text().startswith("k,classic_states")


def test_bench_compression(capsys):
    assert run(["bench", "--suite", "compression", "--k", "3"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    sides = {r["side"] for r in rows}
    assert sides == {"reverse", "forward"}
    rev = next(r for r in rows if r["side"] == "reverse")
    assert float(rev["ratio"]) < 0.15
    assert int(rev["accept_pairs"]) > 0
    assert 0 < int(rev["runs"]) <= 255 * int(rev["states"])  # a row has at most 255 runs


def test_bench_filterfp(capsys):
    assert run(["bench", "--suite", "filterfp"]) == 0
    row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    rate = float(row["fp_rate"])
    assert float(row["band_low"]) <= rate <= float(row["band_high"])


def test_bench_overheads_reports_its_own_peak():
    # a peak this process reached before the bench must not show in it
    buf = b"\x01" * (150 << 20)  # repetition writes every byte, so the pages count
    del buf
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 >= 150
    row = bench_overheads(n_rules=6, corpus_bytes=200_000, workers=1)[0]
    assert 0 < row["maxrss_mb"] < 150


def test_bench_overheads_counts_its_scan_workers(monkeypatch):
    # run here rather than spawned, so that two usable CPUs can be pretended
    # and workers=2 forks one scan worker on any host
    cpus(monkeypatch, 2)
    before = _peak_rss_mb()
    two = _overheads(6, 200_000, 2, 0x0E)
    (pid,) = worker_pids()
    worker = _peak_rss_mb(pid)
    assert worker > 1
    assert before + worker - 0.1 <= two["maxrss_mb"] <= _peak_rss_mb() + worker + 0.1
    # the worker is kept after the parallel scan, but a serial one does not count it
    one = _overheads(6, 200_000, 1, 0x0E)
    assert worker_pids() == [pid]
    assert before - 0.1 <= one["maxrss_mb"] <= _peak_rss_mb() + 0.1
    assert one["corpus_bytes"] == two["corpus_bytes"] == 200_000


def test_bench_overheads_small():
    rows = bench_overheads(n_rules=6, corpus_bytes=200_000, workers=1)
    row = rows[0]
    assert row["corpus_bytes"] == 200_000
    assert row["filter_hit_ratio"] < 0.01
    assert row["throughput_mb_s"] > 0
