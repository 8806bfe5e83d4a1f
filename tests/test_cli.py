"""Command-line behavior: flags, outputs, exit codes."""
import csv
import hashlib
import io
import json

import pytest

from anchorscan.cli import bench_overheads, read_rules_file, run
from anchorscan.engine import CompiledDatabase, compile_rules, read_corpus
from test_engine import XREF_RULES, FORGERIES, forged_blob, forgeries


def test_rules_file_parsing(tmp_path):
    f = tmp_path / "rules.txt"
    f.write_text("# comment\nab.*cd\n\n  \nuser=[a-z]{1,8}\n")
    assert read_rules_file(f) == ["ab.*cd", "user=[a-z]{1,8}"]


def test_rules_file_lines_are_verbatim(tmp_path):
    f = tmp_path / "rules.txt"
    f.write_text("  # indented comment\n/ab/\n ab \n\t\n")
    assert read_rules_file(f) == ["/ab/", " ab "]


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


def test_compile_flags_reach_config(tmp_path):
    rules = tmp_path / "rules.txt"
    rules.write_text("ab.*cdef\n")
    db_path = tmp_path / "rules.db"
    assert run([
        "compile", "--rules", str(rules), "--out", str(db_path),
        "--pt", "1e-3", "--lt", "4", "--long-pop", "100", "--long-count", "20",
    ]) == 0
    db = CompiledDatabase.load(db_path)
    assert db.config.max_key_prob == 1e-3
    assert db.config.max_key_len == 4
    assert db.config.long_pop_threshold == 100
    assert db.config.long_count_threshold == 20


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
    # checksummed, well-formed databases whose config or cross-references
    # would drop matches or fail mid-scan are refused before any packet
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


def test_bench_filterfp(capsys):
    assert run(["bench", "--suite", "filterfp"]) == 0
    row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    rate = float(row["fp_rate"])
    assert float(row["band_low"]) <= rate <= float(row["band_high"])


def test_bench_overheads_small():
    rows = bench_overheads(n_rules=6, corpus_bytes=200_000, workers=1)
    row = rows[0]
    assert row["corpus_bytes"] == 200_000
    assert row["filter_hit_ratio"] < 0.01
    assert row["throughput_mb_s"] > 0
