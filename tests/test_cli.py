import csv
import json

from mobiuswalk import cli, seqgen


def run(argv):
    return cli.main(argv)


def test_gen_roundtrip_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.msf"
    out2 = tmp_path / "b.msf"
    assert run(["gen", "--start", "1", "--count", "1000", "--out", str(out1)]) == 0
    assert run(["gen", "--start", "1", "--count", "1000", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    seq = seqgen.read_sequence(out1)
    assert seq.length == 1000
    ones = seq.slice_bits(1, 1000).sum() / 1000
    assert 0.4 < ones < 0.6
    assert "ones fraction" in capsys.readouterr().out


def test_gen_unwritable_path():
    assert run(["gen", "--count", "100", "--out", "/nonexistent/dir/x.msf"]) == 2


def test_battery_cmd(tmp_path, capsys):
    seq_path = tmp_path / "s.msf"
    run(["gen", "--count", "120000", "--out", str(seq_path)])
    report = tmp_path / "rep.jsonl"
    code = run(["battery", "--seq", str(seq_path), "--tests", "monobit",
                "--blocks", "100", "--block-len", "1000",
                "--gap", "100", "--seed", "7", "--out", str(report)])
    assert code == 0
    rows = [json.loads(line) for line in report.read_text().strip().split("\n")]
    assert len(rows) == 101
    assert rows[-1]["summary"]["monobit"]["inside"] is True
    # same seed, byte-identical report
    report2 = tmp_path / "rep2.jsonl"
    run(["battery", "--seq", str(seq_path), "--tests", "monobit",
         "--blocks", "100", "--block-len", "1000",
         "--gap", "100", "--seed", "7", "--out", str(report2)])
    assert report.read_bytes() == report2.read_bytes()


def test_battery_coverage_error(tmp_path):
    seq_path = tmp_path / "s.msf"
    run(["gen", "--count", "5000", "--out", str(seq_path)])
    code = run(["battery", "--seq", str(seq_path), "--tests", "monobit",
                "--blocks", "100", "--block-len", "1000"])
    assert code == 2


def test_tables_pi(tmp_path):
    out = tmp_path / "pi.csv"
    assert run(["tables", "--which", "pi", "--n", "1e4", "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["n", "observed", "theoretical", "relative_error"]
    assert len(rows) == 11
    assert int(rows[-1][1]) == int(rows[-1][1])  # integer prime counts


def test_tables_tau(tmp_path):
    out = tmp_path / "tau.csv"
    assert run(["tables", "--which", "tau", "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert len(rows) == 11
    assert abs(float(rows[1][1]) - 0.5908) < 1e-3


def test_tables_residue(tmp_path):
    out = tmp_path / "res.csv"
    assert run(["tables", "--which", "residue", "--q", "5", "--x", "1e5",
                "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert len(rows) == 6
    total = sum(int(r[1]) for r in rows[1:])
    assert total == seqgen.squarefree_count(10 ** 5) - 1


def test_extremes_cmd(tmp_path, capsys):
    seq_path = tmp_path / "s.msf"
    run(["gen", "--count", "2100000", "--out", str(seq_path)])
    code = run(["extremes", "--seq", str(seq_path), "--segments", "2000",
                "--seg-len", "1000", "--out", str(tmp_path / "x")])
    assert code == 0
    out = capsys.readouterr().out
    assert "arcsine" in out and "tau" in out
    assert (tmp_path / "x_arcsine.csv").exists()
    assert (tmp_path / "x_tau.csv").exists()


def test_extremes_undersized(tmp_path):
    seq_path = tmp_path / "s.msf"
    run(["gen", "--count", "30000", "--out", str(seq_path)])
    code = run(["extremes", "--seq", str(seq_path), "--segments", "20",
                "--seg-len", "1000"])
    assert code == 2


def test_usage_error():
    assert run(["bogus-subcommand"]) == 2


def test_internal_errors_exit_2(tmp_path, capsys):
    # squarefree_count refuses the sqrt(x) window before any sieving
    assert run(["gen", "--start", "10000000000000000", "--count", "8",
                "--out", str(tmp_path / "far.msf")]) == 2
    assert "exceeds budget" in capsys.readouterr().err
    assert not (tmp_path / "far.msf").exists()
    assert run(["tables", "--which", "residue", "--q", "11", "--x", "11",
                "--out", str(tmp_path / "res.csv")]) == 2
    assert "residue class" in capsys.readouterr().err
    # sqf_1 = 1 is no prime, so its relative error has no denominator
    assert run(["tables", "--which", "pi", "--n", "1",
                "--out", str(tmp_path / "pi.csv")]) == 2
    assert "ordinal 1" in capsys.readouterr().err
    assert not (tmp_path / "pi.csv").exists()
    # sqf_1 = 1 has no prime factor, so the mean omega is 0
    assert run(["tables", "--which", "omega", "--n", "1",
                "--out", str(tmp_path / "omega.csv")]) == 2
    assert "ordinal 1" in capsys.readouterr().err
    assert not (tmp_path / "omega.csv").exists()
    # an empty selection runs no test, so it must not read as a pass
    seq_path = tmp_path / "s.msf"
    assert run(["gen", "--count", "2000", "--out", str(seq_path)]) == 0
    for tests in ("", ","):
        assert run(["battery", "--seq", str(seq_path), "--tests", tests,
                    "--blocks", "2", "--block-len", "1000",
                    "--out", str(tmp_path / "rep.jsonl")]) == 2
        assert "empty test selection" in capsys.readouterr().err
    # segments of no steps have no extremes to fit
    for flag, value in (("--seg-len", "0"), ("--segments", "0")):
        assert run(["extremes", "--seq", str(seq_path), flag, value]) == 2
        assert "need T >= 1 and n_segments >= 1" in capsys.readouterr().err
    # blocks shorter than every selected test leave no P-value to judge
    assert run(["battery", "--seq", str(seq_path), "--tests", "monobit,maurer",
                "--blocks", "4", "--block-len", "50",
                "--out", str(tmp_path / "rep.jsonl")]) == 2
    assert "no selected test ran" in capsys.readouterr().err
    assert not (tmp_path / "rep.jsonl").exists()
