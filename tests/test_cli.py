import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mobiuswalk import cli, seqgen


def run(argv):
    return cli.main(argv)


# run one command through cli.main in a fresh interpreter, then print its
# exit code and the scipy modules it loaded
_SCIPY_AFTER = """
import sys
from mobiuswalk import cli
code = cli.main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def scipy_loaded_by(argv) -> tuple[int, list[str]]:
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", _SCIPY_AFTER, *argv], env=env,
                         capture_output=True, text=True, check=True).stdout
    code, *modules = out.splitlines()[-1].split()
    return int(code), modules


@pytest.fixture(scope="module")
def full_block_file(tmp_path_factory):
    """One 1.41e6-bit block, long enough for every battery test."""
    path = tmp_path_factory.mktemp("imports") / "s.msf"
    assert run(["gen", "--count", "1410000", "--out", str(path)]) == 0
    return path


def test_gen_and_battery_load_no_scipy(tmp_path, full_block_file):
    assert scipy_loaded_by(["gen", "--count", "100000",
                            "--out", str(tmp_path / "g.msf")]) == (0, [])
    code, modules = scipy_loaded_by(["battery", "--seq", str(full_block_file),
                                     "--blocks", "1", "--block-len", "1410000",
                                     "--workers", "1", "--out", str(tmp_path / "r.jsonl")])
    assert code in (0, 1) and modules == []
    # the argmin law is a running product, the divisor shares are residue
    # counts, and the tau moments and the log log constants are tabulated
    for argv in (["extremes", "--seq", str(full_block_file), "--segments", "1000",
                  "--seg-len", "1000", "--out", str(tmp_path / "x")],
                 ["tables", "--which", "divisor", "--n", "1e6", "--out", str(tmp_path / "d.csv")],
                 ["tables", "--which", "residue", "--q", "7", "--x", "1e6",
                  "--out", str(tmp_path / "res.csv")],
                 ["tables", "--which", "tau", "--out", str(tmp_path / "tau.csv")],
                 ["tables", "--which", "omega", "--n", "1e4", "--out", str(tmp_path / "o.csv")]):
        assert scipy_loaded_by(argv) == (0, []), argv


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


def test_battery_block_error_exits_2(tmp_path, capsys, monkeypatch):
    seq_path = tmp_path / "s.msf"
    assert run(["gen", "--count", "5000", "--out", str(seq_path)]) == 0
    report = tmp_path / "rep.jsonl"
    argv = ["battery", "--seq", str(seq_path), "--tests", "monobit",
            "--blocks", "4", "--block-len", "1000", "--out", str(report)]
    slice_bits = seqgen.BitSequence.slice_bits
    calls = []

    def failing_slice(self, ordinal, count):
        calls.append(ordinal)
        if len(calls) == 3:
            raise OSError("read failed on the third block")
        return slice_bits(self, ordinal, count)

    monkeypatch.setattr(seqgen.BitSequence, "slice_bits", failing_slice)
    assert run(argv) == 2
    assert "read failed on the third block" in capsys.readouterr().err
    assert not report.exists()


def test_battery_constant_block_exits_2(tmp_path, capsys):
    # oscillation has no statistic on a block of equal bits
    rng = np.random.default_rng(3)
    bits = np.concatenate([rng.integers(0, 2, 200), np.zeros(200, dtype=np.int64),
                           rng.integers(0, 2, 200)])
    seq_path = tmp_path / "s.msf"
    seqgen.write_sequence(seqgen.BitSequence.from_bits(1, bits), seq_path)
    report = tmp_path / "rep.jsonl"
    assert run(["battery", "--seq", str(seq_path), "--tests", "oscillation",
                "--blocks", "3", "--block-len", "200", "--out", str(report)]) == 2
    assert "degenerate block" in capsys.readouterr().err
    assert not report.exists()


def test_tables_pi(tmp_path):
    out = tmp_path / "pi.csv"
    assert run(["tables", "--which", "pi", "--n", "1e4", "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["n", "observed", "theoretical", "relative_error"]
    assert len(rows) == 11
    # sqf_10000 = 16446, so a plain sieve to 16500 holds every row's count
    limit = 16500
    is_prime = [False, False] + [True] * (limit - 1)
    for p in range(2, int(limit ** 0.5) + 1):
        if is_prime[p]:
            is_prime[p * p::p] = [False] * len(range(p * p, limit + 1, p))
    squarefree = [k for k in range(1, limit + 1)
                  if all(k % (p * p) for p in range(2, int(k ** 0.5) + 1) if is_prime[p])]
    for row in rows[1:]:
        sqf_n = squarefree[int(row[0]) - 1]
        assert int(row[1]) == sum(is_prime[:sqf_n + 1])


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


def test_large_modulus_refused_before_primality(tmp_path, capsys, monkeypatch):
    # x < q is known at once; proving q prime would first sieve to sqrt(q) = 1e8
    monkeypatch.setattr(seqgen, "_prime_cache", {})
    assert run(["tables", "--which", "residue", "--q", "10000000000000061",
                "--x", "5e7", "--out", str(tmp_path / "res.csv")]) == 2
    assert "x_max must be >= q" in capsys.readouterr().err
    assert seqgen._prime_cache.get("limit", 0) <= 10 ** 4
    assert not (tmp_path / "res.csv").exists()


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
    # a repeated test must not count each block twice
    assert run(["battery", "--seq", str(seq_path), "--tests", "monobit,monobit",
                "--blocks", "3", "--block-len", "100",
                "--out", str(tmp_path / "rep.jsonl")]) == 2
    assert "'monobit' selected twice" in capsys.readouterr().err
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
    # a significance level outside (0, 1) makes every verdict meaningless
    for alpha in ("0", "1"):
        assert run(["battery", "--seq", str(seq_path), "--tests", "monobit",
                    "--blocks", "2", "--block-len", "100", "--alpha", alpha,
                    "--out", str(tmp_path / "rep.jsonl")]) == 2
        assert "alpha must be in (0,1)" in capsys.readouterr().err
        assert not (tmp_path / "rep.jsonl").exists()
    # no worker count below one runs the battery
    assert run(["battery", "--seq", str(seq_path), "--tests", "monobit",
                "--blocks", "2", "--block-len", "100", "--workers", "-3",
                "--out", str(tmp_path / "rep.jsonl")]) == 2
    assert "workers must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "rep.jsonl").exists()
