"""Byte-identity guard: fixed-seed outputs must keep their exact bytes.

Each hash was recorded on the code before the refactor that added it
(the battery and residue hashes before the duplicate removal, the pi,
omega and divisor table hashes before the divisor tally left the scan,
the uniformity report hash before the chi-square tails were unified, the
`gen` file hashes before the sieve traded division for log sums (the
two-segment one before mu lost its masked stores), the
alpha = 0.05 report and `extremes` hashes before the significance level
left the P-value type and the CSV writers were merged, the tau moment
table hash before the arcsine and tau fits shared one front end, the
numth reprs hash before the omega histogram became the scan's only tally)
and pins behaviour for later performance work: a faster path that changes
any JSONL, CSV or MSF byte fails here.

Every hash was recorded on Python 3.11.7, numpy 2.4.6 and scipy 1.17.1.
Some bytes rest on numpy's FFT and summation order, so other versions may
not reproduce them.
"""

import hashlib
import io
import json

import pytest

from mobiuswalk import battery, cli, numth

BATTERY_SHA256 = "f03eab5ae3baa1643761dd0a42e3004b09615a26241dadc3679dd94fabb43102"
# 60 blocks reach UNIFORMITY_MIN_SIZE, so the summary carries uniformity_pbar
UNIFORMITY_SHA256 = "f6f32cad5c86b686a8cf21f9ec9074995a5aad2faf1cee4628378566676288f3"
# the same 60-block shape at alpha = 0.05: every row's "pass" and the
# proportion intervals follow the report's alpha
BATTERY_ALPHA05_SHA256 = "88e15698eac324eb118ad31d31192d2bc81baae9ed47db45f4b0d0fac00defbd"
RESIDUE_SHA256 = "76ef77551bcdac3b63e4449f3f277faf54a46d13ff6d753f2fc898240ed06067"
# `tables --which <name> --n 1e6`
TABLE_SHA256 = {
    "pi": "d707a71cb4ffa55d2d375509e94477b67585378beeea2bcc42153d4df6814b5b",
    "omega": "8dffa84e13d71ff7567db0eb1d0cad59caefcf849212709c887e676e30804b53",
    "divisor": "caa6919067d40b38ea3b74864a97ac1476653f84560d4cb252652d7e27cbfce5",
}
# `tables --which tau`
TAU_TABLE_SHA256 = "be9e3e7dfaa2018974e9b7c76aaf9e274c37af3799437f52543cab79cc1d9fce"

# `extremes --segments 1000 --seg-len 1000 --out x` on `gen --count 1100000`
EXTREMES_SHA256 = {
    "stdout": "a63db096596fa3049578a3de684c3b5851281243c5f9dc646a55071cc5f2a96f",
    "x_arcsine.csv": "23314bb4306c422a4a9a68af9f2f3c8008818954a6b4f7eaed010fef66c9c37d",
    "x_tau.csv": "08d46b5e572de5f6d86cd202b762279f1e65fff3a1df44970598eaccc35eb97c",
}

# reprs of the log log constants, checkpointed snapshots, omega classes,
# their Poisson fit and the omega table (`test_numth_reprs`)
NUMTH_SHA256 = "294d0d73a11ff3c58d1593a93d71482110aee9daa31732ba8b65efd307aa18a6"

# `gen --start S --count N`
GEN_SHA256 = {
    (1, 2_000_000): "0e2ab7faf39f686c98188d11dbc5328825908fdb5a6b6beb8f469ae0566945b7",
    (1_000_000_007, 1_000_000): "b9c6fcf3def6af26798c3277bcb28ad214fed9c35f9f5de187bb460983d82fd9",
    (10 ** 12, 100_000): "c3180ab9f32e82ae32842121287425b30dc031538be2443eff5986b9553ad092",
    # two sieve segments, so a chunk boundary falls inside the packed bytes
    (1, 5_000_000): "9fc65e2611d1546e4c7d001e2976998b5ae64b96f4a5e088122ef7ae28592b5c",
}


def test_battery_jsonl_bytes():
    # two full-size blocks, and two 1e5-bit blocks that skip the long tests
    blocks = (list(battery.fair_coin_blocks(2024, 2, 1_410_000))
              + [(2 * 1_410_000 + start, bits)
                 for start, bits in battery.fair_coin_blocks(2025, 2, 100_000)])
    report = battery.run_battery_on_blocks(blocks, seed=7, workers=2)
    buf = io.StringIO()
    report.write_jsonl(buf)
    assert '"skipped": "insufficient length"' in buf.getvalue()
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == BATTERY_SHA256


def test_uniformity_report_bytes():
    blocks = list(battery.fair_coin_blocks(2026, 60, 100_000))
    assert len(blocks) >= battery.UNIFORMITY_MIN_SIZE
    report = battery.run_battery_on_blocks(blocks, seed=7, workers=2)
    buf = io.StringIO()
    report.write_jsonl(buf)
    summary = json.loads(buf.getvalue().splitlines()[-1])["summary"]
    assert summary["monobit"]["uniformity_pbar"] is not None
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == UNIFORMITY_SHA256


def test_alpha05_report_bytes():
    blocks = list(battery.fair_coin_blocks(2027, 60, 100_000))
    report = battery.run_battery_on_blocks(blocks, seed=7, alpha=0.05, workers=2)
    buf = io.StringIO()
    report.write_jsonl(buf)
    rows = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert rows[-1]["summary"]["monobit"]["uniformity_pbar"] is not None
    assert any(row.get("test") == "maurer" and row.get("skipped") for row in rows)
    # some rows pass at 0.05 that would also pass at 0.01, some do not
    assert any(0.01 <= row.get("p_value", 1.0) < 0.05 for row in rows[:-1])
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == BATTERY_ALPHA05_SHA256


def test_extremes_output_bytes(tmp_path, capsys):
    seq = tmp_path / "s.msf"
    assert cli.main(["gen", "--count", "1100000", "--out", str(seq)]) == 0
    capsys.readouterr()
    assert cli.main(["extremes", "--seq", str(seq), "--segments", "1000",
                     "--seg-len", "1000", "--out", str(tmp_path / "x")]) == 0
    got = {"stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    for name in ("x_arcsine.csv", "x_tau.csv"):
        got[name] = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert got == EXTREMES_SHA256


def test_residue_table_bytes(tmp_path):
    out = tmp_path / "residue.csv"
    assert cli.main(["tables", "--which", "residue", "--q", "7", "--x", "1e6",
                     "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RESIDUE_SHA256


@pytest.mark.parametrize("which", sorted(TABLE_SHA256))
def test_sequence_table_bytes(tmp_path, which):
    out = tmp_path / f"{which}.csv"
    assert cli.main(["tables", "--which", which, "--n", "1e6", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TABLE_SHA256[which]


def test_tau_table_bytes(tmp_path):
    out = tmp_path / "tau.csv"
    assert cli.main(["tables", "--which", "tau", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TAU_TABLE_SHA256


@pytest.mark.parametrize("start, count", sorted(GEN_SHA256))
def test_gen_file_bytes(tmp_path, start, count):
    out = tmp_path / "seq.msf"
    assert cli.main(["gen", "--start", str(start), "--count", str(count),
                     "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GEN_SHA256[start, count]


def test_numth_reprs():
    n = 10 ** 6
    cc = numth.class_counts(n)
    reprs = [repr(numth.constants_compute()),
             *map(repr, numth.scan_squarefree(n, checkpoints=(1, 2, 7, 123, 4567, 99999,
                                                              500000))),
             # the histogram itself, or the `counts` field of the record that
             # carried it before, so the pin reads the same bytes from either
             repr(getattr(cc, "counts", cc)),
             repr(numth.poisson_fit(cc, numth.omega_stats(n).lam)),
             repr(numth.omega_table([10, 100, 1000, 5000, 10 ** 4, 5 * 10 ** 4, 10 ** 5,
                                     3 * 10 ** 5, 7 * 10 ** 5, n]))]
    assert len(reprs) == 12
    digest = hashlib.sha256("\n".join(reprs).encode()).hexdigest()
    assert digest == NUMTH_SHA256
