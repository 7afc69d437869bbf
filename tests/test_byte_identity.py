"""Byte-identity guard: fixed-seed outputs must keep their exact bytes.

Each hash was recorded on the code before the refactor that added it
(the battery and residue hashes before the duplicate removal, the pi,
omega and divisor table hashes before the divisor tally left the scan,
the uniformity report hash before the chi-square tails were unified)
and pins behaviour for later performance work: a faster path that changes
any JSONL or CSV byte fails here.
"""

import hashlib
import io
import json

import pytest

from mobiuswalk import battery, cli

BATTERY_SHA256 = "f03eab5ae3baa1643761dd0a42e3004b09615a26241dadc3679dd94fabb43102"
# 60 blocks reach UNIFORMITY_MIN_SIZE, so the summary carries uniformity_pbar
UNIFORMITY_SHA256 = "f6f32cad5c86b686a8cf21f9ec9074995a5aad2faf1cee4628378566676288f3"
RESIDUE_SHA256 = "76ef77551bcdac3b63e4449f3f277faf54a46d13ff6d753f2fc898240ed06067"
# `tables --which <name> --n 1e6`
TABLE_SHA256 = {
    "pi": "d707a71cb4ffa55d2d375509e94477b67585378beeea2bcc42153d4df6814b5b",
    "omega": "8dffa84e13d71ff7567db0eb1d0cad59caefcf849212709c887e676e30804b53",
    "divisor": "caa6919067d40b38ea3b74864a97ac1476653f84560d4cb252652d7e27cbfce5",
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
