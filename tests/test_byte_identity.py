"""Byte-identity guard: fixed-seed outputs must keep their exact bytes.

The hashes were recorded before the duplicate-removal refactor and pin
behaviour for later performance work: a faster path that changes any
JSONL or CSV byte fails here.
"""

import hashlib
import io

from mobiuswalk import battery, cli

BATTERY_SHA256 = "f03eab5ae3baa1643761dd0a42e3004b09615a26241dadc3679dd94fabb43102"
RESIDUE_SHA256 = "76ef77551bcdac3b63e4449f3f277faf54a46d13ff6d753f2fc898240ed06067"


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


def test_residue_table_bytes(tmp_path):
    out = tmp_path / "residue.csv"
    assert cli.main(["tables", "--which", "residue", "--q", "7", "--x", "1e6",
                     "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RESIDUE_SHA256
