"""The four workloads: seeded inputs, the timed calls into mobiuswalk, the
files those calls write, and the oracle checks on them.

Each workload runs in a fresh process, as every CLI invocation does, so
the per-process caches (`seqgen._prime_cache` and the `lru_cache`s in
`numth` and `extremes`) are cold when the timed window opens.  `setup`
runs before the window, `run` is the window, and `check` runs after it
and shares no code with the layer it checks (see oracles.py).
"""

from __future__ import annotations

import csv
import json
import math
import re
from math import isqrt
from pathlib import Path

import numpy as np

import oracles
from mobiuswalk import battery, cli, extremes, mertens, seqgen

# A 1e5-bit block gets 22 report rows: maurer is one skipped row and the
# excursion test always gives 8 rows (one per state), skipped or not.
# A 1.41e6-bit block gets the same 22, with maurer run instead.
ROWS_PER_BLOCK = 22
TABLE_PRIMES = (2, 3, 5, 7, 11, 13, 17)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _read_jsonl(path: Path):
    with open(path) as fh:
        rows = [json.loads(line) for line in fh]
    return [r for r in rows if "test" in r], [r for r in rows if "summary" in r]


def _monobit_stat(payload_bits: np.ndarray) -> float:
    n = payload_bits.size
    return abs(2 * int(payload_bits.sum()) - n) / math.sqrt(n)


class Workload:
    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out
        self.rng = np.random.default_rng([seed, self.stream])

    def setup(self) -> None:
        pass

    def outputs(self) -> list[Path]:
        raise NotImplementedError

    def check(self, stdout: str) -> list[tuple[str, bool, str]]:
        raise NotImplementedError


class Gen(Workload):
    """`mobiuswalk gen`: 3e7 ordinals near 1e9 and 1e6 ordinals near 1e12."""

    stream = 0
    WINDOW = 48  # bits per sampled window

    def __init__(self, seed, out):
        super().__init__(seed, out)
        # nth_squarefree near 1e12 costs about sqrt(start) and is half the
        # window, so that start varies by 1% only: over [1e12, 2e12) the
        # seed alone moved wall_s by +-10%.
        self.jobs = [
            (10 ** 9 + int(self.rng.integers(10 ** 9)), 30_000_000, out / "near_1e9.msf"),
            (10 ** 12 + int(self.rng.integers(10 ** 10)), 1_000_000, out / "near_1e12.msf"),
        ]
        self.codes = []

    def run(self):
        for start, count, path in self.jobs:
            self.codes.append(cli.main(["gen", "--start", str(start), "--count",
                                        str(count), "--out", str(path)]))

    def outputs(self):
        return [path for _, _, path in self.jobs]

    def check(self, stdout):
        checks = []
        last = max(start + count for start, count, _ in self.jobs)
        root = isqrt(int(last * 1.7)) + 1
        mu, primes = oracles.mobius_upto(root), oracles.primes_upto(root)
        printed = dict(re.findall(r"wrote (.+?): ordinals .* ones fraction (\S+)", stdout))
        for (start, count, path), code in zip(self.jobs, self.codes):
            tag = path.name
            checks.append((f"{tag}: exit code", code == 0, f"got {code}"))
            magic, version, f_start, f_len, payload = oracles.read_msf(path)
            checks.append((f"{tag}: header", (magic, version, f_start, f_len,
                                              payload.size) ==
                           (b"MSF1", 1, start, count, (count + 7) // 8),
                           f"{magic!r} v{version} [{f_start}, +{f_len}) {payload.size} B"))
            ones = int(np.unpackbits(payload, count=count, bitorder="little").sum())
            checks.append((f"{tag}: printed ones fraction",
                           printed.get(str(path)) == f"{ones / count:.6f}",
                           f"printed {printed.get(str(path))}, popcount gives "
                           f"{ones / count:.6f}"))
            offsets = (0, int(self.rng.integers(count - self.WINDOW)), count - self.WINDOW)
            for off in offsets:
                x = oracles.locate_squarefree(start + off, mu)
                want = oracles.squarefree_bits_from(x, self.WINDOW, primes)
                got = oracles.payload_bits(payload, off, self.WINDOW).tolist()
                checks.append((f"{tag}: bits at ordinal {start + off} vs trial division",
                               got == want, f"got {got}, want {want}"))
        return checks


class Tables(Workload):
    """`mobiuswalk tables` for pi and divisor at N ~ 1e7, residue at X ~ 5e7."""

    stream = 1

    def __init__(self, seed, out):
        super().__init__(seed, out)
        self.n = int(10 ** 7 * self.rng.uniform(0.97, 1.03))
        self.x = int(5 * 10 ** 7 * self.rng.uniform(0.97, 1.03))
        self.paths = {w: out / f"{w}.csv" for w in ("pi", "divisor", "residue")}
        self.codes = []

    def run(self):
        for which, extra in (("pi", ["--n", str(self.n)]),
                             ("divisor", ["--n", str(self.n)]),
                             ("residue", ["--q", "7", "--x", str(self.x)])):
            self.codes.append(cli.main(["tables", "--which", which, *extra,
                                        "--out", str(self.paths[which])]))

    def outputs(self):
        return list(self.paths.values())

    def _rows(self, which, header):
        with open(self.paths[which], newline="") as fh:
            rows = list(csv.reader(fh))
        return rows[0] == header, rows[1:]

    def check(self, stdout):
        checks = [(f"tables exit code {c}", c == 0, "") for c in self.codes]
        n, x = self.n, self.x
        reach = int(n * 1.66) + 16 * isqrt(n)
        flags = oracles.squarefree_flags(max(x, reach))
        sqf = np.flatnonzero(flags[:reach + 1])
        if sqf.size < n:
            return checks + [("square-free oracle reach", False, f"{sqf.size} < {n}")]
        is_prime = np.zeros(reach + 1, dtype=bool)
        is_prime[oracles.primes_upto(reach)] = True
        primes_upto = np.cumsum(is_prime, dtype=np.int64)

        ok, rows = self._rows("pi", ["n", "observed", "theoretical", "relative_error"])
        checks.append(("pi: header", ok, ""))
        marks = [n * k // 10 for k in range(1, 11)]
        checks.append(("pi: row count", len(rows) == len(marks), f"{len(rows)} rows"))
        for row, mark in zip(rows, marks):
            sqf_n = int(sqf[mark - 1])
            observed = int(primes_upto[sqf_n])
            theory = oracles.li_offset(sqf_n)
            ok = (int(row[0]) == mark and int(row[1]) == observed
                  and _close(float(row[2]), theory, 1e-9)
                  and _close(float(row[3]), abs(theory - observed) / observed, 1e-6))
            checks.append((f"pi: row n={mark}", ok,
                           f"got {row}, want {mark}, {observed}, {theory:.10g}"))

        ok, rows = self._rows("divisor", ["p", "empirical", "theoretical", "relative_error"])
        checks.append(("divisor: header", ok, ""))
        checks.append(("divisor: row count", len(rows) == len(TABLE_PRIMES), f"{len(rows)}"))
        first_n = sqf[:n]
        for row, p in zip(rows, TABLE_PRIMES):
            share = int(np.count_nonzero(first_n % p == 0)) / n
            ok = row[:3] == [str(p), f"{share:.10g}", f"{1.0 / (p + 1):.10g}"]
            checks.append((f"divisor: row p={p}", ok, f"got {row[:3]}, want {share:.10g}"))

        ok, rows = self._rows("residue", ["r", "count", "estimate", "relative_error"])
        checks.append(("residue: header", ok, ""))
        counts = np.zeros(7, dtype=np.int64)
        step = 1 << 23
        for lo in range(2, x + 1, step):
            hi = min(lo + step, x + 1)
            counts += np.bincount((np.flatnonzero(flags[lo:hi]) + lo) % 7, minlength=7)
        density = 6.0 / math.pi ** 2
        checks.append(("residue: row count", len(rows) == 7, f"{len(rows)}"))
        for row, r in zip(rows, range(7)):
            est = density * x / 8 if r == 0 else density * (x / 7) / (1 - 1 / 49)
            ok = (int(row[0]) == r and int(row[1]) == int(counts[r])
                  and _close(float(row[2]), est, 1e-9))
            checks.append((f"residue: row r={r}", ok,
                           f"got {row[:3]}, want {counts[r]}, {est:.10g}"))
        return checks


class Battery(Workload):
    """`run_battery_on_blocks` over 30 fair-coin blocks of 1.41e6 bits, 2 workers."""

    stream = 2
    BLOCKS, BLOCK_LEN, WORKERS, SAMPLED = 30, 1_410_000, 2, 2

    def __init__(self, seed, out):
        super().__init__(seed, out)
        self.path = out / "battery.jsonl"

    def setup(self):
        self.blocks = [(i * self.BLOCK_LEN,
                        self.rng.integers(0, 2, size=self.BLOCK_LEN, dtype=np.uint8))
                       for i in range(self.BLOCKS)]

    def run(self):
        self.report = battery.run_battery_on_blocks(
            self.blocks, battery.DEFAULT_SELECTION, seed=self.seed,
            workers=self.WORKERS)
        with open(self.path, "w") as fh:
            self.report.write_jsonl(fh)

    def outputs(self):
        return [self.path]

    def check(self, stdout):
        rows, summaries = _read_jsonl(self.path)
        checks = [("report rows", len(rows) == self.BLOCKS * ROWS_PER_BLOCK
                   and len(summaries) == 1, f"{len(rows)} test rows, "
                   f"{len(summaries)} summaries")]
        for row in rows:
            if row["test"] == "monobit":
                bits = self.blocks[row["block_start"] // self.BLOCK_LEN][1]
                checks.append((f"monobit at {row['block_start']} vs popcount",
                               _close(row["statistic"], _monobit_stat(bits), 1e-12),
                               f"{row['statistic']}"))
        for i in sorted(self.rng.choice(self.BLOCKS, self.SAMPLED, replace=False)):
            start, bits = self.blocks[i]
            mine = [r for s, _, r in self.report.block_results if s == start]
            # Earlier empty blocks keep the block index (and with it the
            # cross-correlation substream) while skipping every test.
            again = battery.run_battery_on_blocks(
                [(s, bits[:0]) for s, _ in self.blocks[:i]] + [(start, bits)],
                battery.DEFAULT_SELECTION, seed=self.seed, workers=1)
            theirs = [r for s, _, r in again.block_results if s == start]
            checks.append((f"block {i}: rows with workers=1",
                           list(map(repr, mine)) == list(map(repr, theirs)),
                           f"{len(mine)} vs {len(theirs)} rows"))
            n_mats = bits.size // 1024
            ranks = oracles.gf2_ranks(bits[:n_mats * 1024].reshape(n_mats, 32, 32))
            want = {"full": int(np.sum(ranks == 32)), "minus_one": int(np.sum(ranks == 31)),
                    "rest": int(np.sum(ranks < 31))}
            got = next(r.aux for r in mine if r.test_name == "matrix_rank")
            checks.append((f"block {i}: matrix_rank classes vs elimination",
                           got == want, f"got {got}, want {want}"))
        return checks


class Corpus(Workload):
    """Battery, extremes and block moments read from a 6e7-ordinal MSF corpus."""

    stream = 3
    LENGTH = 60_000_000
    BLOCKS, BLOCK_LEN = 200, 100_000
    SEGMENTS, SEG_LEN = 10_000, 5_000
    ENSEMBLE, ENSEMBLE_LEN, GAP = 20_000, 1_000, 1_000
    SAMPLED = 16

    def __init__(self, seed, out):
        super().__init__(seed, out)
        self.msf = out / "corpus.msf"
        self.report = out / "battery.jsonl"
        self.moments = out / "moments.json"
        self.ext_start = 1 + int(self.rng.integers(self.LENGTH - self.SEGMENTS * self.SEG_LEN))
        # `mobiuswalk extremes` prints only summary statistics; keep the
        # t_min/t_max arrays it computed so that check() can test them.
        self.segments = None
        original = extremes.segment_extremes_batch

        def keep_segments(*args, **kwargs):
            self.segments = original(*args, **kwargs)
            return self.segments
        extremes.segment_extremes_batch = keep_segments

    def setup(self):
        seqgen.generate_sequence_file(self.msf, 1, self.LENGTH)

    def run(self):
        msf = str(self.msf)
        self.codes = [
            cli.main(["battery", "--seq", msf, "--blocks", str(self.BLOCKS),
                      "--block-len", str(self.BLOCK_LEN), "--gap", str(self.GAP),
                      "--gap-policy", "random", "--seed", str(self.seed),
                      "--out", str(self.report)]),
            cli.main(["extremes", "--seq", msf, "--segments", str(self.SEGMENTS),
                      "--seg-len", str(self.SEG_LEN), "--start", str(self.ext_start)]),
        ]
        seq = seqgen.read_sequence(self.msf)
        ens = mertens.build_ensemble(1, self.LENGTH + 1, self.ENSEMBLE, self.ENSEMBLE_LEN,
                                     mertens.GapPolicy("random", self.GAP), seed=self.seed)
        rep = mertens.moment_estimates(ens, seq)
        self.starts = ens.starts
        with open(self.moments, "w") as fh:
            json.dump({"moments": rep.moments, "z": [rep.z_mean, rep.z_variance,
                                                     rep.z_fourth]}, fh)

    def outputs(self):
        return [self.msf, self.report, self.moments]

    def check(self, stdout):
        checks = [(f"exit code {c} is 0 or 1", c in (0, 1), "") for c in self.codes]
        magic, version, f_start, f_len, payload = oracles.read_msf(self.msf)
        checks.append(("corpus header", (magic, version, f_start, f_len) ==
                       (b"MSF1", 1, 1, self.LENGTH), f"{magic!r} [{f_start}, +{f_len})"))
        root = isqrt(int(self.LENGTH * 1.7)) + 1
        mu, primes = oracles.mobius_upto(root), oracles.primes_upto(root)
        for ordinal in (1, 1 + int(self.rng.integers(self.LENGTH - 64))):
            want = oracles.squarefree_bits_from(oracles.locate_squarefree(ordinal, mu), 64, primes)
            got = oracles.payload_bits(payload, ordinal - 1, 64).tolist()
            checks.append((f"corpus bits at ordinal {ordinal} vs trial division",
                           got == want, f"got {got}, want {want}"))

        rows, summaries = _read_jsonl(self.report)
        checks.append(("report rows", len(rows) == self.BLOCKS * ROWS_PER_BLOCK
                       and len(summaries) == 1,
                       f"{len(rows)} test rows, {len(summaries)} summaries"))
        for row in rows:
            if row["test"] == "monobit":
                bits = oracles.payload_bits(payload, row["block_start"] - 1, row["block_len"])
                checks.append((f"monobit at {row['block_start']} vs popcount",
                               _close(row["statistic"], _monobit_stat(bits), 1e-12),
                               f"{row['statistic']}"))

        starts = np.asarray(self.starts, dtype=np.int64)
        L = self.ENSEMBLE_LEN
        checks.append(("ensemble layout", starts.size == self.ENSEMBLE and starts[0] >= 1
                       and bool(np.all(np.diff(starts) >= L + self.GAP // 2))
                       and starts[-1] + L <= self.LENGTH + 1, ""))
        sums = np.array([2 * int(oracles.payload_bits(payload, s - 1, L).sum()) - L
                         for s in starts.tolist()], dtype=np.float64)
        with open(self.moments) as fh:
            got = {int(k): v for k, v in json.load(fh)["moments"].items()}
        want = {k: float(np.mean(sums ** k)) for k in range(1, 5)}
        checks.append(("block moments vs popcounts",
                       all(_close(got[k], want[k], 1e-9) for k in want),
                       f"got {got}, want {want}"))

        t_min, t_max = self.segments
        T = self.SEG_LEN
        picks = {0, self.SEGMENTS - 1, *self.rng.integers(self.SEGMENTS, size=self.SAMPLED)}
        for i in sorted(picks):
            offset = self.ext_start - 1 + i * T
            want = oracles.walk_extremes_loop(oracles.payload_bits(payload, offset, T).tolist())
            got = (int(t_min[i]), int(t_max[i]))
            checks.append((f"segment {i}: t_min, t_max vs loop", got == want,
                           f"got {got}, want {want}"))
        printed = re.search(r"sample <\|tau\|/T> = (\S+)", stdout)
        mean_tau = float(np.mean(np.abs((t_max - t_min) / T)))
        checks.append(("printed <|tau|/T>", printed is not None
                       and printed.group(1) == f"{mean_tau:.4f}",
                       f"printed {printed and printed.group(1)}, want {mean_tau:.4f}"))
        return checks


WORKLOADS = {"gen": Gen, "tables": Tables, "battery": Battery, "corpus": Corpus}
