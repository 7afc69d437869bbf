"""Benchmark entry point for mobiuswalk.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the root of a checkout.  Each repetition of the workload is a
fresh worker process (worker.py), so per-process caches start cold, as
they do for every CLI invocation; the page cache stays warm.  Repetitions
run until T seconds have passed, with at least MIN_RUNS of them, and the
end-to-end metrics are their medians.  With --trace 1 each repetition is a
pair, one untraced and one traced, with at least MIN_TRACED_PAIRS of them;
the per-layer metrics are medians over the traced ones.  The first repetition runs the oracle checks; every later one
must write byte-identical outputs.  The last line of stdout is the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "mobiuswalk"
WORK = ROOT / ".perfbench_work"
MIN_RUNS = 3
MIN_TRACED_PAIRS = 2  # two traced runs show that the exact counts repeat
RUN_LIMIT_S = 140  # stop starting repetitions past this, to end within 180 s
WORKER_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
from layers import EXACT_COUNTS  # noqa: E402


class RunFailed(RuntimeError):
    pass


def git_sha() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(workload: str, seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SOURCE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "workload": workload,
        "seed": seed,
        "process_caches": "cold: every repetition is a fresh process",
        "page_cache": "warm: the benchmark cannot drop the page cache, so "
                      "reads after the first are served from memory",
    }


def run_worker(args, work: Path, index: int, traced: bool, check: bool) -> dict:
    out = work / f"{index}-{'traced' if traced else 'plain'}"
    out.mkdir()
    result = out / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(out), "--result", str(result),
           "--trace", str(int(traced)), "--check", str(int(check))]
    if traced:
        cmd += ["--spans", str(WORK / f"spans-{args.workload}-seed{args.seed}.json")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"worker timed out after {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with code {proc.returncode}")
    with open(result) as fh:
        record = json.load(fh)
    shutil.rmtree(out)
    record["setup_s"] = record["setup_end"] - start
    record["wall_s"] = record["run_end"] - record["run_start"]
    return record


def repeat(args, work: Path) -> tuple[list, list]:
    plain, traced = [], []
    began = time.monotonic()
    while True:
        index = len(plain)
        plain.append(run_worker(args, work, index, traced=False, check=index == 0))
        if args.trace:
            traced.append(run_worker(args, work, index, traced=True, check=False))
        elapsed = time.monotonic() - began
        per_run = elapsed / len(plain)
        enough = len(plain) >= (MIN_TRACED_PAIRS if args.trace else MIN_RUNS)
        if enough and elapsed + per_run > args.seconds:
            return plain, traced
        if elapsed + per_run > RUN_LIMIT_S:
            return plain, traced


def checks_of(plain: list, traced: list) -> list:
    first = plain[0]
    checks = [tuple(c) for c in first["checks"]]
    for i, rec in enumerate(plain[1:] + traced, 1):
        checks.append((f"repetition {i} wrote the same outputs as the first",
                       rec["digest"] == first["digest"], rec["digest"][:16]))
    for rec in traced[1:]:
        for name in EXACT_COUNTS:
            a, b = traced[0]["layers"][name], rec["layers"][name]
            checks.append((f"{name} repeats", a == b, f"{a} vs {b}"))
    return checks


def metrics_of(args, plain: list, traced: list) -> dict:
    median = statistics.median
    if not args.trace:
        return {
            "wall_s": median(r["wall_s"] for r in plain),
            "setup_s": median(r["setup_s"] for r in plain),
            "peak_rss_mib": median(r["peak_rss_kib"] / 1024 for r in plain),
        }
    out = {name: median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
    out["bench.trace_overhead_s"] = (median(r["wall_s"] for r in traced)
                                     - median(r["wall_s"] for r in plain))
    return out


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SOURCE / "__init__.py").is_file():
        print(f"error: no mobiuswalk sources at {SOURCE}", file=sys.stderr)
        return 2
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir()
    try:
        plain, traced = repeat(args, work)
    except RunFailed as exc:
        print(f"error: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = checks_of(plain, traced)
    measured = metrics_of(args, plain, traced)
    if set(measured) != set(declared):
        print(f"error: metrics {sorted(set(measured) ^ set(declared))} differ from "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    failed = [c for c in checks if not c[1]]
    for name, _, detail in failed:
        print(f"FAILED {name}: {detail}", file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": measured[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    stamp = provenance(args.workload, args.seed)
    with open(WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump({"provenance": stamp, "result": result, "checks": checks,
                   "repetitions": {"plain": plain, "traced": traced}}, fh, indent=1)
    print(f"{args.workload} seed {args.seed}: {len(plain)} repetitions, "
          f"{len(checks) - len(failed)}/{len(checks)} checks passed", file=sys.stderr)
    print("provenance " + json.dumps(stamp, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
