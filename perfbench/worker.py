"""One run of one workload in a fresh process; started by run.py.

Writes a JSON record to --result: monotonic timestamps of the end of
set-up and of the timed window, peak resident memory at the end of the
window, a digest of the files the window wrote, the oracle checks (with
--check 1) and the per-layer metrics (with --trace 1).  Spans of a traced
run go to --spans.
"""

import argparse
import contextlib
import hashlib
import io
import json
import resource
import time
from pathlib import Path

import layers
import tracing
import workloads


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer)
    work = workloads.WORKLOADS[args.workload](args.seed, args.out)
    work.setup()
    setup_end = time.monotonic()

    stdout = io.StringIO()
    tracer.recording = bool(args.trace)
    run_start = time.monotonic()
    with contextlib.redirect_stdout(stdout):
        work.run()
    run_end = time.monotonic()
    tracer.recording = False
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # Repetitions write to different directories; the digest ignores which.
    digest = hashlib.sha256(stdout.getvalue().replace(str(args.out), "<out>").encode())
    for path in work.outputs():
        with open(path, "rb") as fh:
            digest.update(hashlib.file_digest(fh, "sha256").digest())
    record = {
        "setup_end": setup_end, "run_start": run_start, "run_end": run_end,
        "peak_rss_kib": peak_kib, "digest": digest.hexdigest(),
        "checks": [(name, bool(ok), detail) for name, ok, detail
                   in (work.check(stdout.getvalue()) if args.check else [])],
        "layers": layers.layer_metrics(tracer.spans, tracer.counts()) if args.trace else None,
    }
    if args.trace and args.spans:
        with open(args.spans, "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts()}, fh)
    with open(args.result, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
