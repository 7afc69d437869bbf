"""Command-line workbench: generate sequence files, run the battery,
emit the reference tables, and run the extreme-time experiments.

Exit codes: 0 success (and statistical pass), 1 statistical fail,
2 usage, I/O or any other error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import os
import sys

import numpy as np

from . import battery, dirichlet, extremes, mertens, numth, seqgen, statcore


def _add_gen(sub):
    p = sub.add_parser("gen", help="generate a sequence file")
    p.add_argument("--start", type=int, default=1, help="first ordinal (1-based)")
    p.add_argument("--count", type=int, required=True, help="number of bits")
    p.add_argument("--out", required=True, help="output sequence file")
    p.set_defaults(func=cmd_gen)


def cmd_gen(args) -> int:
    summary = seqgen.generate_sequence_file(args.out, args.start, args.count)
    print(f"wrote {args.out}: ordinals [{summary['start_ordinal']}, "
          f"{summary['start_ordinal'] + summary['length']}), "
          f"ones fraction {summary['ones_fraction']:.6f}")
    return 0


def _add_battery(sub):
    p = sub.add_parser("battery", help="run randomness tests over an ensemble")
    p.add_argument("--seq", required=True, help="sequence file from gen")
    p.add_argument("--tests", default="all",
                   help="comma-separated test names, or 'all'")
    p.add_argument("--blocks", type=int, required=True)
    p.add_argument("--block-len", type=int, required=True)
    p.add_argument("--start", type=int, default=None,
                   help="first block ordinal (default: sequence start)")
    p.add_argument("--gap", type=int, default=0, help="gap parameter")
    p.add_argument("--gap-policy", choices=("fixed", "random"), default="fixed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=statcore.DEFAULT_ALPHA)
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    p.add_argument("--out", default=None, help="JSONL report path (default stdout)")
    p.set_defaults(func=cmd_battery)


def cmd_battery(args) -> int:
    seq = seqgen.read_sequence(args.seq)
    start = args.start if args.start is not None else seq.start_ordinal
    end = seq.start_ordinal + seq.length
    if args.tests == "all":
        selection = battery.DEFAULT_SELECTION
    else:
        selection = tuple(t.strip() for t in args.tests.split(",") if t.strip())
    ens = mertens.build_ensemble(
        start, end, args.blocks, args.block_len,
        mertens.GapPolicy(args.gap_policy, args.gap), seed=args.seed)
    report = battery.run_battery(ens, seq, selection, seed=args.seed,
                                 alpha=args.alpha, workers=args.workers)
    if not report.proportions:
        raise ValueError("no selected test ran on blocks of this length")
    if args.out:
        with open(args.out, "w") as fh:
            report.write_jsonl(fh)
    else:
        report.write_jsonl(sys.stdout)
    return 0 if report.all_proportions_inside else 1


def _marks(n: float) -> list[int]:
    return [int(n) * k // 10 for k in range(1, 11)] if n >= 10 else [int(n)]


# name -> (CSV header, rows of the parsed arguments)
_TABLES = {
    "pi": (("n", "observed", "theoretical", "relative_error"),
           lambda args: numth.pi_table(_marks(args.n))),
    "omega": (("n", "observed", "theoretical", "relative_error"),
              lambda args: numth.omega_table(_marks(args.n))),
    "divisor": (("p", "empirical", "theoretical", "relative_error"),
                lambda args: numth.divisor_table((2, 3, 5, 7, 11, 13, 17), int(args.n))),
    "residue": (("r", "count", "estimate", "relative_error"),
                lambda args: dirichlet.progression_table(args.q, int(args.x))),
    "tau": (("order", "theoretical"), lambda args: extremes.tau_moment_table()),
}


def _add_tables(sub):
    p = sub.add_parser("tables", help="emit reference tables as CSV")
    p.add_argument("--which", required=True, choices=tuple(_TABLES))
    p.add_argument("--n", type=float, default=1e6, help="ordinal count")
    p.add_argument("--q", type=int, default=7, help="modulus for residue table")
    p.add_argument("--x", "--X", dest="x", type=float, default=5e7,
                   help="integer bound for residue table")
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_tables)


def cmd_tables(args) -> int:
    header, rows = _TABLES[args.which]
    _write_csv(args.out, header, ([f"{v:.10g}" if isinstance(v, float) else v
                                   for v in row] for row in rows(args)))
    return 0


def _add_extremes(sub):
    p = sub.add_parser("extremes", help="arcsine and tau experiments")
    p.add_argument("--seq", required=True)
    p.add_argument("--segments", type=int, default=20000)
    p.add_argument("--seg-len", type=int, default=5000)
    p.add_argument("--start", type=int, default=None)
    p.add_argument("--out", default=None, help="CSV prefix for histogram dumps")
    p.set_defaults(func=cmd_extremes)


def cmd_extremes(args) -> int:
    seq = seqgen.read_sequence(args.seq)
    start = args.start if args.start is not None else seq.start_ordinal
    t_min, t_max = extremes.segment_extremes_batch(
        seq, start, args.segments, args.seg_len)
    x = t_min / args.seg_len
    tau = (t_max - t_min) / args.seg_len
    arc = extremes.arcsine_compare(x, T=args.seg_len)
    tfit = extremes.tau_compare(tau)
    print(f"arcsine: chi2={arc.chi2:.2f} dof={arc.dof} P={arc.p_value:.4f}")
    print(f"tau:     chi2={tfit.chi2:.2f} dof={tfit.dof} P={tfit.p_value:.4f}")
    print("sample <|tau|/T> =", f"{tfit.sample_moments[0]:.4f}",
          "(theory 0.5908)")
    if args.out:
        header = ("x", "count", "empirical_density", "theory_density")
        rows = extremes.histogram_rows(x, (0.0, 1.0),
                                       lambda v: 1.0 / (np.pi * np.sqrt(v * (1 - v)))
                                       if 0 < v < 1 else 0.0)
        _write_csv(args.out + "_arcsine.csv", header, rows)
        rows = extremes.histogram_rows(tau, (-1.0, 1.0), extremes._mori_f_safe)
        _write_csv(args.out + "_tau.csv", header, rows)
    return 0


def _write_csv(path, header, rows):
    """Write header and rows as CSV to path, or to stdout when path is None."""
    with (open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout)) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mobiuswalk",
        description="square-free Mobius sequence workbench")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_gen(sub)
    _add_battery(sub)
    _add_tables(sub)
    _add_extremes(sub)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except Exception as exc:  # internal errors are never a statistical fail (1)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
