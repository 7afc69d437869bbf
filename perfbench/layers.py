"""Per-layer metrics computed from the spans of one traced run.

A span's self time is its duration minus the durations of its child spans.
Most `_s` metrics are self times.  A few are inclusive, where the cost of
the whole operation is what a reader wants: `nth_squarefree`, for example,
spends all its time in its sieve calls.  Battery tests are measured in
thread CPU time.  README.md in this directory defines each metric and maps
it to the end-to-end metric it should move.
"""

from __future__ import annotations

from collections import defaultdict

# battery selection name -> traced function behind it
BATTERY_TESTS = {
    "monobit": "battery.monobit",
    "serial_m2": "battery.serial_m2",
    "serial_m3": "battery.serial_m3",
    "serial_m4": "battery.serial_m4",
    "serial_m5": "battery.serial_m5",
    "oscillation": "battery.oscillation",
    "longest_run": "battery.longest_run_of_ones",
    "matrix_rank": "battery.matrix_rank",
    "spectral": "battery.spectral_dft",
    "template": "battery.nonoverlapping_template",
    "maurer": "battery.maurer_universal",
    "entropy": "battery.approximate_entropy",
    "cumsum": "battery.cumulative_sums",
    "excursions": "battery.random_excursions",
    "cross_correlation": "battery.cross_correlation_random",
}

SIEVE = ("seqgen.iter_mobius", "seqgen.mobius_range", "seqgen.base_primes")
WRITE = ("seqgen.generate_sequence_file", "seqgen.write_sequence",
         "seqgen.iter_restricted_bits", "seqgen.restricted_sequence")
SLICE = ("seqgen.BitSequence.slice_bits", "seqgen.BitSequence.slice_mu")

# Counts that must repeat exactly for a fixed seed.
EXACT_COUNTS = ("seqgen.squarefree_count_calls", "seqgen.sieve_segments",
                "battery.gf2_rank_calls", "seqgen.slice_calls",
                "numth.li_calls", "statcore.calls")


def _totals(spans):
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    incl, own, cpu = defaultdict(float), defaultdict(float), defaultdict(float)
    calls, attrs = defaultdict(int), defaultdict(float)
    for s in spans:
        dur = s["end"] - s["start"]
        name = s["name"]
        incl[name] += dur
        cpu[name] += s["cpu"]
        own[name] += dur - child[s["id"]]
        calls[name] += 1
        for key in ("integers", "bytes"):
            if key in s:
                attrs[name, key] += s[key]
                attrs[name, "items"] += 1
    return incl, own, cpu, calls, attrs


def layer_metrics(spans, counts) -> dict:
    """Every per-layer metric of BENCHMARK.json except the tracing overhead."""
    incl, own, cpu, calls, attrs = _totals(spans)

    def self_s(names):
        return sum(own[n] for n in names)

    sieve_s = self_s(SIEVE)
    integers = attrs["seqgen.iter_mobius", "integers"]
    m = {
        "seqgen.sieve_s": sieve_s,
        "seqgen.sieve_mints_per_s": integers / sieve_s / 1e6 if sieve_s else 0.0,
        "seqgen.sieve_segments": int(attrs["seqgen.iter_mobius", "items"]),
        "seqgen.nth_squarefree_s": incl["seqgen.nth_squarefree"],
        "seqgen.squarefree_count_calls": calls["seqgen.squarefree_count"],
        "seqgen.write_s": self_s(WRITE),
        "seqgen.bytes_written": int(attrs["seqgen.generate_sequence_file", "bytes"]
                                    + attrs["seqgen.write_sequence", "bytes"]),
        "seqgen.read_s": incl["seqgen.read_sequence"],
        "seqgen.bytes_read": int(attrs["seqgen.read_sequence", "bytes"]),
        "seqgen.slice_s": self_s(SLICE),
        "seqgen.slice_calls": calls["seqgen.BitSequence.slice_bits"],
        "numth.scan_s": own["numth.scan_squarefree"],
        "numth.li_s": incl["numth.li_squarefree"],
        "numth.li_calls": calls["numth.li_squarefree"],
        "dirichlet.progression_s": own["dirichlet.progression_table"],
        "mertens.ensemble_s": incl["mertens.build_ensemble"],
        "mertens.block_sums_s": own["mertens.block_sums"],
        "extremes.walk_s": own["extremes.segment_extremes_batch"]
                           + own["extremes.walk_extremes"],
        "extremes.fit_s": incl["extremes.arcsine_compare"] + incl["extremes.tau_compare"],
    }
    # The battery runs its tests on worker threads.  A test's thread CPU
    # time leaves out the time that thread waited for the GIL.
    busy = 0.0
    for test, span in BATTERY_TESTS.items():
        n = calls[span]
        m[f"battery.{test}_ms"] = 1e3 * cpu[span] / n if n else 0.0
        busy += cpu[span]
    capacity = sum((s["end"] - s["start"]) * s["workers"] for s in spans
                   if s["name"] == "battery.run_battery_on_blocks")
    m["battery.gf2_rank_calls"] = counts.get("battery.gf2_rank", 0)
    m["battery.aggregate_s"] = incl["battery.BatteryReport.aggregate"]
    m["battery.busy_ratio"] = busy / capacity if capacity else 0.0
    m["statcore.calls"] = sum(n for name, n in calls.items()
                              if name.startswith("statcore."))
    m["statcore.s"] = sum(t for name, t in own.items() if name.startswith("statcore."))
    m["cli.self_s"] = sum(t for name, t in own.items() if name.startswith("cli."))
    return m
