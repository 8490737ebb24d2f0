#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/test_perfbench.py [--workload NAME ...]

For each workload: two runs with the same seed must agree exactly on
every deterministic metric (end to end and per layer), every run must
pass its own correctness checks, and a different seed must record
different traces. Builds like run.py does; takes a few minutes.
"""

import argparse
import contextlib
import io
import sys

import run

# End-to-end metrics that are pure functions of the seed.
EXACT_END_TO_END = ("recovery_ratio", "recall", "precision",
                    "trace_mb_per_traced_s", "tracing_pct_of_core_capacity")
# Per-layer counts and ratios that are pure functions of the seed.
# Service, exec and the streaming detector's counters are not: they
# depend on which sessions overlap and on whether a re-streamed session
# finds its checkpoint already written.
EXACT_PER_LAYER = (
    "trace.bytes_per_sample", "trace.segments_dropped",
    "pmu.insns_decoded", "replay.samples_aligned",
    "replay.samples_unaligned", "replay.windows",
    "replay.inconsistent_share", "replay.backward_rounds",
    "replay.recovered_forward", "replay.recovered_backward",
    "replay.recovered_constant", "replay.pm_lookups",
    "replay.pm_bulk_invalidations", "analysis.pointsto_constraints",
    "core.prefilter_pruned_share", "core.regeneration_rounds",
    "detect.events", "detect.fast_path_share", "detect.folded_events")
SEED = 5
SECONDS = 1


def exact_metrics(result, names):
    return {name: result["metrics"][name]["value"] for name in names}


def quiet_run(workload, seed, trace):
    """run.run() without echoing the benchmark's tables."""
    with contextlib.redirect_stdout(io.StringIO()):
        return run.run(workload, seed, SECONDS, trace)


def check_workload(workload):
    failures = []
    digests = []
    for trace in (0, 1):
        runs = []
        for _ in range(2):
            result, setup = quiet_run(workload, SEED, trace)
            digests.append(setup["digest"])
            if not result["correct"] or result["failed"]:
                failures.append("%s trace=%d: %d of %d checks failed"
                                % (workload, trace, result["failed"],
                                   result["attempted"]))
            runs.append(exact_metrics(
                result, EXACT_PER_LAYER if trace else EXACT_END_TO_END))
        for name, value in runs[0].items():
            if runs[1][name] != value:
                failures.append("%s trace=%d: %s differs across runs of "
                                "seed %d: %r vs %r"
                                % (workload, trace, name, SEED, value,
                                   runs[1][name]))
    if len(set(digests)) != 1:
        failures.append("%s: seed %d recorded different traces"
                        % (workload, SEED))
    _, other = quiet_run(workload, SEED + 1, 0)
    if other["digest"] == digests[0]:
        failures.append("%s: seeds %d and %d recorded identical traces"
                        % (workload, SEED, SEED + 1))
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=run.WORKLOADS)
    args = parser.parse_args()
    failures = []
    for workload in args.workload or run.WORKLOADS:
        found = check_workload(workload)
        print("%-12s %s" % (workload, "ok" if not found else "FAILED"))
        failures += found
    for failure in failures:
        print("  " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
