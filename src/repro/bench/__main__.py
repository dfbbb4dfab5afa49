"""Command-line figure runner and artifact comparator.

Usage::

    python -m repro.bench fig13                   # one figure
    python -m repro.bench fig10 --scale 0.5       # half-length windows
    python -m repro.bench all -o results.txt
    python -m repro.bench fig10 --json-dir out/   # + BENCH_fig10.json
    python -m repro.bench fig10 --profile         # cProfile + per-run times
    python -m repro.bench fig10 --budget 12       # exit 1 if slower
    python -m repro.bench --compare base.json cur.json --tolerance 0.15

Every figure run also checks the figure's §7 claims that apply at its
scale (see :mod:`repro.bench.figures`) and exits 1 if one fails.

``--profile`` runs the sweep under cProfile, prints a per-experiment
wall-clock breakdown plus the hottest functions, and writes the raw
profile (pstats format) to ``--profile-out``; cProfile inflates the
array core's wall clock ~2.5x, so profiled numbers are only comparable
to each other (docs/PERFORMANCE.md).  ``--budget`` turns the run into
a wall-clock regression gate on *unprofiled* time, so combining it
with ``--profile`` is rejected.  ``--compare`` exits 1 when an
artifact's throughput regressed beyond ``--tolerance``.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path

from repro.bench import artifacts
from repro.bench.figures import FIGURES, run_figure
from repro.bench.harness import wallclock_probe


def _run_compare(base_path: str, current_path: str,
                 tolerance: float) -> int:
    baseline = artifacts.load_artifact(base_path)
    current = artifacts.load_artifact(current_path)
    findings = artifacts.compare(baseline, current, tolerance=tolerance)
    if findings:
        print(f"REGRESSION: {len(findings)} experiment(s) below "
              f"baseline (tolerance {tolerance:.0%})")
        for finding in findings:
            print(f"  - {finding}")
        return 1
    print(f"OK: {len(current['experiments'])} experiment(s) within "
          f"{tolerance:.0%} of baseline "
          f"({baseline['commit'][:12]} -> {current['commit'][:12]})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation figures on the "
                    "simulated testbed, or compare two BENCH_*.json "
                    "artifacts.",
    )
    parser.add_argument(
        "figure", nargs="?",
        choices=sorted(FIGURES) + ["all"],
        help="which figure to regenerate (omit with --compare)",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="scale factor on measurement windows (smaller = faster, "
             "noisier); default 1.0",
    )
    parser.add_argument(
        "-o", "--output", default=None,
        help="also write the table(s) to this file",
    )
    parser.add_argument(
        "--json-dir", default=None, metavar="DIR",
        help="also write a BENCH_<figure>.json artifact into DIR",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run under cProfile; print per-experiment wall-clock "
             "deltas and the hottest functions, and write the raw "
             "profile to --profile-out",
    )
    parser.add_argument(
        "--profile-out", default="bench_profile.prof", metavar="PATH",
        help="where --profile writes the pstats dump "
             "(default bench_profile.prof)",
    )
    parser.add_argument(
        "--budget", type=float, default=None, metavar="SECONDS",
        help="fail (exit 1) if figure generation takes longer than "
             "this many wall-clock seconds",
    )
    parser.add_argument(
        "--compare", nargs=2, metavar=("BASELINE", "CURRENT"),
        help="compare two BENCH_*.json artifacts; exit 1 if CURRENT "
             "regressed beyond --tolerance",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.15,
        help="fractional throughput-regression tolerance for --compare "
             "(default 0.15)",
    )
    args = parser.parse_args(argv)

    if args.compare:
        return _run_compare(args.compare[0], args.compare[1],
                            args.tolerance)
    if args.figure is None:
        parser.error("a figure name (or --compare) is required")
    if args.profile and args.budget is not None:
        parser.error(
            "--budget cannot be combined with --profile: cProfile "
            "inflates the kernel's wall clock ~2.5x, so a profiled "
            "measurement would fail any honest budget.  Gate on an "
            "unprofiled run (see docs/PERFORMANCE.md).")

    json_dir = None if args.json_dir is None else Path(args.json_dir)
    figures = list(FIGURES) if args.figure == "all" else [args.figure]
    profiler = cProfile.Profile() if args.profile else None
    # Monotonic elapsed-time measurement; wall-clock (time.time) is
    # banned repo-wide by dprlint DPR-D01, and repro.bench is on the
    # linter's timer allowlist precisely for this call.
    started = time.perf_counter()
    texts, failed = [], []
    with wallclock_probe() as experiment_stamps:
        if profiler is not None:
            profiler.enable()
        try:
            for figure in figures:
                run = run_figure(figure, scale=args.scale)
                if json_dir is not None:
                    path = json_dir / artifacts.artifact_name(figure)
                    artifacts.write_artifact(artifacts.build_artifact(
                        figure, args.scale, run.results), path)
                    print(f"[wrote {path}]")
                texts.append(run.text)
                failed += [f"{figure}: {claim}" for claim in run.failed]
        finally:
            if profiler is not None:
                profiler.disable()
    elapsed = time.perf_counter() - started
    text = "\n\n".join(texts)
    print(text)
    print(f"\n[{args.figure} generated in {elapsed:.1f}s wall-clock]")
    if profiler is not None:
        _report_profile(profiler, args.profile_out, experiment_stamps,
                        started)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    for claim in failed:
        print(f"CLAIM FAILED: {claim}")
    if args.budget is not None and elapsed > args.budget:
        print(f"BUDGET EXCEEDED: {elapsed:.1f}s > {args.budget:.1f}s "
              f"allowed (see docs/PERFORMANCE.md)")
        return 1
    if args.budget is not None:
        print(f"[within budget: {elapsed:.1f}s <= {args.budget:.1f}s]")
    return 1 if failed else 0


def _report_profile(profiler: cProfile.Profile, out_path: str,
                    stamps, started: float) -> None:
    """Print the --profile breakdown and dump the raw pstats file.

    ``stamps`` is the wallclock_probe log: one (label, perf_counter)
    pair per finished experiment, from which consecutive differences
    give each sweep point's real cost.  cProfile inflates every delta
    ~2.5x on the array core (measured: 41.9s profiled vs 17.1s real for
    a full fig10 sweep); the deltas are still comparable to *each
    other*, which is what attributing a sweep's cost to its points
    needs — they are never comparable to budgets.
    """
    if stamps:
        print("\nper-experiment wall-clock "
              "(profiled: ~2.5x inflated, compare only within this run):")
        previous = started
        for label, stamp in stamps:
            print(f"  {stamp - previous:8.2f}s  {label}")
            previous = stamp
    stats = pstats.Stats(profiler)
    stats.dump_stats(out_path)
    print(f"\n[profile written to {out_path}]")
    print("hottest functions by cumulative time:")
    stats.sort_stats("cumulative")
    stats.stream = sys.stdout
    stats.print_stats(20)


if __name__ == "__main__":
    sys.exit(main())
