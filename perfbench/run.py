"""The repository benchmark: three workloads, timed in host and sim time.

Usage (from the repository root)::

    python3 perfbench/run.py --workload closed-dfaster --seed 1 --seconds 30
    python3 perfbench/run.py --workload all --trace 1

Each repeat of a workload runs in a fresh child process (so imports,
set-up and peak memory are measured per repeat); repeats continue until
``--seconds`` of host time are spent, at least ``MIN_REPEATS`` of them.
Host metrics are medians over the repeats, times scaled for the
machine's speed as timed by ``reference()``.  Sim metrics are pure
functions of the seed: any difference between repeats is reported as a
nondeterminism failure.  ``--trace 1`` runs one untraced repeat and
then traced repeats, and reports the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is nonzero when any correctness check fails.  See perfbench/README.md.
"""

import argparse
import gc
import heapq
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
CHILD_MARK = "PERFBENCH-CHILD "

WORKLOADS = ("closed-dfaster", "openloop-knee", "replicated-failover")
MIN_REPEATS = 3
#: A run stops launching repeats once the next one could end past this.
RUN_BUDGET_S = 150.0
CHILD_TIMEOUT_S = 170.0

#: (name, unit, time base) of every end-to-end metric.  Each workload
#: prints those that apply to it.
END_TO_END = [
    ("run_s", "s", "host"),
    ("setup_s", "s", "host"),
    ("peak_rss_mb", "MB", "host"),
    ("tput_mops", "Mops/s", "sim"),
    ("commit_tput_mops", "Mops/s", "sim"),
    ("op_p50_ms", "ms", "sim"),
    ("op_p99_ms", "ms", "sim"),
    ("commit_p50_ms", "ms", "sim"),
    ("commit_p99_ms", "ms", "sim"),
    ("commit_p999_ms", "ms", "sim"),
    ("read_mops", "Mops/s", "sim"),
    ("slo_rate_ksess", "ksess/s", "sim"),
    ("recovery_ms", "ms", "sim"),
    ("failed_frac", "ratio", "sim"),
]
UNITS = {name: unit for name, unit, _base in END_TO_END}
HOST = ("run_s", "setup_s", "peak_rss_mb")
#: Host times are scaled to a machine on which ``reference()`` takes
#: this long (see "Host time" in perfbench/README.md).
NOMINAL_REFERENCE_S = 0.2


def gated(trace: bool) -> dict:
    """Name -> unit of the metrics BENCHMARK.json gates, which are the
    metrics of the JSON result line: the per-layer ones with ``trace``,
    else the end-to-end ones."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"]
            for metric in spec["per_layer" if trace else "end_to_end"]}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio") or name.endswith("_reuse"):
        return "ratio"
    if name == "storage.bytes":
        return "bytes"
    return "count"


# -- machine speed -------------------------------------------------------------


class _Job:
    __slots__ = ("key", "size", "done")

    def __init__(self, key: int, size: float):
        self.key = key
        self.size = size
        self.done = 0.0


def reference(steps: int = 100_000) -> float:
    """Host seconds a fixed pure-Python event loop takes.

    A heap of timed wake-ups resuming generator processes that allocate
    small slotted objects and update dicts: the simulator's mix of work,
    with no code from the program, so no change to the program moves it.
    Only how fast this machine runs Python right now does.
    """
    # The collector stays off: in a child holding a finished cluster its
    # passes would time the heap, not the machine.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _reference_loop(steps)
    finally:
        if was_enabled:
            gc.enable()


def _reference_loop(steps: int) -> float:
    rng = random.Random(2021)
    tables = [{} for _ in range(16)]
    backlogs = [[] for _ in range(16)]

    def process(index):
        table, backlog = tables[index], backlogs[index]
        while True:
            now = yield
            backlog.append(_Job(rng.randrange(4096), rng.random()))
            if len(backlog) > 8:
                for job in backlog:
                    job.done = now
                    table[job.key] = table.get(job.key, 0.0) + job.size
                backlog.clear()

    processes = [process(index) for index in range(16)]
    for proc in processes:
        next(proc)
    heap = [(rng.random(), index, index) for index in range(16)]
    heapq.heapify(heap)
    sequence = len(heap)
    start = time.perf_counter()
    for _ in range(steps):
        when, _seq, index = heapq.heappop(heap)
        processes[index].send(when)
        sequence += 1
        heapq.heappush(heap, (when + rng.expovariate(1.0), sequence,
                              rng.randrange(16)))
    return time.perf_counter() - start


# -- child: one repeat ---------------------------------------------------------


def child(workload: str, seed: int, trace: bool) -> int:
    # The machine's speed, timed before and after the repeat.
    speed_before = reference()
    t0 = time.perf_counter()  # set-up starts with the program's imports
    sys.path[:0] = [SRC, HERE]
    import scenarios

    instrumentation = None
    outcome = scenarios.Outcome()
    if trace:
        import layers
        instrumentation = layers.Instrumentation()
        outcome.failures += instrumentation.install()
        outcome.inspect = (lambda cluster, result, extra:
                           layers.inspect(instrumentation, cluster, result,
                                          extra))
    run_end = (None if instrumentation is None
               else lambda: instrumentation.aggregate.run_end)
    timer = scenarios.Timer(outcome, t0, run_end)
    try:
        scenarios.WORKLOADS[workload](seed, timer)
    finally:
        if instrumentation is not None:
            instrumentation.remove()
    # The last cluster is garbage now; collect it so that the second
    # reference times the machine, not a heap holding a dead cluster.
    gc.collect()
    speed_after = reference()
    payload = {
        "host": {
            "setup_s": outcome.setup_s,
            "run_s": outcome.run_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "reference_s": (speed_before + speed_after) / 2,
        },
        "sim": outcome.sim,
        "samples": outcome.samples,
        "diag": outcome.diag,
        "failures": outcome.failures,
        "experiments": outcome.experiments,
        "traced": trace,
    }
    if instrumentation is not None:
        payload["layers"] = layers.layer_metrics(instrumentation, outcome)
        payload["callers"] = instrumentation.caller_matrix()
        payload["failures"] += instrumentation.zero_call_failures(workload)
    print(CHILD_MARK + json.dumps(payload, sort_keys=True))
    return 0


# -- parent: repeats, medians, guards ------------------------------------------


def spawn(workload: str, seed: int, traced: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # No bytecode cache, read or written: the child looks for cached
    # bytecode only under a fresh empty directory, so every import after
    # its start-up compiles from source, whatever caches the checkout or
    # the interpreter's installation hold.  setup_s then does not depend
    # on whether anything imported the program before.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    os.makedirs(OUT_DIR, exist_ok=True)
    env["PYTHONPYCACHEPREFIX"] = tempfile.mkdtemp(prefix="pycache-",
                                                  dir=OUT_DIR)
    command = [sys.executable, os.path.abspath(__file__), "--child",
               "--workload", workload, "--seed", str(seed),
               "--trace", "1" if traced else "0"]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              universal_newlines=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {workload} repeat timed out after "
                         f"{CHILD_TIMEOUT_S:g} s")
    finally:
        shutil.rmtree(env["PYTHONPYCACHEPREFIX"], ignore_errors=True)
    lines = [line for line in done.stdout.splitlines()
             if line.startswith(CHILD_MARK)]
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-4000:])
        raise SystemExit(f"perfbench: {workload} repeat crashed "
                         f"(exit {done.returncode})")
    return json.loads(lines[-1][len(CHILD_MARK):])


def scaled(host: dict, name: str) -> float:
    """One repeat's host metric; times scaled to the nominal machine."""
    if UNITS[name] != "s":
        return host[name]
    return host[name] * NOMINAL_REFERENCE_S / host["reference_s"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run repeats of one workload; returns (untraced, traced) lists."""
    untraced, traced = [], []
    start = time.perf_counter()
    last = 0.0
    while True:
        want_traced = trace and bool(untraced)
        began = time.perf_counter()
        result = spawn(workload, seed, want_traced)
        last = time.perf_counter() - began
        (traced if want_traced else untraced).append(result)
        elapsed = time.perf_counter() - start
        enough = bool(traced) if trace else len(untraced) >= MIN_REPEATS
        if enough and elapsed >= seconds:
            break
        if enough and elapsed + 1.5 * last > RUN_BUDGET_S:
            break
    return untraced, traced


def determinism_failures(runs) -> list:
    """Sim metrics (and traced counts) must repeat exactly."""
    failures = []
    reference = runs[0]
    for index, run in enumerate(runs[1:], start=1):
        kind = "traced " if run["traced"] else ""
        for section in ("sim", "samples"):
            if run[section] != reference[section]:
                keys = sorted(set(run[section]) | set(reference[section]))
                diff = [key for key in keys if run[section].get(key)
                        != reference[section].get(key)]
                failures.append(
                    f"nondeterminism: {kind}repeat {index} differs from "
                    f"repeat 0 in {section} {diff}")
    traced = [run for run in runs if run["traced"]]
    for index, run in enumerate(traced[1:], start=1):
        counts = {k: v for k, v in run["layers"].items()
                  if layer_unit(k) != "s"}
        first = {k: v for k, v in traced[0]["layers"].items()
                 if layer_unit(k) != "s"}
        if counts != first:
            failures.append(f"nondeterminism: traced repeat {index} "
                            f"per-layer counts differ")
    return failures


def fmt(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def report(workload: str, seed: int, trace: bool, untraced, traced):
    """Print one workload's metrics; returns (correct, attempted,
    failed, metrics)."""
    runs = untraced + traced
    failures = []
    failed = 0
    for run in runs:
        if run["failures"]:
            failed += run["experiments"]
            failures += run["failures"]
    failures += determinism_failures(runs)
    if failures and not failed:
        failed = runs[-1]["experiments"]
    attempted = sum(run["experiments"] for run in runs)
    head = untraced[0]

    print(f"== {workload} seed={seed} repeats={len(untraced)} untraced"
          + (f", {len(traced)} traced" if trace else "") + " ==")
    host = {}
    for name in HOST:
        values = [scaled(run["host"], name) for run in untraced]
        host[name] = statistics.median(values)
        q1, q3 = quartiles(values)
        print(f"{name:<18} {host[name]:.4f} {UNITS[name]:<8} host  "
              f"median of {len(values)}, quartiles {q1:.4f}..{q3:.4f}")
    for name in ("run_s", "setup_s", "reference_s"):
        print(f"  wall {name}: median "
              f"{statistics.median(run['host'][name] for run in untraced):.4f}")
    print(f"  run_s and setup_s above are scaled, repeat by repeat, to a "
          f"machine where the reference loop takes {NOMINAL_REFERENCE_S:g} s")
    for name, unit, base in END_TO_END:
        if base != "sim" or name not in head["sim"]:
            continue
        kind = name.split("_")[0]
        count = head["samples"].get(kind)
        note = f"  n={count}" if count is not None and "_p" in name else ""
        print(f"{name:<18} {head['sim'][name]:.4f} {unit:<8} sim{note}")
    for line in head["diag"]:
        print(f"  {line}")

    if not trace:
        measured = {name: {"value": value, "unit": UNITS[name]}
                    for name, value in {**host, **head["sim"]}.items()}
    else:
        measured = {}
        for name in sorted(traced[0]["layers"]):
            unit = layer_unit(name)
            if unit == "s":  # host times: scaled like run_s, median
                value = statistics.median(
                    run["layers"][name] * NOMINAL_REFERENCE_S
                    / run["host"]["reference_s"] for run in traced)
            else:
                value = traced[0]["layers"][name]
            measured[name] = {"value": value, "unit": unit}
        overhead = (
            statistics.median(scaled(run["host"], "run_s") for run in traced)
            - host["run_s"])
        measured["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        print("per-layer (traced run; *_s are scaled host self time, "
              "medians):")
        for name in sorted(measured):
            print(f"  {name:<36} {fmt(measured[name]['value'])} "
                  f"{measured[name]['unit']}")
        self_total = sum(value["value"] for name, value in measured.items()
                         if name.endswith(".self_s"))
        print(f"  layer self time sums to {self_total:.3f} s against the "
              f"untraced run_s {host['run_s']:.3f} s")
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
        with open(path, "w") as handle:
            json.dump({"workload": workload, "seed": seed,
                       "metrics": measured, "callers": traced[0]["callers"]},
                      handle, indent=1, sort_keys=True)
        print(f"  caller matrix written to "
              f"{os.path.relpath(path, ROOT)}")
    # The result line carries exactly the metrics BENCHMARK.json gates.
    metrics = {}
    for name, unit in gated(trace).items():
        if name not in measured:
            failures.append(f"{workload} did not report {name}, which "
                            f"BENCHMARK.json lists")
        elif measured[name]["unit"] != unit:
            failures.append(f"{name} is measured in "
                            f"{measured[name]['unit']}, but BENCHMARK.json "
                            f"gives {unit}")
        else:
            metrics[name] = measured[name]
    for failure in dict.fromkeys(failures):  # once each, in order
        print(f"CHECK FAILED: {failure}")
    if not failures:
        print("checks: passed")
    return not failures, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write("perfbench: no program sources at src/repro; run "
                         "from the root of a repository checkout\n")
        return 2
    if args.child:
        return child(args.workload, args.seed, bool(args.trace))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        untraced, traced = measure(name, args.seed, args.seconds,
                                   bool(args.trace))
        ok, tried, bad, values = report(name, args.seed, bool(args.trace),
                                        untraced, traced)
        correct &= ok
        attempted += tried
        failed += bad
        if len(names) == 1:
            metrics = values
        else:
            metrics.update({f"{name}.{k}": v for k, v in values.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
