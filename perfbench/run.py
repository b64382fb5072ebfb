"""perfbench: the platform benchmark.

One run measures one workload through the platform's public API in this
process, checks its outputs, prints every metric by name with its unit and
sample count, and ends with one JSON line::

    python3 perfbench/run.py --workload fleet_serve --seed 0 --seconds 16 --trace 0

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is the
separate traced run: an untraced pass, then a pass of the same work on a
fresh world with every listed layer entry point wrapped in spans
(``spans.py``); the two passes' outputs must match byte for byte, and the
per-layer metrics plus the tracing overhead are reported.

``--out FILE`` appends the full result (fingerprint and sample counts
included) to a JSON-lines file; ``compare.py`` compares two such files.

Workloads (all closed loop: the next window, round or cycle is issued only
after the previous one returns; BLAS threads are left at their default):

``fleet_serve``        10k devices, ledger-heavy serving windows
``kws_monitored``      200 monitored devices, drift-heavy serving windows
``federated_durable``  faulty federated rounds with a durable checkpoint store
``lifecycle_loop``     rollout, then serve + retrain/canary/promote cycles

End-to-end metrics, the same names on every workload (the table also
prints each under its workload's own name):

``setup_s``      median over ``SETUP_SAMPLES`` fresh set-ups of the time from
                 the start of this script to a ready world, imports included
``peak_rss_mb``  peak resident set once the warm-up (serving) or the first
                 episode is done
``op_ms_p50``    median latency of the closed-loop operation: serving window,
                 federated round or lifecycle cycle
``op_ms_tail``   that latency at the workload's tail percentile
``work_per_s``   served queries, delivered client updates or lifecycle
                 decisions per second of operation time
``oneshot_s``    median of the one-off operator action: ledger sync sweep,
                 coordinator restart from the durable store, or rollout

Operations that raise or fail a correctness check are counted in the
result's ``failed`` out of ``attempted`` (printed as ``failed_ops_frac``).
"""

import time

T0 = time.perf_counter()  # set-up time is measured from here, imports included

import argparse
import functools
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_SAMPLES = 3  # this process's set-up plus SETUP_SAMPLES - 1 fresh processes

# Per workload: the name of its closed-loop operation, of its work rate and
# of its one-off operator action, and the tail percentile: the highest
# with at least ten samples beyond it at the configured run length on the
# reference host (2-core Xeon, 16 s runs).
WORKLOADS = {
    "fleet_serve": dict(tail=60, op="serve_window_ms", work="served_qps", oneshot="sync_sweep_s"),
    "kws_monitored": dict(tail=60, op="serve_window_ms", work="served_qps", oneshot="sync_sweep_s"),
    "federated_durable": dict(tail=90, op="round_ms", work="client_updates_per_s", oneshot="restart_s"),
    "lifecycle_loop": dict(tail=60, op="cycle_ms", work="decisions_per_s", oneshot="rollout_s"),
}

# (name, unit): the end-to-end metrics every workload reports.
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("work_per_s", "1/s"),
    ("oneshot_s", "s"),
]


def _load(workload):
    """(setup(seed) -> world, run(world, budget) -> Outcome) of a workload."""
    if workload in ("fleet_serve", "kws_monitored"):
        import wl_serving

        return functools.partial(wl_serving.setup, workload), wl_serving.run
    if workload == "federated_durable":
        import wl_federated

        return wl_federated.setup, wl_federated.run
    import wl_lifecycle

    return wl_lifecycle.setup, wl_lifecycle.run


def _close(world):
    close = getattr(world, "close", None)
    if close is not None:
        close()


def _percentile(values, q):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _setup_probe(workload, seed):
    """Set-up time of a fresh process: interpreter, imports and world."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _print_table(rows):
    for name, value, unit, n, note in rows:
        print(f"  {name:<40} {value:>14.6g} {unit:<6} n={n:<5} {note}")


def _end_to_end(spec, setup_samples, outcome):
    """Metrics rows (name, value, unit, n, note) for the JSON and the table."""
    op_ms = [s * 1000.0 for s in outcome.op_s]
    tail = _percentile(op_ms, spec["tail"])
    beyond = sum(1 for v in op_ms if v > tail)
    attempted = max(outcome.attempted, 1)
    return [
        ("setup_s", statistics.median(setup_samples), "s", len(setup_samples), "median of set-ups, import included"),
        ("peak_rss_mb", outcome.peak_rss_mb, "MB", 1, "peak resident set once the warm-up or first episode is done"),
        ("op_ms_p50", statistics.median(op_ms), "ms", len(op_ms), f"{spec['op']}_p50"),
        ("op_ms_tail", tail, "ms", len(op_ms), f"{spec['op']}_p{spec['tail']}, {beyond} samples beyond"),
        ("work_per_s", outcome.work / sum(outcome.op_s), "1/s", len(op_ms), f"{spec['work']} ({outcome.work} items)"),
        ("oneshot_s", statistics.median(outcome.oneshot_s), "s", len(outcome.oneshot_s), spec["oneshot"]),
        ("failed_ops_frac", outcome.failed / attempted, "ratio", outcome.attempted, "printed only: carried as failed/attempted"),
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full result as one JSON line to this file")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"perfbench: {SRC}/repro not found; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    setup, run = _load(args.workload)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {SRC}")
    import_s = time.perf_counter() - T0
    t = time.perf_counter()
    world = setup(args.seed)
    world_s = time.perf_counter() - t

    if args.probe:
        _close(world)
        print(json.dumps({"import_s": import_s, "world_s": world_s}))
        return 0

    from common import SCRATCH_ROOT, Budget
    from envinfo import fingerprint

    spec = WORKLOADS[args.workload]
    host = fingerprint(SCRATCH_ROOT)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("fingerprint " + json.dumps(host))

    if args.trace == 0:
        outcome = run(world, Budget(seconds=args.seconds))
        _close(world)
        del world
        setup_samples = [import_s + world_s]
        for _ in range(SETUP_SAMPLES - 1):
            probe = _setup_probe(args.workload, args.seed)
            setup_samples.append(probe["import_s"] + probe["world_s"])
        if not outcome.op_s or not outcome.oneshot_s:
            print("\n".join(f"FAILED: {message}" for message in outcome.failures))
            sys.exit("perfbench: the workload failed before it produced a sample of every metric")
        rows = _end_to_end(spec, setup_samples, outcome)
        unit_of = dict(END_TO_END)
        attempted, failed = outcome.attempted, outcome.failed
        failures = outcome.failures
        extra = {"notes": outcome.notes}
    else:
        import spans

        t = time.perf_counter()
        plain = run(world, Budget(seconds=args.seconds))
        plain_s = time.perf_counter() - t
        _close(world)
        world = setup(args.seed)
        rec = spans.Recorder()
        with spans.instrumented(rec):
            t = time.perf_counter()
            traced = run(world, Budget(units=plain.units))
            traced_s = time.perf_counter() - t
        _close(world)
        identical = plain.digest() == traced.digest()
        values = spans.layer_values(rec, import_s, world_s, traced_s - plain_s)
        unit_of = {name: unit for name, unit, _ in spans.PER_LAYER}
        rows = [(name, values[name], unit_of[name], 1, "") for name, _, _ in spans.PER_LAYER]
        # The byte-identity comparison counts as one more checked operation.
        attempted = plain.attempted + traced.attempted + 1
        failed = plain.failed + traced.failed + (not identical)
        failures = plain.failures + traced.failures
        if not identical:
            failures.append("traced outputs differ from untraced outputs")
        print(
            f"traced pass {traced_s:.3f} s vs untraced {plain_s:.3f} s over {plain.units} units;"
            f" outputs identical: {identical}"
        )
        extra = {"untraced_s": plain_s, "traced_s": traced_s, "outputs_identical": identical}

    print("metrics:")
    _print_table(rows)
    for message in failures[:20]:
        print(f"FAILED: {message}")
    correct = failed == 0
    metrics = {name: {"value": value, "unit": unit_of[name]} for name, value, _, _, _ in rows if name in unit_of}
    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "fingerprint": host,
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit, "n": n} for name, value, unit, n, _ in rows},
            **extra,
        }
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
