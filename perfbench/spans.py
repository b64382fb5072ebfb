"""Per-layer spans for the traced run, recorded around the calls into each layer.

Nothing in ``src/`` knows about tracing: :func:`instrumented` wraps the
public entry points listed in ``_patch_table`` for the duration of a
``with`` block and restores the originals afterwards.  Each wrapper opens
a span on :class:`Recorder`, whose stack gives every span its parent, so a
layer's self time is its duration minus the time of the spans it caused.
Counts (entries appended, queries run, drift events, ...) are recorded in
the same wrappers, where the work happens.

Busy time of a name counts only its outermost span, so a call that
re-enters the same entry point is not counted twice.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time
from collections import Counter, defaultdict
from typing import Dict, List


class Recorder:
    def __init__(self) -> None:
        self._stack: List[list] = []  # [name, child seconds] per open span
        self.calls: Counter = Counter()
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.samples: Dict[str, list] = defaultdict(list)

    @contextlib.contextmanager
    def span(self, name: str):
        frame = [name, 0.0]
        outermost = all(open_name != name for open_name, _ in self._stack)
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self.calls[name] += 1
            if outermost:
                self.busy[name] += elapsed
            self.self_s[name] += elapsed - frame[1]
            if self._stack:
                self._stack[-1][1] += elapsed


_MANIFEST = "MANIFEST.json"  # the durable store's index; every other write is payload


def _timed(rec: Recorder, name: str, fn):
    def wrapper(*args, **kwargs):
        with rec.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _record_batch(rec, fn):
    def wrapper(ledger, model_name, n, *args, **kwargs):
        before = len(ledger.entries)
        with rec.span("billing.record_batch"):
            granted = fn(ledger, model_name, n, *args, **kwargs)
        rec.counts["billing.entries_appended"] += len(ledger.entries) - before
        return granted

    return wrapper


def _reconcile(rec, fn):
    def wrapper(*args, **kwargs):
        with rec.span("billing.reconcile"):
            result = fn(*args, **kwargs)
        rec.counts["billing.reconcile.rejected"] += not result.accepted
        return result

    return wrapper


def _draw_batch_rows(rec, fn):
    def wrapper(state, rows, energies, counts):
        with rec.span("devices.draw_batch_rows"):
            served = fn(state, rows, energies, counts)
        rec.counts["devices.granted"] += int(counts.sum())
        rec.counts["devices.admitted"] += int(served.sum())
        return served

    return wrapper


def _run_many(rec, fn):
    def wrapper(plan, windows):
        with rec.span("exchange.run_many"):
            outputs = fn(plan, windows)
        rec.counts["exchange.run_many.queries"] += sum(len(w) for w in windows)
        return outputs

    return wrapper


def _observe_fleet(rec, fn):
    def wrapper(monitor, windows, *args, **kwargs):
        with rec.span("observability.observe_fleet"):
            results = fn(monitor, windows, *args, **kwargs)
        rec.counts["observability.observe_fleet.devices"] += len(windows)
        rec.counts["observability.drift_events"] += sum(
            any(r.drifted for r in per_device.values()) for per_device in results.values()
        )
        return results

    return wrapper


def _run_round(rec, fn):
    def wrapper(*args, **kwargs):
        with rec.span("federated.run_round"):
            result = fn(*args, **kwargs)
        rec.counts["federated.selected"] += result.n_selected
        rec.counts["federated.delivered"] += len(result.participants)
        rec.counts["federated.retransmits"] += result.n_retransmits
        rec.counts["federated.aborted_rounds"] += result.aborted
        return result

    return wrapper


def _record_commit(rec, fn):
    def wrapper(store, round_index, *args, **kwargs):
        start = time.perf_counter()
        with rec.span("faults.commit"):
            fn(store, round_index, *args, **kwargs)
        rec.samples["faults.commit"].append((int(round_index), time.perf_counter() - start))
        size = os.path.getsize(os.path.join(store.root, _MANIFEST))
        rec.counts["faults.manifest_bytes"] = max(rec.counts["faults.manifest_bytes"], size)

    return wrapper


def _atomic_write(rec, fn):
    def wrapper(path, data):
        with rec.span("persist.atomic_write"):
            digest = fn(path, data)
        rec.counts["persist.bytes_written"] += len(data)
        if os.path.basename(path) != _MANIFEST:
            rec.counts["persist.payload_bytes"] += len(data)
        return digest

    return wrapper


def _run_cycle(rec, fn):
    def wrapper(*args, **kwargs):
        with rec.span("lifecycle.run_cycle"):
            decision = fn(*args, **kwargs)
        rec.counts["lifecycle.promoted" if decision.promoted else "lifecycle.rejected"] += 1
        return decision

    return wrapper


def _patch_table():
    """(owner, attribute, wrapper factory) for every wrapped entry point."""
    import repro.faults.durable as durable
    import repro.federated.engine as fed_engine
    import repro.persist as persist
    from repro.billing import BillingBackend, UsageLedger
    from repro.core.selection import ModelSelector
    from repro.core.serving import ServingEngine
    from repro.devices.state import FleetState
    from repro.exchange.compiled import CompiledExecutor
    from repro.exchange.compiler import Compiler
    from repro.federated import aggregation, compression
    from repro.lifecycle.pipeline import LifecyclePipeline
    from repro.observability.monitor import FleetMonitor
    from repro.optimize.pareto import VariantGenerator
    from repro.registry.triggers import TriggerManager
    from repro.registry.versioning import ModelRegistry
    from repro.runtime.orchestrator import Orchestrator

    def timed(name):
        return lambda rec, fn: _timed(rec, name, fn)

    table = [
        (UsageLedger, "record_batch", _record_batch),
        (BillingBackend, "reconcile", _reconcile),
        (FleetState, "draw_batch_rows", _draw_batch_rows),
        (CompiledExecutor, "run_many", _run_many),
        (ServingEngine, "compile_model", timed("exchange.compile")),
        (Compiler, "compile", timed("exchange.compile")),
        (FleetMonitor, "observe_fleet", _observe_fleet),
        (ServingEngine, "serve_fleet", timed("core.serve_fleet")),
        (ModelSelector, "select", timed("core.select")),
        (fed_engine, "train_clients_batched", timed("federated.train")),
        (fed_engine.FederatedEngine, "run_round", _run_round),
        (durable.DurableCheckpointStore, "put", timed("faults.checkpoint_put")),
        (durable.DurableCheckpointStore, "record_commit", _record_commit),
        # durable.py imports atomic_write_bytes by name; persist's own
        # atomic_write_json looks it up in persist.
        (persist, "atomic_write_bytes", _atomic_write),
        (durable, "atomic_write_bytes", _atomic_write),
        (LifecyclePipeline, "run_cycle", _run_cycle),
        (ModelRegistry, "register_model", timed("registry.register")),
        (TriggerManager, "on_base_registered", timed("registry.on_base_registered")),
        (ModelRegistry, "flip_deployments", timed("registry.flip")),
        (VariantGenerator, "generate", timed("optimize.variant_generate")),
        (Orchestrator, "place", timed("runtime.place")),
    ]
    # Every compressor and aggregator class that defines its own method.
    for module, attr, name in (
        (compression, "roundtrip_batch", "federated.compress"),
        (aggregation, "aggregate", "federated.aggregate"),
        (aggregation, "aggregate_stack", "federated.aggregate"),
    ):
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__ and attr in vars(cls):
                table.append((cls, attr, timed(name)))
    return table


@contextlib.contextmanager
def instrumented(rec: Recorder):
    """Wrap every entry point in the patch table while the block runs."""
    saved = []
    try:
        for owner, attr, factory in _patch_table():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, factory(rec, original))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _late_over_early(samples) -> float:
    """Median commit latency of the last decile of rounds over the first."""
    if not samples:
        return 0.0
    n_rounds = max(r for r, _ in samples) + 1
    decile = max(1, n_rounds // 10)
    early = [s for r, s in samples if r < decile]
    late = [s for r, s in samples if r >= n_rounds - decile]
    return _ratio(statistics.median(late), statistics.median(early))


# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("billing.record_batch.calls", "count", "lower"),
    ("billing.record_batch.busy_s", "s", "lower"),
    ("billing.entries_appended", "count", "lower"),
    ("billing.reconcile.calls", "count", "lower"),
    ("billing.reconcile.busy_s", "s", "lower"),
    ("billing.reconcile.rejected", "count", "lower"),
    ("devices.draw_batch_rows.busy_s", "s", "lower"),
    ("devices.admitted_frac", "ratio", "higher"),
    ("exchange.run_many.calls", "count", "lower"),
    ("exchange.run_many.busy_s", "s", "lower"),
    ("exchange.run_many.queries", "count", "higher"),
    ("exchange.compile.busy_s", "s", "lower"),
    ("observability.observe_fleet.busy_s", "s", "lower"),
    ("observability.observe_fleet.devices", "count", "higher"),
    ("observability.drift_events", "count", "higher"),
    ("core.serve_fleet.self_s", "s", "lower"),
    ("core.select.calls", "count", "lower"),
    ("core.select.busy_s", "s", "lower"),
    ("federated.train.busy_s", "s", "lower"),
    ("federated.compress.busy_s", "s", "lower"),
    ("federated.aggregate.busy_s", "s", "lower"),
    ("federated.run_round.self_s", "s", "lower"),
    ("federated.delivered_frac", "ratio", "higher"),
    ("federated.retransmits", "count", "lower"),
    ("federated.aborted_rounds", "count", "lower"),
    ("faults.checkpoint_put.calls", "count", "lower"),
    ("faults.checkpoint_put.busy_s", "s", "lower"),
    ("faults.commit.busy_s", "s", "lower"),
    ("faults.commit_ms.late_over_early", "ratio", "lower"),
    ("faults.manifest_bytes", "bytes", "lower"),
    ("persist.atomic_write.calls", "count", "lower"),
    ("persist.atomic_write.busy_s", "s", "lower"),
    ("persist.write_amplification", "ratio", "lower"),
    ("lifecycle.run_cycle.self_s", "s", "lower"),
    ("lifecycle.promoted", "count", "higher"),
    ("lifecycle.rejected", "count", "lower"),
    ("registry.register.busy_s", "s", "lower"),
    ("registry.on_base_registered.busy_s", "s", "lower"),
    ("registry.flip.busy_s", "s", "lower"),
    ("optimize.variant_generate.busy_s", "s", "lower"),
    ("runtime.place.busy_s", "s", "lower"),
    ("setup.import_s", "s", "lower"),
    ("setup.world_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def layer_values(rec: Recorder, import_s: float, world_s: float, overhead_s: float) -> Dict[str, float]:
    """Every per-layer metric from one traced pass; 0 where a layer was idle."""
    c = rec.counts
    values = {
        "devices.admitted_frac": _ratio(c["devices.admitted"], c["devices.granted"]),
        "federated.delivered_frac": _ratio(c["federated.delivered"], c["federated.selected"]),
        "faults.commit_ms.late_over_early": _late_over_early(rec.samples["faults.commit"]),
        "persist.write_amplification": _ratio(c["persist.bytes_written"], c["persist.payload_bytes"]),
        "setup.import_s": import_s,
        "setup.world_s": world_s,
        "trace.overhead_s": overhead_s,
    }
    for name, _, _ in PER_LAYER:
        if name in values:
            continue
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = rec.calls[base]
        elif kind == "busy_s":
            values[name] = rec.busy[base]
        elif kind == "self_s":
            values[name] = rec.self_s[base]
        else:
            values[name] = c[name]
    return values
