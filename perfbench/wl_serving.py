"""Serving workloads: closed-loop fleet windows through ``ServingEngine.serve_fleet``.

``fleet_serve`` is metering-heavy: 10k devices with a ledger each, one in
25 monitored, a small compiled MLP and ~4 queries per device per window.
``kws_monitored`` is the opposite mix on the same entry point: 200 devices,
all monitored against reference spectrograms, a compiled keyword-spotting
CNN and ~32 queries per device per window, with a seeded input shift on
every other window so drift fires mid-run.

A pass serves ``WARMUP_WINDOWS`` untimed windows and syncs every online
device once (the backend reconciles each ledger ``export()`` and bills
it).  It then times windows until the budget runs out; every
``sweep_every``-th window is followed by a timed sync sweep, the backend
reconciling the uploads of the first ``sweep_devices`` online devices
again (an idempotent re-sync that re-verifies every chain).  The sweep
therefore covers the same number of ledgers of the same length on every
seed, whatever number of windows a faster or slower build gets through,
and its samples are spread over the whole run.  The pass ends with an
untimed sync of a sample of the online devices that checks billing over
every window served.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from repro.billing import BillingBackend, PricingPlan, UsageLedger
from repro.core import ServingEngine, TrafficGenerator
from repro.data import make_keyword_spectrograms
from repro.devices import Fleet
from repro.nn import make_mlp, make_tiny_cnn
from repro.observability import EdgeMonitor

from common import Budget, Outcome, align_gc

GRANT = 10**9  # prepaid queries per device: quota never denies
WARMUP_WINDOWS = 4
FINAL_SYNC_STRIDE = 8
PRICE = 0.0015


@dataclass(frozen=True)
class ServingSpec:
    n_devices: int
    monitor_every: int
    rate: float
    shift_every_other: bool
    sweep_every: int
    sweep_devices: int
    make_model: Callable[[int], object]
    make_data: Callable[[int], tuple]  # seed -> (reference inputs, query pool)
    thresholds: Dict[str, float]


def _mlp_data(seed: int):
    rng = np.random.default_rng([seed, 1])
    return rng.normal(size=(60, 12)), rng.normal(size=(512, 12))


def _kws_data(seed: int):
    ds = make_keyword_spectrograms(n_samples=1200, n_mels=12, n_frames=12, num_keywords=4, seed=seed)
    return ds.x[:200], ds.x[200:]


SPECS = {
    "fleet_serve": ServingSpec(
        n_devices=10_000,
        monitor_every=25,
        rate=4.0,
        shift_every_other=False,
        sweep_every=8,
        sweep_devices=6000,
        make_model=lambda seed: make_mlp(12, 4, hidden=(32, 16), seed=seed, name="sensor-mlp"),
        make_data=_mlp_data,
        thresholds={},
    ),
    "kws_monitored": ServingSpec(
        n_devices=200,
        monitor_every=1,
        rate=32.0,
        shift_every_other=True,
        sweep_every=1,
        sweep_devices=100,
        make_model=lambda seed: make_tiny_cnn((12, 12, 1), 4, filters=(4, 8), dense_width=16, seed=seed, name="kws-cnn"),
        make_data=_kws_data,
        # Max-over-144-columns KS/PSI on 32-query windows sit near 0.3 / 2.7
        # on unshifted traffic; these thresholds keep unshifted windows
        # quiet so drift fires on the shifted ones only.
        thresholds={"ks": 0.5, "psi": 5.0},
    ),
}


@dataclass
class ServingWorld:
    spec: ServingSpec
    seed: int
    model_name: str
    fleet: Fleet
    engine: ServingEngine
    backend: BillingBackend
    ledgers: Dict[str, UsageLedger]
    traffic: TrafficGenerator
    pool: np.ndarray
    shift_rng: np.random.Generator


def setup(workload: str, seed: int) -> ServingWorld:
    spec = SPECS[workload]
    fleet = Fleet.random(spec.n_devices, seed=seed)
    model = spec.make_model(seed)
    reference, pool = spec.make_data(seed)
    reference_predictions = model.predict_classes(reference)
    backend = BillingBackend()
    backend.register_plan(PricingPlan(model.name, price_per_query=PRICE))
    signing_key = backend.signing_key()
    ledgers: Dict[str, UsageLedger] = {}
    monitors: Dict[str, EdgeMonitor] = {}
    for i, device_id in enumerate(fleet.devices):
        ledger = UsageLedger(device_id, backend.enroll_device(device_id))
        ledger.add_grant(backend.sell_package(device_id, model.name, GRANT), backend_key=signing_key)
        ledgers[device_id] = ledger
        if i % spec.monitor_every == 0:
            monitors[device_id] = EdgeMonitor(
                device_id,
                reference,
                reference_predictions=reference_predictions,
                num_classes=4,
                thresholds=spec.thresholds,
            )
    engine = ServingEngine(fleet, models={model.name: model}, ledgers=ledgers, monitors=monitors)
    engine.compile_model(model.name)
    return ServingWorld(
        spec=spec,
        seed=seed,
        model_name=model.name,
        fleet=fleet,
        engine=engine,
        backend=backend,
        ledgers=ledgers,
        traffic=TrafficGenerator(list(fleet.devices), seed=seed),
        pool=pool,
        shift_rng=np.random.default_rng([seed, 2]),
    )


def _next_window(world: ServingWorld, index: int) -> Dict[str, np.ndarray]:
    counts = world.traffic.steady(1, rate=world.spec.rate)
    window = next(world.traffic.windows(counts, world.pool))
    if world.spec.shift_every_other and index % 2 == 1:
        shift = float(world.shift_rng.uniform(0.4, 0.8))
        window = {device_id: x + shift for device_id, x in window.items()}
    return window


def run(world: ServingWorld, budget: Budget) -> Outcome:
    out = Outcome()
    engine, backend, ledgers = world.engine, world.backend, world.ledgers
    name = world.model_name
    online = [d.device_id for d in world.fleet if d.network.online]
    synced = {device_id: 0 for device_id in online}
    reports: List[dict] = []
    # "metered": served + battery failures over every window, which is
    # what the ledgers must hold in total.
    state = {"index": 0, "metered": 0}

    def serve(timed: bool) -> None:
        index = state["index"]
        window = _next_window(world, index)
        t0 = time.perf_counter()
        report = engine.serve_fleet(name, window)
        elapsed = time.perf_counter() - t0
        state["index"] += 1
        r = report.as_dict()
        reports.append(r)
        requested = sum(int(x.shape[0]) for x in window.values())
        out.check(
            r["served"] + r["denied_quota"] + r["battery_failures"] + r["network_failures"] == r["requested"],
            f"window {index}: served + denied + battery + network != requested",
        )
        out.check(r["requested"] == requested, f"window {index}: requested {r['requested']} != sent {requested}")
        state["metered"] += r["served"] + r["battery_failures"]
        if timed:
            out.op_s.append(elapsed)
            out.work += r["served"]

    def sync(label: str, uploads: List[tuple]) -> float:
        """Reconcile ``(device_id, export)`` uploads; returns the backend's time."""
        t0 = time.perf_counter()
        results = [backend.reconcile(upload) for _, upload in uploads]
        elapsed = time.perf_counter() - t0
        billed = 0.0
        for (device_id, upload), result in zip(uploads, results):
            used = sum(int(e.get("count", 1)) for e in upload["entries"])
            new = used - synced[device_id]
            ok = (
                result.accepted
                and result.n_new_queries == new
                and abs(result.billed_amount - round(PRICE * new, 6)) < 1e-9
            )
            out.check(ok, f"{label}: ledger of {device_id} did not reconcile to its metered queries")
            synced[device_id] = used
            billed += result.billed_amount
        out.outputs.append({"sync": label, "accepted": sum(r.accepted for r in results), "billed": round(billed, 6)})
        return elapsed

    def uploads(devices: List[str]) -> List[tuple]:
        return [(device_id, ledgers[device_id].export()) for device_id in devices]

    def sweep() -> None:
        out.oneshot_s.append(sync(f"sweep {len(out.oneshot_s)}", snapshot[: world.spec.sweep_devices]))

    for i in range(WARMUP_WINDOWS):
        if not out.attempt(f"warm-up window {i}", lambda: serve(timed=False)):
            return out
    snapshot = uploads(online)

    def first_sync() -> None:
        sync("first", snapshot)
        out.check(len(snapshot) >= world.spec.sweep_devices, f"only {len(snapshot)} devices online to sweep")

    if not out.attempt("first sync", first_sync):
        return out
    out.mark_memory()
    align_gc()
    budget.start()
    while budget.more(out.units):
        if not out.attempt(f"window {state['index']}", lambda: serve(timed=True)):
            return out
        out.units += 1
        if out.units % world.spec.sweep_every == 0 and not out.attempt("sync sweep", sweep):
            return out

    def final_sync() -> None:
        # Every FINAL_SYNC_STRIDE-th online device: the first sync already
        # reconciled all of them, and a full re-sync of the longer ledgers
        # would cost seconds of run time.
        sync("final", uploads(online[::FINAL_SYNC_STRIDE]))
        ledger_total = sum(ledger.used(name) for ledger in ledgers.values())
        out.check(
            ledger_total == state["metered"],
            f"ledgers hold {ledger_total} queries, windows metered {state['metered']}",
        )

    out.attempt("final sync", final_sync)
    out.outputs.append({"reports": reports})
    out.outputs.append({"head_macs": [ledgers[d].head_mac() for d in sorted(ledgers)]})
    out.notes["drift_devices"] = sum(1 for m in engine.monitors.values() if m.any_drift())
    out.notes["online_devices"] = len(online)
    return out
