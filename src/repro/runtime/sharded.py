"""Sharded multi-process fleet backend with deterministic barrier merges.

Closes ROADMAP item 2: after the columnar :class:`~repro.devices.FleetState`
redesign made fleet state ~16 NumPy planes, this module partitions those
planes into per-worker shards, runs the *batched* single-process engines
independently per shard on a :mod:`multiprocessing` pool, and merges the
results at a barrier so the outcome is **byte-identical** to
``engine="batched"`` — which stays the in-process oracle (and itself stays
equivalent to ``engine="oracle"``, the scalar loop).

What gets sharded, and why it is byte-safe
------------------------------------------
*Serving* (``serve_fleet``): the window's devices are split into contiguous,
balanced shards.  Every per-device outcome is independent — quota metering
is per-device (each device owns its MAC chain), battery admission is a
per-row closed form, compiled-plan ``run_many`` is per-window exact, and
:class:`~repro.observability.FleetMonitor` sweeps equal the per-device loop
— so shard composition cannot change any value.  At the barrier:

* MAC-chained ledger segments are re-chained in shard order via
  :meth:`~repro.billing.UsageLedger.append_segment` (each worker metered
  against a copy of the parent ledger, so its segment is a valid chain
  extension of the parent head);
* drift events / telemetry come home as whole updated monitor objects,
  re-installed in canonical device order (each device's monitor observed
  exactly the slice the batched sweep would have fed it);
* battery/counter planes merge back via
  :meth:`~repro.devices.FleetState.merge_rows`.

*Federated* (``run_round``): work is distributed at **cohort granularity** —
each homogeneous cohort's :func:`~repro.federated.engine.train_clients_batched`
sweep runs whole inside one worker with identical inputs, because splitting
a cohort would change the stacked tensor geometry (``n_max`` padding, GEMM
widths) and risk last-ulp drift.  The engine's round transaction hands the
batched cohorts to :meth:`ShardedFleetRunner.collect_deltas` as one
dispatch and places the returned rows itself; fallback cohorts (stateful
optimizer instances) train in the parent so their cross-round client state
persists, and the aggregation runs in the parent on the merged stack —
bitwise the same stack the batched path builds.

Backends (``backend=`` kwarg)
-----------------------------
``"pickle"``   chunked pickling over a process pool: each worker receives a
               pickled sub-store (:meth:`FleetState.extract_rows`) plus
               deep-copied ledgers/monitors, and ships results back.
               Portable to any start method.
``"inline"``   the full shard/split/merge machinery executed in-process —
               no pool.  Exists so differential and property tests can
               exercise shard semantics deterministically and cheaply; it
               must be (and is asserted) byte-identical to the pooled
               backends.
``"auto"``     ``"pickle"`` when a pool is available, else ``"inline"``.

Fault tolerance — never a partial merge
---------------------------------------
Workers can raise, hang or die mid-task.  The runner collects *all* shard
results before any merge: a failed/hung/killed shard is retried once on a
fresh pool (``retries=``), then re-executed deterministically in-process.
Only when every shard has a result does the barrier merge run; recovered
shards are counted in the caller's report/result
(``FleetServeReport.shard_recoveries`` / ``RoundResult.shard_recoveries``).
If even the in-process re-execution raises (a genuinely poisoned shard),
the exception propagates with the parent's ledgers, monitors and planes
untouched.

Fault injection comes in two spellings (both documented centrally in the
:mod:`repro.faults` package docstring): the env hook
``REPRO_SHARD_FAULT="<shard>:<mode>[:any]"`` with mode ``raise`` /
``hang`` / ``exit`` (one-off debugging; without the ``:any`` scope the
fault only fires inside pool workers, so in-process recovery succeeds),
and the replayable plan-driven spelling — construct the runner with
``fault_injector=`` and the :class:`~repro.faults.FaultPlan`'s
``shard_faults`` events ship inside the task payloads, firing in the
matching pooled dispatch's workers.  A ``retry_policy=`` additionally
makes the retry passes wait out the policy's seeded exponential backoff
(and caps the pass count / total deadline), the same
:class:`~repro.faults.RetryPolicy` contract client delta delivery
simulates.

``workers=`` resolution order: explicit argument, else the
``REPRO_TEST_WORKERS`` environment variable, else ``os.cpu_count()``.
"""

from __future__ import annotations

import copy
import multiprocessing as mp
import os
import time
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = ["ShardedFleetRunner", "shard_row_groups", "FAULT_ENV", "WORKERS_ENV"]

FAULT_ENV = "REPRO_SHARD_FAULT"
WORKERS_ENV = "REPRO_TEST_WORKERS"

_BACKENDS = ("auto", "pickle", "inline")


def shard_row_groups(n_items: int, workers: int) -> List[np.ndarray]:
    """Contiguous, balanced, non-empty index groups over ``range(n_items)``.

    At most ``workers`` groups; sizes differ by at most one, so ragged
    fleets (n not divisible by workers) split without empty shards.
    """
    if n_items <= 0:
        return []
    workers = max(1, int(workers))
    return list(np.array_split(np.arange(n_items), min(workers, n_items)))


def _env_workers() -> int:
    raw = os.environ.get(WORKERS_ENV, "").strip()
    try:
        return max(0, int(raw)) if raw else 0
    except ValueError:
        return 0


def _apply_fault_mode(mode: str, shard_index: int) -> None:
    if mode == "raise":
        raise RuntimeError(f"injected fault in shard {shard_index}")
    if mode == "hang":
        time.sleep(3600.0)
        return
    if mode == "exit":
        os._exit(13)
    raise ValueError(f"unknown shard fault mode {mode!r}")


def _maybe_inject_fault(shard_index: int, parent_pid: int, fault: Optional[str] = None) -> None:
    """Honor shard fault injection: the plan-driven ``fault`` payload field
    first, then the REPRO_SHARD_FAULT env hook (no-op when both are unset).

    Both spellings fire only inside pool workers (plan faults model
    *worker* deaths — the deterministic in-process re-execution must
    succeed, which is exactly what makes faulty runs byte-identical to
    clean ones); the env hook's ``:any`` scope can opt out for tests.
    """
    if fault is not None and os.getpid() != parent_pid:
        _apply_fault_mode(fault, shard_index)
    spec = os.environ.get(FAULT_ENV, "")
    if not spec:
        return
    parts = spec.split(":")
    if len(parts) < 2 or int(parts[0]) != shard_index:
        return
    scope = parts[2] if len(parts) > 2 else "worker"
    if scope == "worker" and os.getpid() == parent_pid:
        return  # only poison pool workers; in-process recovery succeeds
    _apply_fault_mode(parts[1], shard_index)


# ---------------------------------------------------------------------------
# worker task bodies (module-level: picklable under any start method)
# ---------------------------------------------------------------------------


def _serve_shard_task(payload: Dict[str, object]) -> Dict[str, object]:
    """One serving shard: run the batched fleet-window sweep on a sub-world."""
    _maybe_inject_fault(payload["shard_index"], payload["parent_pid"], payload.get("fault"))  # type: ignore[arg-type]
    from repro.core.serving import FleetServeReport, ServingEngine
    from repro.devices.fleet import Fleet

    fleet = Fleet.from_state(payload["state"])
    engine = ServingEngine(
        fleet,
        cost_model=payload["cost_model"],
        models=payload["models"],
        ledgers=payload["ledgers"],
        monitors=payload["monitors"],
    )
    model_name: str = payload["model_name"]  # type: ignore[assignment]
    if payload["plan_options"] is not None:
        pipeline, apply_quantization = payload["plan_options"]  # type: ignore[misc]
        engine.compile_model(model_name, pipeline=pipeline, apply_quantization=apply_quantization)
    ledger_base = {device_id: len(ledger.entries) for device_id, ledger in engine.ledgers.items()}
    report = FleetServeReport(model_name=model_name)
    results = engine._serve_fleet_window(
        model_name, dict(payload["items"]), report, bits=payload["bits"]  # type: ignore[arg-type]
    )
    return {
        "shard_index": payload["shard_index"],
        "results": results,
        "ledger_segments": {
            device_id: ledger.export_segment(ledger_base[device_id])
            for device_id, ledger in engine.ledgers.items()
        },
        "monitors": dict(engine.monitors),
        "state": payload["state"],  # the mutated sub-store
    }


def _train_shard_task(payload: Dict[str, object]) -> Dict[str, object]:
    """One federated shard: a whole batched cohort trained in lock-step."""
    _maybe_inject_fault(payload["shard_index"], payload["parent_pid"], payload.get("fault"))  # type: ignore[arg-type]
    from repro.federated.engine import train_clients_batched

    return {
        "shard_index": payload["shard_index"],
        "rows": train_clients_batched(payload["model"], payload["clients"]),
    }


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------


class ShardedFleetRunner:
    """Partition fleet work across processes; merge byte-identically.

    Parameters
    ----------
    workers:
        Worker count; ``None``/0 resolves ``REPRO_TEST_WORKERS`` then
        ``os.cpu_count()``.  The effective count is capped by the number of
        shardable items.
    backend:
        ``"auto"`` / ``"pickle"`` / ``"inline"`` (module docstring).
    timeout_s:
        Per-dispatch deadline for collecting pool results; a shard that
        produced nothing by then (hung or killed worker) is recovered.
    retries:
        How many fresh-pool retry passes failed shards get before the
        deterministic in-process fallback (0 goes straight to in-process).
    retry_policy:
        Optional :class:`repro.faults.RetryPolicy` governing shard
        re-execution: its ``max_attempts`` overrides ``retries`` (total
        pool passes), each retry pass waits out the policy's seeded
        exponential backoff, and crossing its ``deadline_s`` sends the
        remaining shards straight to the in-process fallback.
    fault_injector:
        Optional :class:`repro.faults.FaultInjector`; each pooled
        dispatch draws its plan-scheduled worker faults and ships them in
        the task payloads (fires in pool workers only — recovery keeps
        results byte-identical, so fault-plan runs merge the same bytes).
    durable_store:
        Optional :class:`repro.faults.durable.DurableCheckpointStore`; the
        parent journals every serving barrier merge through it
        (``begin_merge`` → merge → ``commit_merge``): the pre-merge ledger
        segments are persisted *before* the parent world is touched, so a
        crash mid-merge leaves an uncommitted journal record — detectable
        via ``pending_merges()`` — never a silently half-merged world.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        backend: str = "auto",
        timeout_s: float = 60.0,
        retries: int = 1,
        retry_policy=None,
        fault_injector=None,
        durable_store=None,
    ) -> None:
        if backend not in _BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected one of {_BACKENDS}")
        self.workers = workers
        self.backend = backend
        self.timeout_s = float(timeout_s)
        self.retries = int(retries)
        self.retry_policy = retry_policy
        self.fault_injector = fault_injector
        self.durable_store = durable_store

    def _attach_faults(self, scope: str, payloads: Sequence[Dict[str, object]]) -> None:
        """Stamp each payload with its plan-scheduled fault (or nothing)."""
        inj = self.fault_injector
        if inj is None:
            return
        dispatch = inj.next_dispatch(scope)
        for payload in payloads:
            fault = inj.shard_fault(scope, dispatch, payload["shard_index"])  # type: ignore[arg-type]
            if fault is not None:
                payload["fault"] = fault

    # -- resolution ------------------------------------------------------
    def resolve_workers(self, n_items: int) -> int:
        workers = self.workers
        if not workers or workers <= 0:
            workers = _env_workers() or os.cpu_count() or 1
        return max(1, min(int(workers), max(n_items, 1)))

    @staticmethod
    def _fork_available() -> bool:
        return "fork" in mp.get_all_start_methods()

    def _resolve_backend(self) -> str:
        """The effective backend for a pooled dispatch."""
        if self.backend == "inline":
            return "inline"
        try:
            mp.get_context()  # a context at all
        except Exception:  # pragma: no cover - exotic platforms
            return "inline"
        return "pickle"

    def _mp_context(self):
        return mp.get_context("fork") if self._fork_available() else mp.get_context()

    # -- generic dispatch ------------------------------------------------
    def _run_shards(
        self,
        payloads: Sequence[Dict[str, object]],
        task_fn: Callable[[Dict[str, object]], Dict[str, object]],
        pooled: bool,
    ) -> Tuple[List[Dict[str, object]], Tuple[int, ...]]:
        """Run one payload per shard; return (results in shard order, recovered).

        All shards produce a result before this returns — pool failures
        (exceptions, hangs, killed workers) drain through one fresh-pool
        retry pass per ``retries`` and finally the deterministic in-process
        fallback.  An in-process failure propagates, leaving the caller's
        world unmerged.
        """
        n = len(payloads)
        results: List[Optional[Dict[str, object]]] = [None] * n
        if not pooled or n < 2:
            return [task_fn(p) for p in payloads], ()

        ctx = self._mp_context()
        failed = list(range(n))
        recovered: List[int] = []
        policy = self.retry_policy
        passes = policy.max_attempts if policy is not None else 1 + max(0, self.retries)
        started = time.monotonic()
        for attempt in range(passes):
            if not failed:
                break
            if attempt > 0 and policy is not None:
                if time.monotonic() - started > policy.deadline_s:
                    break  # deadline budget spent: straight to in-process
                time.sleep(policy.backoff_s(attempt - 1, seed=attempt - 1))
            pool = ctx.Pool(processes=min(self.resolve_workers(len(failed)), len(failed)))
            try:
                handles = [(i, pool.apply_async(task_fn, (payloads[i],))) for i in failed]
                deadline = time.monotonic() + self.timeout_s
                still: List[int] = []
                for i, handle in handles:
                    remaining = max(0.05, deadline - time.monotonic())
                    try:
                        results[i] = handle.get(remaining)
                    except Exception:
                        # Raised in the worker, timed out (hung), or the
                        # worker died and the task never produced a result.
                        still.append(i)
            finally:
                pool.terminate()
                pool.join()
            if attempt > 0:
                recovered.extend(i for i in failed if i not in still)
            failed = still
        if failed:
            for i in failed:
                results[i] = task_fn(payloads[i])  # in-process; raises propagate
            recovered.extend(failed)
        return results, tuple(sorted(recovered))  # type: ignore[return-value]

    # -- serving ---------------------------------------------------------
    def serve_window(
        self,
        engine,
        model_name: str,
        window: Mapping[str, np.ndarray],
        report,
        bits: int = 32,
    ) -> None:
        """Serve one fleet window sharded; merge into ``report`` and the world.

        Byte-identical to ``engine._serve_fleet_window`` on the same window:
        per-device results land in window order, ledgers extend by the same
        entries, monitors observe the same slices, planes end in the same
        state.  Degenerate cases (single worker, <2 window devices, a
        compiled plan whose lowering options were not recorded) fall back to
        the single-process sweep directly.
        """
        items: List[Tuple[str, np.ndarray]] = []
        for device_id, x in window.items():
            x = np.asarray(x)
            if x.shape[0]:
                items.append((device_id, x))
        if not items:
            return
        n = len(items)
        workers = self.resolve_workers(n)
        # A plan installed without recorded lowering options cannot be
        # recompiled identically in a worker; serve it in-process.
        plan_unreplayable = model_name in engine.plans and model_name not in engine._plan_options
        if workers < 2 or n < 2 or plan_unreplayable:
            engine._serve_fleet_window(model_name, dict(items), report, bits=bits)
            return
        mode = self._resolve_backend()
        if mode == "inline" and self.backend != "inline":
            # No usable pool: graceful single-process fallback.
            engine._serve_fleet_window(model_name, dict(items), report, bits=bits)
            return

        state = engine.fleet.state
        model = engine.models[model_name]
        plan_options = engine._plan_options.get(model_name) if model_name in engine.plans else None
        groups = shard_row_groups(n, workers)
        payloads: List[Dict[str, object]] = []
        shard_rows: List[np.ndarray] = []
        for shard_index, group in enumerate(groups):
            ids = [items[k][0] for k in group]
            rows = engine.fleet.rows_for(ids)
            shard_rows.append(rows)
            payloads.append(
                {
                    "shard_index": shard_index,
                    "parent_pid": os.getpid(),
                    "model_name": model_name,
                    "bits": bits,
                    "items": [items[k] for k in group],
                    "cost_model": engine.cost_model,
                    "models": {model_name: model},
                    "plan_options": plan_options,
                    # Deep copies: workers get pickled copies anyway; the
                    # inline backend must mutate copies too so the merge
                    # below is the only thing that touches the parent world.
                    "ledgers": copy.deepcopy(
                        {d: engine.ledgers[d] for d in ids if d in engine.ledgers}
                    ),
                    "monitors": copy.deepcopy(
                        {d: engine.monitors[d] for d in ids if d in engine.monitors}
                    ),
                    "state": state.extract_rows(rows),
                }
            )

        self._attach_faults("serve", payloads)
        task_results, recovered = self._run_shards(
            payloads, _serve_shard_task, pooled=mode != "inline"
        )

        # Barrier merge, in shard (= canonical window) order.  Nothing above
        # touched the parent world, so a raise before this point is clean.
        # With a durable store the merge is journaled: the intent record
        # (per-shard ledger segments, the auditable plane writes) is
        # fsynced *before* the first parent-world mutation and committed
        # after the last, so a crash mid-merge is detectable
        # (``pending_merges()``) rather than a silently partial merge.
        merge_token = None
        if self.durable_store is not None:
            merge_token = self.durable_store.begin_merge(
                "serve",
                {
                    "model_name": model_name,
                    "n_shards": len(task_results),
                    "ledger_segments": [
                        {
                            device_id: [entry.to_dict() for entry in segment]
                            for device_id, segment in task_result["ledger_segments"].items()
                            if segment
                        }
                        for task_result in task_results
                    ],
                },
            )
        for shard_index, task_result in enumerate(task_results):
            state.merge_rows(task_result["state"], shard_rows[shard_index])
            for device_id, segment in task_result["ledger_segments"].items():  # type: ignore[union-attr]
                if segment:
                    engine.ledgers[device_id].append_segment(segment)
            for device_id, monitor in task_result["monitors"].items():  # type: ignore[union-attr]
                engine.monitors[device_id] = monitor
            for result in task_result["results"]:  # type: ignore[union-attr]
                report.add(result)
        if merge_token is not None:
            self.durable_store.commit_merge(merge_token)
        report.shard_recoveries += len(recovered)

    # -- federated -------------------------------------------------------
    def collect_deltas(
        self, model, cohorts: Sequence[Sequence]
    ) -> Tuple[List[Tuple[np.ndarray, np.ndarray, np.ndarray]], int]:
        """Train whole batched cohorts on the pool in one dispatch.

        Each cohort (a list of clients that
        :func:`~repro.federated.engine.partition_cohorts` grouped into one
        batched sweep) runs whole in one worker, so the stacked-tensor
        geometry — and therefore every float — matches the single-process
        sweep exactly.  Returns one ``(deltas, losses, accs)`` triple per
        cohort, in order, plus the number of recovered shards.
        """
        workers = self.resolve_workers(len(cohorts))
        pooled = self._resolve_backend() != "inline" and workers >= 2 and len(cohorts) >= 2
        payloads = [
            {
                "shard_index": shard_index,
                "parent_pid": os.getpid(),
                "model": model,
                "clients": list(clients),
            }
            for shard_index, clients in enumerate(cohorts)
        ]
        self._attach_faults("train", payloads)
        task_results, recovered = self._run_shards(payloads, _train_shard_task, pooled=pooled)
        return [task_result["rows"] for task_result in task_results], len(recovered)
