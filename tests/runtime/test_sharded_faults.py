"""Fault-injection suite for the sharded backend's recovery machinery.

The contract: a worker that raises, hangs or dies mid-task never produces a
partial merge.  The runner retries the shard on a fresh pool and finally
re-executes it deterministically in-process; only when *every* shard has a
result does the barrier merge run, and the recovery is flagged
(``FleetServeReport.shard_recoveries`` / ``RoundResult.shard_recoveries``)
while staying byte-identical to a fault-free batched run.  A genuinely
poisoned shard (fails even in-process) propagates its exception with the
parent's ledgers, planes and monitors untouched.

Faults are injected via the ``REPRO_SHARD_FAULT`` env var (parsed inside
the worker task): ``"<shard>:<mode>[:<scope>]"`` with mode ``raise`` /
``hang`` / ``exit``.  The default ``worker`` scope only fires in pool
workers, so the in-process fallback recovers; scope ``any`` poisons the
in-process retry too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime.sharded import FAULT_ENV, ShardedFleetRunner

from _sharded_worlds import (
    federated_world as _federated_world,
    run_rounds as _run_rounds,
    serving_snapshot as _serving_snapshot,
    serving_world as _serving_world,
)

FAULT_MODES = ("raise", "hang", "exit")


def _fault_runner(backend="pickle"):
    # Short timeout keeps the hang tests fast; retries=0 goes straight from
    # the failed pool pass to the deterministic in-process fallback.
    return ShardedFleetRunner(workers=3, backend=backend, timeout_s=4.0, retries=0)


@pytest.mark.parametrize("mode", FAULT_MODES)
def test_serving_recovers_from_worker_fault(mode, monkeypatch):
    base, window = _serving_world(seed=7, n_devices=12)
    report_base = base.serve_fleet("m", window)
    snap_base = _serving_snapshot(base)

    sharded, window_s = _serving_world(seed=7, n_devices=12)
    sharded.shard_runner = _fault_runner()
    monkeypatch.setenv(FAULT_ENV, f"1:{mode}")
    report_sharded = sharded.serve_fleet("m", window_s, engine="sharded")

    assert report_sharded.shard_recoveries > 0  # the recovery is flagged...
    stripped = report_sharded.as_dict()
    stripped["shard_recoveries"] = 0
    assert stripped == report_base.as_dict()  # ...and nothing else differs
    assert _serving_snapshot(sharded) == snap_base


@pytest.mark.parametrize("mode", ("raise", "exit"))
def test_serving_recovery_restarts_from_pre_dispatch_planes(mode, monkeypatch):
    """A shard may have admitted queries before dying; the in-process
    re-execution must start from the pre-dispatch planes, so the merged
    world equals a fault-free batched run."""
    base, window = _serving_world(seed=19, n_devices=14)
    report_base = base.serve_fleet("m", window)
    snap_base = _serving_snapshot(base)

    sharded, window_s = _serving_world(seed=19, n_devices=14)
    sharded.shard_runner = _fault_runner()
    monkeypatch.setenv(FAULT_ENV, f"1:{mode}")
    report_sharded = sharded.serve_fleet("m", window_s, engine="sharded")
    assert report_sharded.shard_recoveries > 0
    assert _serving_snapshot(sharded) == snap_base
    assert report_sharded.served == report_base.served


def test_serving_poisoned_shard_never_merges_partially(monkeypatch):
    """Scope ``any`` poisons the in-process retry too: the call raises and
    the parent world (ledgers, planes, monitors) is exactly untouched."""
    sharded, window = _serving_world(seed=23, n_devices=12)
    snap_before = _serving_snapshot(sharded)
    sharded.shard_runner = _fault_runner()
    monkeypatch.setenv(FAULT_ENV, "1:raise:any")
    with pytest.raises(RuntimeError, match="injected fault"):
        sharded.serve_fleet("m", window, engine="sharded")
    assert _serving_snapshot(sharded) == snap_before


def test_serving_poisoned_first_shard_leaves_planes_untouched(monkeypatch):
    sharded, window = _serving_world(seed=29, n_devices=12)
    snap_before = _serving_snapshot(sharded)
    sharded.shard_runner = _fault_runner()
    monkeypatch.setenv(FAULT_ENV, "0:raise:any")
    with pytest.raises(RuntimeError, match="injected fault"):
        sharded.serve_fleet("m", window, engine="sharded")
    assert _serving_snapshot(sharded) == snap_before


def test_serving_retry_pass_recovers_transient_fault(monkeypatch):
    """With retries=1 a shard that only fails in pool workers is re-run on a
    fresh pool; because the env fault is persistent here the retry also
    fails and the in-process fallback finishes the job — both paths count
    as one recovery."""
    base, window = _serving_world(seed=31, n_devices=12)
    report_base = base.serve_fleet("m", window)

    sharded, window_s = _serving_world(seed=31, n_devices=12)
    sharded.shard_runner = ShardedFleetRunner(workers=3, backend="pickle", timeout_s=4.0, retries=1)
    monkeypatch.setenv(FAULT_ENV, "2:raise")
    report_sharded = sharded.serve_fleet("m", window_s, engine="sharded")
    assert report_sharded.shard_recoveries == 1
    assert report_sharded.served == report_base.served


@pytest.mark.parametrize("mode", FAULT_MODES)
def test_federated_recovers_from_worker_fault(mode, monkeypatch):
    base = _federated_world(seed=9, n_clients=12)
    results_base = _run_rounds(base, 1)

    sharded = _federated_world(seed=9, n_clients=12)
    sharded.shard_runner = _fault_runner()
    monkeypatch.setenv(FAULT_ENV, f"1:{mode}")
    results_sharded = _run_rounds(sharded, 1, engine="sharded")

    assert results_sharded[0].shard_recoveries > 0
    assert (
        sharded.global_model.get_flat_weights().tobytes()
        == base.global_model.get_flat_weights().tobytes()
    )
    stripped = results_sharded[0].as_dict()
    stripped["shard_recoveries"] = 0
    assert stripped == results_base[0].as_dict()


def test_federated_poisoned_cohort_propagates_without_update(monkeypatch):
    sharded = _federated_world(seed=13, n_clients=12)
    weights_before = sharded.global_model.get_flat_weights().tobytes()
    sharded.shard_runner = _fault_runner()
    monkeypatch.setenv(FAULT_ENV, "0:raise:any")
    with pytest.raises(RuntimeError, match="injected fault"):
        sharded.run_round(0, engine="sharded")
    # The round never reached aggregation: global weights are untouched.
    assert sharded.global_model.get_flat_weights().tobytes() == weights_before
    assert sharded.history == []
