"""``federated_durable``: consecutive ``run_round`` calls under faults, durably checkpointed.

100 clients in two cohorts (Adam with FedProx, batch 4 vs 8, a Dropout
MLP), each mapped to a fleet device; ``RandomScheduler(fraction=0.5)``,
top-k compression, a ``FaultPlan.generate`` with the default radio fault
rates, ``quorum=0.5`` and a ``DurableCheckpointStore`` in a fresh scratch
dir.

The pass is a sequence of episodes.  Each builds that world from the seed,
runs ``ROUNDS_PER_EPISODE`` rounds, then times a restart: a fresh
``DurableCheckpointStore`` over the same dir loading ``latest_commit``,
whose weights must equal the in-memory global model.  Round latency grows
with the store's history, so every episode covers the same rounds and a
build that gets through more episodes sees the same mix of early and late
rounds.  Every episode replays the same seed, so each must produce the
same results as the first.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np

from repro.data import make_gaussian_blobs, partition_iid
from repro.devices import Fleet
from repro.faults import DurableCheckpointStore, FaultInjector, FaultPlan
from repro.federated import FederatedClient, FederatedEngine, RandomScheduler, get_compressor
from repro.nn import make_mlp

from common import Budget, Outcome, align_gc, make_scratch_dir, remove_scratch_dir

N_CLIENTS = 100
ROUNDS_PER_EPISODE = 100
RESTARTS = 20  # timed restarts per episode; the store is only read


@dataclass
class FederatedWorld:
    engine: FederatedEngine
    store_dir: str
    seed: int

    def close(self) -> None:
        remove_scratch_dir(self.store_dir)


def setup(seed: int) -> FederatedWorld:
    ds = make_gaussian_blobs(N_CLIENTS * 32, 16, 5, cluster_std=1.2, seed=seed)
    train, test = ds.split(0.2, seed=seed)
    parts = partition_iid(train, N_CLIENTS, seed=seed + 1)
    clients = [
        FederatedClient(
            part,
            local_epochs=3,
            batch_size=4 if i % 2 == 0 else 8,
            lr=0.01 if i % 2 == 0 else 0.02,
            optimizer="adam",
            proximal_mu=0.1,
            seed=seed + i,
        )
        for i, part in enumerate(parts)
    ]
    fleet = Fleet.random(N_CLIENTS, seed=seed)
    client_ids = [c.client_id for c in clients]
    plan = FaultPlan.generate(seed, client_ids=client_ids, n_rounds=ROUNDS_PER_EPISODE)
    store_dir = make_scratch_dir()
    engine = FederatedEngine(
        make_mlp(16, 5, hidden=(16,), dropout=0.15, seed=seed),
        clients,
        compressor=get_compressor("topk", fraction=0.1),
        scheduler=RandomScheduler(fraction=0.5, seed=seed),
        eval_data=(test.x, test.y),
        fleet=fleet,
        device_map=dict(zip(client_ids, fleet.devices)),
        fault_injector=FaultInjector(plan),
        quorum=0.5,
        checkpoints=DurableCheckpointStore(store_dir),
    )
    return FederatedWorld(engine=engine, store_dir=store_dir, seed=seed)


def _episode(world: FederatedWorld, out: Outcome) -> None:
    engine = world.engine
    results = []
    for r in range(ROUNDS_PER_EPISODE):
        def round_op() -> None:
            t0 = time.perf_counter()
            result = engine.run_round(r)
            out.op_s.append(time.perf_counter() - t0)
            out.work += len(result.participants)
            out.check(result.round_index == r, f"round {r}: result carries round {result.round_index}")
            results.append(result.as_dict())

        if not out.attempt(f"round {r}", round_op):
            return
    weights = engine.global_model.get_flat_weights()

    def restart() -> None:
        for _ in range(RESTARTS):
            t0 = time.perf_counter()
            commit = DurableCheckpointStore(world.store_dir).latest_commit()
            out.oneshot_s.append(time.perf_counter() - t0)
            out.check(
                commit is not None and np.array_equal(commit["weights"], weights),
                "restart: latest_commit weights differ from the in-memory global model",
            )
            out.check(
                commit is not None and commit["result"] == results[-1],
                "restart: latest_commit result differs from the last round's result",
            )
        episode = {"rounds": results, "weights_sha256": hashlib.sha256(weights.tobytes()).hexdigest()}
        if out.outputs:
            out.check(episode == out.outputs[0], "episode did not replay the first episode byte for byte")
        out.outputs.append(episode)

    out.attempt("restart", restart)


def run(world: FederatedWorld, budget: Budget) -> Outcome:
    out = Outcome()
    budget.start()
    while budget.more(out.units):
        if out.units:
            world = setup(world.seed)
        align_gc()
        try:
            _episode(world, out)
        finally:
            world.close()
        out.units += 1
        out.mark_memory()
        if out.failed:
            break
    return out
