"""``lifecycle_loop``: rollout, then served windows each followed by a lifecycle step.

A ``TinyMLOpsPlatform`` over 500 devices releases and deploys a trained
MLP (timed together as the rollout).  Each cycle then serves one window
with a seeded input shift through ``platform.serve_fleet`` and calls
``LifecyclePipeline.step()``: retrain 2 federated rounds on a clone,
canary, gates, then ``promote_model``.  Every ``OVERSIZED_EVERY``-th cycle
instead calls ``run_cycle(candidate_model=oversized_candidate(...))``,
which the gates must reject (the rollback path).

Cycle latency grows with the registry's history, so the pass is a
sequence of episodes of ``CYCLES_PER_EPISODE`` cycles, each on a fresh
world built from the seed; every episode must replay the first one's
decisions exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core import PlatformConfig, TinyMLOpsPlatform, TrafficGenerator
from repro.data import make_gaussian_blobs, partition_dirichlet
from repro.devices import Fleet
from repro.lifecycle import LifecycleConfig, oversized_candidate
from repro.nn import make_mlp

from common import Budget, Outcome, align_gc

N_DEVICES = 500
CYCLES_PER_EPISODE = 4
OVERSIZED_EVERY = 4
MODEL = "sensor-classifier"


@dataclass
class LifecycleWorld:
    platform: TinyMLOpsPlatform
    model: object
    train: object
    test: object
    traffic: TrafficGenerator
    shift_rng: np.random.Generator
    seed: int


def setup(seed: int) -> LifecycleWorld:
    dataset = make_gaussian_blobs(n_samples=1500, n_features=12, n_classes=4, seed=seed)
    train, test = dataset.split(test_fraction=0.3, seed=seed)
    fleet = Fleet.random(N_DEVICES, seed=seed)
    platform = TinyMLOpsPlatform(fleet, PlatformConfig(bit_widths=(8,), sparsities=(0.5,), seed=seed))
    model = make_mlp(12, 4, hidden=(48, 24), seed=seed, name=MODEL)
    model.fit(train.x, train.y, epochs=6, lr=0.01, seed=seed)
    return LifecycleWorld(
        platform=platform,
        model=model,
        train=train,
        test=test,
        traffic=TrafficGenerator(list(fleet.devices), seed=seed),
        shift_rng=np.random.default_rng([seed, 3]),
        seed=seed,
    )


def _episode(world: LifecycleWorld, out: Outcome) -> None:
    platform = world.platform
    episode = {"windows": [], "decisions": []}

    def rollout() -> None:
        t0 = time.perf_counter()
        platform.release(world.model, world.test.x, world.test.y)
        summary = platform.deploy(
            MODEL,
            reference_x=world.train.x[:300],
            reference_predictions=world.model.predict_classes(world.train.x[:300]),
            num_classes=4,
            prepaid_queries=10**9,
        )
        out.oneshot_s.append(time.perf_counter() - t0)
        out.check(summary["deployed"] == N_DEVICES, f"rollout deployed {summary['deployed']} of {N_DEVICES}")
        episode["rollout"] = {k: v for k, v in summary.items() if k != "failures"}

    if not out.attempt("rollout", rollout):
        return
    pipeline = platform.lifecycle(
        MODEL,
        partition_dirichlet(world.train, 8, alpha=0.7, seed=world.seed),
        (world.test.x, world.test.y),
        # schedule_every=1: a cycle runs on every step even when no drift fired
        config=LifecycleConfig(rounds=2, canary_fraction=0.05, schedule_every=1, seed=world.seed),
    )
    for c in range(CYCLES_PER_EPISODE):
        def cycle() -> None:
            counts = world.traffic.steady(1, rate=4.0)
            shift = float(world.shift_rng.uniform(1.0, 4.0))
            window = {d: x + shift for d, x in next(world.traffic.windows(counts, world.test.x)).items()}
            oversized = c % OVERSIZED_EVERY == OVERSIZED_EVERY - 1
            t0 = time.perf_counter()
            report = platform.serve_fleet(MODEL, window)
            if oversized:
                bad = oversized_candidate(platform.deployed_models[MODEL], seed=world.seed + c)
                decision = pipeline.run_cycle(candidate_model=bad)
            else:
                decision = pipeline.step()
            out.op_s.append(time.perf_counter() - t0)
            r = report.as_dict()
            out.check(
                r["served"] + r["denied_quota"] + r["battery_failures"] + r["network_failures"] == r["requested"],
                f"cycle {c}: served + denied + battery + network != requested",
            )
            out.check(decision is not None, f"cycle {c}: step() ran no cycle")
            if decision is None:
                return
            out.work += 1
            out.check(not (oversized and decision.promoted), f"cycle {c}: oversized candidate was promoted")
            record = platform.registry.store.get_object(decision.record_digest)
            out.check(record == decision.as_dict(), f"cycle {c}: decision record digest does not resolve to it")
            episode["windows"].append(r)
            episode["decisions"].append({**decision.as_dict(), "record_digest": decision.record_digest})

        if not out.attempt(f"cycle {c}", cycle):
            return

    def replay_check() -> None:
        if out.outputs:
            out.check(episode == out.outputs[0], "episode did not replay the first episode exactly")
        out.outputs.append(episode)

    out.attempt("episode replay", replay_check)


def run(world: LifecycleWorld, budget: Budget) -> Outcome:
    out = Outcome()
    budget.start()
    while budget.more(out.units):
        if out.units:
            world = setup(world.seed)
        align_gc()
        _episode(world, out)
        out.units += 1
        out.mark_memory()
        if out.failed:
            break
    return out
