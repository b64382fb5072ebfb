"""Scenario RNG draws must be identical across every engine path.

The dropout/straggler/byzantine decisions of a :class:`RoundScenario`
resolve in ``FederatedEngine._plan_round`` before any training happens,
so ``engine="batched" | "oracle" | "sharded"`` must agree on *who*
participates, drops out, straggles or attacks — round for round.  (The
seed-era oracle ignored the scenario entirely; this suite pins the fix.)
Also covers the ``RoundScenario.__post_init__`` validation edges.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "runtime"))

from _sharded_worlds import federated_world  # noqa: E402

from repro.federated.engine import RoundScenario  # noqa: E402

N_CLIENTS = 12
N_ROUNDS = 4


def _scenario():
    return RoundScenario(
        dropout_rate=0.25,
        straggler_timeout_s=0.05,
        time_per_sample_s=1e-3,
        byzantine_ids=frozenset({"c1", "c4"}),
        byzantine_mode="flip",
        byzantine_scale=3.0,
        seed=13,
    )


def _run(engine, seed=9):
    fed = federated_world(seed, N_CLIENTS)
    fed.scenario = _scenario()
    results = [fed.run_round(r, engine=engine) for r in range(N_ROUNDS)]
    return fed, results


def _draws(results):
    """The scenario-driven decisions of each round, in comparable form."""
    return [
        {
            "participants": r.participants,
            "n_selected": r.n_selected,
            "n_dropouts": r.n_dropouts,
            "n_stragglers": r.n_stragglers,
            "n_byzantine": r.n_byzantine,
        }
        for r in results
    ]


@pytest.mark.parametrize("engine", ["oracle", "sharded"])
def test_scenario_draws_are_identical_across_engines(engine):
    _, ref_results = _run("batched")
    _, results = _run(engine)
    assert _draws(results) == _draws(ref_results)


@pytest.mark.parametrize("engine", ["oracle", "sharded"])
def test_scenario_rounds_are_fully_identical_across_engines(engine):
    ref, ref_results = _run("batched")
    fed, results = _run(engine)
    assert [r.as_dict() for r in results] == [r.as_dict() for r in ref_results]
    assert (
        fed.global_model.get_flat_weights().tobytes()
        == ref.global_model.get_flat_weights().tobytes()
    )


def _unit_scale_byzantine_run(engine):
    fed = federated_world(9, N_CLIENTS)
    fed.scenario = RoundScenario(byzantine_ids=frozenset({"c1", "c4"}), byzantine_scale=1.0, seed=13)
    return [fed.run_round(r, engine=engine).as_dict() for r in range(2)]


@pytest.mark.parametrize("engine", ["oracle", "sharded"])
def test_unit_scale_byzantine_clients_are_counted_on_every_engine(engine):
    """A factor-1.0 corruption leaves the delta unchanged, but the client is
    still byzantine: every engine counts it."""
    ref = _unit_scale_byzantine_run("batched")
    assert _unit_scale_byzantine_run(engine) == ref
    assert sum(r["n_byzantine"] for r in ref) > 0


def test_scenario_actually_perturbs_the_rounds():
    # Guard against the differential test passing vacuously.
    _, results = _run("batched")
    assert sum(r.n_dropouts + r.n_stragglers for r in results) >= 1
    assert sum(r.n_byzantine for r in results) >= 1


# -- RoundScenario validation edges ---------------------------------------


def test_dropout_rate_bounds():
    RoundScenario(dropout_rate=0.0)
    RoundScenario(dropout_rate=0.999)
    with pytest.raises(ValueError):
        RoundScenario(dropout_rate=1.0)
    with pytest.raises(ValueError):
        RoundScenario(dropout_rate=-0.1)


def test_straggler_timeout_must_be_positive_or_none():
    RoundScenario(straggler_timeout_s=None)
    RoundScenario(straggler_timeout_s=1e-9)
    with pytest.raises(ValueError):
        RoundScenario(straggler_timeout_s=0.0)
    with pytest.raises(ValueError):
        RoundScenario(straggler_timeout_s=-1.0)


def test_time_per_sample_must_be_nonnegative():
    RoundScenario(time_per_sample_s=0.0)
    with pytest.raises(ValueError):
        RoundScenario(time_per_sample_s=-1e-6)


def test_latency_jitter_must_be_nonnegative():
    RoundScenario(latency_jitter=0.0)
    with pytest.raises(ValueError):
        RoundScenario(latency_jitter=-0.5)


def test_byzantine_scale_must_be_positive():
    RoundScenario(byzantine_scale=0.5)
    with pytest.raises(ValueError):
        RoundScenario(byzantine_scale=0.0)
    with pytest.raises(ValueError):
        RoundScenario(byzantine_scale=-10.0)


def test_byzantine_mode_is_validated():
    with pytest.raises(ValueError):
        RoundScenario(byzantine_mode="jam")


def test_byzantine_ids_are_frozen():
    scenario = RoundScenario(byzantine_ids=["c1", "c2"])
    assert scenario.byzantine_ids == frozenset({"c1", "c2"})
