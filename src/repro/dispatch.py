"""Engine-dispatch convention shared by every dual-path surface.

The platform keeps two implementations of each hot path: the vectorized
production path and the scalar predecessor, preserved as the differential
oracle (standing invariant in ROADMAP.md).  Every dual-path entry point —
:meth:`~repro.core.serving.ServingEngine.serve_fleet`,
:meth:`~repro.federated.engine.FederatedEngine.run_round`, the drift
detectors, :class:`~repro.observability.EdgeMonitor`,
:func:`~repro.exchange.executor.execute_graph` — selects its path with one
keyword:

``engine="batched"``
    the vectorized path (the default everywhere but ``execute_graph``);
``engine="oracle"``
    the scalar reference path.

Fleet-scale surfaces that can distribute work over a
:class:`~repro.runtime.sharded.ShardedFleetRunner` additionally accept

``engine="sharded"``
    the multi-process backend: the fleet is partitioned into per-worker
    shards, each shard runs the *batched* path independently, and the
    results are merged at a barrier so the outcome is byte-identical to
    ``engine="batched"`` (which in turn stays equivalent to the oracle).
    Currently offered by :meth:`~repro.core.serving.ServingEngine.serve_fleet`
    and :meth:`~repro.federated.engine.FederatedEngine.run_round`, both of
    which take a ``workers=`` count and fall back to the single-process
    batched path when a pool is unavailable or the shards would be
    degenerate (one worker, one shard, an unreplayable compiled plan).

``"sharded"`` is *opt-in per surface*: a call site declares support by
passing ``extra=(ENGINE_SHARDED,)`` to :func:`resolve_engine`; surfaces
that have no distributed implementation keep rejecting it.
"""

from __future__ import annotations

from typing import Optional, Sequence

__all__ = ["ENGINE_BATCHED", "ENGINE_ORACLE", "ENGINE_SHARDED", "resolve_engine"]

ENGINE_BATCHED = "batched"
ENGINE_ORACLE = "oracle"
ENGINE_SHARDED = "sharded"
_ENGINES = (ENGINE_BATCHED, ENGINE_ORACLE)


def resolve_engine(
    engine: Optional[str] = None,
    *,
    default: str = ENGINE_BATCHED,
    owner: str = "",
    extra: Sequence[str] = (),
) -> str:
    """Validate the ``engine=`` keyword; ``None`` selects ``default``.

    ``engine`` must be ``"batched"``, ``"oracle"`` or one of the
    surface-specific ``extra`` engines (e.g. ``"sharded"`` on surfaces that
    pass ``extra=(ENGINE_SHARDED,)``); anything else raises
    :class:`ValueError` naming the ``owner`` call site.
    """
    if engine is None:
        return default
    allowed = _ENGINES + tuple(extra)
    if engine not in allowed:
        raise ValueError(f"{owner or 'call'}: unknown engine {engine!r}; expected one of {allowed}")
    return engine
