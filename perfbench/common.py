"""Shared pieces of the workloads: run budgets, outcomes, digests, scratch dirs."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Durable-store dirs live inside the checkout; each run makes its own and
# removes it when the run ends.
SCRATCH_ROOT = os.path.join(ROOT, ".perfbench_tmp")


@dataclass
class Budget:
    """When a workload stops issuing work.

    A measured pass runs for ``seconds`` from :meth:`start`, which the
    workload calls where its measured loop begins; a replay runs exactly
    ``units`` units (windows or episodes), so a traced pass does the same
    work as the untraced pass it is compared with.  Either way at least
    one unit runs.
    """

    seconds: Optional[float] = None
    units: Optional[int] = None
    deadline: float = 0.0

    def start(self) -> None:
        if self.seconds is not None:
            self.deadline = time.perf_counter() + self.seconds

    def more(self, done: int) -> bool:
        if done == 0:
            return True
        if self.units is not None:
            return done < self.units
        return time.perf_counter() < self.deadline


@dataclass
class Outcome:
    """What one pass of a workload measured and produced.

    ``op_s`` holds the latency of every closed-loop operation (a serving
    window, a federated round or a lifecycle cycle), ``work`` the useful
    items those operations completed, and ``oneshot_s`` the samples of the
    workload's one-off operator action.  ``outputs`` is everything a traced
    pass must reproduce byte for byte.
    """

    op_s: List[float] = field(default_factory=list)
    work: int = 0
    oneshot_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    outputs: list = field(default_factory=list)
    units: int = 0
    notes: Dict[str, object] = field(default_factory=dict)
    peak_rss_mb: float = 0.0

    def mark_memory(self) -> None:
        """Read the process's peak resident set at a point of fixed work.

        Workloads call this once the same amount of work is done on every
        build (after set-up plus the warm-up, or after the first episode):
        read at the end of a timed run, the peak would grow with the number
        of operations a faster build gets through.
        """
        if not self.peak_rss_mb:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def check(self, ok: bool, what: str) -> None:
        """Record a failed correctness check of the operation under way."""
        if not ok:
            self.failures.append(what)

    def attempt(self, label: str, fn: Callable[[], object]) -> bool:
        """Run one operation; it fails if it raises or fails a check.

        Returns False when the operation raised, and the caller stops
        issuing work: the world state after a failure is not trusted.
        """
        self.attempted += 1
        before = len(self.failures)
        try:
            fn()
        except Exception as exc:  # a failed operation is a result, not a crash
            traceback.print_exc()
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            self.failed += 1
            return False
        if len(self.failures) > before:
            self.failed += 1
        return True

    def digest(self) -> str:
        return hashlib.sha256(json.dumps(self.outputs, sort_keys=True, default=repr).encode()).hexdigest()


def align_gc() -> None:
    """Run a full collection, untimed, before a timed phase.

    Full collections are triggered by allocation counts, so after this
    every seed and every episode meets them at the same points of the
    same work; otherwise whether a timed operation pays for one (~80 ms on
    the 10k-device world) depends on what ran before it.
    """
    gc.collect()


def make_scratch_dir() -> str:
    os.makedirs(SCRATCH_ROOT, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=SCRATCH_ROOT)


def remove_scratch_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(SCRATCH_ROOT)
    except OSError:  # other runs' dirs still there, or already gone
        pass
