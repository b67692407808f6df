"""Input generator: per-tenant streams of snapshots, tau and feedback.

Everything the tuning service receives is made here from the workload
seed and nothing else.  Snapshots and tau depend only on the iteration,
so they are computed before any timing starts; the simulated instance's
``run_interval`` consumes a sequential RNG and runs inline in the
client's loop, where its cost is measured as ``generator.sim_ms``.

Tau is the vendor default's performance (``reference="mysql"``): a
served tenant starts from ``space.default_vector()`` because
``TuningService`` never calls ``OnlineTune.start`` and ``TenantSpec``
carries no initial configuration.  Against the DBA reference every
interval of a served tenant reads as unsafe and the tuner never leaves
its regression guard, so the benchmark would time only that fallback.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List

from repro.baselines.base import Feedback, SuggestInput
from repro.harness.experiments import SPACE_FACTORIES, WORKLOAD_FACTORIES, build_session
from repro.harness.runner import UNSAFE_TOLERANCE

SPACE = "mysql57"
SNAPSHOT_QUERIES = 30


@dataclass
class Stream:
    """One tenant's precomputed inputs plus its simulated instance."""

    tenant_id: str
    workload: str
    seed: int
    snapshots: list
    taus: List[float]
    olap: List[bool]
    db: object
    space: object
    sim_seconds: List[float] = field(default_factory=list)
    unsafe: int = 0
    improvements: List[float] = field(default_factory=list)
    last_metrics: Dict[str, float] = field(default_factory=dict)

    def suggest_input(self, t: int) -> SuggestInput:
        return SuggestInput(iteration=t, snapshot=self.snapshots[t],
                            metrics=self.last_metrics,
                            default_performance=self.taus[t],
                            is_olap=self.olap[t])

    def execute(self, t: int, config) -> Feedback:
        """Run interval ``t`` under ``config`` and score it like the
        paper's harness (``TuningSession.step``)."""
        t0 = time.perf_counter()
        result = self.db.run_interval(t, config)
        self.sim_seconds.append(time.perf_counter() - t0)
        tau = self.taus[t]
        perf = result.objective(self.olap[t])
        if result.failed or perf < tau - UNSAFE_TOLERANCE * abs(tau):
            self.unsafe += 1
        self.improvements.append((perf - tau) / max(abs(tau), 1e-9))
        self.last_metrics = result.metrics
        return Feedback(iteration=t, config=config, performance=perf,
                        metrics=result.metrics, failed=result.failed,
                        default_performance=tau)


class InputCache:
    """Snapshot/tau tables keyed by (workload, seed, intervals), so the
    repetitions of one run pay the generator's precomputation once."""

    def __init__(self) -> None:
        self._tables: Dict[tuple, tuple] = {}

    def stream(self, tenant_id: str, workload: str, seed: int,
               intervals: int) -> Stream:
        space = SPACE_FACTORIES[SPACE]()
        db = build_session(None, WORKLOAD_FACTORIES[workload](seed=seed),
                           space=space, reference="mysql", seed=seed).db
        key = (workload, seed, intervals)
        if key not in self._tables:
            self._tables[key] = (
                [db.observe_snapshot(t, n_queries=SNAPSHOT_QUERIES)
                 for t in range(intervals)],
                [float(db.default_performance(t)) for t in range(intervals)],
                [bool(db.profile(t).is_olap) for t in range(intervals)])
        snapshots, taus, olap = self._tables[key]
        return Stream(tenant_id=tenant_id, workload=workload, seed=seed,
                      snapshots=snapshots, taus=taus, olap=olap, db=db,
                      space=space)


def check_config(space, config) -> None:
    """Raise unless ``config`` names every knob with a legal value, i.e.
    it maps into [0,1]^d through ``space.to_unit`` without clipping."""
    if set(config) != set(space.names):
        raise AssertionError(f"config knobs {sorted(config)} != space knobs")
    for knob in space.knobs:
        value = config[knob.name]
        if knob.clip(value) != value:
            raise AssertionError(f"{knob.name}={value!r} outside its range")
    unit = space.to_unit(config)
    if not ((unit >= 0.0) & (unit <= 1.0)).all():
        raise AssertionError(f"config maps outside [0,1]^d: {unit}")
