"""Span tracing from outside the program.

:class:`Tracer` wraps public entry points of each layer (class methods
and one module function) for the duration of a traced repetition.  Each
call records a span: name, start, end, parent span and tenant, plus a
small ``info`` dict read from the call's result.  Spans stay in memory
until the run ends.  The wrapped calls all run on the server's worker
thread inside ``TuningService.step_batch``, so the parent is the top of
a per-thread span stack.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: calls per timing loop of :meth:`Tracer.span_cost_seconds`
SPAN_COST_CALLS = 20000


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    tenant: Optional[str]
    info: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _tenant_arg(args):
    return args[1] if len(args) > 1 and isinstance(args[1], str) else None


def _step_batch_info(args, result, info):
    info["calls"] = [(c.tenant_id, c.method) for c in args[1]]


def _suggest_info(args, result, info):
    tuner = args[0]
    # the suggest appended its IterationTrace iff it got past cold start
    if tuner.traces and tuner.traces[-1].iteration == args[1].iteration:
        info["overhead"] = dict(tuner.traces[-1].overhead)


def _assess_info(args, result, info):
    info["safe_ratio"] = result.safety_set_size / max(1, len(result.candidates))


def _appends_info(args, result, info):
    info["rows"] = result["rows"]
    info["groups"] = result["groups"]


def _count_info(args, result, info):
    info["count"] = int(result)


def _targets():
    """(owner, attribute, span name, tenant from args, info reader)."""
    import repro.gp.batching as gp_batching
    from repro.core.clustering import ClusteredModels
    from repro.core.context import ContextFeaturizer
    from repro.core.safety import SafetyAssessor
    from repro.core.subspace import Subspace
    from repro.core.tuner import OnlineTune
    from repro.gp.gpr import GaussianProcess
    from repro.ml.lstm import QueryEmbedder
    from repro.service.knowledge import KnowledgeBase
    from repro.service.lease import LeaseManager
    from repro.service.service import TuningService
    from repro.service.store import CheckpointStore

    targets = [(TuningService, "step_batch", "service.round", False,
                _step_batch_info)]
    # per-tenant service calls: they name the tenant of every child span
    for method in TuningService.STEP_METHODS:
        targets.append((TuningService, method, f"service.{method}", True,
                        None))
    targets += [
        (LeaseManager, "acquire", "lease.acquire", True, None),
        (CheckpointStore, "save", "store.snapshot", True, None),
        (CheckpointStore, "save_delta", "store.delta", True, None),
        (CheckpointStore, "load_latest_chain", "store.load_chain", True, None),
        (KnowledgeBase, "warm_start", "knowledge.warm_start", False,
         _count_info),
        (KnowledgeBase, "register", "knowledge.register", True, None),
        (OnlineTune, "suggest", "tuner.suggest", False, _suggest_info),
        (OnlineTune, "observe", "tuner.observe", False, None),
        (OnlineTune, "replay", "tuner.replay", False, _count_info),
        (ContextFeaturizer, "featurize", "context.featurize", False, None),
        (QueryEmbedder, "fit", "context.embedder_fit", False, None),
        (ClusteredModels, "relearn", "clustering.relearn", False, None),
        (Subspace, "set_importances", "subspace.importance", False, None),
        (SafetyAssessor, "assess", "safety.assess", False, _assess_info),
        (GaussianProcess, "fit", "gp.fit", False, None),
        (gp_batching, "execute_appends", "gp.drain", False, _appends_info),
    ]
    return targets


class Tracer:
    """Install span-recording wrappers; :meth:`uninstall` restores the
    originals.  Not reentrant: one traced repetition at a time."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, original, name: str, tenant_from_args: bool, reader):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            tenant = _tenant_arg(args) if tenant_from_args else None
            if tenant is None and parent is not None:
                tenant = parent.tenant
            span = Span(next(tracer._ids), name, time.perf_counter(), 0.0,
                        parent.id if parent else None, tenant)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if reader is not None:
                reader(args, result, span.info)
            return result
        return traced

    def span_cost_seconds(self) -> float:
        """What one span adds to a call: a no-op timed through this
        tracer's wrapper and bare, best of five loops of
        ``SPAN_COST_CALLS`` each.  The spans recorded here are
        discarded."""
        def noop(*args):
            return None
        wrapped = self._wrap(noop, "trace.calibration", False, None)
        spans, ids = self.spans, self._ids
        self.spans, self._ids = [], itertools.count(1)
        try:
            best = {}
            for fn in (noop, wrapped):
                loops = []
                for _ in range(5):
                    self.spans.clear()
                    t0 = time.perf_counter()
                    for _ in range(SPAN_COST_CALLS):
                        fn(None, None)
                    loops.append(time.perf_counter() - t0)
                best[fn] = min(loops)
        finally:
            self.spans, self._ids = spans, ids
        return max(0.0, best[wrapped] - best[noop]) / SPAN_COST_CALLS

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, tenant_from_args, reader in _targets():
            original = vars(owner)[attr]     # defined there, not inherited
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, tenant_from_args,
                                            reader))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_seconds(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus its children's (children of one span
    run sequentially on one thread, so they never overlap)."""
    own = {s.id: s.seconds for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.seconds
    return own


def max_depth(spans: List[Span]) -> int:
    """Length of the longest parent chain (1 = no span has a parent)."""
    parents = {s.id: s.parent for s in spans}
    depth = 0
    for s in spans:
        d, p = 1, s.parent
        while p is not None:
            d, p = d + 1, parents.get(p)
        depth = max(depth, d)
    return depth


def check_nesting(spans: List[Span]) -> List[str]:
    """Problems with the span tree: a child outside its parent's
    interval, or a parent that was never recorded."""
    by_id = {s.id: s for s in spans}
    problems = []
    for s in spans:
        if s.end < s.start:
            problems.append(f"span {s.id} {s.name} ends before it starts")
        if s.parent is None:
            continue
        p = by_id.get(s.parent)
        if p is None:
            problems.append(f"span {s.id} {s.name} has unrecorded parent")
        elif not (p.start <= s.start and s.end <= p.end):
            problems.append(f"span {s.id} {s.name} outside parent {p.name}")
    return problems
