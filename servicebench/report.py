"""Turn repetitions into the checks, the metrics and the result line."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Dict, List, Tuple

from spans import check_nesting, max_depth, self_seconds

#: Tail percentile of each workload's per-interval and per-suggest RTTs,
#: taken per repetition (the median over repetitions is reported).  Each
#: leaves at least 10 samples above it in one repetition, sits inside
#: one population of the sorted samples rather than on a seam between
#: two, and is the highest such rank that stayed steady across seeds;
#: README.md records the populations and spreads behind each choice.
TAILS = {
    "tenant-long": {"interval": 93.0, "suggest": 90.0},
    "fleet-onboard": {"interval": 96.0, "suggest": 96.0},
}


#: a run whose intervals are more often unsafe than this fails: a tuner
#: stuck in its regression guard or recommending blindly reads 50-100%
UNSAFE_CEILING_PCT = 10.0


def rank(samples: List[float], pct: float) -> Tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(samples)
    k = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[k - 1], len(ordered) - k


def _ms(values) -> List[float]:
    return [v * 1e3 for v in values]


def _metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def quality(rep) -> Tuple[float, float]:
    """``(unsafe_pct, improvement_pct)`` over every interval of a rep."""
    n = sum(len(s.improvements) for s in rep.streams)
    unsafe = sum(s.unsafe for s in rep.streams)
    gains = [g for s in rep.streams for g in s.improvements]
    return 100.0 * unsafe / max(1, n), 100.0 * math.fsum(gains) / max(1, n)


def checks(reps) -> List[str]:
    """Output checks every repetition must pass (configs are checked as
    they arrive; a bad one fails its call)."""
    problems = []
    for i, rep in enumerate(reps):
        problems += [f"rep {i}: {e}" for e in rep.errors[:5]]
        st = rep.server_stats
        if st.get("accepted") != (st.get("completed", 0) + st.get("rejected", 0)
                                  + st.get("unanswered", 0)):
            problems.append(f"rep {i}: server accounting broken: {st}")
        if st.get("unanswered"):
            problems.append(f"rep {i}: {st['unanswered']} unanswered requests")
        expected = sum(len(s.taus) for s in rep.streams)
        if rep.intervals != expected:
            problems.append(f"rep {i}: {rep.intervals}/{expected} intervals")
    if len(reps) < 2:
        problems.append("fewer than two repetitions to compare quality")
    figures = {quality(rep) for rep in reps}
    if len(figures) > 1:
        problems.append(f"quality differs between repetitions: {figures}")
    for unsafe_pct, _ in figures:
        if unsafe_pct > UNSAFE_CEILING_PCT:
            problems.append(f"{unsafe_pct:.2f}% unsafe intervals")
    return problems


def shape(samples_ms: List[float]) -> dict:
    """Where the populations sit: a few quantiles and the top values."""
    ordered = sorted(samples_ms)
    return {"n": len(ordered),
            "quantiles": {str(p): rank(ordered, p)[0]
                          for p in (50, 75, 90, 95, 97.5, 99)},
            "top": ordered[-12:]}


def end_to_end(workload: str, reps, import_s: List[float],
               peak_rss_mb: float) -> Dict[str, dict]:
    """Every end-to-end figure; ``BENCHMARK.json`` picks the bounded ones."""
    tails = TAILS[workload]
    interval = [v for r in reps for v in _ms(r.interval_s)]
    suggest = [v for r in reps for v in _ms(r.suggest_s)]
    n = len(reps)

    def tail(kind: str, attr: str) -> dict:
        pct = tails[kind]
        ranked = [rank(_ms(getattr(r, attr)), pct) for r in reps]
        return dict(_metric(statistics.median(v for v, _ in ranked), "ms",
                            sum(len(getattr(r, attr)) for r in reps)),
                    percentile=pct, beyond=min(b for _, b in ranked))

    return {
        "setup_s": _metric(statistics.median(import_s)
                           + statistics.median(r.setup_s for r in reps),
                           "s", len(import_s) + n),
        "interval_mean_ms": _metric(statistics.median(
            statistics.fmean(_ms(r.interval_s)) for r in reps), "ms", n),
        "interval_p50_ms": _metric(statistics.median(interval), "ms",
                                   len(interval)),
        "interval_tail_ms": tail("interval", "interval_s"),
        "suggest_p50_ms": _metric(statistics.median(suggest), "ms",
                                  len(suggest)),
        "suggest_tail_ms": tail("suggest", "suggest_s"),
        "intervals_per_s": _metric(statistics.median(
            r.intervals / r.load_s for r in reps), "1/s", n),
        "store_mb": _metric(statistics.median(
            r.store_bytes / 2**20 for r in reps), "MB", n),
        "peak_rss_mb": _metric(peak_rss_mb, "MB", 1),
        "create_rtt_ms": _metric(statistics.median(
            v for r in reps for v in _ms(r.create_s)), "ms",
            sum(len(r.create_s) for r in reps)),
    }


def _transport_waits(rep, spans) -> List[float]:
    """Each call's RTT minus the ``step_batch`` round that served it."""
    rounds = defaultdict(list)
    for s in spans:
        if s.name == "service.round":
            for key in s.info["calls"]:
                rounds[key].append(s)
    for key in rounds:
        rounds[key].sort(key=lambda s: s.start)
    waits = []
    for tenant, op, send, receive in rep.calls:
        for s in rounds.get((tenant, op), ()):
            if s.start >= send and s.end <= receive:
                waits.append((receive - send) - s.seconds)
                break
    return waits


def per_layer(traced) -> Dict[str, dict]:
    """Per-layer metrics from the traced repetitions.  Counts are per
    repetition; ``*_ms`` figures without p50/tail are means per call."""
    n_reps = len(traced)
    by_name: Dict[str, list] = defaultdict(list)
    waits, selfs_service, intervals = [], 0.0, 0
    rounds_stats = defaultdict(int)
    for rep, tracer in traced:
        own = self_seconds(tracer.spans)
        names = {s.id: s.name for s in tracer.spans}
        for s in tracer.spans:
            under_replay = names.get(s.parent) == "tuner.replay"
            by_name[s.name + (".replayed" if under_replay else "")].append(s)
            if s.name.startswith("service."):
                selfs_service += own[s.id]
        waits += _ms(_transport_waits(rep, tracer.spans))
        intervals += rep.intervals
        for key in ("rounds", "round_calls", "rejected"):
            rounds_stats[key] += rep.server_stats.get(key, 0)
        rounds_stats["retries"] += sum(rep.client_stats.values())

    def ms(name):
        return _ms(s.seconds for s in by_name[name])

    def summary(values, fn, unit="ms", **extra):
        return dict(_metric(fn(values) if values else 0.0, unit, len(values)),
                    **extra)

    def p50(values):
        return summary(values, statistics.median)

    def tail(values):
        return summary(values, lambda v: rank(v, 97.5)[0], percentile=97.5)

    def mean(values, unit="ms"):
        return summary(values, statistics.fmean, unit)

    def per_rep(values, unit="count"):
        return _metric(sum(values) / n_reps, unit, len(values))

    def count(name):
        return per_rep([1] * len(by_name[name]))

    def info(name, key):
        return [s.info.get(key, 0) for s in by_name[name]]

    calls = sum(len(by_name[f"service.{m}"]) for m in
                ("suggest", "observe", "close", "checkpoint", "resume",
                 "compact_if_due"))
    stages = defaultdict(list)
    for s in by_name["tuner.suggest"]:
        for stage, seconds in s.info.get("overhead", {}).items():
            stages[stage].append(seconds * 1e3)
    sim = [v for rep, _ in traced for st in rep.streams
           for v in _ms(st.sim_seconds)]
    unsafe_pct, improvement_pct = quality(traced[0][0])
    n_spans = sum(len(t.spans) for _, t in traced)
    spans_per_interval = n_spans / max(1, intervals)
    span_cost_ms = traced[0][1].span_cost_seconds() * 1e3
    out = {
        "transport.wait_p50_ms": p50(waits),
        "transport.wait_tail_ms": tail(waits),
        "transport.calls_per_round": _metric(
            rounds_stats["round_calls"] / max(1, rounds_stats["rounds"]),
            "count", rounds_stats["rounds"]),
        "transport.retries": per_rep([rounds_stats["retries"]]),
        "transport.rejected": per_rep([rounds_stats["rejected"]]),
        "service.round_p50_ms": p50(ms("service.round")),
        "service.round_tail_ms": tail(ms("service.round")),
        "service.self_ms": _metric(selfs_service * 1e3 / max(1, intervals),
                                   "ms", intervals),
        "service.rehydrations": count("store.load_chain"),
        "service.session_hit_ratio": _metric(
            1.0 - len(by_name["store.load_chain"]) / max(1, calls),
            "ratio", calls),
        "service.create_p50_ms": p50(ms("service.create")),
        "lease.acquires": count("lease.acquire"),
        "lease.acquire_p50_ms": p50(ms("lease.acquire")),
        "store.delta_p50_ms": p50(ms("store.delta")),
        "store.bytes_per_interval": _metric(
            sum(r.store_bytes for r, _ in traced) / max(1, intervals),
            "B", n_reps),
        "store.snapshots": count("store.snapshot"),
        "store.snapshot_p50_ms": p50(ms("store.snapshot")),
        "store.load_chain_p50_ms": p50(ms("store.load_chain")),
        "knowledge.warm_start_p50_ms": p50(ms("knowledge.warm_start")),
        "knowledge.register_p50_ms": p50(ms("knowledge.register")),
        "knowledge.seeded_rows": per_rep(info("knowledge.warm_start", "count")),
        "tuner.suggest_p50_ms": p50(ms("tuner.suggest")),
        "tuner.observe_p50_ms": p50(ms("tuner.observe")),
        "tuner.replay_ms": per_rep(ms("tuner.replay"), "ms"),
        "tuner.replayed_intervals": per_rep(info("tuner.replay", "count")),
        **{f"tuner.stage.{stage}_ms": mean(stages[stage])
           for stage in ("featurization", "model_selection", "subspace",
                         "safety", "selection")},
        "context.featurize_p50_ms": p50(ms("context.featurize")),
        "context.embedder_fits": count("context.embedder_fit"),
        "context.embedder_fit_ms": mean(ms("context.embedder_fit")),
        "clustering.relearns": count("clustering.relearn"),
        "clustering.relearn_ms": mean(ms("clustering.relearn")),
        "subspace.importance_refreshes": count("subspace.importance"),
        "subspace.importance_ms": mean(ms("subspace.importance")),
        "safety.assess_p50_ms": p50(ms("safety.assess")),
        "safety.safe_ratio": mean(info("safety.assess", "safe_ratio"),
                                  "ratio"),
        "gp.fits": count("gp.fit"),
        "gp.fit_ms": mean(ms("gp.fit")),
        "gp.append_rows": per_rep(info("gp.drain", "rows")),
        "gp.drain_ms": mean(ms("gp.drain")),
        "gp.fused_groups": per_rep(info("gp.drain", "groups")),
        "generator.sim_ms": mean(sim),
        "quality.unsafe_pct": _metric(unsafe_pct, "%", intervals // n_reps),
        "quality.improvement_pct": _metric(improvement_pct, "%",
                                           intervals // n_reps),
        # spans per interval x what one span adds to its call, timed in
        # a loop: a difference of two runs' means would be host noise
        "trace.overhead_ms": dict(_metric(spans_per_interval * span_cost_ms,
                                          "ms", n_spans),
                                  span_cost_ms=span_cost_ms),
        "trace.spans_per_interval": _metric(spans_per_interval, "count",
                                            n_spans),
    }
    return out


def build_result(workload: str, pairs, import_s: List[float],
                 peak_rss_mb: float, trace: bool, wanted: List[str]):
    """The report (every figure, with sample counts) and the result line
    (``value``/``unit`` of the ``wanted`` metrics only).  ``pairs`` are
    ``(rep, tracer)``; the tracer is None in an untraced run."""
    reps = [r for r, _ in pairs]
    problems = checks(reps)
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    report = {"workload": workload, "reps": len(reps), "traced": trace,
              "problems": problems, "import_s": import_s}
    metrics: Dict[str, dict] = {}
    if not problems:
        e2e = end_to_end(workload, reps, import_s, peak_rss_mb)
        unsafe_pct, improvement_pct = quality(reps[0])
        report["end_to_end"] = e2e
        report["shape"] = {
            "interval_ms": shape([v for r in reps for v in _ms(r.interval_s)]),
            "suggest_ms": shape([v for r in reps for v in _ms(r.suggest_s)])}
        report["quality"] = {"unsafe_pct": unsafe_pct,
                             "improvement_pct": improvement_pct,
                             "error_pct": 100.0 * failed / max(1, attempted)}
        if trace:
            layers = per_layer(pairs)
            for _, tracer in pairs:
                problems += check_nesting(tracer.spans)[:5]
            report["spans"] = {
                "count": sum(len(t.spans) for _, t in pairs),
                "max_depth": max(max_depth(t.spans) for _, t in pairs)}
            report["per_layer"] = layers
            metrics = layers
        else:
            metrics = e2e
    if metrics:
        problems += [f"metric {name} not computed" for name in wanted
                     if name not in metrics]
    result = {
        "correct": not problems,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: {"value": metrics[name]["value"],
                           "unit": metrics[name]["unit"]}
                    for name in wanted if name in metrics},
    }
    return report, result
