"""Per-layer metrics of a traced run, and its overhead against an untraced one.

Sources: the trace files every serving process wrote (``tracing.py``),
the ``/metrics`` snapshot taken after the capacity ladder, client-side
timings, and ``/proc``. A layer the workload does not deploy (the
router and supervisor on a single node, ISGD with online learning off)
reads 0 and is marked ``n/a`` in the printed table.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from typing import Dict, List, Tuple

import numpy as np



def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if values else 0.0


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten of ``n`` samples beyond it."""
    return max(50.0, 100.0 * (1.0 - 10.0 / n)) if n else 50.0


def histogram_quantile(state: Dict[str, object], q: float) -> float:
    """Quantile (seconds) of a ``/metrics`` histogram state, interpolated
    linearly inside the bucket that holds it."""
    bounds = [0.0] + [float(b) for b in state["bounds"]]  # type: ignore[union-attr]
    counts = [int(c) for c in state["counts"]]  # type: ignore[union-attr]
    rank = q * sum(counts)
    seen = 0
    for index, count in enumerate(counts):
        if count and seen + count >= rank:
            lower = bounds[min(index, len(bounds) - 1)]
            upper = bounds[min(index + 1, len(bounds) - 1)]
            return lower + (upper - lower) * (rank - seen) / count
        seen += count
    return 0.0


def merged_samples(run) -> Tuple[Dict[str, List[float]], Dict[str, int]]:
    samples: Dict[str, List[float]] = defaultdict(list)
    counts: Dict[str, int] = defaultdict(int)
    for path in sorted(run.directory.glob("trace-*.json")):
        data = json.loads(path.read_text())
        for name, values in data["samples"].items():
            samples[name].extend(values)
        for name, value in data["counts"].items():
            counts[name] += value
    return samples, counts


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def restart_phases(samples: Dict[str, List[float]]) -> Dict[str, float]:
    """Split each supervisor restart at its fingerprint replay.

    Every restart ends ``expected_fingerprints`` once, then spawns the
    worker, then verifies it with ``/state`` calls from the monitor
    thread; calls between two fingerprint ends belong to the earlier.
    """
    ends = sorted(samples.get("supervisor.fingerprints_end", []))
    calls = sorted(zip(samples.get("supervisor.state_call_start", []),
                       samples.get("supervisor.state_call_end", [])))
    spawn, verify, requests = [], [], []
    for index, end in enumerate(ends):
        limit = ends[index + 1] if index + 1 < len(ends) else float("inf")
        mine = [c for c in calls if end <= c[0] < limit]
        if mine:
            spawn.append(mine[0][0] - end)
            verify.append(mine[-1][1] - mine[0][0])
        requests.append(len(mine))
    return {
        "supervisor.spawn_to_healthy_s": _median(spawn),
        "supervisor.verify_s": _median(verify),
        "supervisor.verify_requests": _median(requests),
    }


def per_layer(run, untraced) -> Dict[str, float]:
    samples, counts = merged_samples(run)
    snapshot = run.metrics_snapshot
    histograms = snapshot.get("histogram_state", {})
    counters = snapshot.get("counters", {})
    cache = snapshot.get("session_cache", {})

    def p(name: str, q: float, scale: float) -> float:
        return scale * percentile(samples.get(name, []), q)

    def h(name: str, q: float) -> float:
        return 1e3 * histogram_quantile(histograms[name], q) if name in histograms else 0.0

    sgd_s = sum(samples.get("optim.run_sgd", []))
    batches = counters.get("batches", 0)
    traced, base = run.end_to_end(), untraced.end_to_end()
    values = dict(run.layers)
    overhead = [
        1e3 * op.rtt_s - float(op.reply["latency_ms"])
        for ops in run.latency_blocks for op in ops if op.kind == "recommend" and not op.failed
    ]
    values.update({
        "transport.overhead_p50_ms": percentile(overhead, 50),
        "transport.connects_per_request": run.connects / max(1, run.attempted),
        "service.admission_wait_p50_ms": h("admission_wait", 0.50),
        "service.admission_wait_p99_ms": h("admission_wait", 0.99),
        "service.scoring_p50_ms": h("scoring_latency", 0.50),
        "service.requests_per_kernel": counters.get("batched_requests", 0) / batches if batches else 0.0,
        "store.hit_rate": float(cache.get("hit_rate", 0.0)),
        "store.rehydrations": float(cache.get("rehydrations", 0)),
        "store.get_p50_us": p("store.get", 50, 1e6),
        "store.get_miss_p50_us": p("store.get_miss", 50, 1e6),
        "engine.session_build_p50_us": p("engine.session_build", 50, 1e6),
        "engine.feature_matrix_build_p50_us": p("engine.feature_matrix_build", 50, 1e6),
        "engine.feature_fill_p50_us": p("engine.feature_fill", 50, 1e6),
        "models.score_batch_p50_us": p("models.score_batch", 50, 1e6),
        "models.rank_top_k_p50_us": p("models.rank_top_k", 50, 1e6),
        "events.append_p50_us": p("events.append", 50, 1e6),
        "events.append_p99_us": p("events.append", 99, 1e6),
        "events.bytes_per_event": run.wal_bytes / max(1, run.committed_events),
        "events.open_s": _median(samples.get("events.open", [])),
        "online.observe_p50_us": p("online.observe", 50, 1e6),
        "online.flush_p50_ms": h("online_flush_latency", 0.50),
        "online.updates": float(counters.get("online_updates", 0)),
        "online.catchup_s": _median(samples.get("online.catchup", [])),
        "supervisor.expected_fingerprints_s": _median(samples.get("supervisor.expected_fingerprints", [])),
        "sampling.sample_quadruples_s": _median(samples.get("sampling.sample_quadruples", [])),
        "features.cache_build_s": _median(samples.get("features.cache_build", [])),
        "optim.run_sgd_s": _median(samples.get("optim.run_sgd", [])),
        "optim.sgd_updates_per_s": counts.get("optim.sgd_updates", 0) / sgd_s if sgd_s else 0.0,
        "data.generate_s": _median([x["generate_s"] for x in run.setups]),
        "server.cpu_ms_per_op": run.cpu_ms_per_op,
        "trace.recommend_p50_overhead_ms": traced["recommend_p50_ms"] - base["recommend_p50_ms"],
        "trace.event_p50_overhead_ms": traced["event_p50_ms"] - base["event_p50_ms"],
    })
    values.update(restart_phases(samples))
    return values
