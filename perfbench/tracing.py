"""Server-side layer timing for the traced run.

:meth:`Tracer.install` wraps public entry points of the program's
layers from the outside — class attributes and the module globals the
callers look up — so no file under ``src/`` changes. Forked shard
workers inherit the wrappers; each worker starts a fresh sample set and
writes it to ``trace-<pid>.json`` in the run directory when asked
(SIGUSR1, sent before a deliberate kill) and when it stops.

The untraced run never calls :meth:`Tracer.install`, so end-to-end
numbers carry no wrapper cost.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List


class Tracer:
    """Per-process duration samples (seconds) and counts by layer name."""

    def __init__(self, run_dir: Path) -> None:
        self.run_dir = Path(run_dir)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.counts: Dict[str, int] = defaultdict(int)
        #: Serving-path wrappers record only once set-up is over, so the
        #: fit's own session walks do not count as request work.
        self.serving = False
        self._lock = threading.Lock()

    def record(self, name: str, seconds: float) -> None:
        with self._lock:
            self.samples[name].append(seconds)

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "samples": {k: list(v) for k, v in self.samples.items()},
                "counts": dict(self.counts),
            }

    def dump(self) -> None:
        """Write this process's samples to ``trace-<pid>.json`` atomically."""
        path = self.run_dir / f"trace-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()))
        os.replace(tmp, path)

    # ------------------------------------------------------------------
    def _timed(self, name: str, fn: Callable, serving_only: bool) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if serving_only and not tracer.serving:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.record(name, time.perf_counter() - start)

        return wrapper

    def _wrap(self, owner, attr: str, name: str, serving_only: bool = True) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self._timed(name, raw.__func__, serving_only)))
        else:
            setattr(owner, attr, self._timed(name, raw, serving_only))

    def install(self) -> None:
        """Wrap every traced entry point; call once per process."""
        import repro.cluster.supervisor as supervisor_mod
        import repro.models.base as models_base
        import repro.models.tsppr as tsppr_mod
        from repro.cluster.supervisor import ShardSupervisor
        from repro.engine.features import SessionFeatureMatrix
        from repro.engine.session import ScoringSession
        from repro.features.cache import QuadrupleFeatureCache
        from repro.online.trainer import OnlineTrainer
        from repro.serving.client import ServingClient
        from repro.serving.events import EventLog
        from repro.serving.state import SessionStore

        # Fit phases (set-up only).
        self._wrap(tsppr_mod, "sample_quadruples", "sampling.sample_quadruples", False)
        self._wrap(QuadrupleFeatureCache, "build", "features.cache_build", False)
        original_sgd = tsppr_mod.run_sgd
        tracer = self

        @functools.wraps(original_sgd)
        def run_sgd(*args, **kwargs):
            start = time.perf_counter()
            result = original_sgd(*args, **kwargs)
            tracer.record("optim.run_sgd", time.perf_counter() - start)
            tracer.count("optim.sgd_updates", result.n_updates)
            return result

        tsppr_mod.run_sgd = run_sgd

        # Request path.
        self._wrap(ScoringSession, "__init__", "engine.session_build")
        self._wrap(SessionFeatureMatrix, "__init__", "engine.feature_matrix_build")
        self._wrap(SessionFeatureMatrix, "matrix", "engine.feature_fill")
        self._wrap(tsppr_mod.TSPPRRecommender, "score_batch", "models.score_batch")
        self._wrap(models_base, "rank_top_k", "models.rank_top_k")

        original_get = SessionStore.get

        @functools.wraps(original_get)
        def store_get(store, user):
            if not tracer.serving:
                return original_get(store, user)
            misses = store.counters.misses
            start = time.perf_counter()
            try:
                return original_get(store, user)
            finally:
                elapsed = time.perf_counter() - start
                tracer.record("store.get", elapsed)
                if store.counters.misses != misses:
                    tracer.record("store.get_miss", elapsed)

        SessionStore.get = store_get

        # Write path and recovery.
        self._wrap(EventLog, "append", "events.append")
        original_open = EventLog.__dict__["open"].__func__

        @functools.wraps(original_open)
        def open_log(cls, path, *args, **kwargs):
            # Only a non-empty log has recovery work to time.
            if not (os.path.exists(path) and os.path.getsize(path)):
                return original_open(cls, path, *args, **kwargs)
            start = time.perf_counter()
            try:
                return original_open(cls, path, *args, **kwargs)
            finally:
                tracer.record("events.open", time.perf_counter() - start)

        EventLog.open = classmethod(open_log)
        self._wrap(OnlineTrainer, "observe", "online.observe")
        self._wrap(OnlineTrainer, "replay", "online.catchup", False)

        # Supervisor restart: fingerprints, then spawn, then /state checks
        # made by the monitor thread.
        original_fingerprints = ShardSupervisor.expected_fingerprints

        @functools.wraps(original_fingerprints)
        def expected_fingerprints(supervisor, name, users=None):
            start = time.perf_counter()
            try:
                return original_fingerprints(supervisor, name, users)
            finally:
                end = time.perf_counter()
                tracer.record("supervisor.expected_fingerprints", end - start)
                tracer.record("supervisor.fingerprints_end", end)

        ShardSupervisor.expected_fingerprints = expected_fingerprints
        original_state = ServingClient.state

        @functools.wraps(original_state)
        def client_state(client, user, timeout=None):
            if threading.current_thread().name != "repro-cluster-monitor":
                return original_state(client, user, timeout=timeout)
            start = time.perf_counter()
            try:
                return original_state(client, user, timeout=timeout)
            finally:
                tracer.record("supervisor.state_call_start", start)
                tracer.record("supervisor.state_call_end", time.perf_counter())

        ServingClient.state = client_state

        # Workers: fresh samples per process, dump on request and on exit.
        original_worker = supervisor_mod.run_worker

        def run_worker(spec, split, model, config):
            # A fork copies the lock in whatever state another thread left it.
            tracer._lock = threading.Lock()
            tracer.samples.clear()
            tracer.counts.clear()
            tracer.serving = True
            signal.signal(signal.SIGUSR1, lambda signum, frame: tracer.dump())
            try:
                original_worker(spec, split, model, config)
            finally:
                tracer.dump()

        supervisor_mod.run_worker = run_worker
        # The catch-up replay runs before the worker serves; dump right
        # after it so a later SIGKILL cannot lose the recovery timings.
        original_replay = OnlineTrainer.replay

        @functools.wraps(original_replay)
        def replay(trainer, events, store):
            # Catch-up observes and store reads are recovery work, not
            # request work: keep them out of the serving samples.
            serving, tracer.serving = tracer.serving, False
            try:
                return original_replay(trainer, events, store)
            finally:
                tracer.serving = serving
                tracer.dump()

        OnlineTrainer.replay = replay
