"""Server side of one benchmark run: set up, serve, obey commands.

Run by ``run.py`` (never by hand) as::

    python3 perfbench/harness.py --workload W --seed N --run-dir D \\
        --mode setup|recover --trace 0|1

``setup`` generates the inputs, fits TS-PPR, saves model and split
under ``D`` and starts the workload's deployment; ``recover`` restarts
a single-node server from what ``setup`` saved plus the WAL, as after
a crash. The harness then prints one JSON line ``{"ready": ...}`` and
answers JSON commands read from stdin, one reply line each:

* ``kill``  — SIGKILL the shard worker, report the failure at once,
  and reply with the time until the shard is readmitted (cluster);
* ``dump``  — write trace samples of every serving process (traced);
* ``quit``  — stop everything and exit.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

from workloads import TOP_K, WORKLOADS, build_split, load_split, save_split

SHARD = "shard-0"


def emit(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def _raise_exit(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--mode", choices=("setup", "recover"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _raise_exit)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(args.run_dir)
        tracer.install()

    from repro.cluster.router import ClusterRouter
    from repro.cluster.supervisor import ShardSupervisor
    from repro.io.model_store import load_model, save_model
    from repro.models.tsppr import TSPPRRecommender
    from repro.serving.events import EventLog
    from repro.serving.server import RecommendServer
    from repro.serving.service import ServiceConfig, service_for_split

    workload = WORKLOADS[args.workload]
    run_dir: Path = args.run_dir
    ready: dict = {"ready": True, "pid": os.getpid()}
    if args.mode == "setup":
        start = time.perf_counter()
        split = build_split(workload, args.seed)
        ready["generate_s"] = time.perf_counter() - start
        model = TSPPRRecommender(workload.tsppr_config(args.seed))
        start = time.perf_counter()
        model.fit(split, workload.window_config)
        ready["fit_s"] = time.perf_counter() - start
        margins = model.sgd_result_.margin_history
        ready["margin_first"] = margins[0][1]
        ready["margin_last"] = margins[-1][1]
        save_model(model, run_dir / "model")
        save_split(split, run_dir / "split.npz")
    else:
        split = load_split(run_dir / "split.npz")
        model = load_model(run_dir / "model", split)

    config = ServiceConfig(
        window=workload.window_config,
        default_k=TOP_K,
        n_items=split.n_items,
        online=workload.online,
        # Per-event ISGD: the served factors never lag the WAL, so a
        # restarted shard must answer exactly as before the crash.
        online_batch=1,
    )
    server = supervisor = router = None
    try:
        if workload.deployment == "single":
            event_log = EventLog.open(run_dir / "wal.log", fsync_policy="always")
            service = service_for_split(
                model, split, event_log=event_log, config=config,
                capacity=workload.capacity,
            )
            server = RecommendServer(service, port=0).start()
            ready["url"] = server.url
            ready["pids"] = [os.getpid()]
        else:
            supervisor = ShardSupervisor(
                split, model, config, n_shards=1,
                run_dir=run_dir / "cluster", capacity=workload.capacity,
                fsync_policy="always",
            ).start()
            router = ClusterRouter(supervisor).start()
            ready["url"] = router.url
            ready["worker_url"] = supervisor.url_of(SHARD)
            ready["pids"] = [os.getpid(), supervisor.pid_of(SHARD)]
            ready["wal"] = str(run_dir / "cluster" / f"{SHARD}.log")
        if tracer is not None:
            tracer.serving = True
        emit(ready)
        for line in sys.stdin:
            command = json.loads(line)["cmd"]
            if command == "quit":
                break
            if command == "kill":
                emit(restart_shard(supervisor, tracer))
            elif command == "dump":
                if tracer is not None:
                    tracer.dump()
                    if supervisor is not None:
                        dump_worker(supervisor, tracer)
                emit({"dumped": True})
            else:
                emit({"error": f"unknown command {command!r}"})
    finally:
        if router is not None:
            router.close()
        if supervisor is not None:
            supervisor.close()
        if server is not None:
            server.close()
        if tracer is not None:
            tracer.dump()
    emit({"bye": True})
    return 0


def dump_worker(supervisor, tracer) -> None:
    """Have the live worker write its trace samples; wait until it has."""
    pid = supervisor.pid_of(SHARD)
    path = tracer.run_dir / f"trace-{pid}.json"
    if path.exists():
        path.unlink()
    os.kill(pid, signal.SIGUSR1)
    deadline = time.monotonic() + 10.0
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.005)


def restart_shard(supervisor, tracer) -> dict:
    """SIGKILL the shard and time it until the supervisor readmits it."""
    from repro.cluster.supervisor import RUNNING

    if tracer is not None:
        dump_worker(supervisor, tracer)
    restarts = supervisor.restart_counts()[SHARD]
    start = time.perf_counter()
    supervisor.kill_shard(SHARD)
    supervisor.report_failure(SHARD)
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        if (
            supervisor.restart_counts()[SHARD] > restarts
            and supervisor.states()[SHARD] == RUNNING
        ):
            break
        time.sleep(0.002)
    else:
        return {"error": "shard was not readmitted within 120s"}
    return {
        "restart_s": time.perf_counter() - start,
        "pids": [os.getpid(), supervisor.pid_of(SHARD)],
        "worker_url": supervisor.url_of(SHARD),
    }


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as exc:  # noqa: BLE001 - report to run.py, then fail
        emit({"error": f"{type(exc).__name__}: {exc}"})
        raise
