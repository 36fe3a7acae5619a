"""Run one benchmark workload against the serving stack; print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. With ``--trace 0`` the last line of
stdout is one JSON object holding every end-to-end metric; with
``--trace 1`` the workload runs twice, untraced and then with the layer
wrappers of ``tracing.py``, and the JSON holds every per-layer metric
plus the tracing overhead. Lines before it are for people: metric
details, check results and noise context.

One run, for any workload, in this order:

1. set-up 0: a fresh harness process generates the inputs, fits TS-PPR
   and starts the deployment; the clock stops at its first answer;
2. a warm-up, then latency block 0: open-loop arrivals at the
   workload's fixed rate, each a /recommend and then that user's next
   held-out event;
3. the capacity ladder: open-loop rungs of a fixed ladder, searched by
   bisection;
4. set-up 1 (timed, then stopped), latency block 1, two write
   segments, set-up 2, latency block 2, the third write segment. A
   write segment is two closed-loop writers, then a SIGKILL of the
   serving side and a timed restart with WAL replay;
5. the correctness checks, then every process is stopped and checked.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Scheduled length of the warm-up, the latency phase and each ladder
#: rung, as shares of ``--seconds``.
WARMUP_SHARE, LATENCY_SHARE, RUNG_SHARE = 0.025, 0.65, 0.05

#: Windows per latency block and per write segment (see ``end_to_end``).
WINDOWS = 3


class Run:
    """One measurement of one workload: set-ups, phases, checks."""

    def __init__(self, workload, seed: int, seconds: int, traced: bool, run_dir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.run_dir = run_dir
        self.harnesses: List = []
        self.setups: List[Dict[str, float]] = []
        self.restarts: List[float] = []
        self.problems: List[str] = []
        self.info: Dict[str, object] = {}
        self.layers: Dict[str, float] = {}
        self.notes: List[str] = []
        self.setup_probes: List = []
        self.connects = 0

    # ------------------------------------------------------------------
    # Set-up and restart
    # ------------------------------------------------------------------
    def _probe(self, url: str, at_setup: bool):
        """One /recommend for user 0 (no event follows).

        A set-up's server holds only the base histories, so its probe
        is checked at user 0's base length.
        """
        from load import recommend
        from repro.serving.client import ServingClient

        op = recommend(ServingClient(url, track_seq=False), self.users, 0, -1, time.perf_counter())
        if at_setup:
            op.t = self.users.base[0]
            self.setup_probes.append(op)
        self.log.add([op])
        return op

    def setup(self, index: int) -> None:
        """Time one set-up to its first answer.

        Set-up 0 becomes the serving side of the run; later ones are
        started between phases, timed, and stopped, so the median of
        the three samples the machine at different moments.
        """
        from load import OpLog, Users
        from system import Harness
        from workloads import load_split

        directory = self.run_dir / f"setup-{index}"
        start = time.perf_counter()
        harness = Harness(self.workload.name, self.seed, directory, "setup", self.traced)
        self.harnesses.append(harness)
        ready = harness.read(timeout=170.0)
        if index == 0:
            self.split = load_split(directory / "split.npz")
            self.users = Users([
                self.split.train_sequence(u).items.tolist() for u in range(self.split.n_users)
            ])
            self.log = OpLog()
        op = self._probe(str(ready["url"]), at_setup=True)
        self.setups.append({
            "setup_s": time.perf_counter() - start,
            "fit_s": float(ready["fit_s"]),
            "generate_s": float(ready["generate_s"]),
        })
        if op.failed:
            raise RuntimeError(f"first answer failed: {op.error}")
        if index == 0:
            self.main = harness
            self.info.update(ready)
            self.directory = directory
        else:
            self.stop(harness)

    def restart(self) -> None:
        """Crash the serving side and time it back to service."""
        from system import Harness

        if self.traced:
            self.main.call({"cmd": "dump"})
        if self.workload.deployment == "cluster":
            reply = self.main.call({"cmd": "kill"}, timeout=150.0)
            self.restarts.append(float(reply["restart_s"]))
            self.info["pids"] = reply["pids"]
            return
        start = time.perf_counter()
        self.main.kill()
        self.main = Harness(self.workload.name, self.seed, self.directory, "recover", self.traced)
        self.harnesses.append(self.main)
        ready = self.main.read(timeout=170.0)
        op = self._probe(str(ready["url"]), at_setup=False)
        self.restarts.append(time.perf_counter() - start)
        if op.failed:
            raise RuntimeError(f"first answer after restart failed: {op.error}")
        self.info.update(ready)

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def take(self, n: int) -> List[Tuple[int, int]]:
        chunk = self.stream[self.cursor:self.cursor + n]
        if len(chunk) < n:
            raise RuntimeError("the held-out stream ran out; shorten --seconds")
        self.cursor += n
        return chunk

    def latency_block(self, block: int) -> None:
        """A third of the latency phase: open loop at the workload's rate."""
        from load import open_loop
        from system import cpu_seconds

        w = self.workload
        pids = [int(p) for p in self.info["pids"]]  # type: ignore[union-attr]
        cpu_before = sum(cpu_seconds(p) for p in pids)
        first = len(self.log.ops)
        n = round(w.rate_hz * LATENCY_SHARE * self.seconds / 3)
        open_loop(str(self.info["url"]), self.take(n), w.rate_hz, self.seed + 1 + block, self.users, self.log)
        self.latency_blocks.append(self.log.ops[first:])
        self.server_cpu_s += sum(cpu_seconds(p) for p in pids) - cpu_before

    def write_segment(self, sample: List[int]) -> None:
        """Closed-loop writes, then a crash, a timed restart and checks."""
        from load import closed_loop, state
        from repro.serving.client import ServingClient
        from system import peak_rss_mb

        w = self.workload
        url = str(self.info["url"])
        events = self.take(round(w.segment_events * self.seconds))
        first = len(self.log.ops)
        start = time.perf_counter()
        closed_loop(url, events, w.recommend_every, self.users, self.log)
        self.segments.append((self.log.ops[first:], start, time.perf_counter()))
        if not self.restarts:
            self.peak_rss_mb = sum(peak_rss_mb(int(p)) for p in self.info["pids"])  # type: ignore[union-attr]
        before = self.sample_answers(ServingClient(url, track_seq=False), sample)
        self.restart()
        client = ServingClient(str(self.info["url"]), track_seq=False)
        # Every user the segment wrote, plus the sampled ones.
        written = sorted({u for u, _ in events} | set(sample))
        self.log.add([state(client, self.users, u) for u in written])
        if self.sample_answers(client, sample) != before:
            self.problems.append(f"restart {len(self.restarts)}: answers changed across the restart")

    def run(self, n_setups: int) -> "Run":
        """Set-ups, latency blocks, ladder and write segments, interleaved.

        Three latency blocks, three write segments and the set-ups are
        spread over the run, so a slow spell of the machine lands on
        one sample of each rather than on all of them.
        """
        from load import open_loop
        from repro.serving.client import ServingClient
        from workloads import arrival_stream

        w, s = self.workload, self.seconds
        if self.traced:
            self.count_connects()
        self.setup(0)
        self.stream = arrival_stream(self.split, self.seed)
        self.cursor = 0
        self.latency_blocks: List[List] = []
        self.segments: List[Tuple[List, float, float]] = []
        self.server_cpu_s = 0.0
        sample = self.sample_users()

        open_loop(str(self.info["url"]), self.take(round(w.rate_hz * WARMUP_SHARE * s)),
                  w.rate_hz, self.seed, self.users, self.log)
        self.latency_block(0)
        self.capacity = self.ladder(str(self.info["url"]))
        if self.traced:
            self.trace_client_side(str(self.info["url"]))
        self.metrics_snapshot = ServingClient(str(self.info["url"])).metrics()
        if n_setups > 1:
            self.setup(1)
        self.latency_block(1)
        self.write_segment(sample)
        self.write_segment(sample)
        if n_setups > 2:
            self.setup(2)
        self.latency_block(2)
        self.write_segment(sample)
        self.cpu_ms_per_op = 1e3 * self.server_cpu_s / sum(len(b) for b in self.latency_blocks)
        self.committed_events = sum(self.users.live(u) for u in range(self.split.n_users))
        wal = Path(str(self.info.get("wal", self.directory / "wal.log")))
        self.wal_bytes = wal.stat().st_size
        self.check(ServingClient(str(self.info["url"]), track_seq=False), sample)
        return self

    def ladder(self, url: str) -> float:
        """The rate at which the recommend tail reaches the limit.

        A rung passes when its recommend tail latency (the highest
        percentile with ten samples beyond it, timed from the due time)
        stays under the limit and the generator's lateness does not grow
        from the rung's first quarter to its last. Rungs of the fixed
        ladder are probed by bisection, assuming a rung below a passing
        one passes too. The result interpolates between the highest
        passing rung and the rung above it, on their achieved rates
        (arrivals over the time from a rung's start to its last
        completion) against their tails, so a rung that flips between
        runs moves it by less than a whole rung.
        """
        from layers import percentile, tail_percentile
        from load import open_loop
        from workloads import TAIL_LIMIT_MS

        w = self.workload
        self.rungs: List[Dict[str, float]] = []
        lo, hi = -1, len(w.ladder)
        achieved: Dict[int, float] = {}
        tails: Dict[int, float] = {}
        while hi - lo > 1:
            index = (lo + hi) // 2
            rate = w.ladder[index]
            n = round(rate * RUNG_SHARE * self.seconds)
            first = len(self.log.ops)
            t0, t_end = open_loop(url, self.take(n), rate, self.seed + 10 + index, self.users, self.log)
            recs = sorted((op for op in self.log.ops[first:] if op.kind == "recommend"), key=lambda op: op.due)
            q = tail_percentile(len(recs))
            tail = 1e3 * percentile([op.latency_s for op in recs], q)
            late = [op.start - op.due for op in recs]
            quarter = max(1, len(late) // 4)
            growth = 1e3 * (statistics.median(late[-quarter:]) - statistics.median(late[:quarter]))
            passed = tail < TAIL_LIMIT_MS and growth < TAIL_LIMIT_MS / 4
            achieved[index] = n / (t_end - t0)
            tails[index] = tail
            self.rungs.append({"rate": rate, "q": q, "tail_ms": tail, "lateness_growth_ms": growth,
                               "achieved": achieved[index], "passed": passed})
            if passed:
                lo = index
            else:
                hi = index
        if lo < 0:
            # The limit is crossed below the ladder: the value is not
            # capacity by its definition, so the run says so.
            self.notes.append(f"no ladder rung met the limit; capacity is at most {w.ladder[0]}/s")
            return achieved[0]
        if hi == len(w.ladder):
            self.notes.append("the top ladder rung passed; capacity is at least its achieved rate")
            return achieved[lo]
        if tails[hi] <= tails[lo]:
            # The rung above failed on lateness alone: nothing to
            # interpolate on.
            return achieved[lo]
        share = min(1.0, (TAIL_LIMIT_MS - tails[lo]) / (tails[hi] - tails[lo]))
        return achieved[lo] + share * (achieved[hi] - achieved[lo])

    def count_connects(self) -> None:
        """Count TCP connects the load generator opens (traced run only)."""
        import http.client
        import threading

        lock = threading.Lock()
        original = http.client.HTTPConnection.connect
        run = self

        def connect(conn):
            with lock:
                run.connects += 1
            return original(conn)

        http.client.HTTPConnection.connect = connect

    def sample_users(self) -> List[int]:
        import numpy as np

        rng = np.random.default_rng([self.seed, 3])
        n = min(8, self.split.n_users)
        return sorted(int(u) for u in rng.choice(self.split.n_users, size=n, replace=False))

    def sample_answers(self, client, sample: List[int]) -> List[List[int]]:
        from load import recommend

        ops = [recommend(client, self.users, u, -1, time.perf_counter()) for u in sample]
        self.log.add(ops)
        return [op.reply["items"] if op.reply else None for op in ops]

    # ------------------------------------------------------------------
    # Traced extras measured from the client side
    # ------------------------------------------------------------------
    def trace_client_side(self, url: str) -> None:
        from layers import percentile
        from load import Op, closed_loop
        from repro.serving.client import ServingClient

        client = ServingClient(url)
        rtts = []
        for _ in range(200):
            op = Op("healthz", -1, 0.0, time.perf_counter())
            op.due = op.start
            op.reply = {"ok": client.health()}
            op.end = time.perf_counter()
            if not op.reply["ok"]:
                op.error = "healthz failed"
            self.log.add([op])
            rtts.append(op.rtt_s)
        self.layers["transport.healthz_rtt_p50_ms"] = 1e3 * percentile(rtts, 50)
        hop = 0.0
        if self.workload.deployment == "cluster":
            p50 = {}
            for name, target in (("router", url), ("direct", str(self.info["worker_url"]))):
                first = len(self.log.ops)
                closed_loop(target, self.take(100), 0, self.users, self.log)
                p50[name] = percentile([op.rtt_s for op in self.log.ops[first:] if op.kind == "event"], 50)
            hop = 1e3 * (p50["router"] - p50["direct"])
        self.layers["router.hop_p50_ms"] = hop

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    def check(self, client, sample: List[int]) -> None:
        import checks
        from repro.io.model_store import load_model

        w = self.workload
        size, gap = w.window
        ops = self.log.ops
        problems, hits, expected = checks.check_answers(ops, self.users, size, gap)
        self.problems += problems
        self.problems += checks.check_positions(ops)
        self.problems += checks.check_live_counts(ops)
        self.hits = (hits, expected)
        if not hits > expected:
            self.problems.append(f"served hits {hits} do not beat a uniform pick ({expected:.1f})")
        frozen = load_model(self.directory / "model", self.split)
        if w.online == "off":
            self.problems += checks.check_offline(ops, self.users, frozen, size, gap)
        else:
            self.check_online(client, sample, frozen)

    def check_online(self, client, sample: List[int], frozen) -> None:
        """Frozen-model probes, final rebuild from the WAL, fit quality."""
        import checks
        from repro.engine.query import Query
        from repro.io.model_store import load_model
        from repro.evaluation.protocol import evaluate_recommender
        from repro.models.pop import PopRecommender
        from repro.online.trainer import OnlineTrainer
        from repro.serving.events import scan_events
        from repro.serving.state import SessionStore
        from repro.tuning.defaults import default_of
        from workloads import TOP_K

        w = self.workload
        size, gap = w.window
        # Set-up probes come before any event: the frozen model answers them.
        self.problems += checks.check_offline(self.setup_probes, self.users, frozen, size, gap)
        live = self.sample_answers(client, sample)
        # Stop the cluster first: SIGTERM seals the WAL the rebuild reads.
        self.stop(self.main)
        model = load_model(self.directory / "model", self.split)
        trainer = OnlineTrainer(
            model, learning_rate=float(default_of("serving", "online_lr")), batch_window=1
        )
        store = SessionStore(size, gap, capacity=self.split.n_users,
                             history_provider=lambda u: self.split.train_sequence(u))
        trainer.replay(scan_events(self.info["wal"]), store)
        for user in range(self.split.n_users):
            if store.get(user).sequence().items.tolist() != self.users.history[user]:
                self.problems.append(f"user {user}: WAL replay history differs from the events sent")
                break
        rebuilt = []
        for user in sample:
            history = self.users.history[user]
            query = Query(t=len(history), candidates=tuple(checks.candidates(history, len(history), size, gap)))
            rebuilt.append(model.recommend_batch(store.get(user).sequence(), [query], TOP_K)[0])
        if [list(map(int, a)) for a in live] != rebuilt:
            self.problems.append("offline WAL rebuild answers differ from the live cluster")
        if not checks.factors_finite(frozen) or not checks.factors_finite(model):
            self.problems.append("non-finite factors")
        if not float(self.info["margin_last"]) > float(self.info["margin_first"]):
            self.problems.append("SGD margin did not rise")
        tsppr = evaluate_recommender(frozen, self.split).maap[10]
        pop = evaluate_recommender(PopRecommender().fit(self.split, w.window_config), self.split).maap[10]
        self.maap = (tsppr, pop)
        if not tsppr > pop:
            self.problems.append(f"MaAP@10 {tsppr:.3f} does not beat Pop's {pop:.3f}")

    # ------------------------------------------------------------------
    def stop(self, harness) -> None:
        """Stop one harness; any process outliving a graceful stop fails the run."""
        left = harness.stop()
        if left:
            self.problems.append(f"processes {left} outlived a graceful stop")

    def close(self) -> None:
        """Stop every harness still running."""
        while self.harnesses:
            self.stop(self.harnesses.pop())

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def end_to_end(self) -> Dict[str, float]:
        """Each metric from the run's spread-out samples.

        Set-up, fit and restart are medians of the run's three samples.
        The request path is read in windows: each latency block splits
        into ``WINDOWS`` runs of consecutive arrivals, each write segment
        into ``WINDOWS`` equal slices of its wall time. Hypervisor steal
        on this VM comes and goes within seconds and only ever adds
        time, so ``recommend_p50_ms`` and ``event_p50_ms`` (an event's
        round trip, after the arrival's recommend) are the lowest window
        median of the latency blocks, and ``ingest_eps`` the highest
        window rate of the write segments: the request path in the run's
        least disturbed stretch.
        ``recommend_p99_ms`` (not gated) is the median of three p99s,
        each over one latency block and one write segment.
        """
        from layers import percentile

        def ms(ops, kind: str, q: float) -> float:
            return 1e3 * percentile([op.latency_s for op in ops if op.kind == kind], q)

        windows = []
        for block in self.latency_blocks:
            ops = sorted(block, key=lambda op: op.due)
            size = len(ops) / WINDOWS
            windows += [ops[round(i * size):round((i + 1) * size)] for i in range(WINDOWS)]
        rates = []
        for ops, start, end in self.segments:
            width = (end - start) / WINDOWS
            for i in range(WINDOWS):
                lo = start + i * width
                rates.append(sum(op.kind == "event" and lo <= op.end < lo + width for op in ops) / width)
        groups = [block + ops for block, (ops, _, _) in zip(self.latency_blocks, self.segments)]
        return {
            "setup_s": statistics.median(x["setup_s"] for x in self.setups),
            "fit_s": statistics.median(x["fit_s"] for x in self.setups),
            "recommend_p50_ms": min(ms(ops, "recommend", 50) for ops in windows),
            "recommend_p99_ms": statistics.median(ms(ops, "recommend", 99) for ops in groups),
            "event_p50_ms": min(ms(ops, "event", 50) for ops in windows),
            "capacity_rps": self.capacity,
            "ingest_eps": max(rates),
            "restart_s": statistics.median(self.restarts),
            "server_peak_rss_mb": self.peak_rss_mb,
        }

    @property
    def attempted(self) -> int:
        return len(self.log.ops)

    @property
    def failed(self) -> int:
        return sum(op.failed for op in self.log.ops)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    from system import reference_loop_s, steal_ticks
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_root = ROOT / ".perfbench-run" / f"{workload.name}-{args.seed}-{os.getpid()}"
    noise = {"ref_loop_start_s": reference_loop_s()}
    steal_start = steal_ticks()
    runs: List[Run] = []
    try:
        for traced in ((False, True) if args.trace else (False,)):
            run = Run(workload, args.seed, args.seconds, traced, run_root / f"traced-{int(traced)}")
            runs.append(run)
            run.run(n_setups=1 if args.trace else 3)
            run.close()
        final = runs[-1]
        if args.trace:
            import layers

            values = layers.per_layer(final, runs[0])
        else:
            values = final.end_to_end()
    finally:
        for run in runs:
            run.close()
        shutil.rmtree(run_root, ignore_errors=True)
        if run_root.parent.exists() and not any(run_root.parent.iterdir()):
            run_root.parent.rmdir()
    noise["ref_loop_end_s"] = reference_loop_s()
    noise["steal_ticks"] = steal_ticks() - steal_start

    spec = benchmark["per_layer" if args.trace else "end_to_end"]
    report(runs, values if args.trace else None, noise, args, benchmark)
    problems = [p for run in runs for p in run.problems]
    result = {
        "correct": not problems,
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
    }
    print(json.dumps(result))
    return 0


#: End-to-end values printed for people but not in ``BENCHMARK.json``.
#: A stall of the VM sets a p99 of a few hundred requests: it spread
#: 0.47 of its median over five runs of ``serve-longhist``. Capacity is
#: the machine's free CPU at saturation, which hypervisor steal moves by
#: up to 2x: it spread 0.38 over five runs.
UNGATED_UNITS = {"recommend_p99_ms": "ms", "capacity_rps": "1/s"}

#: Per-layer metric prefixes of layers a deployment does not have.
NOT_DEPLOYED = {
    "single": ("router.", "supervisor.", "online."),
    "cluster": (),
}


def report(runs: List[Run], layer_values: Optional[Dict[str, float]], noise, args, benchmark) -> None:
    """Human-readable lines before the result line."""
    final = runs[-1]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    e2e = final.end_to_end()
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    units.update({name: f"{unit} (not gated)" for name, unit in UNGATED_UNITS.items()})
    if layer_values is None:
        for name, value in e2e.items():
            print(f"  {name:<22} {value:12.4f} {units[name]}")
    else:
        base = runs[0].end_to_end()
        print("  end-to-end, untraced -> traced (tracing overhead):")
        for name, value in e2e.items():
            print(f"  {name:<22} {base[name]:12.4f} -> {value:12.4f} {units[name]:<9}"
                  f" ({value - base[name]:+.4f})")
        skipped = NOT_DEPLOYED[final.workload.deployment]
        layer_units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
        for name, unit in layer_units.items():
            value = layer_values[name]
            shown = "n/a" if name.startswith(skipped) else f"{value:12.4f} {unit}"
            print(f"  {name:<36} {shown}")
    print("  setups: " + "  ".join(
        f"setup {x['setup_s']:.3f}s fit {x['fit_s']:.3f}s gen {x['generate_s']:.3f}s" for x in final.setups))
    print("  restarts_s: " + " ".join(f"{r:.3f}" for r in final.restarts))
    for rung in final.rungs:
        print("  rung {rate:.1f}/s: p{q:.1f} {tail_ms:.1f} ms, lateness growth {lateness_growth_ms:.1f} ms, "
              "achieved {achieved:.1f}/s, {verdict}".format(verdict="pass" if rung["passed"] else "fail", **rung))
    print(f"  served hits {final.hits[0]:.0f} vs uniform {final.hits[1]:.1f}")
    if hasattr(final, "maap"):
        print(f"  MaAP@10 TS-PPR {final.maap[0]:.4f} vs Pop {final.maap[1]:.4f}")
    for note in final.notes:
        print(f"  note: {note}")
    for run in runs:
        for problem in run.problems:
            print(f"  CHECK FAILED: {problem}")
    print("noise " + json.dumps(noise))


if __name__ == "__main__":
    sys.exit(main())
