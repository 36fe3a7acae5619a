"""The load generator: two sender threads, each owning half the users.

Every operation goes through the program's own ``ServingClient``; each
thread holds one client and so one connection at a time. A user always
belongs to the same thread, so a user's events arrive in order.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ReproError
from repro.serving.client import ServingClient

from workloads import TOP_K

N_SENDERS = 2


@dataclass
class Op:
    """One request as the load generator saw it (perf_counter seconds)."""

    kind: str  # "recommend", "event" or "state"
    user: int
    due: float
    start: float
    end: float = 0.0
    #: Position the request should observe: the user's history length.
    t: int = -1
    #: /events: the item sent. /recommend: the item the user consumes next.
    item: int = -1
    reply: Optional[dict] = None
    error: Optional[str] = None

    @property
    def latency_s(self) -> float:
        return self.end - self.due

    @property
    def rtt_s(self) -> float:
        return self.end - self.start

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(
            self.reply is not None and self.reply.get("degraded")
        )


class Users:
    """What the load generator knows: every user's history so far.

    Each list is only appended to by the thread that owns the user.
    """

    def __init__(self, histories: Sequence[Sequence[int]]) -> None:
        self.history: List[List[int]] = [list(h) for h in histories]
        self.base = [len(h) for h in histories]

    def live(self, user: int) -> int:
        return len(self.history[user]) - self.base[user]


def owner(user: int) -> int:
    return user % N_SENDERS


@dataclass
class OpLog:
    """Every op of a run, in completion order per thread."""

    ops: List[Op] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def add(self, batch: List[Op]) -> None:
        with self._lock:
            self.ops.extend(batch)


def recommend(client: ServingClient, users: Users, user: int, item: int, due: float) -> Op:
    op = Op("recommend", user, due, time.perf_counter(), t=len(users.history[user]), item=item)
    try:
        op.reply = client.recommend(user, k=TOP_K)
    except ReproError as exc:
        op.error = str(exc)
    op.end = time.perf_counter()
    return op


def send_event(client: ServingClient, users: Users, user: int, item: int, due: float) -> Op:
    op = Op("event", user, due, time.perf_counter(), t=len(users.history[user]), item=item)
    try:
        position = client.ingest(user, item, seq=users.live(user))
        op.reply = {"position": position}
        users.history[user].append(item)
    except ReproError as exc:
        op.error = str(exc)
    op.end = time.perf_counter()
    return op


def state(client: ServingClient, users: Users, user: int) -> Op:
    """``/state`` of one user; ``t`` holds the live count it must report."""
    op = Op("state", user, 0.0, time.perf_counter(), t=users.live(user))
    op.due = op.start
    try:
        op.reply = client.state(user)
    except ReproError as exc:
        op.error = str(exc)
    op.end = time.perf_counter()
    return op


def _run_threads(work: Callable[[int], List[Op]], log: OpLog) -> None:
    errors: List[BaseException] = []

    def body(index: int) -> None:
        try:
            log.add(work(index))
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [
        threading.Thread(target=body, args=(index,), name=f"sender-{index}")
        for index in range(N_SENDERS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def due_offsets(n: int, rate_hz: float, seed: int) -> np.ndarray:
    """Seeded Poisson arrival offsets, rescaled to last exactly n/rate s.

    The rescale keeps the offered rate identical across seeds, so a
    rung's outcome depends on the program, not on the draw.
    """
    from repro.tuning.load import LoadGenerator

    gaps = LoadGenerator.poisson_gaps(n, rate_hz, seed)
    return np.cumsum(gaps) * (n / rate_hz) / gaps.sum()


def open_loop(
    url: str,
    arrivals: Sequence[Tuple[int, int]],
    rate_hz: float,
    seed: int,
    users: Users,
    log: OpLog,
) -> Tuple[float, float]:
    """Each arrival: /recommend, then the user's next event, from its due time.

    Returns the schedule's ``(t0, t_end)``: its start and the last
    completion, both perf_counter seconds.
    """
    offsets = due_offsets(len(arrivals), rate_hz, seed)
    t0 = time.perf_counter() + 0.02
    per_thread: Dict[int, List[Tuple[float, int, int]]] = {i: [] for i in range(N_SENDERS)}
    for offset, (user, item) in zip(offsets.tolist(), arrivals):
        per_thread[owner(user)].append((t0 + offset, user, item))

    def work(index: int) -> List[Op]:
        client = ServingClient(url, track_seq=False)
        ops: List[Op] = []
        for due, user, item in per_thread[index]:
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            rec = recommend(client, users, user, item, due)
            ops.append(rec)
            ops.append(send_event(client, users, user, item, rec.end))
        return ops

    before = len(log.ops)
    _run_threads(work, log)
    return t0, max(op.end for op in log.ops[before:])


def closed_loop(
    url: str,
    events: Sequence[Tuple[int, int]],
    recommend_every: int,
    users: Users,
    log: OpLog,
) -> float:
    """Two writers post their events back to back; returns the wall time.

    Each writer sends a /recommend before every ``recommend_every``-th
    of its events (never when it is 0).
    """
    per_thread: Dict[int, List[Tuple[int, int]]] = {i: [] for i in range(N_SENDERS)}
    for user, item in events:
        per_thread[owner(user)].append((user, item))

    def work(index: int) -> List[Op]:
        client = ServingClient(url, track_seq=False)
        ops: List[Op] = []
        for position, (user, item) in enumerate(per_thread[index]):
            if recommend_every and position % recommend_every == 0:
                now = time.perf_counter()
                ops.append(recommend(client, users, user, item, now))
            now = time.perf_counter()
            ops.append(send_event(client, users, user, item, now))
        return ops

    start = time.perf_counter()
    _run_threads(work, log)
    return time.perf_counter() - start
