"""The benchmark's workloads: seeded inputs, deployment and load shape.

Every input is a pure function of ``--seed``. The server-side harness
builds the dataset through :mod:`repro.synth` (timed as part of set-up)
and saves it next to the fitted model; the load generator reads both
back, so the two processes never disagree about the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.config import SplitConfig, TSPPRConfig, WindowConfig
from repro.data.dataset import Dataset
from repro.data.sequence import ConsumptionSequence
from repro.data.split import SplitDataset, temporal_split
from repro.data.vocab import Vocabulary
from repro.synth.base import SyntheticConfig, generate_dataset
from repro.synth.lastfm import LASTFM_PRESET

#: Top-N of every /recommend the benchmark sends.
TOP_K = 10

#: A ladder rung passes while its recommend tail latency (the highest
#: percentile with ten samples beyond it) stays below this.
TAIL_LIMIT_MS = 50.0


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one deployment.

    Attributes
    ----------
    deployment:
        ``"single"`` (one ``RecommendServer``) or ``"cluster"``
        (``ShardSupervisor`` + ``ClusterRouter`` + one forked worker).
    window:
        ``(|W|, Ω)`` of model, service and checks.
    tsppr:
        ``TSPPRConfig`` overrides for the set-up fit.
    capacity:
        Session-store LRU capacity.
    online:
        ``"off"`` or ``"isgd"``.
    rate_hz:
        Fixed open-loop arrival rate of the latency phase, no more
        than about 40% of the workload's measured capacity: latency is timed
        from the due time, and near saturation queueing would turn a
        small change in machine speed into a large one in latency.
    ladder:
        Fixed open-loop rates, ascending, searched for capacity.
    segment_events:
        Closed-loop writes per write segment, per second of run length.
    recommend_every:
        Each writer sends a /recommend before every Nth of its events.

    ``BENCHMARK.json`` says why each workload is in the benchmark.
    """

    name: str
    deployment: str
    window: Tuple[int, int]
    tsppr: Dict[str, object]
    capacity: int
    online: str
    rate_hz: float
    ladder: Tuple[float, ...]
    segment_events: float
    recommend_every: int

    @property
    def window_config(self) -> WindowConfig:
        return WindowConfig(window_size=self.window[0], min_gap=self.window[1])

    def tsppr_config(self, seed: int) -> TSPPRConfig:
        # A tolerance no margin change reaches: every fit runs all its
        # updates, so fit work does not depend on where a seed converges.
        return TSPPRConfig(seed=seed, convergence_tol=1e-12, **self.tsppr)  # type: ignore[arg-type]


def ladder(lowest: float) -> Tuple[float, ...]:
    """Twelve geometric rates 12% apart, spanning 3.5x from ``lowest``.

    ``lowest`` sits well below the workload's knee, so the tail limit is
    crossed inside the ladder; one rung of noise moves capacity 12%.
    """
    return tuple(round(lowest * 1.12 ** i, 1) for i in range(12))


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="serve-longhist",
            deployment="single",
            window=(250, 10),
            tsppr={"max_epochs": 20_000, "n_negative_samples": 4},
            capacity=1024,
            online="off",
            rate_hz=35.0,
            ladder=ladder(40.0),
            segment_events=15.0,
            recommend_every=2,
        ),
        Workload(
            name="ingest-online-restart",
            deployment="cluster",
            window=(100, 10),
            tsppr={"max_epochs": 150_000},
            # Below the preset's 48 users: the LRU hits, evicts and
            # rehydrates sessions.
            capacity=32,
            online="isgd",
            rate_hz=25.0,
            ladder=ladder(30.0),
            segment_events=25.0,
            recommend_every=2,
        ),
    )
}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
LONGHIST_SYNTH = SyntheticConfig(
    name="longhist",
    n_users=6,
    n_items=4000,
    sequence_length_range=(3000, 4000),
    catalog_size_range=(300, 400),
    zipf_exponent=0.7,
    p_explore_range=(0.2, 0.3),
    memory_span=120,
    frequency_exponent=0.05,
    recency_exponent=0.05,
    explore_weight_exponent=0.0,
)


def build_dataset(workload: Workload, seed: int) -> Dataset:
    """The workload's full event histories for ``seed``."""
    if workload.name == "serve-longhist":
        return generate_dataset(LONGHIST_SYNTH, seed)
    return generate_dataset(LASTFM_PRESET, seed)


def build_split(workload: Workload, seed: int) -> SplitDataset:
    return temporal_split(build_dataset(workload, seed), SplitConfig())


def save_split(split: SplitDataset, path: Path) -> None:
    sequences = [split.full_sequence(u).items for u in range(split.n_users)]
    np.savez(
        path,
        items=np.concatenate(sequences),
        lengths=np.array([len(s) for s in sequences], dtype=np.int64),
        boundaries=np.array(split.boundaries, dtype=np.int64),
        n_items=np.int64(split.n_items),
    )


def load_split(path: Path) -> SplitDataset:
    with np.load(path) as arrays:
        items = arrays["items"]
        offsets = np.concatenate([[0], np.cumsum(arrays["lengths"])])
        boundaries = tuple(int(b) for b in arrays["boundaries"])
        n_items = int(arrays["n_items"])
    sequences = [
        ConsumptionSequence(user, items[offsets[user]:offsets[user + 1]])
        for user in range(len(boundaries))
    ]
    dataset = Dataset(sequences, Vocabulary.identity(n_items))
    return SplitDataset(dataset=dataset, boundaries=boundaries)


def arrival_stream(split: SplitDataset, seed: int) -> List[Tuple[int, int]]:
    """Every held-out event once, users interleaved at random.

    A user's events keep their order; a user's share of the stream is
    its share of the held-out events, so activity is as skewed as the
    history lengths.
    """
    suffixes = [
        split.full_sequence(u).items[split.train_boundary(u):].tolist()
        for u in range(split.n_users)
    ]
    tokens = np.repeat(
        np.arange(split.n_users), [len(s) for s in suffixes]
    )
    np.random.default_rng([seed, 7]).shuffle(tokens)
    cursor = [0] * split.n_users
    stream: List[Tuple[int, int]] = []
    for user in tokens.tolist():
        stream.append((user, suffixes[user][cursor[user]]))
        cursor[user] += 1
    return stream
