"""Correctness checks, computed apart from the serving path.

Candidate sets come from plain Python over the histories the load
generator itself sent; reference answers come from the fitted model
called offline on the same prefix. Each check returns a list of
problems; an empty list means it passed.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.data.sequence import ConsumptionSequence
from repro.engine.query import Query

from load import Op, Users
from workloads import TOP_K

MAX_REPORTED = 5


def candidates(history: Sequence[int], t: int, window: int, min_gap: int) -> List[int]:
    """Items of the last ``window`` before ``t``, minus the last ``min_gap``."""
    recent = set(history[max(0, t - min_gap):t])
    return sorted(set(history[max(0, t - window):t]) - recent)


def check_answers(
    ops: Sequence[Op], users: Users, window: int, min_gap: int
) -> Tuple[List[str], float, float]:
    """Shape, position and candidate membership of every /recommend answer.

    Also returns the served hits (the user's next event was in the
    answer) and the exact expected hits of a uniform pick of
    min(k, |C|) items from the same candidate sets.
    """
    problems: List[str] = []
    hits = expected = 0.0
    for op in ops:
        if op.kind != "recommend" or op.failed:
            continue
        history = users.history[op.user]
        cands = candidates(history, op.t, window, min_gap)
        items = [int(i) for i in op.reply["items"]]
        if int(op.reply["t"]) != op.t:
            problems.append(f"user {op.user}: answered at t={op.reply['t']}, expected {op.t}")
        elif len(set(items)) != len(items) or len(items) != min(TOP_K, len(cands)):
            problems.append(f"user {op.user} t={op.t}: {len(items)} items for {len(cands)} candidates")
        elif not set(items) <= set(cands):
            problems.append(f"user {op.user} t={op.t}: items outside the candidate set")
        if op.item >= 0 and cands:
            hits += op.item in items
            if op.item in cands:
                expected += min(TOP_K, len(cands)) / len(cands)
    return problems[:MAX_REPORTED], hits, expected


def check_positions(ops: Sequence[Op]) -> List[str]:
    """Each /events reply is the user's base length plus events sent before."""
    problems = [
        f"user {op.user}: event committed at {op.reply['position']}, expected {op.t}"
        for op in ops
        if op.kind == "event" and not op.failed and int(op.reply["position"]) != op.t
    ]
    return problems[:MAX_REPORTED]


def check_offline(
    ops: Sequence[Op], users: Users, model, window: int, min_gap: int
) -> List[str]:
    """Each answer equals ``model.recommend_batch`` on the same prefix."""
    by_user: Dict[int, List[Op]] = defaultdict(list)
    for op in ops:
        if op.kind == "recommend" and not op.failed:
            by_user[op.user].append(op)
    problems: List[str] = []
    for user, user_ops in by_user.items():
        history = users.history[user]
        queries = [
            Query(t=op.t, candidates=tuple(candidates(history, op.t, window, min_gap)))
            for op in user_ops
        ]
        sequence = ConsumptionSequence(user, history)
        for op, expected in zip(user_ops, model.recommend_batch(sequence, queries, TOP_K)):
            if [int(i) for i in op.reply["items"]] != expected:
                problems.append(f"user {user} t={op.t}: served {op.reply['items']}, offline {expected}")
    return problems[:MAX_REPORTED]


def check_live_counts(ops: Sequence[Op]) -> List[str]:
    """``/state`` live_events equals the writes committed for that user."""
    problems = [
        f"user {op.user}: live_events {op.reply['live_events']}, committed {op.t}"
        for op in ops
        if op.kind == "state" and not op.failed
        and int(op.reply["live_events"]) != op.t
    ]
    return problems[:MAX_REPORTED]


def factors_finite(model) -> bool:
    arrays = [model.user_factors_, model.item_factors_, model.mappings_]
    return all(np.isfinite(a).all() for a in arrays)
