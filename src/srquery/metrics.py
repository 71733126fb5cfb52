"""Set-based retrieval effectiveness: precision, recall, F1, F3."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .collections import Qrels

__all__ = [
    "Metrics",
    "NoRelevantDocsError",
    "precision",
    "recall",
    "f_beta",
    "evaluate_topic",
    "macro_average",
]


class NoRelevantDocsError(ValueError):
    pass


@dataclass(frozen=True)
class Metrics:
    precision: float
    recall: float
    f1: float
    f3: float
    retrieved_count: int = 0
    relevant_count: int = 0
    hit_count: int = 0

    def __post_init__(self) -> None:
        if not all(0 <= s <= 1 for s in (self.precision, self.recall, self.f1, self.f3)):
            raise ValueError("scores must be in [0, 1]")
        if not 0 <= self.hit_count <= min(self.retrieved_count, self.relevant_count):
            raise ValueError("hit_count cannot exceed retrieved or relevant counts, nor be < 0")


def precision(retrieved: set[str], relevant: set[str]) -> float:
    """|retrieved ∩ relevant| / |retrieved|; 0 for an empty retrieval."""
    if not retrieved:
        return 0.0
    return len(retrieved & relevant) / len(retrieved)


def recall(retrieved: set[str], relevant: set[str]) -> float:
    """|retrieved ∩ relevant| / |relevant|."""
    if not relevant:
        raise NoRelevantDocsError("recall is undefined with no relevant documents")
    return len(retrieved & relevant) / len(relevant)


def f_beta(p: float, r: float, beta: float) -> float:
    """(1 + b^2) * p * r / (b^2 * p + r); 0 when both inputs are 0."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    if p == 0.0 and r == 0.0:
        return 0.0
    b2 = beta * beta
    return (1 + b2) * p * r / (b2 * p + r)


def evaluate_topic(retrieved: set[str], qrels: Qrels, topic_id: str) -> Metrics:
    """Score one topic's retrieved set against binarized judgments
    (grade >= 1 counts as relevant)."""
    relevant = qrels.relevant_for(topic_id)
    if not relevant:
        raise NoRelevantDocsError(f"topic {topic_id} has no relevant judgments")
    p = precision(retrieved, relevant)
    r = recall(retrieved, relevant)
    return Metrics(
        precision=p,
        recall=r,
        f1=f_beta(p, r, 1.0),
        f3=f_beta(p, r, 3.0),
        retrieved_count=len(retrieved),
        relevant_count=len(relevant),
        hit_count=len(retrieved & relevant),
    )


def macro_average(per_topic: Iterable[Metrics]) -> Metrics:
    """Arithmetic mean of each score field across topics; counts are summed."""
    items = list(per_topic)
    if not items:
        raise ValueError("cannot average an empty list of metrics")
    n = len(items)
    # fsum is exactly rounded, which keeps the average permutation-invariant.
    return Metrics(
        precision=math.fsum(m.precision for m in items) / n,
        recall=math.fsum(m.recall for m in items) / n,
        f1=math.fsum(m.f1 for m in items) / n,
        f3=math.fsum(m.f3 for m in items) / n,
        retrieved_count=sum(m.retrieved_count for m in items),
        relevant_count=sum(m.relevant_count for m in items),
        hit_count=sum(m.hit_count for m in items),
    )
