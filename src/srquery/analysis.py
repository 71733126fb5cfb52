"""Significance testing, multi-run variability, and query failure analysis.

The paired t-test computes its two-tailed p-value from the t distribution
via the regularized incomplete beta function, evaluated with a modified
Lentz continued fraction to an absolute tolerance of 1e-10.  The test suite
checks it against an independent reference implementation.

The variability summary's mean, variance and quartiles go unrounded into
``analysis_report.json``.  ``_pairwise_sum`` and ``_percentile`` copy the
rounding of numpy's pairwise summation and linear percentile step for step,
so the reports stay byte-identical to those numpy wrote without depending
on it; the test suite pins them to numpy with exact equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

from .collections import MeshVocab, Qrels
from .metrics import Metrics
from .query_ast import Query, extract_mesh_terms

__all__ = [
    "RunResult",
    "RunSeries",
    "TopicClass",
    "TTestResult",
    "MeshValidity",
    "VariabilitySummary",
    "LengthMismatchError",
    "DegenerateVarianceError",
    "ZeroOriginalCountError",
    "EmptyRetrievalError",
    "TooFewRunsError",
    "paired_t_test",
    "bonferroni",
    "oracle_select",
    "classify_topic",
    "retrieved_ratio_stats",
    "mesh_validity_ratio",
    "unjudged_fraction",
    "variability_summary",
    "significance_matrix",
]


class LengthMismatchError(ValueError):
    pass


class DegenerateVarianceError(ValueError):
    pass


class ZeroOriginalCountError(ValueError):
    pass


class EmptyRetrievalError(ValueError):
    pass


class TooFewRunsError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Student's t, two-tailed, paired
# ---------------------------------------------------------------------------

_BETACF_TOL = 1e-10
_BETACF_TINY = 1e-300


def _nonzero(v: float) -> float:
    return _BETACF_TINY if abs(v) < _BETACF_TINY else v


def _betacf(a: float, b: float, x: float) -> float:
    # Modified Lentz evaluation of the continued fraction for I_x(a, b).
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 / _nonzero(1.0 - qab * x / qap)
    h = d
    for m in range(1, 500):
        m2 = 2 * m
        # The even step, then the odd step, after which convergence is tested.
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 / _nonzero(1.0 + aa * d)
            c = _nonzero(1.0 + aa / c)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETACF_TOL:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def _reg_inc_beta(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _t_two_tailed_p(t: float, df: float) -> float:
    return _reg_inc_beta(df / 2.0, 0.5, df / (df + t * t))


@dataclass(frozen=True)
class TTestResult:
    t: float
    p: float


def paired_t_test(a: Sequence[float], b: Sequence[float]) -> TTestResult:
    """Student's two-tailed paired t-test on per-topic score vectors."""
    if len(a) != len(b):
        raise LengthMismatchError(f"paired vectors differ in length: {len(a)} vs {len(b)}")
    n = len(a)
    if n < 2:
        raise LengthMismatchError("paired t-test needs at least two pairs")
    diffs = [x - y for x, y in zip(a, b)]
    mean = sum(diffs) / n
    ss = sum((d - mean) ** 2 for d in diffs)
    if ss == 0.0:
        raise DegenerateVarianceError("all paired differences are equal")
    sd = math.sqrt(ss / (n - 1))
    t = mean / (sd / math.sqrt(n))
    return TTestResult(t=t, p=_t_two_tailed_p(t, n - 1))


def bonferroni(p: float, m: int) -> float:
    """min(1, m * p) for m comparisons."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if m < 1:
        raise ValueError("m must be >= 1")
    return min(1.0, m * p)


def significance_matrix(
    per_method_scores: dict[str, Sequence[float]],
) -> tuple[list[str], dict[tuple[str, str], Optional[float]], int]:
    """Pairwise Bonferroni-adjusted p-values across methods.

    m is the number of method pairs tested.  Degenerate pairs (all paired
    differences equal) get None so the report shows them explicitly instead
    of a silent NaN.
    """
    methods = sorted(per_method_scores)
    pairs = [(x, y) for i, x in enumerate(methods) for y in methods[i + 1 :]]
    m = len(pairs)
    cells: dict[tuple[str, str], Optional[float]] = {}
    for x, y in pairs:
        try:
            raw = paired_t_test(per_method_scores[x], per_method_scores[y]).p
            adjusted: Optional[float] = bonferroni(raw, m)
        except DegenerateVarianceError:
            adjusted = None
        cells[(x, y)] = adjusted
        cells[(y, x)] = adjusted
    return methods, cells, m


# ---------------------------------------------------------------------------
# Oracle selection and topic classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunResult:
    run_index: int
    metrics: Metrics


@dataclass(frozen=True)
class RunSeries:
    topic_id: str
    runs: tuple[RunResult, ...]

    def __post_init__(self) -> None:
        if not self.runs:
            raise ValueError(f"topic {self.topic_id}: a run series needs at least one run")
        indices = [r.run_index for r in self.runs]
        if len(set(indices)) != len(indices):
            raise ValueError(f"topic {self.topic_id}: duplicate run_index")


class TopicClass(Enum):
    SUCCESSFUL = "successful"
    FAILING = "failing"
    NEUTRAL = "neutral"


def oracle_select(series: RunSeries) -> RunResult:
    """The run with maximal recall; ties broken by precision, then by the
    lowest run index for determinism."""
    return min(
        series.runs,
        key=lambda r: (-r.metrics.recall, -r.metrics.precision, r.run_index),
    )


def classify_topic(oracle: Metrics, original: Metrics) -> TopicClass:
    """Successful iff the oracle beats the original on both precision and
    recall; failing iff it loses on both; everything else is neutral."""
    if oracle.precision > original.precision and oracle.recall > original.recall:
        return TopicClass.SUCCESSFUL
    if oracle.precision < original.precision and oracle.recall < original.recall:
        return TopicClass.FAILING
    return TopicClass.NEUTRAL


def retrieved_ratio_stats(
    pairs: Sequence[tuple[int, int]],
    class_labels: Sequence[TopicClass],
) -> dict[TopicClass, float]:
    """Median generated/original retrieved-count ratio per topic class.

    Medians use the mean-of-middle convention for even counts.
    """
    if len(pairs) != len(class_labels):
        raise LengthMismatchError("pairs and class_labels differ in length")
    grouped: dict[TopicClass, list[float]] = {}
    for (generated, original), label in zip(pairs, class_labels):
        if original <= 0:
            raise ZeroOriginalCountError("original retrieved count must be positive")
        grouped.setdefault(label, []).append(generated / original)
    return {label: _median(ratios) for label, ratios in grouped.items()}


def _median(xs: list[float]) -> float:
    # The floats statistics.median returns, without loading that module.
    xs = sorted(xs)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2


def mesh_validity_ratio(q: Query, vocab: MeshVocab) -> "MeshValidity":
    """Fraction of the query's MeSH terms that are absent from the
    vocabulary (case-insensitive); 0 when the query has none."""
    terms = extract_mesh_terms(q)
    if not terms:
        return MeshValidity(mesh_count=0, invalid_fraction=0.0)
    invalid = sum(1 for text, _ in terms if vocab.lookup(text) is None)
    return MeshValidity(mesh_count=len(terms), invalid_fraction=invalid / len(terms))


@dataclass(frozen=True)
class MeshValidity:
    mesh_count: int
    invalid_fraction: float


def unjudged_fraction(retrieved: set[str], qrels: Qrels, topic_id: str) -> float:
    """Share of retrieved documents with no judgment for the topic."""
    if not retrieved:
        raise EmptyRetrievalError("unjudged fraction is undefined for an empty retrieval")
    judged = qrels.judged_for(topic_id)
    return len(retrieved - judged) / len(retrieved)


# ---------------------------------------------------------------------------
# Multi-run variability
# ---------------------------------------------------------------------------

def _pairwise_sum(xs: Sequence[float]) -> float:
    # numpy's float64 add.reduce: a plain loop below 8 items, 8 interleaved
    # accumulators up to 128, halves (cut at a multiple of 8) above that.
    n = len(xs)
    if n < 8:
        total = 0.0
        for x in xs:
            total += x
        return total
    if n <= 128:
        r = list(xs[:8])
        tail = n - n % 8
        for i in range(8, tail, 8):
            for j in range(8):
                r[j] += xs[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in xs[tail:]:
            total += x
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(xs[:half]) + _pairwise_sum(xs[half:])


def _percentile(sorted_xs: Sequence[float], q: float) -> float:
    # numpy's "linear" method, including _lerp's switch to the upper end
    # at t >= 0.5.
    v = (len(sorted_xs) - 1) * (q / 100)
    i = int(v)
    t = v - i
    a, b = sorted_xs[i], sorted_xs[min(i + 1, len(sorted_xs) - 1)]
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


@dataclass(frozen=True)
class VariabilitySummary:
    metric: str
    mean: float
    variance: float
    variance_to_mean_ratio: float
    per_topic_quartiles: dict[str, tuple[float, float, float, float, float]]


def variability_summary(series_list: Iterable[RunSeries], metric: str) -> VariabilitySummary:
    """Across-run mean and sample variance of the per-run macro-averaged
    score, plus per-topic five-number summaries for boxplots.

    Every topic must carry the same set of run indices so that runs can be
    macro-averaged across topics.
    """
    series_list = list(series_list)
    if not series_list:
        raise ValueError("no run series supplied")
    if metric not in ("precision", "recall", "f1", "f3"):
        raise ValueError(f"unknown metric {metric!r}")

    run_indices = sorted(r.run_index for r in series_list[0].runs)
    if len(run_indices) < 2:
        raise TooFewRunsError("variability needs at least two runs")
    per_topic: dict[str, dict[int, float]] = {}
    for series in series_list:
        values = {r.run_index: getattr(r.metrics, metric) for r in series.runs}
        if sorted(values) != run_indices:
            raise ValueError(
                f"topic {series.topic_id} has run indices {sorted(values)}, expected {run_indices}"
            )
        per_topic[series.topic_id] = values

    per_run_macro = [
        _pairwise_sum([values[idx] for values in per_topic.values()]) / len(per_topic)
        for idx in run_indices
    ]
    n = len(per_run_macro)
    mean = _pairwise_sum(per_run_macro) / n
    variance = _pairwise_sum([(x - mean) * (x - mean) for x in per_run_macro]) / (n - 1)
    ratio = variance / mean if mean != 0 else 0.0

    quartiles = {}
    for tid, values in per_topic.items():
        data = sorted(values.values())
        quartiles[tid] = tuple(_percentile(data, q) for q in (0, 25, 50, 75, 100))

    return VariabilitySummary(
        metric=metric,
        mean=mean,
        variance=variance,
        variance_to_mean_ratio=ratio,
        per_topic_quartiles=quartiles,
    )
