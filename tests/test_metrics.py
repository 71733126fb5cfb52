import random
import re

import pytest

from srquery.collections import Qrels
from srquery.metrics import (
    Metrics,
    NoRelevantDocsError,
    evaluate_topic,
    f_beta,
    macro_average,
    precision,
    recall,
)


# ---------------------------------------------------------------------------
# Metrics ranges
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs, message", [
    ({"precision": 1.5}, "scores must be in [0, 1]"),
    ({"recall": -0.1}, "scores must be in [0, 1]"),
    ({"f1": float("nan")}, "scores must be in [0, 1]"),
    ({"f3": float("inf")}, "scores must be in [0, 1]"),
    ({"hit_count": -1}, "hit_count cannot exceed"),
    ({"retrieved_count": -1, "hit_count": 0}, "hit_count cannot exceed"),
    ({"relevant_count": -1, "hit_count": 0}, "hit_count cannot exceed"),
], ids=["precision-above-1", "recall-below-0", "f1-nan", "f3-inf", "hits-negative",
        "retrieved-negative", "relevant-negative"])
def test_metrics_refuse_a_score_outside_0_1_and_a_negative_count(kwargs, message):
    scores = {"precision": 0.5, "recall": 0.5, "f1": 0.5, "f3": 0.5, "retrieved_count": 2,
              "relevant_count": 2, "hit_count": 1}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        Metrics(**{**scores, **kwargs})


def test_metrics_take_the_bounds_of_each_range():
    assert Metrics(0.0, 1.0, 0.0, 1.0, 0, 0, 0) == Metrics(0.0, 1.0, 0.0, 1.0)
    assert Metrics(1.0, 0.0, 1.0, 0.0, 3, 2, 2).hit_count == 2


# ---------------------------------------------------------------------------
# precision / recall
# ---------------------------------------------------------------------------

def test_precision_hand_counted():
    assert precision({"1", "2", "3", "4"}, {"3", "4", "5"}) == pytest.approx(0.5)


def test_precision_empty_retrieval_is_zero():
    assert precision(set(), {"1"}) == 0.0


def test_precision_identity():
    assert precision({"1", "2"}, {"1", "2"}) == 1.0


def test_recall_hand_counted():
    assert recall({"1", "2", "3", "4"}, {"3", "4", "5"}) == pytest.approx(2 / 3, abs=1e-4)


def test_recall_identity():
    assert recall({"3", "4"}, {"3", "4"}) == 1.0


def test_recall_requires_relevant_docs():
    with pytest.raises(NoRelevantDocsError):
        recall({"1"}, set())


# ---------------------------------------------------------------------------
# f_beta
# ---------------------------------------------------------------------------

def test_f_beta_symmetric_point():
    for beta in (0.5, 1.0, 3.0):
        assert f_beta(0.5, 0.5, beta) == pytest.approx(0.5)


def test_f_beta_zero_factor():
    assert f_beta(0.5, 0.0, 1.0) == 0.0
    assert f_beta(0.0, 0.0, 3.0) == 0.0


def test_f_beta_refuses_a_beta_of_zero_or_below():
    for beta in (0.0, -1.0):
        with pytest.raises(ValueError, match="beta must be positive"):
            f_beta(0.5, 0.5, beta)


def test_f_beta_direct_formula_point():
    # 2pr/(p+r) for the CLEF original-query averages; this is the plain
    # formula value, not a per-topic macro-average.
    assert f_beta(0.0207, 0.8317, 1.0) == pytest.approx(0.04039, abs=1e-5)


def test_f_beta_between_min_and_max():
    rng = random.Random(5)
    for _ in range(1000):
        p, r = rng.random(), rng.random()
        if p == 0 and r == 0:
            continue
        for beta in (1.0, 3.0):
            val = f_beta(p, r, beta)
            assert min(p, r) - 1e-12 <= val <= max(p, r) + 1e-12


def test_f_beta_ordering_property():
    # beta = 3 weights recall: r > p pushes F3 above F1 and vice versa.
    rng = random.Random(6)
    for _ in range(1000):
        p, r = rng.random(), rng.random()
        if p == 0 and r == 0:
            continue
        f1, f3 = f_beta(p, r, 1.0), f_beta(p, r, 3.0)
        if r > p:
            assert f3 > f1
        elif r < p:
            assert f3 < f1
        else:
            assert f3 == pytest.approx(f1)


# ---------------------------------------------------------------------------
# evaluate_topic
# ---------------------------------------------------------------------------

def _qrels(topic_id, relevant, nonrelevant=()):
    judgments = {(topic_id, pmid): 1 for pmid in relevant}
    judgments.update({(topic_id, pmid): 0 for pmid in nonrelevant})
    return Qrels(judgments)


def test_evaluate_topic_fixture_values():
    # 4 retrieved, 3 relevant, 2 hits.
    qrels = _qrels("T", {"a", "b", "c"})
    m = evaluate_topic({"a", "b", "x", "y"}, qrels, "T")
    assert m.precision == pytest.approx(0.5, abs=1e-4)
    assert m.recall == pytest.approx(0.6667, abs=1e-4)
    assert m.f1 == pytest.approx(0.5714, abs=1e-4)
    assert m.f3 == pytest.approx(0.6452, abs=1e-4)
    assert (m.retrieved_count, m.relevant_count, m.hit_count) == (4, 3, 2)


def test_evaluate_topic_perfect_and_disjoint():
    qrels = _qrels("T", {"a", "b"})
    perfect = evaluate_topic({"a", "b"}, qrels, "T")
    assert (perfect.precision, perfect.recall, perfect.f1, perfect.f3) == (1, 1, 1, 1)
    disjoint = evaluate_topic({"x"}, qrels, "T")
    assert (disjoint.precision, disjoint.recall, disjoint.f1, disjoint.f3) == (0, 0, 0, 0)


def test_evaluate_topic_binarizes_grades(qrels):
    # 1012 holds grade 2 in the fixture qrels; it must count as relevant.
    m = evaluate_topic({"1012"}, qrels, "CD900001")
    assert m.hit_count == 1 and m.precision == 1.0


def test_evaluate_topic_no_relevant():
    with pytest.raises(NoRelevantDocsError):
        evaluate_topic({"a"}, _qrels("T", set(), {"b"}), "T")


def test_adding_relevant_doc_never_decreases_scores():
    rng = random.Random(7)
    for _ in range(200):
        relevant = {str(i) for i in rng.sample(range(50), rng.randint(1, 10))}
        retrieved = {str(i) for i in rng.sample(range(50), rng.randint(0, 20))}
        missing = relevant - retrieved
        if not missing:
            continue
        qrels = _qrels("T", relevant)
        before = evaluate_topic(retrieved, qrels, "T")
        after = evaluate_topic(retrieved | {next(iter(missing))}, qrels, "T")
        assert after.precision >= before.precision - 1e-12
        assert after.recall >= before.recall - 1e-12
        assert after.f1 >= before.f1 - 1e-12
        assert after.f3 >= before.f3 - 1e-12


# ---------------------------------------------------------------------------
# macro_average
# ---------------------------------------------------------------------------

def test_macro_average_single_topic_identity():
    m = Metrics(0.5, 0.6, 0.55, 0.58, 10, 5, 3)
    assert macro_average([m]) == m


def test_macro_average_arithmetic():
    a = Metrics(0.2, 0.2, 0.2, 0.2)
    b = Metrics(0.4, 0.4, 0.4, 0.4)
    assert macro_average([a, b]).precision == pytest.approx(0.3)


def test_macro_average_permutation_invariant():
    rng = random.Random(8)
    ms = [Metrics(rng.random(), rng.random(), rng.random(), rng.random()) for _ in range(9)]
    shuffled = ms[:]
    rng.shuffle(shuffled)
    assert macro_average(ms) == macro_average(shuffled)


def test_macro_average_empty_rejected():
    with pytest.raises(ValueError):
        macro_average([])
