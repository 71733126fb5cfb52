import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from srquery.analysis import (
    DegenerateVarianceError,
    EmptyRetrievalError,
    LengthMismatchError,
    RunResult,
    RunSeries,
    TooFewRunsError,
    TopicClass,
    ZeroOriginalCountError,
    bonferroni,
    classify_topic,
    mesh_validity_ratio,
    oracle_select,
    paired_t_test,
    retrieved_ratio_stats,
    significance_matrix,
    unjudged_fraction,
    variability_summary,
)
from srquery.collections import Qrels
from srquery.metrics import Metrics
from srquery.query_ast import Operator, Op, Query, Term, MESH_EXPLODED, parse


def M(p=0.0, r=0.0, retrieved=0):
    return Metrics(precision=p, recall=r, f1=0.0, f3=0.0, retrieved_count=retrieved)


# ---------------------------------------------------------------------------
# paired t-test
# ---------------------------------------------------------------------------

def test_t_test_matches_reference_on_20_fixture_pairs():
    rng = random.Random(1234)
    for _ in range(20):
        n = rng.randint(5, 40)
        a = [rng.random() for _ in range(n)]
        b = [max(0.0, min(1.0, x + rng.gauss(0, 0.2))) for x in a]
        if all(x == y for x, y in zip(a, b)):
            continue
        ours = paired_t_test(a, b)
        ref = scipy_stats.ttest_rel(a, b)
        assert ours.t == pytest.approx(ref.statistic, abs=1e-6)
        assert ours.p == pytest.approx(ref.pvalue, abs=1e-6)


def test_t_test_extreme_statistics_match_reference():
    # Tiny perturbations produce huge t and vanishing p; the continued
    # fraction must stay stable.
    cases = [
        ([0.5000, 0.5001, 0.5002, 0.4999, 0.5003], [0.1, 0.1001, 0.1002, 0.0998, 0.1004]),
        (list(range(50)), [x + 0.5 + 1e-6 * (x % 3) for x in range(50)]),
        ([1e-9, 2e-9, 3e-9], [2e-9, 2.5e-9, 3.1e-9]),
    ]
    for a, b in cases:
        ours = paired_t_test(a, b)
        ref = scipy_stats.ttest_rel(a, b)
        assert ours.t == pytest.approx(ref.statistic, rel=1e-9, abs=1e-9)
        assert ours.p == pytest.approx(ref.pvalue, rel=1e-6, abs=1e-12)


def test_t_test_zero_mean_difference():
    result = paired_t_test([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
    assert result.t == pytest.approx(0.0)
    assert result.p == pytest.approx(1.0)


def test_t_test_degenerate_variance():
    with pytest.raises(DegenerateVarianceError):
        paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])  # identical -> all diffs 0
    with pytest.raises(DegenerateVarianceError):
        paired_t_test([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])  # constant shift


def test_t_test_length_checks():
    with pytest.raises(LengthMismatchError):
        paired_t_test([1.0, 2.0], [1.0])
    with pytest.raises(LengthMismatchError):
        paired_t_test([1.0], [2.0])


def test_t_test_antisymmetry():
    rng = random.Random(77)
    for _ in range(50):
        n = rng.randint(3, 20)
        a = [rng.random() for _ in range(n)]
        b = [rng.random() for _ in range(n)]
        try:
            fwd = paired_t_test(a, b)
        except DegenerateVarianceError:
            continue
        rev = paired_t_test(b, a)
        assert fwd.t == pytest.approx(-rev.t, abs=1e-12)
        assert fwd.p == pytest.approx(rev.p, abs=1e-12)


# ---------------------------------------------------------------------------
# bonferroni
# ---------------------------------------------------------------------------

def test_bonferroni_values():
    assert bonferroni(0.01, 5) == pytest.approx(0.05)
    assert bonferroni(0.3, 5) == 1.0
    assert bonferroni(0.42, 1) == pytest.approx(0.42)


def test_bonferroni_takes_p_at_both_bounds_and_nothing_above_one():
    assert bonferroni(1.0, 3) == 1.0  # a zero mean difference
    assert bonferroni(0.0, 3) == 0.0
    with pytest.raises(ValueError, match="p must be in"):
        bonferroni(1.5, 1)


def test_bonferroni_monotone_and_capped():
    rng = random.Random(3)
    for _ in range(200):
        p1, p2 = sorted((rng.random(), rng.random()))
        m1, m2 = sorted((rng.randint(1, 30), rng.randint(1, 30)))
        assert bonferroni(p1, m1) <= bonferroni(p2, m1)
        assert bonferroni(p1, m1) <= bonferroni(p1, m2)
        assert bonferroni(p2, m2) <= 1.0


def test_significance_matrix_symmetry_and_m():
    scores = {
        "q1": [0.1, 0.2, 0.3, 0.4],
        "q2": [0.4, 0.1, 0.5, 0.2],
        "q3": [0.9, 0.8, 0.85, 0.95],
    }
    methods, cells, m = significance_matrix(scores)
    assert methods == ["q1", "q2", "q3"]
    assert m == 3
    for x in methods:
        for y in methods:
            if x != y:
                assert cells[(x, y)] == cells[(y, x)]


def test_significance_matrix_marks_degenerate_pairs():
    scores = {"a": [0.1, 0.2], "b": [0.1, 0.2]}
    _, cells, _ = significance_matrix(scores)
    assert cells[("a", "b")] is None


# ---------------------------------------------------------------------------
# oracle selection / classification
# ---------------------------------------------------------------------------

def test_oracle_select_recall_then_precision():
    series = RunSeries("T", (
        RunResult(0, M(p=0.1, r=0.5)),
        RunResult(1, M(p=0.2, r=0.5)),
        RunResult(2, M(p=0.9, r=0.4)),
    ))
    assert oracle_select(series).run_index == 1


def test_oracle_select_single_run():
    series = RunSeries("T", (RunResult(3, M(p=0.1, r=0.1)),))
    assert oracle_select(series).run_index == 3


def test_oracle_select_full_tie_lowest_index():
    series = RunSeries("T", (
        RunResult(2, M(p=0.5, r=0.5)),
        RunResult(0, M(p=0.5, r=0.5)),
        RunResult(1, M(p=0.5, r=0.5)),
    ))
    assert oracle_select(series).run_index == 0


def test_oracle_recall_dominates_series():
    rng = random.Random(21)
    for _ in range(100):
        runs = tuple(
            RunResult(i, M(p=rng.random(), r=rng.random())) for i in range(rng.randint(1, 10))
        )
        series = RunSeries("T", runs)
        best = oracle_select(series)
        assert all(best.metrics.recall >= run.metrics.recall for run in runs)


def test_classify_topic_rules():
    original = M(p=0.1, r=0.5)
    assert classify_topic(M(p=0.2, r=0.6), original) is TopicClass.SUCCESSFUL
    assert classify_topic(M(p=0.05, r=0.3), original) is TopicClass.FAILING
    assert classify_topic(M(p=0.2, r=0.4), original) is TopicClass.NEUTRAL


def test_classify_topic_ties_are_neutral():
    original = M(p=0.1, r=0.5)
    for oracle in (M(p=0.1, r=0.6), M(p=0.1, r=0.4),    # precision ties
                   M(p=0.2, r=0.5), M(p=0.05, r=0.5),   # recall ties
                   M(p=0.1, r=0.5)):
        assert classify_topic(oracle, original) is TopicClass.NEUTRAL, oracle


def test_classify_topic_partitions():
    rng = random.Random(31)
    for _ in range(300):
        oracle = M(p=rng.random(), r=rng.random())
        original = M(p=rng.random(), r=rng.random())
        results = {
            cls: classify_topic(oracle, original) is cls
            for cls in TopicClass
        }
        assert sum(results.values()) == 1


# ---------------------------------------------------------------------------
# ratios / mesh validity / unjudged
# ---------------------------------------------------------------------------

def test_ratio_median_shapes():
    stats = retrieved_ratio_stats(
        [(30, 100)], [TopicClass.SUCCESSFUL]
    )
    assert stats[TopicClass.SUCCESSFUL] == pytest.approx(0.30)


def test_ratio_median_odd_and_even():
    stats = retrieved_ratio_stats(
        [(1, 1), (3, 1), (10, 1), (2, 1), (4, 1)],
        [TopicClass.FAILING] * 3 + [TopicClass.NEUTRAL] * 2,
    )
    assert stats[TopicClass.FAILING] == pytest.approx(3.0)
    assert stats[TopicClass.NEUTRAL] == pytest.approx(3.0)  # mean of 2 and 4


def test_ratio_median_permutation_invariant():
    rng = random.Random(41)
    pairs = [(rng.randint(1, 500), rng.randint(1, 500)) for _ in range(11)]
    labels = [TopicClass.SUCCESSFUL] * 11
    base = retrieved_ratio_stats(pairs, labels)
    order = list(range(11))
    rng.shuffle(order)
    shuffled = retrieved_ratio_stats([pairs[i] for i in order], labels)
    assert base == shuffled


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 10**6)), min_size=1, max_size=40),
       st.lists(st.sampled_from(list(TopicClass)), min_size=40, max_size=40))
def test_ratio_median_equals_statistics_median(pairs, labels):
    import statistics  # the reference; the library does not load it

    labels = labels[:len(pairs)]
    grouped = {}
    for (generated, original), label in zip(pairs, labels):
        grouped.setdefault(label, []).append(generated / original)
    assert retrieved_ratio_stats(pairs, labels) == {
        label: statistics.median(ratios) for label, ratios in grouped.items()}


def test_ratio_zero_original_count():
    with pytest.raises(ZeroOriginalCountError):
        retrieved_ratio_stats([(5, 0)], [TopicClass.NEUTRAL])


def _mesh_query(n_terms):
    terms = tuple(Term(f"descriptor {i}", MESH_EXPLODED) for i in range(n_terms))
    return Query(Operator(Op.OR, terms))


def test_mesh_validity_55_percent(vocab):
    # 20 MeSH terms, 11 of them absent from the vocabulary.
    present = ["Neoplasms", "Carcinoma", "Autopsy", "Liver", "Prevalence",
               "Incidence", "Vaccination", "Ultrasonography", "Mass Screening"]
    terms = [Term(name, MESH_EXPLODED) for name in present]
    terms += [Term(f"made up term {i}", MESH_EXPLODED) for i in range(11)]
    q = Query(Operator(Op.OR, tuple(terms)))
    validity = mesh_validity_ratio(q, vocab)
    assert validity.mesh_count == 20
    assert validity.invalid_fraction == pytest.approx(0.55)


def test_mesh_validity_no_mesh_terms(vocab):
    validity = mesh_validity_ratio(parse("a[tiab] AND b[Title]"), vocab)
    assert (validity.mesh_count, validity.invalid_fraction) == (0, 0.0)


def test_mesh_validity_all_present(vocab):
    q = parse("Autopsy[MeSH] OR Carcinoma[mesh:noexp]")
    assert mesh_validity_ratio(q, vocab).invalid_fraction == 0.0


def test_unjudged_fraction_basic():
    qrels = Qrels({("T", str(i)): 1 for i in range(10)})
    retrieved = {str(i) for i in range(100)}
    assert unjudged_fraction(retrieved, qrels, "T") == pytest.approx(0.9)


def test_unjudged_fraction_948_fixture():
    # 1000 retrieved, 52 of them judged.
    qrels = Qrels({("T", str(i)): i % 2 for i in range(52)})
    retrieved = {str(i) for i in range(1000)}
    assert unjudged_fraction(retrieved, qrels, "T") == pytest.approx(0.948)


def test_unjudged_fraction_all_judged():
    qrels = Qrels({("T", "1"): 1, ("T", "2"): 0})
    assert unjudged_fraction({"1", "2"}, qrels, "T") == 0.0


def test_unjudged_fraction_empty_retrieval():
    with pytest.raises(EmptyRetrievalError):
        unjudged_fraction(set(), Qrels({("T", "1"): 1}), "T")


# ---------------------------------------------------------------------------
# variability
# ---------------------------------------------------------------------------

def _series(topic_id, recalls):
    return RunSeries(topic_id, tuple(
        RunResult(i, M(r=v)) for i, v in enumerate(recalls)
    ))


def test_variability_identical_runs():
    summary = variability_summary([_series("T1", [0.5, 0.5, 0.5])], "recall")
    assert summary.variance == 0.0
    assert summary.variance_to_mean_ratio == 0.0


def test_variability_hand_computed():
    summary = variability_summary([_series("T1", [0.4, 0.6])], "recall")
    assert summary.mean == pytest.approx(0.5)
    assert summary.variance == pytest.approx(0.02)
    assert summary.variance_to_mean_ratio == pytest.approx(0.04)


def test_variability_reports_all_four_metric_names():
    series = [_series("T1", [0.4, 0.6]), _series("T2", [0.2, 0.8])]
    for metric in ("recall", "precision", "f1", "f3"):
        summary = variability_summary(series, metric)
        assert summary.metric == metric


def test_variability_quartiles_shape():
    summary = variability_summary(
        [_series("T1", [0.1, 0.2, 0.3, 0.4, 0.5])], "recall"
    )
    lo, q1, med, q3, hi = summary.per_topic_quartiles["T1"]
    assert lo == pytest.approx(0.1)
    assert med == pytest.approx(0.3)
    assert hi == pytest.approx(0.5)
    assert lo <= q1 <= med <= q3 <= hi


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300), st.integers(2, 12), st.integers(0, 2**32 - 1))
def test_variability_floats_equal_numpy(n_topics, n_runs, seed):
    # analysis_report.json holds these floats unrounded, so the port must
    # round exactly as numpy does: equality, not approx.
    rng = random.Random(seed)
    table = [
        [rng.choice([0.0, 1.0, 1 / 3, rng.random()]) for _ in range(n_runs)]
        for _ in range(n_topics)
    ]
    series = [_series(f"T{t}", row) for t, row in enumerate(table)]
    summary = variability_summary(series, "recall")

    per_run_macro = [float(np.mean([row[i] for row in table])) for i in range(n_runs)]
    assert summary.mean == float(np.mean(per_run_macro))
    assert summary.variance == float(np.var(per_run_macro, ddof=1))
    for t, row in enumerate(table):
        expected = tuple(float(x) for x in np.percentile(row, [0, 25, 50, 75, 100]))
        assert summary.per_topic_quartiles[f"T{t}"] == expected


def test_variability_needs_two_runs():
    with pytest.raises(TooFewRunsError):
        variability_summary([_series("T1", [0.4])], "recall")
