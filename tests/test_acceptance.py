"""Acceptance suite: one test per release criterion, each printing a PASS
line on success.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import random
import threading
import time
from pathlib import Path

import pytest
from scipy import stats as scipy_stats

from conftest import stub_server
from randgen import fixture_vocab, random_corpus, random_query, random_retrieval_query, random_term
from srquery.analysis import (
    DegenerateVarianceError,
    RunResult,
    RunSeries,
    TopicClass,
    bonferroni,
    classify_topic,
    mesh_validity_ratio,
    oracle_select,
    paired_t_test,
    unjudged_fraction,
)
from srquery.collections import Qrels
from srquery.entrez import EntrezConfig, RateLimiter, entrez_search
from srquery.gateway import BackendConfig, MockBackend, run_guided_session
from srquery.metrics import Metrics, evaluate_topic, f_beta
from srquery.prompts import PromptBindings, load_manifest, load_template, render, template_digest
from srquery.query_ast import (
    MESH_EXPLODED,
    Op,
    Operator,
    Query,
    Term,
    count_clauses,
    extract_mesh_terms,
    parse,
    serialize,
    validate,
)
from srquery.retrieval import build_index, execute_local, execute_naive

import test_entrez as entrez_stubs
import test_pipeline as pipeline_helpers

FIXTURES = Path(__file__).parent / "fixtures"
TEG_QUERY = json.loads(
    (Path(__file__).parent.parent / "src/srquery/data/hqe_example.json").read_text()
)["query"]
GUIDED_ANSWERS = json.loads((FIXTURES / "guided_answers.json").read_text())


def _pass(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion} PASS - {detail}")


def test_c01_parser_round_trip():
    start = time.monotonic()
    rng = random.Random(20230501)
    for _ in range(1000):
        q = random_query(rng, max_depth=5, max_terms=30)
        assert parse(serialize(q)) == q
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"round-trip suite took {elapsed:.2f}s"
    _pass("C1", f"1000 random ASTs round-tripped in {elapsed:.2f}s")


def test_c02_published_query_fixture():
    q = parse(TEG_QUERY)
    mesh = extract_mesh_terms(q)
    assert mesh == [("Thrombelastography", False)]
    assert parse(serialize(q)) == q
    stats = count_clauses(q)
    assert stats.term_count == 16
    _pass("C2", "TEG/ROTEM query parses; one noexp MeSH term; serialization re-parses")


def test_c03_retrieval_oracle_equivalence():
    rng = random.Random(424242)
    vocab = fixture_vocab()
    for _ in range(100):
        corpus = random_corpus(rng, max_docs=200)
        idx = build_index(corpus, vocab)
        q = random_retrieval_query(rng, max_depth=4)
        assert execute_local(idx, q) == execute_naive(corpus, q, vocab)

    # Set-algebra and monotonicity invariants.
    for seed in (1, 2, 3):
        inner = random.Random(seed)
        for _ in range(30):
            corpus = random_corpus(inner, max_docs=80)
            idx = build_index(corpus, vocab)
            q = random_retrieval_query(inner, max_depth=3)
            extra = random_term(inner)
            base = execute_local(idx, q)
            assert base <= execute_local(idx, Query(Operator(Op.OR, (q.root, extra))))
            assert execute_local(idx, Query(Operator(Op.AND, (q.root, extra)))) <= base
            difference = execute_local(idx, Query(Operator(Op.NOT, (q.root, extra))))
            assert difference & execute_local(idx, Query(extra)) == set()
            for name in ("Neoplasms", "Carcinoma"):
                noexp = execute_local(idx, parse(f"{name}[mesh:noexp]"))
                exploded = execute_local(idx, parse(f"{name}[MeSH]"))
                assert noexp <= exploded
    _pass("C3", "local == naive on 100 instances; four algebraic invariants hold")


def test_c04_metrics_fixtures():
    qrels = Qrels({("T", "a"): 1, ("T", "b"): 1, ("T", "c"): 1})
    m = evaluate_topic({"a", "b", "x", "y"}, qrels, "T")
    assert m.precision == pytest.approx(0.5, abs=1e-4)
    assert m.recall == pytest.approx(0.6667, abs=1e-4)
    assert m.f1 == pytest.approx(0.5714, abs=1e-4)
    assert m.f3 == pytest.approx(0.6452, abs=1e-4)

    rng = random.Random(6)
    for _ in range(1000):
        p, r = rng.random(), rng.random()
        f1, f3 = f_beta(p, r, 1.0), f_beta(p, r, 3.0)
        if r > p:
            assert f3 > f1
        elif r < p:
            assert f3 < f1
        else:
            assert f3 == pytest.approx(f1)
    _pass("C4", "fixture metrics within 1e-4; beta ordering holds on 1000 pairs")


def test_c05_statistics():
    rng = random.Random(1234)
    checked = 0
    while checked < 20:
        n = rng.randint(5, 40)
        a = [rng.random() for _ in range(n)]
        b = [max(0.0, min(1.0, x + rng.gauss(0, 0.2))) for x in a]
        diffs = [x - y for x, y in zip(a, b)]
        if len(set(diffs)) == 1:
            continue
        ours = paired_t_test(a, b)
        ref = scipy_stats.ttest_rel(a, b)
        assert ours.t == pytest.approx(ref.statistic, abs=1e-6)
        assert ours.p == pytest.approx(ref.pvalue, abs=1e-6)
        checked += 1

    assert bonferroni(0.2, 1) == pytest.approx(0.2)
    assert bonferroni(0.3, 5) == 1.0
    with pytest.raises(DegenerateVarianceError):
        paired_t_test([1.0, 2.0], [1.0, 2.0])
    _pass("C5", "t-test matches reference within 1e-6 on 20 pairs; bonferroni identities hold")


def test_c06_failure_analysis_protocol():
    # Oracle pick on a synthetic 10-run series: recall first, precision ties.
    # Eight runs with recall strictly below 0.90, then two tied at 0.90.
    rng = random.Random(62)
    runs = [RunResult(i, Metrics(rng.random(), rng.random() * 0.8, 0, 0)) for i in range(8)]
    runs.append(RunResult(8, Metrics(0.30, 0.90, 0, 0)))
    runs.append(RunResult(9, Metrics(0.40, 0.90, 0, 0)))
    series = RunSeries("T", tuple(runs))
    assert oracle_select(series).run_index == 9  # max recall, tie -> precision

    original = Metrics(0.35, 0.80, 0, 0)
    assert classify_topic(Metrics(0.40, 0.90, 0, 0), original) is TopicClass.SUCCESSFUL
    assert classify_topic(Metrics(0.30, 0.70, 0, 0), original) is TopicClass.FAILING
    assert classify_topic(Metrics(0.40, 0.70, 0, 0), original) is TopicClass.NEUTRAL

    vocab = fixture_vocab()
    present = ["Neoplasms", "Carcinoma", "Thyroid Neoplasms", "Thyroid Nodule", "Autopsy",
               "Mass Screening", "Liver Cirrhosis", "Influenza, Human", "Carcinoma"]
    terms = [Term(name, MESH_EXPLODED) for name in present]
    terms += [Term(f"invented term {i}", MESH_EXPLODED) for i in range(11)]
    validity = mesh_validity_ratio(Query(Operator(Op.OR, tuple(terms))), vocab)
    assert validity.mesh_count == 20
    assert validity.invalid_fraction == pytest.approx(0.55)

    qrels = Qrels({("T", str(i)): i % 2 for i in range(52)})
    frac = unjudged_fraction({str(i) for i in range(1000)}, qrels, "T")
    assert frac == pytest.approx(0.948)
    _pass("C6", "oracle rules, 0.55 mesh-validity and 0.948 unjudged fixtures reproduced")


def test_c07_guided_session():
    from srquery.collections import ReviewTopic, SeedStudy

    topic = ReviewTopic("SR1", "Prevalence of differentiated thyroid cancer in autopsy studies")
    seed = SeedStudy(pmid="1", title="Seed study title",
                     abstract="Ten occult carcinomas of the thyroid gland were found.")
    script = [GUIDED_ANSWERS[k] for k in ("step1", "step2", "step3", "step4")]

    outcome = run_guided_session(topic, seed, BackendConfig(kind="mock"),
                                 backend=MockBackend(script=list(script)))
    assert outcome.attempts == 1
    assert ("autopsy", True) in extract_mesh_terms(outcome.query)
    assert validate(outcome.query).ok

    corrupted = [script[0], "1. (Q) Differentiated thyroid cancer"] + list(script)
    outcome = run_guided_session(topic, seed, BackendConfig(kind="mock", max_retries=3),
                                 backend=MockBackend(script=corrupted))
    assert outcome.attempts == 2
    assert len(outcome.failures) == 1
    _pass("C7", "scripted session yields autopsy[MeSH]; corrupted step 2 restarts once")


def test_c08_end_to_end_determinism(tmp_path):
    start = time.monotonic()
    cfg_a = pipeline_helpers.run_full_pipeline(tmp_path / "a")
    cfg_b = pipeline_helpers.run_full_pipeline(tmp_path / "b")
    report_a = (tmp_path / "a" / "reports" / "report.csv").read_bytes()
    report_b = (tmp_path / "b" / "reports" / "report.csv").read_bytes()
    assert report_a == report_b
    log_a = pipeline_helpers.strip_timestamps(Path(cfg_a.runlog))
    log_b = pipeline_helpers.strip_timestamps(Path(cfg_b.runlog))
    assert log_a == log_b
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _pass("C8", f"two mock pipeline runs byte-identical (sans timestamps) in {elapsed:.2f}s")


def test_c09_prompt_fidelity():
    manifest = load_manifest()
    for template_id in ("q1", "q2", "q3", "q4", "q5", "q6", "q7"):
        template = load_template(template_id)
        assert template_digest(template) == manifest[template_id], template_id
    rendered = render("q1", PromptBindings(review_title="X"))
    assert rendered.startswith("For a systematic review titled")
    _pass("C9", "q1-q7 bodies hash-match the manifest; q1 opens as published")


def test_c10_entrez_client(tmp_path):
    # Pagination arithmetic against the offline stub server.
    with stub_server(entrez_stubs._EsearchStub) as url:
        entrez_stubs._EsearchStub.count = 25_000
        entrez_stubs._EsearchStub.error = None
        entrez_stubs._EsearchStub.status = 200
        entrez_stubs._EsearchStub.requests_seen = []
        cfg = EntrezConfig(base_url=url, retmax=10_000, rate_limit=3.0)
        pmids = entrez_search(parse("trial[pt]"), cfg, limiter=RateLimiter(10_000))
        assert len(entrez_stubs._EsearchStub.requests_seen) == 3
        assert len(pmids) == 25_000

    # Limiter never exceeds the configured rate under 8 concurrent callers.
    rate = 200.0
    limiter = RateLimiter(rate)
    slots: list[float] = []
    lock = threading.Lock()

    def worker():
        for _ in range(5):
            slot = limiter.acquire()
            with lock:
                slots.append(slot)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    slots.sort()
    diffs = [b - a for a, b in zip(slots, slots[1:])]
    assert min(diffs) >= (1.0 / rate) - 1e-9
    for i, s in enumerate(slots):
        assert len([x for x in slots[i:] if x < s + 1.0]) <= rate
    _pass("C10", "25000/10000 -> 3 requests; rate limiter holds under 8 threads")
