import csv
import hashlib
import importlib.util
import json
import logging
import math
import os
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import stub_server
from srquery import cli, entrez, pipeline, prompts, runlog
from srquery.analysis import significance_matrix
from srquery.collections import MalformedLineError, Qrels, load_qrels
from srquery.entrez import EntrezConfig, query_digest
from srquery.gateway import (
    BackendConfig,
    Conversation,
    MockBackend,
    conversation_digest,
    extract_query,
)
from srquery.metrics import Metrics
from srquery.pipeline import (
    AppConfig,
    MissingSeedQueryError,
    UsageError,
    cmd_analyze,
    cmd_evaluate,
    cmd_execute,
    cmd_formulate,
    cmd_guided,
    cmd_ingest,
    cmd_refine,
    cmd_report,
)
from srquery.prompts import MissingFixtureError, PromptBindings, hqe_example, render
from srquery.query_ast import parse
from srquery.retrieval import UnknownDescriptorError, build_index
from srquery.runlog import RunRecord, append_records, check_integrity, read_records
from test_entrez import _EsearchStub, esearch_stub  # noqa: F401 (a fixture)

FIXTURES = Path(__file__).parent / "fixtures" / "collection"
GUIDED_ANSWERS = json.loads(
    (Path(__file__).parent / "fixtures" / "guided_answers.json").read_text()
)


def make_config(tmp_path: Path, topics_file="topics.jsonl", **backend_kwargs) -> AppConfig:
    backend = BackendConfig(
        kind="mock",
        fixtures_path=str(FIXTURES / "mock_responses.json"),
        **backend_kwargs,
    )
    return AppConfig(
        topics=str(FIXTURES / topics_file),
        qrels=str(FIXTURES / "qrels.txt"),
        corpus=str(FIXTURES / "corpus.jsonl"),
        mesh=str(FIXTURES / "mesh.tsv"),
        runlog=str(tmp_path / "runlog.jsonl"),
        cache_dir=str(tmp_path / "cache"),
        report_dir=str(tmp_path / "reports"),
        backend=backend,
    )


def run_full_pipeline(tmp_path: Path) -> AppConfig:
    cfg = make_config(tmp_path)
    cmd_ingest(cfg)
    cmd_formulate(cfg, "q4", "hqe")
    cmd_execute(cfg)
    cmd_evaluate(cfg)
    cmd_report(cfg)
    return cfg


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

def test_ingest_summary_and_original_records(tmp_path):
    cfg = make_config(tmp_path)
    summary = cmd_ingest(cfg)
    assert summary["topics"] == 3
    assert summary["original_records_added"] == 3
    records = read_records(cfg.runlog)
    assert all(r.prompt_id == "original" and r.stage == "generate" for r in records)
    assert check_integrity(records) == []


def test_ingest_rejects_a_duplicate_pmid_before_writing_any_record(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"pmid":"1","title":"a"}\n{"pmid":"1","title":"b"}\n')
    cfg = make_config(tmp_path)
    cfg.corpus = str(corpus)
    with pytest.raises(MalformedLineError, match="duplicate pmid") as exc:
        cmd_ingest(cfg)
    assert exc.value.line_no == 2
    assert read_records(cfg.runlog) == []


# ---------------------------------------------------------------------------
# formulate
# ---------------------------------------------------------------------------

def test_formulate_q4_hqe_three_records(tmp_path):
    cfg = make_config(tmp_path)
    records = cmd_formulate(cfg, "q4", "hqe")
    assert len(records) == 3
    assert all(r.status == "ok" for r in records)
    assert all(r.query for r in records)
    # Deterministic digests: repeating in a fresh directory matches exactly.
    again = cmd_formulate(make_config(tmp_path / "again"), "q4", "hqe")
    assert [r.raw_response_digest for r in again] == [r.raw_response_digest for r in records]


def test_formulate_prompts_contain_hqe_query(tmp_path):
    # The q4/hqe prompt must embed the bundled CD010438 example query; the
    # frozen mock fixtures key on exactly that rendered text.
    cfg = make_config(tmp_path)
    example = hqe_example()
    topic = cfg.load_topics()[0]
    prompt = render("q4", PromptBindings(
        review_title=topic.title,
        example_review_title=example.title,
        example_review_query=example.query_text,
    ))
    assert example.query_text in prompt
    conv = Conversation()
    conv.append("user", prompt)
    fixtures = json.loads((FIXTURES / "mock_responses.json").read_text())
    assert conversation_digest(conv) in fixtures


GENERATION_USAGE_ERRORS = [
    (cmd_formulate, ("q4", "none"), "q4 requires --example-mode hqe or re"),
    (cmd_formulate, ("q1", "hqe"), "q1 does not take an example"),
    (cmd_formulate, ("q6", "none"),
     "formulate accepts prompts ('q1', 'q2', 'q3', 'q4', 'q5'), got 'q6'"),
    (cmd_formulate, ("q4", "foo"), "unknown example mode 'foo'"),
    (cmd_refine, ("q4", "original"), "refine accepts prompts ('q6', 'q7'), got 'q4'"),
    (cmd_refine, ("q6", "bogus"), "unknown seed source 'bogus'"),
    (cmd_refine, ("q7", "original", "none"), "q7 requires --example-mode hqe or re"),
    (cmd_refine, ("q6", "original", "hqe"), "q6 does not take an example"),
    (cmd_refine, ("q7", "original", "foo"), "unknown example mode 'foo'"),
]


def test_formulate_usage_errors(tmp_path):
    cfg = make_config(tmp_path)
    for stage, args, message in GENERATION_USAGE_ERRORS:
        with pytest.raises(UsageError) as raised:
            stage(cfg, *args)
        assert str(raised.value) == message, (stage.__name__, args)
    assert read_records(cfg.runlog) == []  # nothing recorded before usage checks


def test_formulate_failures_recorded_not_fatal(tmp_path):
    cfg = make_config(tmp_path)
    backend = MockBackend(script=["no query here"] * 8 + ["(ok[tiab] AND fine[tiab])"] * 4)
    records = cmd_formulate(cfg, "q1", backend=backend)
    statuses = sorted(r.status for r in records)
    assert statuses == ["error", "error", "ok"]
    errors = [r for r in records if r.status == "error"]
    assert all("attempts" in r.error or r.error for r in errors)


def test_formulate_logs_a_query_that_reads_back_as_the_answers_query(tmp_path):
    # A starred phrase with trailing whitespace: the logged text is what
    # execute parses, so it must be the tree extract_query accepted.
    answer = '"heart attack* "[tiab]'
    records = cmd_formulate(make_config(tmp_path), "q1", backend=MockBackend(script=[answer] * 3))
    assert [r.status for r in records] == ["ok"] * 3
    assert all(parse(r.query) == extract_query(answer) for r in records)
    assert records[0].query == '"heart attack*"[Title/Abstract]'


def test_formulate_is_idempotent(tmp_path):
    cfg = make_config(tmp_path)
    first = cmd_formulate(cfg, "q4", "hqe")
    second = cmd_formulate(cfg, "q4", "hqe")
    assert len(first) == 3 and second == []
    assert len(read_records(cfg.runlog)) == 3


def test_formulate_loads_the_hqe_example_once_per_call(tmp_path, monkeypatch):
    loads = []

    def counting_hqe_example():
        loads.append(1)
        return hqe_example()
    monkeypatch.setattr(pipeline, "hqe_example", counting_hqe_example)
    cfg = make_config(tmp_path)
    cfg.runs_per_topic = 2
    assert [r.status for r in cmd_formulate(cfg, "q4", "hqe")] == ["ok"] * 6
    assert len(loads) == 1


def test_formulate_hqe_without_bundled_file_raises(tmp_path, monkeypatch):
    monkeypatch.setattr(prompts.resources, "files", lambda package: tmp_path)
    with pytest.raises(MissingFixtureError, match="hqe_example.json"):
        cmd_formulate(make_config(tmp_path), "q4", "hqe")


def test_formulate_re_mode_uses_pool(tmp_path):
    cfg = make_config(tmp_path)
    responses = "(fallback[tiab] AND query[tiab])"
    backend = MockBackend(script=[responses] * 3)
    records = cmd_formulate(cfg, "q4", "re", backend=backend)
    assert all(r.status == "ok" for r in records)
    assert all(r.example_mode == "re" for r in records)


# ---------------------------------------------------------------------------
# refine
# ---------------------------------------------------------------------------

def test_refine_q6_original_prompt_contains_correction(tmp_path):
    cfg = make_config(tmp_path)
    prompts_seen = []

    class SpyBackend(MockBackend):
        def complete(self, conv):
            prompts_seen.append(conv.messages[-1].content)
            return "(refined[tiab] AND query[tiab])"

    records = cmd_refine(cfg, "q6", "original", backend=SpyBackend())
    assert all(r.status == "ok" for r in records)
    assert all("Please correct this query" in p for p in prompts_seen)
    assert all(r.seed_source == "original" for r in records)


def test_refine_q7_includes_example_queries(tmp_path):
    cfg = make_config(tmp_path)
    # The bundled HQE fixture has no refined query, so q7+hqe cannot bind;
    # supply a synthetic example through the RE pool instead.
    prompts_seen = []

    class SpyBackend(MockBackend):
        def complete(self, conv):
            prompts_seen.append(conv.messages[-1].content)
            return "(refined[tiab] AND query[tiab])"

    records = cmd_refine(cfg, "q7", "original", example_mode="hqe", backend=SpyBackend())
    assert all(r.status == "error" for r in records)  # missing refined example query

    # With q4-runlog seeds absent, the error is a missing seed, not a crash.
    records = cmd_refine(cfg, "q6", "q4-runlog", backend=SpyBackend())
    assert all(r.status == "error" for r in records)
    assert all("no q4-runlog seed query" in r.error for r in records)


def test_refine_conceptual_source_needs_file(tmp_path):
    cfg = make_config(tmp_path)
    with pytest.raises(MissingSeedQueryError):
        cmd_refine(cfg, "q6", "conceptual", backend=MockBackend(script=["x"] * 3))


def test_refine_conceptual_from_supplied_file(tmp_path):
    seeds_path = tmp_path / "conceptual.jsonl"
    with open(seeds_path, "w") as f:
        for tid in ("CD900001", "CD900002", "CD900003"):
            f.write(json.dumps({"topic_id": tid, "query": "(seed[tiab] AND here[tiab])"}) + "\n")
    cfg = make_config(tmp_path)
    cfg.seed_query_files["conceptual"] = str(seeds_path)
    backend = MockBackend(script=["(better[tiab] AND query[tiab])"] * 3)
    records = cmd_refine(cfg, "q6", "conceptual", backend=backend)
    assert all(r.status == "ok" for r in records)


@pytest.mark.parametrize("blank", ["", " \n "], ids=["empty", "whitespace"])
def test_refine_gives_a_blank_seed_query_an_error_record(tmp_path, blank):
    seeds_path = tmp_path / "conceptual.jsonl"
    with open(seeds_path, "w") as f:
        for tid in ("CD900001", "CD900002", "CD900003"):
            query = blank if tid == "CD900002" else "(seed[tiab] AND here[tiab])"
            f.write(json.dumps({"topic_id": tid, "query": query}) + "\n")
    cfg = make_config(tmp_path)
    cfg.seed_query_files["conceptual"] = str(seeds_path)
    prompts_seen = []

    class SpyBackend(MockBackend):
        def complete(self, conv):
            prompts_seen.append(conv.messages[-1].content)
            return "(refined[tiab] AND query[tiab])"

    records = {r.topic_id: r for r in cmd_refine(cfg, "q6", "conceptual", backend=SpyBackend())}
    assert records["CD900002"].status == "error"
    assert records["CD900002"].error == "no conceptual seed query for topic CD900002"
    assert records["CD900001"].status == records["CD900003"].status == "ok"
    assert len(prompts_seen) == 2
    assert not any("liver fibrosis" in p for p in prompts_seen)


# Each bad seed-query line follows a good one, so the error names line 2.
BAD_SEED_QUERY_LINES = {
    "missing-query": '{"topic_id": "CD900002"}',
    "invalid-json": '{"topic_id": "CD900002", "query":',
    "null-topic-id": '{"topic_id": null, "query": "seed[tiab]"}',
}


@pytest.mark.parametrize("bad_line", BAD_SEED_QUERY_LINES.values(), ids=BAD_SEED_QUERY_LINES)
def test_refine_names_the_file_and_line_of_a_bad_seed_query(tmp_path, capsys, bad_line):
    seeds_path = tmp_path / "conceptual.jsonl"
    seeds_path.write_text(
        json.dumps({"topic_id": "CD900001", "query": "seed[tiab]"}) + "\n" + bad_line + "\n")
    cfg = make_config(tmp_path)
    cfg.seed_query_files["conceptual"] = str(seeds_path)
    with pytest.raises(MalformedLineError) as exc:
        cmd_refine(cfg, "q6", "conceptual", backend=MockBackend(script=["x"] * 3))
    assert str(exc.value).startswith(f"{seeds_path}:2: ")
    # The CLI prints the same message and exits 2, with no traceback.
    config_path = write_cli_config(tmp_path)
    config = json.loads(config_path.read_text())
    config["seed_query_files"] = {"conceptual": str(seeds_path)}
    config_path.write_text(json.dumps(config))
    assert cli.main(["refine", "--config", str(config_path), "--prompt", "q6",
                     "--seed-source", "conceptual"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {seeds_path}:2: ")


def test_refine_q7_re_pairs_seed_with_original(tmp_path):
    # Related refinement examples pair another topic's seed query (initial)
    # with its expert original query (refined).
    seeds_path = tmp_path / "objective.jsonl"
    with open(seeds_path, "w") as f:
        for tid in ("CD900001", "CD900002", "CD900003"):
            f.write(json.dumps({"topic_id": tid, "query": f"(auto{tid[-1]}[tiab] AND seed[tiab])"}) + "\n")
    cfg = make_config(tmp_path)
    cfg.seed_query_files["objective"] = str(seeds_path)
    prompts_seen = []

    class SpyBackend(MockBackend):
        def complete(self, conv):
            prompts_seen.append(conv.messages[-1].content)
            return "(refined[tiab] AND query[tiab])"

    records = cmd_refine(cfg, "q7", "objective", example_mode="re", backend=SpyBackend())
    assert all(r.status == "ok" for r in records)
    for prompt in prompts_seen:
        assert "therefore it should be corrected to" in prompt
        assert "auto" in prompt  # another topic's seed query as the example initial
        assert "[Title/Abstract]" in prompt  # from the example's original query


def test_refine_q4_runlog_after_formulate(tmp_path):
    cfg = make_config(tmp_path)
    cmd_formulate(cfg, "q4", "hqe")
    backend = MockBackend(script=["(narrowed[tiab] AND query[tiab])"] * 3)
    records = cmd_refine(cfg, "q6", "q4-runlog", backend=backend)
    assert all(r.status == "ok" for r in records)


# ---------------------------------------------------------------------------
# guided
# ---------------------------------------------------------------------------

def guided_script():
    return [GUIDED_ANSWERS[k] for k in ("step1", "step2", "step3", "step4")]


def test_guided_runs_per_seed_and_flags_missing(tmp_path):
    # SR100 has one seed study, SR101 two, SR102 none.
    cfg = make_config(tmp_path, topics_file="seed_topics.jsonl")
    backend = MockBackend(script=guided_script() * 3)
    records = cmd_guided(cfg, backend=backend)
    by_topic = {}
    for r in records:
        by_topic.setdefault(r.topic_id, []).append(r)
    assert [r.status for r in by_topic["SR100"]] == ["ok"]
    assert [r.status for r in by_topic["SR101"]] == ["ok", "ok"]
    # Each seed session gets its own run index for downstream analysis.
    assert sorted(r.run_index for r in by_topic["SR101"]) == [0, 1]
    missing = by_topic["SR102"][0]
    assert missing.status == "error" and "no seed study" in missing.error


def test_guided_records_a_seed_study_with_a_null_abstract(tmp_path):
    # A null abstract loads as "", so only that topic's session fails.
    topics = tmp_path / "topics.jsonl"
    topics.write_text("".join(json.dumps(line) + "\n" for line in [
        {"topic_id": "SR100", "title": "Thyroid cancer at autopsy",
         "seed_studies": [{"pmid": "1012", "title": "Autopsy prevalence", "abstract": None}]},
        {"topic_id": "SR101", "title": "Point of care influenza testing",
         "seed_studies": [{"pmid": "1011", "title": "Point of care testing",
                           "abstract": "Rapid antigen tests for influenza."}]},
    ]))
    cfg = make_config(tmp_path)
    cfg.topics = str(topics)
    records = cmd_guided(cfg, backend=MockBackend(script=guided_script()))
    assert [(r.run_id, r.status) for r in records] == [
        ("gen:guided:none:s1011:SR101:r0", "ok"), ("gen:guided:none:s1012:SR100:r0", "error")]
    assert records[1].error == ("guided session for topic SR100 needs a seed with "
                                "title and abstract")


def test_guided_records_a_list_number_too_long_for_int(tmp_path):
    # int() refuses more than 4,300 digits: each session retries the answer
    # and then records its topic's error, without the number.
    cfg = make_config(tmp_path, topics_file="seed_topics.jsonl", max_retries=1)
    records = cmd_guided(cfg, backend=MockBackend(script=["9" * 5000 + ". x"] * 6))
    assert sorted((r.run_id, r.status, r.error) for r in records) == [
        ("gen:guided:none:-:SR102:r0", "error", "topic SR102 has no seed study")] + [
        (f"gen:guided:none:s{pmid}:{topic_id}:r0", "error", "no valid query after 2 attempts "
         "(attempt 2 step 1: list number of 5000 digits)")
        for pmid, topic_id in (("1005", "SR101"), ("1011", "SR101"), ("1012", "SR100"))]


def test_guided_pipeline_through_evaluation(tmp_path):
    cfg = make_config(tmp_path, topics_file="seed_topics.jsonl")
    backend = MockBackend(script=guided_script() * 3)
    cmd_guided(cfg, backend=backend)
    cmd_execute(cfg)
    evaluated = cmd_evaluate(cfg)
    oks = [r for r in evaluated if r.status == "ok"]
    assert {r.topic_id for r in oks} == {"SR100", "SR101"}
    assert all(r.prompt_id == "guided" for r in oks)
    report_path = cmd_report(cfg)
    lines = report_path.read_text().splitlines()
    assert lines[1].startswith("guided,2,")  # 2 evaluable topics


# ---------------------------------------------------------------------------
# execute / evaluate / report
# ---------------------------------------------------------------------------

def test_execute_local_fills_counts_and_cache(tmp_path):
    cfg = make_config(tmp_path)
    cmd_ingest(cfg)
    cmd_formulate(cfg, "q4", "hqe")
    records = cmd_execute(cfg)
    assert all(r.status == "ok" for r in records)
    assert all(r.retrieved_count is not None for r in records)
    cache_files = list((tmp_path / "cache").glob("*.json"))
    assert cache_files
    # Idempotent: nothing new on a second pass.
    assert cmd_execute(cfg) == []


def test_execute_builds_no_index_when_nothing_is_pending(tmp_path, monkeypatch):
    built = []

    def counting_build_index(*args, **kwargs):
        built.append(1)
        return build_index(*args, **kwargs)
    monkeypatch.setattr(pipeline, "build_index", counting_build_index)
    cfg = make_config(tmp_path)
    cmd_ingest(cfg)
    assert len(cmd_execute(cfg)) == 3
    assert len(built) == 1
    assert cmd_execute(cfg) == []
    assert len(built) == 1
    # The missing corpus is still a usage error, pending work or not.
    cfg.corpus = None
    with pytest.raises(UsageError, match="requires a corpus path"):
        cmd_execute(cfg)


def test_execute_parses_once_and_builds_over_the_queries_that_parsed(tmp_path, monkeypatch):
    parsed, built = [], []

    def counting_parse(text):
        parsed.append(text)
        return parse(text)

    def recording_build_index(*args, **kwargs):
        built.append(kwargs["queries"])
        return build_index(*args, **kwargs)
    monkeypatch.setattr(pipeline, "parse", counting_parse)
    monkeypatch.setattr(pipeline, "build_index", recording_build_index)
    cfg = make_config(tmp_path)
    cmd_ingest(cfg)
    append_records(cfg.runlog, [RunRecord(
        run_id="gen:q1:none:-:CD900001:r0", stage="generate", topic_id="CD900001",
        prompt_id="q1", query="a”b",
    )])
    pending = [r.query for r in read_records(cfg.runlog)]
    parsed.clear()
    records = cmd_execute(cfg)
    assert parsed == pending
    assert built == [[parse(text) for text in pending[:-1]]]
    assert [r.status for r in records] == ["ok"] * (len(pending) - 1) + ["error"]
    assert records[-1].error == "'”' without matching '“' (at position 1)"


def test_execute_entrez_backed_by_stub(tmp_path):
    import test_entrez as stubs

    with stub_server(stubs._EsearchStub) as url:
        stubs._EsearchStub.count = 7
        stubs._EsearchStub.error = None
        stubs._EsearchStub.status = 200
        stubs._EsearchStub.requests_seen = []
        cfg = make_config(tmp_path)
        cfg.execution_backend = "entrez"
        from srquery.entrez import EntrezConfig
        cfg.entrez = EntrezConfig(base_url=url, retmax=10_000, api_key="test-key",
                                  rate_limit=10.0)
        cmd_ingest(cfg)
        records = cmd_execute(cfg)
        assert all(r.status == "ok" for r in records)
        assert all(r.retrieved_count == 7 for r in records)
        assert all(r.backend == "entrez" for r in records)
        # One request per distinct query; results now cached on disk.
        assert len(stubs._EsearchStub.requests_seen) == 3
        assert len(list((tmp_path / "cache").glob("*.json"))) == 3


def test_entrez_runs_never_read_a_corpus(tmp_path, monkeypatch):
    from srquery import collections, entrez

    reads, searched = [], []
    monkeypatch.setattr(collections, "iter_corpus", lambda *a: reads.append(a) or iter(()))
    monkeypatch.setattr(collections, "load_corpus", lambda *a: reads.append(a))
    monkeypatch.setattr(entrez, "entrez_search",
                        lambda query, cfg, limiter=None: searched.append(query) or {"1001"})
    cfg = make_config(tmp_path)
    cfg.execution_backend, cfg.corpus = "entrez", None
    assert cmd_ingest(cfg)["corpus_docs"] == 0
    records = cmd_execute(cfg)
    assert [r.status for r in records] == ["ok"] * 3 and len(searched) == 3
    assert reads == []


class _StallingHandler(BaseHTTPRequestHandler):
    """Accepts every request and answers none until the test ends."""

    release = threading.Event()

    def _stall(self):
        self.release.wait(10)

    do_GET = do_POST = _stall

    def log_message(self, *args):
        pass


@pytest.fixture
def stalling_server():
    _StallingHandler.release = threading.Event()
    with stub_server(_StallingHandler) as url:
        yield url
        _StallingHandler.release.set()


def test_formulate_records_chat_timeouts_per_topic(tmp_path, stalling_server, monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "test-key")
    cfg = make_config(tmp_path)
    cfg.backend = BackendConfig(kind="http", base_url=stalling_server + "/chat/completions",
                                timeout=0.2, backoff_base=0.0)
    records = cmd_formulate(cfg, "q1")
    assert sorted(r.topic_id for r in records) == ["CD900001", "CD900002", "CD900003"]
    assert all(r.status == "error" and "timed out" in r.error for r in records)


def test_execute_records_esearch_timeouts(tmp_path, stalling_server):
    from srquery.entrez import EntrezConfig

    cfg = make_config(tmp_path)
    cfg.execution_backend = "entrez"
    cfg.entrez = EntrezConfig(base_url=stalling_server, api_key="test-key", rate_limit=10.0,
                              timeout=0.2)
    cmd_ingest(cfg)
    records = cmd_execute(cfg)
    assert len(records) == 3
    assert all(r.status == "error" and "timed out" in r.error for r in records)


# ---------------------------------------------------------------------------
# the one cache path: execute owns the result cache on every backend
# ---------------------------------------------------------------------------

def entrez_config(tmp_path: Path, stub: str) -> AppConfig:
    cfg = make_config(tmp_path)
    cfg.execution_backend = "entrez"
    cfg.entrez = EntrezConfig(base_url=stub, api_key="test-key", rate_limit=10.0)
    return cfg


def test_warm_cache_makes_zero_requests(tmp_path, esearch_stub):
    _EsearchStub.count = 5
    first = entrez_config(tmp_path, esearch_stub)
    cmd_ingest(first)
    assert [r.retrieved_count for r in cmd_execute(first)] == [5] * 3
    assert len(_EsearchStub.requests_seen) == 3
    # A second run log over the same cache sends Entrez nothing.
    second = entrez_config(tmp_path, esearch_stub)
    second.runlog = str(tmp_path / "second" / "runlog.jsonl")
    cmd_ingest(second)
    assert [r.retrieved_count for r in cmd_execute(second)] == [5] * 3
    assert len(_EsearchStub.requests_seen) == 3


def test_entrez_execute_then_evaluate_scores_every_run(tmp_path, esearch_stub):
    _EsearchStub.count = 1100  # the stub answers pmids "0" to "1099"
    cfg = entrez_config(tmp_path, esearch_stub)
    cmd_ingest(cfg)
    assert [r.status for r in cmd_execute(cfg)] == ["ok"] * 3
    evaluated = cmd_evaluate(cfg)
    assert [r.status for r in evaluated] == ["ok"] * 3
    assert all(r.metrics["retrieved_count"] == 1100 for r in evaluated)


def test_config_rejects_an_entrez_cache_dir(tmp_path):
    path = write_cli_config(tmp_path)
    config = json.loads(path.read_text())
    config["execution_backend"] = "entrez"
    config["entrez"] = {"cache_dir": str(tmp_path / "elsewhere")}
    path.write_text(json.dumps(config))
    with pytest.raises(UsageError, match="cache_dir"):
        AppConfig.from_file(path)


@pytest.mark.parametrize("body, error", [
    (b"<html>busy</html>", "HTTP 200: body is not JSON"),
    (b"[1, 2]", "malformed esearch response"),
    (b'{"esearchresult": ["count"]}', "malformed esearch response"),
    (b'{"esearchresult": {"count": "many", "idlist": []}}', "malformed esearch result"),
    (b'{"esearchresult": {"count": null, "idlist": []}}', "malformed esearch result"),
    (b'{"esearchresult": {"count": "2", "idlist": 7}}', "malformed esearch result"),
    (b'{"esearchresult": {"count": "2", "idlist": [1, "2"]}}', "malformed esearch result"),
    (b'{"esearchresult": {"count": "1", "idlist": [{"id": "1"}]}}', "malformed esearch result"),
    (b'{"esearchresult": {"count": "2", "idlist": [3, 4]}}', "malformed esearch result"),
], ids=["not-json", "not-an-object", "result-not-an-object", "count-not-a-number",
        "count-null", "idlist-not-a-list", "mixed-ids", "object-id", "integer-ids"])
def test_execute_records_a_malformed_esearch_body(tmp_path, esearch_stub, body, error):
    _EsearchStub.raw_body = body
    cfg = entrez_config(tmp_path, esearch_stub)
    gen = logged_generation(cfg)
    records = cmd_execute(cfg)
    assert [(r.run_id, r.status) for r in records] == [(f"exec:entrez:{gen.run_id}", "error")]
    assert records[0].error.startswith(error), records[0].error
    assert read_records(cfg.runlog) == [gen, *records]


# ---------------------------------------------------------------------------
# the one error policy: the exact record of each outcome
# ---------------------------------------------------------------------------

def logged_generation(cfg: AppConfig, topic_id="CD900001",
                      query="(thyroid[tiab] AND screening[tiab])") -> RunRecord:
    record = RunRecord(run_id=f"gen:q1:none:-:{topic_id}:r0", stage="generate",
                       topic_id=topic_id, prompt_id="q1", backend="mock:scripted",
                       query=query, query_digest=query_digest(query))
    append_records(cfg.runlog, [record])
    return record


def execution_of(gen: RunRecord, **fields) -> RunRecord:
    return RunRecord(run_id=f"exec:local:{gen.run_id}", stage="execute", topic_id=gen.topic_id,
                     prompt_id=gen.prompt_id, backend="local", parent_run_id=gen.run_id,
                     **fields)


def evaluation_of(ex: RunRecord, **fields) -> RunRecord:
    return RunRecord(run_id=f"eval:{ex.run_id}", stage="evaluate", topic_id=ex.topic_id,
                     prompt_id=ex.prompt_id, query_digest=ex.query_digest,
                     retrieved_count=ex.retrieved_count, parent_run_id=ex.run_id, **fields)


@pytest.mark.parametrize("query, error", [
    ("a”b", "'”' without matching '“' (at position 1)"),
    ("(" * 1000 + "a" + ")" * 1000, "query nests deeper than 100 levels (at position 100)"),
], ids=["unbalanced-quote", "nested-1000-deep"])
def test_ingest_records_an_unparsable_original_query(tmp_path, query, error):
    topics = tmp_path / "topics.jsonl"
    topics.write_text(json.dumps({"topic_id": "T1", "title": "A review",
                                  "original_query": query}) + "\n")
    cfg = make_config(tmp_path)
    cfg.topics = str(topics)
    assert cmd_ingest(cfg)["original_records_added"] == 1
    assert read_records(cfg.runlog) == [RunRecord(
        run_id="gen:original:none:-:T1:r0", stage="generate", topic_id="T1",
        prompt_id="original", status="error", error=error)]


def test_formulate_records_answers_nested_too_deep_per_topic(tmp_path):
    deep = "(" * 1000 + "thyroid[tiab]" + ")" * 1000
    records = cmd_formulate(make_config(tmp_path), "q1", backend=MockBackend(script=[deep] * 12))
    assert [(r.topic_id, r.status) for r in records] == [
        (topic_id, "error") for topic_id in ("CD900001", "CD900002", "CD900003")]
    assert all(r.error.startswith("no valid query after 4 attempts") for r in records)


def test_execute_records_an_unknown_descriptor(tmp_path, monkeypatch):
    def unknown_descriptor(index, query):
        raise UnknownDescriptorError("Made Up Descriptor")
    monkeypatch.setattr(pipeline, "execute_local", unknown_descriptor)
    cfg = make_config(tmp_path)
    gen = logged_generation(cfg)
    assert cmd_execute(cfg) == [execution_of(gen, status="error", error="Made Up Descriptor")]


def test_execute_records_a_failed_cache_write(tmp_path, monkeypatch):
    def disk_full(cache_dir, digest, pmids):
        raise OSError(28, "No space left on device")
    monkeypatch.setattr(entrez, "store_result", disk_full)
    cfg = make_config(tmp_path)
    gen = logged_generation(cfg)
    assert cmd_execute(cfg) == [
        execution_of(gen, status="error", error="[Errno 28] No space left on device")]


def test_a_programming_error_in_execute_propagates_and_records_nothing(tmp_path, monkeypatch):
    def broken(index, query):
        raise TypeError("unhashable type: 'list'")
    monkeypatch.setattr(pipeline, "execute_local", broken)
    cfg = make_config(tmp_path)
    gen = logged_generation(cfg)
    with pytest.raises(TypeError, match="unhashable"):
        cmd_execute(cfg)
    assert read_records(cfg.runlog) == [gen]


def test_evaluate_records_a_missing_cache_entry(tmp_path):
    cfg = make_config(tmp_path)
    gen = logged_generation(cfg)
    [ex] = cmd_execute(cfg)
    assert ex == execution_of(gen, query=gen.query, query_digest=gen.query_digest,
                              retrieved_count=ex.retrieved_count)
    for path in Path(cfg.cache_dir).glob("*.json"):
        path.unlink()
    assert cmd_evaluate(cfg) == [
        evaluation_of(ex, status="error", error="no cached result for query digest")]


def test_evaluate_records_an_unjudged_topic_as_skipped(tmp_path):
    cfg = make_config(tmp_path)
    logged_generation(cfg, topic_id="CD999999")
    [ex] = cmd_execute(cfg)
    assert cmd_evaluate(cfg) == [evaluation_of(
        ex, status="skipped", error="topic CD999999 has no relevant judgments")]


def test_import_pulls_in_no_third_party_library():
    code = ("import sys, srquery.pipeline, srquery.cli; "
            "print(sorted({'numpy', 'requests', 'urllib3'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


# The modules only a network or parallel run needs.  A local run with the
# mock backend and one worker never loads them.  ThreadPoolExecutor lives in
# concurrent.futures.thread, which concurrent.futures imports on first use.
OPTIONAL_MODULES = ("concurrent.futures", "concurrent.futures.thread", "email", "http.client",
                    "ssl", "urllib.request")


def _modules_left_loaded(code: str, probe=OPTIONAL_MODULES) -> list[str]:
    """Run ``code`` in a fresh interpreter and return which ``probe``
    modules it has loaded at the end."""
    code += f"\nimport json, sys; print(json.dumps(sorted(set(sys.modules) & {set(probe)!r})))"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_import_loads_no_network_thread_pool_or_statistics_module():
    assert _modules_left_loaded("import srquery.pipeline, srquery.cli",
                                OPTIONAL_MODULES + ("statistics",)) == []


@pytest.mark.parametrize("setting, loaded", [
    ("", []),
    ("backend=BackendConfig(kind='http', base_url='http://127.0.0.1:9')",
     ["email", "http.client", "ssl", "urllib.request"]),
    ("execution_backend='entrez'", ["email", "http.client", "ssl", "urllib.request"]),
    ("parallelism=2", ["concurrent.futures", "concurrent.futures.thread"]),
], ids=["mock-local-serial", "http", "entrez", "parallel"])
def test_config_loads_what_its_run_will_use_when_built(setting, loaded):
    code = ("import sys\n"
            "from srquery.gateway import BackendConfig\n"
            "from srquery.pipeline import AppConfig\n"
            "assert not {'concurrent.futures', 'urllib.request'} & set(sys.modules)\n"
            "AppConfig(topics='t', qrels='q', runlog='r', cache_dir='c', report_dir='d', "
            f"{setting})")
    assert _modules_left_loaded(code) == loaded


@pytest.mark.parametrize("setting, loaded", [
    ("", []),
    ("backend=BackendConfig(kind='http', base_url='http://127.0.0.1:9')", ["encodings.idna"]),
    ("execution_backend='entrez'", ["encodings.idna"]),
], ids=["mock-local", "http", "entrez"])
def test_a_network_config_loads_the_idna_codec_when_built(setting, loaded):
    # socket.create_connection imports encodings.idna on first use.
    code = ("from srquery.gateway import BackendConfig\n"
            "from srquery.pipeline import AppConfig\n"
            "AppConfig(topics='t', qrels='q', runlog='r', cache_dir='c', report_dir='d', "
            f"{setting})")
    assert _modules_left_loaded(code, ("encodings.idna",)) == loaded


def test_request_json_imports_its_transport_when_called(esearch_stub):
    _EsearchStub.count = 2
    code = ("import sys\n"
            "from srquery.ratelimit import request_json\n"
            "assert 'urllib.request' not in sys.modules\n"
            f"body = request_json({esearch_stub + '/esearch.fcgi?term=x'!r}, timeout=10.0)\n"
            "assert body['esearchresult']['idlist'] == ['0', '1'], body")
    assert "urllib.request" in _modules_left_loaded(code)


def _local_mock_run(tmp_path: Path) -> str:
    """Code that runs every stage of a mock-backend, local-index run
    through ``cli.main``, for ``_modules_left_loaded``."""
    config = str(write_cli_config(tmp_path))
    stages = [["ingest"], ["formulate", "--prompt", "q4", "--example-mode", "hqe"],
              ["execute"], ["evaluate"], ["analyze"], ["report"]]
    return ("from srquery import cli\n"
            f"for argv in {stages!r}:\n"
            f"    assert cli.main([*argv, '--config', {config!r}]) == 0, argv")


def test_a_local_mock_run_loads_no_network_or_thread_pool_module(tmp_path):
    assert _modules_left_loaded(_local_mock_run(tmp_path)) == []
    evaluated = [r for r in read_records(tmp_path / "runlog.jsonl") if r.stage == "evaluate"]
    assert [r.status for r in evaluated] == ["ok"] * 6
    assert (tmp_path / "reports" / "report.csv").exists()


@pytest.mark.skipif(importlib.util.find_spec("_sha2") is None
                    and importlib.util.find_spec("_sha256") is None,
                    reason="no built-in SHA-256 module: digests fall back to hashlib")
def test_a_local_mock_run_never_loads_hashlib(tmp_path):
    assert _modules_left_loaded(_local_mock_run(tmp_path), ("_hashlib", "hashlib")) == []


def test_a_local_mock_run_through_analyze_never_loads_statistics(tmp_path):
    assert _modules_left_loaded(_local_mock_run(tmp_path), ("statistics",)) == []
    # analyze took its retrieved-ratio medians without the module.
    analysis = json.loads((tmp_path / "reports" / "analysis_report.json").read_text())
    assert analysis["methods"]["q4-hqe"]["retrieved_ratio_median"]


def test_evaluate_attaches_metrics(tmp_path):
    cfg = make_config(tmp_path)
    cmd_ingest(cfg)
    cmd_formulate(cfg, "q4", "hqe")
    cmd_execute(cfg)
    records = cmd_evaluate(cfg)
    oks = [r for r in records if r.status == "ok"]
    assert oks and all(set(r.metrics) >= {"precision", "recall", "f1", "f3"} for r in oks)
    assert cmd_evaluate(cfg) == []


def test_report_shapes(tmp_path):
    cfg = run_full_pipeline(tmp_path)
    report = (tmp_path / "reports" / "report.csv").read_text().splitlines()
    assert report[0] == "method,topics,precision,f1,f3,recall"
    methods = [line.split(",")[0] for line in report[1:]]
    assert methods == ["original", "q4-hqe"]
    per_topic = (tmp_path / "reports" / "per_topic.csv").read_text().splitlines()
    assert per_topic[0] == "topic_id,prompt_id,run_index,precision,f1,f3,recall"
    assert len(per_topic) == 1 + 6  # 3 topics x 2 methods


def q1_with_a_failed_and_an_unjudged_topic(tmp_path: Path):
    """q1 over the fixture topics and CD999999, formulated, executed and
    evaluated: CD900002's generation exhausts its retries, and CD999999
    has no relevant judgments."""
    topics = tmp_path / "topics.jsonl"
    topics.write_text((FIXTURES / "topics.jsonl").read_text() + json.dumps(
        {"topic_id": "CD999999", "title": "A topic nobody judged"}) + "\n")
    cfg = make_config(tmp_path)
    cfg.topics = str(topics)
    script = (["(thyroid[tiab] AND cancer[tiab])"] + ["no query here"] * 4
              + ["(influenza[tiab])", "(liver[tiab])"])
    generated = cmd_formulate(cfg, "q1", backend=MockBackend(script=script))
    assert [(r.topic_id, r.status) for r in generated] == [
        ("CD900001", "ok"), ("CD900002", "error"), ("CD900003", "ok"), ("CD999999", "ok")]
    cmd_execute(cfg)
    evaluated = cmd_evaluate(cfg)
    assert [(r.topic_id, r.status) for r in evaluated] == [
        ("CD900001", "ok"), ("CD900003", "ok"), ("CD999999", "skipped")]
    return cfg, evaluated


def test_report_counts_a_failed_evaluable_topic_as_zero(tmp_path):
    # The report averages q1 over CD900002 as zeros; CD999999 is left out.
    cfg, evaluated = q1_with_a_failed_and_an_unjudged_topic(tmp_path)
    cmd_report(cfg)

    with open(tmp_path / "reports" / "report.csv", newline="") as f:
        [row] = list(csv.DictReader(f))
    assert row["method"] == "q1" and row["topics"] == "3"
    scored = [r.metrics for r in evaluated if r.status == "ok"]
    assert any(m["precision"] > 0 for m in scored)
    for metric in ("precision", "f1", "f3", "recall"):
        assert float(row[metric]) == pytest.approx(
            sum(m[metric] for m in scored) / 3, abs=1e-6)


def test_the_t_tests_pair_the_topics_report_csv_averages(tmp_path):
    # report.csv scores CD900002 as a q1 failure, and the t-tests pair it
    # as zero: the tests and the averages describe the same three topics.
    cfg, _ = q1_with_a_failed_and_an_unjudged_topic(tmp_path)
    cmd_ingest(cfg)
    cmd_execute(cfg)
    cmd_evaluate(cfg)
    significance = cmd_analyze(cfg)["significance"]
    cmd_report(cfg)
    with open(tmp_path / "reports" / "report.csv", newline="") as f:
        rows = {row["method"]: row for row in csv.DictReader(f)}
    assert rows["q1"]["topics"] == "3" and rows["original"]["topics"] == "3"
    assert {sig["paired_topics"] for sig in significance.values()} == {3}


def test_analyze_report_contents(tmp_path):
    cfg = run_full_pipeline(tmp_path)
    report = cmd_analyze(cfg)
    q4 = report["methods"]["q4-hqe"]
    assert q4["topic_classes"] == {
        "CD900001": "successful",
        "CD900002": "failing",
        "CD900003": "neutral",
    }
    assert q4["retrieved_ratio_median"]["successful"] == pytest.approx(1.0)
    assert q4["retrieved_ratio_median"]["failing"] == pytest.approx(1.5)
    assert q4["variability"].startswith("unavailable")  # single run
    # Two of the three oracle queries carry one MeSH term each; one of those
    # two is absent from the vocabulary.
    assert q4["mesh_terms_per_query"] == pytest.approx(2 / 3, abs=1e-4)
    assert q4["invalid_mesh_fraction"] == pytest.approx(0.5)
    assert all(0.0 <= v <= 1.0 for v in q4["unjudged_fraction"].values())
    assert (tmp_path / "reports" / "analysis_report.json").exists()
    sig = tmp_path / "reports" / "significance_recall.csv"
    assert sig.exists()
    header = sig.read_text().splitlines()[0]
    assert header == "method,original,q4-hqe"


def test_analyze_variability_with_multiple_runs(tmp_path):
    cfg = make_config(tmp_path)
    cfg.runs_per_topic = 3
    cmd_ingest(cfg)
    backend = MockBackend(script=[
        "(thyroid[tiab] AND screening[tiab])",
        "(thyroid[tiab] OR cancer[tiab])",
        "(thyroid[tiab] AND autopsy[tiab])",
        "(liver[tiab] AND ultrasound[tiab])",
        "(liver[tiab] OR fibrosis[tiab])",
        "(liver[tiab] AND elastography[tiab])",
        "(influenza[tiab] AND rapid[tiab])",
        "(influenza[tiab] OR flu[tiab])",
        "(influenza[tiab] AND children[tiab])",
    ])
    cmd_formulate(cfg, "q1", backend=backend)
    cmd_execute(cfg)
    cmd_evaluate(cfg)
    report = cmd_analyze(cfg)
    variability = report["methods"]["q1"]["variability"]
    assert set(variability) == {"precision", "recall", "f1", "f3"}
    assert "variance_to_mean_ratio" in variability["recall"]
    quartiles = variability["recall"]["per_topic_quartiles"]
    assert set(quartiles) == {"CD900001", "CD900002", "CD900003"}
    assert all(len(q) == 5 for q in quartiles.values())


def test_analyze_pairs_no_methods_over_one_shared_topic(tmp_path):
    # Each method evaluated two topics, of which one is shared: a paired
    # t-test needs two pairs, so analyze writes no significance matrix.
    cfg = make_config(tmp_path)
    scores = {"precision": 0.5, "recall": 0.5, "f1": 0.5, "f3": 0.5}
    append_records(cfg.runlog, [
        RunRecord(run_id=f"eval:{prompt_id}:{topic_id}", stage="evaluate", topic_id=topic_id,
                  prompt_id=prompt_id, metrics=scores)
        for prompt_id, topic_ids in (("original", ("CD900001", "CD900002")),
                                     ("q1", ("CD900001", "CD900003")))
        for topic_id in topic_ids
    ])
    report = cmd_analyze(cfg)
    assert set(report["methods"]) == {"q1"}
    assert report["significance"] == {}
    assert list((tmp_path / "reports").glob("significance_*.csv")) == []


def test_analyze_parses_each_distinct_query_text_once(tmp_path, monkeypatch):
    # The oracle queries reuse the trees of the integrity sweep.
    cfg = run_full_pipeline(tmp_path)
    parsed = []

    def counting_parse(text):
        parsed.append(text)
        return parse(text)
    monkeypatch.setattr(pipeline, "parse", counting_parse)
    monkeypatch.setattr(runlog, "parse", counting_parse)
    report = cmd_analyze(cfg)
    assert report["methods"]["q4-hqe"]["mesh_terms_per_query"] == pytest.approx(2 / 3, abs=1e-4)
    texts = {r.query for r in read_records(cfg.runlog) if r.query}
    assert len(parsed) == len(texts)
    assert set(parsed) == texts


def test_analyze_warns_about_a_query_that_does_not_reparse(tmp_path, caplog):
    cfg = run_full_pipeline(tmp_path)
    logged_generation(cfg, query="(a AND b")
    with caplog.at_level(logging.WARNING, logger="srquery.pipeline"):
        cmd_analyze(cfg)
    assert [r.getMessage() for r in caplog.records if r.name == "srquery.pipeline"] == [
        """run log integrity problems: ["gen:q1:none:-:CD900001:r0: query does not re-parse: """
        """unclosed '(' (at position 0)"]"""
    ]


# ---------------------------------------------------------------------------
# the score table behind analyze and report
# ---------------------------------------------------------------------------

def _generated(prompt_id: str, topic_id: str, run_index=0, status="ok") -> RunRecord:
    return RunRecord(run_id=f"gen:{prompt_id}:none:-:{topic_id}:r{run_index}", stage="generate",
                     topic_id=topic_id, prompt_id=prompt_id, run_index=run_index, status=status)


def _evaluated(topic_id: str, run_index: int, recall: float, status="ok") -> RunRecord:
    return RunRecord(run_id=f"eval:exec:local:gen:q1:none:-:{topic_id}:r{run_index}",
                     stage="evaluate", topic_id=topic_id, prompt_id="q1", run_index=run_index,
                     status=status, metrics={"precision": 1.0, "recall": recall,
                                             "f1": 0.0, "f3": 0.0} if status == "ok" else None)


# CD900001 and CD900002 have relevant judgments; CD999999 has none.
SCORE_RECORDS = [
    _generated("q1", "CD900001", 0), _generated("q1", "CD900001", 1),
    _generated("q1", "CD900001", 2, status="error"),
    _evaluated("CD900001", 0, recall=1.0), _evaluated("CD900001", 1, recall=0.5),
    _generated("q1", "CD900002"),  # executed with an error, so never evaluated
    _generated("q1", "CD999999"), _evaluated("CD999999", 0, recall=0.0, status="skipped"),
    _generated("q2", "CD900001", status="error"), _generated("q2", "CD999999", status="error"),
    _generated("q3", "CD999999", status="error"),
]


def test_score_table_gives_each_topic_one_disposition():
    runs, scores = pipeline._score_table(SCORE_RECORDS, load_qrels(FIXTURES / "qrels.txt"))
    # q1's CD900001 keeps its two ok runs, CD900002 is a failure that
    # scores zero and the unjudged CD999999 is left out; q2 has only a
    # failure, and q3, which attempted only the unjudged topic, has no entry.
    assert {method: {topic_id: sorted(topic_runs) for topic_id, topic_runs in topics.items()}
            for method, topics in runs.items()} == {"q1": {"CD900001": [0, 1]}}
    record, metrics = runs["q1"]["CD900001"][1]
    assert record is SCORE_RECORDS[4] and metrics.recall == 0.5
    # A topic's one score is the mean of its ok runs, or zero for a failure.
    zero = Metrics(0.0, 0.0, 0.0, 0.0)
    assert scores == {"q1": {"CD900001": Metrics(1.0, 0.75, 0.0, 0.0), "CD900002": zero},
                      "q2": {"CD900001": zero}}


def test_report_averages_ok_runs_and_scores_a_failed_topic_zero(tmp_path):
    cfg = make_config(tmp_path)
    append_records(cfg.runlog, SCORE_RECORDS)
    cmd_report(cfg)
    with open(tmp_path / "reports" / "report.csv", newline="") as f:
        rows = {row["method"]: row for row in csv.DictReader(f)}
    # q1: CD900001's two ok runs average recall 0.75; CD900002 scores 0.
    assert {method: (row["topics"], float(row["precision"]), float(row["recall"]))
            for method, row in rows.items()} == {"q1": ("2", 0.5, 0.375), "q2": ("1", 0.0, 0.0)}


def test_score_table_looks_judgments_up_through_the_qrels_object(monkeypatch):
    # The benchmark's tracer counts lookups by rebinding Qrels.relevant_for.
    looked_up = []
    relevant_for = Qrels.relevant_for

    def counting(self, topic_id, *args):
        looked_up.append(topic_id)
        return relevant_for(self, topic_id, *args)
    monkeypatch.setattr(Qrels, "relevant_for", counting)
    pipeline._score_table(SCORE_RECORDS, load_qrels(FIXTURES / "qrels.txt"))
    assert sorted(looked_up) == ["CD900001", "CD900002", "CD999999", "CD999999", "CD999999"]


_SCORE = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def drawn_score_records(draw):
    """Generate records, each with or without an ok evaluation, for two or
    three methods over the fixture topics and the unjudged CD999999."""
    records = []
    for prompt_id in draw(st.sampled_from([("original", "q1"), ("q1", "q2", "q4")])):
        for topic_id in draw(st.sets(st.sampled_from(
                ["CD900001", "CD900002", "CD900003", "CD999999"]), min_size=1)):
            for run_index in range(draw(st.integers(1, 3))):
                cell = f"{prompt_id}:{topic_id}:r{run_index}"
                records.append(RunRecord(
                    run_id=f"gen:{cell}", stage="generate", topic_id=topic_id,
                    prompt_id=prompt_id, run_index=run_index))
                if topic_id != "CD999999" and draw(st.booleans()):
                    records.append(RunRecord(
                        run_id=f"eval:{cell}", stage="evaluate", topic_id=topic_id,
                        prompt_id=prompt_id, run_index=run_index,
                        metrics={metric: draw(_SCORE) for metric in pipeline._SCORES}))
    return records


@settings(max_examples=60, deadline=None)
@given(drawn_score_records())
def test_report_rows_average_the_scores_the_t_tests_pair(records):
    inputs = []

    def recording(per_method_scores):
        inputs.append(per_method_scores)
        return significance_matrix(per_method_scores)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(pipeline, "significance_matrix", recording):
        cfg = make_config(Path(tmp))
        append_records(cfg.runlog, records)
        report = cmd_analyze(cfg)
        cmd_report(cfg)
        with open(Path(tmp) / "reports" / "report.csv", newline="") as f:
            rows = {row["method"]: row for row in csv.DictReader(f)}
    # A method scores each judged topic it attempted: CD999999 is unjudged.
    scored: dict[str, set] = {}
    for r in records:
        if r.stage == "generate" and r.topic_id != "CD999999":
            scored.setdefault(r.prompt_id, set()).add(r.topic_id)
    common = set.intersection(*scored.values()) if scored else set()
    assert set(rows) == set(scored)
    if len(scored) < 2 or len(common) < 2:
        assert inputs == [] and report["significance"] == {}
        return
    assert [report["significance"][metric]["paired_topics"] for metric in pipeline._SCORES] == [
        len(common)] * 4
    if any(topics != common for topics in scored.values()):
        return
    # Every method scored the same topics: each report.csv row is the mean
    # of that method's significance inputs.
    for metric, per_method in zip(pipeline._SCORES, inputs):
        for method, vector in per_method.items():
            assert rows[method]["topics"] == str(len(vector))
            assert rows[method][metric] == f"{math.fsum(vector) / len(vector):.6f}"


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def strip_timestamps(path: Path) -> str:
    lines = []
    for line in path.read_text().splitlines():
        obj = json.loads(line)
        obj.pop("timestamp", None)
        lines.append(json.dumps(obj, sort_keys=True))
    return "\n".join(lines)


def test_pipeline_is_deterministic_end_to_end(tmp_path):
    cfg_a = run_full_pipeline(tmp_path / "a")
    cfg_b = run_full_pipeline(tmp_path / "b")
    report_a = (tmp_path / "a" / "reports" / "report.csv").read_bytes()
    report_b = (tmp_path / "b" / "reports" / "report.csv").read_bytes()
    assert report_a == report_b
    assert strip_timestamps(Path(cfg_a.runlog)) == strip_timestamps(Path(cfg_b.runlog))


GRID_Q1_ANSWERS = (
    "(thyroid[tiab] AND screening[tiab])", "(thyroid[tiab] OR cancer[tiab])",
    "(liver[tiab] AND fibrosis[tiab])", "(liver[tiab] OR ultrasound[tiab])",
    "(influenza[tiab] AND rapid[tiab])", "(influenza[tiab] OR test*[tiab])")
# CD900001's second run gets four answers without a query and fails.
GRID_Q2_ANSWERS = (
    "(\"Thyroid Neoplasms\"[MeSH] AND autopsy[tiab])", *["no query here"] * 4,
    "(Liver[MeSH] AND elastography[tiab])", "(Liver Cirrhosis[mesh:noexp])",
    "(Influenza, Human[MeSH] OR flu[tiab])", "(Unknown Thing[MeSH] OR children[tiab])")


def run_fixture_grid(tmp_path: Path) -> AppConfig:
    """Every stage over the fixture collection, two runs per topic, with
    scripted answers that reach each record outcome: ok, generation error,
    execute error (an unparsable query), evaluate skipped (an unjudged
    topic) and guided error (a topic without seed studies)."""
    cfg = make_config(tmp_path)
    cfg.runs_per_topic = 2
    cmd_ingest(cfg)

    def script(*answers):
        return MockBackend(script=list(answers))
    cmd_formulate(cfg, "q1", backend=script(*GRID_Q1_ANSWERS))
    cmd_formulate(cfg, "q2", backend=script(*GRID_Q2_ANSWERS))
    cmd_formulate(cfg, "q3", backend=script(
        "Sure: (thyroid[ti] AND nodule*[tiab])", "(thyroid[tiab] NOT cancer[tiab])",
        "(liver[tiab] AND hepatitis[tiab])", "(elastography[tiab])",
        "(influenza[tiab] AND (rapid[tiab] OR point of care[tiab]))", "(vaccination[tiab])"))
    cmd_formulate(cfg, "q4", "hqe")
    cmd_formulate(cfg, "q5", "re", backend=script(*[
        f"(related{i}[tiab] AND screening[tiab])" for i in range(6)]))
    cmd_refine(cfg, "q6", "original", backend=script(*[
        f"(refined{i}[tiab] OR thyroid[tiab] OR liver[tiab])" for i in range(6)]))
    cmd_refine(cfg, "q7", "q4-runlog", example_mode="re", backend=script(*[
        f"(narrowed{i}[tiab] OR influenza[tiab])" for i in range(6)]))
    seeded = make_config(tmp_path, topics_file="seed_topics.jsonl")
    seeded.runs_per_topic = 2
    cmd_guided(seeded, backend=script(*guided_script() * 6))
    append_records(cfg.runlog, [
        RunRecord(run_id="gen:q1:none:-:CD900001:r9", stage="generate", topic_id="CD900001",
                  prompt_id="q1", run_index=9, query="a”b"),
        RunRecord(run_id="gen:q1:none:-:CD999999:r0", stage="generate", topic_id="CD999999",
                  prompt_id="q1", query="thyroid[tiab]"),
    ])
    cmd_execute(cfg)
    cmd_evaluate(cfg)
    cmd_analyze(cfg)
    cmd_report(cfg)
    return cfg


def test_fixture_grid_output_bytes_are_pinned(tmp_path):
    # c08 compares two runs of the same code, so a change that alters every
    # record alike passes it; these digests pin the bytes themselves.  The
    # checkout path (in the mock backend label) and the report directory
    # (in analysis_report.json) are replaced, so the digests hold anywhere.
    cfg = run_fixture_grid(tmp_path)
    checkout = str(Path(__file__).resolve().parents[1])
    reports = Path(cfg.report_dir)

    def digest(text: str) -> str:
        text = text.replace(str(tmp_path), "<tmp>").replace(checkout, "<checkout>")
        return hashlib.sha256(text.encode("utf-8")).hexdigest()
    statuses = Counter(f"{r.stage}.{r.status}" for r in read_records(cfg.runlog))
    assert statuses == GRID_STATUSES
    assert {
        "runlog": digest(strip_timestamps(Path(cfg.runlog))),
        "report.csv": digest((reports / "report.csv").read_text()),
        "per_topic.csv": digest((reports / "per_topic.csv").read_text()),
        "analysis_report.json": digest((reports / "analysis_report.json").read_text()),
    } == GRID_DIGESTS


GRID_STATUSES = {
    "generate.ok": 52, "generate.error": 2, "execute.ok": 51, "execute.error": 1,
    "evaluate.ok": 50, "evaluate.skipped": 1,
}
GRID_DIGESTS = {
    "runlog": "96b86f07b73b4064fc78e993981e056f5080a99f80997c30167e17ce73daa5f2",
    "report.csv": "8c1ac60bb85fd436c838dd0e42cfc126016414a9ffe4babfb51ed1aa8521244a",
    "per_topic.csv": "3947193d5f59a42e0cbe98043ae7a0ea07de501bf2cd0e61b6f9432defc2d8a8",
    "analysis_report.json": "9e6920c2d1072cb61f61361c26dc10cd411c1cf955b4035d02608c4bbe347740",
}


def test_significance_output_bytes_are_pinned(tmp_path):
    # The fixture grid writes no significance CSV, because guided's topics
    # share no id with the others.  This grid leaves guided out, so the
    # t-tests pair every fixture topic across original, q1, q2 and q4-hqe.
    cfg = make_config(tmp_path)
    cfg.runs_per_topic = 2
    cmd_ingest(cfg)
    cmd_formulate(cfg, "q1", backend=MockBackend(script=list(GRID_Q1_ANSWERS)))
    cmd_formulate(cfg, "q2", backend=MockBackend(script=list(GRID_Q2_ANSWERS)))
    cmd_formulate(cfg, "q4", "hqe")
    cmd_execute(cfg)
    cmd_evaluate(cfg)
    report = cmd_analyze(cfg)
    cmd_report(cfg)
    assert {metric: sig["paired_topics"] for metric, sig in report["significance"].items()} == {
        "precision": 3, "recall": 3, "f1": 3, "f3": 3}
    outputs = [f"significance_{m}.csv" for m in ("precision", "recall", "f1", "f3")]
    outputs += ["analysis_report.json", "report.csv"]
    assert {name: hashlib.sha256(
                (Path(cfg.report_dir) / name).read_text().replace(str(tmp_path), "<tmp>")
                .encode("utf-8")).hexdigest()
            for name in outputs} == SIGNIFICANCE_DIGESTS


SIGNIFICANCE_DIGESTS = {
    "significance_precision.csv":
        "c95469ab2ae863f1bd5c9644d78dea6c30336e2410fe1604c76b87fc8b2faa4c",
    "significance_recall.csv": "e55c313a7920ca4033c358aebae6a4d9acc3b50b6397c0205903f7f45dc36066",
    "significance_f1.csv": "b4343d59fcb7aed22b46d9443190cba012e2700929d350d71d9bc33929368902",
    "significance_f3.csv": "6b00ba124a2aa431bc2166d6a5da2909bdeb64d3cff27e85211b3417c117e6ac",
    "analysis_report.json": "5ba09bc5d7e0f847c8f14d4efe2eb5adbe108fad7f6429e8f583ae0caea7194b",
    "report.csv": "54a51f67de0b17cc76f54d9aca177b81b58739c3dc4100f8123dde58949f8afc",
}


def test_parallel_formulate_matches_serial(tmp_path):
    serial_cfg = make_config(tmp_path / "serial")
    parallel_cfg = make_config(tmp_path / "parallel")
    parallel_cfg.parallelism = 4
    cmd_formulate(serial_cfg, "q4", "hqe")
    cmd_formulate(parallel_cfg, "q4", "hqe")
    assert strip_timestamps(Path(serial_cfg.runlog)) == strip_timestamps(Path(parallel_cfg.runlog))


def test_rerunning_stages_never_mutates_prior_records(tmp_path):
    cfg = run_full_pipeline(tmp_path)
    before = strip_timestamps(Path(cfg.runlog))
    cmd_formulate(cfg, "q4", "hqe")
    cmd_execute(cfg)
    cmd_evaluate(cfg)
    cmd_report(cfg)
    assert strip_timestamps(Path(cfg.runlog)) == before
    assert check_integrity(read_records(cfg.runlog)) == []


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def write_cli_config(tmp_path: Path) -> Path:
    config = {
        "topics": str(FIXTURES / "topics.jsonl"),
        "qrels": str(FIXTURES / "qrels.txt"),
        "corpus": str(FIXTURES / "corpus.jsonl"),
        "mesh": str(FIXTURES / "mesh.tsv"),
        "runlog": str(tmp_path / "runlog.jsonl"),
        "cache_dir": str(tmp_path / "cache"),
        "report_dir": str(tmp_path / "reports"),
        "backend": {
            "kind": "mock",
            "fixtures_path": str(FIXTURES / "mock_responses.json"),
        },
        "execution_backend": "local",
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config, indent=2))
    return path


def test_cli_full_pipeline(tmp_path, capsys):
    config = str(write_cli_config(tmp_path))
    assert cli.main(["ingest", "--config", config]) == 0
    assert cli.main(["formulate", "--config", config, "--prompt", "q4",
                     "--example-mode", "hqe"]) == 0
    assert cli.main(["execute", "--config", config]) == 0
    assert cli.main(["evaluate", "--config", config]) == 0
    assert cli.main(["analyze", "--config", config]) == 0
    assert cli.main(["report", "--config", config]) == 0
    out = capsys.readouterr().out
    assert "report.csv" in out
    assert (tmp_path / "reports" / "report.csv").exists()


def test_cli_usage_error_exit_code(tmp_path, capsys):
    config = str(write_cli_config(tmp_path))
    assert cli.main(["formulate", "--config", config, "--prompt", "q4"]) == 2
    err = capsys.readouterr().err
    assert "example-mode" in err


@pytest.mark.parametrize("flags, message", [
    (["--runs", "0"], "runs_per_topic must be >= 1"),
    (["--runs", "-1"], "runs_per_topic must be >= 1"),
    (["--parallelism", "0"], "parallelism must be >= 1"),
], ids=["runs-0", "runs-negative", "parallelism-0"])
def test_cli_overrides_are_checked_like_the_config(tmp_path, capsys, flags, message):
    config = str(write_cli_config(tmp_path))
    assert cli.main(["formulate", "--config", config, "--prompt", "q1", *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert read_records(tmp_path / "runlog.jsonl") == []


def test_cli_overrides_replace_the_config_values(tmp_path):
    config = str(write_cli_config(tmp_path))
    assert cli.main(["formulate", "--config", config, "--prompt", "q4", "--example-mode",
                     "hqe", "--runs", "2", "--parallelism", "2"]) == 0
    records = read_records(tmp_path / "runlog.jsonl")
    assert sorted(r.run_index for r in records) == [0, 0, 0, 1, 1, 1]


def test_config_with_unknown_key_is_a_usage_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "topics": "t", "qrels": "q", "runlog": "r",
        "cache_dir": "c", "report_dir": "d", "no_such_option": 1,
    }))
    with pytest.raises(UsageError, match="no_such_option"):
        AppConfig.from_file(path)


def test_missing_input_paths_are_usage_errors(tmp_path):
    cfg = make_config(tmp_path)
    cfg.topics = str(tmp_path / "nope.jsonl")
    with pytest.raises(UsageError, match="nope.jsonl"):
        cmd_ingest(cfg)
