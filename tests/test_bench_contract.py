"""What the committed benchmark in ``perfbench/`` reads from outside
``src/``.  The benchmark reaches into the program by name: its tracer
rebinds module attributes, its checks read the result cache directly, and
its child process calls the ``cmd_*`` stages with keyword arguments.  A
rename that breaks one of these fails here instead of in a benchmark run."""

import inspect
import json
import sys
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import checks  # noqa: E402
import child  # noqa: E402
from tracing import Tracer  # noqa: E402

import srquery.collections as colls  # noqa: E402
import srquery.entrez as ez  # noqa: E402
import srquery.gateway as gw  # noqa: E402
import srquery.pipeline as pl  # noqa: E402
import srquery.prompts as pr  # noqa: E402
import srquery.ratelimit as ratelimit  # noqa: E402
import srquery.retrieval as rt  # noqa: E402
import srquery.runlog as rl  # noqa: E402
from test_entrez import _EsearchStub, esearch_stub  # noqa: E402, F401 (a fixture)

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "collection"
GUIDED_ANSWERS = json.loads(
    (Path(__file__).resolve().parent / "fixtures" / "guided_answers.json").read_text()
)


def test_tracer_finds_every_entry_point():
    tracer = Tracer()
    tracer.install((pl, gw, ez, colls, rt, rl, pr, ratelimit))
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert not hasattr(pl.build_index, "__wrapped__")


def test_qrels_lookups_scan_the_judgments_once():
    # The tracer swaps in its counting judgments after load_qrels returns;
    # lookups on one loaded Qrels then scan them once, whatever their number.
    plain = colls.load_qrels(FIXTURES / "qrels.txt")
    topics = sorted({tid for tid, _ in plain.judgments} | {"unknown"})
    tracer = Tracer()
    tracer.install((pl, gw, ez, colls, rt, rl, pr, ratelimit))
    try:
        qrels = colls.load_qrels(FIXTURES / "qrels.txt")
        for topic_id in topics * 2:
            qrels.relevant_for(topic_id)
            qrels.relevant_for(topic_id, 2)
            qrels.judged_for(topic_id)
    finally:
        tracer.uninstall()
    assert len(topics) > 2
    assert tracer.counts["collections.judgments_scanned"] == len(plain.judgments)


def test_cached_result_file_is_what_the_checks_read(tmp_path):
    ez.store_result(tmp_path, "abc123", ["p3", "p1", "p2"])
    entry = json.loads((tmp_path / "abc123.json").read_text(encoding="utf-8"))
    assert entry["pmids"] == ["p1", "p2", "p3"]
    assert checks.cached_pmids(tmp_path, "abc123") == {"p1", "p2", "p3"}


def test_stage_calls_of_the_child_bind():
    signature = inspect.signature(pl.cmd_refine)
    signature.bind(None, "q7", "q4-runlog", example_mode="re", backend=None)
    for stages in child.STAGES.values():
        for stage, args in stages:
            kwargs = {"backend": None} if stage in child.GENERATION_STAGES else {}
            if stage == "refine" and len(args) == 3:
                args, kwargs["example_mode"] = args[:2], args[2]
            inspect.signature(getattr(pl, f"cmd_{stage}")).bind(None, *args, **kwargs)


def test_tracer_sees_every_generation_call_path(tmp_path):
    # The tracer counts generations through the names it rebinds in
    # srquery.pipeline; a stage that reached them any other way (say, from
    # a table filled at import time) would read as zero calls.
    def config(topics_file):
        return pl.AppConfig(
            topics=str(FIXTURES / topics_file), qrels=str(FIXTURES / "qrels.txt"),
            corpus=str(FIXTURES / "corpus.jsonl"), mesh=str(FIXTURES / "mesh.tsv"),
            runlog=str(tmp_path / topics_file / "runlog.jsonl"),
            cache_dir=str(tmp_path / "cache"), report_dir=str(tmp_path / "reports"),
            backend=gw.BackendConfig(kind="mock"),
        )

    query = "(traced[tiab] AND query[tiab])"
    guided = [GUIDED_ANSWERS[k] for k in ("step1", "step2", "step3", "step4")]
    tracer = Tracer()
    tracer.install((pl, gw, ez, colls, rt, rl, pr, ratelimit))
    try:
        records = pl.cmd_formulate(config("topics.jsonl"), "q4", "re",
                                   backend=gw.MockBackend(script=[query] * 3))
        records += pl.cmd_refine(config("topics.jsonl"), "q6", "original",
                                 backend=gw.MockBackend(script=[query] * 3))
        records += pl.cmd_guided(config("seed_topics.jsonl"),
                                 backend=gw.MockBackend(script=guided * 3))
    finally:
        tracer.uninstall()
    names = {span.name for span in tracer.spans}
    assert {"pipeline.formulate", "pipeline.refine", "pipeline.guided", "gateway.generate",
            "prompts.render", "prompts.select_related_example",
            "runlog.append_records"} <= names
    ok = sum(r.status == "ok" for r in records)
    assert ok > 0
    assert tracer.counts["gateway.generate.ok"] == ok


def test_tracer_sees_every_execution_call_path(tmp_path, esearch_stub):
    # Through the stage runner, execute and evaluate must reach the local
    # engine, the scorer and the result cache by the names the tracer
    # rebinds; on the entrez backend, one search and one cache.store per
    # cache miss.
    def config(execution_backend):
        return pl.AppConfig(
            topics=str(FIXTURES / "topics.jsonl"), qrels=str(FIXTURES / "qrels.txt"),
            corpus=str(FIXTURES / "corpus.jsonl"), mesh=str(FIXTURES / "mesh.tsv"),
            runlog=str(tmp_path / execution_backend / "runlog.jsonl"),
            cache_dir=str(tmp_path / execution_backend / "cache"),
            report_dir=str(tmp_path / "reports"), execution_backend=execution_backend,
            entrez=ez.EntrezConfig(base_url=esearch_stub, api_key="test-key", rate_limit=10.0),
        )

    _EsearchStub.count = 4
    runs = {}
    for backend in ("local", "entrez"):
        cfg = config(backend)
        pl.cmd_ingest(cfg)
        tracer = Tracer()
        tracer.install((pl, gw, ez, colls, rt, rl, pr, ratelimit))
        try:
            executed = pl.cmd_execute(cfg)
            evaluated = pl.cmd_evaluate(cfg) if backend == "local" else []
        finally:
            tracer.uninstall()
        assert [r.status for r in executed] == ["ok"] * 3
        runs[backend] = Counter(span.name for span in tracer.spans), evaluated

    calls, evaluated = runs["local"]
    assert [r.status for r in evaluated] == ["ok"] * 3
    assert calls["retrieval.execute_local"] == calls["metrics.evaluate_topic"] == 3
    assert calls["cache.store"] == 3
    assert calls["cache.load"] == 3 + 3  # one lookup per execution, one read per evaluation
    calls, _ = runs["entrez"]
    assert calls["entrez.search"] == calls["cache.store"] == calls["cache.load"] == 3
    assert calls["retrieval.execute_local"] == 0


class _OverloadedOnce(BaseHTTPRequestHandler):
    """A chat endpoint that answers 503 once, then a valid completion."""

    served = 0

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        _OverloadedOnce.served += 1
        status = 503 if _OverloadedOnce.served == 1 else 200
        body = json.dumps({"choices": [{"message": {"content": "ok"}}]}).encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_tracer_counts_chat_backoff(monkeypatch):
    # The tracer times the chat backoff through the ``time`` name it rebinds
    # in srquery.gateway; a retry that slept any other way would read as 0.
    monkeypatch.setenv("LLM_API_KEY", "test-key")
    _OverloadedOnce.served = 0
    server = ThreadingHTTPServer(("127.0.0.1", 0), _OverloadedOnce)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    tracer = Tracer()
    tracer.install((pl, gw, ez, colls, rt, rl, pr, ratelimit))
    try:
        cfg = gw.BackendConfig(kind="http", base_url=f"http://127.0.0.1:{server.server_port}",
                               backoff_base=0.01)
        conv = gw.Conversation()
        conv.append("user", "hello")
        assert gw.HttpBackend(cfg).complete(conv) == "ok"
    finally:
        tracer.uninstall()
        server.shutdown()
        server.server_close()
    assert _OverloadedOnce.served == 2
    assert tracer.metrics()["gateway.chat.backoff_s"] > 0


def test_two_argument_build_index_posts_every_token():
    # child.py builds the probe index as build_index(corpus, vocab), and
    # the probes time lookups of tokens, descriptors and publication types
    # no pipeline query named.
    corpus = colls.load_corpus(FIXTURES / "corpus.jsonl")
    vocab = colls.load_mesh(FIXTURES / "mesh.tsv")
    index = rt.build_index(corpus, vocab)

    def canonical(tag):
        descriptor = vocab.lookup(tag)
        return descriptor.name if descriptor is not None else tag
    for field, texts in (
        ("title", [doc.title for doc in corpus.docs.values()]),
        ("abstract", [doc.abstract for doc in corpus.docs.values()]),
        ("mesh", [canonical(tag) for doc in corpus.docs.values() for tag in doc.mesh_terms]),
    ):
        assert set(index.postings[field]) == {tok for text in texts for tok in rt.tokenize(text)}
    docs = corpus.docs.values()
    assert set(index.postings["descriptor"]) == {
        canonical(tag).lower() for doc in docs for tag in doc.mesh_terms}
    assert set(index.postings["pub_type"]) == {p.lower().strip() for doc in docs for p in doc.pub_types}
