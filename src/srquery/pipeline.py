"""Pipeline stages behind the CLI: ingest, formulate, refine, guided,
execute, evaluate, analyze, report.

Stages communicate only through the append-only run log and the on-disk
result cache, so each one can be re-run safely: work already recorded is
skipped, per-topic failures are recorded without aborting the batch, and
with the mock backend the whole pipeline is deterministic.

Every stage that writes records hands its cells to one runner,
``_run_cells``: it skips the cells already logged and records each other
one as ok, as skipped (no relevant judgments) or as an error from
``RECORDED_ERRORS``; any other exception is a programming error and
propagates.  Formulate and refine share one single-prompt body,
``_single_prompt``.  Only the execute stage writes the result cache.
Analyze and report read their scores from one table, ``_score_table``.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, field as dc_field
from functools import partial
from pathlib import Path
from typing import Callable, Optional

from . import collections as colls
from . import entrez as ez
from .analysis import (
    RunResult,
    RunSeries,
    TopicClass,
    classify_topic,
    mesh_validity_ratio,
    oracle_select,
    retrieved_ratio_stats,
    significance_matrix,
    unjudged_fraction,
    variability_summary,
)
from .gateway import (
    BackendConfig,
    GatewayError,
    EmptySeedStudyError,
    HttpError,
    generate_with_retry,
    make_backend,
    run_guided_session,
)
from .metrics import Metrics, NoRelevantDocsError, evaluate_topic, macro_average
from .prompts import (
    EmptyPoolError,
    ExampleReview,
    MissingBindingError,
    PromptBindings,
    dice_score,
    hqe_example,
    render,
    select_related_example,
)
from .query_ast import Query, QueryParseError, parse, serialize
from .retrieval import InvalidQueryError, UnknownDescriptorError, build_index, execute_local
from .runlog import RunRecord, append_records, check_integrity, read_records

__all__ = [
    "AppConfig",
    "UsageError",
    "MissingSeedQueryError",
    "NoSeedStudyError",
    "cmd_ingest",
    "cmd_formulate",
    "cmd_refine",
    "cmd_guided",
    "cmd_execute",
    "cmd_evaluate",
    "cmd_analyze",
    "cmd_report",
]

log = logging.getLogger(__name__)

FORMULATE_PROMPTS = ("q1", "q2", "q3", "q4", "q5")
REFINE_PROMPTS = ("q6", "q7")
EXAMPLE_PROMPTS = ("q4", "q5", "q7")
SEED_SOURCES = ("original", "conceptual", "objective", "q4-runlog")


class UsageError(ValueError):
    pass


class MissingSeedQueryError(UsageError):
    pass


class NoSeedStudyError(UsageError):
    pass


@dataclass
class AppConfig:
    topics: str
    qrels: str
    runlog: str
    cache_dir: str
    report_dir: str
    corpus: Optional[str] = None
    mesh: Optional[str] = None
    backend: BackendConfig = dc_field(default_factory=BackendConfig)
    execution_backend: str = "local"  # local | entrez
    entrez: Optional[ez.EntrezConfig] = None
    runs_per_topic: int = 1
    parallelism: int = 1
    seed_query_files: dict[str, str] = dc_field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.runs_per_topic < 1:
            raise UsageError("runs_per_topic must be >= 1")
        if self.parallelism < 1:
            raise UsageError("parallelism must be >= 1")
        if self.execution_backend not in ("local", "entrez"):
            raise UsageError(f"unknown execution backend {self.execution_backend!r}")
        # A local, mock, single-threaded run never loads the HTTP stack or
        # the thread pool (see _run_cells and ratelimit.request_json); a run
        # that will use them loads them here, in setup, rather than in its
        # first timed request or batch.
        if self.backend.kind == "http" or self.execution_backend == "entrez":
            import encodings.idna  # noqa: F401 (socket.create_connection's codec)
            import urllib.request  # noqa: F401
        if self.parallelism > 1:  # the package alone defers loading this name
            from concurrent.futures import ThreadPoolExecutor  # noqa: F401

    @classmethod
    def from_file(cls, path) -> "AppConfig":
        with open(path, "r", encoding="utf-8") as f:
            obj = json.load(f)
        try:
            entrez_cfg = obj.pop("entrez", None)
            return cls(backend=BackendConfig(**obj.pop("backend", {})),
                       entrez=ez.EntrezConfig(**entrez_cfg) if entrez_cfg else None, **obj)
        except TypeError as e:
            raise UsageError(f"bad configuration key in {path}: {e}") from e

    def ensure_dirs(self) -> None:
        """Verify input paths and create the output directories."""
        required = {"topics": self.topics, "qrels": self.qrels}
        optional = {
            "corpus": self.corpus,
            "mesh": self.mesh,
            "backend.fixtures_path": self.backend.fixtures_path,
            **{f"seed_query_files.{k}": v for k, v in self.seed_query_files.items()},
        }
        missing = [f"{name}: {path}" for name, path in required.items()
                   if not Path(path).exists()]
        missing += [f"{name}: {path}" for name, path in optional.items()
                    if path and not Path(path).exists()]
        if missing:
            raise UsageError("missing input files - " + "; ".join(missing))
        Path(self.cache_dir).mkdir(parents=True, exist_ok=True)
        Path(self.report_dir).mkdir(parents=True, exist_ok=True)
        Path(self.runlog).parent.mkdir(parents=True, exist_ok=True)

    def load_topics(self) -> list[colls.ReviewTopic]:
        return colls.load_topics(self.topics)

    def load_qrels(self) -> colls.Qrels:
        return colls.load_qrels(self.qrels)

    def load_vocab(self) -> Optional[colls.MeshVocab]:
        return colls.load_mesh(self.mesh) if self.mesh else None


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _method_label(prompt_id: str, example_mode: str, seed_source: str) -> str:
    if seed_source:
        return f"{prompt_id}-{seed_source}"
    if example_mode and example_mode != "none":
        return f"{prompt_id}-{example_mode}"
    return prompt_id


# The failures a cell records as its outcome.  Anything else raised by a
# cell is a programming error and propagates.
RECORDED_ERRORS = (
    GatewayError, HttpError, ez.EntrezError, QueryParseError, InvalidQueryError,
    UnknownDescriptorError, UsageError, EmptyPoolError, MissingBindingError,
    EmptySeedStudyError, OSError,
)


def _run_cells(cfg: AppConfig, groups: list[list[tuple[dict, Callable[[], dict]]]],
               logged: set[str]) -> list[RunRecord]:
    """The one stage runner.  Each cell is ``(base, make)``: a cell whose
    ``base["run_id"]`` is ``logged`` is skipped, any other is recorded as
    ``RunRecord(**base, **make())``, as skipped on ``NoRelevantDocsError``,
    or as an error on ``RECORDED_ERRORS``.  Groups run in parallel and the
    cells of a group in order; the records come back in group order."""
    def run_group(cells) -> list[RunRecord]:
        out = []
        for base, make in cells:
            if base["run_id"] in logged:
                continue
            try:
                out.append(RunRecord(**base, **make()))
            except (NoRelevantDocsError, *RECORDED_ERRORS) as e:
                log.warning("%s: %s", base["run_id"], e)
                status = "skipped" if isinstance(e, NoRelevantDocsError) else "error"
                out.append(RunRecord(**base, status=status, error=str(e)))
        return out

    if cfg.parallelism <= 1 or len(groups) <= 1:
        batches = [run_group(cells) for cells in groups]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=cfg.parallelism) as pool:
            batches = list(pool.map(run_group, groups))
    return [record for batch in batches for record in batch]


def _derived(parent: RunRecord, **fields) -> dict:
    """``fields`` with the parent's five cell fields and a link to it."""
    return dict(topic_id=parent.topic_id, prompt_id=parent.prompt_id,
                example_mode=parent.example_mode, seed_source=parent.seed_source,
                run_index=parent.run_index, parent_run_id=parent.run_id, **fields)


def _example_pool(topics: list[colls.ReviewTopic]) -> list[ExampleReview]:
    pool = []
    for topic in topics:
        if not topic.original_query:
            continue
        try:
            pool.append(
                ExampleReview(topic_id=topic.topic_id, title=topic.title,
                              query_text=topic.original_query)
            )
        except QueryParseError as e:
            log.warning("topic %s: original query does not parse, excluded from pool: %s",
                        topic.topic_id, e)
    return pool


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

def cmd_ingest(cfg: AppConfig) -> dict:
    """Load and validate every configured input, then seed the run log with
    one record per topic's original query (method "original") so later
    stages can execute and evaluate the expert baseline."""
    cfg.ensure_dirs()
    topics = cfg.load_topics()
    qrels = cfg.load_qrels()
    # The corpus is counted and validated as it streams past, never held.
    corpus_docs = sum(1 for _ in colls.iter_corpus(cfg.corpus)) if cfg.corpus else 0
    vocab = cfg.load_vocab()

    def original(topic: colls.ReviewTopic) -> dict:
        canonical = serialize(parse(topic.original_query))
        return dict(backend="none", query=canonical, query_digest=ez.query_digest(canonical))
    cells = [(dict(run_id=f"gen:original:none:-:{t.topic_id}:r0", stage="generate",
                   topic_id=t.topic_id, prompt_id="original"), partial(original, t))
             for t in topics if t.original_query]
    records = _run_cells(cfg, [cells], {r.run_id for r in read_records(cfg.runlog)})
    append_records(cfg.runlog, records)

    summary = {
        "topics": len(topics),
        "topics_with_original_query": sum(1 for t in topics if t.original_query),
        "topics_with_seed_studies": sum(1 for t in topics if t.seed_studies),
        "judgments": len(qrels.judgments),
        "corpus_docs": corpus_docs,
        "mesh_descriptors": len(vocab) if vocab else 0,
        "original_records_added": len(records),
    }
    log.info("ingest: %s", summary)
    return summary


# ---------------------------------------------------------------------------
# formulate / refine / guided
# ---------------------------------------------------------------------------

def _generate(cfg: AppConfig, topics: list[colls.ReviewTopic], prompt_id: str,
              example_mode: str, seed_source: str, jobs, logged) -> list[RunRecord]:
    """Run the generation grid: ``jobs(topic)`` lists the topic's
    ``(run_id, run_index, make)`` cells, ``make`` returning the
    ``GenerationOutcome``.  Each topic is one group of the runner, and the
    records are logged in run_id order, whatever the parallelism."""
    backend_label = cfg.backend.describe()

    def generated(make) -> dict:
        outcome = make()
        canonical = serialize(outcome.query)
        return dict(attempt=outcome.attempts,
                    raw_response_digest=ez.query_digest(outcome.raw_responses[-1]),
                    query=canonical, query_digest=ez.query_digest(canonical))
    groups = [
        [(dict(run_id=run_id, stage="generate", topic_id=topic.topic_id, prompt_id=prompt_id,
               example_mode=example_mode, seed_source=seed_source, run_index=run_index,
               backend=backend_label), partial(generated, make))
         for run_id, run_index, make in jobs(topic)]
        for topic in topics
    ]
    records = _run_cells(cfg, groups, {r.run_id for r in logged})
    records.sort(key=lambda r: r.run_id)
    append_records(cfg.runlog, records)
    return records


def _refinement_pool(
    topics: list[colls.ReviewTopic], seeds: dict[str, str]
) -> list[ExampleReview]:
    pool = []
    for topic in topics:
        initial = seeds.get(topic.topic_id)
        if not initial or not topic.original_query or initial == topic.original_query:
            continue
        try:
            pool.append(ExampleReview(
                topic_id=topic.topic_id, title=topic.title,
                query_text=initial, refined_query_text=topic.original_query,
            ))
        except QueryParseError as e:
            log.warning("topic %s: seed query does not parse, excluded from pool: %s",
                        topic.topic_id, e)
    return pool


def _seed_queries(cfg: AppConfig, seed_source: str, topics: list[colls.ReviewTopic],
                  logged: list[RunRecord]) -> dict[str, str]:
    """Map topic_id -> initial query text for the chosen seed source.  A
    blank text is no seed, whatever its source."""
    if seed_source == "original":
        queries = {t.topic_id: t.original_query for t in topics}
    elif seed_source == "q4-runlog":
        queries = {r.topic_id: r.query for r in logged
                   if r.stage == "generate" and r.prompt_id == "q4" and r.status == "ok"}
    else:
        path = cfg.seed_query_files.get(seed_source)
        if not path:
            raise MissingSeedQueryError(
                f"seed source {seed_source!r} needs a query file under seed_query_files"
            )
        queries = colls.load_seed_queries(path)
    return {tid: text for tid, text in queries.items() if text and text.strip()}


def _single_prompt(cfg: AppConfig, prompt_id: str, example_mode: str, seed_source: str,
                   backend) -> list[RunRecord]:
    """The body formulate and refine share after their own checks: one prompt
    per cell, bound to the topic's title, its seed query (refine only) and its
    example; ``render`` fills only the placeholders a template names."""
    if prompt_id in EXAMPLE_PROMPTS and example_mode == "none":
        raise UsageError(f"{prompt_id} requires --example-mode hqe or re")
    if prompt_id not in EXAMPLE_PROMPTS and example_mode != "none":
        raise UsageError(f"{prompt_id} does not take an example")

    cfg.ensure_dirs()
    topics = cfg.load_topics()
    logged = read_records(cfg.runlog)
    seeds = _seed_queries(cfg, seed_source, topics, logged) if seed_source else {}
    # The bundled hqe example is loaded once per stage call, not per cell.
    if example_mode == "none":
        example_for = lambda topic: None
    elif example_mode == "hqe":
        example = hqe_example()
        example_for = lambda topic: example
    elif example_mode == "re":
        # refine's related examples pair a seed query with its expert original.
        pool = _refinement_pool(topics, seeds) if seed_source else _example_pool(topics)
        example_for = lambda topic: select_related_example(topic, pool, dice_score)
    else:
        raise UsageError(f"unknown example mode {example_mode!r}")
    backend = backend if backend is not None else make_backend(cfg.backend)

    def jobs(topic: colls.ReviewTopic):
        def make():
            if seed_source and topic.topic_id not in seeds:
                raise MissingSeedQueryError(
                    f"no {seed_source} seed query for topic {topic.topic_id}")
            example = example_for(topic)
            prompt = render(prompt_id, PromptBindings(
                review_title=topic.title,
                initial_query=seeds.get(topic.topic_id),
                example_review_title=example.title if example else None,
                example_review_query=example.query_text if example else None,
                example_review_initial_query=example.query_text if example else None,
                example_review_refined_query=example.refined_query_text if example else None,
            ))
            return generate_with_retry(prompt, cfg.backend, backend=backend)
        return [(f"gen:{prompt_id}:{example_mode}:{seed_source or '-'}:{topic.topic_id}:r{i}",
                 i, make) for i in range(cfg.runs_per_topic)]

    return _generate(cfg, topics, prompt_id, example_mode, seed_source, jobs, logged)


def cmd_formulate(cfg: AppConfig, prompt_id: str, example_mode: str = "none",
                  backend=None) -> list[RunRecord]:
    """Generate one query per topic per run index with a single formulation
    prompt (q1-q5).  q4/q5 require an example mode; failures are recorded
    per topic and never abort the batch."""
    if prompt_id not in FORMULATE_PROMPTS:
        raise UsageError(f"formulate accepts prompts {FORMULATE_PROMPTS}, got {prompt_id!r}")
    return _single_prompt(cfg, prompt_id, example_mode, "", backend)


def cmd_refine(cfg: AppConfig, prompt_id: str, seed_source: str,
               example_mode: str = "none", backend=None) -> list[RunRecord]:
    """Refine existing queries with q6/q7; seeds come from the topics'
    original queries, user-supplied files, or prior q4 run-log records."""
    if prompt_id not in REFINE_PROMPTS:
        raise UsageError(f"refine accepts prompts {REFINE_PROMPTS}, got {prompt_id!r}")
    if seed_source not in SEED_SOURCES:
        raise UsageError(f"unknown seed source {seed_source!r}")
    return _single_prompt(cfg, prompt_id, example_mode, seed_source, backend)


def cmd_guided(cfg: AppConfig, backend=None) -> list[RunRecord]:
    """Run the four-step guided session once per (topic, seed study, run
    index).  Topics without seed studies get an error record."""
    cfg.ensure_dirs()
    topics = cfg.load_topics()
    backend = backend if backend is not None else make_backend(cfg.backend)

    def jobs(topic: colls.ReviewTopic):
        if not topic.seed_studies:
            def no_seed():
                raise NoSeedStudyError(f"topic {topic.topic_id} has no seed study")
            return [(f"gen:guided:none:-:{topic.topic_id}:r0", 0, no_seed)]
        # One flat run_index per (seed, repeat) so downstream analysis sees
        # each session as a distinct run.
        return [
            (f"gen:guided:none:s{seed.pmid}:{topic.topic_id}:r{i}",
             ordinal * cfg.runs_per_topic + i,
             lambda seed=seed: run_guided_session(topic, seed, cfg.backend, backend=backend))
            for ordinal, seed in enumerate(topic.seed_studies)
            for i in range(cfg.runs_per_topic)
        ]

    return _generate(cfg, topics, "guided", "none", "", jobs, read_records(cfg.runlog))


# ---------------------------------------------------------------------------
# execute / evaluate
# ---------------------------------------------------------------------------

def cmd_execute(cfg: AppConfig, backend=None) -> list[RunRecord]:
    """Fill retrieved pmid sets for every generated query, through the local
    index or Entrez.  This stage owns the digest-keyed result cache: it
    looks each query up there first and stores every result it computes."""
    cfg.ensure_dirs()
    logged = read_records(cfg.runlog)
    existing = {r.run_id for r in logged}
    prefix = f"exec:{cfg.execution_backend}:"
    pending = [r for r in logged
               if r.stage == "generate" and r.status == "ok" and r.query
               and prefix + r.run_id not in existing]

    def parsed(text: str):
        try:
            return parse(text)
        except QueryParseError as e:  # recorded against its cell below
            return e
    # Each pending query is parsed once, before the build, because the
    # index holds only the postings the queries that parsed can read.
    queries = [parsed(gen.query) for gen in pending]

    index = None
    if cfg.execution_backend == "local":
        if not cfg.corpus:
            raise UsageError("local execution requires a corpus path")
        ok = [q for q in queries if not isinstance(q, QueryParseError)]
        if ok:
            index = build_index(colls.iter_corpus(cfg.corpus), cfg.load_vocab(), queries=ok)
    else:
        entrez_cfg = cfg.entrez or ez.EntrezConfig()
        limiter = ez.RateLimiter(entrez_cfg.effective_rate())

    def execute(gen: RunRecord, query) -> dict:
        if isinstance(query, QueryParseError):
            raise query
        digest = gen.query_digest or ez.query_digest(gen.query)
        pmids = ez.load_cached_result(cfg.cache_dir, digest)
        if pmids is None:
            pmids = (execute_local(index, query) if cfg.execution_backend == "local"
                     else ez.entrez_search(query, entrez_cfg, limiter=limiter))
            ez.store_result(cfg.cache_dir, digest, pmids)
        return dict(query=gen.query, query_digest=digest, retrieved_count=len(set(pmids)))

    # One group: executions run in log order, so Entrez sees one request at a time.
    records = _run_cells(cfg, [[
        (_derived(gen, run_id=prefix + gen.run_id, stage="execute", backend=cfg.execution_backend),
         partial(execute, gen, query))
        for gen, query in zip(pending, queries)
    ]], existing)
    append_records(cfg.runlog, records)
    return records


def cmd_evaluate(cfg: AppConfig) -> list[RunRecord]:
    """Score executed runs against the qrels (binarized at grade >= 1).
    Topics with no relevant judgments are skipped with a warning."""
    cfg.ensure_dirs()
    qrels = cfg.load_qrels()
    logged = read_records(cfg.runlog)

    def evaluate(ex: RunRecord) -> dict:
        pmids = ez.load_cached_result(cfg.cache_dir, ex.query_digest)
        if pmids is None:
            raise FileNotFoundError("no cached result for query digest")
        # A shallow copy: every Metrics field is a scalar, which asdict would deep-copy.
        return dict(metrics=dict(vars(evaluate_topic(set(pmids), qrels, ex.topic_id))))

    records = _run_cells(cfg, [[
        (_derived(ex, run_id=f"eval:{ex.run_id}", stage="evaluate",
                  query_digest=ex.query_digest, retrieved_count=ex.retrieved_count),
         partial(evaluate, ex))
        for ex in logged if ex.stage == "execute" and ex.status == "ok"
    ]], {r.run_id for r in logged})
    append_records(cfg.runlog, records)
    return records


# ---------------------------------------------------------------------------
# analyze / report
# ---------------------------------------------------------------------------

# The metrics analyze tests, and report's score columns in the paper's order.
_SCORES = ("precision", "f1", "f3", "recall")


def _score_cells(m: Metrics) -> list[str]:
    return [f"{getattr(m, score):.6f}" for score in _SCORES]


def _write_csv(path: Path, rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerows(rows)


def _score_table(records: list[RunRecord], qrels: colls.Qrels) -> tuple[dict, dict]:
    """Return ``(runs, scores)``, the one source of every topic score.
    ``runs``: method -> evaluated topic_id -> run_index -> (the latest ok
    evaluation record, its ``Metrics``), with nothing empty.  ``scores``:
    method -> topic_id -> the topic's one ``Metrics``, the macro-average of
    its runs, or zero for a model failure (attempted, never evaluated, with
    relevant judgments).  A topic with no relevant judgments is left out."""
    runs: dict[str, dict[str, dict[int, tuple[RunRecord, Metrics]]]] = {}
    attempted: dict[str, set[str]] = {}
    for record in records:
        method = _method_label(record.prompt_id, record.example_mode, record.seed_source)
        if record.stage == "generate":
            attempted.setdefault(method, set()).add(record.topic_id)
        elif record.stage == "evaluate" and record.status == "ok":
            m = record.metrics or {}
            metrics = Metrics(
                precision=m.get("precision", 0.0), recall=m.get("recall", 0.0),
                f1=m.get("f1", 0.0), f3=m.get("f3", 0.0),
                retrieved_count=m.get("retrieved_count", 0),
                relevant_count=m.get("relevant_count", 0), hit_count=m.get("hit_count", 0),
            )
            runs.setdefault(method, {}).setdefault(record.topic_id, {})[record.run_index] = (
                record, metrics)
    scores = {method: {topic_id: macro_average(m for _, m in topic_runs.values())
                       for topic_id, topic_runs in topics.items()}
              for method, topics in runs.items()}
    zero = Metrics(0.0, 0.0, 0.0, 0.0)
    for method, topic_ids in attempted.items():
        for topic_id in sorted(topic_ids - set(runs.get(method, ()))):
            if qrels.relevant_for(topic_id):
                scores.setdefault(method, {})[topic_id] = zero
    return runs, scores


def cmd_analyze(cfg: AppConfig) -> dict:
    """Produce analysis_report.json (oracle selection, success/failure
    classes, retrieved-count ratios, MeSH validity, unjudged fractions,
    multi-run variability) and one significance matrix CSV per metric."""
    cfg.ensure_dirs()
    all_records = read_records(cfg.runlog)
    # The integrity sweep parses every distinct query text in the log, so
    # the oracle queries below reuse its trees instead of parsing again.
    trees: dict[str, Query] = {}
    problems = check_integrity(all_records, trees)
    if problems:
        log.warning("run log integrity problems: %s", problems)
    qrels = cfg.load_qrels()
    vocab = cfg.load_vocab()
    # The per-method analysis reads the evaluated runs; the t-tests pair
    # the per-topic scores that report.csv averages.
    by_method, scores = _score_table(all_records, qrels)

    # An evaluation's parent is its execute record, which carries the query.
    executed = {r.run_id: r.query for r in all_records if r.stage == "execute"}

    report: dict = {"methods": {}, "significance": {}}
    original = by_method.get("original", {})

    for method, topics in sorted(by_method.items()):
        if method == "original":
            continue
        method_report: dict = {}

        # Oracle run per topic, then the success/failure classification
        # against the original query's effectiveness and the MeSH validity
        # of the oracle query.
        classes: dict[str, str] = {}
        ratio_pairs: list[tuple[int, int]] = []
        ratio_labels: list[TopicClass] = []
        unjudged: dict[str, float] = {}
        mesh_counts, invalid = [], []
        series_list = [
            RunSeries(topic_id, tuple(RunResult(idx, m) for idx, (_, m) in sorted(runs.items())))
            for topic_id, runs in sorted(topics.items())
        ]
        for series in series_list:
            topic_id = series.topic_id
            oracle = oracle_select(series)
            record = topics[topic_id][oracle.run_index][0]
            pmids = ez.load_cached_result(cfg.cache_dir, record.query_digest)
            if pmids:
                unjudged[topic_id] = unjudged_fraction(set(pmids), qrels, topic_id)
            if 0 in original.get(topic_id, {}):
                original_metrics = original[topic_id][0][1]
                cls = classify_topic(oracle.metrics, original_metrics)
                classes[topic_id] = cls.value
                if original_metrics.retrieved_count > 0:
                    ratio_pairs.append(
                        (oracle.metrics.retrieved_count, original_metrics.retrieved_count)
                    )
                    ratio_labels.append(cls)
            text = executed.get(record.parent_run_id, "")
            if vocab is not None and text:
                # A text that does not parse has no tree; parsing it raises.
                validity = mesh_validity_ratio(trees[text] if text in trees else parse(text), vocab)
                mesh_counts.append(validity.mesh_count)
                invalid.append(validity.invalid_fraction * validity.mesh_count)
        method_report["topic_classes"] = classes
        if ratio_pairs:
            medians = retrieved_ratio_stats(ratio_pairs, ratio_labels)
            method_report["retrieved_ratio_median"] = {
                cls.value: round(v, 4) for cls, v in medians.items()
            }
        method_report["unjudged_fraction"] = {t: round(v, 4) for t, v in sorted(unjudged.items())}
        if vocab is not None:
            total = sum(mesh_counts)
            method_report["mesh_terms_per_query"] = (
                round(total / len(mesh_counts), 4) if mesh_counts else 0.0
            )
            method_report["invalid_mesh_fraction"] = round(sum(invalid) / total, 4) if total else 0.0

        # Across-run variability (needs >= 2 aligned runs per topic).
        run_sets = {frozenset(runs) for runs in topics.values()}
        if len(run_sets) == 1 and len(next(iter(run_sets))) >= 2:
            variability = {}
            for metric in _SCORES:
                # A shallow copy: asdict would deep-copy every quartile.
                entry = dict(vars(variability_summary(series_list, metric)))
                del entry["metric"]
                variability[metric] = entry
            method_report["variability"] = variability
        else:
            method_report["variability"] = "unavailable (needs >= 2 aligned runs per topic)"

        report["methods"][method] = method_report

    # Significance matrices over the topics every method scored, one CSV
    # per metric; a model failure pairs as zero, as report.csv counts it.
    common_topics = sorted(set.intersection(*map(set, scores.values()))) if scores else []
    for metric in _SCORES if len(scores) >= 2 and len(common_topics) >= 2 else ():
        methods, cells, m = significance_matrix({
            method: [getattr(topics[t], metric) for t in common_topics]
            for method, topics in scores.items()
        })
        rows = [["method"] + methods]
        for row_method in methods:
            row = [row_method]
            for col in methods:
                if row_method == col:
                    row.append("")
                else:
                    cell = cells[(row_method, col)]
                    row.append("degenerate" if cell is None else f"{cell:.6f}")
            rows.append(row)
        path = Path(cfg.report_dir) / f"significance_{metric}.csv"
        _write_csv(path, rows)
        report["significance"][metric] = {
            "csv": str(path),
            "bonferroni_m": m,
            "paired_topics": len(common_topics),
        }

    out_path = Path(cfg.report_dir) / "analysis_report.json"
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    return report


def cmd_report(cfg: AppConfig) -> Path:
    """Write per_topic.csv, one row per evaluated run, and report.csv, each
    method's macro-average (Precision, F1, F3, Recall column order) over its
    per-topic scores from ``_score_table``, which its t-tests pair."""
    cfg.ensure_dirs()
    runs, scores = _score_table(read_records(cfg.runlog), cfg.load_qrels())
    per_topic = [["topic_id", "prompt_id", "run_index", *_SCORES]]
    for method, topics in sorted(runs.items()):
        for topic_id, topic_runs in sorted(topics.items()):
            for run_index, (_, m) in sorted(topic_runs.items()):
                per_topic.append([topic_id, method, run_index, *_score_cells(m)])
    averages = [["method", "topics", *_SCORES]] + [
        [method, len(topics), *_score_cells(macro_average(topics.values()))]
        for method, topics in sorted(scores.items())]
    _write_csv(Path(cfg.report_dir) / "per_topic.csv", per_topic)
    report_path = Path(cfg.report_dir) / "report.csv"
    _write_csv(report_path, averages)
    return report_path
