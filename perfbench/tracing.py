"""Per-layer tracing from outside the program.

:class:`Tracer` rebinds public entry points where the pipeline looks them
up (module attributes such as ``srquery.pipeline.execute_local`` and class
attributes such as ``Qrels.relevant_for``) with wrappers that record one
span per call: name, start, end and parent.  Spans stay in memory until the
repetition ends.  An entry point that no longer exists is reported as
missing, and every metric built on it is ``None``, never zero.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from collections import Counter, defaultdict

_MISSING = object()


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name, start, parent):
        self.name, self.start, self.end, self.parent = name, start, None, parent


class CountingJudgments(dict):
    """Judgment dict that counts entries handed out by full iterations, so
    a lookup that scans every judgment shows as such."""

    counter: Counter

    def items(self):
        self.counter["collections.judgments_scanned"] += len(self)
        return super().items()

    def keys(self):
        self.counter["collections.judgments_scanned"] += len(self)
        return super().keys()

    def __iter__(self):
        self.counter["collections.judgments_scanned"] += len(self)
        return super().__iter__()


class _SleepCounter:
    """Stands in for the ``time`` module inside the gateway, timing sleeps
    (the transport's backoff) and passing everything else through."""

    def __init__(self, tracer):
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(time, name)

    def sleep(self, seconds):
        self._tracer.counts["gateway.chat.backoff_s"] += max(0.0, seconds)
        return time.sleep(seconds)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.stage_span = None  # parent for spans started in worker threads
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, owner, attr: str, name: str, on_result=None, on_error=None,
             stage: bool = False) -> None:
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        original = getattr(owner, attr, _MISSING)
        if original is _MISSING:
            self.missing.append(label)
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, 0.0, stack[-1] if stack else tracer.stage_span)
            tracer.spans.append(span)
            stack.append(span)
            if stage:
                tracer.stage_span = span
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as e:
                if on_error is not None:
                    on_error(e)
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if stage:
                    tracer.stage_span = None
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def rebind(self, owner, attr: str, value) -> None:
        original = getattr(owner, attr, _MISSING)
        if original is _MISSING:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, value)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- entry points ------------------------------------------------------

    def install(self, srquery_modules) -> None:
        pl, gw, ez, colls, rt, rl, pr, ratelimit = srquery_modules
        c = self.counts

        for stage in STAGES:
            self.wrap(pl, f"cmd_{stage}", f"pipeline.{stage}", stage=True)
        for module in (pl, gw, rl, pr):
            self.wrap(module, "parse", "query_ast.parse")
        for module in (gw, rt):
            self.wrap(module, "validate", "query_ast.validate")
        for module in (pl, ez):
            self.wrap(module, "serialize", "query_ast.serialize")
        for module in (pl, gw):
            self.wrap(module, "render", "prompts.render")
        self.wrap(pl, "select_related_example", "prompts.select_related_example")

        def generated(outcome, *_):
            c["gateway.generate.ok"] += 1
            c["gateway.generate.attempts"] += outcome.attempts

        def generation_failed(e):
            c["gateway.generate.attempts"] += getattr(e, "attempts", 1)
        for attr in ("generate_with_retry", "run_guided_session"):
            self.wrap(pl, attr, "gateway.generate", on_result=generated,
                      on_error=generation_failed)
        self.wrap(gw, "extract_query", "gateway.extract_query")
        self.rebind(gw, "time", _SleepCounter(self))

        self.wrap(colls, "load_corpus", "collections.load_corpus")
        original_load_qrels = getattr(colls, "load_qrels", None)
        if original_load_qrels is not None:
            def load_qrels(*args, **kwargs):
                qrels = original_load_qrels(*args, **kwargs)
                judgments = getattr(qrels, "judgments", None)
                if type(judgments) is dict:
                    counting = CountingJudgments(judgments)
                    counting.counter = c
                    object.__setattr__(qrels, "judgments", counting)
                else:
                    self.missing.append("Qrels.judgments (dict)")
                return qrels
            self.rebind(colls, "load_qrels", load_qrels)
            self.wrap(colls, "load_qrels", "collections.load_qrels")
        else:
            self.missing.append("srquery.collections.load_qrels")
        for attr in ("relevant_for", "judged_for"):
            self.wrap(colls.Qrels, attr, "collections.qrels_lookup")

        self.wrap(pl, "build_index", "retrieval.build_index")
        self.wrap(pl, "execute_local", "retrieval.execute_local")
        self.wrap(pl, "evaluate_topic", "metrics.evaluate_topic")
        for attr in ("significance_matrix", "variability_summary", "unjudged_fraction"):
            self.wrap(pl, attr, f"analysis.{attr}")

        def records_read(records, *_):
            c["runlog.records_read"] += len(records)

        def records_appended(n, *_):
            c["runlog.records_appended"] += n
        self.wrap(pl, "read_records", "runlog.read_records", on_result=records_read)
        self.wrap(pl, "append_records", "runlog.append_records", on_result=records_appended)
        self.wrap(pl, "check_integrity", "runlog.check_integrity")

        def cache_loaded(pmids, *_):
            c["cache.load.hits"] += pmids is not None
        self.wrap(ez, "load_cached_result", "cache.load", on_result=cache_loaded)
        self.wrap(ez, "store_result", "cache.store")
        self.wrap(ez, "entrez_search", "entrez.search")
        self.wrap(ratelimit.RateLimiter, "acquire", "ratelimit.acquire")

    # -- aggregation -------------------------------------------------------

    def metrics(self) -> dict:
        """Calls and inclusive seconds per entry point (a call nested in one
        of the same name counts once), self seconds per pipeline stage (its
        span minus the time its child spans cover), and the counts."""
        c = self.counts
        total: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            durations[span.name].append(span.end - span.start)
            if span.parent is not None:
                children[id(span.parent)].append(span)
            p = span.parent
            while p is not None and p.name != span.name:
                p = p.parent
            if p is None:
                total[span.name] += span.end - span.start
        out: dict[str, float | None] = {f"pipeline.{stage}.self_s": 0.0 for stage in STAGES}
        for span in self.spans:
            if span.name.startswith("pipeline."):
                covered = _union((max(ch.start, span.start), min(ch.end, span.end))
                                 for ch in children.get(id(span), ()))
                out[f"{span.name}.self_s"] += (span.end - span.start) - covered
        for name in TIMED:
            out[f"{name}.s"] = total.get(name, 0.0)
        for name in COUNTED:
            out[f"{name}.calls"] = len(durations.get(name, ()))
        for name in ("collections.judgments_scanned", "runlog.records_read",
                     "runlog.records_appended"):
            out[name] = c[name]
        out["entrez.search.calls"] = len(durations.get("entrez.search", ()))
        out["ratelimit.acquires"] = len(durations.get("ratelimit.acquire", ()))
        out["ratelimit.wait_s"] = total.get("ratelimit.acquire", 0.0)
        ok = c["gateway.generate.ok"]
        out["gateway.attempts_per_ok"] = c["gateway.generate.attempts"] / ok if ok else 0.0
        out["gateway.chat.backoff_s"] = c["gateway.chat.backoff_s"]
        calls = durations.get("retrieval.execute_local", [])
        out["retrieval.execute_local.p50_ms"] = _pct(calls, 50) * 1000
        out["retrieval.execute_local.p90_ms"] = _pct(calls, 90) * 1000
        loads = len(durations.get("cache.load", ()))
        out["cache.hit_rate"] = c["cache.load.hits"] / loads if loads else 0.0
        return out


STAGES = ("ingest", "formulate", "refine", "guided", "execute", "evaluate", "analyze", "report")
TIMED = ("query_ast.parse", "query_ast.validate", "query_ast.serialize", "prompts.render",
         "prompts.select_related_example", "gateway.generate", "gateway.extract_query",
         "collections.load_corpus", "collections.load_qrels", "collections.qrels_lookup",
         "retrieval.build_index", "retrieval.execute_local", "metrics.evaluate_topic",
         "analysis.significance_matrix", "analysis.variability_summary",
         "analysis.unjudged_fraction", "runlog.read_records", "runlog.append_records",
         "runlog.check_integrity", "cache.load", "cache.store")
COUNTED = ("query_ast.parse", "prompts.render", "collections.load_corpus",
           "collections.load_qrels", "collections.qrels_lookup", "retrieval.build_index",
           "retrieval.execute_local", "metrics.evaluate_topic", "runlog.read_records",
           "cache.load", "cache.store")


def _union(intervals) -> float:
    covered, end = 0.0, None
    for a, b in sorted(intervals):
        if b <= a:
            continue
        if end is None or a > end:
            covered += b - a
            end = b
        elif b > end:
            covered += b - end
            end = b
    return covered


def _pct(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# Which entry points each per-layer metric rests on, so a missing entry
# point turns its metrics into None rather than a misleading zero.
METRIC_SOURCES = {
    "query_ast.parse": ("srquery.pipeline.parse", "srquery.gateway.parse",
                        "srquery.runlog.parse", "srquery.prompts.parse"),
    "query_ast.validate": ("srquery.gateway.validate", "srquery.retrieval.validate"),
    "query_ast.serialize": ("srquery.pipeline.serialize", "srquery.entrez.serialize"),
    "prompts.render": ("srquery.pipeline.render", "srquery.gateway.render"),
    "prompts.select_related_example": ("srquery.pipeline.select_related_example",),
    "gateway.generate": ("srquery.pipeline.generate_with_retry",
                         "srquery.pipeline.run_guided_session"),
    "gateway.attempts_per_ok": ("srquery.pipeline.generate_with_retry",
                                "srquery.pipeline.run_guided_session"),
    "gateway.extract_query": ("srquery.gateway.extract_query",),
    "gateway.chat.backoff_s": ("srquery.gateway.time",),
    "collections.load_corpus": ("srquery.collections.load_corpus",),
    "collections.load_qrels": ("srquery.collections.load_qrels",),
    "collections.qrels_lookup": ("Qrels.relevant_for", "Qrels.judged_for"),
    "collections.judgments_scanned": ("srquery.collections.load_qrels", "Qrels.judgments (dict)"),
    "retrieval.build_index": ("srquery.pipeline.build_index",),
    "retrieval.execute_local": ("srquery.pipeline.execute_local",),
    "metrics.evaluate_topic": ("srquery.pipeline.evaluate_topic",),
    "analysis.significance_matrix": ("srquery.pipeline.significance_matrix",),
    "analysis.variability_summary": ("srquery.pipeline.variability_summary",),
    "analysis.unjudged_fraction": ("srquery.pipeline.unjudged_fraction",),
    "runlog.read_records": ("srquery.pipeline.read_records",),
    "runlog.records_read": ("srquery.pipeline.read_records",),
    "runlog.append_records": ("srquery.pipeline.append_records",),
    "runlog.records_appended": ("srquery.pipeline.append_records",),
    "runlog.check_integrity": ("srquery.pipeline.check_integrity",),
    "cache.load": ("srquery.entrez.load_cached_result",),
    "cache.hit_rate": ("srquery.entrez.load_cached_result",),
    "cache.store": ("srquery.entrez.store_result",),
    "entrez.search": ("srquery.entrez.entrez_search",),
    "ratelimit": ("RateLimiter.acquire",),
}


def blank_missing(metrics: dict, missing: list[str]) -> dict:
    """Set to None every metric whose entry point is missing."""
    gone = set(missing)
    out = dict(metrics)
    for prefix, sources in METRIC_SOURCES.items():
        if gone.intersection(sources):
            for name in out:
                if name == prefix or name.startswith(prefix + "."):
                    out[name] = None
    for stage in STAGES:
        if f"srquery.pipeline.cmd_{stage}" in gone:
            out[f"pipeline.{stage}.self_s"] = None
    return out
