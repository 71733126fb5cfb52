import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from http.server import BaseHTTPRequestHandler
from pathlib import Path
from urllib.parse import parse_qs, urlparse

import pytest

from conftest import stub_server
from srquery import entrez
from srquery.entrez import (
    ApiError,
    EntrezConfig,
    HttpError,
    RateLimiter,
    entrez_search,
    load_cached_result,
    query_digest,
    store_result,
)
from srquery.query_ast import parse, serialize
from srquery.ratelimit import request_json


class _EsearchStub(BaseHTTPRequestHandler):
    # Configured per test: total result count, optional error payload, a
    # status served on every request, a status served once, the
    # Retry-After header sent with an error status, and a 200 body served
    # verbatim in place of the search result.
    count = 0
    error = None
    status = 200
    fail_once = None
    retry_after = None
    raw_body = None
    requests_seen = []

    def do_GET(self):
        _EsearchStub.requests_seen.append(self.path)
        status, _EsearchStub.fail_once = self.fail_once or self.status, None
        if status != 200:
            self.send_response(status)
            if self.retry_after is not None:
                self.send_header("Retry-After", self.retry_after)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        params = parse_qs(urlparse(self.path).query)
        retstart = int(params.get("retstart", ["0"])[0])
        retmax = int(params.get("retmax", ["20"])[0])
        if self.error is not None:
            result = {"ERROR": self.error}
        else:
            ids = [str(i) for i in range(retstart, min(retstart + retmax, self.count))]
            result = {
                "count": str(self.count),
                "idlist": ids,
                "querytranslation": params["term"][0],
            }
        payload = self.raw_body or json.dumps({"esearchresult": result}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def esearch_stub():
    with stub_server(_EsearchStub) as url:
        _EsearchStub.count = 0
        _EsearchStub.error = None
        _EsearchStub.status = 200
        _EsearchStub.fail_once = None
        _EsearchStub.retry_after = None
        _EsearchStub.raw_body = None
        _EsearchStub.requests_seen = []
        yield url
        _EsearchStub.raw_body = None  # some callers configure the stub by hand


QUERY = parse('("heart attack"[tiab] OR infarct*[Title]) AND trial[pt]')


def cfg_for(stub, retmax=10_000, rate=3.0):
    return EntrezConfig(base_url=stub, retmax=retmax, rate_limit=rate)


# ---------------------------------------------------------------------------
# pagination and encoding
# ---------------------------------------------------------------------------

def test_pagination_25000_results_in_3_requests(esearch_stub, monkeypatch):
    monkeypatch.delenv("NCBI_API_KEY", raising=False)
    _EsearchStub.count = 25_000
    limiter = RateLimiter(10_000)  # effectively unlimited for the test
    pmids = entrez_search(QUERY, cfg_for(esearch_stub), limiter=limiter)
    assert len(_EsearchStub.requests_seen) == 3
    assert len(pmids) == 25_000
    starts = sorted(
        int(parse_qs(urlparse(p).query)["retstart"][0]) for p in _EsearchStub.requests_seen
    )
    assert starts == [0, 10_000, 20_000]


def test_zero_results_single_request(esearch_stub):
    _EsearchStub.count = 0
    pmids = entrez_search(QUERY, cfg_for(esearch_stub), limiter=RateLimiter(10_000))
    assert pmids == set()
    assert len(_EsearchStub.requests_seen) == 1


def test_term_is_percent_encoded_serialization(esearch_stub):
    _EsearchStub.count = 1
    entrez_search(QUERY, cfg_for(esearch_stub), limiter=RateLimiter(10_000))
    raw_path = _EsearchStub.requests_seen[0]
    assert '"' not in raw_path and " " not in raw_path  # nothing left unencoded
    params = parse_qs(urlparse(raw_path).query)
    assert params["term"][0] == serialize(QUERY)
    assert params["db"][0] == "pubmed"
    assert params["retmode"][0] == "json"


# ---------------------------------------------------------------------------
# caching
# ---------------------------------------------------------------------------

def test_cache_round_trip(tmp_path):
    digest = query_digest("some term")
    store_result(tmp_path, digest, ["3", "1", "2"])
    assert load_cached_result(tmp_path, digest) == ["1", "2", "3"]
    entry = json.loads((tmp_path / f"{digest}.json").read_text())
    assert entry["query_digest"] == digest
    assert "fetched_at" in entry


@pytest.mark.parametrize("content", [
    b'{"query_digest": "x", "pmids": ["1", "2"',  # truncated JSON
    b"{}",
    b"[]",
    b'{"pmids": 5}',
    b'{"pmids": "123"}',
    b'{"pmids": [1, 2]}',
    b'{"pmids": null}',
    b'{"pmids": ["1"]} trailing',
    b'{"pmids": ["\xff\xfe"]}',  # not UTF-8
], ids=["truncated", "empty-object", "array", "number", "string", "ints", "null",
        "trailing", "not-utf8"])
def test_unreadable_cache_entry_is_discarded(tmp_path, caplog, content):
    digest = query_digest("some term")
    path = tmp_path / f"{digest}.json"
    path.write_bytes(content)
    assert load_cached_result(tmp_path, digest) is None
    assert not path.exists()
    assert "discarding unreadable cache entry" in caplog.text


def test_an_entry_gone_after_an_existence_check_is_a_miss(tmp_path, monkeypatch):
    # Another reader may discard an entry between a check that it exists
    # and the read; the lookup reports a miss rather than raising.
    monkeypatch.setattr(Path, "exists", lambda self: True)
    assert load_cached_result(tmp_path, query_digest("some term")) is None


def test_concurrent_stores_of_one_digest(tmp_path):
    digest = query_digest("thyroid[tiab]")
    writers = 8
    barrier = threading.Barrier(writers)

    def store(i):
        barrier.wait(timeout=10)
        for _ in range(25):
            store_result(tmp_path, digest, [str(i)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(writers) as pool:
            futures = [pool.submit(store, i) for i in range(writers)]
            for f in futures:
                f.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert load_cached_result(tmp_path, digest) in [[str(i)] for i in range(writers)]
    assert list(tmp_path.glob("*.tmp")) == []


# ---------------------------------------------------------------------------
# errors and config invariants
# ---------------------------------------------------------------------------

def test_api_error_surfaces(esearch_stub):
    _EsearchStub.count = 1
    _EsearchStub.error = "Invalid field tag"
    with pytest.raises(ApiError):
        entrez_search(QUERY, cfg_for(esearch_stub), limiter=RateLimiter(10_000))


def test_http_error_surfaces(esearch_stub, monkeypatch):
    _EsearchStub.status = 500
    slept = []
    monkeypatch.setattr(entrez, "request_json", partial(request_json, sleep=slept.append))
    with pytest.raises(HttpError) as exc:
        entrez_search(QUERY, cfg_for(esearch_stub), limiter=RateLimiter(10_000))
    assert exc.value.status == 500
    assert slept == [0.5, 1.0]


@pytest.mark.parametrize("status", [503, 429])
def test_one_shot_gateway_status_is_retried(esearch_stub, status):
    _EsearchStub.count = 25
    _EsearchStub.fail_once = status
    pmids = entrez_search(QUERY, cfg_for(esearch_stub), limiter=RateLimiter(10_000))
    assert pmids == {str(i) for i in range(25)}
    assert len(_EsearchStub.requests_seen) == 2  # the one page, asked twice


@pytest.mark.parametrize("status, retry_after, sleeps", [
    (429, "0", [0]),
    (503, "2", [2]),
    (503, None, [30.0]),
    (429, "Wed, 21 Oct 2015 07:28:00 GMT", [30.0]),
    (429, "soon", [30.0]),
])
def test_retry_waits_for_retry_after_else_backoff(esearch_stub, status, retry_after, sleeps):
    _EsearchStub.count = 1
    _EsearchStub.fail_once = status
    _EsearchStub.retry_after = retry_after
    slept = []
    body = request_json(f"{esearch_stub}?term=x", timeout=5.0, backoff=30.0, sleep=slept.append)
    assert body["esearchresult"]["idlist"] == ["0"]
    assert slept == sleeps


def test_retry_after_beyond_timeout_fails_at_once(esearch_stub):
    _EsearchStub.fail_once = 429
    _EsearchStub.retry_after = "60"
    slept = []
    with pytest.raises(HttpError) as exc:
        request_json(f"{esearch_stub}?term=x", timeout=5.0, backoff=0.0, sleep=slept.append)
    assert exc.value.status == 429
    assert slept == []
    assert len(_EsearchStub.requests_seen) == 1


def test_a_retry_after_too_long_for_int_fails_at_once(esearch_stub):
    # int() refuses a string of more than 4,300 digits.
    _EsearchStub.fail_once = 503
    _EsearchStub.retry_after = "9" * 5000
    slept = []
    with pytest.raises(HttpError, match="exceeds the timeout") as exc:
        request_json(f"{esearch_stub}?term=x", timeout=5.0, backoff=0.0, sleep=slept.append)
    assert exc.value.status == 503
    assert slept == []
    assert len(_EsearchStub.requests_seen) == 1


def test_rate_limit_invariants(monkeypatch):
    monkeypatch.delenv("NCBI_API_KEY", raising=False)
    with pytest.raises(ValueError):
        EntrezConfig(rate_limit=5.0)  # needs a key for > 3 rps
    assert EntrezConfig(rate_limit=3.0).effective_rate() == 3.0
    assert EntrezConfig(api_key="k", rate_limit=10.0).effective_rate() == 10.0
    with pytest.raises(ValueError):
        EntrezConfig(api_key="k", rate_limit=11.0)
    with pytest.raises(ValueError):
        EntrezConfig(retmax=20_000)
    assert EntrezConfig().effective_rate() == 3.0


# ---------------------------------------------------------------------------
# rate limiter under concurrency
# ---------------------------------------------------------------------------

def test_rate_limiter_spacing_under_8_threads():
    # The granted slots are the limiter's contract: no two slots closer
    # than the interval, hence at most `rate` grants per sliding second.
    # (Callers only ever run at or after their slot.)
    rate = 200.0  # high enough to keep the test fast
    limiter = RateLimiter(rate)
    slots = []
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
    assert len(slots) == 40
    diffs = [b - a for a, b in zip(slots, slots[1:])]
    assert min(diffs) >= (1.0 / rate) - 1e-9
    for i, start in enumerate(slots):
        in_window = [s for s in slots[i:] if s < start + 1.0]
        assert len(in_window) <= rate


def test_rate_limiter_spaces_arrivals_of_late_sends():
    # A sequential caller whose sends lag their grants, as on a busy host,
    # still lands its requests one interval apart at the server: the next
    # grant waits one interval after the previous answer.
    rate = 50.0
    limiter = RateLimiter(rate)
    arrivals = []
    for delay in [0.015, 0.0, 0.018, 0.0, 0.01, 0.0, 0.019, 0.019, 0.0]:
        limiter.acquire()
        time.sleep(delay)
        arrivals.append(time.monotonic())
        limiter.done()
    gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
    assert min(gaps) >= (1.0 / rate) - 1e-9


class _RecordingLimiter(RateLimiter):
    def __init__(self):
        super().__init__(10_000)
        self.calls = []

    def acquire(self):
        self.calls.append("acquire")
        return super().acquire()

    def done(self):
        self.calls.append("done")
        super().done()


@pytest.mark.parametrize("fail_once, status, calls", [
    (None, 200, ["acquire", "done"]),
    (503, 200, ["acquire", "done"] * 2),
    (None, 404, ["acquire", "done"]),
], ids=["ok", "retried-503", "404"])
def test_request_json_reports_every_answer_to_the_limiter(esearch_stub, fail_once, status, calls):
    _EsearchStub.fail_once, _EsearchStub.status = fail_once, status
    limiter = _RecordingLimiter()
    try:
        request_json(f"{esearch_stub}?term=x", timeout=5.0, backoff=0.0, limiter=limiter)
    except HttpError:
        assert status != 200
    assert limiter.calls == calls


def test_request_json_reports_a_refused_connection_to_the_limiter():
    import socket

    with socket.socket() as sock:  # a local port that nothing listens on
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    limiter = _RecordingLimiter()
    with pytest.raises(HttpError) as exc:
        request_json(f"http://127.0.0.1:{port}/", timeout=1.0, limiter=limiter)
    assert exc.value.status == 0
    assert limiter.calls == ["acquire", "done"]
