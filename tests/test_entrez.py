import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

import pytest

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


class _EsearchStub(BaseHTTPRequestHandler):
    # Configured per test: total result count and optional error payload.
    count = 0
    error = None
    status = 200
    requests_seen = []

    def do_GET(self):
        _EsearchStub.requests_seen.append(self.path)
        if self.status != 200:
            self.send_response(self.status)
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
        payload = json.dumps({"esearchresult": result}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def esearch_stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _EsearchStub)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _EsearchStub.count = 0
    _EsearchStub.error = None
    _EsearchStub.status = 200
    _EsearchStub.requests_seen = []
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()


QUERY = parse('("heart attack"[tiab] OR infarct*[Title]) AND trial[pt]')


def cfg_for(stub, tmp_path=None, retmax=10_000, rate=3.0):
    return EntrezConfig(
        base_url=stub,
        retmax=retmax,
        rate_limit=rate,
        cache_dir=str(tmp_path) if tmp_path else None,
    )


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


def test_warm_cache_makes_zero_requests(esearch_stub, tmp_path):
    _EsearchStub.count = 5
    cfg = cfg_for(esearch_stub, tmp_path)
    first = entrez_search(QUERY, cfg, limiter=RateLimiter(10_000))
    assert len(_EsearchStub.requests_seen) == 1
    second = entrez_search(QUERY, cfg, limiter=RateLimiter(10_000))
    assert second == first
    assert len(_EsearchStub.requests_seen) == 1  # no new traffic


# ---------------------------------------------------------------------------
# errors and config invariants
# ---------------------------------------------------------------------------

def test_api_error_surfaces(esearch_stub):
    _EsearchStub.count = 1
    _EsearchStub.error = "Invalid field tag"
    with pytest.raises(ApiError):
        entrez_search(QUERY, cfg_for(esearch_stub), limiter=RateLimiter(10_000))


def test_http_error_surfaces(esearch_stub):
    _EsearchStub.status = 500
    with pytest.raises(HttpError) as exc:
        entrez_search(QUERY, cfg_for(esearch_stub), limiter=RateLimiter(10_000))
    assert exc.value.status == 500


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
