"""PubMed Entrez esearch client: pagination, shared rate limiting, and an
on-disk result cache keyed by query digest.

NCBI allows 3 requests/second without an API key and 10 with one; the
limiter enforces whichever bound applies across all concurrent callers.
Because the live index drifts over time, every cached result records when
it was fetched.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import logging
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import requests

from .query_ast import Query, serialize
from .ratelimit import RateLimiter

__all__ = [
    "EntrezConfig",
    "EntrezError",
    "HttpError",
    "ApiError",
    "RateLimiter",
    "query_digest",
    "load_cached_result",
    "store_result",
    "entrez_search",
]

log = logging.getLogger(__name__)

DEFAULT_BASE_URL = "https://eutils.ncbi.nlm.nih.gov/entrez/eutils"
MAX_RETMAX = 10_000


class EntrezError(Exception):
    pass


class HttpError(EntrezError):
    def __init__(self, status: int, detail: str = ""):
        super().__init__(f"HTTP {status}{': ' + detail if detail else ''}")
        self.status = status


class ApiError(EntrezError):
    pass


@dataclass(frozen=True)
class EntrezConfig:
    base_url: str = DEFAULT_BASE_URL
    api_key: Optional[str] = None  # falls back to NCBI_API_KEY
    retmax: int = MAX_RETMAX
    rate_limit: Optional[float] = None
    timeout: float = 60.0
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if not 1 <= self.retmax <= MAX_RETMAX:
            raise ValueError(f"retmax must be in [1, {MAX_RETMAX}]")
        limit = self.rate_limit
        if limit is not None:
            cap = 10.0 if self.effective_api_key() else 3.0
            if limit <= 0 or limit > cap:
                raise ValueError(
                    f"rate_limit must be in (0, {cap}] "
                    f"({'with' if cap == 10.0 else 'without'} an API key)"
                )

    def effective_api_key(self) -> Optional[str]:
        return self.api_key or os.environ.get("NCBI_API_KEY") or None

    def effective_rate(self) -> float:
        if self.rate_limit is not None:
            return self.rate_limit
        return 10.0 if self.effective_api_key() else 3.0


# ---------------------------------------------------------------------------
# Disk cache
# ---------------------------------------------------------------------------

def query_digest(term: str) -> str:
    return hashlib.sha256(term.encode("utf-8")).hexdigest()


def _cache_path(cache_dir, digest: str) -> Path:
    return Path(cache_dir) / f"{digest}.json"


def load_cached_result(cache_dir, digest: str) -> Optional[list[str]]:
    path = _cache_path(cache_dir, digest)
    if not path.exists():
        return None
    try:
        entry = json.loads(path.read_text(encoding="utf-8"))
        return list(entry["pmids"])
    except (json.JSONDecodeError, KeyError):
        log.warning("discarding unreadable cache entry %s", path)
        path.unlink(missing_ok=True)
        return None


def store_result(cache_dir, digest: str, pmids: list[str]) -> None:
    path = _cache_path(cache_dir, digest)
    path.parent.mkdir(parents=True, exist_ok=True)
    entry = {
        "query_digest": digest,
        "fetched_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "pmids": sorted(pmids),
    }
    # Each writer fills its own temp file and renames it into place, so
    # concurrent stores of one digest never share or leave a partial file.
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{digest}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(json.dumps(entry, ensure_ascii=False))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------

def entrez_search(
    q: Query,
    cfg: EntrezConfig,
    session: Optional[requests.Session] = None,
    limiter: Optional[RateLimiter] = None,
) -> set[str]:
    """Run esearch for the query's canonical serialization and return the
    full pmid set, paginating with retstart until the count is exhausted."""
    term = serialize(q)
    digest = query_digest(term)
    if cfg.cache_dir is not None:
        cached = load_cached_result(cfg.cache_dir, digest)
        if cached is not None:
            return set(cached)

    session = session or requests.Session()
    limiter = limiter or RateLimiter(cfg.effective_rate())
    url = cfg.base_url.rstrip("/") + "/esearch.fcgi"

    pmids: list[str] = []
    retstart = 0
    count: Optional[int] = None
    while count is None or retstart < count:
        params = {
            "db": "pubmed",
            "term": term,
            "retmax": str(cfg.retmax),
            "retstart": str(retstart),
            "retmode": "json",
        }
        api_key = cfg.effective_api_key()
        if api_key:
            params["api_key"] = api_key
        limiter.acquire()
        resp = session.get(url, params=params, timeout=cfg.timeout)
        if resp.status_code != 200:
            raise HttpError(resp.status_code, resp.text[:200])
        body = resp.json()
        if "esearchresult" not in body:
            raise ApiError(f"malformed esearch response: {list(body)[:5]}")
        result = body["esearchresult"]
        if "ERROR" in result:
            raise ApiError(str(result["ERROR"]))
        count = int(result.get("count", 0))
        pmids.extend(result.get("idlist", []))
        translation = result.get("querytranslation")
        if retstart == 0 and translation and translation != term:
            log.warning(
                "PubMed rewrote the query (its term mapping is not emulated locally): %r",
                translation,
            )
        retstart += cfg.retmax
        if count == 0:
            break

    unique = sorted(set(pmids))
    if cfg.cache_dir is not None:
        store_result(cfg.cache_dir, digest, unique)
    return set(unique)
