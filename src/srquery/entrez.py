"""PubMed Entrez esearch client: pagination, shared rate limiting, and the
on-disk result cache keyed by query digest, which the execute stage fills
for every execution backend.

Each page is one call of the shared transport, ``ratelimit.request_json``,
which retries 429 and 5xx and raises ``HttpError`` (re-exported here).  NCBI
allows 3 requests/second without an API key and 10 with one; the limiter
enforces whichever bound applies across all concurrent callers.
Because the live index drifts over time, every cached result records when
it was fetched.
"""

from __future__ import annotations

import datetime as _dt
import json
import logging
import os
import tempfile
import urllib.parse
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from .collections import is_str_list, json_object
from .errors import ServiceError
from .query_ast import Query, serialize, sha256_hex
from .ratelimit import HttpError, RateLimiter, check_settings, request_json

__all__ = [
    "EntrezConfig",
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


class ApiError(ServiceError):
    """An esearch answer that reports an error or has the wrong shape."""


@dataclass(frozen=True)
class EntrezConfig:
    base_url: str = DEFAULT_BASE_URL
    api_key: Optional[str] = None  # falls back to NCBI_API_KEY
    retmax: int = MAX_RETMAX
    rate_limit: Optional[float] = None
    timeout: float = 60.0

    def __post_init__(self) -> None:
        if not 1 <= self.retmax <= MAX_RETMAX:
            raise ValueError(f"retmax must be in [1, {MAX_RETMAX}]")
        check_settings(self.timeout, rate_limit=self.rate_limit, cap=self._ncbi_rate())

    def effective_api_key(self) -> Optional[str]:
        return self.api_key or os.environ.get("NCBI_API_KEY") or None

    def _ncbi_rate(self) -> float:
        return 10.0 if self.effective_api_key() else 3.0

    def effective_rate(self) -> float:
        return self.rate_limit if self.rate_limit is not None else self._ncbi_rate()


# ---------------------------------------------------------------------------
# Disk cache
# ---------------------------------------------------------------------------

def query_digest(term: str) -> str:
    return sha256_hex(term)


def _cache_path(cache_dir, digest: str) -> Path:
    return Path(cache_dir) / f"{digest}.json"


def load_cached_result(cache_dir, digest: str) -> Optional[list[str]]:
    path = _cache_path(cache_dir, digest)
    try:
        pmids = json_object(path.read_text(encoding="utf-8")).get("pmids")
    except FileNotFoundError:  # never stored, or discarded by another reader
        return None
    except ValueError:  # not UTF-8, or not a JSON object
        pmids = None
    if is_str_list(pmids):
        return pmids
    log.warning("discarding unreadable cache entry %s", path)
    path.unlink(missing_ok=True)
    return None


def store_result(cache_dir, digest: str, pmids: Iterable[str]) -> None:
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
    limiter: Optional[RateLimiter] = None,
) -> set[str]:
    """Run esearch for the query's canonical serialization and return the
    full pmid set, paginating with retstart until the count is exhausted."""
    term = serialize(q)
    limiter = limiter or RateLimiter(cfg.effective_rate())
    url = cfg.base_url.rstrip("/") + "/esearch.fcgi"
    params = {"db": "pubmed", "term": term, "retmax": cfg.retmax, "retmode": "json"}
    api_key = cfg.effective_api_key()
    if api_key:
        params["api_key"] = api_key

    pmids: list[str] = []
    retstart = 0
    count: Optional[int] = None
    while count is None or retstart < count:
        params["retstart"] = retstart
        body = request_json(f"{url}?{urllib.parse.urlencode(params)}",
                            timeout=cfg.timeout, limiter=limiter)
        result = body.get("esearchresult")
        if not isinstance(result, dict):
            raise ApiError(f"malformed esearch response: {str(body)[:80]}")
        if "ERROR" in result:
            raise ApiError(str(result["ERROR"]))
        count, ids = str(result.get("count", 0)), result.get("idlist", [])
        # int() refuses more than 4,300 digits; 20 digits exceed any PubMed count.
        if not (count.isdecimal() and len(count) < 20) or not is_str_list(ids):
            raise ApiError(f"malformed esearch result: {str(result)[:80]}")
        count = int(count)
        if not ids and retstart < count:  # else a huge count would page forever
            raise ApiError(f"esearch page at retstart {retstart} of count {count} has no ids")
        pmids.extend(ids)
        translation = result.get("querytranslation")
        if retstart == 0 and translation and translation != term:
            log.warning(
                "PubMed rewrote the query (its term mapping is not emulated locally): %r",
                translation,
            )
        retstart += cfg.retmax

    return set(pmids)
