"""The benchmark's stand-ins for the chat service and for PubMed.

* :class:`ChatStub` is an in-process chat backend for the sweep, passed to
  the pipeline stages through their public ``backend=`` parameter.
* ``python3 perfbench/stubs.py serve --plan PLAN`` runs a single-threaded
  local HTTP server for the network workload.  It serves chat completions
  and ``esearch.fcgi``, prints its port on the first line of stdout, and
  reports its counters at ``GET /__stats``.

Every answer is a function of the request, of how many times that same
request has been seen, and of the seeded plan written by ``gen.py``; never
of arrival order.  So repeated runs of a conversation differ, yet a whole
repetition is reproducible.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import re
import sys
import time
from collections import Counter
from pathlib import Path
from urllib.parse import parse_qs, urlparse

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

PROMPTS_DIR = HERE.parent / "src" / "srquery" / "prompts"
HQE_PATH = HERE.parent / "src" / "srquery" / "data" / "hqe_example.json"
_PLACEHOLDER_RE = re.compile(r"\{([a-z_]+)\}")
_ANCHOR_RE = re.compile(r"nt\d{3}x")

PROSE = (
    "I am unable to write the search strategy in full, sorry.",
    "A good search strategy combines the main concepts of the review with synonyms for each concept.",
    "Here is how I would approach this: identify the population, the intervention, the outcome.",
)
TRANSIENT_PROSE_SHARE = 0.2
INVALID_MESH_SHARE = 0.2


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _template_patterns() -> list[tuple[str, re.Pattern]]:
    out = []
    for path in sorted(PROMPTS_DIR.glob("*.txt")):
        body = path.read_text(encoding="utf-8")
        parts = _PLACEHOLDER_RE.split(body)
        regex = "".join(re.escape(p) if i % 2 == 0 else f"(?P<{p}>.*?)"
                        for i, p in enumerate(parts))
        out.append((path.stem, re.compile(regex, re.S)))
    return out


class Answerer:
    """Builds chat answers from the plan: valid queries, prose without a
    query, malformed guided steps, and queries naming MeSH descriptors that
    do not exist."""

    def __init__(self, plan: dict):
        self.plan = plan
        self.seed = plan["seed"]
        self.patterns = _template_patterns()
        self.hqe_title = json.loads(HQE_PATH.read_text(encoding="utf-8"))["title"]
        self.by_title = {t["title"]: tid for tid, t in plan["topics"].items()}
        self.by_seed_title = {t["seed_title"]: tid for tid, t in plan["topics"].items()}
        self._identified: dict[str, tuple[str, str]] = {}
        self.served: Counter = Counter()  # answers by kind: the fault mix

    def identify(self, first_message: str) -> tuple[str, str]:
        """(topic_id, method) of a conversation from its first prompt."""
        key = hashlib.sha256(first_message.encode("utf-8")).hexdigest()
        if key not in self._identified:
            self._identified[key] = self._identify(first_message)
        return self._identified[key]

    def _identify(self, text: str) -> tuple[str, str]:
        for template_id, pattern in self.patterns:
            m = pattern.fullmatch(text)
            if not m:
                continue
            b = m.groupdict()
            if template_id == "guided_step1":
                return self.by_seed_title[b["seed_study_title"]], "guided"
            tid = self.by_title[b["review_title"]]
            if template_id in ("q4", "q5"):
                mode = "hqe" if b["example_review_title"] == self.hqe_title else "re"
                return tid, f"{template_id}-{mode}"
            return tid, template_id
        raise ValueError("chat stub: prompt matches no template")

    def is_transient_prose(self, conv_digest: str, n: int) -> bool:
        # Never twice in a row for one conversation, so a transient fault
        # costs a retry but cannot exhaust them.
        if n < 0:
            return False
        h = gen.stable_hash(f"{self.seed}:prose:{conv_digest}:{n}") % 1000 / 1000
        return h < TRANSIENT_PROSE_SHARE and not self.is_transient_prose(conv_digest, n - 1)

    def query(self, rng: random.Random, tid: str, groups: int, terms: int,
              tag: str = "tiab", mesh: bool = True) -> str:
        topic = self.plan["topics"][tid]
        concepts = rng.sample(topic["concepts"], groups)
        query = gen.build_query(rng, concepts, terms, tag=tag, mesh=mesh,
                                invalid_mesh=INVALID_MESH_SHARE,
                                name_pool=self.plan["invalid_mesh_names"])
        if self.plan["workload"] == "network":
            query = f"({topic['anchor']}[tiab] OR {query})"
        return query

    def wrap(self, rng: random.Random, query: str) -> str:
        style = rng.randrange(3)
        if style == 0:
            return query
        if style == 1:
            return "Here is a Boolean query for your review:\n" + query
        return "Certainly. A suitable query would be:\n```\n" + query + "\n```"

    def answer(self, messages: list[dict], n: int, doomed: bool) -> str:
        """Answer the conversation ``messages`` (ending with a user turn) that
        has been seen ``n`` times before."""
        tid, method = self.identify(messages[0]["content"])
        conv = digest(messages)
        rng = random.Random(f"{self.seed}:{conv}:{n}")
        if method == "guided":
            return self.guided_answer(rng, tid, messages, n, doomed)
        if doomed or self.is_transient_prose(conv, n):
            self.served["prose"] += 1
            return rng.choice(PROSE)
        self.served["query"] += 1
        if method in ("q1", "q2", "q3"):
            q = self.query(rng, tid, 2, 3)
        elif method in ("q6", "q7"):
            q = self.query(rng, tid, 3, 3)
        else:
            q = self.query(rng, tid, 3, 4)
        return self.wrap(rng, q)

    def guided_answer(self, rng, tid, messages, n, doomed) -> str:
        step = sum(1 for m in messages if m["role"] == "user")
        concepts = self.plan["topics"][tid]["concepts"]
        # Concepts draw their words independently, so drop repeats: a
        # duplicate term would fail every attempt, not just this one.
        words = {w: cat for cat, c in zip("ABC", concepts) for w in c["words"][:4]}
        words.setdefault(concepts[0]["words"][5], "N/A")
        items = [(cat, w) for w, cat in words.items()]
        if step == 1:
            lines = [f"{i}. {w}" for i, (_, w) in enumerate(items, 1)]
            if self.is_transient_prose(digest(messages), n):
                self.served["guided.duplicate_term"] += 1
                lines.append(f"{len(lines) + 1}. {items[0][1]}")  # a duplicate term
            return "\n".join(lines)
        if step == 2:
            if doomed:
                self.served["guided.uncategorized"] += 1
                return "\n".join(f"{i}. {w}" for i, (_, w) in enumerate(items, 1))
            return "\n".join(f"{i}. ({cat}) {w}" for i, (cat, w) in enumerate(items, 1))
        self.served["query"] += 1
        if step == 3:
            return self.wrap(rng, self.query(rng, tid, 3, 3, tag="Title/Abstract", mesh=False))
        return self.wrap(rng, self.query(rng, tid, 3, 4, tag="Title/Abstract"))


class ChatStub:
    """In-process chat backend (``complete(conversation) -> str``)."""

    def __init__(self, plan: dict):
        self.answerer = Answerer(plan)
        self.doomed = {m: set(tids) for m, tids in plan.get("doomed", {}).items()}
        self.seen: dict[str, int] = {}
        self.calls = 0

    def complete(self, conv) -> str:
        self.calls += 1
        messages = conv.as_payload()
        key = digest(messages)
        n = self.seen.get(key, 0)
        self.seen[key] = n + 1
        tid, method = self.answerer.identify(messages[0]["content"])
        return self.answerer.answer(messages, n, tid in self.doomed.get(method, ()))


# ---------------------------------------------------------------------------
# HTTP stub for the network workload
# ---------------------------------------------------------------------------

ESEARCH_CAP = 9998  # PubMed refuses retstart beyond this


class NetworkStub:
    """Request handling, kept apart from the socket server so it is plain
    functions of (request, times seen)."""

    def __init__(self, plan: dict):
        self.plan = plan
        self.answerer = Answerer(plan)
        self.faults = {k: set(v) for k, v in plan["faults"].items()}
        self.seen: dict[str, int] = {}
        self.last_status: dict[str, int] = {}
        self.stats = {
            "chat.requests": 0, "chat.retries": 0, "chat.served_429": 0,
            "chat.served_503": 0, "chat.served_no_choices": 0,
            "esearch.requests": 0, "esearch.retries": 0, "esearch.served_429": 0,
            "esearch.served_503": 0, "esearch.served_cap": 0, "esearch.served_api": 0,
        }
        self.esearch_arrivals: list[float] = []

    def _count(self, key: str) -> int:
        n = self.seen.get(key, 0)
        self.seen[key] = n + 1
        return n

    def chat(self, body: dict) -> tuple[int, dict, dict]:
        self.stats["chat.requests"] += 1
        messages = body["messages"]
        key = "chat:" + digest(messages)
        if self.last_status.get(key, 200) != 200:
            self.stats["chat.retries"] += 1
        n = self._count(key)
        tid, method = self.answerer.identify(messages[0]["content"])
        status, headers, payload = 200, {}, None
        if n == 0 and tid in self.faults["chat_429"]:
            status, headers = 429, {"Retry-After": "0"}
            payload = {"error": {"message": "Rate limit reached", "type": "requests"}}
            self.stats["chat.served_429"] += 1
        elif n == 0 and tid in self.faults["chat_503"]:
            status, payload = 503, {"error": {"message": "The server is overloaded"}}
            self.stats["chat.served_503"] += 1
        elif n == 0 and tid in self.faults["no_choices"]:
            payload = {"id": f"chatcmpl-{key[5:17]}", "object": "chat.completion",
                       "model": body.get("model", "")}
            self.stats["chat.served_no_choices"] += 1
        else:
            doomed = tid in self.faults["prose_always"]
            if n == 0 and tid in self.faults["prose_first"]:
                doomed = True
            text = self.answerer.answer(messages, n, doomed)
            payload = {"id": f"chatcmpl-{key[5:17]}", "object": "chat.completion",
                       "model": body.get("model", ""),
                       "choices": [{"index": 0, "finish_reason": "stop",
                                    "message": {"role": "assistant", "content": text}}]}
        self.last_status[key] = status
        return status, headers, payload

    def esearch(self, params: dict) -> tuple[int, dict, dict]:
        self.stats["esearch.requests"] += 1
        self.esearch_arrivals.append(time.monotonic())
        term = params.get("term", "")
        retstart = int(params.get("retstart", "0"))
        retmax = int(params.get("retmax", "20"))
        key = f"esearch:{term}:{retstart}"
        if self.last_status.get(key, 200) != 200:
            self.stats["esearch.retries"] += 1
        n = self._count(key)
        m = _ANCHOR_RE.search(term)
        tid = self.topic_for_anchor(m.group(0)) if m else None
        status, headers = 200, {}
        if tid is None:
            self.stats["esearch.served_api"] += 1
            payload = {"esearchresult": {"ERROR": "Invalid query"}}
        elif n == 0 and retstart == 0 and tid in self.faults["esearch_503"]:
            status, payload = 503, {"error": "Service unavailable"}
            self.stats["esearch.served_503"] += 1
        elif n == 0 and retstart == 0 and tid in self.faults["esearch_429"]:
            status, headers = 429, {"Retry-After": "0"}
            payload = {"error": "API rate limit exceeded"}
            self.stats["esearch.served_429"] += 1
        elif retstart > ESEARCH_CAP:
            self.stats["esearch.served_cap"] += 1
            payload = {"esearchresult": {"ERROR": (
                "Search Backend failed: Exception:\n'retstart' cannot be larger than 9998. "
                "For PubMed, ESearch can only retrieve the first 9,999 records matching the "
                "query.")}}
        else:
            count = gen.truth_count(self.plan, tid, term)
            ids = gen.truth_pmids(self.plan, tid, term, retstart, retstart + retmax)
            payload = {"header": {"type": "esearch", "version": "0.3"}, "esearchresult": {
                "count": str(count), "retmax": str(len(ids)), "retstart": str(retstart),
                "idlist": ids, "querytranslation": term}}
        self.last_status[key] = status
        return status, headers, payload

    def topic_for_anchor(self, anchor: str):
        for tid, topic in self.plan["topics"].items():
            if topic["anchor"] == anchor:
                return tid
        return None

    def report(self) -> dict:
        gaps = [(b - a) * 1000 for a, b in zip(self.esearch_arrivals, self.esearch_arrivals[1:])]
        served = {f"chat.served_{k}": v for k, v in self.answerer.served.items()}
        return {**self.stats, **served, "esearch.gaps_ms": gaps,
                "esearch.min_gap_ms": min(gaps) if gaps else None}


def serve(plan_path: str) -> None:
    from http.server import BaseHTTPRequestHandler, HTTPServer

    with open(plan_path, "r", encoding="utf-8") as f:
        stub = NetworkStub(json.load(f))

    class Handler(BaseHTTPRequestHandler):
        # HTTP/1.0: one request per connection, so a single-threaded server
        # never blocks on an idle keep-alive connection.
        protocol_version = "HTTP/1.0"

        def log_message(self, *args) -> None:
            pass

        def _send(self, status: int, headers: dict, payload) -> None:
            data = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            for k, v in headers.items():
                self.send_header(k, v)
            self.end_headers()
            self.wfile.write(data)

        def do_POST(self) -> None:
            length = int(self.headers.get("Content-Length", "0"))
            body = json.loads(self.rfile.read(length) or b"{}")
            if self.path.startswith("/v1/chat/completions"):
                self._send(*stub.chat(body))
            else:
                self._send(404, {}, {"error": "not found"})

        def do_GET(self) -> None:
            url = urlparse(self.path)
            if url.path.endswith("/esearch.fcgi"):
                params = {k: v[0] for k, v in parse_qs(url.query).items()}
                self._send(*stub.esearch(params))
            elif url.path == "/__stats":
                self._send(200, {}, stub.report())
            else:
                self._send(404, {}, {"error": "not found"})

    server = HTTPServer(("127.0.0.1", 0), Handler)
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="run the network workload's HTTP stub")
    ap.add_argument("command", choices=["serve"])
    ap.add_argument("--plan", required=True)
    args = ap.parse_args(argv)
    serve(args.plan)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
