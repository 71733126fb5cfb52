"""Chat-backend gateway: single-prompt and guided multi-turn generation,
query extraction from free-text responses, and retry on malformed output.

Both generation drivers are step lists for one retry loop
(``_run_session``): a single-prompt generation is the one-step case, the
guided session the four-step one.

The mock backend makes the whole gateway a deterministic function of
(prompts, fixtures, config); the http backend speaks the usual
chat-completions JSON contract against a configurable base URL with the
credential taken from ``LLM_API_KEY``, through the shared transport
``ratelimit.request_json``, which retries 429 and 5xx and raises
``HttpError`` (re-exported here).
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .collections import ReviewTopic, SeedStudy
from .prompts import PromptBindings, render
from .query_ast import Query, QueryParseError, Term, parse, sha256_hex, validate
from .ratelimit import HttpError, RateLimiter, request_json

__all__ = [
    "Message",
    "Conversation",
    "BackendConfig",
    "GenerationOutcome",
    "CategorizedTerm",
    "CategorizedTerms",
    "MockBackend",
    "HttpBackend",
    "make_backend",
    "conversation_digest",
    "complete",
    "extract_query",
    "generate_with_retry",
    "parse_term_list",
    "parse_categorized_list",
    "run_guided_session",
    "GatewayError",
    "HttpError",
    "MissingFixtureResponseError",
    "NoParsableQueryError",
    "ExhaustedRetriesError",
    "ResponseFormatError",
    "DuplicateTermError",
    "NoTermsFoundError",
    "UnknownCategoryError",
    "NoEntriesError",
    "EmptySeedStudyError",
]

# Step-1 seed abstracts are clipped to this many whitespace tokens to stay
# within a ~4000-token chat context.
MAX_SEED_ABSTRACT_TOKENS = 3000


class GatewayError(Exception):
    pass


class MissingFixtureResponseError(GatewayError):
    pass


class NoParsableQueryError(GatewayError):
    pass


class ExhaustedRetriesError(GatewayError):
    def __init__(self, attempts: int, last_error: str = ""):
        super().__init__(f"no valid query after {attempts} attempts ({last_error})")
        self.attempts = attempts


class ResponseFormatError(GatewayError):
    pass


class DuplicateTermError(ResponseFormatError):
    pass


class NoTermsFoundError(ResponseFormatError):
    pass


class UnknownCategoryError(ResponseFormatError):
    pass


class NoEntriesError(ResponseFormatError):
    pass


class EmptySeedStudyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Conversations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Message:
    role: str  # system | user | assistant
    content: str


@dataclass
class Conversation:
    messages: list[Message] = field(default_factory=list)

    def append(self, role: str, content: str) -> None:
        if role not in ("system", "user", "assistant"):
            raise ValueError(f"unknown role {role!r}")
        if role == "system":
            if self.messages:
                raise ValueError("system message must come first")
        else:
            last = self.messages[-1].role if self.messages else None
            if last == role:
                raise ValueError(f"roles must alternate; got {role} after {role}")
            if role == "assistant" and last not in ("user",):
                raise ValueError("assistant message requires a preceding user message")
        self.messages.append(Message(role, content))

    def last_role(self) -> Optional[str]:
        return self.messages[-1].role if self.messages else None

    def as_payload(self) -> list[dict[str, str]]:
        return [{"role": m.role, "content": m.content} for m in self.messages]


def conversation_digest(conv: Conversation) -> str:
    blob = json.dumps(conv.as_payload(), sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return sha256_hex(blob)


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BackendConfig:
    kind: str = "mock"  # mock | http
    base_url: Optional[str] = None
    model_name: str = "mock-model"
    temperature: float = 0.0
    timeout: float = 60.0
    max_retries: int = 3
    fixtures_path: Optional[str] = None
    http_attempts: int = 3       # transport-level retries on 429/5xx
    backoff_base: float = 0.5    # seconds; doubles per retry
    rate_limit: Optional[float] = None  # requests/second across all threads

    def __post_init__(self) -> None:
        if self.kind not in ("mock", "http"):
            raise ValueError(f"unknown backend kind {self.kind!r}")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.kind == "http" and not self.base_url:
            raise ValueError("http backend requires base_url")

    def describe(self) -> str:
        if self.kind == "mock":
            return f"mock:{self.fixtures_path or 'scripted'}"
        return f"http:{self.model_name}@{self.base_url}"


class MockBackend:
    """Deterministic stand-in for a chat service.

    ``fixtures`` maps conversation digests to response text.  ``script``
    responses, when present, are consumed in order first; this is how tests
    simulate a nondeterministic service emitting different answers for the
    same prompt.
    """

    def __init__(
        self,
        fixtures: Optional[dict[str, str]] = None,
        script: Optional[Sequence[str]] = None,
    ):
        self.fixtures = dict(fixtures or {})
        self.script = list(script or [])
        self.calls = 0
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path) -> "MockBackend":
        with open(path, "r", encoding="utf-8") as f:
            return cls(fixtures=json.load(f))

    def complete(self, conv: Conversation) -> str:
        with self._lock:  # concurrent sessions must not both take the last answer
            self.calls += 1
            if self.script:
                return self.script.pop(0)
        digest = conversation_digest(conv)
        if digest not in self.fixtures:
            raise MissingFixtureResponseError(f"no fixture for conversation digest {digest}")
        return self.fixtures[digest]


class HttpBackend:
    """Chat-completions client: POST base_url with a role/content message
    array, bearer credential from ``LLM_API_KEY``.  Safe for concurrent
    sessions: the optional rate limit is shared by every caller."""

    def __init__(self, cfg: BackendConfig):
        self.cfg = cfg
        self._limiter = RateLimiter(cfg.rate_limit) if cfg.rate_limit else None

    def complete(self, conv: Conversation) -> str:
        api_key = os.environ.get("LLM_API_KEY")
        if not api_key:
            raise GatewayError("http backend requires a credential in LLM_API_KEY")
        payload = {
            "model": self.cfg.model_name,
            "messages": conv.as_payload(),
            "temperature": self.cfg.temperature,
        }
        body = request_json(self.cfg.base_url, timeout=self.cfg.timeout, payload=payload,
                            headers={"Authorization": f"Bearer {api_key}"},
                            attempts=self.cfg.http_attempts, backoff=self.cfg.backoff_base,
                            limiter=self._limiter, sleep=time.sleep)
        return body["choices"][0]["message"]["content"]


def make_backend(cfg: BackendConfig):
    if cfg.kind == "mock":
        if cfg.fixtures_path:
            return MockBackend.from_file(cfg.fixtures_path)
        return MockBackend()
    return HttpBackend(cfg)


def complete(conv: Conversation, backend) -> str:
    """Send the conversation (which must end with a user message) and append
    the assistant's reply to it."""
    if conv.last_role() != "user":
        raise ValueError("conversation must end with a user message")
    text = backend.complete(conv)
    conv.append("assistant", text)
    return text


# ---------------------------------------------------------------------------
# Extracting structure from free-text responses
# ---------------------------------------------------------------------------

_FENCE_RE = re.compile(r"```[a-zA-Z0-9_-]*\n?(.*?)```", re.DOTALL)


def _longest_paren_span(text: str) -> str:
    """The first longest top-level balanced-parenthesis span, or ``""``."""
    best = ""
    depth = start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            if depth == 0:
                start = i
            depth += 1
        elif ch == ")" and depth:
            depth -= 1
            if depth == 0 and i + 1 - start > len(best):
                best = text[start : i + 1]
    return best


def extract_query(response: str) -> Query:
    """Pull a parsable Boolean query out of a free-text response.

    Candidates, in order: fenced code blocks, the longest balanced-
    parenthesis span, the whole trimmed text.  The first candidate that
    parses with zero validation errors wins.

    Because an untagged word sequence is itself a well-formed phrase term,
    plain prose would otherwise "parse"; a candidate whose whole parse is a
    single bare, untagged term is therefore rejected unless it was
    explicitly quoted or field-tagged.
    """
    candidates = [m.strip() for m in _FENCE_RE.findall(response)]
    candidates += [_longest_paren_span(response), response.strip()]
    for candidate in filter(None, candidates):  # an empty candidate is no query
        try:
            query = parse(candidate)
        except QueryParseError:
            continue
        if isinstance(query.root, Term) and "[" not in candidate \
                and candidate[0] not in ('"', "“"):
            continue
        if validate(query).ok:
            return query
    raise NoParsableQueryError("response contains no parsable Boolean query")


_NUMBERED_RE = re.compile(r"^\s*(\d+)\.\s*(.+?)\s*$")
_CATEGORY_RE = re.compile(r"^\((A|B|C|N/A|NA)\)\s*(.+?)\s*$", re.IGNORECASE)


def _numbered_lines(response: str) -> Iterator[tuple[str, int, str]]:
    """Yield ``(line, N, rest)`` per ``N. rest`` line; N must strictly increase."""
    last_n = 0
    for line in response.splitlines():
        m = _NUMBERED_RE.match(line)
        if m:
            try:
                n = int(m.group(1))
            except ValueError:  # int() refuses more than 4,300 digits
                raise ResponseFormatError(f"list number of {len(m.group(1))} digits") from None
            if n <= last_n:
                raise ResponseFormatError(f"list numbering does not increase at line {line!r}")
            last_n = n
            yield line, n, m.group(2)


def parse_term_list(response: str) -> list[str]:
    """Parse ``N. term`` lines; numbering must strictly increase and terms
    must be unique case-insensitively."""
    terms: list[str] = []
    seen: set[str] = set()
    for line, _, rest in _numbered_lines(response):
        text = rest.rstrip(".").strip()
        if not text:
            raise ResponseFormatError(f"empty term at line {line!r}")
        key = text.lower()
        if key in seen:
            raise DuplicateTermError(f"duplicate term {text!r}")
        seen.add(key)
        terms.append(text)
    if not terms:
        raise NoTermsFoundError("no numbered term lines found")
    return terms


@dataclass(frozen=True)
class CategorizedTerm:
    index: int
    category: str  # A | B | C | NA
    text: str


@dataclass(frozen=True)
class CategorizedTerms:
    entries: tuple[CategorizedTerm, ...]


def parse_categorized_list(response: str) -> CategorizedTerms:
    """Parse ``N. (CAT) term`` lines with CAT in A/B/C/N-A."""
    entries: list[CategorizedTerm] = []
    for line, n, rest in _numbered_lines(response):
        cm = _CATEGORY_RE.match(rest)
        if not cm:
            raise UnknownCategoryError(f"no (A)/(B)/(C)/(N/A) category at line {line!r}")
        category = cm.group(1).upper().replace("N/A", "NA")
        entries.append(CategorizedTerm(index=n, category=category, text=cm.group(2).rstrip(".").strip()))
    if not entries:
        raise NoEntriesError("no categorized lines found")
    return CategorizedTerms(tuple(entries))


# ---------------------------------------------------------------------------
# Generation drivers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GenerationOutcome:
    query: Query
    attempts: int
    conversation_log: Conversation
    raw_responses: tuple[str, ...]
    failures: tuple[str, ...] = ()


def _run_session(steps, cfg: BackendConfig, backend=None) -> GenerationOutcome:
    """The one retry loop.  Each attempt plays every ``(prompt, check)`` step
    in one fresh conversation; a check that rejects its response restarts
    the session, up to ``cfg.max_retries`` times.  The last step's checked
    result is the query."""
    backend = backend if backend is not None else make_backend(cfg)
    raw: list[str] = []
    failures: list[str] = []
    for attempt in range(1, cfg.max_retries + 2):
        conv = Conversation()
        for step_no, (prompt, check) in enumerate(steps, start=1):
            conv.append("user", prompt)
            response = complete(conv, backend)
            raw.append(response)
            try:
                result = check(response)
            except (ResponseFormatError, NoParsableQueryError) as e:
                step = f" step {step_no}" if len(steps) > 1 else ""
                failures.append(f"attempt {attempt}{step}: {e}")
                break
        else:
            return GenerationOutcome(
                query=result,
                attempts=attempt,
                conversation_log=conv,
                raw_responses=tuple(raw),
                failures=tuple(failures),
            )
    raise ExhaustedRetriesError(cfg.max_retries + 1, failures[-1])


def generate_with_retry(prompt: str, cfg: BackendConfig, backend=None) -> GenerationOutcome:
    """One fresh single-turn conversation per attempt until a response
    yields a valid query."""
    return _run_session([(prompt, extract_query)], cfg, backend)


def _truncate_abstract(text: str) -> str:
    tokens = text.split()
    if len(tokens) <= MAX_SEED_ABSTRACT_TOKENS:
        return text
    return " ".join(tokens[:MAX_SEED_ABSTRACT_TOKENS])


def run_guided_session(
    topic: ReviewTopic,
    seed: SeedStudy,
    cfg: BackendConfig,
    backend=None,
) -> GenerationOutcome:
    """Drive the four-step guided formulation in one conversation: identify
    terms, categorize them, assemble a grouped query, then refine it.

    Each step's answer is validated (term list, categorized list, query,
    query); any malformed step restarts the whole session, which counts as
    one attempt against ``cfg.max_retries``.
    """
    if not seed.title.strip() or not seed.abstract.strip():
        raise EmptySeedStudyError(
            f"guided session for topic {topic.topic_id} needs a seed with title and abstract"
        )
    step1 = render(
        "guided_step1",
        PromptBindings(
            seed_study_title=seed.title,
            seed_study_text=_truncate_abstract(seed.abstract),
        ),
    )
    steps = [
        (step1, parse_term_list),
        (render("guided_step2", PromptBindings()), parse_categorized_list),
        (render("guided_step3", PromptBindings()), extract_query),
        (render("guided_step4", PromptBindings()), extract_query),
    ]
    return _run_session(steps, cfg, backend)
