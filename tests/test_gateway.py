import json
import re
import threading
from http.server import BaseHTTPRequestHandler
from pathlib import Path

import pytest

from conftest import DEEP_JSON, stub_server
from srquery.collections import ReviewTopic, SeedStudy
from srquery.gateway import (
    BackendConfig,
    Conversation,
    EmptySeedStudyError,
    ExhaustedRetriesError,
    HttpBackend,
    HttpError,
    MissingFixtureResponseError,
    MockBackend,
    NoParsableQueryError,
    ResponseFormatError,
    complete,
    conversation_digest,
    extract_query,
    generate_with_retry,
    parse_categorized_list,
    parse_term_list,
    run_guided_session,
)
from srquery.query_ast import extract_mesh_terms, serialize, validate

GUIDED_ANSWERS = json.loads(
    (Path(__file__).parent / "fixtures" / "guided_answers.json").read_text()
)

VALID = "(a[Title/Abstract] AND b[MeSH])"
INVALID = "I cannot help with that."


def make_cfg(**kwargs):
    return BackendConfig(kind="mock", **kwargs)


# ---------------------------------------------------------------------------
# conversations and the mock backend
# ---------------------------------------------------------------------------

def test_conversation_roles_must_alternate():
    conv = Conversation()
    conv.append("system", "be terse")
    conv.append("user", "hi")
    conv.append("assistant", "hello")
    conv.append("user", "again")
    with pytest.raises(ValueError):
        conv.append("user", "twice")
    with pytest.raises(ValueError):
        Conversation().append("assistant", "no user yet")


def test_mock_fixture_lookup_by_digest():
    conv = Conversation()
    conv.append("user", "what is the query?")
    backend = MockBackend(fixtures={conversation_digest(conv): "the fixture text"})
    assert complete(conv, backend) == "the fixture text"
    assert conv.messages[-1].role == "assistant"


def test_mock_same_conversation_same_response():
    def fresh():
        conv = Conversation()
        conv.append("user", "prompt")
        return conv

    backend = MockBackend(fixtures={conversation_digest(fresh()): "stable"})
    assert backend.complete(fresh()) == backend.complete(fresh()) == "stable"


class _CheckedThenPopped(list):
    """A script whose ``pop`` waits until a second caller has checked it
    for emptiness, which forces the check-then-pop interleaving of two
    threads without a lock (and times out harmlessly with one)."""

    def __init__(self, items):
        super().__init__(items)
        self.checks = 0
        self.second_check = threading.Event()

    def __len__(self):
        self.checks += 1
        if self.checks == 2:
            self.second_check.set()
        return super().__len__()

    def pop(self, index=-1):
        self.second_check.wait(0.5)
        return super().pop(index)


def test_mock_last_scripted_answer_goes_to_one_thread():
    def conv():
        c = Conversation()
        c.append("user", "prompt")
        return c

    backend = MockBackend(fixtures={conversation_digest(conv()): "fixture"})
    backend.script = _CheckedThenPopped(["scripted"])
    answers, errors = [], []

    def call():
        try:
            answers.append(backend.complete(conv()))
        except Exception as e:  # an IndexError here would abort a stage
            errors.append(e)

    threads = [threading.Thread(target=call) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
        assert not t.is_alive()
    assert errors == []
    assert sorted(answers) == ["fixture", "scripted"]


def test_mock_missing_fixture():
    conv = Conversation()
    conv.append("user", "anything")
    with pytest.raises(MissingFixtureResponseError):
        MockBackend().complete(conv)


@pytest.mark.parametrize("content", ['["ab", "cd"]', DEEP_JSON.decode()],
                         ids=["array", "too-deep"])
def test_a_fixtures_file_that_is_not_an_object_is_refused_by_name(tmp_path, content):
    path = tmp_path / "fixtures.json"
    path.write_text(content)
    with pytest.raises(ValueError, match=f"^bad mock fixtures file {re.escape(str(path))}: "):
        MockBackend.from_file(path)


@pytest.mark.parametrize("answer", [5, None, ["x"]], ids=["number", "null", "array"])
def test_a_fixture_answer_that_is_not_a_string_is_refused_by_name(tmp_path, answer):
    path = tmp_path / "fixtures.json"
    path.write_text(json.dumps({"a" * 64: "ok", "b" * 64: answer}))
    with pytest.raises(ValueError, match=f"^bad mock fixtures file {re.escape(str(path))}: "
                                         "every answer must be a string$"):
        MockBackend.from_file(path)


def test_chat_settings_default_to_the_documented_values():
    cfg = BackendConfig()
    assert (cfg.timeout, cfg.max_retries, cfg.http_attempts, cfg.backoff_base,
            cfg.temperature, cfg.rate_limit) == (60.0, 3, 3, 0.5, 0.0, None)


@pytest.mark.parametrize("field, value", [
    ("timeout", 0), ("timeout", -1.0), ("http_attempts", 0), ("http_attempts", -1),
    ("backoff_base", -0.5),
])
def test_transport_settings_out_of_range_are_refused(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be >"):
        BackendConfig(kind="http", base_url="http://stub", **{field: value})
    edge = {"timeout": 0.01, "http_attempts": 1, "backoff_base": 0.0}[field]
    assert getattr(BackendConfig(**{field: edge}), field) == edge


@pytest.mark.parametrize("field, value", [
    ("timeout", float("inf")), ("timeout", float("nan")), ("timeout", 1e300), ("timeout", 1e10),
    ("backoff_base", float("inf")), ("backoff_base", float("nan")), ("backoff_base", 1e300),
    ("http_attempts", float("nan")), ("rate_limit", 0.0), ("rate_limit", -1.0),
    ("rate_limit", float("inf")), ("rate_limit", float("nan")),
])
def test_transport_settings_refuse_nan_infinity_and_waits_past_timeout_max(field, value):
    # Every wait stops at threading.TIMEOUT_MAX, the longest time.sleep and
    # a socket take; a chat rate_limit of 0 is no longer "no limit".
    with pytest.raises(ValueError, match=f"^{field} must be "):
        BackendConfig(kind="http", base_url="http://stub", **{field: value})


def test_the_longest_wait_and_any_finite_positive_rate_are_accepted():
    longest = threading.TIMEOUT_MAX
    # Two attempts, so the one backoff is the longest wait.
    cfg = BackendConfig(timeout=longest, backoff_base=longest, http_attempts=2, rate_limit=1e300)
    assert (cfg.timeout, cfg.backoff_base, cfg.rate_limit) == (longest, longest, 1e300)
    assert BackendConfig(rate_limit=1e-3).rate_limit == 1e-3


_LONGEST_BACKOFF = "backoff_base must be <= 9223372036.0 / 2**(http_attempts - 2)"
_TEMPERATURE = "temperature must be >= 0 and <= 2"


@pytest.mark.parametrize("settings, message", [
    ({"backoff_base": 5e9, "http_attempts": 3}, _LONGEST_BACKOFF),
    ({"backoff_base": threading.TIMEOUT_MAX / 2 ** 10, "http_attempts": 13}, _LONGEST_BACKOFF),
    ({"backoff_base": 1e-300, "http_attempts": 10 ** 6}, _LONGEST_BACKOFF),
    ({"rate_limit": 1e-300}, "rate_limit must be >= 1/9223372036.0"),
    ({"temperature": float("inf")}, _TEMPERATURE),
    ({"temperature": float("nan")}, _TEMPERATURE),
    ({"temperature": 2.5}, _TEMPERATURE),
    ({"temperature": -0.5}, _TEMPERATURE),
], ids=["backoff-5e9", "backoff-one-doubling-too-many", "backoff-huge-attempts", "rate-1e-300",
        "temperature-infinity", "temperature-nan", "temperature-above-2", "temperature-negative"])
def test_a_wait_past_the_longest_or_a_temperature_out_of_range_is_refused(settings, message):
    # Each was accepted: the last retry's backoff or a limiter slot then
    # raised OverflowError from time.sleep, or every chat body carried
    # "temperature": Infinity, which is not JSON.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BackendConfig(kind="http", base_url="http://stub", **settings)


def test_the_longest_backoff_the_slowest_rate_and_each_end_of_the_temperature_are_accepted():
    longest = threading.TIMEOUT_MAX
    for base, attempts in ((longest, 2), (longest / 2, 3), (longest / 2 ** 10, 12),
                           (0.0, 10 ** 6), (longest, 1)):
        assert BackendConfig(backoff_base=base, http_attempts=attempts).backoff_base == base
    assert BackendConfig(rate_limit=1 / longest).rate_limit == 1 / longest
    assert [BackendConfig(temperature=t).temperature for t in (0.0, 2.0)] == [0.0, 2.0]
    # The benchmark's network workload runs with these.
    cfg = BackendConfig(kind="http", base_url="http://stub", http_attempts=3, backoff_base=0.1,
                        timeout=10.0)
    assert (cfg.http_attempts, cfg.backoff_base) == (3, 0.1)


@pytest.mark.parametrize("rate_limit, interval", [(None, None), (2.0, 0.5), (1e-3, 1e3)])
def test_a_chat_rate_limit_of_none_and_none_other_means_no_limiter(rate_limit, interval):
    backend = HttpBackend(BackendConfig(kind="http", base_url="http://stub",
                                        rate_limit=rate_limit))
    assert getattr(backend._limiter, "interval", None) == interval


def test_complete_requires_trailing_user_message():
    with pytest.raises(ValueError):
        complete(Conversation(), MockBackend(script=["x"]))


# ---------------------------------------------------------------------------
# http backend against a stub server
# ---------------------------------------------------------------------------

class _ChatStub(BaseHTTPRequestHandler):
    responses = []  # list of (status, body): a dict to encode, or bytes sent verbatim
    seen = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        _ChatStub.seen.append(json.loads(self.rfile.read(length)))
        status, body = _ChatStub.responses.pop(0)
        payload = body if isinstance(body, bytes) else json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_stub():
    with stub_server(_ChatStub) as url:
        _ChatStub.responses = []
        _ChatStub.seen = []
        yield url + "/chat/completions"


def _ok_body(text):
    return {"choices": [{"message": {"role": "assistant", "content": text}}]}


def test_http_backend_roundtrip(chat_stub, monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "test-key")
    _ChatStub.responses.append((200, _ok_body("a response")))
    cfg = BackendConfig(kind="http", base_url=chat_stub, model_name="m", backoff_base=0.0)
    conv = Conversation()
    conv.append("user", "hello")
    assert complete(conv, HttpBackend(cfg)) == "a response"
    sent = _ChatStub.seen[0]
    assert sent["messages"] == [{"role": "user", "content": "hello"}]
    assert sent["temperature"] == 0.0


def test_http_429_exhausts_backoff_retries(chat_stub, monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "test-key")
    _ChatStub.responses.extend([(429, {}), (429, {}), (429, {})])
    cfg = BackendConfig(kind="http", base_url=chat_stub, http_attempts=3, backoff_base=0.0)
    conv = Conversation()
    conv.append("user", "hello")
    with pytest.raises(HttpError) as exc:
        HttpBackend(cfg).complete(conv)
    assert exc.value.status == 429
    assert len(_ChatStub.seen) == 3


def test_http_non_retryable_fails_fast(chat_stub, monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "test-key")
    _ChatStub.responses.append((401, {}))
    cfg = BackendConfig(kind="http", base_url=chat_stub, http_attempts=3, backoff_base=0.0)
    conv = Conversation()
    conv.append("user", "hello")
    with pytest.raises(HttpError) as exc:
        HttpBackend(cfg).complete(conv)
    assert exc.value.status == 401
    assert len(_ChatStub.seen) == 1


# ---------------------------------------------------------------------------
# extract_query
# ---------------------------------------------------------------------------

def test_extract_exact_query_response():
    q = extract_query(VALID)
    assert serialize(q) == "(a[Title/Abstract] AND b[MeSH])"


def test_extract_balanced_span_from_prose():
    response = "Here is your query:\n(a[Title/Abstract] AND b[MeSH])\nGood luck!"
    assert serialize(extract_query(response)) == "(a[Title/Abstract] AND b[MeSH])"


def test_extract_prefers_fenced_block():
    response = "(wrong AND span)\n```\n(right[tiab] AND block[tiab])\n```"
    assert "right" in serialize(extract_query(response))


def test_extract_refusal_raises():
    with pytest.raises(NoParsableQueryError):
        extract_query(INVALID)
    with pytest.raises(NoParsableQueryError):
        extract_query("")


def test_extract_handles_trailing_punctuation_via_span():
    assert extract_query(GUIDED_ANSWERS["step3"]) is not None


def test_extract_takes_a_later_span_one_character_longer():
    response = "Either (a[tiab] AND b[tiab]) or (c[tiab] AND dd[tiab]) will do."
    assert serialize(extract_query(response)) == "(c[Title/Abstract] AND dd[Title/Abstract])"


def test_extract_takes_a_quoted_phrase_alone():
    assert serialize(extract_query('"heart attack"')) == '"heart attack"[All Fields]'


def test_extract_takes_the_first_of_two_equally_long_spans():
    response = "Either (a[tiab] AND b[tiab]) or (c[tiab] AND d[tiab]) will do."
    assert serialize(extract_query(response)) == "(a[Title/Abstract] AND b[Title/Abstract])"


# ---------------------------------------------------------------------------
# generate_with_retry
# ---------------------------------------------------------------------------

def test_retry_second_attempt_succeeds():
    backend = MockBackend(script=[INVALID, VALID])
    outcome = generate_with_retry("prompt", make_cfg(max_retries=3), backend=backend)
    assert outcome.attempts == 2
    assert len(outcome.raw_responses) == 2
    assert validate(outcome.query).ok


def test_retry_first_attempt():
    outcome = generate_with_retry("prompt", make_cfg(), backend=MockBackend(script=[VALID]))
    assert outcome.attempts == 1


def test_retry_exhaustion():
    backend = MockBackend(script=[INVALID] * 4)
    with pytest.raises(ExhaustedRetriesError):
        generate_with_retry("prompt", make_cfg(max_retries=3), backend=backend)
    assert backend.calls == 4  # max_retries + 1 attempts


def test_exhausted_retries_text():
    # This text lands verbatim in run-log error records.
    backend = MockBackend(script=[INVALID] * 4)
    with pytest.raises(ExhaustedRetriesError) as exc:
        generate_with_retry("prompt", make_cfg(max_retries=3), backend=backend)
    assert str(exc.value) == (
        "no valid query after 4 attempts "
        "(attempt 4: response contains no parsable Boolean query)"
    )


def test_attempts_never_exceed_budget():
    for retries in (0, 1, 2):
        backend = MockBackend(script=[INVALID] * 10)
        with pytest.raises(ExhaustedRetriesError) as exc:
            generate_with_retry("p", make_cfg(max_retries=retries), backend=backend)
        assert exc.value.attempts == retries + 1


# ---------------------------------------------------------------------------
# term-list and categorized-list parsing
# ---------------------------------------------------------------------------

def test_parse_term_list_guided_answer():
    terms = parse_term_list(GUIDED_ANSWERS["step1"])
    assert terms[:2] == ["Differentiated thyroid cancer", "Prevalence"]
    assert terms[-1] == "Parameters"
    assert len(terms) == 11


def test_parse_term_list_duplicate_case_insensitive():
    with pytest.raises(ResponseFormatError, match="duplicate term 'x'"):
        parse_term_list("5. X\n9. x")


def test_parse_term_list_prose_only():
    with pytest.raises(ResponseFormatError, match="no numbered term lines found"):
        parse_term_list("Sure! Here are some thoughts, with no list.")


def test_parse_term_list_numbering_must_increase():
    with pytest.raises(Exception):
        parse_term_list("2. b\n1. a")


def test_parse_categorized_basic_entries():
    parsed = parse_categorized_list(GUIDED_ANSWERS["step2"])
    first = parsed.entries[0]
    assert (first.index, first.category, first.text) == (1, "A", "Differentiated thyroid cancer")
    na = [e for e in parsed.entries if e.index == 10][0]
    assert na.category == "NA" and na.text == "Low risk"


def test_parse_categorized_unknown_category():
    with pytest.raises(ResponseFormatError, match=r"no \(A\)/\(B\)/\(C\)/\(N/A\) category"):
        parse_categorized_list("3. (Q) Autopsy")


def test_parse_categorized_no_entries():
    with pytest.raises(ResponseFormatError, match="no categorized lines found"):
        parse_categorized_list("no lines here")


def test_parse_categorized_reports_the_numbering_before_the_category():
    # Both list readers check the numbering first, in one place.
    with pytest.raises(ResponseFormatError, match="numbering does not increase") as exc:
        parse_categorized_list("1. (A) x\n1. y")
    assert type(exc.value) is ResponseFormatError


# ---------------------------------------------------------------------------
# guided session
# ---------------------------------------------------------------------------

TOPIC = ReviewTopic("SR1", "Prevalence of differentiated thyroid cancer in autopsy studies")
SEED = SeedStudy(
    pmid="1012",
    title="Prevalence of Differentiated Thyroid Cancer in Autopsy Studies Over Six Decades: A Meta-Analysis",
    abstract="Ten occult carcinomas of the thyroid gland were found in 274 unselected autopsies.",
)


def scripted_answers():
    return [GUIDED_ANSWERS[k] for k in ("step1", "step2", "step3", "step4")]


def test_guided_session_clean_pass():
    backend = MockBackend(script=scripted_answers())
    outcome = run_guided_session(TOPIC, SEED, make_cfg(), backend=backend)
    assert outcome.attempts == 1
    assert ("autopsy", True) in extract_mesh_terms(outcome.query)
    assert validate(outcome.query).ok
    roles = [m.role for m in outcome.conversation_log.messages]
    assert roles == ["user", "assistant"] * 4


def test_guided_session_restarts_on_bad_step2():
    # The corrupted attempt consumes two responses (step 1 ok, step 2 bad),
    # then the session restarts from scratch on a clean script.
    first_attempt = [GUIDED_ANSWERS["step1"], "1. (Q) Differentiated thyroid cancer"]
    backend = MockBackend(script=first_attempt + scripted_answers())
    outcome = run_guided_session(TOPIC, SEED, make_cfg(max_retries=3), backend=backend)
    assert outcome.attempts == 2
    assert len(outcome.failures) == 1
    assert "step 2" in outcome.failures[0]
    assert backend.calls == 6


def test_guided_session_exhausts_retries():
    bad = [GUIDED_ANSWERS["step1"], "nonsense"] * 4
    backend = MockBackend(script=bad)
    with pytest.raises(ExhaustedRetriesError):
        run_guided_session(TOPIC, SEED, make_cfg(max_retries=1), backend=backend)


def test_guided_session_exhausted_text_names_the_step():
    bad = [GUIDED_ANSWERS["step1"], "nonsense"] * 2
    with pytest.raises(ExhaustedRetriesError) as exc:
        run_guided_session(TOPIC, SEED, make_cfg(max_retries=1), backend=MockBackend(script=bad))
    assert str(exc.value) == (
        "no valid query after 2 attempts (attempt 2 step 2: no categorized lines found)"
    )


def test_guided_session_requires_seed_text():
    with pytest.raises(EmptySeedStudyError):
        run_guided_session(TOPIC, SeedStudy(pmid="1", title="t", abstract="  "), make_cfg())


def test_guided_step1_truncates_very_long_abstracts():
    long_abstract = " ".join(f"tok{i}" for i in range(5000))
    backend = MockBackend(script=scripted_answers())
    outcome = run_guided_session(
        TOPIC, SeedStudy(pmid="1", title="t", abstract=long_abstract),
        make_cfg(), backend=backend,
    )
    step1_prompt = outcome.conversation_log.messages[0].content
    assert "tok2999" in step1_prompt and "tok3000" not in step1_prompt


def test_guided_step1_keeps_an_abstract_of_exactly_the_limit_verbatim():
    abstract = "\n".join(f"tok{i}  x" for i in range(1500))  # 3,000 tokens
    outcome = run_guided_session(TOPIC, SeedStudy(pmid="1", title="t", abstract=abstract),
                                 make_cfg(), backend=MockBackend(script=scripted_answers()))
    assert abstract in outcome.conversation_log.messages[0].content


def test_http_requires_credential(chat_stub, monkeypatch):
    monkeypatch.delenv("LLM_API_KEY", raising=False)
    cfg = BackendConfig(kind="http", base_url=chat_stub)
    conv = Conversation()
    conv.append("user", "hello")
    with pytest.raises(Exception, match="LLM_API_KEY"):
        HttpBackend(cfg).complete(conv)
    assert _ChatStub.seen == []  # refused before any request


def test_http_connection_errors_become_gateway_errors(monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "test-key")
    # Nothing listens on this port; connection refusal must surface as a
    # typed gateway error so batch stages can record it per topic.
    cfg = BackendConfig(kind="http", base_url="http://127.0.0.1:9", http_attempts=1,
                        backoff_base=0.0, timeout=0.5)
    conv = Conversation()
    conv.append("user", "hello")
    with pytest.raises(HttpError):
        HttpBackend(cfg).complete(conv)


def test_http_backend_shared_rate_limit_under_threads(chat_stub, monkeypatch):
    import time as _time

    monkeypatch.setenv("LLM_API_KEY", "test-key")
    for i in range(12):
        _ChatStub.responses.append((200, _ok_body(f"r{i}")))
    cfg = BackendConfig(kind="http", base_url=chat_stub, rate_limit=100.0, backoff_base=0.0)
    backend = HttpBackend(cfg)

    def worker():
        for _ in range(3):
            conv = Conversation()
            conv.append("user", "hello")
            backend.complete(conv)

    start = _time.monotonic()
    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = _time.monotonic() - start
    assert len(_ChatStub.seen) == 12
    # 12 requests at 100 rps cannot finish faster than 11 spaced intervals.
    assert elapsed >= 11 * (1.0 / 100.0) - 1e-3
