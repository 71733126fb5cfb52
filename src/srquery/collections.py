"""Loaders for review topics, relevance judgments, document corpora, the
MeSH vocabulary and seed queries.

Canonical on-disk formats:

* ``topics.jsonl`` — one JSON object per line:
  ``{"topic_id", "title", "original_query"?,
  "seed_studies": [{"pmid", "title", "abstract"}]?}``; a seed study's
  ``title`` and ``abstract`` are strings or null
* ``qrels.txt`` — TREC format, whitespace separated: ``topic 0 pmid rel``
* ``corpus.jsonl`` — ``{"pmid", "title", "abstract", "mesh": [...],
  "pub_types": [...]}``; ``abstract`` is a string or null, and ``mesh`` and
  ``pub_types`` are lists of strings
* ``mesh.tsv`` — ``ui<TAB>name<TAB>tree;tree``
* seed-query files — ``{"topic_id", "query"}``, one JSON object per line

Every file is read by one line reader that skips blank lines; the JSONL
files by :func:`iter_jsonl`, which names the file and line of a line that
:func:`json_object`, the rule for every JSON text read from outside, refuses.

All loaded structures are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass
from functools import cache, cached_property
from itertools import repeat
from typing import Callable, Iterator, Optional, Union, get_args, get_origin, get_type_hints

__all__ = [
    "SeedStudy",
    "ReviewTopic",
    "Qrels",
    "CorpusDoc",
    "Corpus",
    "MeshDescriptor",
    "MeshVocab",
    "MalformedLineError",
    "DuplicateTopicError",
    "DuplicateJudgmentError",
    "NegativeGradeError",
    "MissingFieldError",
    "json_object",
    "json_fields",
    "iter_jsonl",
    "name_key",
    "is_str_list",
    "load_topics",
    "load_qrels",
    "iter_corpus",
    "load_corpus",
    "load_mesh",
    "load_seed_queries",
]

class MalformedLineError(ValueError):
    def __init__(self, path, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.line_no = line_no


class DuplicateTopicError(ValueError):
    def __init__(self, topic_id: str):
        super().__init__(f"duplicate topic_id {topic_id!r}")
        self.topic_id = topic_id


class DuplicateJudgmentError(MalformedLineError):
    pass


class NegativeGradeError(MalformedLineError):
    pass


class MissingFieldError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeedStudy:
    pmid: str
    title: str = ""
    abstract: str = ""

    def __post_init__(self) -> None:
        if not self.pmid:
            raise MissingFieldError("seed study pmid must be non-empty")


@dataclass(frozen=True)
class ReviewTopic:
    topic_id: str
    title: str
    original_query: Optional[str] = None
    seed_studies: tuple[SeedStudy, ...] = ()

    def __post_init__(self) -> None:
        if not self.topic_id:
            raise MissingFieldError("topic_id must be non-empty")
        if not self.title:
            raise MissingFieldError(f"topic {self.topic_id}: title must be non-empty")


@dataclass(frozen=True)
class Qrels:
    """Relevance judgments keyed by (topic_id, pmid)."""

    judgments: dict[tuple[str, str], int]

    @cached_property
    def _by_topic(self) -> dict[str, dict[str, int]]:
        """``topic_id -> {pmid: grade}``, built in one pass on the first
        lookup rather than at construction, so it reads ``judgments`` as it
        stands when first used."""
        view: dict[str, dict[str, int]] = {}
        for (tid, pmid), grade in self.judgments.items():
            view.setdefault(tid, {})[pmid] = grade
        return view

    def relevant_for(self, topic_id: str, threshold: int = 1) -> set[str]:
        """Pmids judged relevant (grade >= threshold; set-based metrics are
        binary, so the default binarization is grade >= 1)."""
        grades = self._by_topic.get(topic_id, {})
        return {pmid for pmid, grade in grades.items() if grade >= threshold}

    def judged_for(self, topic_id: str) -> set[str]:
        return set(self._by_topic.get(topic_id, ()))


@dataclass(frozen=True)
class CorpusDoc:
    pmid: str
    title: str
    abstract: str = ""
    mesh_terms: tuple[str, ...] = ()
    pub_types: tuple[str, ...] = ()


@dataclass(frozen=True)
class Corpus:
    docs: dict[str, CorpusDoc]

    def get(self, pmid: str) -> Optional[CorpusDoc]:
        return self.docs.get(pmid)


@dataclass(frozen=True)
class MeshDescriptor:
    name: str
    ui: str
    tree_numbers: tuple[str, ...]


def name_key(name: str) -> str:
    """The key of a MeSH name, a MeSH tag or a publication type: the text
    stripped and lowercased."""
    return name.strip().lower()


@dataclass(frozen=True)
class MeshVocab:
    """Descriptor lookup is case-insensitive; keys are ``name_key(name)``."""

    descriptors: dict[str, MeshDescriptor]

    def lookup(self, name: str) -> Optional[MeshDescriptor]:
        return self.descriptors.get(name_key(name))

    def __len__(self) -> int:
        return len(self.descriptors)


# ---------------------------------------------------------------------------
# Lines, JSON lines and fields
# ---------------------------------------------------------------------------

def _lines(path) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, line)`` for each non-blank line of a UTF-8 text
    file, in file order; a byte that is not UTF-8 fails its own line."""
    # Decoding runs ahead in chunks: keep a bad byte as an escape until its line.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for line_no, line in enumerate(f, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as e:
                    reason = f"not UTF-8 at column {e.start + 1}"
                    raise MalformedLineError(path, line_no, reason) from None
            if line.strip():
                yield line_no, line


def json_object(text: str | bytes) -> dict:
    """The object of a JSON text read from outside; other text, NaN too, raises ``ValueError``."""
    try:
        obj = _DECODER.decode(text if isinstance(text, str)  # bytes: decoded as by json.loads
                              else text.decode(json.detect_encoding(text), "surrogatepass"))
    except (ValueError, RecursionError) as e:  # also too many digits or too deep
        raise ValueError(f"invalid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise ValueError("not a JSON object")
    return obj


def _not_json(constant: str):
    raise ValueError(f"{constant} is not JSON")


_DECODER = json.JSONDecoder(parse_constant=_not_json)  # json.loads would build one per call
_JSON_TYPES = {dict: "object", list: "array", str: "string", bool: "boolean", type(None): "null"}


def json_fields(cls, obj: dict) -> dict:
    """``obj``, a decoded JSON object, once each value whose key names a field
    of dataclass ``cls`` has that field's declared type: ``str``; ``int``, not
    a bool; ``float``, any number but a bool; ``Optional[X]``; ``dict[str, X]``;
    or a dataclass, an object checked alike.  Else ``ValueError`` names the
    field and its JSON type."""
    tests = _field_tests(cls)
    for key, value in obj.items():
        if key in tests and not tests[key](value):
            kind = _JSON_TYPES.get(type(value)) or f"number {value}"
            declared = cls.__dataclass_fields__[key].type
            raise ValueError(f"{key}: {kind} where {declared} is declared")
    return obj


@cache  # once per class: its declarations are the one copy of its schema
def _field_tests(cls) -> dict[str, Callable[[object], bool]]:
    hints = get_type_hints(cls)
    return {f.name: _json_test(hints[f.name]) for f in fields(cls)}


def _json_test(t) -> Callable[[object], bool]:
    origin, args = get_origin(t), get_args(t)
    if t in (str, int, float):
        return lambda v, kinds=(int, float) if t is float else (t,): type(v) in kinds
    if origin is Union and args[1:] == (type(None),):
        return lambda v, test=_json_test(args[0]): v is None or test(v)
    if origin is dict and args[0] is str:
        return lambda v, test=_json_test(args[1]): type(v) is dict and all(map(test, v.values()))
    if is_dataclass(t):
        return lambda v: type(v) is dict and json_fields(t, v) is v
    raise NotImplementedError(f"no JSON rule for the declared type {t}")


def iter_jsonl(path) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, object)`` for each non-blank line of a JSONL
    file, in file order.  A line that is not a JSON object raises
    :class:`MalformedLineError` when it is reached."""
    for line_no, line in _lines(path):
        try:
            obj = json_object(line)
        except ValueError as e:
            raise MalformedLineError(path, line_no, str(e)) from e
        yield line_no, obj


def _text(value, what: str, path, line_no: int) -> str:
    """A string field's value; null or missing reads as ``""``."""
    if value is not None and not isinstance(value, str):
        raise MalformedLineError(path, line_no, f"{what} must be a string or null")
    return value or ""


def _query(text: str) -> Optional[str]:
    """A query text as given, or None when blank: a blank query is no query."""
    return text if text.strip() else None


def is_str_list(value) -> bool:
    """Whether a decoded JSON value is a list of strings."""
    return isinstance(value, list) and all(map(isinstance, value, repeat(str)))


def _id(value, what: str, path, line_no: int) -> str:
    """An id field's value: a non-blank string as given, or an integer (not
    a bool) as its decimal string."""
    if isinstance(value, str) and value.strip() or type(value) is int:
        return str(value)
    raise MalformedLineError(path, line_no, f"{what} must be a non-blank string or an integer")


# ---------------------------------------------------------------------------
# Topics and seed queries
# ---------------------------------------------------------------------------

def _parse_seed_studies(raw, path, line_no) -> tuple[SeedStudy, ...]:
    raw = raw or []
    if not isinstance(raw, list) or not all(isinstance(e, dict) and "pmid" in e for e in raw):
        raise MalformedLineError(path, line_no, "seed_studies must be objects with a pmid")
    return tuple(
        SeedStudy(pmid=_id(e["pmid"], "seed study pmid", path, line_no),
                  title=_text(e.get("title"), "seed study title", path, line_no),
                  abstract=_text(e.get("abstract"), "seed study abstract", path, line_no))
        for e in raw
    )


def load_topics(path) -> list[ReviewTopic]:
    """Load review topics from a JSONL file, in file order.  Duplicate
    topic_ids within one file are an error."""
    topics: list[ReviewTopic] = []
    seen: set[str] = set()
    for line_no, obj in iter_jsonl(path):
        if "topic_id" not in obj or "title" not in obj:
            raise MalformedLineError(path, line_no, "topic_id and title are required")
        if not isinstance(obj["title"], str) or not obj["title"].strip():
            raise MalformedLineError(path, line_no, "title must be a non-empty string")
        original_query = _query(_text(obj.get("original_query"), "original_query", path, line_no))
        topic_id = _id(obj["topic_id"], "topic_id", path, line_no)
        if topic_id in seen:
            raise DuplicateTopicError(topic_id)
        seen.add(topic_id)
        topics.append(
            ReviewTopic(
                topic_id=topic_id,
                title=obj["title"],
                original_query=original_query,
                seed_studies=_parse_seed_studies(obj.get("seed_studies"), path, line_no),
            )
        )
    return topics


def load_seed_queries(path) -> dict[str, Optional[str]]:
    """Load a seed-query file, ``topic_id -> query``, None for a blank
    query; a later line for a topic replaces an earlier one."""
    queries: dict[str, Optional[str]] = {}
    for line_no, obj in iter_jsonl(path):
        if "topic_id" not in obj or not isinstance(obj.get("query"), str):
            raise MalformedLineError(path, line_no, "needs topic_id and a string query")
        queries[_id(obj["topic_id"], "topic_id", path, line_no)] = _query(obj["query"])
    return queries


# ---------------------------------------------------------------------------
# Qrels
# ---------------------------------------------------------------------------

def load_qrels(path) -> Qrels:
    """Load TREC-format qrels: ``topic 0 pmid rel``, whitespace separated.

    Grades are kept as given (CLEF assessments include grades above 1);
    binarization happens at evaluation time via :meth:`Qrels.relevant_for`.
    """
    judgments: dict[tuple[str, str], int] = {}
    for line_no, line in _lines(path):
        parts = line.split()
        if len(parts) != 4:
            raise MalformedLineError(path, line_no, f"expected 4 columns, got {len(parts)}")
        topic_id, _, pmid, grade_str = parts
        try:
            grade = int(grade_str)
        except ValueError:
            raise MalformedLineError(path, line_no, f"grade {grade_str!r} is not an integer")
        if grade < 0:
            raise NegativeGradeError(path, line_no, f"negative grade {grade}")
        key = (topic_id, pmid)
        if key in judgments:
            raise DuplicateJudgmentError(
                path, line_no,
                f"duplicate judgment for {key} (grades {judgments[key]} and {grade})",
            )
        judgments[key] = grade
    return Qrels(judgments)


# ---------------------------------------------------------------------------
# Corpus and MeSH
# ---------------------------------------------------------------------------

def iter_corpus(path) -> Iterator[CorpusDoc]:
    """Yield the documents of a corpus JSONL file in file order, one line at
    a time.  A bad line or a repeated pmid raises when it is reached."""
    seen: set[str] = set()
    for line_no, obj in iter_jsonl(path):
        for required in ("pmid", "title"):
            if required not in obj:
                raise MissingFieldError(f"{path}:{line_no}: missing {required!r}")
        if not isinstance(obj["title"], str):
            raise MalformedLineError(path, line_no, "title must be a string")
        pmid = _id(obj["pmid"], "pmid", path, line_no)
        if pmid in seen:
            raise MalformedLineError(path, line_no, f"duplicate pmid {pmid!r}")
        seen.add(pmid)
        abstract = _text(obj.get("abstract"), "abstract", path, line_no)
        mesh, pub_types = obj.get("mesh", []), obj.get("pub_types", [])
        for key, tags in (("mesh", mesh), ("pub_types", pub_types)):
            if not is_str_list(tags):
                raise MalformedLineError(path, line_no, f"{key} must be a list of strings")
        yield CorpusDoc(
            pmid=pmid,
            title=obj["title"],
            abstract=abstract,
            mesh_terms=tuple(mesh),
            pub_types=tuple(pub_types),
        )


def load_corpus(path) -> Corpus:
    return Corpus({doc.pmid: doc for doc in iter_corpus(path)})


def load_mesh(path) -> MeshVocab:
    """Load a TSV of descriptors: ``ui<TAB>name<TAB>tree;tree``."""
    descriptors: dict[str, MeshDescriptor] = {}
    for line_no, line in _lines(path):
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 3:
            raise MalformedLineError(path, line_no, f"expected 3 columns, got {len(parts)}")
        ui, name, trees = parts
        tree_numbers = tuple(t for t in map(str.strip, trees.split(";")) if t)
        if not tree_numbers:
            raise MalformedLineError(path, line_no, f"descriptor {name!r} has no tree numbers")
        if not name.strip():
            raise MissingFieldError(f"{path}:{line_no}: empty descriptor name")
        descriptors[name_key(name)] = MeshDescriptor(
            name=name.strip(), ui=ui.strip(), tree_numbers=tree_numbers
        )
    return MeshVocab(descriptors)
