from __future__ import annotations

import ast
import copy
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DEEP_JSON
from randgen import mesh_names
from srquery.collections import (
    DuplicateJudgmentError,
    DuplicateTopicError,
    MalformedLineError,
    MissingFieldError,
    NegativeGradeError,
    Qrels,
    iter_corpus,
    json_fields,
    json_object,
    load_corpus,
    load_mesh,
    load_qrels,
    load_seed_queries,
    load_topics,
)


# ---------------------------------------------------------------------------
# the one rule for JSON read from outside
# ---------------------------------------------------------------------------

def test_json_object_returns_the_object_of_a_text_or_bytes():
    assert json_object('{"a": [1]}') == json_object(b'{"a": [1]}') == {"a": [1]}


@pytest.mark.parametrize("text, reason", [
    ('{"a": ', "invalid JSON: Expecting value"),
    (b'{"a": "\xff"}', "invalid JSON: 'utf-8' codec"),
    ("9" * 5000, "invalid JSON: Exceeds the limit"),  # int() takes at most 4,300 digits
    (DEEP_JSON, "invalid JSON: maximum recursion depth exceeded"),
    ("[]", "not a JSON object"),
    ("null", "not a JSON object"),
    ('"text"', "not a JSON object"),
    ("5", "not a JSON object"),
], ids=["truncated", "not-utf8", "too-many-digits", "too-deep", "array", "null", "string",
        "number"])
def test_json_object_raises_value_error_for_anything_but_an_object(text, reason):
    with pytest.raises(ValueError) as exc:
        json_object(text)
    assert str(exc.value).startswith(reason), exc.value


_FINITE_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(), children, max_size=3),
    max_leaves=12)
_JSON_OBJECTS = st.dictionaries(st.text(), _FINITE_JSON, max_size=4)


@settings(max_examples=100, deadline=None)
@given(_JSON_OBJECTS, st.sampled_from(["utf-8", "utf-16", "utf-32"]))
def test_json_object_round_trips_every_object_of_finite_numbers(obj, encoding):
    text = json.dumps(obj)
    assert json_object(text) == obj
    assert json_object(text.encode(encoding)) == obj  # bytes are decoded as json.loads does


@settings(max_examples=100, deadline=None)
@given(_JSON_OBJECTS, st.sampled_from(["NaN", "Infinity", "-Infinity"]), st.data())
def test_json_object_refuses_nan_and_the_infinities_at_any_depth(obj, constant, data):
    # Python's json writes and reads these three words; JSON has no such value.
    obj = copy.deepcopy(obj)
    node = obj
    while data.draw(st.booleans()):
        inner = [v for v in (node.values() if isinstance(node, dict) else node)
                 if isinstance(v, (dict, list))]
        if not inner:
            break
        node = data.draw(st.sampled_from(inner))
    if isinstance(node, dict):
        node[data.draw(st.text())] = float(constant)
    else:
        node.insert(data.draw(st.integers(0, len(node))), float(constant))
    for text in (json.dumps(obj), json.dumps(obj).encode()):
        with pytest.raises(ValueError) as exc:
            json_object(text)
        assert str(exc.value) == f"invalid JSON: {constant} is not JSON"


def _is_json_decode(node):
    """A ``json.load``, ``json.loads`` or ``json.JSONDecoder``, or a ``from
    json import`` or ``import json as`` (which would dodge their names)."""
    return isinstance(node, ast.ImportFrom) and node.module == "json" or (
        isinstance(node, ast.Import) and any(a.name == "json" and a.asname for a in node.names)
    ) or (
        isinstance(node, ast.Attribute) and node.attr in ("load", "loads", "JSONDecoder")
        and isinstance(node.value, ast.Name) and node.value.id == "json")


def _json_decodes(node, owner=None, is_site=_is_json_decode):
    """The owner of each node that ``is_site``: its innermost enclosing
    function, or at module level the name that its assignment binds."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _json_decodes(child, child.name, is_site)
            continue
        if is_site(child):
            yield owner
        if owner is None and isinstance(child, ast.Assign):
            yield from _json_decodes(child, ast.unparse(child.targets[0]), is_site)
        else:
            yield from _json_decodes(child, owner, is_site)


def test_only_json_object_and_the_bundled_data_reads_decode_json():
    # Every JSON text read from outside goes through json_object, the one
    # reader of the one decoder; prompts.py decodes only the package's own
    # manifest and high-quality example.
    src = Path(__file__).parents[1] / "src" / "srquery"
    found = sorted((path.name, owner) for path in src.rglob("*.py")
                   for owner in _json_decodes(ast.parse(path.read_text(encoding="utf-8"))))
    assert found == [("collections.py", "_DECODER"), ("prompts.py", "hqe_example"),
                     ("prompts.py", "load_manifest")]
    readers = _json_decodes(ast.parse((src / "collections.py").read_text(encoding="utf-8")),
                            is_site=lambda n: isinstance(n, ast.Name) and n.id == "_DECODER"
                            and isinstance(n.ctx, ast.Load))
    assert list(readers) == ["json_object"]


@dataclass
class _Typed:
    name: str
    count: int = 0
    score: float = 0.0
    note: Optional[str] = None
    scores: Optional[dict[str, float]] = None


@dataclass
class _Outer:
    inner: _Typed
    spare: Optional[_Typed] = None


def test_json_fields_passes_well_typed_values_and_keys_that_are_no_field():
    obj = {"name": "a", "count": -2, "score": 1, "note": None, "scores": {"p": 0.5, "n": 3},
           "not_a_field": [True]}
    assert json_fields(_Typed, obj) is obj
    assert json_fields(_Typed, {"score": 0.25, "note": "x", "scores": {}})
    outer = {"inner": obj, "spare": {"name": "b", "scores": None}}
    assert json_fields(_Outer, outer) is outer


@pytest.mark.parametrize("cls, obj, message", [
    (_Typed, {"name": 5}, "name: number 5 where str is declared"),
    (_Typed, {"name": None}, "name: null where str is declared"),
    (_Typed, {"count": True}, "count: boolean where int is declared"),
    (_Typed, {"count": 2.0}, "count: number 2.0 where int is declared"),
    (_Typed, {"count": "2"}, "count: string where int is declared"),
    (_Typed, {"score": False}, "score: boolean where float is declared"),
    (_Typed, {"score": "0.5"}, "score: string where float is declared"),
    (_Typed, {"note": ["x"]}, "note: array where Optional[str] is declared"),
    (_Typed, {"scores": [0.5]}, "scores: array where Optional[dict[str, float]] is declared"),
    (_Typed, {"scores": {"p": "0.5"}},
     "scores: object where Optional[dict[str, float]] is declared"),
    (_Typed, {"scores": {"p": None}},
     "scores: object where Optional[dict[str, float]] is declared"),
    (_Outer, {"inner": []}, "inner: array where _Typed is declared"),
    (_Outer, {"inner": None}, "inner: null where _Typed is declared"),
    (_Outer, {"inner": {"name": "a"}, "spare": "b"}, "spare: string where Optional[_Typed]"),
    (_Outer, {"inner": {"count": "1"}}, "count: string where int is declared"),
    (_Outer, {"inner": {}, "spare": {"scores": {"p": True}}}, "scores: object where"),
], ids=["str-number", "str-null", "int-bool", "int-fraction", "int-string", "float-bool",
        "float-string", "optional-array", "dict-array", "dict-value-string", "dict-value-null",
        "dataclass-array", "dataclass-null", "optional-dataclass-string", "nested-field",
        "nested-optional-dict"])
def test_json_fields_names_the_field_and_json_type_of_a_wrong_value(cls, obj, message):
    with pytest.raises(ValueError) as exc:
        json_fields(cls, obj)
    assert str(exc.value).startswith(message), exc.value


def test_json_fields_refuses_an_annotation_outside_its_forms_on_first_use():
    @dataclass
    class Listed:
        names: list[str]

    @dataclass
    class Unioned:
        value: Optional[int | str]

    for cls in (Listed, Unioned):
        with pytest.raises(NotImplementedError, match="no JSON rule for the declared type"):
            json_fields(cls, {})


# ---------------------------------------------------------------------------
# topics
# ---------------------------------------------------------------------------

def test_load_topics_file_order_and_fields(tmp_path):
    path = tmp_path / "topics.jsonl"
    path.write_text(
        '{"topic_id":"CD010438","title":"Thromboelastography for trauma-induced coagulopathy"}\n'
        '{"topic_id":"CD000002","title":"Second topic","original_query":"a AND b"}\n'
    )
    topics = load_topics(path)
    assert [t.topic_id for t in topics] == ["CD010438", "CD000002"]
    assert topics[1].original_query == "a AND b"


@pytest.mark.parametrize("blank", ["", "   ", "\t\n"], ids=["empty", "spaces", "tab-newline"])
def test_a_blank_query_is_no_query_in_topics_and_seed_query_files(tmp_path, blank):
    topics, seeds = tmp_path / "topics.jsonl", tmp_path / "seeds.jsonl"
    topics.write_text(json.dumps({"topic_id": "CD1", "title": "one", "original_query": blank})
                      + "\n")
    seeds.write_text(json.dumps({"topic_id": "CD1", "query": "a[tiab]"}) + "\n"
                     + json.dumps({"topic_id": "CD1", "query": blank}) + "\n")
    assert load_topics(topics)[0].original_query is None
    assert load_seed_queries(seeds) == {"CD1": None}


def test_load_topics_empty_file(tmp_path):
    path = tmp_path / "topics.jsonl"
    path.write_text("")
    assert load_topics(path) == []


def test_load_topics_duplicate_id(tmp_path):
    path = tmp_path / "topics.jsonl"
    path.write_text(
        '{"topic_id":"CD1","title":"one"}\n{"topic_id":"CD1","title":"two"}\n'
    )
    with pytest.raises(DuplicateTopicError):
        load_topics(path)


def test_load_topics_malformed_line(tmp_path):
    path = tmp_path / "topics.jsonl"
    path.write_text('{"topic_id":"CD1","title":"one"}\nnot json\n')
    with pytest.raises(MalformedLineError) as exc:
        load_topics(path)
    assert exc.value.line_no == 2


def test_load_topics_missing_title(tmp_path):
    path = tmp_path / "topics.jsonl"
    path.write_text('{"topic_id":"CD1"}\n')
    with pytest.raises(MalformedLineError):
        load_topics(path)


TOPIC_FIELD_ERRORS = {
    "non-string-query": '{"topic_id":"CD1","title":"one","original_query":5}',
    "non-object-study": '{"topic_id":"CD1","title":"one","seed_studies":[5]}',
    "studies-not-a-list": '{"topic_id":"CD1","title":"one","seed_studies":{"pmid":"1"}}',
    "non-string-seed-title": '{"topic_id":"CD1","title":"one","seed_studies":[{"pmid":"1","title":5}]}',
    "non-string-seed-abstract":
        '{"topic_id":"CD1","title":"one","seed_studies":[{"pmid":"1","abstract":["a"]}]}',
    "null-topic-id": '{"topic_id":null,"title":"one"}',
    "list-topic-id": '{"topic_id":["CD1"],"title":"one"}',
    "null-seed-pmid": '{"topic_id":"CD1","title":"one","seed_studies":[{"pmid":null}]}',
}


@pytest.mark.parametrize("line", TOPIC_FIELD_ERRORS.values(), ids=TOPIC_FIELD_ERRORS)
def test_load_topics_rejects_a_malformed_query_or_study(tmp_path, line):
    path = tmp_path / "topics.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(MalformedLineError, match=":1: "):
        load_topics(path)


def test_integer_ids_load_as_decimal_strings_and_padded_ids_keep_their_bytes(tmp_path):
    topics = tmp_path / "topics.jsonl"
    topics.write_text('{"topic_id":7,"title":"one","seed_studies":[{"pmid":12}]}\n'
                      '{"topic_id":" CD2 ","title":"two"}\n')
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"pmid":1001,"title":"a"}\n{"pmid":" 1002 ","title":"b"}\n')
    loaded = load_topics(topics)
    assert [t.topic_id for t in loaded] == ["7", " CD2 "]
    assert loaded[0].seed_studies[0].pmid == "12"
    assert list(load_corpus(corpus).docs) == ["1001", " 1002 "]


def test_seed_topics_carry_studies(seed_topics):
    by_id = {t.topic_id: t for t in seed_topics}
    assert by_id["SR100"].seed_studies[0].pmid == "1012"
    assert by_id["SR100"].seed_studies[0].abstract.strip()
    assert by_id["SR102"].seed_studies == ()


# ---------------------------------------------------------------------------
# qrels
# ---------------------------------------------------------------------------

def test_load_qrels_direct_mapping(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("CD010438 0 12345 1\n")
    qrels = load_qrels(path)
    assert qrels.judgments == {("CD010438", "12345"): 1}


def test_load_qrels_graded_rows_binarize_downstream(tmp_path):
    # CLEF assessments carry grades above 1; they count as relevant.
    path = tmp_path / "qrels.txt"
    path.write_text("CD1 0 10 2\nCD1 0 11 0\nCD1 0 12 1\n")
    qrels = load_qrels(path)
    assert qrels.relevant_for("CD1") == {"10", "12"}
    assert qrels.judged_for("CD1") == {"10", "11", "12"}


def test_load_qrels_duplicate_pair_rejected(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("CD1 0 10 1\nCD1 0 10 0\n")
    with pytest.raises(DuplicateJudgmentError) as exc:
        load_qrels(path)
    assert exc.value.line_no == 2
    assert str(exc.value) == f"{path}:2: duplicate judgment for ('CD1', '10') (grades 1 and 0)"


def test_load_qrels_negative_grade(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("CD1 0 10 -1\n")
    with pytest.raises(NegativeGradeError) as exc:
        load_qrels(path)
    assert exc.value.line_no == 1
    assert str(exc.value) == f"{path}:1: negative grade -1"


def test_load_qrels_malformed(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("CD1 0 10\n")
    with pytest.raises(MalformedLineError):
        load_qrels(path)


_topic_ids = st.sampled_from(["CD1", "CD2", "CD3", "cd1", ""])


@settings(max_examples=200, deadline=None)
@given(
    judgments=st.dictionaries(st.tuples(_topic_ids, st.sampled_from("0123456789")),
                              st.integers(0, 3), max_size=30),
    lookups=st.lists(st.tuples(st.one_of(_topic_ids, st.just("unknown")),
                               st.integers(-1, 4)), max_size=8),
)
def test_qrels_lookups_equal_a_full_scan(judgments, lookups):
    qrels = Qrels(judgments)
    for topic_id, threshold in lookups:
        assert qrels.relevant_for(topic_id, threshold) == {
            pmid for (tid, pmid), grade in judgments.items()
            if tid == topic_id and grade >= threshold
        }
        assert qrels.relevant_for(topic_id) == {
            pmid for (tid, pmid), grade in judgments.items() if tid == topic_id and grade >= 1
        }
        assert qrels.judged_for(topic_id) == {pmid for (tid, pmid) in judgments if tid == topic_id}


def test_qrels_lookups_hand_out_fresh_sets():
    qrels = Qrels({("CD1", "10"): 1})
    qrels.relevant_for("CD1").add("99")
    qrels.judged_for("CD1").add("99")
    assert qrels.relevant_for("CD1") == qrels.judged_for("CD1") == {"10"}


# ---------------------------------------------------------------------------
# corpus and mesh
# ---------------------------------------------------------------------------

def test_load_corpus_doc_retrievable(corpus):
    doc = corpus.get("1001")
    assert doc is not None
    assert doc.title.startswith("Thyroid cancer screening")
    assert "Mass Screening" in doc.mesh_terms


def test_load_corpus_missing_pmid(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"title":"no pmid"}\n')
    with pytest.raises(MissingFieldError):
        load_corpus(path)


def test_load_corpus_duplicate_pmid(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"pmid":"1","title":"a"}\n{"pmid":"1","title":"b"}\n')
    with pytest.raises(MalformedLineError):
        load_corpus(path)


def test_iter_corpus_yields_the_loaded_docs_in_file_order(fixture_dir, corpus):
    docs = list(iter_corpus(fixture_dir / "corpus.jsonl"))
    assert [d.pmid for d in docs] == list(corpus.docs)
    assert docs == list(corpus.docs.values())


# Each bad line follows a good line and a blank one, so the reported line
# number counts blank lines too.
CORPUS_ERRORS = {
    "invalid-json": ('{"pmid":"1",', MalformedLineError),
    "not-an-object": ("5", MalformedLineError),
    "missing-pmid": ('{"title":"no pmid"}', MissingFieldError),
    "missing-title": ('{"pmid":"2"}', MissingFieldError),
    "non-string-title": ('{"pmid":"2","title":42}', MalformedLineError),
    "duplicate-pmid": ('{"pmid":"1","title":"b"}', MalformedLineError),
}
# Fields of the wrong type, which str() would once have turned into
# one-letter tags or the text of a list or object.
CORPUS_TYPE_ERRORS = {
    "string-mesh": ('{"pmid":"2","title":"t","mesh":"Neoplasms"}', "mesh must be a list"),
    "string-pub-types": ('{"pmid":"2","title":"t","pub_types":"Review"}', "pub_types must be"),
    "null-mesh": ('{"pmid":"2","title":"t","mesh":null}', "mesh must be a list"),
    "object-in-mesh": ('{"pmid":"2","title":"t","mesh":[{"a":1}]}', "mesh must be a list"),
    "number-in-pub-types": ('{"pmid":"2","title":"t","pub_types":["Review",3]}', "pub_types"),
    "list-abstract": ('{"pmid":"2","title":"t","abstract":["alpha","beta"]}', "abstract must"),
    "number-abstract": ('{"pmid":"2","title":"t","abstract":0}', "abstract must"),
    "null-pmid": ('{"pmid":null,"title":"t"}', "pmid must be a non-blank string or an integer"),
    "list-pmid": ('{"pmid":["2"],"title":"t"}', "pmid must be"),
    "bool-pmid": ('{"pmid":true,"title":"t"}', "pmid must be"),
    "float-pmid": ('{"pmid":1.5,"title":"t"}', "pmid must be"),
    "blank-pmid": ('{"pmid":" ","title":"t"}', "pmid must be"),
}
CORPUS_READERS = {"load_corpus": load_corpus, "iter_corpus": lambda p: list(iter_corpus(p))}


@pytest.mark.parametrize("reader", CORPUS_READERS.values(), ids=CORPUS_READERS)
@pytest.mark.parametrize("bad_line,error", CORPUS_ERRORS.values(), ids=CORPUS_ERRORS)
def test_corpus_readers_raise_the_same_error_at_the_same_line(tmp_path, reader, bad_line, error):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"pmid":"1","title":"a"}\n\n' + bad_line + "\n")
    with pytest.raises(error, match=f":3: ") as exc:
        reader(path)
    assert type(exc.value) is error
    if error is MalformedLineError:
        assert exc.value.line_no == 3


@pytest.mark.parametrize("reader", CORPUS_READERS.values(), ids=CORPUS_READERS)
@pytest.mark.parametrize("bad_line,reason", CORPUS_TYPE_ERRORS.values(), ids=CORPUS_TYPE_ERRORS)
def test_corpus_readers_reject_fields_of_the_wrong_type(tmp_path, reader, bad_line, reason):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"pmid":"1","title":"a","abstract":null,"mesh":[],"pub_types":["Review"]}'
                    "\n\n" + bad_line + "\n")
    with pytest.raises(MalformedLineError, match=f":3: {reason}") as exc:
        reader(path)
    assert exc.value.line_no == 3


# Lines the JSONL reader cannot decode.  400 good lines come first, more than
# the 8 KiB that text decoding reads ahead, so an error from the decoder would
# name an earlier line than the one holding the fault.
UNDECODABLE = {
    "not-utf-8": (b'{"pmid":"x","title":"caf\xff"}', "not UTF-8 at column 25"),
    "5000-digit-pmid": (b'{"pmid":' + b"9" * 5000 + b',"title":"t"}', "invalid JSON: Exceeds"),
    "nested-too-deep": (b'{"pmid":"x","title":"t","mesh":' + b"[" * 100_000 + b"]" * 100_000
                        + b"}", "invalid JSON: maximum recursion depth"),
}


@pytest.mark.parametrize("reader", CORPUS_READERS.values(), ids=CORPUS_READERS)
@pytest.mark.parametrize("bad_line,reason", UNDECODABLE.values(), ids=UNDECODABLE)
def test_corpus_readers_name_the_line_of_an_undecodable_value(tmp_path, reader, bad_line, reason):
    good = "".join(f'{{"pmid":"{i}","title":"café {i}"}}\n' for i in range(1, 401)).encode()
    assert len(good) > 8 * 1024
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(good + bad_line + b'\n{"pmid":"y","title":"t"}\n')
    with pytest.raises(MalformedLineError, match=f":401: {reason}") as exc:
        reader(path)
    assert exc.value.line_no == 401


def test_iter_corpus_yields_the_docs_before_a_bad_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"pmid":"1","title":"a"}\n{"pmid":"1","title":"b"}\n')
    docs = iter_corpus(path)
    assert next(docs).title == "a"
    with pytest.raises(MalformedLineError, match="duplicate pmid"):
        next(docs)


def test_load_mesh_lookup_is_case_insensitive(vocab):
    # Row straight from the fixture file.
    d = vocab.lookup("thrombelastography")
    assert d is not None
    assert d.ui == "D013926"
    assert d.tree_numbers == ("E01.370.225.998",)
    assert vocab.lookup("THROMBELASTOGRAPHY") == d
    assert vocab.lookup("Thrombelastography") == d


def test_load_mesh_zero_tree_numbers(tmp_path):
    path = tmp_path / "mesh.tsv"
    path.write_text("D1\tSomething\t\n")
    with pytest.raises(MalformedLineError):
        load_mesh(path)


def test_case_insensitive_lookup_property(vocab):
    for name in mesh_names(vocab):
        assert vocab.lookup(name) == vocab.lookup(name.lower())
        assert vocab.lookup(name) == vocab.lookup(name.upper())


def test_load_topics_rejects_non_string_title(tmp_path):
    path = tmp_path / "topics.jsonl"
    path.write_text('{"topic_id":"CD1","title":42}\n')
    with pytest.raises(MalformedLineError):
        load_topics(path)


def test_load_corpus_rejects_non_string_title(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"pmid":"1","title":42}\n')
    with pytest.raises(MalformedLineError):
        load_corpus(path)


def test_load_corpus_null_abstract_becomes_empty(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"pmid":"1","title":"ok","abstract":null}\n')
    assert load_corpus(path).get("1").abstract == ""
