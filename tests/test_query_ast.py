import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from randgen import random_query
from srquery import query_ast
from srquery.query_ast import (
    AdjacentTermsError,
    EmptyQueryError,
    FieldKind,
    FieldTag,
    MAX_NESTING,
    NestingTooDeepError,
    Op,
    Operator,
    Query,
    QueryParseError,
    Term,
    UnbalancedParenError,
    UnbalancedQuoteError,
    count_clauses,
    extract_mesh_terms,
    iter_terms,
    parse,
    serialize,
    sha256_hex,
    validate,
)

TEG_QUERY = json.loads(
    (Path(__file__).parent.parent / "src/srquery/data/hqe_example.json").read_text()
)["query"]


# ---------------------------------------------------------------------------
# parse
# ---------------------------------------------------------------------------

def test_parse_simple_structure():
    q = parse("(A[Title/Abstract] OR B[Title/Abstract]) AND C[MeSH]")
    root = q.root
    assert isinstance(root, Operator) and root.op is Op.AND
    inner, c = root.children
    assert isinstance(inner, Operator) and inner.op is Op.OR
    assert [t.text for t in iter_terms(inner)] == ["A", "B"]
    assert all(t.field.kind is FieldKind.TITLE_ABSTRACT for t in iter_terms(inner))
    assert isinstance(c, Term) and c.field.kind is FieldKind.MESH_EXPLODED


def test_parse_untagged_defaults_to_all_fields():
    q = parse("cancer")
    assert q.root == Term("cancer", FieldTag(FieldKind.ALL_FIELDS))


def test_parse_teg_query_from_fixture():
    q = parse(TEG_QUERY)
    mesh = extract_mesh_terms(q)
    assert mesh == [("Thrombelastography", False)]
    all_fields = [t for t in iter_terms(q.root) if t.field.kind is FieldKind.ALL_FIELDS]
    assert len(all_fields) >= 10
    # Curly-quoted phrase survives with its text intact.
    assert any(t.text == "tem international" for t in iter_terms(q.root))


def test_parse_unbalanced_bracket():
    with pytest.raises(UnbalancedParenError):
        parse("cancer[Title/Abstract")


def test_parse_unbalanced_paren():
    with pytest.raises(UnbalancedParenError):
        parse("(a AND b")
    with pytest.raises(UnbalancedParenError):
        parse("a AND b)")


def test_parse_unbalanced_quote():
    with pytest.raises(UnbalancedQuoteError):
        parse('"thyroid cancer')


def test_parse_adjacent_terms_is_an_error():
    with pytest.raises(AdjacentTermsError):
        parse("a[Title] b[Title]")
    with pytest.raises(AdjacentTermsError):
        parse('"some phrase" word')
    with pytest.raises(AdjacentTermsError):
        parse("thromb* elastom*")


def test_parse_empty_inputs():
    for text in ("", "   ", "\n"):
        with pytest.raises(EmptyQueryError):
            parse(text)


def test_parse_dangling_operator():
    with pytest.raises(QueryParseError):
        parse("a AND")
    with pytest.raises(QueryParseError):
        parse("OR a")
    with pytest.raises(QueryParseError):
        parse("NOT a")  # NOT is binary


# Exact error type, message and position: ingest and execute write str(e)
# into the run log, so these strings are part of its bytes.
PARSE_ERRORS = [
    ("a[tiab", UnbalancedParenError, "unclosed '[' field tag (at position 1)", 1),
    ("a]", UnbalancedParenError, "']' without matching '[' (at position 1)", 1),
    ('"a b', UnbalancedQuoteError, "unclosed quote (at position 0)", 0),
    ("“a b", UnbalancedQuoteError, "unclosed quote (at position 0)", 0),
    ('""', EmptyQueryError, "empty quoted phrase (at position 0)", 0),
    ("*", QueryParseError, "bare '*' is not a term (at position 0)", 0),
    ("a AND *\x0b*", QueryParseError, "bare '*' is not a term (at position 6)", 6),
    ('"* *"', EmptyQueryError, "empty quoted phrase (at position 0)", 0),
    ("”", UnbalancedQuoteError, "'”' without matching '“' (at position 0)", 0),
    ("a”b", UnbalancedQuoteError, "'”' without matching '“' (at position 1)", 1),
    ("(a AND b", UnbalancedParenError, "unclosed '(' (at position 0)", 0),
    ("a AND b)", UnbalancedParenError, "unexpected trailing input (at position 7)", 7),
    ("a AND", QueryParseError, "expected a term (at position 5)", 5),
    ("a[tiab] b[tiab]", AdjacentTermsError,
     "terms must be joined by AND/OR/NOT (at position 8)", 8),
    ('"a" b', AdjacentTermsError, "terms must be joined by AND/OR/NOT (at position 4)", 4),
    ("[tiab] a", QueryParseError, "field tag without a preceding term (at position 0)", 0),
    # The whole text is lexed before it is parsed: a lexical error anywhere
    # wins over an earlier parse error.
    ("AND a [", UnbalancedParenError, "unclosed '[' field tag (at position 6)", 6),
]


@pytest.mark.parametrize("text,error,message,pos", PARSE_ERRORS)
def test_parse_error_type_message_and_position(text, error, message, pos):
    with pytest.raises(QueryParseError) as exc:
        parse(text)
    assert type(exc.value) is error
    assert str(exc.value) == message
    assert exc.value.pos == pos


def test_parse_caps_the_nesting_depth():
    # Past the cap, a parse error with its position rather than a
    # RecursionError, so one such model answer fails only its own cell.
    with pytest.raises(NestingTooDeepError) as exc:
        parse("(" * 1000 + "a" + ")" * 1000)
    assert str(exc.value) == "query nests deeper than 100 levels (at position 100)"
    assert exc.value.pos == 100
    # The cap itself still parses, reached by parentheses or by a NOT chain.
    assert parse("(" * MAX_NESTING + "a" + ")" * MAX_NESTING).root == Term("a")
    chain = " NOT ".join(["a"] * (MAX_NESTING + 1))
    assert serialize(parse(chain)).count("NOT") == MAX_NESTING
    with pytest.raises(NestingTooDeepError):
        parse(chain + " NOT a")


def test_parse_tab_splits_a_word_but_vertical_tab_does_not():
    # A tab is a word break; \x0b is whitespace only between words.
    assert parse("a\tb[tiab]").root == Term("a b", FieldTag(FieldKind.TITLE_ABSTRACT))
    assert parse("a\x0bb").root == Term("a\x0bb")
    assert parse("\x0ba").root == Term("a")


TIAB = FieldTag(FieldKind.TITLE_ABSTRACT)


@pytest.mark.parametrize("text,root,serialized", [
    # A '*' after the closing quote truncates the phrase.
    ('"heart attack"*[tiab]', Term("heart attack", TIAB, truncated=True),
     '"heart attack*"[Title/Abstract]'),
    # Trailing whitespace that does not end a word is still skipped.
    ("a[tiab]\xa0", Term("a", TIAB), "a[Title/Abstract]"),
    ("a \x0b", Term("a"), "a[All Fields]"),
    # A term's text is stripped, and a trailing '*' truncates inside or
    # outside quotes, whitespace before it included.
    ("b\x0b", Term("b"), "b[All Fields]"),
    ("b\xa0*", Term("b", truncated=True), "b*[All Fields]"),
    ('"foo* "', Term("foo", truncated=True), "foo*[All Fields]"),
    ('"heart attack* "[tiab]', Term("heart attack", TIAB, truncated=True),
     '"heart attack*"[Title/Abstract]'),
    ('" heart attack **"*[tiab]', Term("heart attack", TIAB, truncated=True),
     '"heart attack*"[Title/Abstract]'),
])
def test_parse_tree_and_serialization(text, root, serialized):
    q = parse(text)
    assert q.root == root
    assert serialize(q) == serialized


# Outcomes recorded with the earlier character-by-character lexer, so any
# change to one is a change of behaviour: [text, serialization] or
# [text, error type, message, position].  24 rows changed when a term's text
# got one rule (stripped; a trailing '*' truncates, whitespace before it
# allowed), because their old serialization parsed to a different tree:
# 22 re-serialize, and "*\x0b*" and "and\x0b *\x0b " became the bare '*'
# error.  No error row changed.
# The texts are seeded: mutated serializations of random_query trees, random
# strings over brackets, quotes, '*', AND/OR/NOT, field tags and the
# whitespace that does not end a word (\t, \x0b, \xa0), and nesting around
# MAX_NESTING.
PARSE_GOLDEN = Path(__file__).parent / "fixtures" / "parse_golden.jsonl"


def test_parse_matches_the_golden_outcomes():
    errors = {e.__name__: e for e in (QueryParseError, UnbalancedParenError,
                                      UnbalancedQuoteError, AdjacentTermsError,
                                      EmptyQueryError, NestingTooDeepError)}
    rows = [json.loads(line) for line in PARSE_GOLDEN.read_text(encoding="utf-8").splitlines()]
    assert len(rows) > 1000
    for text, *outcome in rows:
        if len(outcome) == 1:
            assert serialize(parse(text)) == outcome[0], text
            continue
        error, message, pos = outcome
        with pytest.raises(QueryParseError) as exc:
            parse(text)
        assert type(exc.value) is errors[error], text
        assert str(exc.value) == f"{message} (at position {pos})", text
        assert exc.value.pos == pos, text


def test_parse_multiword_sequence_is_one_phrase():
    q = parse("differentiated thyroid cancer[MeSH]")
    assert q.root == Term("differentiated thyroid cancer", FieldTag(FieldKind.MESH_EXPLODED))


def test_parse_same_operator_collapses():
    q = parse("a OR b OR c")
    assert isinstance(q.root, Operator)
    assert q.root.op is Op.OR and len(q.root.children) == 3


def test_parse_mixed_operators_left_to_right():
    q = parse("a AND b OR c")
    assert q.root.op is Op.OR
    left = q.root.children[0]
    assert isinstance(left, Operator) and left.op is Op.AND


def test_parse_not_is_binary_left_associative():
    q = parse("a NOT b NOT c")
    assert q.root.op is Op.NOT and len(q.root.children) == 2
    left = q.root.children[0]
    assert isinstance(left, Operator) and left.op is Op.NOT


A, B, C, D = (Term(t) for t in "abcd")


@pytest.mark.parametrize("text, root", [
    ("(a OR b) OR c", Operator(Op.OR, (A, B, C))),
    ("a OR (b OR c)", Operator(Op.OR, (A, Operator(Op.OR, (B, C))))),
    ("a OR b AND c OR d",
     Operator(Op.OR, (Operator(Op.AND, (Operator(Op.OR, (A, B)), C)), D))),
    ("(a AND b) AND c NOT d AND a",
     Operator(Op.AND, (Operator(Op.NOT, (Operator(Op.AND, (A, B, C)), D)), A))),
    ("(a NOT b) NOT c OR d",
     Operator(Op.OR, (Operator(Op.NOT, (Operator(Op.NOT, (A, B)), C)), D))),
])
def test_parse_operator_runs_and_flattening(text, root):
    assert parse(text).root == root


def test_parse_builds_one_operator_per_same_operator_run(monkeypatch):
    built = []
    monkeypatch.setattr(Operator, "__post_init__", lambda self: built.append(self.op))
    parse("a OR b OR c OR (d AND e AND f) OR g NOT h NOT a")
    assert built == [Op.AND, Op.OR, Op.NOT, Op.NOT]


def test_field_tag_spellings_canonicalize():
    for raw, kind in [
        ("MeSH", FieldKind.MESH_EXPLODED),
        ("MeSH Terms", FieldKind.MESH_EXPLODED),
        ("mesh", FieldKind.MESH_EXPLODED),
        ("mesh:noexp", FieldKind.MESH_NOEXP),
        ("Title/Abstract", FieldKind.TITLE_ABSTRACT),
        ("tiab", FieldKind.TITLE_ABSTRACT),
        ("All Fields", FieldKind.ALL_FIELDS),
        ("pt", FieldKind.PUBLICATION_TYPE),
    ]:
        assert FieldTag.from_raw(raw).kind is kind, raw


def test_field_tag_spacing_and_case_variants():
    assert FieldTag.from_raw(" MeSH\t Terms:NoExp ") == FieldTag(FieldKind.MESH_NOEXP)
    assert FieldTag.from_raw("TIAB") == FieldTag(FieldKind.TITLE_ABSTRACT)
    assert FieldTag.from_raw(" Foo  Bar ") == FieldTag(FieldKind.OTHER, "Foo  Bar")


def test_field_tag_keeps_only_recognised_spellings():
    first = FieldTag.from_raw(" TiAb ")
    assert FieldTag.from_raw(" TiAb ") is first is query_ast._TAG_ALIASES["tiab"]
    assert FieldTag.from_raw("Model Tag 7") == FieldTag(FieldKind.OTHER, "Model Tag 7")


def test_unknown_tag_becomes_other():
    tag = FieldTag.from_raw("Supplementary Concept")
    assert tag.kind is FieldKind.OTHER and tag.raw == "Supplementary Concept"


# ---------------------------------------------------------------------------
# serialize
# ---------------------------------------------------------------------------

def test_serialize_canonical_form():
    assert serialize(parse("a AND b")) == "(a[All Fields] AND b[All Fields])"


def test_serialize_round_trips_the_parse():
    texts = [
        "a AND b",
        '("heart attack*"[tiab] OR infarct*[Title]) NOT review[pt]',
        TEG_QUERY,
        "differentiated thyroid cancer[MeSH] OR autopsy[mesh:noexp]",
    ]
    for text in texts:
        q = parse(text)
        assert parse(serialize(q)) == q


def test_serialize_is_a_fixed_point():
    q = parse(TEG_QUERY)
    once = serialize(q)
    assert serialize(parse(once)) == once


def test_serialize_quotes_operator_words():
    q = Query(Term("and"))
    assert parse(serialize(q)) == q


def test_round_trip_1000_random_asts():
    rng = random.Random(20230501)
    for _ in range(1000):
        q = random_query(rng, max_depth=5, max_terms=30)
        assert parse(serialize(q)) == q


# Letters, the whitespace that does and does not end a word, quotes, '*',
# brackets, a field tag and operator words: the texts whose terms once read
# back from their serialization as other terms.
ROUND_TRIP_PIECES = [*"abxyz", " ", " ", "\t", "\x0b", "\xa0", *'"“”*[]()',
                     "tiab", "AND", "or", "Not"]


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(ROUND_TRIP_PIECES), max_size=14).map("".join))
@example('"foo* "')
@example("b\x0b")
@example('"* *"')
def test_every_parsed_query_reads_back_from_its_serialization(text):
    try:
        q = parse(text)
    except QueryParseError:
        return
    once = serialize(q)
    assert parse(once) == q
    assert serialize(parse(once)) == once


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=120))
def test_parse_never_crashes_on_arbitrary_text(text):
    try:
        parse(text)
    except QueryParseError:
        pass  # structured failure is the contract


@settings(max_examples=300, deadline=None)
@given(st.text() | st.text(st.characters(min_codepoint=0x10000)))
@example("")
@example("“point of care”[tiab] AND \U0001F9EA")
def test_sha256_hex_equals_hashlib(text):
    assert sha256_hex(text) == hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# inspection
# ---------------------------------------------------------------------------

def test_count_clauses_single_term():
    stats = count_clauses(parse("cancer"))
    assert (stats.term_count, stats.or_operator_count, stats.max_depth) == (1, 0, 1)


def test_count_clauses_flat_or_under_and():
    stats = count_clauses(parse("(a OR b OR c) AND d"))
    assert (stats.term_count, stats.or_operator_count, stats.max_depth) == (4, 1, 2)


def test_count_clauses_teg_query_hand_counted():
    # Counted by hand from the fixture text: 16 leaf terms, 3 OR groups,
    # ANDed pairs nested two levels below the root OR.
    stats = count_clauses(parse(TEG_QUERY))
    assert stats.term_count == 16
    assert stats.or_operator_count == 3
    assert stats.max_depth == 3


def test_extract_mesh_terms_order_and_flags():
    q = parse("autopsy[MeSH] AND (x[tiab] OR Thrombelastography[mesh:noexp])")
    assert extract_mesh_terms(q) == [("autopsy", True), ("Thrombelastography", False)]


def test_extract_mesh_terms_empty_without_mesh_fields():
    assert extract_mesh_terms(parse("a AND b[Title]")) == []


def test_mesh_extraction_never_exceeds_term_count():
    rng = random.Random(7)
    for _ in range(200):
        q = random_query(rng, max_depth=4, max_terms=15)
        assert len(extract_mesh_terms(q)) <= count_clauses(q).term_count


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_other_tag_warns():
    report = validate(parse("term[Foo]"))
    assert report.ok
    assert [w.code for w in report.warnings] == ["unknown-field-tag"]


def test_validate_mesh_in_vocab_ok(vocab):
    report = validate(parse("Thrombelastography[mesh:noexp]"), vocab)
    assert report.ok and not report.warnings


def test_validate_mesh_missing_from_vocab_warns(vocab):
    report = validate(parse("differentiated thyroid cancer[MeSH]"), vocab)
    codes = [w.code for w in report.warnings]
    assert codes == ["mesh-not-in-vocabulary"]


def test_validate_short_truncation_stem_warns():
    report = validate(parse("te*[tiab]"))
    assert any(w.code == "short-truncation-stem" for w in report.warnings)


def test_validate_matches_linear_leaf_scan(vocab):
    rng = random.Random(99)
    for _ in range(200):
        q = random_query(rng, max_depth=4, max_terms=12)
        report = validate(q, vocab)
        expected = []
        for t in iter_terms(q.root):
            if t.field.kind is FieldKind.OTHER:
                expected.append("unknown-field-tag")
            if t.truncated and len(t.text.replace(" ", "")) < 3:
                expected.append("short-truncation-stem")
            if t.field.kind in (FieldKind.MESH_EXPLODED, FieldKind.MESH_NOEXP) \
                    and vocab.lookup(t.text) is None:
                expected.append("mesh-not-in-vocabulary")
        assert sorted(w.code for w in report.warnings) == sorted(expected)


@pytest.mark.parametrize("term", [Term('a"b'), Term("x", FieldTag(FieldKind.OTHER, "a]b"))],
                         ids=["quote-in-text", "bracket-in-tag"])
def test_validate_reports_why_serialize_refuses_a_term(term):
    with pytest.raises(ValueError) as exc:
        serialize(Query(term))
    report = validate(Query(term))
    assert [(e.code, e.message) for e in report.errors] == [("unserializable-term", str(exc.value))]
    assert report.warnings == ()


def test_unserializable_other_tag_is_an_error():
    bad = Query(Term("x", FieldTag(FieldKind.OTHER, "a]b")))
    report = validate(bad)
    assert not report.ok
    assert report.errors[0].code == "unserializable-term"
    with pytest.raises(ValueError):
        serialize(bad)


def test_invariant_not_arity_enforced():
    with pytest.raises(ValueError):
        Operator(Op.NOT, (Term("a"),))
    with pytest.raises(ValueError):
        Operator(Op.AND, (Term("a"),))
    with pytest.raises(ValueError):
        Term("")
