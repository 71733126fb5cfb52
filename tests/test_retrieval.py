import dataclasses
import gc
import random
import re
import weakref
from functools import partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from randgen import (
    HARD_TOKENS,
    WORDS,
    fixture_vocab,
    mesh_names,
    random_corpus,
    random_hard_corpus,
    random_hard_query,
    random_hard_term,
    random_query,
    random_retrieval_query,
    random_term,
    random_tree_vocab,
)
from srquery.collections import (
    Corpus, CorpusDoc, MeshDescriptor, MeshVocab, iter_corpus, load_corpus, load_mesh,
)
from srquery.query_ast import (
    FieldKind, FieldTag, Op, Operator, Query, Term, iter_terms, parse, validate,
)
from srquery.retrieval import (
    Index,
    InvalidQueryError,
    UnknownDescriptorError,
    build_index,
    execute_local,
    execute_naive,
    explode_mesh,
    tokenize,
    _alternation,
    _phrase_at,
)


def mini_corpus(**titles: str) -> Corpus:
    return Corpus({
        pmid: CorpusDoc(pmid=pmid, title=title) for pmid, title in titles.items()
    })


# ---------------------------------------------------------------------------
# build_index
# ---------------------------------------------------------------------------

def test_empty_corpus_answers_empty(vocab):
    idx = build_index(Corpus({}), vocab)
    assert execute_local(idx, parse("anything[tiab] OR other[MeSH]")) == set()


def test_title_token_posting():
    idx = build_index(mini_corpus(p1="Thyroid cancer"))
    assert idx.postings["title"]["thyroid"] == ["p1"]


def test_rebuild_same_corpus_same_digest(corpus, vocab):
    assert build_index(corpus, vocab) == build_index(corpus, vocab)


# ---------------------------------------------------------------------------
# execute_local semantics
# ---------------------------------------------------------------------------

def test_single_doc_title_abstract_match():
    idx = build_index(mini_corpus(p1="advanced cancer staging"))
    assert execute_local(idx, parse("cancer[Title/Abstract]")) == {"p1"}
    assert execute_local(idx, parse("cancer[Title]")) == {"p1"}
    assert execute_local(idx, parse("melanoma[Title/Abstract]")) == set()


def test_or_not_set_algebra():
    # Hand-computed: (a OR b) = {1,2,3}; NOT b removes {2,3} -> {1}.
    idx = build_index(mini_corpus(**{"1": "a only", "2": "b only", "3": "a b both"}))
    assert execute_local(idx, parse("(a OR b) NOT b")) == {"1"}


def test_phrase_requires_adjacency():
    idx = build_index(mini_corpus(p1="point of care testing", p2="care point testing of"))
    assert execute_local(idx, parse('"point of care"[Title]')) == {"p1"}


def test_truncation_prefix_match():
    idx = build_index(mini_corpus(p1="elastography report", p2="elastic bands"))
    assert execute_local(idx, parse("elasto*[Title]")) == {"p1"}
    assert execute_local(idx, parse("elast*[Title]")) == {"p1", "p2"}


def test_phrase_with_trailing_truncation():
    idx = build_index(mini_corpus(p1="thyroid cancers cohort", p2="thyroid condition"))
    assert execute_local(idx, parse('"thyroid cancer*"[Title]')) == {"p1"}


def test_mesh_noexp_exact_only(corpus, vocab):
    idx = build_index(corpus, vocab)
    # 1007 is tagged exactly Thrombelastography; no descendants involved.
    assert execute_local(idx, parse("Thrombelastography[mesh:noexp]")) == {"1007"}


def test_mesh_explosion_includes_descendants(corpus, vocab):
    idx = build_index(corpus, vocab)
    exploded = execute_local(idx, parse("Neoplasms[MeSH]"))
    noexp = execute_local(idx, parse("Neoplasms[mesh:noexp]"))
    # No document is tagged with the root itself, but descendants are.
    assert noexp == set()
    assert {"1001", "1002", "1008", "1009", "1012"} == exploded


def test_all_fields_sees_mesh_names(corpus, vocab):
    idx = build_index(corpus, vocab)
    hits = execute_local(idx, parse("thrombelastography"))
    assert "1007" in hits


def test_publication_type_match(corpus, vocab):
    idx = build_index(corpus, vocab)
    assert execute_local(idx, parse("Meta-Analysis[Publication Type]")) == {"1012"}
    assert execute_local(idx, parse("review[pt]")) == {"1004"}


def test_unknown_tag_executes_as_all_fields(corpus, vocab):
    idx = build_index(corpus, vocab)
    assert execute_local(idx, parse("thyroid[Foo]")) == execute_local(idx, parse("thyroid"))


def test_invalid_query_refused(corpus, vocab):
    idx = build_index(corpus, vocab)
    bad = Query(Term('say "hi"'))
    with pytest.raises(InvalidQueryError):
        execute_local(idx, bad)
    with pytest.raises(InvalidQueryError):
        execute_naive(corpus, bad, vocab)


@pytest.mark.parametrize("engine", ["local", "naive", "validate"])
def test_what_an_engine_reads_dies_with_its_last_reference(corpus, fixture_dir, engine):
    """No reference cycle holds the index or the vocabulary after a query,
    so each is freed without the cyclic collector."""
    q = parse("(thyroid[tiab] OR Neoplasms[MeSH] OR Carcinoma[mesh:noexp]) NOT nodule*[tiab]")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        held = load_mesh(fixture_dir / "mesh.tsv")
        if engine == "local":
            held = build_index(corpus, held)
            assert execute_local(held, q)
        elif engine == "naive":
            assert execute_naive(corpus, q, held)
        else:
            assert validate(q, held).ok
        ref = weakref.ref(held)
        del held
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# explode_mesh
# ---------------------------------------------------------------------------

def test_padded_tree_numbers_are_stripped_and_explode_in_both_engines(tmp_path):
    path = tmp_path / "mesh.tsv"
    path.write_text("D009369\tNeoplasms\tC04\nD002277\t Carcinoma \t C04.557 ; E01\n")
    vocab = load_mesh(path)
    assert vocab.lookup("carcinoma") == MeshDescriptor(
        name="Carcinoma", ui="D002277", tree_numbers=("C04.557", "E01"))
    assert explode_mesh(vocab, "Neoplasms") == {"Neoplasms", "Carcinoma"}
    corpus = Corpus({"1": CorpusDoc("1", "a case series", mesh_terms=("Carcinoma",))})
    q = parse("Neoplasms[MeSH]")
    assert execute_local(build_index(corpus, vocab), q) == {"1"}
    assert execute_naive(corpus, q, vocab) == {"1"}


def test_explode_leaf_is_itself(vocab):
    assert explode_mesh(vocab, "Autopsy") == {"Autopsy"}


def test_explode_includes_tree_descendants(vocab):
    exploded = explode_mesh(vocab, "Neoplasms")
    assert {"Neoplasms", "Carcinoma", "Thyroid Neoplasms", "Thyroid Nodule"} <= exploded
    assert "Autopsy" not in exploded
    # Dot-boundary only: C04.557 under C04, but E01.370.225.998 is not
    # under E01.370.225.5 style truncations.
    assert explode_mesh(vocab, "Carcinoma") == {"Carcinoma", "Carcinoma, Papillary"}


# Siblings C04.5, C04.55 and C04.550 share a string prefix; Alpha also sits
# at a second tree number.
DOT_BOUNDARY_VOCAB = MeshVocab({
    name.lower(): MeshDescriptor(name=name, ui=f"U{i}", tree_numbers=trees)
    for i, (name, trees) in enumerate([
        ("Alpha", ("C04.5", "E01.2")),
        ("Beta", ("C04.55",)),
        ("Gamma", ("C04.5.1",)),
        ("Delta", ("C04.550.5",)),
        ("Epsilon", ("E01.2.7",)),
        ("Zeta", ()),
    ])
})


def test_exploded_lookup_equals_explode_mesh(vocab):
    vocabs = [vocab, fixture_vocab(), random_tree_vocab(random.Random(616161)), DOT_BOUNDARY_VOCAB]
    for v in vocabs:
        names = mesh_names(v)
        # One document per descriptor: an exploded query must return exactly
        # the documents of the names explode_mesh lists.
        idx = build_index(Corpus({
            str(i): CorpusDoc(pmid=str(i), title="", mesh_terms=(name,))
            for i, name in enumerate(names)
        }), v)
        for name in names:
            exploded = explode_mesh(v, name)
            expected = {str(i) for i, other in enumerate(names) if other in exploded}
            term = Term(name, FieldTag(FieldKind.MESH_EXPLODED))
            assert execute_local(idx, Query(term)) == expected, name
    assert explode_mesh(DOT_BOUNDARY_VOCAB, "Alpha") == {"Alpha", "Gamma", "Epsilon"}


def test_explode_unknown_descriptor(vocab):
    with pytest.raises(UnknownDescriptorError):
        explode_mesh(vocab, "No Such Descriptor")


# ---------------------------------------------------------------------------
# oracle equivalence and algebraic invariants
# ---------------------------------------------------------------------------

def test_local_equals_naive_on_100_random_instances():
    rng = random.Random(424242)
    vocab = fixture_vocab()
    for _ in range(100):
        corpus = random_corpus(rng, max_docs=200)
        idx = build_index(corpus, vocab)
        q = random_retrieval_query(rng, max_depth=4)
        assert execute_local(idx, q) == execute_naive(corpus, q, vocab)


def test_local_equals_naive_on_hard_random_instances():
    # Deep trees with prefix-sharing siblings, repeated-token and truncated
    # phrases, fields shorter than the phrase, phrases across two MeSH
    # names, truncated MeSH and publication types.
    rng = random.Random(515151)
    for _ in range(150):
        vocab = random_tree_vocab(rng)
        corpus = random_hard_corpus(rng, vocab, max_docs=60)
        idx = build_index(corpus, vocab)
        for _ in range(3):
            q = random_hard_query(rng, vocab)
            assert execute_local(idx, q) == execute_naive(corpus, q, vocab)


@pytest.mark.parametrize("vocab", [None, DOT_BOUNDARY_VOCAB], ids=["no-vocab", "vocab-lacks-it"])
@pytest.mark.parametrize("text", ["Foo[mesh:noexp]", "Foo[MeSH]", "Fo*[MeSH]"])
def test_a_padded_mesh_tag_matches_in_both_engines(vocab, text):
    # A tag the vocabulary lacks is keyed by its own name, stripped and
    # lowercased, in both engines.
    corpus = Corpus({"p1": CorpusDoc("p1", "t", mesh_terms=(" Foo ",))})
    q = parse(text)
    assert execute_naive(corpus, q, vocab) == {"p1"}
    assert execute_local(build_index(corpus, vocab), q) == {"p1"}


def stem_or_hard_term(rng: random.Random, vocab: MeshVocab) -> Term:
    # The hard generator truncates only phrases; a one-token stem such as
    # "ab*" reaches the prefix expansion of a query-driven build.  Only the
    # MeSH tag "Unlisted Ab" holds "unlisted".
    if rng.random() < 0.25:
        token = rng.choice(HARD_TOKENS + ["unlisted"])
        field = rng.choice([FieldTag(FieldKind.TITLE), FieldTag(FieldKind.TITLE_ABSTRACT),
                            FieldTag(FieldKind.ALL_FIELDS)])
        return Term(token[: rng.randint(1, len(token))], field, truncated=True)
    return random_hard_term(rng, vocab)


def query_driven_instances(seed: int, hard: int, plain: int):
    """(corpus, vocab, queries) triples: hard instances with one-token stems
    mixed in, then plain ones over the fixture vocabulary."""
    rng = random.Random(seed)
    for _ in range(hard):
        vocab = random_tree_vocab(rng)
        corpus = random_hard_corpus(rng, vocab, max_docs=60)
        make_term = partial(stem_or_hard_term, vocab=vocab)
        yield corpus, vocab, [random_query(rng, max_depth=3, max_terms=8, make_term=make_term)
                              for _ in range(rng.randint(1, 4))]
    vocab = fixture_vocab()
    for _ in range(plain):
        corpus = random_corpus(rng, max_docs=80)
        yield corpus, vocab, [random_retrieval_query(rng, max_depth=4)
                              for _ in range(rng.randint(1, 4))]


# The index fields a term reads, by field kind.
FIELDS_READ = {
    FieldKind.TITLE: {"title"},
    FieldKind.TITLE_ABSTRACT: {"title", "abstract"},
    FieldKind.ALL_FIELDS: {"title", "abstract", "mesh"},
    FieldKind.OTHER: {"title", "abstract", "mesh"},
    FieldKind.MESH_EXPLODED: {"descriptor"},
    FieldKind.MESH_NOEXP: {"descriptor"},
    FieldKind.PUBLICATION_TYPE: {"pub_type"},
}


def fields_read(queries) -> set[str]:
    return {field for q in queries for t in iter_terms(q.root)
            for field in FIELDS_READ[t.field.kind]}


def whole_parts(idx: Index) -> dict[str, tuple]:
    """The parts of an index that a query-driven build makes whole when a
    query reads their field, and leaves empty when none does."""
    return {"descriptor": (idx.postings["descriptor"], idx.mesh_trees),
            "pub_type": (idx.postings["pub_type"],),
            "mesh": (idx.mesh_names,)}


def assert_unread_fields_empty(idx: Index, read: set[str]) -> None:
    for field in set(idx.postings) - read:
        assert idx.postings[field] == {} and idx.sorted_keys[field] == (), field
    for field in set(idx.texts) - read:
        assert idx.texts[field] == {}, field
    for field, parts in whole_parts(idx).items():
        assert field in read or not any(parts), field


def test_query_driven_index_equals_naive():
    for corpus, vocab, queries in query_driven_instances(626262, hard=150, plain=100):
        idx = build_index(corpus, vocab, queries=queries)
        for q in queries:
            assert execute_local(idx, q) == execute_naive(corpus, q, vocab)


def test_query_driven_index_posts_only_query_tokens():
    text_kinds = {FieldKind.TITLE, FieldKind.TITLE_ABSTRACT, FieldKind.ALL_FIELDS, FieldKind.OTHER}
    dropped = texts_dropped = 0
    for corpus, vocab, queries in query_driven_instances(727272, hard=60, plain=40):
        terms = [t for q in queries for t in iter_terms(q.root) if t.field.kind in text_kinds]
        exact = {tok for t in terms for tok in tokenize(t.text)}
        stems = tuple(tokenize(t.text)[-1] for t in terms if t.truncated and tokenize(t.text))
        full = build_index(corpus, vocab)
        idx = build_index(corpus, vocab, queries=queries)
        for field in ("title", "abstract", "mesh"):
            for tok, pmids in idx.postings[field].items():
                assert tok in exact or tok.startswith(stems), (field, tok)
                assert pmids == full.postings[field][tok]
            dropped += len(full.postings[field]) - len(idx.postings[field])
        read, whole = fields_read(queries), whole_parts(full)
        for field, parts in whole_parts(idx).items():
            assert parts == (whole[field] if field in read else tuple(type(p)() for p in parts))
        # Stored texts are whole, and every text a phrase check reads is
        # stored: a field holding each exactly matched token of a phrase.
        for field, stored in idx.texts.items():
            assert all(text == full.texts[field][pmid] for pmid, text in stored.items())
            texts_dropped += len(full.texts[field]) - len(stored)
        for t in terms:
            tokens = tokenize(t.text)
            if len(tokens) < 2:
                continue
            needed = set(tokens[:-1] if t.truncated else tokens)
            for field in ["title"] if t.field.kind is FieldKind.TITLE else ["title", "abstract"]:
                for pmid, text in full.texts[field].items():
                    if needed <= set(text.split()):
                        assert idx.texts[field][pmid] == text, (field, pmid, t.text)
    assert dropped > 0 and texts_dropped > 0
    idx = build_index(mini_corpus(p1="thyroid cancer screening"), queries=[parse("cancer[tiab]")])
    assert idx.postings["title"] == {"cancer": ["p1"]}
    # A stem's expansions come from every field's tokens.
    corpus = Corpus({
        "p1": CorpusDoc(pmid="p1", title="elastography report"),
        "p2": CorpusDoc(pmid="p2", title="", abstract="elastic bands"),
        "p3": CorpusDoc(pmid="p3", title="", mesh_terms=("Elastin",)),
    })
    idx = build_index(corpus, queries=[parse("elast*")])
    assert execute_local(idx, parse("elast*")) == {"p1", "p2", "p3"}
    assert {field: list(idx.postings[field]) for field in ("title", "abstract", "mesh")} == {
        "title": ["elastography"], "abstract": ["elastic"], "mesh": ["elastin"]}


@pytest.mark.parametrize("kinds", [
    {FieldKind.TITLE},
    {FieldKind.TITLE_ABSTRACT},
    {FieldKind.MESH_EXPLODED, FieldKind.MESH_NOEXP},
    {FieldKind.PUBLICATION_TYPE},
    set(FieldKind),
], ids=["ti", "tiab", "mesh", "pt", "mixed"])
def test_build_for_one_kind_of_term_equals_naive_and_builds_no_other_field(kinds):
    rng = random.Random(818181)
    built = set()
    for _ in range(40):
        vocab = random_tree_vocab(rng)
        corpus = random_hard_corpus(rng, vocab, max_docs=60)

        def make_term(rng: random.Random) -> Term:
            while (term := stem_or_hard_term(rng, vocab)).field.kind not in kinds:
                pass
            return term
        queries = [random_query(rng, max_depth=3, max_terms=8, make_term=make_term)
                   for _ in range(rng.randint(1, 4))]
        idx = build_index(corpus, vocab, queries=queries)
        for q in queries:
            assert execute_local(idx, q) == execute_naive(corpus, q, vocab)
        read = fields_read(queries)
        assert_unread_fields_empty(idx, read)
        built |= read
    assert built == set().union(*(FIELDS_READ[kind] for kind in kinds))


def test_title_only_build_holds_no_other_field(vocab):
    corpus = Corpus({"p1": CorpusDoc(
        pmid="p1", title="thyroid cancer", abstract="cancer screening",
        mesh_terms=("Thyroid Neoplasms",), pub_types=("Review",))})
    idx = build_index(corpus, vocab, queries=[parse("cancer[ti]")])
    assert idx.postings["title"] == {"cancer": ["p1"]}
    for field in ("abstract", "mesh", "descriptor", "pub_type"):
        assert idx.postings[field] == {} and idx.sorted_keys[field] == ()
    assert idx.texts == {"title": {}, "abstract": {}}
    assert idx.mesh_names == {}
    assert idx.mesh_trees == ()
    assert execute_local(idx, parse("cancer[ti]")) == {"p1"}


def test_streamed_build_equals_loaded_build(fixture_dir, topics, vocab):
    path = fixture_dir / "corpus.jsonl"
    queries = [parse(t.original_query) for t in topics if t.original_query]
    streamed = build_index(iter_corpus(path), vocab, queries=queries)
    loaded = build_index(load_corpus(path), vocab, queries=queries)
    for field in dataclasses.fields(Index):
        assert getattr(streamed, field.name) == getattr(loaded, field.name), field.name


def prefix_stem_term(rng: random.Random) -> Term:
    """A one-token stem cut from a word at a random length, so a handful of
    queries holds dozens of stems that prefix one another or share leading
    characters ("t", "th", "thy", "te", "tr" ...)."""
    word = rng.choice(WORDS + HARD_TOKENS)
    field = rng.choice([FieldTag(FieldKind.TITLE), FieldTag(FieldKind.TITLE_ABSTRACT),
                        FieldTag(FieldKind.ALL_FIELDS)])
    return Term(word[: rng.randint(1, len(word))], field, truncated=True)


def test_query_driven_index_with_many_prefix_sharing_stems_equals_naive():
    rng = random.Random(929292)
    vocab = fixture_vocab()
    make_term = lambda r: prefix_stem_term(r) if r.random() < 0.7 else random_term(r)
    nested = 0
    for _ in range(40):
        corpus = random_corpus(rng, max_docs=80)
        queries = [random_query(rng, max_depth=3, max_terms=12, make_term=make_term)
                   for _ in range(6)]
        stems = {t.text for q in queries for t in iter_terms(q.root)
                 if t.truncated and len(tokenize(t.text)) == 1}
        assert len(stems) >= 10 and len({stem[0] for stem in stems}) < len(stems)
        nested += any(a != b and b.startswith(a) for a in stems for b in stems)
        idx = build_index(corpus, vocab, queries=queries)
        for q in queries:
            assert execute_local(idx, q) == execute_naive(corpus, q, vocab)
    assert nested >= 10


# Words and stems over a 3-letter alphabet prefix each other, and a stem
# often equals an exact word; the empty draw of exact words keeps the
# stems-only pattern checked.
WORD_SETS = st.sets(st.text("abc", min_size=1, max_size=4), max_size=12)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.just(set()), WORD_SETS), WORD_SETS,
       st.lists(st.text("abcd", max_size=6), max_size=20))
def test_stem_alternation_matches_exactly_the_tokens_under_a_stem(exact, stems, tokens):
    assume(exact or stems)
    find_posted = re.compile(f" ({_alternation(exact, stems)})").findall
    expected = [t for t in tokens if t in exact or (t and t.startswith(tuple(stems)))]
    assert find_posted(" " + " ".join(tokens) + " ") == expected, (exact, stems, tokens)


def test_query_driven_build_pinned_cases():
    corpus = Corpus({
        "p1": CorpusDoc(pmid="p1", title="cancer screening", abstract="can we screen"),
        "p2": CorpusDoc(pmid="p2", title="screening can", abstract="thyroid cancers"),
        "p3": CorpusDoc(pmid="p3", title="Thyroid screening", abstract="canine"),
        "p4": CorpusDoc(pmid="p4", title="Cancer Screening tests",
                        mesh_terms=("Thyroid Neoplasms",)),
    })
    vocab = fixture_vocab()
    cases = [
        "can[tiab]",                      # exact "can" must not post "cancer"
        "cancer[tiab] OR canc*[ti]",      # "cancer" is exact and under a stem
        "can[tiab] OR can*[tiab]",        # a stem equal to an exact word
        '"cancer screening"[ti] OR "screening can"[ti]',  # first and last token
        '"thyroid cancers"[tiab] OR thyroid[All Fields] OR neoplasms*',
    ]
    full = build_index(corpus, vocab)
    for text in cases:
        q = parse(text)
        idx = build_index(corpus, vocab, queries=[q])
        assert execute_local(idx, q) == execute_local(full, q) == execute_naive(corpus, q, vocab)
        for field in ("title", "abstract", "mesh"):
            for tok, pmids in idx.postings[field].items():
                assert pmids == full.postings[field][tok], (text, field, tok)
    idx = build_index(corpus, vocab, queries=[parse("can[tiab]")])
    assert idx.postings["title"] == {"can": ["p2"]}
    assert idx.postings["abstract"] == {"can": ["p1"]}
    idx = build_index(corpus, vocab, queries=[parse("cancer[tiab] OR canc*[ti]")])
    assert idx.postings["title"] == {"cancer": ["p1", "p4"]}
    assert idx.postings["abstract"] == {"cancers": ["p2"]}
    idx = build_index(corpus, vocab, queries=[parse('"screening can"[ti]')])
    assert idx.texts["title"] == {"p2": " screening can "}


def test_query_driven_build_folds_non_ascii_case():
    # İ lowercases to i + U+0307, so "İnk" holds the token "i" and then "nk";
    # the Kelvin sign lowercases to k.
    corpus = Corpus({
        "p1": CorpusDoc(pmid="p1", title="\u0130nk \u212aappa Tests"),
        "p2": CorpusDoc(pmid="p2", title="ink kappa tests"),
        "p3": CorpusDoc(pmid="p3", title="TESTS OF \u212aAPPA"),
    })
    assert tokenize(corpus.docs["p1"].title) == ["i", "nk", "kappa", "tests"]
    full = build_index(corpus)
    for text in ("kappa[ti]", "nk[ti] OR i[ti]", '"kappa tests"[ti]', "kap*[ti] AND ink[ti]",
                 '"of kappa"[ti]'):
        q = parse(text)
        idx = build_index(corpus, queries=[q])
        assert execute_local(idx, q) == execute_local(full, q) == execute_naive(corpus, q)
    idx = build_index(corpus, queries=[parse('"kappa tests"[ti] OR nk[ti]')])
    assert idx.postings["title"] == {"kappa": ["p1", "p2", "p3"], "tests": ["p1", "p2", "p3"],
                                     "nk": ["p1"]}
    assert idx.texts["title"] == {"p1": " i nk kappa tests ", "p2": " ink kappa tests ",
                                  "p3": " tests of kappa "}


# The index verifies a phrase by substring search in spaced texts; the
# oracle compares token windows.  Texts mix separators, digits, upper case
# and characters whose lowercase form changes length or leaves [a-z0-9]
# (İ -> i + U+0307, the Kelvin sign -> k); tokens repeat and prefix each
# other.
PHRASE_TOKENS = ("popi", "pop", "nezadi", "kap", "p1")
PHRASE_VARIANTS = ("POPI", "Nezadi", "\u212aAP", "popİ", "xpopi", "popipopi")
PHRASE_NOISE = "ab_-.\n 1PİK\u212aßé"


def indexed_phrase_agrees(text: str, tokens: list[str], truncated: bool) -> bool:
    idx = build_index(mini_corpus(p=text))
    term = Term(" ".join(tokens), FieldTag(FieldKind.TITLE), truncated=truncated)
    found = execute_local(idx, Query(term)) == {"p"}
    assert found == _phrase_at(tuple(tokenize(text)), tokens, truncated), (text, tokens, truncated)
    return found


@st.composite
def phrase_cases(draw):
    tokens = draw(st.lists(st.sampled_from(PHRASE_TOKENS), min_size=2, max_size=4))
    separator = st.one_of(st.just(" "), st.text(alphabet=PHRASE_NOISE, max_size=3))
    # Words are the phrase's own tokens, their variants, or the whole phrase
    # with drawn separators, so that matches and near misses are common.
    whole = st.lists(separator, min_size=len(tokens) - 1, max_size=len(tokens) - 1).map(
        lambda seps: tokens[0] + "".join(sep + tok for sep, tok in zip(seps, tokens[1:]))
    )
    word = st.one_of(st.sampled_from(tokens), st.sampled_from(PHRASE_VARIANTS), whole)
    pieces = draw(st.lists(st.tuples(word, separator), max_size=8))
    return "".join(w + sep for w, sep in pieces), tokens, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(phrase_cases())
def test_indexed_phrase_equals_phrase_at(case):
    indexed_phrase_agrees(*case)


@pytest.mark.parametrize("text, tokens, truncated, found", [
    ("xpopi nezadi", ["popi", "nezadi"], False, False),
    ("popi_nezadi", ["popi", "nezadi"], False, True),
    ("popipopi nezadi", ["popi", "nezadi"], False, False),
    ("popi popi nezadi", ["popi", "nezadi"], False, True),
    ("popi nezadi and more", ["popi", "nezadi"], False, True),
    ("and more POPI-nezadi", ["popi", "nezadi"], False, True),
    ("popi nezadix", ["popi", "nezadi"], False, False),
    ("popi nezadix", ["popi", "nezadi"], True, True),
    ("popi nezad", ["popi", "nezadi"], True, False),
])
def test_indexed_phrase_pinned_cases(text, tokens, truncated, found):
    assert indexed_phrase_agrees(text, tokens, truncated) is found


def test_naive_empty_corpus():
    assert execute_naive(Corpus({}), parse("a OR b")) == set()


def test_query_matching_every_doc():
    corpus = mini_corpus(p1="shared token", p2="shared word")
    assert execute_naive(corpus, parse("shared[Title]")) == {"p1", "p2"}


def _random_instances(n, seed):
    rng = random.Random(seed)
    vocab = fixture_vocab()
    for _ in range(n):
        corpus = random_corpus(rng, max_docs=80)
        idx = build_index(corpus, vocab)
        q = random_retrieval_query(rng, max_depth=3)
        extra = random_term(rng)
        yield rng, corpus, idx, q, extra


def test_or_clause_never_shrinks_results():
    for rng, corpus, idx, q, extra in _random_instances(60, 11):
        base = execute_local(idx, q)
        widened = execute_local(idx, Query(Operator(Op.OR, (q.root, extra))))
        assert base <= widened


def test_and_clause_never_grows_results():
    for rng, corpus, idx, q, extra in _random_instances(60, 12):
        base = execute_local(idx, q)
        narrowed = execute_local(idx, Query(Operator(Op.AND, (q.root, extra))))
        assert narrowed <= base


def test_not_results_disjoint_from_subtrahend():
    for rng, corpus, idx, q, extra in _random_instances(60, 13):
        difference = execute_local(idx, Query(Operator(Op.NOT, (q.root, extra))))
        removed = execute_local(idx, Query(extra))
        assert difference & removed == set()


def test_noexp_subset_of_exploded():
    vocab = fixture_vocab()
    rng = random.Random(14)
    for _ in range(30):
        corpus = random_corpus(rng, max_docs=80)
        idx = build_index(corpus, vocab)
        for name in ("Neoplasms", "Carcinoma", "Thyroid Neoplasms", "Autopsy"):
            noexp = execute_local(idx, parse(f"{name}[mesh:noexp]"))
            exploded = execute_local(idx, parse(f"{name}[MeSH]"))
            assert noexp <= exploded


def test_tokenizer_keeps_digits_no_stemming():
    assert tokenize("COVID-19 vaccines; 2nd dose!") == ["covid", "19", "vaccines", "2nd", "dose"]


def regex_tokens(text: str) -> list[str]:
    # The tokenizer's definition: maximal runs of [a-z0-9] after lower().
    return re.findall(r"[a-z0-9]+", text.lower())


def test_tokenizer_equals_its_definition_on_every_code_point():
    # One character between two letters, for every code point but the
    # surrogates; lower() may turn one character into two (İ -> i + U+0307).
    text = " ".join(f"x{chr(c)}y" for c in range(0x110000) if not 0xD800 <= c < 0xE000)
    assert tokenize(text) == regex_tokens(text)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.one_of(st.sampled_from("aZ09 -_.\t\n\x0bİKßΣé"),
                                  st.characters())))
def test_tokenizer_equals_its_definition(text):
    assert tokenize(text) == regex_tokens(text)
