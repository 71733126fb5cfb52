import random

import pytest

from randgen import (
    fixture_vocab,
    random_corpus,
    random_hard_corpus,
    random_hard_query,
    random_retrieval_query,
    random_term,
    random_tree_vocab,
)
from srquery.collections import Corpus, CorpusDoc, MeshDescriptor, MeshVocab
from srquery.query_ast import FieldKind, FieldTag, Op, Operator, Query, Term, parse
from srquery.retrieval import (
    InvalidQueryError,
    UnknownDescriptorError,
    build_index,
    execute_local,
    execute_naive,
    explode_mesh,
    tokenize,
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
    assert idx.postings["title"]["thyroid"] == {"p1"}


def test_rebuild_same_corpus_same_digest(corpus, vocab):
    assert build_index(corpus, vocab).digest() == build_index(corpus, vocab).digest()


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


# ---------------------------------------------------------------------------
# explode_mesh
# ---------------------------------------------------------------------------

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
        names = v.names()
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
