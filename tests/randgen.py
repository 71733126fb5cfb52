"""Seeded random generators for property tests: canonical query ASTs and
small synthetic corpora.

Generated ASTs are canonical (no same-operator nesting, clean term text),
because parsing always collapses same-operator chains and normalizes
spelling; round-trip equality is only meaningful on canonical trees.
"""

from __future__ import annotations

import random
import string
from typing import Callable

from srquery.collections import Corpus, CorpusDoc, MeshDescriptor, MeshVocab
from srquery.query_ast import (
    ALL_FIELDS,
    FieldKind,
    FieldTag,
    Node,
    Op,
    Operator,
    Query,
    Term,
)

WORDS = [
    "thyroid", "cancer", "carcinoma", "screening", "autopsy", "ultrasound",
    "liver", "fibrosis", "influenza", "rapid", "test", "elastography",
    "papillary", "nodule", "trauma", "bleeding", "prevalence", "incidence",
    "cohort", "children", "adults", "vaccine", "hepatic", "stiffness",
]

FIELD_CHOICES = [
    FieldTag(FieldKind.TITLE_ABSTRACT),
    FieldTag(FieldKind.ALL_FIELDS),
    FieldTag(FieldKind.TITLE),
    FieldTag(FieldKind.MESH_EXPLODED),
    FieldTag(FieldKind.MESH_NOEXP),
    FieldTag(FieldKind.PUBLICATION_TYPE),
]


def random_term(rng: random.Random, words: list[str] | None = None) -> Term:
    pool = words or WORDS
    n_words = rng.choices([1, 2, 3], weights=[6, 3, 1])[0]
    text = " ".join(rng.choice(pool) for _ in range(n_words))
    truncated = rng.random() < 0.2
    if truncated:
        # Keep the stem comfortably above the validation minimum.
        last = text.split()[-1]
        if len(last) < 4:
            truncated = False
    field = rng.choice(FIELD_CHOICES)
    if rng.random() < 0.05:
        field = FieldTag(FieldKind.OTHER, "".join(rng.choices(string.ascii_letters, k=5)))
    return Term(text=text, field=field, truncated=truncated)


def random_node(
    rng: random.Random,
    max_depth: int,
    budget: list[int],
    parent_op: Op | None = None,
    words: list[str] | None = None,
    make_term: Callable[[random.Random], Term] | None = None,
) -> Node:
    budget[0] -= 1
    if max_depth <= 1 or budget[0] <= 1 or rng.random() < 0.3:
        return make_term(rng) if make_term else random_term(rng, words)
    choices = [op for op in (Op.AND, Op.OR, Op.NOT) if op is not parent_op or op is Op.NOT]
    op = rng.choice(choices)
    n_children = 2 if op is Op.NOT else rng.randint(2, 4)
    children = tuple(
        random_node(rng, max_depth - 1, budget, parent_op=op, words=words, make_term=make_term)
        for _ in range(n_children)
    )
    return Operator(op, children)


def random_query(
    rng: random.Random,
    max_depth: int = 5,
    max_terms: int = 30,
    words: list[str] | None = None,
    make_term: Callable[[random.Random], Term] | None = None,
) -> Query:
    budget = [max_terms]
    return Query(random_node(rng, max_depth, budget, words=words, make_term=make_term))


# ---------------------------------------------------------------------------
# Corpora
# ---------------------------------------------------------------------------

MESH_ROWS = [
    ("D01", "Neoplasms", ("C04",)),
    ("D02", "Carcinoma", ("C04.557",)),
    ("D03", "Thyroid Neoplasms", ("C04.588.894.473",)),
    ("D04", "Thyroid Nodule", ("C04.588.894.473.902",)),
    ("D05", "Autopsy", ("E01.370.225.500",)),
    ("D06", "Mass Screening", ("N06.850.780.500",)),
    ("D07", "Liver Cirrhosis", ("C06.552.630",)),
    ("D08", "Influenza, Human", ("C02.782.620.365",)),
]

PUB_TYPES = ["Journal Article", "Review", "Meta-Analysis", "Comparative Study"]


def fixture_vocab() -> MeshVocab:
    return MeshVocab({
        name.lower(): MeshDescriptor(name=name, ui=ui, tree_numbers=trees)
        for ui, name, trees in MESH_ROWS
    })


def random_corpus(rng: random.Random, max_docs: int = 200) -> Corpus:
    n_docs = rng.randint(1, max_docs)
    mesh_names = [name for _, name, _ in MESH_ROWS]
    docs = {}
    for i in range(n_docs):
        pmid = str(10_000 + i)
        title = " ".join(rng.choices(WORDS, k=rng.randint(2, 8)))
        abstract = " ".join(rng.choices(WORDS, k=rng.randint(0, 25)))
        docs[pmid] = CorpusDoc(
            pmid=pmid,
            title=title,
            abstract=abstract,
            mesh_terms=tuple(rng.sample(mesh_names, k=rng.randint(0, 3))),
            pub_types=tuple(rng.sample(PUB_TYPES, k=rng.randint(0, 2))),
        )
    return Corpus(docs)


def random_retrieval_query(rng: random.Random, max_depth: int = 4) -> Query:
    # Mesh-name words included so MeSH-field terms sometimes hit the vocab.
    words = WORDS + ["thyroid neoplasms", "autopsy", "mass screening", "neoplasms"]
    return random_query(rng, max_depth=max_depth, max_terms=12, words=words)


# ---------------------------------------------------------------------------
# Hard instances: deep trees, repeated tokens, short fields
# ---------------------------------------------------------------------------

# A tiny alphabet whose tokens prefix one another, so phrases repeat tokens
# and truncated stems match several tokens.
HARD_TOKENS = ["ab", "abc", "abcd", "b", "ba", "bab", "c"]

# Sibling labels that share a string prefix: C04.5 sits beside C04.55 and
# C04.550, and only the dot boundary tells a child from a sibling.
TREE_LABELS = ["5", "55", "550", "1", "12"]

HARD_PUB_TYPES = ["Review", "Review Article", "Clinical Trial", "Clinical Trial, Phase I",
                  "Journal Article"]


def random_tree_vocab(rng: random.Random, n_descriptors: int = 40) -> MeshVocab:
    """A deep random MeSH tree under two roots that share a prefix (C04 and
    C045).  Some descriptors sit at several tree numbers."""
    trees = ["C04", "C045"]
    roots = list(trees)
    descriptors: dict[str, MeshDescriptor] = {}
    for i in range(n_descriptors):
        name = " ".join(rng.choices(HARD_TOKENS, k=rng.randint(1, 3))).title()
        if name.lower() in descriptors:
            continue
        own = [roots.pop()] if roots else []
        for _ in range(rng.choices([1, 2, 3], weights=[5, 3, 1])[0]):
            # Prefer recent parents so the tree grows deep, not just wide.
            parent = rng.choice(trees[-6:] if rng.random() < 0.7 else trees)
            tree = f"{parent}.{rng.choice(TREE_LABELS)}"
            if tree not in trees:
                trees.append(tree)
                own.append(tree)
        descriptors[name.lower()] = MeshDescriptor(
            name=name, ui=f"H{i:03d}", tree_numbers=tuple(own)
        )
    return MeshVocab(descriptors)


def _hard_text(rng: random.Random, max_tokens: int) -> str:
    return " ".join(rng.choices(HARD_TOKENS, k=rng.randint(0, max_tokens)))


def random_hard_corpus(rng: random.Random, vocab: MeshVocab, max_docs: int = 60) -> Corpus:
    """Titles and abstracts over HARD_TOKENS, often shorter than a phrase;
    MeSH tags from the tree plus one name the vocabulary lacks."""
    names = vocab.names() + ["Unlisted Ab"]
    docs = {}
    for i in range(rng.randint(1, max_docs)):
        pmid = str(20_000 + i)
        docs[pmid] = CorpusDoc(
            pmid=pmid,
            title=_hard_text(rng, 4),
            abstract=_hard_text(rng, 12),
            mesh_terms=tuple(rng.sample(names, k=rng.randint(0, 4))),
            pub_types=tuple(rng.sample(HARD_PUB_TYPES, k=rng.randint(0, 2))),
        )
    return Corpus(docs)


def random_hard_term(rng: random.Random, vocab: MeshVocab) -> Term:
    """Phrases of 2-5 tokens (some one token repeated, some truncated at
    the end), all-fields phrases across two MeSH names, and truncated or
    exploded MeSH and publication-type terms."""
    names = vocab.names()
    shape = rng.choice(["phrase", "repeat", "straddle", "mesh", "pt"])
    if shape in ("phrase", "repeat"):
        k = rng.randint(2, 5)
        toks = [rng.choice(HARD_TOKENS)] * k if shape == "repeat" else rng.choices(HARD_TOKENS, k=k)
        truncated = rng.random() < 0.4
        if truncated:
            toks[-1] = toks[-1][: rng.randint(1, len(toks[-1]))]
        field = rng.choice([FieldTag(FieldKind.TITLE), FieldTag(FieldKind.TITLE_ABSTRACT),
                            ALL_FIELDS])
        return Term(text=" ".join(toks), field=field, truncated=truncated)
    if shape == "straddle":
        # Last token of one name, first of another: only a match inside a
        # single name counts, never across two names of one document.
        a, b = rng.sample(names, k=2)
        text = f"{a.split()[-1]} {b.split()[0]}".lower()
        return Term(text=text, field=ALL_FIELDS, truncated=False)
    if shape == "mesh":
        name = rng.choice(names + ["Unlisted Ab"])
        kind = rng.choice([FieldKind.MESH_EXPLODED, FieldKind.MESH_NOEXP])
        if rng.random() < 0.3:
            return Term(text=name[: rng.randint(1, len(name))].rstrip(), field=FieldTag(kind),
                        truncated=True)
        return Term(text=name, field=FieldTag(kind), truncated=False)
    pt = rng.choice(HARD_PUB_TYPES)
    if rng.random() < 0.5:
        return Term(text=pt[: rng.randint(1, len(pt))].rstrip(),
                    field=FieldTag(FieldKind.PUBLICATION_TYPE), truncated=True)
    return Term(text=pt, field=FieldTag(FieldKind.PUBLICATION_TYPE), truncated=False)


def random_hard_query(rng: random.Random, vocab: MeshVocab) -> Query:
    return random_query(
        rng, max_depth=3, max_terms=8, make_term=lambda r: random_hard_term(r, vocab)
    )
