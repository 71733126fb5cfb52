"""Local Boolean retrieval over a fielded inverted index, plus a deliberately
naive per-document evaluator used as a testing oracle.

Both engines implement identical semantics:

* ``[Title/Abstract]`` — token or phrase occurs in title or abstract
* ``[All Fields]`` (and unknown tags) — title, abstract, or MeSH names
* ``[Title]`` — title only
* ``[MeSH]`` — document tagged with the descriptor or any tree descendant
* ``[mesh:noexp]`` — exact descriptor only
* ``[Publication Type]`` — whole-string match against the doc's pub types
* trailing ``*`` — token prefix match (final token of a phrase)
* AND/OR/NOT — intersection, union, left-to-right set difference

Tokenization is lowercase, split on non-alphanumerics, digits kept, no
stemming.  PubMed's proprietary term normalization is intentionally not
emulated.

The index (:func:`build_index`, :func:`execute_local` and the ``_index_*``
helpers) answers every term without scanning its vocabulary:

* postings are lists built in one pass over each field, naming each pmid
  once per key; lookups copy them into fresh sets;
* single tokens, MeSH names and publication types are postings lookups;
* a ``*`` term is a bisect range over the sorted keys of its postings;
* an exploded MeSH term reads a sorted (tree number, name) table: its
  roots exactly, then each range ``[root + ".", root + "/")``, which holds
  the tree numbers that extend the root at a dot boundary;
* a phrase intersects the postings of its exactly matched tokens, then
  looks for itself as a plain substring of each candidate's spaced text
  (see ``_spaced``): the stored title or abstract, or each canonical MeSH
  name in turn.  The index keeps no per-document token arrays.

The oracle (:func:`execute_naive`, ``_doc_term_match``, ``_phrase_at``,
``_exploded_names`` and :func:`explode_mesh`) re-tokenizes every document
for every term and scans windows and descriptors one by one.  It shares no
matching code with the index, so it stays an independent specification.
"""

from __future__ import annotations

import hashlib
import json
import re
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

from .collections import Corpus, CorpusDoc, MeshVocab
from .query_ast import (
    FieldKind,
    Node,
    Op,
    Query,
    Term,
    validate,
)

__all__ = [
    "Index",
    "InvalidQueryError",
    "UnknownDescriptorError",
    "tokenize",
    "build_index",
    "execute_local",
    "execute_naive",
    "explode_mesh",
]


class InvalidQueryError(ValueError):
    pass


class UnknownDescriptorError(KeyError):
    pass


_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


# ---------------------------------------------------------------------------
# Index
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Index:
    """Immutable fielded index.  Every lookup is a dict probe or a bisect
    range over sorted keys.  Postings are lists that name each pmid once
    per key; lookups copy them into fresh sets and never mutate them.
    Phrases are verified by substring search in the stored spaced texts."""

    postings: dict[str, dict[str, list[str]]]               # field -> token -> pmids
    sorted_tokens: dict[str, tuple[str, ...]]                # field -> sorted tokens, for `*`
    texts: dict[str, dict[str, str]]                         # title|abstract -> pmid -> spaced text
    mesh_names: dict[str, tuple[str, ...]]                   # pmid -> spaced canonical MeSH names
    descriptor_map: dict[str, list[str]]                     # lower name -> pmids
    sorted_descriptors: tuple[str, ...]                      # sorted descriptor_map keys
    mesh_trees: tuple[tuple[str, str], ...]                  # sorted (tree number, lower name)
    pub_type_postings: dict[str, list[str]]                  # lower type -> pmids
    sorted_pub_types: tuple[str, ...]                        # sorted pub_type_postings keys
    all_pmids: frozenset[str]
    vocab: Optional[MeshVocab]

    def digest(self) -> str:
        payload = {
            field: {tok: sorted(pmids) for tok, pmids in tokens.items()}
            for field, tokens in self.postings.items()
        }
        payload["__mesh__"] = {name: sorted(pmids) for name, pmids in self.descriptor_map.items()}
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _spaced(tokens: list[str]) -> str:
    """Tokens joined by single spaces, with a space at each end.  A phrase
    occurs in a token sequence exactly where its own spaced form occurs as
    a substring of the sequence's spaced form; a phrase whose last token is
    truncated drops the closing space."""
    return " " + " ".join(tokens) + " "


def build_index(corpus: Corpus, vocab: Optional[MeshVocab] = None) -> Index:
    findall = _TOKEN_RE.findall
    postings = {field: defaultdict(list) for field in ("title", "abstract", "mesh")}
    texts: dict[str, dict[str, str]] = {"title": {}, "abstract": {}}
    mesh_names: dict[str, tuple[str, ...]] = {}
    descriptor_map: defaultdict[str, list[str]] = defaultdict(list)
    pub_types: defaultdict[str, list[str]] = defaultdict(list)
    # Raw MeSH tag -> (lowercased canonical name, its spaced form, its tokens).
    canonical: dict[str, tuple[str, str, frozenset[str]]] = {}

    for field in ("title", "abstract"):
        field_postings, field_texts = postings[field], texts[field]
        for pmid, doc in corpus.docs.items():
            tokens = findall(getattr(doc, field).lower())
            field_texts[pmid] = _spaced(tokens)
            for tok in set(tokens):
                field_postings[tok].append(pmid)
    mesh_postings = postings["mesh"]
    for pmid, doc in corpus.docs.items():
        names, spaced = set(), []
        mesh_tokens: set[str] = set()
        for tag in doc.mesh_terms:
            entry = canonical.get(tag)
            if entry is None:
                descriptor = vocab.lookup(tag) if vocab is not None else None
                name = (descriptor.name if descriptor is not None else tag).lower()
                tokens = findall(name)
                entry = canonical[tag] = (name, _spaced(tokens), frozenset(tokens))
            names.add(entry[0])
            spaced.append(entry[1])
            mesh_tokens |= entry[2]
        mesh_names[pmid] = tuple(spaced)
        for name in names:
            descriptor_map[name].append(pmid)
        for tok in mesh_tokens:
            mesh_postings[tok].append(pmid)
        for pub_type in {p.lower().strip() for p in doc.pub_types}:
            pub_types[pub_type].append(pmid)

    mesh_trees = () if vocab is None else tuple(sorted(
        (tree, d.name.lower()) for d in vocab.descriptors.values() for tree in d.tree_numbers
    ))
    return Index(
        postings={f: dict(toks) for f, toks in postings.items()},
        sorted_tokens={f: tuple(sorted(toks)) for f, toks in postings.items()},
        texts=texts,
        mesh_names=mesh_names,
        descriptor_map=dict(descriptor_map),
        sorted_descriptors=tuple(sorted(descriptor_map)),
        mesh_trees=mesh_trees,
        pub_type_postings=dict(pub_types),
        sorted_pub_types=tuple(sorted(pub_types)),
        all_pmids=frozenset(corpus.docs),
        vocab=vocab,
    )


# ---------------------------------------------------------------------------
# Indexed execution
# ---------------------------------------------------------------------------

def _prefix_range(keys: tuple[str, ...], prefix: str) -> tuple[str, ...]:
    """The run of sorted keys that start with prefix, found by bisection."""
    lo = hi = bisect_left(keys, prefix)
    while hi < len(keys) and keys[hi].startswith(prefix):
        hi += 1
    return keys[lo:hi]


def _union(postings: dict[str, list[str]], keys) -> set[str]:
    return set().union(*[postings.get(key, ()) for key in keys])


def _index_field_match(idx: Index, fields: list[str], term: Term) -> set[str]:
    tokens = tokenize(term.text)
    if not tokens:
        return set()
    result: set[str] = set()
    for field in fields:
        postings = idx.postings[field]
        if len(tokens) == 1:
            if term.truncated:
                result |= _union(postings, _prefix_range(idx.sorted_tokens[field], tokens[0]))
            else:
                result.update(postings.get(tokens[0], ()))
            continue
        # Phrase: candidates contain every exactly-matched token, then a
        # substring search in their spaced texts verifies adjacency.
        exact = tokens[:-1] if term.truncated else tokens
        lists = sorted((postings.get(tok, ()) for tok in exact), key=len)
        candidates = set(lists[0]).intersection(*lists[1:])
        needle = _spaced(tokens)[:-1] if term.truncated else _spaced(tokens)
        if field == "mesh":
            names = idx.mesh_names
            result.update(p for p in candidates if any(needle in n for n in names[p]))
        else:
            texts = idx.texts[field]
            result.update(p for p in candidates if needle in texts[p])
    return result


def _index_exploded_names(idx: Index, text: str) -> set[str]:
    """Lowercased descriptor names matched by an exploded MeSH term: the
    descriptor plus every name whose tree number equals one of its roots or
    extends it at a dot boundary, read as bisect ranges of ``mesh_trees``.
    Falls back to the literal name when the vocabulary has no entry."""
    descriptor = idx.vocab.lookup(text) if idx.vocab is not None else None
    if descriptor is None:
        return {text.strip().lower()}
    table = idx.mesh_trees
    names = {descriptor.name.lower()}
    for root in descriptor.tree_numbers:
        # Exactly root: [root, root + "\0"); below root: [root + ".", root + "/").
        for lo, hi in ((root, root + "\0"), (root + ".", root + "/")):
            start = bisect_left(table, (lo,))
            names.update(name for _, name in table[start : bisect_left(table, (hi,), start)])
    return names


def _index_mesh_match(idx: Index, term: Term, exploded: bool) -> set[str]:
    key = term.text.strip().lower()
    if term.truncated:
        names = _prefix_range(idx.sorted_descriptors, key)
    elif exploded:
        names = _index_exploded_names(idx, term.text)
    else:
        names = (key,)
    return _union(idx.descriptor_map, names)


def _index_pub_type_match(idx: Index, term: Term) -> set[str]:
    want = term.text.strip().lower()
    types = _prefix_range(idx.sorted_pub_types, want) if term.truncated else (want,)
    return _union(idx.pub_type_postings, types)


def _index_term(idx: Index, term: Term) -> set[str]:
    kind = term.field.kind
    if kind is FieldKind.TITLE:
        return _index_field_match(idx, ["title"], term)
    if kind is FieldKind.TITLE_ABSTRACT:
        return _index_field_match(idx, ["title", "abstract"], term)
    if kind in (FieldKind.ALL_FIELDS, FieldKind.OTHER):
        return _index_field_match(idx, ["title", "abstract", "mesh"], term)
    if kind is FieldKind.MESH_EXPLODED:
        return _index_mesh_match(idx, term, exploded=True)
    if kind is FieldKind.MESH_NOEXP:
        return _index_mesh_match(idx, term, exploded=False)
    if kind is FieldKind.PUBLICATION_TYPE:
        return _index_pub_type_match(idx, term)
    raise InvalidQueryError(f"unsupported field kind {kind}")


def execute_local(idx: Index, q: Query) -> set[str]:
    """Evaluate a query against the index via postings set algebra."""
    report = validate(q)
    if not report.ok:
        raise InvalidQueryError("; ".join(i.message for i in report.errors))

    def evaluate(node: Node) -> set[str]:
        if isinstance(node, Term):
            return _index_term(idx, node)
        sets = [evaluate(child) for child in node.children]
        if node.op is Op.AND:
            out = sets[0]
            for s in sets[1:]:
                out = out & s
            return out
        if node.op is Op.OR:
            out = set()
            for s in sets:
                out |= s
            return out
        return sets[0] - sets[1]

    return evaluate(q.root)


# ---------------------------------------------------------------------------
# Naive oracle execution
# ---------------------------------------------------------------------------

def _phrase_at(arr: tuple[str, ...], tokens: list[str], prefix_last: bool) -> bool:
    k = len(tokens)
    if k == 0 or len(arr) < k:
        return False
    for i in range(len(arr) - k + 1):
        window = arr[i : i + k]
        head_ok = all(window[j] == tokens[j] for j in range(k - 1))
        if not head_ok:
            continue
        last = window[k - 1]
        if last == tokens[-1] or (prefix_last and last.startswith(tokens[-1])):
            return True
    return False


def explode_mesh(vocab: MeshVocab, name: str) -> set[str]:
    """The descriptor and every descriptor whose tree number extends one of
    its tree numbers at a dot boundary."""
    descriptor = vocab.lookup(name)
    if descriptor is None:
        raise UnknownDescriptorError(name)
    roots = descriptor.tree_numbers
    result = {descriptor.name}
    for other in vocab.descriptors.values():
        for tree in other.tree_numbers:
            if any(tree == root or tree.startswith(root + ".") for root in roots):
                result.add(other.name)
                break
    return result


def _exploded_names(vocab: Optional[MeshVocab], text: str) -> set[str]:
    """Lowercased descriptor names matched by an exploded MeSH term; falls
    back to the literal name when the vocabulary has no entry."""
    if vocab is not None and vocab.lookup(text) is not None:
        return {n.lower() for n in explode_mesh(vocab, text)}
    return {text.strip().lower()}


def _doc_term_match(doc: CorpusDoc, term: Term, vocab: Optional[MeshVocab]) -> bool:
    tokens = tokenize(term.text)
    kind = term.field.kind

    def in_text(text: str) -> bool:
        return _phrase_at(tuple(tokenize(text)), tokens, term.truncated)

    def in_mesh_names() -> bool:
        return any(_phrase_at(tuple(tokenize(m)), tokens, term.truncated) for m in doc.mesh_terms)

    if kind is FieldKind.TITLE:
        return in_text(doc.title)
    if kind is FieldKind.TITLE_ABSTRACT:
        return in_text(doc.title) or in_text(doc.abstract)
    if kind in (FieldKind.ALL_FIELDS, FieldKind.OTHER):
        return in_text(doc.title) or in_text(doc.abstract) or in_mesh_names()
    if kind is FieldKind.PUBLICATION_TYPE:
        want = term.text.strip().lower()
        return any(
            p.lower().strip() == want or (term.truncated and p.lower().strip().startswith(want))
            for p in doc.pub_types
        )

    doc_names = {m.strip().lower() for m in doc.mesh_terms}
    if vocab is not None:
        canonical = set()
        for m in doc.mesh_terms:
            descriptor = vocab.lookup(m)
            canonical.add(descriptor.name.lower() if descriptor else m.strip().lower())
        doc_names = canonical
    key = term.text.strip().lower()
    if term.truncated:
        return any(n.startswith(key) for n in doc_names)
    if kind is FieldKind.MESH_EXPLODED:
        return bool(_exploded_names(vocab, term.text) & doc_names)
    return key in doc_names  # MESH_NOEXP


def execute_naive(corpus: Corpus, q: Query, vocab: Optional[MeshVocab] = None) -> set[str]:
    """Oracle evaluator: one boolean predicate per document, no index."""
    report = validate(q)
    if not report.ok:
        raise InvalidQueryError("; ".join(i.message for i in report.errors))

    def matches(doc: CorpusDoc, node: Node) -> bool:
        if isinstance(node, Term):
            return _doc_term_match(doc, node, vocab)
        if node.op is Op.AND:
            return all(matches(doc, c) for c in node.children)
        if node.op is Op.OR:
            return any(matches(doc, c) for c in node.children)
        return matches(doc, node.children[0]) and not matches(doc, node.children[1])

    return {pmid for pmid, doc in corpus.docs.items() if matches(doc, q.root)}
