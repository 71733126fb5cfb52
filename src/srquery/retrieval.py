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

The index (:func:`build_index`, :func:`execute_local`, ``_lookup`` and the
``_index_*`` helpers) answers every term without scanning its vocabulary:

* one ``postings`` table maps each field to its keys and each key to a list
  that names each pmid once: title, abstract and MeSH-name tokens,
  lowercased descriptor names and lowercased publication types;
* every single key, exact or ``*``, is read through ``_lookup``: a dict
  probe, or a bisect range over the field's sorted keys;
* an exploded MeSH term reads a sorted (tree number, name) table: its
  roots exactly, then each range ``[root + ".", root + "/")``, which holds
  the tree numbers that extend the root at a dot boundary;
* a phrase intersects the postings of its exactly matched tokens, then
  looks for itself as a plain substring of each candidate's spaced text
  (see ``_spaced``): the stored title or abstract, or each canonical MeSH
  name in turn.  The index keeps no per-document token arrays.

:func:`build_index` makes one pass over the documents, so it can take
them streamed from the corpus file (``collections.iter_corpus``) and never
hold the corpus.  An ASCII text is lowercased and its separators turned
into spaces by one ``str.translate``.  ``build_index(corpus, vocab)`` posts
every token and stores every text.  Given ``queries``, the title, abstract
and MeSH token postings keep only the queries' exact tokens and the tokens
under their one-token ``*`` stems.  One compiled pattern per build, a trie
over those exact tokens and stems, finds them in a single ``findall`` over
each text, so a text is not split into tokens to find them.  A title or
abstract text is stored, and only then split, when it is a phrase
candidate: a field that holds every exactly matched token of some phrase.
A field that no query reads (``_TEXT_FIELDS``, ``_NAME_FIELDS``) is not
built at all.  Such an index answers those queries and no others: a term it
was not built for may miss documents.

The oracle (:func:`execute_naive`, ``_doc_matches``, ``_doc_term_match``,
``_phrase_at``, ``_exploded_names`` and :func:`explode_mesh`) re-tokenizes
every document for every term and scans windows and descriptors one by
one.  It shares no matching code with the index, so it stays an independent
specification; both take the key of a MeSH tag, a MeSH or publication-type
term and a publication type from one rule, ``collections.name_key``.
"""

from __future__ import annotations

import os
import re
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Optional

from .collections import Corpus, CorpusDoc, MeshVocab, name_key
from .errors import InputError
from .query_ast import (
    FieldKind,
    Node,
    Op,
    Query,
    Term,
    iter_terms,
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


class InvalidQueryError(InputError, ValueError):
    """A stored query that fails validation; an input error for the reason
    ``QueryParseError`` gives."""


class UnknownDescriptorError(InputError, LookupError):
    """A descriptor name the MeSH vocabulary lacks, so the input's query or
    vocabulary is at fault.  Only ``explode_mesh`` raises it, and no stage
    reaches it: its one caller here looks the name up first."""


# Every ASCII character: [A-Z] lowercased, [a-z0-9] kept, the rest a space.
_SEPARATORS = {c: chr(c).lower() if chr(c).isalnum() else " " for c in range(128)}


def _separated(text: str) -> str:
    """The lowercased text with every character outside ``[a-z0-9]`` turned
    into a space.  ASCII text takes one ``translate``."""
    if not text.isascii():
        # lower() may turn a character into ASCII (the Kelvin sign into k,
        # İ into i + U+0307); every character still outside ASCII is a
        # separator, replaced by "?" in C rather than looked up one by one.
        text = text.lower().encode("ascii", "replace").decode("ascii")
    return text.translate(_SEPARATORS)


def tokenize(text: str) -> list[str]:
    """The maximal runs of ``[a-z0-9]`` in the lowercased text."""
    return _separated(text).split()


# ---------------------------------------------------------------------------
# Index
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Index:
    """Immutable fielded index.  Every key, exact or ``*``, is read through
    ``_lookup``: a dict probe, or a bisect range over the field's sorted
    keys.  Postings are lists that name each pmid once per key and are never
    mutated.  Phrases are verified by substring search in the stored spaced
    texts."""

    postings: dict[str, dict[str, list[str]]]   # field (see _FIELDS) -> key -> pmids
    sorted_keys: dict[str, tuple[str, ...]]     # field -> sorted keys, for `*`
    texts: dict[str, dict[str, str]]            # title|abstract -> pmid -> spaced text
    mesh_names: dict[str, tuple[str, ...]]      # pmid -> spaced canonical MeSH names
    mesh_trees: tuple[tuple[str, str], ...]     # sorted (tree number, name key)
    vocab: Optional[MeshVocab]


def _spaced(tokens: list[str]) -> str:
    """Tokens joined by single spaces, with a space at each end.  A phrase
    occurs in a token sequence exactly where its own spaced form occurs as
    a substring of the sequence's spaced form; a phrase whose last token is
    truncated drops the closing space."""
    return " " + " ".join(tokens) + " "


# Tokens of titles, abstracts and MeSH names; lowercased descriptor names;
# lowercased publication types.
_FIELDS = ("title", "abstract", "mesh", "descriptor", "pub_type")
# The token fields a text term reads, by field kind.
_TEXT_FIELDS = {
    FieldKind.TITLE: ("title",),
    FieldKind.TITLE_ABSTRACT: ("title", "abstract"),
    FieldKind.ALL_FIELDS: ("title", "abstract", "mesh"),
    FieldKind.OTHER: ("title", "abstract", "mesh"),
}
# The name field a MeSH or publication-type term reads, by field kind.
_NAME_FIELDS = {FieldKind.MESH_EXPLODED: "descriptor", FieldKind.MESH_NOEXP: "descriptor",
                FieldKind.PUBLICATION_TYPE: "pub_type"}


def _alternation(exact: set[str], stems: set[str]) -> str:
    """A regex that, at the start of a token, matches the whole token when
    it is one of the exact words or starts with one of the stems.  Shared
    leading characters are factored out as in a trie, a run of them at a
    time, so a long word adds no recursion; an exact word must end the
    token, which a space follows, and a stem is open-ended."""
    if "" in stems:
        return "[a-z0-9]*"
    alts = ["(?= )"] if "" in exact else []
    for head in sorted({word[0] for word in exact | stems if word}):
        words = [w for w in exact if w[:1] == head]
        prefixes = [s for s in stems if s[0] == head]
        shared = os.path.commonprefix(words + prefixes)
        cut = len(shared)
        alts.append(shared + _alternation({w[cut:] for w in words}, {s[cut:] for s in prefixes}))
    return alts[0] if len(alts) == 1 else "(?:" + "|".join(alts) + ")"


def build_index(
    docs: Corpus | Iterable[CorpusDoc], vocab: Optional[MeshVocab] = None,
    queries: Optional[Iterable[Query]] = None,
) -> Index:
    """Index a corpus, or documents streamed once in any iterable.  Without
    ``queries`` every token is posted and every text stored.  With them,
    the index answers those queries and no others: the title, abstract and
    MeSH token postings keep only the queries' exact tokens and the tokens
    under their one-token ``*`` stems, and a title or abstract text is stored
    only when it holds every exactly matched token of some phrase.  One
    compiled pattern, a trie over the exact tokens and the stems, finds the
    tokens to post in a single scan of each text; a text is split into
    tokens only when it is stored.  A field that no query reads is not
    built: its postings, texts, MeSH names or tree table stay empty."""
    exact: set[str] = set()
    stems: set[str] = set()
    phrases: set[frozenset[str]] = set()
    read = set(_FIELDS) if queries is None else set()
    for term in (t for q in queries or () for t in iter_terms(q.root)):
        kind = term.field.kind
        read.update(_TEXT_FIELDS.get(kind) or (_NAME_FIELDS[kind],))
        tokens = tokenize(term.text) if kind in _TEXT_FIELDS else ()
        if term.truncated and len(tokens) == 1:
            stems.add(tokens[0])
        elif tokens:
            matched = tokens[:-1] if term.truncated else tokens
            exact.update(matched)
            if len(tokens) > 1:
                phrases.add(frozenset(matched))
    # "(?!)" matches nothing: no query reads a title, abstract or MeSH token.
    find_posted = re.compile(
        f" ({_alternation(exact, stems)})" if exact or stems else "(?!)").findall

    def scan(text: str, always_store: bool) -> tuple[Optional[str], set[str]]:
        """A text's spaced form when it is stored (else None), and the tokens
        to post.  Every text is stored on a build without queries; with
        them, a text is stored when ``always_store`` holds or when it is a
        phrase candidate, and is split into tokens only then."""
        chars = _separated(text)
        if queries is None:
            tokens = chars.split()
            return _spaced(tokens), set(tokens)
        posted = set(find_posted(" " + chars + " "))
        if always_store or any(map(posted.issuperset, phrases)):
            return _spaced(chars.split()), posted
        return None, posted

    canonical: dict[str, tuple] = {}  # raw tag -> name key (, spaced, posted if "mesh" is read)
    postings = {field: defaultdict(list) for field in _FIELDS}
    texts: dict[str, dict[str, str]] = {"title": {}, "abstract": {}}
    mesh_names: dict[str, tuple[str, ...]] = {}
    text_fields = [field for field in texts if field in read]
    read_mesh, read_tags = "mesh" in read, not read.isdisjoint(("mesh", "descriptor"))
    for doc in docs.docs.values() if isinstance(docs, Corpus) else docs:
        pmid = doc.pmid
        for field in text_fields:
            spaced, posted = scan(getattr(doc, field), always_store=False)
            if spaced is not None:
                texts[field][pmid] = spaced
            for tok in posted:
                postings[field][tok].append(pmid)
        if read_tags:
            for tag in doc.mesh_terms:
                if tag not in canonical:
                    name = name_key(tag)
                    canonical[tag] = (name, *scan(name, always_store=True)) if read_mesh else (name,)
            entries = [canonical[tag] for tag in doc.mesh_terms]
        if read_mesh:
            mesh_names[pmid] = tuple(spaced for _, spaced, _ in entries)
            for tok in set().union(*(posted for _, _, posted in entries)):
                postings["mesh"][tok].append(pmid)
        if "descriptor" in read:
            for name in {entry[0] for entry in entries}:
                postings["descriptor"][name].append(pmid)
        if "pub_type" in read:
            for pub_type in {name_key(p) for p in doc.pub_types}:
                postings["pub_type"][pub_type].append(pmid)

    mesh_trees = () if vocab is None or "descriptor" not in read else tuple(sorted(
        (tree, name_key(d.name)) for d in vocab.descriptors.values() for tree in d.tree_numbers
    ))
    return Index(
        postings={f: dict(keys) for f, keys in postings.items()},
        sorted_keys={f: tuple(sorted(keys)) for f, keys in postings.items()},
        texts=texts, mesh_names=mesh_names, mesh_trees=mesh_trees, vocab=vocab,
    )


# ---------------------------------------------------------------------------
# Indexed execution
# ---------------------------------------------------------------------------

def _lookup(idx: Index, field: str, key: str, truncated: bool) -> list[list[str]]:
    """The posting lists of a key in a field: its own, or with ``*`` those of
    every key it prefixes, a bisect range of the field's sorted keys."""
    postings = idx.postings[field]
    if not truncated:
        return [postings.get(key, [])]
    keys = idx.sorted_keys[field]
    lo = hi = bisect_left(keys, key)
    while hi < len(keys) and keys[hi].startswith(key):
        hi += 1
    return [postings[k] for k in keys[lo:hi]]


def _index_field_match(idx: Index, fields: tuple[str, ...], term: Term) -> set[str]:
    tokens = tokenize(term.text)
    if not tokens:
        return set()
    result: set[str] = set()
    for field in fields:
        if len(tokens) == 1:
            result.update(*_lookup(idx, field, tokens[0], term.truncated))
            continue
        # Phrase: candidates contain every exactly-matched token, then a
        # substring search in their spaced texts verifies adjacency.
        postings = idx.postings[field]
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


def _index_exploded_names(idx: Index, key: str) -> set[str]:
    """Descriptor keys matched by an exploded MeSH term's key: the key, plus
    every name whose tree number equals one of the descriptor's roots or
    extends it at a dot boundary, read as bisect ranges of ``mesh_trees``
    when the vocabulary has the descriptor."""
    names = {key}
    descriptor = idx.vocab.lookup(key) if idx.vocab is not None else None
    table = idx.mesh_trees
    for root in descriptor.tree_numbers if descriptor is not None else ():
        # Exactly root: [root, root + "\0"); below root: [root + ".", root + "/").
        for lo, hi in ((root, root + "\0"), (root + ".", root + "/")):
            start = bisect_left(table, (lo,))
            names.update(name for _, name in table[start : bisect_left(table, (hi,), start)])
    return names


def _index_term(idx: Index, term: Term) -> set[str]:
    kind = term.field.kind
    if kind in _TEXT_FIELDS:
        return _index_field_match(idx, _TEXT_FIELDS[kind], term)
    if kind not in _NAME_FIELDS:
        raise InvalidQueryError(f"unsupported field kind {kind}")
    keys = (name_key(term.text),)
    if kind is FieldKind.MESH_EXPLODED and not term.truncated:
        keys = _index_exploded_names(idx, keys[0])
    field = _NAME_FIELDS[kind]
    return set().union(*(pl for key in keys for pl in _lookup(idx, field, key, term.truncated)))


# Not a closure: one that calls itself is a cycle, holding idx until a gc run.
def _index_node(idx: Index, node: Node) -> set[str]:
    if isinstance(node, Term):
        return _index_term(idx, node)
    sets = [_index_node(idx, child) for child in node.children]
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


def execute_local(idx: Index, q: Query) -> set[str]:
    """Evaluate a query against the index via postings set algebra."""
    report = validate(q)
    if not report.ok:
        raise InvalidQueryError("; ".join(i.message for i in report.errors))
    return _index_node(idx, q.root)


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
    """Keys of the descriptor names matched by an exploded MeSH term; falls
    back to the term's own key when the vocabulary has no entry."""
    if vocab is not None and vocab.lookup(text) is not None:
        return {name_key(n) for n in explode_mesh(vocab, text)}
    return {name_key(text)}


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

    tags = doc.pub_types if kind is FieldKind.PUBLICATION_TYPE else doc.mesh_terms
    doc_names = {name_key(t) for t in tags}
    key = name_key(term.text)
    if term.truncated:
        return any(n.startswith(key) for n in doc_names)
    if kind is FieldKind.MESH_EXPLODED:
        return bool(_exploded_names(vocab, term.text) & doc_names)
    return key in doc_names  # MESH_NOEXP, PUBLICATION_TYPE


def _doc_matches(doc: CorpusDoc, node: Node, vocab: Optional[MeshVocab]) -> bool:
    if isinstance(node, Term):
        return _doc_term_match(doc, node, vocab)
    if node.op is Op.AND:
        return all(_doc_matches(doc, c, vocab) for c in node.children)
    if node.op is Op.OR:
        return any(_doc_matches(doc, c, vocab) for c in node.children)
    return (_doc_matches(doc, node.children[0], vocab)
            and not _doc_matches(doc, node.children[1], vocab))


def execute_naive(corpus: Corpus, q: Query, vocab: Optional[MeshVocab] = None) -> set[str]:
    """Oracle evaluator: one boolean predicate per document, no index."""
    report = validate(q)
    if not report.ok:
        raise InvalidQueryError("; ".join(i.message for i in report.errors))
    return {pmid for pmid, doc in corpus.docs.items() if _doc_matches(doc, q.root, vocab)}
