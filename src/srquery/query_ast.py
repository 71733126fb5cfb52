"""PubMed-style Boolean query AST: parsing, serialization, validation.

The grammar is deliberately strict.  Evaluation is left-to-right with no
operator precedence (PubMed's documented behaviour), adjacent terms without
an explicit operator are a parse error, and untagged terms default to
``[All Fields]``.  Runs of the same AND/OR operator at one nesting level
collapse into a single n-ary node, so ``a OR b OR c`` is one OR with three
children.

Grammar::

    expression := clause (OP clause)*
    clause     := '(' expression ')' | term
    term       := quoted-phrase | word+ , optional trailing '*', optional '[tag]'
    OP         := AND | OR | NOT         (case-insensitive)

NOT is binary set difference: ``a NOT b NOT c`` nests as ``(a NOT b) NOT c``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, NamedTuple, Optional, Union

__all__ = [
    "FieldKind",
    "FieldTag",
    "Op",
    "Term",
    "Operator",
    "Query",
    "ClauseStats",
    "ValidationIssue",
    "ValidationReport",
    "QueryParseError",
    "UnbalancedParenError",
    "UnbalancedQuoteError",
    "AdjacentTermsError",
    "EmptyQueryError",
    "NestingTooDeepError",
    "MAX_NESTING",
    "parse",
    "serialize",
    "validate",
    "extract_mesh_terms",
    "count_clauses",
    "iter_terms",
]


# ---------------------------------------------------------------------------
# Field tags
# ---------------------------------------------------------------------------

class FieldKind(Enum):
    TITLE_ABSTRACT = "Title/Abstract"
    ALL_FIELDS = "All Fields"
    TITLE = "Title"
    MESH_EXPLODED = "MeSH"
    MESH_NOEXP = "mesh:noexp"
    PUBLICATION_TYPE = "Publication Type"
    OTHER = "Other"


@dataclass(frozen=True)
class FieldTag:
    """A canonicalized field tag; ``raw`` keeps the original text for OTHER."""

    kind: FieldKind
    raw: Optional[str] = None

    @staticmethod
    def from_raw(raw: str) -> "FieldTag":
        key = " ".join(raw.split()).lower()
        return _TAG_ALIASES.get(key) or FieldTag(FieldKind.OTHER, raw.strip())

    def spelled(self) -> str:
        if self.kind is FieldKind.OTHER:
            return self.raw or ""
        return self.kind.value


ALL_FIELDS = FieldTag(FieldKind.ALL_FIELDS)
TITLE_ABSTRACT = FieldTag(FieldKind.TITLE_ABSTRACT)
MESH_EXPLODED = FieldTag(FieldKind.MESH_EXPLODED)
MESH_NOEXP = FieldTag(FieldKind.MESH_NOEXP)

# Recognized spellings, lowercased with inner whitespace collapsed.  Tags are
# frozen, so one instance per spelling is shared by every parse.
_TAG_ALIASES = {
    "title/abstract": FieldTag(FieldKind.TITLE_ABSTRACT),
    "tiab": FieldTag(FieldKind.TITLE_ABSTRACT),
    "all fields": FieldTag(FieldKind.ALL_FIELDS),
    "all": FieldTag(FieldKind.ALL_FIELDS),
    "title": FieldTag(FieldKind.TITLE),
    "ti": FieldTag(FieldKind.TITLE),
    "mesh": FieldTag(FieldKind.MESH_EXPLODED),
    "mesh terms": FieldTag(FieldKind.MESH_EXPLODED),
    "mh": FieldTag(FieldKind.MESH_EXPLODED),
    "mesh:noexp": FieldTag(FieldKind.MESH_NOEXP),
    "mesh terms:noexp": FieldTag(FieldKind.MESH_NOEXP),
    "mh:noexp": FieldTag(FieldKind.MESH_NOEXP),
    "publication type": FieldTag(FieldKind.PUBLICATION_TYPE),
    "pt": FieldTag(FieldKind.PUBLICATION_TYPE),
}


# ---------------------------------------------------------------------------
# Nodes
# ---------------------------------------------------------------------------

class Op(Enum):
    AND = "AND"
    OR = "OR"
    NOT = "NOT"


@dataclass(frozen=True)
class Term:
    text: str
    field: FieldTag = ALL_FIELDS
    truncated: bool = False

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("term text must be non-empty")


@dataclass(frozen=True)
class Operator:
    op: Op
    children: tuple["Node", ...]

    def __post_init__(self) -> None:
        if self.op is Op.NOT and len(self.children) != 2:
            raise ValueError("NOT takes exactly two operands")
        if self.op is not Op.NOT and len(self.children) < 2:
            raise ValueError(f"{self.op.value} needs at least two operands")


Node = Union[Term, Operator]


@dataclass(frozen=True)
class Query:
    root: Node


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class QueryParseError(ValueError):
    """Base for all query syntax errors; ``pos`` is a character offset."""

    def __init__(self, message: str, pos: int = 0):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnbalancedParenError(QueryParseError):
    pass


class UnbalancedQuoteError(QueryParseError):
    pass


class AdjacentTermsError(QueryParseError):
    pass


class EmptyQueryError(QueryParseError):
    pass


class NestingTooDeepError(QueryParseError):
    pass


# Deepest nesting ``parse`` accepts, counting each open parenthesis and each
# NOT of a chain; it keeps every recursive walk of a tree far from Python's
# recursion limit, and real queries nest a few levels.
MAX_NESTING = 100


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_WORD_BREAK = set(' \t\r\n()[]"“”')
_QUOTE_OPEN = {'"', "“"}
_QUOTE_CLOSE = {'"', "”"}


class _Token(NamedTuple):
    kind: str  # LPAREN RPAREN WORD PHRASE TAG OP
    value: str
    pos: int
    truncated: bool = False


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "(":
            tokens.append(_Token("LPAREN", "(", i))
            i += 1
            continue
        if ch == ")":
            tokens.append(_Token("RPAREN", ")", i))
            i += 1
            continue
        if ch == "[":
            end = text.find("]", i + 1)
            if end < 0:
                raise UnbalancedParenError("unclosed '[' field tag", i)
            tokens.append(_Token("TAG", text[i + 1 : end], i))
            i = end + 1
            continue
        if ch == "]":
            raise UnbalancedParenError("']' without matching '['", i)
        if ch == "”":
            raise UnbalancedQuoteError("'”' without matching '“'", i)
        if ch in _QUOTE_OPEN:
            j = i + 1
            while j < n and text[j] not in _QUOTE_CLOSE:
                j += 1
            if j >= n:
                raise UnbalancedQuoteError("unclosed quote", i)
            phrase = text[i + 1 : j]
            j += 1
            truncated = False
            if phrase.endswith("*"):
                truncated = True
                phrase = phrase.rstrip("*")
            if j < n and text[j] == "*":  # star after closing quote
                truncated = True
                j += 1
            if not phrase.strip():
                raise EmptyQueryError("empty quoted phrase", i)
            tokens.append(_Token("PHRASE", phrase.strip(), i, truncated))
            i = j
            continue
        # A bare word: runs to the next delimiter.
        j = i
        while j < n and text[j] not in _WORD_BREAK:
            j += 1
        word = text[i:j]
        upper = word.upper()
        if upper in ("AND", "OR", "NOT"):
            tokens.append(_Token("OP", upper, i))
        else:
            truncated = False
            if word.endswith("*"):
                truncated = True
                word = word.rstrip("*")
            if not word:
                raise QueryParseError("bare '*' is not a term", i)
            tokens.append(_Token("WORD", word, i, truncated))
        i = j
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[_Token], source_len: int):
        self.tokens = tokens
        self.i = 0
        self.source_len = source_len
        self.depth = 0

    def nest(self, tok: _Token) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise NestingTooDeepError(f"query nests deeper than {MAX_NESTING} levels", tok.pos)

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> Optional[_Token]:
        tok = self.peek()
        if tok is not None:
            self.i += 1
        return tok

    def expression(self) -> Node:
        outer = self.depth
        node = self.clause()
        while True:
            tok = self.peek()
            if tok is None or tok.kind == "RPAREN":
                self.depth = outer
                return node
            if tok.kind != "OP":
                raise AdjacentTermsError(
                    "terms must be joined by AND/OR/NOT", tok.pos
                )
            self.next()
            op = Op(tok.value)
            if op is Op.NOT:  # a NOT chain nests one level per NOT
                self.nest(tok)
            right = self.clause()
            if op is not Op.NOT and isinstance(node, Operator) and node.op is op:
                node = Operator(op, node.children + (right,))
            else:
                node = Operator(op, (node, right))

    def clause(self) -> Node:
        tok = self.peek()
        if tok is None:
            raise QueryParseError("expected a term", self.source_len)
        if tok.kind == "OP":
            raise QueryParseError(f"operator {tok.value} lacks a left operand", tok.pos)
        if tok.kind == "RPAREN":
            raise UnbalancedParenError("')' without matching '('", tok.pos)
        if tok.kind == "TAG":
            raise QueryParseError("field tag without a preceding term", tok.pos)
        if tok.kind == "LPAREN":
            self.next()
            self.nest(tok)
            node = self.expression()
            self.depth -= 1
            closing = self.next()
            if closing is None or closing.kind != "RPAREN":
                raise UnbalancedParenError("unclosed '('", tok.pos)
            return node
        return self.term()

    def term(self) -> Term:
        tok = self.next()
        assert tok is not None
        if tok.kind == "PHRASE":
            text, truncated = tok.value, tok.truncated
        else:
            # Collect a run of bare words into one phrase term; a truncated
            # word always ends the run (truncation binds the final token).
            words = [tok.value]
            truncated = tok.truncated
            while not truncated:
                nxt = self.peek()
                if nxt is None or nxt.kind != "WORD":
                    break
                self.next()
                words.append(nxt.value)
                truncated = nxt.truncated
            text = " ".join(words)
        field_tag = ALL_FIELDS
        nxt = self.peek()
        if nxt is not None and nxt.kind == "TAG":
            self.next()
            field_tag = FieldTag.from_raw(nxt.value)
        return Term(text=text, field=field_tag, truncated=truncated)


def parse(text: str) -> Query:
    """Parse raw query text into a :class:`Query`.

    Raises a :class:`QueryParseError` subclass on malformed input; never
    returns a partially parsed tree.
    """
    if not text or not text.strip():
        raise EmptyQueryError("empty query", 0)
    # Text with a non-space character always lexes to a token or raises.
    tokens = _lex(text)
    parser = _Parser(tokens, len(text))
    root = parser.expression()
    trailing = parser.peek()
    if trailing is not None:
        raise UnbalancedParenError("unexpected trailing input", trailing.pos)
    return Query(root)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_NEEDS_QUOTES = re.compile(r'[\s()\[\]“”]')


def _serialize_term(t: Term) -> str:
    if '"' in t.text:
        raise ValueError(f"term text contains a quote character: {t.text!r}")
    if t.field.kind is FieldKind.OTHER and t.field.raw and "]" in t.field.raw:
        raise ValueError(f"field tag contains ']': {t.field.raw!r}")
    text = t.text + ("*" if t.truncated else "")
    # Operator-named terms must be quoted or they would lex as operators.
    if _NEEDS_QUOTES.search(t.text) or t.text.upper() in ("AND", "OR", "NOT"):
        text = f'"{text}"'
    return f"{text}[{t.field.spelled()}]"


def _serialize_node(node: Node) -> str:
    if isinstance(node, Term):
        return _serialize_term(node)
    inner = f" {node.op.value} ".join(_serialize_node(c) for c in node.children)
    return f"({inner})"


def serialize(q: Query) -> str:
    """Render the canonical text form: uppercase operators, explicit
    parentheses around every operator node, canonical tag spellings, and
    an explicit ``[All Fields]`` on untagged terms."""
    return _serialize_node(q.root)


# ---------------------------------------------------------------------------
# Inspection
# ---------------------------------------------------------------------------

def iter_terms(node: Node) -> Iterator[Term]:
    """Yield every leaf term left to right."""
    if isinstance(node, Term):
        yield node
        return
    for child in node.children:
        yield from iter_terms(child)


def extract_mesh_terms(q: Query) -> list[tuple[str, bool]]:
    """All MeSH-field terms as (text, exploded) pairs, left to right."""
    out = []
    for t in iter_terms(q.root):
        if t.field.kind is FieldKind.MESH_EXPLODED:
            out.append((t.text, True))
        elif t.field.kind is FieldKind.MESH_NOEXP:
            out.append((t.text, False))
    return out


@dataclass(frozen=True)
class ClauseStats:
    term_count: int
    or_operator_count: int
    max_depth: int


def count_clauses(q: Query) -> ClauseStats:
    """Totals over the tree.  ``max_depth`` is the operator nesting depth,
    with a bare single-term query counting as depth 1."""

    def walk(node: Node) -> tuple[int, int, int]:
        if isinstance(node, Term):
            return 1, 0, 0
        terms = ors = depth = 0
        for child in node.children:
            t, o, d = walk(child)
            terms += t
            ors += o
            depth = max(depth, d)
        if node.op is Op.OR:
            ors += 1
        return terms, ors, depth + 1

    terms, ors, depth = walk(q.root)
    return ClauseStats(terms, ors, max(depth, 1))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationIssue:
    code: str
    message: str
    term: Optional[str] = None


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple[ValidationIssue, ...] = ()
    warnings: tuple[ValidationIssue, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.errors


# Minimum token length for a usable truncation stem; shorter stems force
# near-full vocabulary scans at retrieval time.
MIN_TRUNCATION_STEM = 3


def validate(q: Query, vocab=None) -> ValidationReport:
    """Check a query for executability.

    Errors make a query non-executable: term text or a field tag that
    cannot be serialized, which only a hand-built term can hold (``Term``
    and ``Operator`` reject empty text and bad arities themselves).
    Warnings cover unknown field tags, MeSH terms missing from ``vocab``
    (when one is supplied), and truncation stems shorter than
    :data:`MIN_TRUNCATION_STEM`.
    """
    errors: list[ValidationIssue] = []
    warnings: list[ValidationIssue] = []

    def walk(node: Node) -> None:
        if isinstance(node, Term):
            if '"' in node.text:
                errors.append(
                    ValidationIssue(
                        "unserializable-term",
                        "term text contains a quote character",
                        node.text,
                    )
                )
            if node.field.kind is FieldKind.OTHER:
                if node.field.raw and "]" in node.field.raw:
                    errors.append(
                        ValidationIssue(
                            "unserializable-term",
                            f"field tag contains ']': {node.field.raw!r}",
                            node.text,
                        )
                    )
                else:
                    warnings.append(
                        ValidationIssue(
                            "unknown-field-tag",
                            f"unrecognized field tag [{node.field.raw}]; executed as All Fields",
                            node.text,
                        )
                    )
            if node.truncated and len(node.text.replace(" ", "")) < MIN_TRUNCATION_STEM:
                warnings.append(
                    ValidationIssue(
                        "short-truncation-stem",
                        f"truncation stem {node.text!r} is shorter than {MIN_TRUNCATION_STEM} characters",
                        node.text,
                    )
                )
            if vocab is not None and node.field.kind in (
                FieldKind.MESH_EXPLODED,
                FieldKind.MESH_NOEXP,
            ):
                if vocab.lookup(node.text) is None:
                    warnings.append(
                        ValidationIssue(
                            "mesh-not-in-vocabulary",
                            f"MeSH term {node.text!r} is not in the vocabulary",
                            node.text,
                        )
                    )
            return
        for child in node.children:
            walk(child)

    walk(q.root)
    return ValidationReport(tuple(errors), tuple(warnings))
