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
A term's text is stripped, and a trailing '*' truncates it, quoted or not and
whitespace before it allowed: every serialization parses back to its query.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from itertools import islice, product
from typing import Iterator, Optional, Union

try:  # CPython's own SHA-256; hashlib would map OpenSSL's libcrypto for it.
    from _sha2 import sha256 as _sha256  # 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

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
    "sha256_hex",
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
        tag = _TAG_ALIASES.get(" ".join(raw.split()).lower())
        return tag if tag is not None else FieldTag(FieldKind.OTHER, raw.strip())

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
_TOO_DEEP = f"query nests deeper than {MAX_NESTING} levels"


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

# One compiled scan cuts the text into token strings, and a token's first
# character is its kind: '(' and ')', '[' a field tag, a quote a phrase,
# anything else a word (an operator is a word spelled AND, OR or NOT in any
# case).  Malformed tokens scan too -- a lone ']' or '”', a tag or phrase
# left open runs to the end of the text, a word of only '*' -- so the scan
# never fails; the parser rejects them where it reads them.
#
# Whitespace is asymmetric: a character is whitespace when str.isspace()
# says so (exactly what ``\s`` matches), and whitespace separates tokens
# and cannot start a word, but only space, tab, CR and LF end one: "a\x0bb"
# is one word.  No alternative matches a whitespace character, so findall
# skips it; a leading ``\s*`` would instead backtrack and let a trailing
# "\xa0" or "\x0b" become a word.
_TOKEN = re.compile(
    r'[()\]”]'
    r'|\[[^\]]*\]?'
    r'|["“][^"”]*(?:["”]\*?)?'
    r'|[^\s()\[\]"“”][^ \t\r\n()\[\]"“”]*'
)
# Every case spelling ("aNd", ...).  No other character upper-cases to one
# of these letters, so this equals testing ``word.upper()``.
_OPS = {"".join(s): op for op in Op for s in product(*zip(op.value, op.value.lower()))}


def _term_text(text: str, truncated: bool) -> tuple[str, bool]:
    """A term's text, stripped, and truncation: a trailing '*' truncates,
    whitespace before it allowed.  The serializer's quoting relies on it."""
    text = text.strip()
    while text[-1:] == "*":
        text = text[:-1].rstrip()
        truncated = True
    return text, truncated


def _phrase(tok: str) -> Optional[tuple[str, bool]]:
    """A closed phrase's term text and truncation (a '*' may follow the quote), else None."""
    body = tok.rstrip("*")  # at most one '*' follows a closing quote
    if len(body) < 2 or body[-1] not in '"”':
        return None
    return _term_text(body[1:-1], len(body) < len(tok))


def _first_bad_token(tokens: list[str]) -> Optional[tuple[int, type, str]]:
    """The lexical errors, in text order: they win over any parse error."""
    for k, tok in enumerate(tokens):
        c = tok[0]
        if c == "[":
            if tok[-1] != "]":
                return k, UnbalancedParenError, "unclosed '[' field tag"
        elif c == "]":
            return k, UnbalancedParenError, "']' without matching '['"
        elif c == "”":
            return k, UnbalancedQuoteError, "'”' without matching '“'"
        elif c in '"“':
            phrase = _phrase(tok)
            if phrase is None:
                return k, UnbalancedQuoteError, "unclosed quote"
            if not phrase[0]:
                return k, EmptyQueryError, "empty quoted phrase"
        elif not tok.rstrip("*"):
            return k, QueryParseError, "bare '*' is not a term"
    return None


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Recursive descent over the token list by index: each function takes the
# index of its first token and returns the node with the index after it.
# An error is a _Syntax carrying the failing token's index; parse() turns it
# into the public error, first letting any lexical error win, and only then
# finds the character position by scanning the text again.

class _Syntax(Exception):
    """(token index, error class, message); empty for a malformed token."""


def _expression(tokens: list[str], i: int, depth: int) -> tuple[Node, int]:
    # Operators bind left to right with no precedence; a run of one AND or
    # OR collects its operands in a list and becomes one Operator when the
    # run ends, and a parenthesised left operand of the same operator is
    # flattened into it: "(a OR b) OR c" is OR(a, b, c).
    node, i = _clause(tokens, i, depth)
    run: Optional[Op] = None
    operands: list[Node] = []
    n = len(tokens)
    while i < n:
        tok = tokens[i]
        if tok == ")":
            break
        op = _OPS.get(tok)
        if op is None:
            raise _Syntax(i, AdjacentTermsError, "terms must be joined by AND/OR/NOT")
        if op is Op.NOT:  # a NOT chain nests one level per NOT
            if depth == MAX_NESTING:
                raise _Syntax(i, NestingTooDeepError, _TOO_DEEP)
            depth += 1
        right, i = _clause(tokens, i + 1, depth)
        if op is not run or op is Op.NOT:  # close the open run, start op's
            if run is not None:
                node = Operator(run, tuple(operands))
            run = op
            flat = op is not Op.NOT and isinstance(node, Operator) and node.op is op
            operands = list(node.children) if flat else [node]
        operands.append(right)
    if run is not None:
        node = Operator(run, tuple(operands))
    return node, i


def _clause(tokens: list[str], i: int, depth: int) -> tuple[Node, int]:
    n = len(tokens)
    if i == n:
        raise _Syntax(i, QueryParseError, "expected a term")
    tok = tokens[i]
    c = tok[0]
    if c == "(":
        if depth == MAX_NESTING:
            raise _Syntax(i, NestingTooDeepError, _TOO_DEEP)
        node, j = _expression(tokens, i + 1, depth + 1)
        if j == n:  # an expression stops only at ')' or the end
            raise _Syntax(i, UnbalancedParenError, "unclosed '('")
        return node, j + 1
    if c == ")":
        raise _Syntax(i, UnbalancedParenError, "')' without matching '('")
    if c == "[":
        raise _Syntax(i, QueryParseError, "field tag without a preceding term")
    if tok in _OPS:
        raise _Syntax(i, QueryParseError, f"operator {_OPS[tok].value} lacks a left operand")
    if c in '"“”]':  # a lone '”' or ']' is not a closed phrase either
        phrase = _phrase(tok)
        if phrase is None or not phrase[0]:
            raise _Syntax()
        text, truncated = phrase
        i += 1
    else:
        # A run of bare words is one phrase term; a word ending in '*' ends
        # the run (truncation binds the final token).
        words = []
        while True:
            if tok[0] == "*" and not _term_text(tok, False)[0]:
                raise _Syntax(i, QueryParseError, "bare '*' is not a term")
            i += 1
            words.append(tok)
            if tok[-1] == "*" or i == n:
                break
            tok = tokens[i]
            if tok[0] in '()[]"“”' or tok in _OPS:
                break
        text, truncated = _term_text(" ".join(words), False)
    field_tag = ALL_FIELDS
    if i < n and tokens[i][0] == "[":
        tag = tokens[i]
        if tag[-1] != "]":
            raise _Syntax()
        field_tag = FieldTag.from_raw(tag[1:-1])
        i += 1
    return Term(text, field_tag, truncated), i


def parse(text: str) -> Query:
    """Parse raw query text into a :class:`Query`.

    Raises a :class:`QueryParseError` subclass on malformed input; never
    returns a partially parsed tree.
    """
    if not text or not text.strip():
        raise EmptyQueryError("empty query", 0)
    # Text with a non-space character always scans to at least one token.
    tokens = _TOKEN.findall(text)
    try:
        root, i = _expression(tokens, 0, 0)
        if i < len(tokens):
            raise _Syntax(i, UnbalancedParenError, "unexpected trailing input")
    except _Syntax as e:
        k, error, message = _first_bad_token(tokens) or e.args
        pos = len(text) if k == len(tokens) else \
            next(islice(_TOKEN.finditer(text), k, None)).start()
        raise error(message, pos) from None
    return Query(root)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_NEEDS_QUOTES = re.compile(r'[\s()\[\]“”]')


def _unwritable(t: Term) -> Optional[str]:
    """Why a term has no text form, or None (only a hand-built one lacks it)."""
    if '"' in t.text or "”" in t.text:
        return f"term text contains a quote character: {t.text!r}"
    if _term_text(t.text, t.truncated) != (t.text, t.truncated):
        return f"term text has surrounding whitespace or a trailing '*': {t.text!r}"
    if t.field.kind is FieldKind.OTHER and t.field.raw and "]" in t.field.raw:
        return f"field tag contains ']': {t.field.raw!r}"
    return None


def _serialize_term(t: Term) -> str:
    reason = _unwritable(t)
    if reason is not None:
        raise ValueError(reason)
    text = t.text + ("*" if t.truncated else "")
    # Operator-named terms must be quoted or they would lex as operators.
    if _NEEDS_QUOTES.search(t.text) or t.text in _OPS:
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


def sha256_hex(text: str) -> str:
    return _sha256(text.encode("utf-8")).hexdigest()


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
    # Not a recursive closure: one is a cycle, holding vocab until a gc run.
    for term in iter_terms(q.root):
        reason = _unwritable(term)
        if reason is not None:
            errors.append(ValidationIssue("unserializable-term", reason, term.text))
        elif term.field.kind is FieldKind.OTHER:
            warnings.append(
                ValidationIssue(
                    "unknown-field-tag",
                    f"unrecognized field tag [{term.field.raw}]; executed as All Fields",
                    term.text,
                )
            )
        if term.truncated and len(term.text.replace(" ", "")) < MIN_TRUNCATION_STEM:
            warnings.append(
                ValidationIssue(
                    "short-truncation-stem",
                    f"truncation stem {term.text!r} is shorter than {MIN_TRUNCATION_STEM} characters",
                    term.text,
                )
            )
        if vocab is not None and term.field.kind in (
            FieldKind.MESH_EXPLODED,
            FieldKind.MESH_NOEXP,
        ):
            if vocab.lookup(term.text) is None:
                warnings.append(
                    ValidationIssue(
                        "mesh-not-in-vocabulary",
                        f"MeSH term {term.text!r} is not in the vocabulary",
                        term.text,
                    )
                )
    return ValidationReport(tuple(errors), tuple(warnings))
