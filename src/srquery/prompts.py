"""Prompt templates and example-review selection.

Template bodies live in ``prompts/*.txt`` as data, not code: they are the
experimental variable, so they are checked byte-for-byte against a digest
manifest and rendering never alters anything but the named placeholders
(curly quotes and all).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cache
from importlib import resources
from typing import Callable, Optional, Sequence

from .collections import ReviewTopic
from .errors import InputError
from .query_ast import parse, sha256_hex
from .retrieval import tokenize

__all__ = [
    "TEMPLATE_IDS",
    "PromptTemplate",
    "PromptBindings",
    "ExampleReview",
    "MissingBindingError",
    "EmptyPoolError",
    "MissingFixtureError",
    "load_template",
    "load_manifest",
    "template_digest",
    "render",
    "dice_score",
    "select_related_example",
    "hqe_example",
]

TEMPLATE_IDS = (
    "q1", "q2", "q3", "q4", "q5", "q6", "q7",
    "guided_step1", "guided_step2", "guided_step3", "guided_step4",
)

_PLACEHOLDER_RE = re.compile(r"\{([a-z_]+)\}")


class MissingBindingError(InputError, LookupError):
    pass


class EmptyPoolError(InputError, ValueError):
    pass


class MissingFixtureError(FileNotFoundError):
    pass


class UnknownTemplateError(LookupError):
    pass


@dataclass(frozen=True)
class PromptTemplate:
    template_id: str
    body: str

    def placeholders(self) -> set[str]:
        return set(_PLACEHOLDER_RE.findall(self.body))


@dataclass(frozen=True)
class PromptBindings:
    review_title: Optional[str] = None
    example_review_title: Optional[str] = None
    example_review_query: Optional[str] = None
    initial_query: Optional[str] = None
    example_review_initial_query: Optional[str] = None
    example_review_refined_query: Optional[str] = None
    seed_study_title: Optional[str] = None
    seed_study_text: Optional[str] = None


@dataclass(frozen=True)
class ExampleReview:
    topic_id: str
    title: str
    query_text: str
    refined_query_text: Optional[str] = None

    def __post_init__(self) -> None:
        parse(self.query_text)  # must be a well-formed query


# ---------------------------------------------------------------------------
# Template loading
# ---------------------------------------------------------------------------

# Bundled files are digest-pinned package data, so each is read once per
# process.  A missing one raises on every call: the cache keeps no errors.
@cache
def _read_data(name: str) -> str:
    ref = resources.files("srquery") / "prompts" / name
    if not ref.is_file():
        raise MissingFixtureError(f"missing bundled file prompts/{name}")
    return ref.read_text(encoding="utf-8")


def load_template(template_id: str) -> PromptTemplate:
    if template_id not in TEMPLATE_IDS:
        raise UnknownTemplateError(template_id)
    return PromptTemplate(template_id, _read_data(f"{template_id}.txt"))


def load_manifest() -> dict[str, str]:
    return json.loads(_read_data("manifest.json"))


def template_digest(template: PromptTemplate) -> str:
    return sha256_hex(template.body)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render(template_id: str, bindings: PromptBindings) -> str:
    """Substitute placeholders; everything else passes through untouched."""
    template = load_template(template_id)
    values = vars(bindings)

    def substitute(match: re.Match) -> str:
        name = match.group(1)
        if name not in values:
            raise MissingBindingError(f"template {template_id} uses unknown placeholder {name!r}")
        value = values[name]
        if value is None:
            raise MissingBindingError(f"template {template_id} requires binding {name!r}")
        return value

    return _PLACEHOLDER_RE.sub(substitute, template.body)


# ---------------------------------------------------------------------------
# Example selection
# ---------------------------------------------------------------------------

Scorer = Callable[[str, str], float]


def dice_score(a: str, b: str) -> float:
    """Dice coefficient over lowercased, de-duplicated token sets."""
    ta, tb = set(tokenize(a)), set(tokenize(b))
    if not ta and not tb:
        return 0.0
    return 2.0 * len(ta & tb) / (len(ta) + len(tb))


def select_related_example(
    topic: ReviewTopic,
    pool: Sequence[ExampleReview],
    scorer: Scorer = dice_score,
) -> ExampleReview:
    """Top-scoring example for the topic's title, excluding the topic itself;
    ties break toward the lexicographically smallest topic_id."""
    candidates = [ex for ex in pool if ex.topic_id != topic.topic_id]
    if not candidates:
        raise EmptyPoolError(f"no candidate examples for topic {topic.topic_id}")
    return min(candidates, key=lambda ex: (-scorer(topic.title, ex.title), ex.topic_id))


def hqe_example() -> ExampleReview:
    """The bundled high-quality example (CLEF topic CD010438)."""
    ref = resources.files("srquery") / "data" / "hqe_example.json"
    if not ref.is_file():
        raise MissingFixtureError("missing bundled file data/hqe_example.json")
    obj = json.loads(ref.read_text(encoding="utf-8"))
    return ExampleReview(
        topic_id=obj["topic_id"],
        title=obj["title"],
        query_text=obj["query"],
        refined_query_text=obj.get("refined_query"),
    )

