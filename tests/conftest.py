from __future__ import annotations

import sys
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"

# Make the shared generators importable as plain modules from any test.
sys.path.insert(0, str(Path(__file__).parent))

from srquery.collections import load_corpus, load_mesh, load_qrels, load_topics  # noqa: E402


@pytest.fixture(scope="session")
def fixture_dir() -> Path:
    return FIXTURES / "collection"


@pytest.fixture(scope="session")
def topics(fixture_dir):
    return load_topics(fixture_dir / "topics.jsonl")


@pytest.fixture(scope="session")
def seed_topics(fixture_dir):
    return load_topics(fixture_dir / "seed_topics.jsonl")


@pytest.fixture(scope="session")
def qrels(fixture_dir):
    return load_qrels(fixture_dir / "qrels.txt")


@pytest.fixture(scope="session")
def corpus(fixture_dir):
    return load_corpus(fixture_dir / "corpus.jsonl")


@pytest.fixture(scope="session")
def vocab(fixture_dir):
    return load_mesh(fixture_dir / "mesh.tsv")
