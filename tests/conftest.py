from __future__ import annotations

import sys
import threading
from contextlib import contextmanager
from http.server import ThreadingHTTPServer
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"

# Make the shared generators importable as plain modules from any test.
sys.path.insert(0, str(Path(__file__).parent))

from srquery.collections import load_corpus, load_mesh, load_qrels, load_topics  # noqa: E402

# A JSON text nested far deeper than any decoder's recursion limit.
DEEP_JSON = b"[" * 100_000 + b"]" * 100_000


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


@contextmanager
def stub_server(handler):
    """Serve ``handler`` on a free local port from a daemon thread and yield
    the base URL; shut the server down on exit.  ``serve_forever`` checks for
    a shutdown request once per poll interval, so a short one keeps each
    teardown from waiting up to the default half second."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                     daemon=True).start()
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()
