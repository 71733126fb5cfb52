"""What the committed benchmark in ``perfbench/`` reads from outside
``src/``.  The benchmark reaches into the program by name: its tracer
rebinds module attributes, its checks read the result cache directly, and
its child process calls the ``cmd_*`` stages with keyword arguments.  A
rename that breaks one of these fails here instead of in a benchmark run."""

import inspect
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import checks  # noqa: E402
import child  # noqa: E402
from tracing import Tracer  # noqa: E402

import srquery.collections as colls  # noqa: E402
import srquery.entrez as ez  # noqa: E402
import srquery.gateway as gw  # noqa: E402
import srquery.pipeline as pl  # noqa: E402
import srquery.prompts as pr  # noqa: E402
import srquery.ratelimit as ratelimit  # noqa: E402
import srquery.retrieval as rt  # noqa: E402
import srquery.runlog as rl  # noqa: E402


def test_tracer_finds_every_entry_point():
    tracer = Tracer()
    tracer.install((pl, gw, ez, colls, rt, rl, pr, ratelimit))
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert not hasattr(pl.build_index, "__wrapped__")


def test_cached_result_file_is_what_the_checks_read(tmp_path):
    ez.store_result(tmp_path, "abc123", ["p3", "p1", "p2"])
    entry = json.loads((tmp_path / "abc123.json").read_text(encoding="utf-8"))
    assert entry["pmids"] == ["p1", "p2", "p3"]
    assert checks.cached_pmids(tmp_path, "abc123") == {"p1", "p2", "p3"}


def test_stage_calls_of_the_child_bind():
    signature = inspect.signature(pl.cmd_refine)
    signature.bind(None, "q7", "q4-runlog", example_mode="re", backend=None)
    for stages in child.STAGES.values():
        for stage, args in stages:
            kwargs = {"backend": None} if stage in child.GENERATION_STAGES else {}
            if stage == "refine" and len(args) == 3:
                args, kwargs["example_mode"] = args[:2], args[2]
            inspect.signature(getattr(pl, f"cmd_{stage}")).bind(None, *args, **kwargs)
