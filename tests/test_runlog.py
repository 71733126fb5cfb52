import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DEEP_JSON
from srquery import runlog
from srquery.runlog import (
    RunLogError,
    RunRecord,
    append_records,
    check_integrity,
    read_records,
)


def record(run_id: str, query: str = "thyroid[tiab]") -> RunRecord:
    return RunRecord(run_id=run_id, stage="generate", topic_id="T1", prompt_id="q1",
                     query=query, timestamp="2024-01-01T00:00:00+00:00")


def torn_log(tmp_path):
    """A log of two records whose second append died inside a multibyte
    character: the last line is unterminated and undecodable."""
    path = tmp_path / "runlog.jsonl"
    append_records(path, [record("r1")])
    line = (record("r2", query="café[tiab]").to_json() + "\n").encode("utf-8")
    with open(path, "ab") as f:
        f.write(line[: line.index("é".encode("utf-8")) + 1])
    return path


def test_torn_final_line_is_skipped_with_a_warning(tmp_path, caplog):
    path = torn_log(tmp_path)
    with caplog.at_level(logging.WARNING, logger="srquery.runlog"):
        assert [r.run_id for r in read_records(path)] == ["r1"]
    assert "torn final line 2" in caplog.text


def test_append_after_torn_line_heals_the_log(tmp_path, caplog):
    path = torn_log(tmp_path)
    append_records(path, [record("r3"), record("r4")])
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="srquery.runlog"):
        assert [r.run_id for r in read_records(path)] == ["r1", "r3", "r4"]
    assert caplog.text == ""
    assert path.read_bytes().count(b"\n") == 3


def test_append_after_a_tail_torn_one_byte_past_a_newline(tmp_path):
    path = tmp_path / "runlog.jsonl"
    append_records(path, [record("r1")])
    with open(path, "ab") as f:
        f.write(b"{")
    append_records(path, [record("r2")])
    assert [r.run_id for r in read_records(path)] == ["r1", "r2"]


class _CountingFile:
    """An open file that records the size of each read."""

    def __init__(self, f, reads: list):
        self._f, self._reads = f, reads

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()

    def __getattr__(self, name):
        return getattr(self._f, name)

    def read(self, size=-1):
        data = self._f.read(size)
        self._reads.append(len(data))
        return data


def test_a_clean_append_to_a_long_log_reads_only_its_last_byte(tmp_path, monkeypatch, caplog):
    path = tmp_path / "runlog.jsonl"
    append_records(path, [record(f"r{i}") for i in range(1000)])
    reads = []
    monkeypatch.setattr(runlog, "open", lambda *a, **kw: _CountingFile(open(*a, **kw), reads),
                        raising=False)
    with caplog.at_level(logging.WARNING, logger="srquery.runlog"):
        append_records(path, [record("r1000")])
    assert reads == [1] and caplog.text == ""
    monkeypatch.undo()
    assert [r.run_id for r in read_records(path)] == [f"r{i}" for i in range(1001)]


def test_complete_unterminated_final_record_is_kept(tmp_path):
    path = tmp_path / "runlog.jsonl"
    path.write_text(record("r1").to_json(), encoding="utf-8")
    assert [r.run_id for r in read_records(path)] == ["r1"]
    append_records(path, [record("r2")])
    assert [r.run_id for r in read_records(path)] == ["r1", "r2"]


def test_a_torn_tail_nested_too_deep_is_skipped_then_cut(tmp_path, caplog):
    path = tmp_path / "runlog.jsonl"
    append_records(path, [record("r1")])
    with open(path, "ab") as f:
        f.write(DEEP_JSON)
    with caplog.at_level(logging.WARNING, logger="srquery.runlog"):
        assert [r.run_id for r in read_records(path)] == ["r1"]
    assert "torn final line 2" in caplog.text
    append_records(path, [record("r2")])
    assert [r.run_id for r in read_records(path)] == ["r1", "r2"]


@pytest.mark.parametrize("bad", [b"{not json\n", b'{"run_id": "r\xff"}\n', b'["r2"]\n',
                                 pytest.param(DEEP_JSON + b"\n", id="too-deep")])
def test_bad_line_before_the_end_stays_a_hard_error(tmp_path, bad):
    path = tmp_path / "runlog.jsonl"
    append_records(path, [record("r1")])
    with open(path, "ab") as f:
        f.write(bad)
    with pytest.raises(RunLogError, match=":2:"):
        read_records(path)
    append_records(path, [record("r3")])
    with pytest.raises(RunLogError, match=":2:"):
        read_records(path)


def test_unknown_key_is_dropped_on_read(tmp_path):
    path = tmp_path / "runlog.jsonl"
    line = record("r1").to_json()
    path.write_text(line[:-1] + ', "zz_added_later": {"x": 1}}\n', encoding="utf-8")
    assert read_records(path) == [record("r1")]


def test_line_missing_run_id_is_a_hard_error_naming_it(tmp_path):
    path = tmp_path / "runlog.jsonl"
    append_records(path, [record("r1"), record("r2")])
    with open(path, "a", encoding="utf-8") as f:
        f.write('{"prompt_id": "q1", "stage": "generate", "topic_id": "T1"}\n')
    append_records(path, [record("r4")])
    with pytest.raises(RunLogError, match=r":3: unreadable record: .*run_id"):
        read_records(path)


def test_check_integrity_reports_every_problem_in_record_order():
    # One bad text carried by two records is reported for both of them.
    records = [record("a"), record("b", query="(a AND b"), record("a", query=""),
               record("c", query="(a AND b"), record("b")]
    assert check_integrity(records) == [
        "b: query does not re-parse: unclosed '(' (at position 0)",
        "duplicate run_id a",
        "c: query does not re-parse: unclosed '(' (at position 0)",
        "duplicate run_id b",
    ]


def test_to_json_golden_bytes():
    # Empty strings, None and a top-level {} are dropped; 0, nested {} and
    # non-ASCII text are written as they are; keys are sorted.
    evaluated = RunRecord(
        run_id="eval:exec:local:g1", stage="evaluate", topic_id="CD1", prompt_id="q4",
        example_mode="hqe", query="café[tiab]", retrieved_count=0,
        metrics={"recall": 1.0, "precision": 0.25, "hit_count": 0, "extra": {}},
        timestamp="2024-01-01T00:00:00+00:00",
    )
    assert evaluated.to_json() == (
        '{"attempt": 1, "example_mode": "hqe", "metrics": {"extra": {}, "hit_count": 0, '
        '"precision": 0.25, "recall": 1.0}, "prompt_id": "q4", "query": "café[tiab]", '
        '"retrieved_count": 0, "run_id": "eval:exec:local:g1", "run_index": 0, '
        '"stage": "evaluate", "status": "ok", "timestamp": "2024-01-01T00:00:00+00:00", '
        '"topic_id": "CD1"}'
    )
    bare = RunRecord(run_id="g2", stage="generate", topic_id="CD1", prompt_id="q1",
                     metrics={}, status="")
    assert bare.to_json() == (
        '{"attempt": 1, "example_mode": "none", "prompt_id": "q1", "run_id": "g2", '
        '"run_index": 0, "stage": "generate", "status": "", "topic_id": "CD1"}'
    )


def test_append_stamps_a_timestamp_and_keeps_the_rest(tmp_path):
    path = tmp_path / "runlog.jsonl"
    plain = RunRecord(run_id="r1", stage="generate", topic_id="T1", prompt_id="q1")
    append_records(path, [plain])
    (stored,) = read_records(path)
    assert stored == plain and stored.timestamp
    assert plain.timestamp == ""


_text = st.text(max_size=12)
_required = st.text(min_size=1, max_size=12)
_metric_values = st.one_of(st.integers(-10**6, 10**6),
                           st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(st.builds(
    RunRecord,
    # Values that to_json drops must equal the field default to come back.
    run_id=_required, stage=_required, topic_id=_required, prompt_id=_required,
    example_mode=st.sampled_from(["none", "hqe", "re"]),
    seed_source=_text, run_index=st.integers(0, 50), attempt=st.integers(0, 9),
    backend=_text, raw_response_digest=_text, query=_text, query_digest=_text,
    retrieved_count=st.one_of(st.none(), st.integers(0, 10**6)),
    metrics=st.one_of(st.none(), st.dictionaries(_text, _metric_values, min_size=1)),
    parent_run_id=_text, status=_text, error=_text, timestamp=_text,
))
def test_json_round_trip(rec):
    back = RunRecord.from_json(rec.to_json())
    assert back == rec
    assert back.timestamp == rec.timestamp
