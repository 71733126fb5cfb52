import logging

import pytest

from srquery.runlog import RunLogError, RunRecord, append_records, read_records


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


def test_complete_unterminated_final_record_is_kept(tmp_path):
    path = tmp_path / "runlog.jsonl"
    path.write_text(record("r1").to_json(), encoding="utf-8")
    assert [r.run_id for r in read_records(path)] == ["r1"]
    append_records(path, [record("r2")])
    assert [r.run_id for r in read_records(path)] == ["r1", "r2"]


@pytest.mark.parametrize("bad", [b"{not json\n", b'{"run_id": "r\xff"}\n'])
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
