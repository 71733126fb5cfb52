"""Append-only JSONL run log.

Every pipeline event (generation, execution, evaluation) is one record.
Records are never rewritten; re-running a stage skips run_ids it already
produced, which makes stages idempotent.  Record JSON is key-sorted so a
log is byte-stable apart from timestamps.

An append that dies mid-write leaves an unterminated, unreadable final
line.  Readers warn and skip it, and the next append cuts it off before
writing, so one crash never locks the log.  An unreadable line anywhere
else is corruption and stays an error.  A line is unreadable if it is not
a JSON object, lacks a field or has a value of a type its field does not declare.
"""

from __future__ import annotations

import datetime as _dt
import json
import logging
import os
import threading
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import ClassVar, Iterable, Optional

from .collections import json_fields, json_object
from .query_ast import Query, QueryParseError, parse

__all__ = ["RunRecord", "RunLogError", "append_records", "read_records", "check_integrity"]


class RunLogError(ValueError):
    pass


log = logging.getLogger(__name__)

_WRITE_LOCK = threading.Lock()


@dataclass(frozen=True)
class RunRecord:
    run_id: str
    stage: str                      # generate | execute | evaluate
    topic_id: str
    prompt_id: str                  # q1..q7 | guided | original | ...
    example_mode: str = "none"      # none | hqe | re
    seed_source: str = ""           # refine stages: original | conceptual | objective | q4-runlog
    run_index: int = 0
    attempt: int = 1
    backend: str = ""
    raw_response_digest: str = ""
    query: str = ""                 # canonical serialization
    query_digest: str = ""
    retrieved_count: Optional[int] = None
    metrics: Optional[dict[str, float]] = None
    parent_run_id: str = ""
    status: str = "ok"              # ok | error | skipped
    error: str = ""
    timestamp: str = field(default="", compare=False)

    _FIELD_NAMES: ClassVar[frozenset[str]]  # set below, once the fields exist

    def to_json(self) -> str:
        obj = {k: v for k, v in vars(self).items() if v not in (None, "", {})}
        obj.setdefault("status", self.status)
        return json.dumps(obj, sort_keys=True, ensure_ascii=False)

    @classmethod
    def from_json(cls, line: str) -> "RunRecord":
        """A record from one log line, a JSON object of well-typed fields (else
        ``ValueError``).  Unknown keys are dropped; a missing one raises ``TypeError``."""
        obj = json_fields(cls, json_object(line))
        if obj.keys() <= cls._FIELD_NAMES:
            return cls(**obj)
        return cls(**{k: v for k, v in obj.items() if k in cls._FIELD_NAMES})


RunRecord._FIELD_NAMES = frozenset(f.name for f in fields(RunRecord))


def _now() -> str:
    return _dt.datetime.now(_dt.timezone.utc).isoformat()


def _decode(line: bytes) -> RunRecord:
    return RunRecord.from_json(line.decode("utf-8"))


def _heal_torn_tail(f) -> None:
    """Cut off an unterminated, unreadable final line (a crashed append),
    or terminate a complete final record, so the next write starts a line."""
    size = f.seek(0, os.SEEK_END)
    if size == 0:
        return
    f.seek(size - 1)
    if f.read(1) == b"\n":
        return
    f.seek(0)
    data = f.read()
    start = data.rfind(b"\n") + 1
    try:
        _decode(data[start:])
    except (ValueError, TypeError):
        log.warning("%s: cutting torn final line %d before appending",
                    f.name, data.count(b"\n", 0, start) + 1)
        f.truncate(start)
    else:
        f.write(b"\n")


def append_records(path, records: Iterable[RunRecord]) -> int:
    """Append records (stamping timestamps) through a single-writer lock."""
    lines = []
    for record in records:
        if not record.timestamp:
            record = replace(record, timestamp=_now())
        lines.append(record.to_json())
    if not lines:
        return 0
    with _WRITE_LOCK:
        with open(path, "a+b") as f:
            _heal_torn_tail(f)
            f.write("".join(line + "\n" for line in lines).encode("utf-8"))
    return len(lines)


def read_records(path) -> list[RunRecord]:
    path = Path(path)
    if not path.exists():
        return []
    records = []
    with open(path, "rb") as f:
        for line_no, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                records.append(_decode(line))
            except (ValueError, TypeError) as e:
                # Only the final line can lack its newline.
                if not line.endswith(b"\n"):
                    log.warning("%s: skipping torn final line %d: %s", path, line_no, e)
                    continue
                raise RunLogError(f"{path}:{line_no}: unreadable record: {e}") from e
    return records


def check_integrity(records: Iterable[RunRecord],
                    trees: Optional[dict[str, Query]] = None) -> list[str]:
    """Log-integrity sweep: unique run_ids and every recorded query must
    re-parse.  Returns a list of problems (empty when clean), naming every
    record that carries a bad query; each distinct text is parsed once.
    ``trees``, when given, receives the tree of each text that parsed."""
    problems = []
    seen: set[str] = set()
    parse_errors: dict[str, str] = {}  # query text -> "" or its parse error
    for record in records:
        if record.run_id in seen:
            problems.append(f"duplicate run_id {record.run_id}")
        seen.add(record.run_id)
        if record.query:
            if record.query not in parse_errors:
                try:
                    tree = parse(record.query)
                except QueryParseError as e:
                    parse_errors[record.query] = str(e)
                else:
                    parse_errors[record.query] = ""
                    if trees is not None:
                        trees[record.query] = tree
            if parse_errors[record.query]:
                problems.append(f"{record.run_id}: query does not re-parse: "
                                f"{parse_errors[record.query]}")
    return problems
