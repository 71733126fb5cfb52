"""Correctness checks on a finished repetition.  Each returns a list of
problems; the runner fails the run if any check reports one."""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

import gen

# Run-log fields that legitimately differ between repetitions.
_VOLATILE = ("timestamp",)
_PORT_RE = re.compile(r"127\.0\.0\.1:\d+")
JITTER_MS = 40.0


def log_digest(runlog: Path) -> str:
    """SHA-256 of the run log with timestamps removed and the stub's port
    masked, so repetitions of one commit must agree byte for byte."""
    h = hashlib.sha256()
    with open(runlog, "r", encoding="utf-8") as f:
        for line in f:
            obj = json.loads(line)
            for key in _VOLATILE:
                obj.pop(key, None)
            h.update(_PORT_RE.sub("127.0.0.1:PORT", json.dumps(obj, sort_keys=True)).encode())
            h.update(b"\n")
    return h.hexdigest()


def file_digest(path: Path) -> str | None:
    if not path.exists():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_log(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def cached_pmids(cache_dir: Path, digest: str) -> set[str] | None:
    path = cache_dir / f"{digest}.json"
    if not path.exists():
        return None
    return set(json.loads(path.read_text(encoding="utf-8"))["pmids"])


def read_qrels(path: Path) -> dict[str, dict[str, int]]:
    out: dict[str, dict[str, int]] = {}
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            parts = line.split()
            if len(parts) == 4:
                out.setdefault(parts[0], {})[parts[2]] = int(parts[3])
    return out


def check_evaluations(rep: Path) -> tuple[list[str], int]:
    """Recompute P/R/F1/F3 of every evaluation record from the cached pmids
    and the qrels file with plain set arithmetic."""
    problems = []
    qrels = read_qrels(rep / "inputs" / "qrels.txt")
    checked = 0
    for r in read_log(rep / "runs" / "runlog.jsonl"):
        if r["stage"] != "evaluate" or r["status"] != "ok":
            continue
        retrieved = cached_pmids(rep / "runs" / "cache", r["query_digest"])
        if retrieved is None:
            problems.append(f"{r['run_id']}: evaluated without a cached result")
            continue
        relevant = {p for p, g in qrels.get(r["topic_id"], {}).items() if g >= 1}
        hits = len(retrieved & relevant)
        p = hits / len(retrieved) if retrieved else 0.0
        rc = hits / len(relevant)
        want = {"precision": p, "recall": rc,
                "f1": 2 * p * rc / (p + rc) if p + rc else 0.0,
                "f3": 10 * p * rc / (9 * p + rc) if p + rc else 0.0,
                "retrieved_count": len(retrieved), "relevant_count": len(relevant),
                "hit_count": hits}
        got = r.get("metrics") or {}
        for key, value in want.items():
            if abs(got.get(key, float("nan")) - value) > 1e-12:
                problems.append(f"{r['run_id']}: {key} is {got.get(key)}, expected {value}")
        checked += 1
    return problems, checked


def check_oracle(rep: Path, seed: int, queries: int, docs: int) -> tuple[list[str], int]:
    """Re-run a seeded sample of executed queries through ``execute_naive``
    on a seeded sample of documents (half retrieved, half not) and require
    the cached pmid set restricted to those documents.  Retrieval is
    per-document, so restriction commutes with both engines; sampling keeps
    the oracle, which explodes MeSH once per document, to seconds."""
    from srquery.collections import Corpus, load_corpus, load_mesh
    from srquery.query_ast import parse
    from srquery.retrieval import execute_naive

    corpus = load_corpus(rep / "inputs" / "corpus.jsonl")
    vocab = load_mesh(rep / "inputs" / "mesh.tsv")
    executed = sorted((r for r in read_log(rep / "runs" / "runlog.jsonl")
                       if r["stage"] == "execute" and r["status"] == "ok"),
                      key=lambda r: r["run_id"])
    rng = random.Random(f"oracle:{seed}")
    problems = []
    all_pmids = sorted(corpus.docs)
    for r in rng.sample(executed, min(queries, len(executed))):
        cached = cached_pmids(rep / "runs" / "cache", r["query_digest"]) or set()
        hit = sorted(cached & corpus.docs.keys())
        miss = [p for p in rng.sample(all_pmids, min(len(all_pmids), docs)) if p not in cached]
        sample = set(rng.sample(hit, min(len(hit), docs // 2))) | set(miss[: docs // 2])
        sub = Corpus({p: corpus.docs[p] for p in sorted(sample)})
        want = execute_naive(sub, parse(r["query"]), vocab)
        if want != cached & sample:
            problems.append(f"{r['run_id']}: local engine and naive oracle differ on "
                            f"{len(want ^ (cached & sample))} of {len(sample)} sampled docs")
    return problems, min(queries, len(executed))


def check_entrez(rep: Path, plan: dict) -> tuple[list[str], int]:
    """Every ok Entrez execution must hold exactly the stub's truth set."""
    problems = []
    checked = 0
    anchors = {t["anchor"]: tid for tid, t in plan["topics"].items()}
    for r in read_log(rep / "runs" / "runlog.jsonl"):
        if r["stage"] != "execute" or r["status"] != "ok":
            continue
        tid = anchors[re.search(r"nt\d{3}x", r["query"]).group(0)]
        want = set(gen.truth_pmids(plan, tid, r["query"]))
        got = cached_pmids(rep / "runs" / "cache", r["query_digest"])
        if got != want:
            problems.append(f"{r['run_id']}: Entrez result differs from the stub's truth set")
        checked += 1
    return problems, checked


def check_pacing(gaps: list[float], rate: float) -> list[str]:
    """The stub must never see esearch requests closer than the rate allows.

    The limiter spaces its grants 1/rate apart, but each request still
    travels from grant to stub with some scheduling jitter.  So a single
    gap may fall short of 1/rate by up to JITTER_MS, while any ten
    consecutive gaps must span ten intervals less that jitter once.
    """
    problems = []
    interval = 1000.0 / rate
    if gaps and min(gaps) < interval - JITTER_MS:
        problems.append(f"esearch requests arrived {min(gaps):.1f} ms apart, under 1/rate")
    for i in range(len(gaps) - 9):
        if sum(gaps[i:i + 10]) < 10 * interval - JITTER_MS:
            problems.append(f"esearch requests {i}..{i + 10} came faster than {rate}/s")
            break
    return problems
