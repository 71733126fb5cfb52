"""One repetition of a workload, in a fresh process.

    python3 perfbench/child.py --workload sweep --dir REP --plan PLAN --t0 T [--calibrate] [--trace]

Runs the workload's stages through the public ``srquery.pipeline``
functions with REP (which holds ``run.json`` and a fresh copy of the
inputs) as the working directory, and writes ``REP/result.json``.  ``T`` is
the parent's monotonic clock just before it started this process, so
``setup_s`` covers interpreter start, imports and ``cmd_ingest``.

Stage times are CPU seconds of this process (all threads).  For the
single-threaded, CPU-bound local stages that equals their wall time; on the
network workload it leaves out rate-limit spacing and backoff sleeps, which
the stub's pacing sets and which are counted per layer instead.

The process pins itself to one CPU.  With ``--calibrate`` it starts
``calib.py`` on that same CPU once ``cmd_ingest`` has returned and stops it
after the last stage, and reports the loop's CPU seconds per unit beside
the stage times, so that the runner can take the host's speed out of them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

# Stage calls per workload: (stage, positional arguments).  The sweep's
# second pass adds q5-re and reruns execute..report over the populated log
# and warm cache.
STAGES = {
    "sweep": [
        ("ingest", ()), ("formulate", ("q1",)), ("formulate", ("q2",)),
        ("formulate", ("q3",)), ("formulate", ("q4", "hqe")), ("formulate", ("q4", "re")),
        ("formulate", ("q5", "hqe")), ("refine", ("q6", "original")),
        ("refine", ("q7", "q4-runlog", "re")), ("guided", ()),
        ("execute", ()), ("evaluate", ()), ("analyze", ()), ("report", ()),
        ("formulate", ("q5", "re")),
        ("execute", ()), ("evaluate", ()), ("analyze", ()), ("report", ()),
    ],
    "expert": [("ingest", ()), ("execute", ()), ("evaluate", ()), ("report", ())],
    "network": [("ingest", ()), ("formulate", ("q4", "hqe")), ("execute", ()), ("evaluate", ())],
}
CATEGORY = {"ingest": "ingest", "formulate": "generate", "refine": "generate",
            "guided": "generate", "execute": "execute", "evaluate": "evaluate",
            "analyze": "analyze", "report": "analyze"}
GENERATION_STAGES = ("formulate", "refine", "guided")


def read_log(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with open(path, "r", encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def requested_ops(stage: str, cfg, log: list[dict]) -> int:
    """Records a stage would have produced, for a stage that raised."""
    if stage in GENERATION_STAGES:
        with open(cfg.topics, "r", encoding="utf-8") as f:
            topics = sum(1 for line in f if line.strip())
        return topics * cfg.runs_per_topic
    done = {r["run_id"] for r in log}
    if stage == "execute":
        return sum(1 for r in log if r["stage"] == "generate" and r["status"] == "ok"
                   and f"exec:{cfg.execution_backend}:{r['run_id']}" not in done)
    if stage == "evaluate":
        return sum(1 for r in log if r["stage"] == "execute" and r["status"] == "ok"
                   and f"eval:{r['run_id']}" not in done)
    return 0


class Calibrator:
    """``calib.py`` in a child process on this process's CPU."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "calib.py")],
                                     stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.stop()
            raise RuntimeError("calibration loop did not start")

    def stop(self) -> float | None:
        """Stop the loop; its CPU seconds per unit, or None if it failed."""
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            out, _ = self.proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            return None
        fields = out.split()
        if self.proc.returncode != 0 or len(fields) != 2 or int(fields[0]) == 0:
            return None
        return float(fields[1]) / int(fields[0])


def run_probes(probe_dir: Path, plan: dict) -> dict:
    """Median execute_local latency per single-shape query set."""
    from srquery.collections import load_corpus, load_mesh
    from srquery.query_ast import parse
    from srquery.retrieval import build_index, execute_local

    index = build_index(load_corpus(probe_dir / "corpus.jsonl"), load_mesh(probe_dir / "mesh.tsv"))
    out = {}
    for shape, queries in sorted(plan["probes"].items()):
        times = []
        for text in queries:
            q = parse(text)
            t = time.perf_counter()
            execute_local(index, q)
            times.append(time.perf_counter() - t)
        times.sort()
        out[f"retrieval.probe.{shape}.ms"] = times[len(times) // 2] * 1000
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="one repetition of a benchmark workload")
    ap.add_argument("--workload", required=True, choices=sorted(STAGES))
    ap.add_argument("--dir", required=True)
    ap.add_argument("--plan", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--calibrate", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--probe-dir", default=None)
    args = ap.parse_args(argv)

    import srquery.pipeline as pl
    if not Path(pl.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"srquery imported from {pl.__file__}, not from this checkout", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import srquery.collections as colls
        import srquery.entrez as ez
        import srquery.gateway as gw
        import srquery.prompts as pr
        import srquery.ratelimit as ratelimit
        import srquery.retrieval as rt
        import srquery.runlog as rl
        from tracing import Tracer
        tracer = Tracer()
        tracer.install((pl, gw, ez, colls, rt, rl, pr, ratelimit))

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cfg = pl.AppConfig.from_file("run.json")
    backend = calibrator = None
    cpu: Counter = Counter()
    wall: Counter = Counter()
    setup_s = calib_s_per_unit = None
    calls = failures = aborted = 0
    failed_stages = []
    try:
        for stage, stage_args in STAGES[args.workload]:
            kwargs = {}
            if stage in GENERATION_STAGES and backend is not None:
                kwargs["backend"] = backend
            if stage == "refine" and len(stage_args) == 3:
                stage_args, kwargs["example_mode"] = stage_args[:2], stage_args[2]
            fn = getattr(pl, f"cmd_{stage}")
            c0, w0 = time.process_time(), time.perf_counter()
            try:
                fn(cfg, *stage_args, **kwargs)
                error = None
            except Exception as e:  # a stage that raises aborts its whole batch
                error = e
            c1, w1 = time.process_time(), time.perf_counter()
            if stage == "ingest":
                setup_s = time.monotonic() - args.t0
            cpu[CATEGORY[stage]] += c1 - c0
            wall[CATEGORY[stage]] += w1 - w0
            calls += 1
            if error is not None:
                failures += 1
                aborted += requested_ops(stage, cfg, read_log(Path(cfg.runlog)))
                failed_stages.append(f"{stage} {' '.join(stage_args)}: {type(error).__name__}: {error}")
            if stage == "ingest" and args.workload == "sweep":
                from stubs import ChatStub
                with open(args.plan, "r", encoding="utf-8") as f:
                    backend = ChatStub(json.load(f))
            if stage == "ingest" and args.calibrate:
                calibrator = Calibrator()
    finally:
        if calibrator is not None:
            calib_s_per_unit = calibrator.stop()
    if calibrator is not None and calib_s_per_unit is None:
        print("calibration loop failed", file=sys.stderr)
        return 2
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    records: Counter = Counter()
    for r in read_log(Path(cfg.runlog)):
        records[f"{r['stage']}.{r['status']}"] += 1
    result = {
        "setup_s": setup_s,
        "cpu": dict(cpu), "wall": dict(wall), "calib_s_per_unit": calib_s_per_unit,
        "peak_rss_mb": peak_rss_mb,
        "records": dict(records),
        "stage_calls": calls, "stage_failures": failures, "aborted_ops": aborted,
        "failed_stages": failed_stages,
        "chat_stub_calls": backend.calls if backend is not None else 0,
        "chat_stub_served": dict(backend.answerer.served) if backend is not None else {},
    }
    if tracer is not None:
        tracer.uninstall()
        from tracing import blank_missing
        metrics = tracer.metrics()
        cache = Path(cfg.cache_dir)
        metrics["cache.bytes_written"] = sum(p.stat().st_size for p in cache.glob("*") if p.is_file())
        with open(args.plan, "r", encoding="utf-8") as f:
            metrics.update(run_probes(Path(args.probe_dir), json.load(f)))
        result["trace"] = blank_missing(metrics, tracer.missing)
        result["missing"] = tracer.missing
    with open("result.json", "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
