"""srquery benchmark runner.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from the seed (in a separate process), then
runs repetitions until ``--seconds`` are used.  Each repetition is a fresh
child process on a fresh copy of the inputs, with an empty run log, cache
and report directory; on sweep and expert a calibration loop runs beside
it on its CPU and gives the host's speed at the time (see calib.py).
After the repetitions it checks the outputs and prints, as the last line
of stdout, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json`` over the repetitions; with ``--trace 1`` they are its
per-layer metrics, from extra traced repetitions.  ``attempted`` and
``failed`` count pipeline stage calls and the ones that raised.
Everything is written under ``.perfbench_work/`` in the checkout and
removed at exit.  ``--docs`` overrides the corpus size to rerun a workload
at a larger size; such runs are not gated.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(ROOT / "src"))

WORKLOADS = ("sweep", "expert", "network")
MIN_REPS = 3           # repetitions per run, however short --seconds is
MIN_TRACED_REPS = 1
CHILD_TIMEOUT_S = 150
ORACLE_QUERIES = {"sweep": 6, "expert": 3}
ORACLE_DOCS = 160
ENTREZ_RATE = 10.0     # NCBI's cap with an API key; the child gets a dummy key
REFERENCE_S_PER_UNIT = 1e-3  # CPU cost of one calib.py unit on the reference host
# Workloads whose stage times are rescaled by the calibration loop.  The
# network workload is left out: its child sleeps on the rate limiter most of
# the time and spends its CPU in short bursts of socket and JSON work, so a
# loop running through the sleeps does not measure the speed those bursts
# ran at.
CALIBRATED = ("sweep", "expert")


class BenchError(RuntimeError):
    pass


def run_config(workload: str, port: int | None) -> dict:
    cfg = {
        "topics": "inputs/topics.jsonl", "qrels": "inputs/qrels.txt",
        "runlog": "runs/runlog.jsonl", "cache_dir": "runs/cache",
        "report_dir": "runs/reports",
        "runs_per_topic": 2 if workload == "sweep" else 1,
        # The local stages are CPU-bound under the GIL; the network stages
        # wait on I/O, so they get the machine's two cores.
        "parallelism": 2 if workload == "network" else 1,
    }
    if workload == "network":
        base = f"http://127.0.0.1:{port}"
        cfg["backend"] = {"kind": "http", "base_url": f"{base}/v1/chat/completions",
                          "model_name": "stub-model", "max_retries": 3, "http_attempts": 3,
                          "backoff_base": 0.1, "timeout": 10.0}
        cfg["execution_backend"] = "entrez"
        cfg["entrez"] = {"base_url": f"{base}/entrez/eutils", "retmax": 5000, "timeout": 10.0}
    else:
        cfg["corpus"] = "inputs/corpus.jsonl"
        cfg["mesh"] = "inputs/mesh.tsv"
        cfg["backend"] = {"kind": "mock"}
    return cfg


class Stub:
    """The network workload's HTTP stub, one process per repetition."""

    def __init__(self, plan_path: Path, log_path: Path):
        self._log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stubs.py"), "serve", "--plan", str(plan_path)],
            stdout=subprocess.PIPE, stderr=self._log, text=True)
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.stop()
            raise BenchError("stub server did not start")
        self.port = int(line)

    def stats(self) -> dict:
        with urllib.request.urlopen(f"http://127.0.0.1:{self.port}/__stats", timeout=10) as r:
            return json.loads(r.read())

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def run_rep(work: Path, workload: str, index: int, traced: bool) -> dict:
    rep = work / f"rep{index}"
    shutil.copytree(work / "inputs", rep / "inputs")
    stub = Stub(work / "plan.json", rep / "stub.log") if workload == "network" else None
    try:
        (rep / "run.json").write_text(json.dumps(run_config(workload, stub and stub.port)))
        env = {k: v for k, v in os.environ.items()
               if k not in ("LLM_API_KEY", "NCBI_API_KEY", "PYTHONPATH")}
        if workload == "network":
            env.update(LLM_API_KEY="bench-llm-key", NCBI_API_KEY="bench-ncbi-key")
        probe = work / ("probe" if workload == "network" else "inputs")
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--dir", str(rep), "--plan", str(work / "plan.json"),
               "--probe-dir", str(probe)]
        if traced:
            cmd.append("--trace")
        if workload in CALIBRATED:
            cmd.append("--calibrate")
        with open(rep / "child.log", "w", encoding="utf-8") as log:
            t0 = time.monotonic()
            # Its own process group, so that a timeout also stops the
            # calibration loop it runs.
            proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=rep, env=env,
                                    stdout=log, stderr=log, start_new_session=True)
            try:
                proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise BenchError(f"repetition {index} took over {CHILD_TIMEOUT_S} s")
        if proc.returncode != 0:
            tail = (rep / "child.log").read_text(encoding="utf-8")[-2000:]
            raise BenchError(f"repetition {index} exited with {proc.returncode}:\n{tail}")
        result = json.loads((rep / "result.json").read_text(encoding="utf-8"))
        result["stub"] = stub.stats() if stub else {}
        result["gaps_ms"] = result["stub"].pop("esearch.gaps_ms", [])
    finally:
        if stub:
            stub.stop()
    import checks
    runs = rep / "runs"
    result["digests"] = {
        "runlog": checks.log_digest(runs / "runlog.jsonl"),
        **{name: checks.file_digest(runs / "reports" / name)
           for name in ("report.csv", "per_topic.csv", "analysis_report.json")},
    }
    result["dir"] = str(rep)
    return result


def ops(result: dict) -> tuple[int, int]:
    """(attempted, failed) record-level operations of one repetition:
    generation, execution and evaluation records, plus the ones a stage
    that raised never produced.  ``skipped`` records are not failures."""
    rec = result["records"]
    attempted = sum(rec.values()) + result["aborted_ops"]
    failed = sum(v for k, v in rec.items() if k.endswith(".error")) + result["aborted_ops"]
    return attempted, failed


def requests_per_ok(result: dict) -> float:
    stub = result["stub"]
    requests = (stub.get("chat.requests", 0) + stub.get("esearch.requests", 0)
                + result["chat_stub_calls"])
    rec = result["records"]
    ok = rec.get("generate.ok", 0) + rec.get("execute.ok", 0)
    return requests / ok if ok else 0.0


def median(values):
    return statistics.median(values) if values else 0.0


def raw_cpu_s(rep: dict, category: str | None = None) -> float:
    """CPU seconds of one repetition, in one stage category or in all."""
    return sum(rep["cpu"].values()) if category is None else rep["cpu"].get(category, 0.0)


def cpu_s(reps: list[dict], category: str | None = None) -> float:
    """Median over the repetitions of their CPU seconds, rescaled to a host
    on which one calibration unit costs ``REFERENCE_S_PER_UNIT`` where the
    repetitions ran the calibration loop.  The host's speed swings by 1.5x
    within seconds and drifts for minutes, so raw CPU seconds spread by a
    third between runs; each repetition is instead divided by the CPU cost
    of a calibration unit measured beside it on the same CPU (see
    calib.py)."""
    return median([raw_cpu_s(r, category) * REFERENCE_S_PER_UNIT / r["calib_s_per_unit"]
                   if r["calib_s_per_unit"] else raw_cpu_s(r, category) for r in reps])


def end_to_end(reps: list[dict]) -> dict:
    shares = []
    for r in reps:
        attempted, failed = ops(r)
        shares.append(failed / attempted)
    return {
        "setup_s": median([r["setup_s"] for r in reps]),
        "pipeline_s": cpu_s(reps),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "error_share": median(shares),
    }


def per_layer(reps: list[dict], traced: list[dict]) -> dict:
    out = {}
    names = set().union(*(t["trace"] for t in traced))
    for name in names:
        values = [t["trace"][name] for t in traced]
        out[name] = None if any(v is None for v in values) else median(values)
    stubs = [t["stub"] for t in traced]
    calls = out.get("entrez.search.calls")
    out["gateway.chat.requests"] = median([s.get("chat.requests", 0) + t["chat_stub_calls"]
                                           for s, t in zip(stubs, traced)])
    out["gateway.chat.retries"] = median([s.get("chat.retries", 0) for s in stubs])
    out["entrez.requests"] = median([s.get("esearch.requests", 0) for s in stubs])
    out["entrez.pages_per_query"] = out["entrez.requests"] / calls if calls else 0.0
    out["entrez.errors.http"] = median([s.get("esearch.served_429", 0)
                                        + s.get("esearch.served_503", 0) for s in stubs])
    out["entrez.errors.api"] = median([s.get("esearch.served_api", 0) for s in stubs])
    out["entrez.errors.cap"] = median([s.get("esearch.served_cap", 0) for s in stubs])
    out["ratelimit.min_gap_ms"] = median([s.get("esearch.min_gap_ms") or 0.0 for s in stubs])
    for category in ("generate", "execute", "evaluate", "analyze"):
        out[f"{category}_s"] = cpu_s(reps, category)
    out["requests_per_ok"] = median([requests_per_ok(r) for r in reps])
    untraced = cpu_s(reps)
    out["trace.overhead_pct"] = (cpu_s(traced) - untraced) / untraced * 100 if untraced else 0.0
    return out


def run_checks(workload: str, seed: int, work: Path, runs: list[dict]) -> tuple[list[str], dict]:
    import checks
    problems = []
    last = Path(runs[-1]["dir"])
    first = runs[0]["digests"]
    for r in runs[1:]:
        for name, value in r["digests"].items():
            if value != first[name]:
                problems.append(f"{name} differs between repetitions of one commit")
    found, n_eval = checks.check_evaluations(last)
    problems += found
    summary = {"evaluations_recomputed": n_eval}
    if workload in ORACLE_QUERIES:
        t = time.perf_counter()
        found, n_oracle = checks.check_oracle(last, seed, ORACLE_QUERIES[workload], ORACLE_DOCS)
        problems += found
        summary.update(oracle_queries=n_oracle, oracle_docs=ORACLE_DOCS,
                       oracle_s=round(time.perf_counter() - t, 3))
    if workload == "network":
        plan = json.loads((work / "plan.json").read_text(encoding="utf-8"))
        found, n_truth = checks.check_entrez(last, plan)
        problems += found
        for r in runs:
            problems += checks.check_pacing(r["gaps_ms"], ENTREZ_RATE)
        summary["entrez_results_checked"] = n_truth
        if n_truth == 0:
            problems.append("no Entrez execution succeeded, so none could be checked")
    if n_eval == 0:
        problems.append("no evaluation record to check")
    return problems, summary


def fault_plan(work: Path) -> dict:
    """Topics per injected fault kind, as the generator planned them."""
    plan = json.loads((work / "plan.json").read_text(encoding="utf-8"))
    out = {f"doomed.{m}": len(t) for m, t in plan.get("doomed", {}).items()}
    out.update({k: len(t) for k, t in plan.get("faults", {}).items()})
    out["bad_originals"] = len(plan["bad_originals"])
    if "buckets" in plan:
        for bucket in plan["buckets"].values():
            out[f"esearch_bucket.{bucket}"] = out.get(f"esearch_bucket.{bucket}", 0) + 1
    return out


def src_loc() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in (ROOT / "src" / "srquery").rglob("*.py"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--docs", type=int, default=None, help="override the corpus size")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "srquery" / "pipeline.py").is_file():
        print("perfbench: no srquery sources under src/ in this checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        gen_cmd = [sys.executable, str(HERE / "gen.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--out", str(work)]
        if args.docs:
            gen_cmd += ["--docs", str(args.docs)]
        t = time.perf_counter()
        subprocess.run(gen_cmd, check=True, timeout=CHILD_TIMEOUT_S)
        gen_s = time.perf_counter() - t

        reps: list[dict] = []
        traced: list[dict] = []
        budget = args.seconds * (0.6 if args.trace else 1.0)
        start = time.perf_counter()
        durations: list[float] = []

        def more(done: int, minimum: int, until: float) -> bool:
            if done < minimum:
                return True
            return time.perf_counter() - start + max(durations) <= until

        while more(len(reps), MIN_REPS, budget):
            t = time.perf_counter()
            reps.append(run_rep(work, args.workload, len(reps) + len(traced), traced=False))
            durations.append(time.perf_counter() - t)
            if len(reps) > 1:
                shutil.rmtree(reps[-2]["dir"], ignore_errors=True)
        while args.trace and more(len(traced), MIN_TRACED_REPS, args.seconds):
            t = time.perf_counter()
            traced.append(run_rep(work, args.workload, len(reps) + len(traced), traced=True))
            durations.append(time.perf_counter() - t)

        measured = reps + traced
        problems, check_summary = run_checks(args.workload, args.seed, work, measured)
        attempted = sum(r["stage_calls"] for r in measured)
        failed = sum(r["stage_failures"] for r in measured)

        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        values = per_layer(reps, traced) if args.trace else end_to_end(reps)
        unknown = [m["name"] for m in wanted if m["name"] not in values]
        if unknown:
            raise BenchError(f"metrics not produced: {unknown}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

        first = reps[0]
        attempted_ops, failed_ops = ops(first)
        context = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "repetitions": len(reps), "traced_repetitions": len(traced),
            "generate_inputs_s": round(gen_s, 3),
            "src_loc": src_loc(),
            "cpu_s_per_rep": [round(raw_cpu_s(r), 4) for r in reps],
            "calib_ms_per_unit": [round(r["calib_s_per_unit"] * 1000, 4)
                                  for r in reps if r["calib_s_per_unit"]],
            "setup_s_per_rep": [round(r["setup_s"], 4) for r in reps],
            "wall_s": {k: round(median([r["wall"].get(k, 0.0) for r in reps]), 4)
                       for k in ("ingest", "generate", "execute", "evaluate", "analyze")},
            "operations": {"attempted": attempted_ops, "failed": failed_ops,
                           "records": first["records"], "aborted": first["aborted_ops"]},
            "stage_failures": first["failed_stages"],
            "stub": first["stub"] or {"calls": first["chat_stub_calls"],
                                      **first["chat_stub_served"]},
            "fault_plan": fault_plan(work),
            "digests": first["digests"],
            "checks": check_summary,
        }
        if args.trace:
            context["missing_entry_points"] = sorted({m for t in traced for m in t["missing"]})
        print(json.dumps({"context": context}, sort_keys=True))
        for p in problems:
            print(f"perfbench: CHECK FAILED: {p}", file=sys.stderr)
        print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 1 if problems else 0
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    raise SystemExit(main())
