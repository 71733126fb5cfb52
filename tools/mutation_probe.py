"""Mutation probe: does the test suite notice a one-token change to a module?

Usage::

    python3 tools/mutation_probe.py ratelimit tests/test_entrez.py tests/test_gateway.py
    python3 tools/mutation_probe.py runlog tests/test_runlog.py --list

It copies ``src/`` and ``tests/`` into a temporary directory, so the working
tree is never touched, and rewrites ``src/srquery/<module>.py`` there with
one mutation at a time:

* a comparison flipped (``<`` and ``<=``, ``>`` and ``>=``, ``==`` and
  ``!=``, ``in`` and ``not in``, ``is`` and ``is not``);
* ``and`` and ``or`` swapped, or a ``not`` dropped;
* ``+`` and ``-`` swapped, ``*`` and ``/`` swapped;
* a numeric constant plus one.

Each mutant runs the named test files with ``pytest -x`` under a timeout.
A mutant is *killed* when they fail, *hung* when they time out, and
*survived* when they pass; a survivor listed in ``EQUIVALENT`` was reviewed
and cannot change what the module does, or changes only a message.  Before
any mutant, the unmutated module (rewritten the same way, by
``ast.unparse``) must pass, or the probe stops.  The exit status is 1 when
a survivor is not listed as equivalent.

Standard library only; it lives outside ``tests/``, so pytest does not
collect it.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Reviewed survivors, by the id the probe prints: each is equivalent, or
# changes only a log message or a value nothing reads.
EQUIVALENT = {
    # The defaults are for a caller that checks only some settings; every
    # value a caller leaves out passes the rule either way.
    "ratelimit:check_settings:1.0 -> 2.0",
    "ratelimit:check_settings:0.0 -> 1.0",
    "ratelimit:check_settings:1 -> 2",
    "ratelimit:check_settings:0.0 -> 1.0#2",
    # Any start before the first monotonic reading grants the first slot at once.
    "ratelimit:RateLimiter.__init__:0.0 -> 1.0",
    # Sleeping for 0 s is not sleeping.
    "ratelimit:RateLimiter.acquire:wait > 0 -> wait >= 0",
    # status is set by every answer before it is read.
    "ratelimit:request_json:0 -> 1",
    # One byte more of an error body in the message.
    "ratelimit:request_json:200 -> 201",
    # A Retry-After of 20 or more digits exceeds any timeout either way.
    "ratelimit:request_json:len(hint) < 20 -> len(hint) <= 20",
    "ratelimit:request_json:20 -> 21",
    # from_json drops unknown keys first, so the key set is never a proper superset.
    "runlog:RunRecord.from_json:obj.keys() <= cls._FIELD_NAMES -> obj.keys() < cls._FIELD_NAMES",
    # Reading two bytes at the last byte still reads one.
    "runlog:_heal_torn_tail:1 -> 2#2",
    # The torn line's number in the warning message.
    "runlog:_heal_torn_tail:data.count(b'\\n', 0, start) + 1 -> data.count(b'\\n', 0, start) - 1",
    "runlog:_heal_torn_tail:0 -> 1#4",
    "runlog:_heal_torn_tail:1 -> 2#4",
    # No caller reads the count of an empty append.
    "runlog:append_records:0 -> 1",
    # Every session has one step or four, so "> 1" and "> 2" agree.
    "gateway:_run_session:1 -> 2#3",
}

_FLIP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
         ast.Is: ast.IsNot, ast.IsNot: ast.Is}
_SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
         ast.And: ast.Or, ast.Or: ast.And}


def _variants(node: ast.AST):
    """Yield ``mutate(node)`` functions, each returning the mutated node."""
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in _FLIP:
                def flip(n, i=i):
                    n.ops[i] = _FLIP[type(n.ops[i])]()
                    return n
                yield flip
    elif isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in _SWAP:
        def swap(n):
            n.op = _SWAP[type(n.op)]()
            return n
        yield swap
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield lambda n: n.operand
    elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
        def plus_one(n):
            n.value += 1
            return n
        yield plus_one


def _sites(tree: ast.Module):
    """``(node, parent, qualname)`` for every node, in one fixed walk order."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            yield child, node, inner or "<module>"
            yield from walk(child, inner)
    yield from walk(tree, "")


def _replace(parent: ast.AST, old: ast.AST, new: ast.AST) -> None:
    for name, value in ast.iter_fields(parent):
        if value is old:
            setattr(parent, name, new)
        elif isinstance(value, list):
            value[:] = [new if item is old else item for item in value]


def mutants(module: str, source: str) -> list[tuple[str, str]]:
    """Every ``(id, mutated source)`` of ``module``.  An id is
    ``module:qualname:before -> after``, with ``#k`` for the k-th repeat."""
    out, seen = [], {}
    count = sum(1 for node, _, _ in _sites(ast.parse(source)) for _ in _variants(node))
    for k in range(count):
        tree = ast.parse(source)  # a fresh tree per mutant
        node, parent, scope, mutate = [(n, p, s, v) for n, p, s in _sites(tree)
                                       for v in _variants(n)][k]
        before = ast.unparse(node)
        mutated = mutate(node)
        _replace(parent, node, mutated)
        ident = f"{module}:{scope}:{before} -> {ast.unparse(mutated)}"
        seen[ident] = seen.get(ident, 0) + 1
        out.append((ident + (f"#{seen[ident]}" if seen[ident] > 1 else ""), ast.unparse(tree)))
    return out


def _run_tests(work: Path, tests: list[str], timeout: float) -> str:
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    try:
        return "survived" if proc.wait(timeout=timeout) == 0 else "killed"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "hung"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("module", help="a module of src/srquery, e.g. ratelimit")
    ap.add_argument("tests", nargs="+", help="test files, relative to the repository root")
    ap.add_argument("--timeout", type=float, default=150.0, help="seconds per mutant")
    ap.add_argument("--list", action="store_true", help="print the mutants and run none")
    args = ap.parse_args(argv)

    source = (ROOT / "src" / "srquery" / f"{args.module}.py").read_text(encoding="utf-8")
    found = mutants(args.module, source)
    if args.list:
        print("\n".join(ident for ident, _ in found))
        return 0
    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", work)
        target = work / "src" / "srquery" / f"{args.module}.py"
        target.write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
        if _run_tests(work, args.tests, args.timeout) != "survived":
            print("the unmutated module fails these tests; no mutant was run", file=sys.stderr)
            return 2
        tally = {"killed": 0, "hung": 0, "survived": 0, "equivalent": 0}
        for ident, mutated in found:
            target.write_text(mutated, encoding="utf-8")
            outcome = _run_tests(work, args.tests, args.timeout)
            if outcome == "survived" and ident in EQUIVALENT:
                outcome = "equivalent"
            tally[outcome] += 1
            print(f"{outcome:10} {ident}", flush=True)
    print(f"{args.module}: {tally['killed']} of {len(found)} killed, {tally['hung']} hung, "
          f"{tally['survived']} survived, {tally['equivalent']} equivalent survivors")
    return 1 if tally["survived"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
