"""Opt-in traffic audit: the lines of ``src/joinlab`` that the commands and workloads never run.

Run from anywhere, with the tier-1 test dependencies installed::

    python tests/traffic.py

It starts ``sys.settrace`` before it imports ``joinlab``, then runs one
small call of every subcommand in every mode it accepts, one of them as
``python -m joinlab``, writing their outputs to a temporary directory.
Then it runs one cycle of each ``perfbench`` workload through
``workloads.trials`` and ``workloads.run_trial``, with the workload's
``Taps`` installed and then restored.  It prints, per module, each line
that never ran and is not part of a ``raise`` statement.  It exits 1 when a
call ends with another status than the one listed for it or a workload
trial reports a violation.  It writes nothing in the repository and
changes no ``perfbench`` file.  Tier-1 does not run this file, since pytest
only collects ``test_*.py``.
"""

from __future__ import annotations

import ast
import contextlib
import io
import itertools
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "joinlab"

_lines: dict[str, set[int]] = {}  # file -> lines that ran
_left: dict[object, set[int]] = {}  # code object -> its lines not yet seen run


def _local(frame, event, arg):
    left = _left[frame.f_code]
    _lines[frame.f_code.co_filename].add(frame.f_lineno)
    left.discard(frame.f_lineno)
    return _local if left else None  # a code object whose lines have all run is traced no further


def _global(frame, event, arg):
    code = frame.f_code
    if code.co_filename not in _lines:
        return None
    if code not in _left:
        _left[code] = {line for _, _, line in code.co_lines() if line is not None}
    return _local(frame, event, arg) if _left[code] else None


# every file of the package, resolved the way its code objects name it
for path in sorted(PACKAGE.glob("*.py")):
    _lines[str(path)] = set()
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
sys.settrace(_global)

from joinlab import cli  # noqa: E402  (imported under the tracer)
from perfbench import workloads  # noqa: E402

# (argv after ``joinlab``, without --out, and the status the call must end with)
CALLS = [
    (["run-bmm", "--n", "16", "--ell", "8,16", "--trials", "2", "--mode", "exact"], 0),
    (["run-bmm", "--n", "16", "--ell", "16", "--trials", "2", "--mode", "cost-model", "--timing"], 0),
    (["run-mmf2", "--n", "16,24", "--ell", "8", "--trials", "2"], 0),  # 24 is not a power of two
    (["run-disj", "--n", "64", "--trials", "2", "--mode", "exact"], 0),
    (["run-disj", "--n", "64", "--trials", "2", "--mode", "cost-model", "--min-success", "0"], 0),
    (["run-gc", "--n", "16", "--trials", "2", "--mode", "exact"], 0),
    (["run-gc", "--n", "16", "--trials", "2", "--mode", "cost-model"], 0),
    (["scaling", "--protocol", "bmm-cost", "--n", "64,128", "--ell", "64", "--trials", "2"], 0),
    (["scaling", "--protocol", "disj-cost", "--n", "256..1024", "--trials", "2", "--divide-log",
      "--expect-slope", "0.5", "--slope-tol", "1"], 0),
    (["validate-reductions", "--n", "16", "--trials", "3"], 0),
]


def run_calls(folder: Path) -> list[str]:
    """Run every call with its own --out, the last one as ``python -m joinlab``; returns what went wrong."""
    problems = []
    for number, (argv, want) in enumerate(CALLS):
        argv = [*argv, "--out", str(folder / f"call{number}")]
        with contextlib.redirect_stdout(io.StringIO()):
            if number == len(CALLS) - 1:
                saved, sys.argv = sys.argv, ["joinlab", *argv]
                try:
                    runpy.run_module("joinlab", run_name="__main__")
                except SystemExit as exc:
                    got = exc.code
                finally:
                    sys.argv = saved
            else:
                got = cli.main(argv)
        if got != want:
            problems.append(f"joinlab {' '.join(argv)}: exit {got}, expected {want}")
    return problems


def run_workloads() -> list[str]:
    """One cycle of each workload, seed 1; returns the violations the checks report."""
    violations = []
    for workload in workloads.WORKLOADS.values():
        taps = workloads.Taps(workload.taps)
        taps.install()
        try:
            for _, cell, seed in itertools.islice(workloads.trials(workload, 1), len(workload.cells)):
                workloads.run_trial(cell, seed, taps, violations)
        finally:
            taps.restore()
    return violations


def _raise_lines(tree) -> set[int]:
    return {
        line
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        for line in range(node.lineno, node.end_lineno + 1)
    }


def _code_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def unreached(path: str) -> list[int]:
    """Lines of ``path`` with code that never ran, outside ``raise`` statements."""
    source = Path(path).read_text()
    lines = _code_lines(compile(source, path, "exec")) - _raise_lines(ast.parse(source))
    return sorted(lines - _lines[path])


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="joinlab-traffic-") as tmp:
        problems = run_calls(Path(tmp))
    problems += run_workloads()
    sys.settrace(None)
    for path in _lines:
        source = Path(path).read_text().splitlines()
        missed = unreached(path)
        print(f"{Path(path).relative_to(ROOT)}: {len(missed)} unreached")
        for line in missed:
            print(f"  {line:4d}  {source[line - 1].strip()}")
    for problem in problems:
        print(f"problem: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
