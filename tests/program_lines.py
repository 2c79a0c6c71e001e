"""List the statements of ``src/liqdrop`` that no program of the package runs.

Run it from anywhere; it imports the package from the ``src`` of the
checkout that holds it:

    python tests/program_lines.py > lines.txt

The programs are the CLI, the benchmark's workloads and the demos:

- every operation of ``perfbench/workloads.build(name, 0)`` for the four
  workloads (``perfbench`` is only imported, and its checks are not run);
- every run in ``RUNS`` of ``tests/cli_digests.py``;
- every script in ``demos/``.

They run in-process under ``sys.settrace`` and ``threading.settrace``, so
the restart pool's threads are traced too, with every output file in a
temporary directory and no bytecode cache written, so nothing is written
inside the checkout.  The listing has one line with the exit code of each
program, then, for each module, the number of statements that none of them
executes and, for each such statement, its line number and first line.
A compound statement (``if``, ``for``, ``def``, ...) counts as executed when
a line of its header or one of its statements runs; docstrings, ``global``
and ``nonlocal`` compile to no code and are not listed.  A program that
raises is listed with its exception, and its traceback goes to standard
error.  This is a script, not a pytest module; it takes about 40 s on a
2-core box.
"""

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading
import traceback
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "liqdrop"
for sub in ("tests", "perfbench", "src"):
    sys.path.insert(0, str(ROOT / sub))

HITS = set()
_TRACED = {}


def _local(frame, event, arg):
    if event == "line":
        HITS.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _tracer(frame, event, arg):
    name = frame.f_code.co_filename
    keep = _TRACED.get(name)
    if keep is None:
        keep = _TRACED[name] = os.path.abspath(name).startswith(str(PACKAGE) + os.sep)
    return _local if keep else None


def _programs():
    """(label, callable taking an output directory, returning an exit code)."""
    import cli_digests
    import workloads
    from liqdrop.cli import main

    for name in ("crystal", "dilute", "simplex", "checks"):
        for op in workloads.build(name, 0):
            yield f"{name}/{op.label}", op.run
    for label, argv in cli_digests.RUNS:
        yield f"cli/{label}", lambda out, argv=argv: main([*argv, "--out", out])
    for path in sorted((ROOT / "demos").glob("*.py")):
        def demo(out, path=path):
            runpy.run_path(str(path), run_name="__main__")
            return 0
        yield f"demos/{path.name}", demo


def _run_all():
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for i, (label, run) in enumerate(_programs()):
                with contextlib.redirect_stdout(io.StringIO()):
                    try:
                        code = run(os.path.join(tmp, str(i)))
                    except Exception as exc:  # a failing program is listed, not fatal
                        traceback.print_exc()
                        code = f"{type(exc).__name__}: {exc}"
                failed += code != 0
                print(f"exit {code}  {label}")
                sys.stdout.flush()
        finally:
            os.chdir(cwd)
    return failed


def _is_docstring(node, parent):
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _children(node):
    """The statements directly inside a compound statement."""
    out = []
    for field in ("body", "orelse", "finalbody"):
        out += [s for s in getattr(node, field, []) if isinstance(s, ast.stmt)]
    for handler in getattr(node, "handlers", []):
        out += handler.body
    for case in getattr(node, "cases", []):
        out += case.body
    return out


def _missed(path, lines):
    """(lineno, first line) of each statement of ``path`` with no traced line."""
    source = path.read_text(encoding="utf-8")
    text = source.splitlines()
    missed = []

    def visit(node, parent):
        """Whether ``node`` ran; records the statements below it that did not."""
        kids = _children(node)
        ran = [visit(k, node) for k in kids]
        if isinstance(node, ast.Module):
            return True
        if isinstance(node, (ast.Global, ast.Nonlocal)) or _is_docstring(node, parent):
            return True
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        last = max(node.lineno, kids[0].lineno - 1) if kids else node.end_lineno
        hit = any((str(path), n) in lines for n in range(first, last + 1)) or any(ran)
        if not hit:
            missed.append((node.lineno, text[node.lineno - 1].strip()))
        return hit

    visit(ast.parse(source, filename=str(path)), None)
    return sorted(missed)


def main_listing() -> int:
    sys.settrace(_tracer)
    threading.settrace(_tracer)
    try:
        failed = _run_all()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path in sorted(PACKAGE.rglob("*.py")):
        missed = _missed(path, HITS)
        print(f"{path.relative_to(ROOT / 'src')}  {len(missed)} statements not executed")
        for lineno, line in missed:
            print(f"  {lineno:5d}  {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main_listing())
