#!/usr/bin/env python3
"""Print the executable lines of ``src/fedbench/*.py`` that tier-1 and
``tools/run_digest.py`` never run, then their count.

    python3 tools/line_reach.py [PYTEST_ARGS...] > unreached.txt

The tier-1 suite runs in this process through ``pytest.main`` (by default
over the repository's ``testpaths``, its output sent to stderr), then
``tools/run_digest.py`` runs into a temporary directory, both under a
``sys.settrace`` line tracer that follows only frames of the traced files.
Each unreached line prints as ``path:line: source``, and the last line is
``unreached N of M executable lines``.  A line is executable when an
instruction of the file's compiled code maps to it (``co_lines``).  Code run
in a child process, such as a test that starts ``fedbench`` as a command,
is not seen.  The tracer is the standard library's; only the suite needs
pytest.  The exit status is pytest's.
"""

from __future__ import annotations

import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def executable_lines(path) -> set[int]:
    """The lines of ``path`` that an instruction of its compiled code maps to."""
    lines, todo = set(), [compile(Path(path).read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # not None, nor a module's line 0
        todo.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


@contextlib.contextmanager
def reached(paths):
    """Trace the frames running one of ``paths``, in this thread and in the
    threads started meanwhile; yields ``{resolved path: set of lines run}``,
    filled as they run.  The tracer in place before is restored on exit."""
    ran = {str(Path(p).resolve()): set() for p in paths}
    keys: dict[str, str | None] = {}  # co_filename -> its key in ``ran``, if any

    def local(frame, event, arg):
        ran[keys[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def dispatch(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in keys:
            resolved = os.path.realpath(name)
            keys[name] = resolved if resolved in ran else None
        return local(frame, event, arg) if keys[name] else None

    previous = sys.gettrace()
    sys.settrace(dispatch)
    threading.settrace(dispatch)
    try:
        yield ran
    finally:
        sys.settrace(previous)
        threading.settrace(previous)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    paths = sorted((ROOT / "src" / "fedbench").glob("*.py"))
    cwd = os.getcwd()
    with reached(paths) as ran:
        with contextlib.redirect_stdout(sys.stderr):
            os.chdir(ROOT)
            status = pytest.main(argv or ["-q", "-p", "no:cacheprovider"])
        digest = runpy.run_path(str(ROOT / "tools" / "run_digest.py"), run_name="run_digest")
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            try:
                digest["main"]([str(Path(tmp) / "digest")])
            finally:
                os.chdir(cwd)
    unreached = total = 0
    for path in paths:
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        missed = sorted(lines - ran[str(path.resolve())])
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
        unreached += len(missed)
        total += len(lines)
    print(f"unreached {unreached} of {total} executable lines")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
