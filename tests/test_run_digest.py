"""``tools/run_digest.py``, the digest every bitwise claim is checked with, runs
end to end, prints one line per output file and per row of a checkpoint, and
prints the lines committed in ``tests/run_digest.sha256``.  It changes its
working directory, so it runs once, in a subprocess, for the whole module."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "run_digest.py"
COMMITTED = Path(__file__).resolve().parent / "run_digest.sha256"


@pytest.fixture(scope="module")
def digest(tmp_path_factory):
    """(the tool's lines, its OUT_DIR)."""
    out = tmp_path_factory.mktemp("run_digest") / "digest"
    proc = subprocess.run([sys.executable, str(TOOL), str(out)],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines(), out


def environment() -> str:
    """The numpy version and BLAS build that the digests' float bits depend on.
    The tool runs under this interpreter, so under this numpy."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"# numpy {np.__version__}; {blas.get('openblas configuration', blas['name'])}"


def test_run_digest_prints_one_digest_per_file_of_every_set(digest):
    lines, out = digest
    assert lines and all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    paths = [line[66:] for line in lines]
    assert len(set(paths)) == len(paths)
    # each bullet of the docstring's set list says where its runs are written
    bullets = ast.get_docstring(ast.parse(TOOL.read_text())).split("\n* ")[1:]
    sets = [re.findall(r"written\s+to\s+``(\w+)/``", bullet) for bullet in bullets]
    assert sets and all(sets)
    assert {name for names in sets for name in names} <= {p.split("/")[0] for p in paths}
    # ``paths/`` holds the four fedavg evaluation-path runs
    assert {p.split("/")[1] for p in paths if p.startswith("paths/")} == {
        "binary", "select_auprc", "select_accuracy", "select_loss"}
    # a checkpoint is hashed row by row: each kept round file of a grid run
    # (K = 5) gives one ``<file>:<row>`` line per row, in the file's row order
    files = sorted(p.relative_to(out).as_posix()
                   for p in out.glob("grid/*/checkpoints/round_*.npz"))
    assert len({f.split("/")[1] for f in files}) == 8
    rows = ["global_start", "global_agg"] + [f"client_{i}" for i in range(5)]
    for f in files:
        assert [p[len(f) + 1:] for p in paths if p.startswith(f + ":")] == rows, f
    assert all(":" in p for p in paths if ".npz" in p)


def test_run_digest_matches_the_committed_digest(digest):
    """Every output bit is the committed one.  The file is ``environment()``'s
    line, then ``python3 tools/run_digest.py OUT_DIR``'s output, and changes
    only with a stated cause for each path that differs."""
    lines, _ = digest
    header = environment()
    committed_header, *committed = COMMITTED.read_text().splitlines()
    assert header == committed_header, (
        f"{COMMITTED.name} was made under {committed_header[2:]!r}, this run is under "
        f"{header[2:]!r}; the float bits are pinned for that environment only")
    ran, kept = (dict(line.split("  ", 1)[::-1] for line in side) for side in (lines, committed))
    differing = sorted(path for path in ran.keys() | kept.keys() if ran.get(path) != kept.get(path))
    assert not differing, f"outputs that differ from {COMMITTED.name}:\n" + "\n".join(differing)
    assert lines == committed  # and in the same order
