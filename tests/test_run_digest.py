"""``tools/run_digest.py``, the digest every bitwise claim is checked with, runs
end to end and prints one line per output file, and per row of a checkpoint.
It changes its working directory, so it runs in a subprocess."""

import ast
import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "run_digest.py"


def test_run_digest_prints_one_digest_per_file_of_every_set(tmp_path):
    proc = subprocess.run([sys.executable, str(TOOL), str(tmp_path / "digest")],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
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
    out = tmp_path / "digest"
    files = sorted(p.relative_to(out).as_posix()
                   for p in out.glob("grid/*/checkpoints/round_*.npz"))
    assert len({f.split("/")[1] for f in files}) == 8
    rows = ["global_start", "global_agg"] + [f"client_{i}" for i in range(5)]
    for f in files:
        assert [p[len(f) + 1:] for p in paths if p.startswith(f + ":")] == rows, f
    assert all(":" in p for p in paths if ".npz" in p)
