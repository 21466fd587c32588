"""``tools/line_reach.py``'s tracer, on a throwaway module: the line a call
runs is reached and the branch it skips is not.  (The tool itself runs tier-1
in-process, so a test cannot run it whole.)"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "line_reach.py"


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_reaches_the_run_line_and_not_the_skipped_branch(tmp_path):
    line_reach = load("line_reach", TOOL)
    path = tmp_path / "throwaway.py"
    path.write_text("def sign(x):\n"
                    "    if x < 0:\n"
                    "        return -1\n"
                    "    return 1\n")
    assert line_reach.executable_lines(path) == {1, 2, 3, 4}
    with line_reach.reached([path]) as ran:
        assert load("throwaway", path).sign(2) == 1
    lines = ran[str(path.resolve())]
    assert 4 in lines and 3 not in lines
