"""Every name ``perfbench/spans.py`` hooks still exists in fedbench, and ``traced`` puts it back.

The benchmark's traced pass swaps wrappers into fedbench's module and class
attributes; a rename under ``src/`` would otherwise surface only as a crash of
that pass.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.spans import Tracer, hooks, traced  # noqa: E402


def originals():
    return [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in hooks(Tracer())]


def test_every_hooked_attribute_resolves():
    # hooks() looks every name up, so a missing one raises AttributeError here
    for owner, attr, wrapper in hooks(Tracer()):
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"
        assert wrapper.__wrapped__ is getattr(owner, attr)


def test_traced_restores_the_originals():
    before = originals()
    with traced(Tracer()):
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in before)
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in before)
