"""Make the in-tree package importable without installing it, and share
the small tables that the one-prime certificates are pinned on.

`src` goes on `sys.path` for the tests themselves and on `PYTHONPATH` for
the tests that run `python -m mckay3` in a subprocess, so a bare
`python -m pytest` from the repository root works.
"""

import os
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")

if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
_paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
if _SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in [_SRC, *_paths] if p)


# small groups on which every one-prime certificate is pinned to its exact
# reference; SL2:2T has a natural character at a larger conductor than its
# table's, so adjacency promotes chi there
_SMALL = ("G7", "G8", "Hmn:4,5", "Gm3:6", "SL2:2T", "SL2:cyclic:12")


@pytest.fixture(scope="session")
def small_tables():
    """name -> (Dixon table, natural character) for each of _SMALL."""
    from mckay3.catalog import build_group, parse_spec
    from mckay3.chartab import conjugacy_classes, dixon_table, natural_character

    out = {}
    for name in _SMALL:
        g = build_group(parse_spec(name))
        classes = conjugacy_classes(g)
        table = dixon_table(g, classes)
        out[name] = (table, natural_character(table))
    return out
