"""Make the in-tree package importable without installing it.

`src` goes on `sys.path` for the tests themselves and on `PYTHONPATH` for
the tests that run `python -m mckay3` in a subprocess, so a bare
`python -m pytest` from the repository root works.
"""

import os
import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")

if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
_paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
if _SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in [_SRC, *_paths] if p)
