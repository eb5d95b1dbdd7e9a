"""Write digests.json: the digest of every workload payload at this commit.

    python3 perfbench/pin_digests.py

Run it only at a commit whose payloads are known to be right; every later
pass compares against what it writes.  A call that fails any other gate
check is refused, and nothing is written.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import gate
from run import WORKLOADS, workload_specs
from worker import SRC


def main() -> int:
    sys.path.insert(0, str(SRC))
    from mckay3 import catalog, cli

    digests: dict[str, dict[str, str]] = {}
    for workload, (command, _) in WORKLOADS.items():
        for name in workload_specs(workload):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main([command, "--group", name, "--format", "json"])
            text = out.getvalue()
            got = gate.digest(command, json.loads(text)) if code == 0 else None
            expect = gate.expectations(catalog, catalog.parse_spec(name))
            why = gate.check(command, code, text, expect, got)
            if why:
                print(f"{command} {name}: {why}", file=sys.stderr)
                return 1
            digests.setdefault(command, {})[name] = got
    path = Path(__file__).with_name("digests.json")
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {sum(map(len, digests.values()))} digests in {path.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
