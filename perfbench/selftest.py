"""Check that the correctness gate refuses corrupted payloads.

    python3 perfbench/selftest.py

Takes real payloads of one group from the CLI, confirms that the gate
passes them, then alters them one way at a time: a character value, a
check flipped to "fail", the order, the class count, the exit code.  Each
alteration must be refused.  Additive fields and a different elapsedMs must
still pass, because the digest covers only the documented fields.
Exits 1 if any expectation fails.
"""

import contextlib
import copy
import io
import json
import sys

import gate
from worker import SRC

SPEC = "G7"


def _payload(cli, command: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([command, "--group", SPEC, "--format", "json"])
    assert code == 0, f"{command} {SPEC} exited {code}"
    return json.loads(out.getvalue())


def _altered(payload: dict, edit) -> dict:
    p = copy.deepcopy(payload)
    edit(p)
    return p


def main() -> int:
    sys.path.insert(0, str(SRC))
    from mckay3 import catalog, cli

    pinned = gate.pinned_digests()
    expect = gate.expectations(catalog, catalog.parse_spec(SPEC))
    payloads = {c: _payload(cli, c) for c in ("verify", "chartab")}

    def value(p):
        p["values"][1][2]["coeffs"][0][1] = "7"

    def flip(p):
        p["checks"]["psd"] = "fail"

    def order(p):
        p["group"]["order"] += 1

    def drop_row(p):
        p["values"].pop()
        p["irreps"].pop()

    def class_count(p):
        p["classCount"] += 1

    def provenance(p):
        p["provenance"] = {"dixonPrime": 61}

    def elapsed(p):
        p["elapsedMs"] += 1000

    def extra_class_field(p):
        p["classes"][0]["note"] = "additive"

    cases = [
        ("chartab", "as computed", None, 0, True),
        ("verify", "as computed", None, 0, True),
        ("chartab", "one character value altered", value, 0, False),
        ("verify", "one check flipped to fail", flip, 0, False),
        ("chartab", "order altered", order, 0, False),
        ("chartab", "one irreducible dropped", drop_row, 0, False),
        ("verify", "class count altered", class_count, 0, False),
        ("verify", "exit code 1", None, 1, False),
        ("verify", "additive provenance field", provenance, 0, True),
        ("verify", "different elapsedMs", elapsed, 0, True),
        ("chartab", "additive field in a class", extra_class_field, 0, True),
    ]
    wrong = 0
    for command, label, edit, code, should_pass in cases:
        p = payloads[command] if edit is None else _altered(payloads[command], edit)
        why = gate.check(command, code, json.dumps(p), expect, pinned[command][SPEC])
        ok = (why is None) == should_pass
        wrong += not ok
        verdict = "passed" if why is None else f"refused ({why})"
        print(f"{'ok  ' if ok else 'WRONG'} {command} {label}: {verdict}")
    print(f"{len(cases) - wrong}/{len(cases)} gate expectations met")
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
