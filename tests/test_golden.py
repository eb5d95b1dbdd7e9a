"""Every documented payload of the roster, pinned by the SHA-256 of its stdout.

The pins are `verify --all --format json` with `elapsedMs` masked, and for
each roster group `chartab`, `quiver`, `cartan --print A` and `info`, all in
JSON.  `cli.main` runs in-process, so the payloads share the
`pipeline.analyze` memo with the rest of the suite.  Two wider tables have
their own constants, `WIDE_CHARTAB_DIGESTS`.

`python tests/test_golden.py --pin` rewrites `tests/golden_digests.json`.
Re-pin only in a change whose stated purpose is to change a payload.
"""

import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path

if __name__ == "__main__":  # run as a script: make the in-tree package importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mckay3 import catalog, cli  # noqa: E402

DIGEST_FILE = Path(__file__).resolve().parent / "golden_digests.json"

_PER_GROUP = {
    "chartab": ["chartab", "--format", "json"],
    "quiver": ["quiver", "--format", "json"],
    "cartanA": ["cartan", "--print", "A", "--format", "json"],
    "info": ["info", "--format", "json"],
}


def _stdout(*argv: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    assert code == 0, argv
    return buf.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def golden_digests() -> dict[str, str]:
    """Digest of every pinned payload, keyed '<payload> <group>'."""
    verify_all = _stdout("verify", "--all", "--format", "json")
    digests = {
        "verify --all": _sha256(
            re.sub(r'"elapsedMs": \d+', '"elapsedMs": 0', verify_all)
        )
    }
    for spec in catalog.all_specs():
        for name, argv in _PER_GROUP.items():
            digests[f"{name} {spec.name}"] = _sha256(
                _stdout(*argv, "--group", spec.name)
            )
    return digests


def test_every_payload_matches_its_pin():
    pinned = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))
    assert golden_digests() == pinned


# `chartab --group <spec> --format json` of two groups past the roster, with
# r = 120 and 56: most of their split takes the Krylov lines, not the kernels
WIDE_CHARTAB_DIGESTS = {
    "SL2:cyclic:120": "739a97a761e6d800b3929a80352641f52efdd45fc0439b4e91ebd7e4db8d7a90",
    "Gm3:12": "1f23819d62198b0c5c2c82b85199cb3dd34b62f81344f46c1394f39c2c163c36",
}


def test_wide_tables_match_their_pins():
    digests = {
        spec: _sha256(_stdout("chartab", "--group", spec, "--format", "json"))
        for spec in WIDE_CHARTAB_DIGESTS
    }
    assert digests == WIDE_CHARTAB_DIGESTS


if __name__ == "__main__":
    if sys.argv[1:] != ["--pin"]:
        raise SystemExit("usage: python tests/test_golden.py --pin")
    DIGEST_FILE.write_text(
        json.dumps(golden_digests(), indent=2) + "\n", encoding="utf-8"
    )
