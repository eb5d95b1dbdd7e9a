"""Every documented payload of the roster, pinned by the SHA-256 of its stdout.

The pins are `verify --all --format json` with `elapsedMs` masked, and for
each roster group `chartab`, `quiver`, `cartan --print A` and `info`, all in
JSON.  `cli.main` runs in-process, and each command builds its own
`pipeline.Analysis`, as in a fresh process.  Four wider tables have their
own constants, `WIDE_CHARTAB_DIGESTS`, and two text tables have
`TEXT_CHARTAB_DIGESTS`.

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


# `chartab --group <spec> --format json` of four groups past the roster, with
# r = 120, 56, 60 and 64.  The first two take the Krylov lines of the split
# more than the kernels; the last two are the wide-chartab payloads of
# perfbench, whose gate hashes parsed fields and so misses whitespace.
WIDE_CHARTAB_DIGESTS = {
    "SL2:cyclic:120": "739a97a761e6d800b3929a80352641f52efdd45fc0439b4e91ebd7e4db8d7a90",
    "Gm3:12": "1f23819d62198b0c5c2c82b85199cb3dd34b62f81344f46c1394f39c2c163c36",
    "SL2:cyclic:60": "2a28588452a26e29bdb16df28c3954113b2240cb6df0e0e9a26cc1287f24d3f3",
    "Hmn:8,8": "9739d9bf06e2cfbd093d852fb590e4c231a0fd214aa701b202ba7c3f0ddb2bcd",
}


def test_wide_tables_match_their_pins():
    digests = {
        spec: _sha256(_stdout("chartab", "--group", spec, "--format", "json"))
        for spec in WIDE_CHARTAB_DIGESTS
    }
    assert digests == WIDE_CHARTAB_DIGESTS


# `chartab --group <spec>` in the default text format: one wide diagonal
# table at conductor 60 and the largest exceptional one
TEXT_CHARTAB_DIGESTS = {
    "SL2:cyclic:60": "461585146bc03acd25641a4c4c0ffc6212a073dc72095d09c11247187010f159",
    "G12": "2f56be68d203f1ea95e1a753f82980599b5485309c6cf4cdd54e7075da249ab2",
}


def test_text_tables_match_their_pins():
    digests = {
        spec: _sha256(_stdout("chartab", "--group", spec))
        for spec in TEXT_CHARTAB_DIGESTS
    }
    assert digests == TEXT_CHARTAB_DIGESTS


if __name__ == "__main__":
    if sys.argv[1:] != ["--pin"]:
        raise SystemExit("usage: python tests/test_golden.py --pin")
    DIGEST_FILE.write_text(
        json.dumps(golden_digests(), indent=2) + "\n", encoding="utf-8"
    )
