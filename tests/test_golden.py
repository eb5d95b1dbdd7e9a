"""Every documented payload of the roster, pinned by the SHA-256 of its stdout.

The pins are `verify --all --format json` with `elapsedMs` masked, and for
each roster group `chartab`, `quiver`, `cartan --print A` and `info`, all in
JSON.  `cli.main` runs in-process, and each command builds its own
`pipeline.Analysis`, as in a fresh process.  Four wider tables have their
own constants, `WIDE_CHARTAB_DIGESTS`, eight binary dihedral and twisted
tables have `DIXON_CHARTAB_DIGESTS`, and two text tables have
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


# `chartab --group <spec> --format json` of the binary dihedral groups past
# k = 6 and of twisted groups, none of which the roster holds: the tables
# that a little-group route for SL2:binD or a central-product route for the
# twists would take off Dixon
DIXON_CHARTAB_DIGESTS = {
    "SL2:binD:12": "91d6c4089a8d4b0665b20af9d107b0c1450a0ffd8fc722b20b25b5b92a16d6b2",
    "SL2:binD:24": "50669ea7af3b29bd8ed2cc6925f44a53d10596e2191ce2f82db422e2c621eb44",
    "SL2:binD:3:alpha=4": "6e08bede01e5b31730cef1dbd99d0fe3b06a5570b49d8808b4e9798f85422ca9",
    "SL2:binD:4:alpha=3": "8de4b621b89b2545688a90421d5eed410c4ed9064ab836d4202cade5824075de",
    "SL2:binD:6:alpha=8": "c9059f779452e92e131a7e564d82bb9d424a104894346d84399fb39a00a07eeb",
    "SL2:2T:alpha=3": "014fdae2526bfa6d83f55614c550b6fb5203393706b093cf4f6332cb0c7f07ac",
    "SL2:2O:alpha=2": "7860c430f6412d6a2abcaeb698534a40468b9442fadfd63451e1d4506f8f8d66",
    "SL2:2I:alpha=3": "99fbf44b7e8f826000e0ee9002e8bfce0650890299e84f2c8ab58bcb9afd9f9c",
}


def test_dixon_tables_match_their_pins():
    digests = {
        spec: _sha256(_stdout("chartab", "--group", spec, "--format", "json"))
        for spec in DIXON_CHARTAB_DIGESTS
    }
    assert digests == DIXON_CHARTAB_DIGESTS


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
