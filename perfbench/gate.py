"""Per-call correctness gate for the payloads of one group call.

A call fails on a nonzero exit code or an exception, on any "fail" among a
verify report's checks, on a mismatch against the catalog's independent
expectations (order, class count, dimension multiset, sum of d^2 = |G|),
or on a digest mismatch.  The digest covers only the payload fields the
README documents, minus elapsedMs, so an additive documented field leaves
it unchanged.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

_VERIFY_FIELDS = ("groupSpec", "order", "classCount", "dimMultiset", "checks", "discrepancies")


def documented(command: str, payload: dict):
    """The README-documented part of a payload, without elapsedMs."""
    if command == "verify":
        return {
            **{k: payload[k] for k in _VERIFY_FIELDS},
            "discrepancies": [
                {"kind": d["kind"], "detail": d["detail"]} for d in payload["discrepancies"]
            ],
        }
    return {
        "group": {k: payload["group"][k] for k in ("spec", "order", "conductor")},
        "classes": [
            {k: c[k] for k in ("size", "elementOrder", "centralizer")}
            for c in payload["classes"]
        ],
        "irreps": [{"dim": i["dim"]} for i in payload["irreps"]],
        "values": [
            [{"N": v["N"], "coeffs": v["coeffs"]} for v in row] for row in payload["values"]
        ],
    }


def pinned_digests() -> dict[str, dict[str, str]]:
    """Subcommand -> spec -> digest, as written by pin_digests.py."""
    with open(Path(__file__).with_name("digests.json"), encoding="utf-8") as fh:
        return json.load(fh)


def digest(command: str, payload: dict) -> str:
    text = json.dumps(documented(command, payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def expectations(catalog, spec) -> dict:
    """What the catalog derives for spec independently of the pipeline."""
    profile = catalog.expected_profile(spec)
    return {
        "order": catalog.expected_order(spec),
        "profile": None
        if profile is None
        else (profile.order, profile.class_count, tuple(profile.dims)),
    }


def check(command: str, code, text: str, expect: dict, pinned: str | None) -> str | None:
    """Why the call failed, or None when it passed every check."""
    try:
        payload = json.loads(text)
    except ValueError as exc:
        return f"exit code {code}" if code != 0 else f"payload is not JSON: {exc}"
    try:
        if command == "verify":
            failed = sorted(k for k, v in payload["checks"].items() if v == "fail")
            if failed:
                return f"checks failed: {', '.join(failed)} (exit code {code})"
        if code != 0:
            return f"exit code {code}"
        if command == "verify":
            order, count, dims = payload["order"], payload["classCount"], payload["dimMultiset"]
        else:
            order = payload["group"]["order"]
            count = len(payload["values"])
            dims = sorted(i["dim"] for i in payload["irreps"])
            if sum(c["size"] for c in payload["classes"]) != order:
                return "class sizes do not sum to the order"
            if any(len(row) != count for row in payload["values"]) or len(
                payload["classes"]
            ) != count:
                return "table is not square"
        if sum(d * d for d in dims) != order:
            return "sum of d^2 differs from the order"
        if expect["order"] is not None and order != expect["order"]:
            return f"order {order}, catalog expects {expect['order']}"
        if expect["profile"] is None:
            return "catalog has no profile for this group"
        if (order, count, tuple(dims)) != expect["profile"]:
            return f"profile {(order, count, dims)} differs from the catalog's"
        got = digest(command, payload)
    except (KeyError, TypeError) as exc:
        return f"payload lacks a documented field: {exc!r}"
    if pinned is None:
        return "no pinned digest"
    if got != pinned:
        return f"digest {got[:12]} differs from pinned {pinned[:12]}"
    return None
