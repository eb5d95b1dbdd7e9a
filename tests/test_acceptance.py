"""Acceptance gate: one test per criterion, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py` to get the per-criterion
report.  Everything here is exact; there are no tolerances anywhere.
"""

import json
import re
import subprocess
import sys

import pytest

from mckay3 import catalog, chartab, mckay, published
from mckay3.pipeline import Analysis, verify

_MAX_ORDER = 20000


def _an(name):
    return Analysis(catalog.parse_spec(name), _MAX_ORDER)


# criterion 1 -- exact group orders


def test_c1_exact_orders():
    cases = {"Hmn:2,3": 6}
    for m in range(2, 7):
        cases[f"Gm3:{m}"] = 3 * m * m
    for m in range(3, 7):
        cases[f"Gm6:{m}"] = 6 * m * m
    cases.update(
        {
            "G5": 108,
            "G6": 216,
            "G7": 60,
            "G8": 168,
            "G9": 180,
            "G10": 504,
            "G11": 648,
            "G12": 1080,
        }
    )
    for name, order in cases.items():
        assert _an(name).group.order == order, name


# criterion 2 -- class counts of the exceptional groups


def test_c2_class_counts():
    for name, count in {"G5": 14, "G6": 16, "G7": 5, "G8": 6}.items():
        assert _an(name).table.count == count, name


# criterion 3 -- computed tables against the recorded ones


def test_c3_character_tables():
    t7 = _an("G7").table
    t8 = _an("G8").table
    assert published.match_printed_table(t7, published.TABLE_G7)
    assert published.match_printed_table(t8, published.TABLE_G8)
    # the literal footnote values are off by one; they are kept on file as a
    # negative control and must keep failing, with the discrepancy on record
    assert not published.match_printed_table(t7, published.TABLE_G7_AS_PRINTED)
    assert published.TABLE_G7.notes
    assert published.TABLE_G7_AS_PRINTED.notes
    # the half-integer columns really carry (1 +- sqrt 5)/2 exactly
    from mckay3.exactnum import sqrt_constant

    assert published._NU_P * 2 - 1 == sqrt_constant(5)
    assert published._NU_M * 2 - 1 == -sqrt_constant(5)
    # cross-group control: the two recorded tables are not interchangeable
    assert not published.match_printed_table(t8, published.TABLE_G7)


# criterion 4 -- recorded Cartan matrices, dimension-labeled isomorphism


def test_c4_published_cartan_audits():
    expected = {
        "Hmn:2,2": "matched-as-B",
        "Hmn:3,2": "matched-as-A",
        "Hmn:3,3": "mismatch",
        "Hmn:3,4": "matched-as-A",
        "G7": "mismatch",
        "G8": "matched-as-A",
        "G9": "matched-as-A",
        "G10": "matched-with-erratum",
    }
    assert set(expected) == set(published.PRINTED_CARTAN)
    for name, status in expected.items():
        audit = published.audit_cartan(name, _an(name).quiver)
        assert audit is not None, name
        assert audit.status == status, f"{name}: {audit.status}"
        assert audit.as_expected, name
    # a silent pass on the defective records is itself a failure
    for name in ("G7", "Hmn:3,3"):
        audit = published.audit_cartan(name, _an(name).quiver)
        assert audit.status == "mismatch", f"{name} must stay a mismatch"
        assert audit.witness is None
        assert audit.notes, f"{name} must carry a documented note"
    # the layout and entry errata stay documented
    assert published.audit_cartan("G9", _an("G9").quiver).notes
    assert published.audit_cartan("G10", _an("G10").quiver).notes
    # nothing recorded for the rest
    assert published.audit_cartan("G5", _an("G5").quiver) is None


# criterion 5 -- the structural theorems, exactly, on the whole roster


def test_c5_theorem_suite_everywhere():
    theorem_checks = (
        "orthogonality",
        "sumOfSquares",
        "integrality",
        "dimensionBalance",
        "psd",
        "kernelDelta",
        "eigenvectorProp",
        "dualTranspose",
    )
    failures = []
    for spec in catalog.all_specs():
        report = verify(spec, _MAX_ORDER)
        for check in theorem_checks:
            if report["checks"][check] != "pass":
                failures.append((spec.name, check, report["checks"][check]))
    assert not failures, failures


# criterion 6 -- irreducible dimension multisets


def _multiset(*pairs):
    out = []
    for dim, count in pairs:
        out.extend([dim] * count)
    return sorted(out)


def test_c6_dimension_multisets():
    cases = {
        "Gm3:3": _multiset((1, 9), (3, 2)),
        "Gm3:4": _multiset((1, 3), (3, 5)),
        "Gm3:5": _multiset((1, 3), (3, 8)),
        "Gm3:6": _multiset((1, 9), (3, 11)),
        "Gm3:7": _multiset((1, 3), (3, 16)),
        "Gm6:5": _multiset((1, 2), (2, 1), (3, 8), (6, 2)),
        "Gm6:6": _multiset((1, 2), (2, 4), (3, 10), (6, 3)),
        "G5": _multiset((1, 4), (3, 8), (4, 2)),
        "G6": _multiset((1, 4), (2, 1), (3, 8), (6, 2), (8, 1)),
        "G11": _multiset((1, 3), (2, 3), (3, 7), (6, 6), (8, 3), (9, 2)),
        "G12": _multiset(
            (1, 1), (3, 4), (5, 2), (6, 2), (8, 2), (9, 3), (10, 1), (15, 2)
        ),
    }
    for name, dims in cases.items():
        an = _an(name)
        assert sum(d * d for d in dims) == an.group.order, name
        assert sorted(an.table.dims) == dims, name


# criterion 7 -- SL2 embeddings give the affine ADE quivers plus loops


def test_c7_sl2_quivers_are_ade_with_loops():
    names = [f"SL2:cyclic:{k}" for k in range(1, 9)]
    names += [f"SL2:binD:{k}" for k in range(1, 7)]
    names += ["SL2:2T", "SL2:2O", "SL2:2I"]
    affine_dims = {
        "SL2:2T": [1, 1, 1, 2, 2, 2, 3],
        "SL2:2O": [1, 1, 2, 2, 2, 3, 3, 4],
        "SL2:2I": [1, 2, 2, 3, 3, 4, 4, 5, 6],
    }
    for name in names:
        an = _an(name)
        expected = catalog.expected_adjacency(catalog.parse_spec(name))
        assert expected is not None, name
        assert mckay.quiver_iso(an.quiver, expected) is not None, name
        q = an.quiver
        spec = catalog.parse_spec(name)
        degenerate = spec.subtype == "cyclic" and spec.k <= 2
        if not degenerate:
            # exactly one extra loop at every node, and stripping the loops
            # leaves the symmetric affine diagram
            assert all(q.matrix[i][i] == 1 for i in range(q.count)), name
            stripped = [
                [q.matrix[i][j] if i != j else 0 for j in range(q.count)]
                for i in range(q.count)
            ]
            assert stripped == [list(r) for r in zip(*stripped)], name
        if name in affine_dims:
            assert sorted(q.dims) == affine_dims[name], name


# criterion 8 -- oracle equivalence


def test_c8_oracle_equivalence():
    for m in range(1, 7):
        for n in range(1, 7):
            direct = catalog.abelian_table(m, n)
            computed = _an(f"Hmn:{m},{n}").table
            assert chartab.tables_match_by_reps(direct, computed), (m, n)
    for spec in catalog.all_specs():
        expected = catalog.expected_adjacency(spec)
        if expected is None:
            continue
        an = Analysis(spec, _MAX_ORDER)
        assert mckay.quiver_iso(an.quiver, expected) is not None, spec.name


# criterion 9 -- byte determinism of the full verification run


def test_c9_verify_all_determinism():
    cmd = [sys.executable, "-m", "mckay3", "verify", "--all", "--format", "json"]
    runs = []
    for _ in range(2):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=590)
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout)
    masked = [
        re.sub(r'"elapsedMs": \d+', '"elapsedMs": 0', text) for text in runs
    ]
    assert masked[0] == masked[1]
    payload = json.loads(runs[0])
    assert payload["failures"] == 0
    assert len(payload["reports"]) == 73
