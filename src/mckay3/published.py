"""Previously tabulated reference data for some catalog groups, with audits.

The tabulations that circulate for these groups contain a few defects, so
nothing here is trusted blindly.  Each recorded Cartan matrix is audited
against the computed quiver three ways: read as the generalized Cartan
matrix A, read as the pre-Cartan matrix B = 3I - M (both up to a
dimension-preserving relabeling of the vertices), and, where a repaired
version is recorded, against that repaired matrix.  The audit reports a
status per record, and the caller knows which status each record is
supposed to earn; a known-bad record that suddenly matches is just as
alarming as a known-good one that stops matching.

Recorded defects, kept as data on purpose:

* the 9x9 matrix for Hmn:3,3 has four unbalanced rows (row sums
  1,0,0,0,1,-1,1,0,0), so it annihilates no dimension vector;
* the matrix for G7 is built from a fusion list whose right-hand sides do
  not even have the right dimensions (3x3 = 12 in one line); its bare
  digraph read as B is isomorphic to the computed quiver, which is why the
  audit has to enforce vertex dimensions;
* the block form for G9 labels its upper-right block -B where the shift
  structure gives -B^t; numerically immaterial, since that block happens
  to be symmetric;
* the B block for G10 has a stray 1 on the diagonal of its fifth row;
* the half-integer entries of the G7 character table are footnoted as
  (-1 +- sqrt(5))/2, while the traces of the natural representation force
  (1 +- sqrt(5))/2.
"""

from __future__ import annotations

from itertools import chain, permutations, product
from math import lcm
from typing import NamedTuple

from .exactnum import Cyclotomic, root
from .mckay import Quiver, gen_cartan, pre_cartan, quiver_iso


# ---------------------------------------------------------------------------
# recorded Cartan matrices


class PrintedCartan(NamedTuple):
    name: str
    literal: tuple[tuple[int, ...], ...]
    # dimensions of the irreducibles in the recorded basis order; the records
    # follow the order of the recorded character tables, so these are data,
    # and matching must preserve them (the bare digraph of the bad G7 record
    # happens to be isomorphic to the true quiver, dimensions are what
    # expose it)
    dims: tuple[int, ...]
    expected_status: str
    corrected: tuple[tuple[int, ...], ...] | None = None
    notes: tuple[str, ...] = ()


def _rows(*rows) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(r) for r in rows)


_H22 = _rows(
    (3, -1, -1, -1),
    (-1, 3, -1, -1),
    (-1, -1, 3, -1),
    (-1, -1, -1, 3),
)

_H32 = _rows(
    (6, -2, -1, -1, -1, -1),
    (-2, 6, -1, -1, -1, -1),
    (-1, -1, 6, -2, -1, -1),
    (-1, -1, -2, 6, -1, -1),
    (-1, -1, -1, -1, 6, -2),
    (-1, -1, -1, -1, -2, 6),
)

_H33 = _rows(
    (6, -1, -1, -1, 0, -1, 0, 0, -1),
    (-1, 6, -1, 0, -1, -1, -1, -1, 0),
    (-1, -1, 6, -1, 0, -1, 0, -1, -1),
    (-1, 0, -1, 6, -1, -1, -1, -1, 0),
    (0, -1, 0, -1, 6, -1, 0, -1, -1),
    (-1, -1, -1, -1, -1, 6, -1, 0, -1),
    (0, -1, 0, -1, 0, -1, 6, -1, -1),
    (0, -1, -1, -1, -1, 0, -1, 6, -1),
    (-1, 0, -1, 0, -1, -1, -1, -1, 6),
)

_H34 = _rows(
    (6, -1, 0, -1, -1, -1, 0, 0, -1, 0, 0, -1),
    (-1, 6, -1, 0, 0, -1, -1, 0, -1, -1, 0, 0),
    (0, -1, 6, -1, 0, 0, -1, -1, 0, -1, -1, 0),
    (-1, 0, -1, 6, -1, 0, 0, -1, 0, 0, -1, -1),
    (-1, 0, 0, -1, 6, -1, 0, -1, -1, -1, 0, 0),
    (-1, -1, 0, 0, -1, 6, -1, 0, 0, -1, -1, 0),
    (0, -1, -1, 0, 0, -1, 6, -1, 0, 0, -1, -1),
    (0, 0, -1, -1, -1, 0, -1, 6, -1, 0, 0, -1),
    (-1, -1, 0, 0, -1, 0, 0, -1, 6, -1, 0, -1),
    (0, -1, -1, 0, -1, -1, 0, 0, -1, 6, -1, 0),
    (0, 0, -1, -1, 0, -1, -1, 0, 0, -1, 6, -1),
    (-1, 0, 0, -1, 0, 0, -1, -1, -1, 0, -1, 6),
)

_G7 = _rows(
    (3, 0, -1, 0, 0),
    (0, 2, 0, -1, -1),
    (-1, 0, 2, -1, 0),
    (0, -1, -1, 2, -1),
    (0, -1, 0, -1, 3),
)

_G8 = _rows(
    (6, 0, 0, 0, -1, -1),
    (0, 6, -2, -2, -1, -1),
    (0, -2, 4, -2, 0, 0),
    (0, -2, -2, 4, -1, -1),
    (-1, -1, 0, -1, 6, -1),
    (-1, -1, 0, -1, -1, 6),
)

_B9 = _rows(
    (0, 0, 1, 0, 0),
    (0, 0, 0, 1, 1),
    (1, 0, 1, 0, 1),
    (0, 1, 0, 1, 1),
    (0, 1, 1, 1, 1),
)

_B10 = _rows(
    (0, 0, 0, 0, 0, 1),
    (0, 0, 1, 1, 1, 0),
    (0, 1, 1, 1, 0, 0),
    (0, 1, 1, 1, 0, 1),
    (1, 0, 0, 1, 1, 0),
    (0, 1, 0, 0, 1, 0),
)

_B10_FIXED = tuple(
    tuple(0 if (i, j) == (4, 4) else v for j, v in enumerate(row))
    for i, row in enumerate(_B10)
)


def _assemble(layout, block):
    """Assemble a 3x3 grid of block labels ('6E', '-B', '-Bt') literally."""
    s = len(block)
    grid = {
        "6E": tuple(tuple(6 if i == j else 0 for j in range(s)) for i in range(s)),
        "-B": tuple(tuple(-v for v in row) for row in block),
        "-Bt": tuple(tuple(-v for v in row) for row in zip(*block)),
    }
    out = []
    for brow in layout:
        pieces = [grid[label] for label in brow]
        for i in range(s):
            out.append(tuple(v for piece in pieces for v in piece[i]))
    return tuple(out)


# the block layout of the G10 record, shared by the literal and the erratum
_G10_LAYOUT = (("6E", "-B", "-Bt"), ("-Bt", "6E", "-B"), ("-B", "-Bt", "6E"))


PRINTED_CARTAN: dict[str, PrintedCartan] = {
    "Hmn:2,2": PrintedCartan(
        name="Hmn:2,2",
        literal=_H22,
        dims=(1,) * 4,
        expected_status="matched-as-B",
        notes=("recorded with diagonal 3, so it is B = 3I - M, not B + B^t",),
    ),
    "Hmn:3,2": PrintedCartan(
        name="Hmn:3,2",
        literal=_H32,
        dims=(1,) * 6,
        expected_status="matched-as-A",
    ),
    "Hmn:3,3": PrintedCartan(
        name="Hmn:3,3",
        literal=_H33,
        dims=(1,) * 9,
        expected_status="mismatch",
        notes=(
            "row sums are 1,0,0,0,1,-1,1,0,0; a Cartan matrix of this group "
            "must annihilate the all-ones vector, so no relabeling can match",
        ),
    ),
    "Hmn:3,4": PrintedCartan(
        name="Hmn:3,4",
        literal=_H34,
        dims=(1,) * 12,
        expected_status="matched-as-A",
    ),
    "G7": PrintedCartan(
        name="G7",
        literal=_G7,
        dims=(1, 3, 3, 4, 5),
        expected_status="mismatch",
        notes=(
            "derived from a fusion list that is not dimension-balanced "
            "(3*3 = 3+4+5 in one line), and does not match the computed "
            "quiver read either as A or as B",
        ),
    ),
    "G8": PrintedCartan(
        name="G8",
        literal=_G8,
        dims=(1, 6, 7, 8, 3, 3),
        expected_status="matched-as-A",
    ),
    "G9": PrintedCartan(
        name="G9",
        literal=_assemble((("6E", "-B", "-B"), ("-Bt", "6E", "-B"), ("-B", "-Bt", "6E")), _B9),
        dims=(1, 3, 3, 4, 5) * 3,
        expected_status="matched-as-A",
        notes=(
            "the upper-right block is labeled -B where the shift structure "
            "gives -B^t, but this block is symmetric, so the recorded matrix "
            "is unaffected and matches as written",
        ),
    ),
    "G10": PrintedCartan(
        name="G10",
        literal=_assemble(_G10_LAYOUT, _B10),
        dims=(1, 6, 7, 8, 3, 3) * 3,
        expected_status="matched-with-erratum",
        corrected=_assemble(_G10_LAYOUT, _B10_FIXED),
        notes=(
            "block entry (5,5) recorded as 1, but the order-168 quiver has no "
            "loop there; with 0 the matrix matches",
        ),
    ),
}


class CartanAudit(NamedTuple):
    name: str
    status: str
    expected_status: str
    witness: tuple[int, ...] | None
    notes: tuple[str, ...]

    @property
    def as_expected(self) -> bool:
        return self.status == self.expected_status


def audit_cartan(name: str, quiver: Quiver) -> CartanAudit | None:
    """Compare a computed quiver against the recorded matrix for `name`.

    Returns None when nothing is recorded.  The status is one of
    matched-as-A, matched-as-B, matched-with-erratum, mismatch.
    """
    rec = PRINTED_CARTAN.get(name)
    if rec is None:
        return None
    a = gen_cartan(pre_cartan(quiver))
    lit = rec.literal
    n = len(lit)
    readings = []  # (status, recorded, computed), tried in this order
    if n == quiver.count and len(rec.dims) == n:
        if lit == tuple(zip(*lit)):
            readings.append(("matched-as-A", lit, a))
        m_ref = pre_cartan(Quiver(rec.dims, lit))  # B = 3I - M is its own inverse
        if all(v >= 0 for row in m_ref for v in row):
            readings.append(("matched-as-B", m_ref, quiver.matrix))
    if rec.corrected is not None:
        readings.append(("matched-with-erratum", rec.corrected, a))
    for status, recorded, computed in readings:
        w = quiver_iso(Quiver(quiver.dims, computed), Quiver(rec.dims, recorded))
        if w is not None:
            return CartanAudit(name, status, rec.expected_status, w, rec.notes)
    return CartanAudit(name, "mismatch", rec.expected_status, None, rec.notes)


# ---------------------------------------------------------------------------
# recorded character tables


class PrintedTable(NamedTuple):
    name: str
    class_orders: tuple[int, ...]
    class_sizes: tuple[int, ...]
    rows: tuple[tuple[Cyclotomic, ...], ...]
    notes: tuple[str, ...] = ()


def _row(cond, *vals):
    return tuple(
        v if isinstance(v, Cyclotomic) else Cyclotomic.rational(v, cond)
        for v in vals
    )


# (1 + sqrt 5)/2 and (1 - sqrt 5)/2: the order-5 rotation traces
_NU_P = -(root(2, 5)) - root(3, 5)
_NU_M = Cyclotomic.rational(1, 5) + root(2, 5) + root(3, 5)
# (-1 + sqrt 5)/2 and (-1 - sqrt 5)/2: the same entries as footnoted
_NU_P_LIT = root(1, 5) + root(4, 5)
_NU_M_LIT = root(2, 5) + root(3, 5)

TABLE_G7 = PrintedTable(
    name="G7",
    class_orders=(1, 2, 3, 5, 5),
    class_sizes=(1, 15, 20, 12, 12),
    rows=(
        _row(5, 1, 1, 1, 1, 1),
        _row(5, 3, -1, 0, _NU_P, _NU_M),
        _row(5, 3, -1, 0, _NU_M, _NU_P),
        _row(5, 4, 0, 1, -1, -1),
        _row(5, 5, 1, -1, 0, 0),
    ),
    notes=(
        "half-integer entries read as (1 +- sqrt(5))/2; the footnote of the "
        "tabulation says (-1 +- sqrt(5))/2, which is off by one and fails "
        "against the natural traces",
    ),
)

TABLE_G7_AS_PRINTED = PrintedTable(
    name="G7",
    class_orders=(1, 2, 3, 5, 5),
    class_sizes=(1, 15, 20, 12, 12),
    rows=(
        _row(5, 1, 1, 1, 1, 1),
        _row(5, 3, -1, 0, _NU_P_LIT, _NU_M_LIT),
        _row(5, 3, -1, 0, _NU_M_LIT, _NU_P_LIT),
        _row(5, 4, 0, 1, -1, -1),
        _row(5, 5, 1, -1, 0, 0),
    ),
    notes=("footnote taken literally; does not match any character table",),
)

# (-1 +- sqrt(-7))/2
_ALPHA_P = root(1, 7) + root(2, 7) + root(4, 7)
_ALPHA_M = root(3, 7) + root(5, 7) + root(6, 7)

TABLE_G8 = PrintedTable(
    name="G8",
    class_orders=(1, 2, 4, 3, 7, 7),
    class_sizes=(1, 21, 42, 56, 24, 24),
    rows=(
        _row(7, 1, 1, 1, 1, 1, 1),
        _row(7, 6, 2, 0, 0, -1, -1),
        _row(7, 7, -1, -1, 1, 0, 0),
        _row(7, 8, 0, 0, -1, 1, 1),
        _row(7, 3, -1, 1, 0, _ALPHA_P, _ALPHA_M),
        _row(7, 3, -1, 1, 0, _ALPHA_M, _ALPHA_P),
    ),
)


# recorded tables per catalog name, each with the outcome the comparison is
# supposed to produce (the literal-footnote variant of the G7 table is kept
# as a negative control and must keep failing)
PRINTED_TABLES: dict[str, tuple[tuple[PrintedTable, bool], ...]] = {
    "G7": ((TABLE_G7, True), (TABLE_G7_AS_PRINTED, False)),
    "G8": ((TABLE_G8, True),),
}


def match_printed_table(table, printed: PrintedTable) -> bool:
    """Is the computed table a column/row permutation of the recorded one?

    Columns may only be matched when their (element order, class size)
    metadata agrees, so the search tries the product over the metadata
    kinds of (kind size)! bijections, never all r! of them.  Rows are
    compared as multisets.
    """
    meta = list(zip(table.class_orders, table.class_sizes))
    pmeta = list(zip(printed.class_orders, printed.class_sizes))
    if sorted(meta) != sorted(pmeta):
        return False
    target = lcm(table.conductor, *(v.conductor for row in printed.rows for v in row))
    # computed columns grouped by kind; each combination lists, in the same
    # order, the printed column that each of them is matched with
    order = sorted(range(len(meta)), key=meta.__getitem__)
    computed = sorted(
        tuple(row[k].promote(target).encode() for k in order) for row in table.values
    )
    prows = [[v.promote(target).encode() for v in row] for row in printed.rows]
    kinds = [[c for c, m in enumerate(pmeta) if m == kind] for kind in sorted(set(meta))]
    for combo in product(*map(permutations, kinds)):
        cols = list(chain.from_iterable(combo))
        if sorted(tuple(row[c] for c in cols) for row in prows) == computed:
            return True
    return False
