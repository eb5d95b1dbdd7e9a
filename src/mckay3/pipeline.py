"""The analysis pipeline: one catalog group from spec to audited quiver.

generators -> closure -> conjugacy classes -> character table -> quiver ->
B, A, then the certificates.  The table of a split monomial group, G = A x| H
with A diagonal (every Hmn, Gm3, Gm6 and SL2:cyclic, for instance), is read
off the little groups of H (`chartab.little_group_table`); any other
group's comes from `chartab.dixon_table`.  The route is decided by the
generators, not by the catalog kind.  Each command builds one `Analysis`
and drops it after its payload, so a `verify --all` pass holds one group at
a time.  The natural character, the quiver, B, A and each
certificate are computed on first use and kept, so `chartab` and `info`
never build the quiver, `cartan` builds only the matrix it prints, and the
`cartan` and `verify` commands read the same verdicts.  `verify` turns one
analysis into the report that `mckay verify` prints.

`dimensionBalance` is the kernel verdict B.delta = 0 and B^T.delta = 0
(with B = n*I - M these are, term for term, the row and column balances
sum_j m_ij d_j = n d_i and sum_i d_i m_ij = n d_j, and A.delta is their
sum; `Analysis.kernel` reads all three off M).  `eigenvectorProp` is
the one exact certificate on the quiver, M X = X diag(chi) on the verified
table X, and `Analysis.eigen` is its only pass: `adjacency` reads M off an
integer Gram matrix without it.  `dualTranspose` follows from it: on an
orthogonal table it is the same identity as M^T X = X diag(conj chi), so no
second tensor product is decomposed and no second identity is tested.
So does `psd`: A X = X diag(lambda) with every lambda_k >= 0, so `verify`
builds no polynomial; `charPolyA`, printed by `cartan` alone, is the
product of the x - lambda_k.
"""

from __future__ import annotations

import time
from functools import cached_property
from operator import add, mul

from . import catalog, chartab, mckay, published


class Analysis:
    """Everything known about one group, each part computed once."""

    def __init__(self, spec: catalog.GroupSpec, max_order: int):
        self.spec = spec
        self.group = catalog.build_group(spec, max_order=max_order)
        self.classes = chartab.conjugacy_classes(self.group)
        # either constructor returns only tables whose orthogonality it
        # certified; the route is an exact property of the generators
        table = chartab.little_group_table(self.group, self.classes)
        if table is None:
            table = chartab.dixon_table(self.group, self.classes)
        self.table = table

    @cached_property
    def chi(self) -> tuple[chartab.Cyclotomic, ...]:
        """The natural character; the `chartab` and `info` commands never read it."""
        return chartab.natural_character(self.table)

    @cached_property
    def quiver(self) -> mckay.Quiver:
        """The McKay quiver of the natural representation."""
        return mckay.adjacency(self.table, self.chi)

    @cached_property
    def b(self) -> tuple[tuple[int, ...], ...]:
        """The pre-Cartan matrix B = n*I - M."""
        return mckay.pre_cartan(self.quiver)

    @cached_property
    def a(self) -> tuple[tuple[int, ...], ...]:
        """The generalized Cartan matrix A = B + B^T."""
        return mckay.gen_cartan(self.b)

    @cached_property
    def psd(self) -> bool:
        """Is A positive semidefinite?

        When every class passes `eigen`, M X = X diag(chi), and
        M^T X = X diag(chi o inv) by the proof at `dual_transpose`, so
        A X = X diag(lambda) with lambda_k = 2n - chi(C_k) - chi(C_(inv k)).
        X is invertible, so the lambda_k are A's eigenvalues with
        multiplicity.  rep_k has finite order, so chi(C_k) is a sum of n
        roots of unity and chi(C_(inv k)) the sum of their inverses, which
        are their conjugates: lambda_k = 2n - 2 Re chi(C_k) >= 0, as
        |chi(C_k)| <= n.  A is real symmetric, so it is positive
        semidefinite, and no polynomial is built.  Otherwise the verdict is
        the Hessenberg sign scan of A alone (`mckay.psd_check`).
        """
        return all(self.eigen) or self._hessenberg.is_psd

    @cached_property
    def char_poly(self) -> tuple[int, ...]:
        """det(xI - A), coefficients descending; only `cartan` prints it.

        When every class passes `eigen`, det(xI - A) = prod_k (x - lambda_k)
        with the lambda_k of `psd`, and `mckay.spectrum_product` multiplies
        it out one Galois orbit of classes at a time.  M is rational and
        X[i][pi_c k] = sigma_c X[i][k], so chi(C_(pi_c k)) = sigma_c chi(C_k);
        pi_c commutes with inv, so sigma_c lambda_k = lambda_(pi_c k), and
        each orbit's lambdas are closed under the Galois group.  Otherwise
        the polynomial is the Hessenberg one of A alone.
        """
        if not all(self.eigen):
            return self._hessenberg.char_poly
        chi, inv = self.chi, self.table.inverse_class
        lam = [2 * self.quiver.rep_dim - chi[k] - chi[inv[k]] for k in range(len(chi))]
        orbits = chartab.galois_orbits(self.table)
        return mckay.spectrum_product([[lam[k] for k in orbit] for orbit in orbits])

    @cached_property
    def _hessenberg(self) -> mckay.PsdReport:
        """`mckay.psd_check` of A, shared by `psd` and `char_poly` when a
        class fails `eigen`."""
        return mckay.psd_check(self.a)

    @cached_property
    def kernel(self) -> tuple[bool, bool, bool]:
        """Does the dimension vector lie in the kernel of A, of B, of B^T?"""
        n, dims, m = self.quiver.rep_dim, self.quiver.dims, self.quiver.matrix
        rows = [n * d - sum(map(mul, row, dims)) for d, row in zip(dims, m)]
        cols = [n * d - sum(map(mul, col, dims)) for d, col in zip(dims, zip(*m))]
        return (not any(map(add, rows, cols)), not any(rows), not any(cols))

    @cached_property
    def eigen(self) -> tuple[bool, ...]:
        """Per class: is the table column an eigenvector of M?

        The one pass of M X = X diag(chi) per group, on the quiver as
        held, decided modulo one prime on the table; the `dualTranspose`
        and PSD verdicts and A's spectrum are read off it.
        """
        return mckay.eigenvector_check(self.table, self.quiver, self.chi)

    @cached_property
    def dual_transpose(self) -> bool:
        """Does the dual representation give the transposed quiver?

        Exactly when every class passes `eigen`.  Let X be the table,
        Y[i][k] = X[i][inv k] and D = diag(|C_k|); both table constructors
        certify X.D.Y^T = |G| I and that inv is an involution preserving
        class sizes.  With Q the permutation matrix of inv, Y = X Q and
        Q = Q^T = Q^-1 commutes with D, so X^-1 = |G|^-1 D Y^T and
        X^T X = |G| Q D^-1, that is X^-T = |G|^-1 X D Q.  If
        M X = X diag(chi) then M^T = X^-T diag(chi) X^T and
        M^T X = X D Q diag(chi) Q D^-1 = X diag(chi o inv).  Applied to
        M^T and chi o inv this gives the converse, as inv is an involution.
        chi is the natural character and the class of g^-1 is inv of the
        class of g, so chi o inv = conj chi.  The dual quiver M' is the one
        solution of M' X = X diag(conj chi), X being invertible, so
        M^T = M' exactly when M X = X diag(chi).
        """
        return all(self.eigen)

    @cached_property
    def audit(self) -> published.CartanAudit | None:
        """The recorded Cartan matrix against the quiver; None if none is kept."""
        return published.audit_cartan(self.spec.name, self.quiver)


def verify(spec: catalog.GroupSpec, max_order: int) -> dict:
    """Every structural check on one group, as the `verify` report."""
    t0 = time.monotonic()
    an = Analysis(spec, max_order)
    table, quiver = an.table, an.quiver
    profile = catalog.expected_profile(spec)
    expected = catalog.expected_adjacency(spec)
    audit = an.audit
    recorded = published.PRINTED_TABLES.get(spec.name)
    # report order; None where nothing is recorded to check against
    verdicts = {
        # a table that failed orthogonality raised OrthogonalityFailure above
        "orthogonality": True,
        "sumOfSquares": sum(d * d for d in table.dims) == table.order,
        "integrality": all(v >= 0 for row in quiver.matrix for v in row),
        "dimensionBalance": an.kernel[1] and an.kernel[2],
        "psd": an.psd,
        "kernelDelta": all(an.kernel),
        "eigenvectorProp": all(an.eigen),
        "dualTranspose": an.dual_transpose,
        "profileMatch": None if profile is None else (
            (profile.order, profile.class_count, profile.dims)
            == (table.order, table.count, tuple(sorted(table.dims)))
        ),
        "expectedQuiverMatch": None if expected is None else (
            mckay.quiver_iso(quiver, expected) is not None
        ),
        "publishedMatrixMatch": None if audit is None else audit.as_expected,
        "publishedTableMatch": None if not recorded else all(
            published.match_printed_table(table, printed) == should_match
            for printed, should_match in recorded
        ),
    }
    checks = {
        name: "skip" if ok is None else "pass" if ok else "fail"
        for name, ok in verdicts.items()
    }

    discrepancies = []
    if profile is not None and profile.note is not None:
        discrepancies.append({"kind": "degenerate", "detail": profile.note})
    if audit is not None:
        discrepancies += [{"kind": "published-cartan", "detail": n} for n in audit.notes]
        if audit.status == "mismatch":
            discrepancies.append(
                {
                    "kind": "published-cartan",
                    "detail": "recorded matrix matches the computed quiver under "
                    "no dimension-preserving relabeling",
                }
            )
    for printed, _ in recorded or ():
        discrepancies += [{"kind": "published-table", "detail": n} for n in printed.notes]

    elapsed = int(round((time.monotonic() - t0) * 1000))
    return {
        "groupSpec": spec.name,
        "order": table.order,
        "classCount": table.count,
        "dimMultiset": sorted(table.dims),
        "checks": checks,
        "discrepancies": discrepancies,
        "elapsedMs": elapsed,
    }
