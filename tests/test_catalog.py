"""Spec parsing, generator data, and expected invariants of the catalog."""

import hashlib

import pytest

import mckay3
from mckay3 import catalog, chartab, exactnum, matgroup, mckay, pipeline, published
from mckay3.catalog import (
    CatalogError,
    GroupSpec,
    SpecError,
    abelian_table,
    all_specs,
    build_group,
    expected_adjacency,
    expected_order,
    expected_profile,
    generators,
    parse_spec,
)
from mckay3.chartab import verify_orthogonality
from mckay3.exactnum import Cyclotomic
from mckay3.matgroup import OrderBoundExceeded
from mckay3.mckay import adjacency, quiver_iso


def test_parse_round_trips_the_whole_roster():
    for spec in all_specs():
        assert parse_spec(spec.name) == spec


def test_known_order_is_bounded_before_the_generators(monkeypatch):
    def no_generators(spec):
        raise AssertionError("generators built for an over-limit spec")

    monkeypatch.setattr(catalog, "generators", no_generators)
    with pytest.raises(OrderBoundExceeded, match="more than 20000 elements"):
        build_group(parse_spec("Hmn:150,150"))


@pytest.mark.parametrize(
    "alpha, refused", [(20001, True), (40002, True), (1000000, True), (40000, False)]
)
def test_twisted_order_is_bounded_before_the_generators(monkeypatch, alpha, refused):
    # g -> g[0][0] maps the group onto a cyclic group of order
    # alpha / gcd(alpha, 2); building alpha=1000000 would start with a
    # reduction table of about N * phi(N) ints, so it is never built here
    def no_generators(spec):
        raise AssertionError("generators built")

    monkeypatch.setattr(catalog, "generators", no_generators)
    expected = (OrderBoundExceeded, "more than 20000") if refused else (AssertionError, "built")
    with pytest.raises(expected[0], match=expected[1]):
        build_group(parse_spec(f"SL2:cyclic:3:alpha={alpha}"))


def test_small_twist_reaches_the_closure_bound(monkeypatch):
    calls = []

    def counted(gens, max_order):
        calls.append(max_order)
        return matgroup.closure(gens, max_order=max_order)

    monkeypatch.setattr(catalog, "closure", counted)
    with pytest.raises(OrderBoundExceeded, match="more than 10 elements"):
        build_group(parse_spec("SL2:binD:2:alpha=3"), max_order=10)
    assert calls == [10]


def test_parse_alpha_suffix():
    spec = parse_spec("SL2:binD:3:alpha=2")
    assert (spec.subtype, spec.k, spec.alpha) == ("binD", 3, 2)
    assert spec.name == "SL2:binD:3:alpha=2"
    assert parse_spec("SL2:2I:alpha=4").alpha == 4


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "Hmn:0,3",
        "Hmn:2",
        "Hmn:2,2,2",
        "Gm3:x",
        "Gm3:0",
        "SL2",
        "SL2:weird",
        "SL2:cyclic",
        "SL2:cyclic:0",
        "SL2:2T:3",
        "SL2:binD:2:alpha=0",
        "SL2:binD:2:alpha=2:junk",
        "G13",
        "g5",
    ],
)
def test_parse_rejects_malformed_specs(bad):
    with pytest.raises(SpecError):
        parse_spec(bad)


def test_roster_size_and_max_m():
    assert len(all_specs()) == 73
    small = all_specs(max_m=2)
    assert len(small) == 4 + 2 + 2 + 8 + 6 + 3 + 8
    assert all(s.m <= 2 and s.n <= 2 for s in small if s.kind == "Hmn")


@pytest.mark.parametrize(
    "name,order",
    [
        ("Hmn:2,3", 6),
        ("Hmn:1,1", 1),
        ("Gm3:2", 12),
        ("Gm6:2", 24),
        ("SL2:cyclic:5", 5),
        ("SL2:binD:2", 8),
        ("SL2:2T", 24),
    ],
)
def test_small_group_orders(name, order):
    spec = parse_spec(name)
    assert expected_order(spec) == order
    assert build_group(spec).order == order


def test_alpha_twist_builds_without_order_claim():
    spec = parse_spec("SL2:cyclic:3:alpha=2")
    assert expected_order(spec) is None
    assert expected_profile(spec) is None
    assert build_group(spec).order == 6


def test_generators_are_unimodular_everywhere():
    for spec in all_specs():
        gens = generators(spec)
        assert len({g.conductor for g in gens}) == 1
        for g in gens:
            assert g.det() == 1


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: generators(GroupSpec(kind="SL2", subtype="3T", k=3)), "unknown SL2 subtype '3T'"),
        (lambda: generators(GroupSpec(kind="G4")), "unknown group kind 'G4'"),
        # generators passes only the eight recorded names on
        (lambda: catalog._gens_exceptional("G4"), "unknown exceptional group 'G4'"),
    ],
    ids=["sl2-subtype", "group-kind", "exceptional-name"],
)
def test_generators_reject_unknown_specs(call, message):
    with pytest.raises(SpecError, match=f"^{message}$"):
        call()


# SHA-256 of the concatenated generator keys; the roster has no alpha= spec,
# so these are the only pins on the twisted embedding
_TWISTED_GENERATOR_DIGESTS = {
    "SL2:cyclic:3:alpha=2": "b75a60c334c2a86fc13c2f114ab419829507b7fe9960fa84ac33435fdf7d8e18",
    "SL2:cyclic:5:alpha=3": "e73b6c3c6362d25841211555a4cdfa71aa3b7a04637fb4c6083256a187e66c43",
    "SL2:binD:3:alpha=3": "7e8cea38d361e3373cb13b38c4e76618d479b6100fff36049e79a8cd115aa649",
    "SL2:2T:alpha=5": "90a2f8e45907437806e00120e063ad6e158f010bdadfe4434df967b8316b9241",
    "SL2:2I:alpha=4": "81be09d2a1dffe279d2e289301554910833d05c3433f553c111edb28294fa9ed",
}


def test_twisted_generators_are_pinned():
    for name, digest in _TWISTED_GENERATOR_DIGESTS.items():
        gens = generators(parse_spec(name))
        for g in gens:
            assert g.det() == 1
        keys = b"".join(g.key() for g in gens)
        assert hashlib.sha256(keys).hexdigest() == digest, name


def test_profiles_satisfy_sum_of_squares():
    for spec in all_specs():
        profile = expected_profile(spec)
        assert profile is not None
        assert sum(d * d for d in profile.dims) == profile.order
        assert profile.class_count == len(profile.dims)


def test_closed_form_orders_match_the_profile_dimensions():
    # two independent formulas per family: |G| in closed form, and the
    # sum of the squares of the listed dimensions
    specs = all_specs(20)
    assert len(specs) == 465
    for spec in specs:
        profile = expected_profile(spec)
        assert expected_order(spec) == profile.order, spec.name
        assert list(profile.dims) == sorted(profile.dims), spec.name


def test_degenerate_flags():
    degenerate = {
        s.name for s in all_specs() if expected_profile(s).note is not None
    }
    assert degenerate == {
        "Hmn:1,1",
        "Gm3:1",
        "Gm6:1",
        "Gm6:2",
        "SL2:cyclic:1",
        "SL2:binD:1",
    }


def test_gm3_dimension_branches():
    assert expected_profile(parse_spec("Gm3:3")).dims == (1,) * 9 + (3, 3)
    assert expected_profile(parse_spec("Gm3:4")).dims == (1, 1, 1) + (3,) * 5


def test_gm6_dimension_branches():
    p5 = expected_profile(parse_spec("Gm6:5"))
    assert p5.dims == (1, 1, 2) + (3,) * 8 + (6, 6)
    p6 = expected_profile(parse_spec("Gm6:6"))
    assert p6.dims == (1, 1) + (2,) * 4 + (3,) * 10 + (6, 6, 6)


def test_expected_adjacency_coverage():
    missing = {
        s.name for s in all_specs() if expected_adjacency(s) is None
    }
    assert missing == {"G7", "G11", "G12"}
    assert expected_adjacency(parse_spec("SL2:binD:2:alpha=3")) is None


def test_expected_adjacency_is_balanced():
    for spec in all_specs():
        q = expected_adjacency(spec)
        if q is None:
            continue
        profile = expected_profile(spec)
        assert tuple(sorted(q.dims)) == profile.dims
        r = q.count
        for i in range(r):
            assert sum(q.matrix[i][j] * q.dims[j] for j in range(r)) == 3 * q.dims[i]
            assert sum(q.dims[j] * q.matrix[j][i] for j in range(r)) == 3 * q.dims[i]


# SHA-256 of repr((spec.name, expected_adjacency(spec))), chained in this
# order, over all_specs(12) and five degenerate specs: it pins every oracle
# matrix of the torus rule, the affine diagrams, the fusion records, the
# block shift and the little-group counts
_ORACLE_SPECS = all_specs(12) + tuple(
    parse_spec(s)
    for s in ("SL2:cyclic:1", "SL2:cyclic:2", "SL2:binD:1", "Hmn:1,1", "Hmn:1,9")
)
_ORACLE_DIGEST = "20ac7a3b4b3235bc7b3b54ed3d7bbc4caefabc6e1f67d218868d49d7da9be701"


def test_expected_adjacency_matches_its_digest():
    digest = hashlib.sha256()
    for spec in _ORACLE_SPECS:
        digest.update(repr((spec.name, expected_adjacency(spec))).encode())
    assert digest.hexdigest() == _ORACLE_DIGEST


def test_torus_rule_on_h22():
    q = expected_adjacency(parse_spec("Hmn:2,2"))
    assert q.dims == (1, 1, 1, 1)
    assert q.matrix == (
        (0, 1, 1, 1),
        (1, 0, 1, 1),
        (1, 1, 0, 1),
        (1, 1, 1, 0),
    )


def test_semidirect_oracle_matches_computed_for_one_case():
    spec = parse_spec("Gm3:2")
    group = build_group(spec)
    from mckay3.chartab import dixon_table

    quiver = adjacency(dixon_table(group))
    assert quiver_iso(quiver, expected_adjacency(spec)) is not None


@pytest.mark.parametrize(
    "name", [f"{kind}:{m}" for kind in ("Gm3", "Gm6") for m in (7, 8, 9)]
)
def test_monomial_oracle_matches_the_pipeline_past_the_roster(name):
    spec = parse_spec(name)
    computed = pipeline.Analysis(spec, 20000).quiver
    assert quiver_iso(computed, expected_adjacency(spec)) is not None


def test_monomial_oracle_meets_the_closed_forms_up_to_m30():
    for kind in ("Gm3", "Gm6"):
        for m in range(1, 31):
            spec = GroupSpec(kind=kind, m=m)
            q = expected_adjacency(spec)
            assert tuple(sorted(q.dims)) == expected_profile(spec).dims, spec.name
            rows = [sum(a * d for a, d in zip(row, q.dims)) for row in q.matrix]
            cols = [
                sum(a * d for a, d in zip(col, q.dims)) for col in zip(*q.matrix)
            ]
            assert rows == cols == [3 * d for d in q.dims], spec.name


def test_monomial_oracle_uses_no_field_arithmetic(monkeypatch):
    specs = [parse_spec("Gm3:5"), parse_spec("Gm6:6")]
    before = [expected_adjacency(spec) for spec in specs]

    def refuse(*args, **kwargs):
        raise AssertionError("field arithmetic reached")

    modules = (mckay3, exactnum, catalog, chartab, matgroup, mckay, pipeline, published)
    for module in modules:
        for name in ("dot", "root_sum"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for op in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__truediv__"):
        monkeypatch.setattr(Cyclotomic, op, refuse)
    with pytest.raises(AssertionError, match="field arithmetic"):
        exactnum.root(1, 3) * exactnum.root(1, 3)
    with pytest.raises(AssertionError, match="field arithmetic"):
        chartab.root_sum(3, [(0, 1)])
    # a memoized oracle would answer from the calls above without computing
    for attr in vars(catalog).values():
        getattr(attr, "cache_clear", lambda: None)()
    assert [expected_adjacency(spec) for spec in specs] == before


@pytest.mark.parametrize(
    "values, message",
    [
        # tau(t) = 0 at every transposition t: trivial to trivial sums to 1,
        # which |S| = 2 does not divide
        (lambda tau: {p: 0 if p != (0, 1, 2) else v for p, v in tau.items()},
         "not a multiplicity"),
        # tau(t) tripled: every sum stays even, trivial to trivial is 1 - 9
        (lambda tau: {p: 3 * v if p != (0, 1, 2) else v for p, v in tau.items()},
         "not a multiplicity"),
        (lambda tau: dict.fromkeys(tau, 0), "nonpositive dimension"),
    ],
)
def test_monomial_oracle_fails_fast_on_bad_bookkeeping(monkeypatch, values, message):
    real = catalog._fixing_irreps
    monkeypatch.setattr(
        catalog, "_fixing_irreps", lambda stab: [values(t) for t in real(stab)]
    )
    with pytest.raises(CatalogError, match=message):
        expected_adjacency(parse_spec("Gm6:2"))


def test_abelian_table_is_a_character_table():
    t = abelian_table(3, 2)
    assert t.order == 6
    assert t.conductor == 6
    assert verify_orthogonality(t)
    assert abelian_table(1, 1).count == 1
