"""Command line behavior: payload shapes, exit codes, determinism."""

import contextlib
import io
import json
import re
import subprocess
import sys
import tracemalloc
import weakref
from math import lcm
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mckay3 import catalog, chartab, cli, mckay, pipeline, published
from mckay3.cli import main
from mckay3.exactnum import residues
from mckay3.matgroup import SquareMatrix
from mckay3.modp import prime_one_mod


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_mentions_every_kind(capsys):
    code, out, _ = _run(capsys, "list")
    assert code == 0
    for token in ("Hmn:<m>,<n>", "Gm3:<m>", "Gm6:<m>", "SL2:cyclic:<k>", "G12"):
        assert token in out


def test_list_json_is_the_kind_table(capsys):
    code, out, _ = _run(capsys, "list", "--format", "json")
    assert code == 0
    assert json.loads(out) == [
        {"grammar": g, "type": t, "description": d} for g, t, d in cli._KINDS
    ]


def test_info_text_flags_a_degenerate_group(capsys):
    code, out, _ = _run(capsys, "info", "--group", "Hmn:1,1")
    assert code == 0
    assert out.splitlines()[-1] == "degenerate yes (trivial group)"


def test_info_json(capsys):
    code, out, _ = _run(capsys, "info", "--group", "G8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 168
    assert payload["classCount"] == 6
    assert payload["dimMultiset"] == [1, 3, 3, 6, 7, 8]
    assert payload["exponent"] == 84


def test_bad_spec_exits_2(capsys):
    code, out, err = _run(capsys, "info", "--group", "Hmn:0,3")
    assert code == 2
    assert out == ""
    assert "Hmn parameters" in err


# non-ASCII digits, and parameters longer than int() reads (4300 digits
# by default)
@pytest.mark.parametrize(
    "spec",
    ["SL2:cyclic:\u0663", "Hmn:\u0662,2", "Gm3:\uff13", "SL2:2T:alpha=\u0663"]
    + [
        pytest.param(spec.replace("N", "9" * 5000), id=spec.replace("N", "<5000 nines>"))
        for spec in ("Hmn:N,1", "Gm3:N", "SL2:cyclic:N", "SL2:2T:alpha=N")
    ],
)
def test_non_ascii_digits_exit_2(capsys, spec):
    code, out, err = _run(capsys, "verify", "--group", spec)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


_USAGE_PINS = json.loads(Path(__file__).with_name("usage_texts.json").read_text(encoding="utf-8"))


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="texts pinned on Python 3.11; argparse words help and errors differently in other releases",
)
@pytest.mark.parametrize("pin", _USAGE_PINS, ids=lambda pin: " ".join(pin["argv"]) or "(none)")
def test_help_and_usage_errors_match_the_pinned_texts(pin, monkeypatch, capsys):
    """argparse writes every help text and usage error: exit code, stdout
    and stderr equal the pinned texts (taken with COLUMNS=80, which sets
    argparse's wrap width)."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(pin["argv"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out, err) == (pin["code"], pin["stdout"], pin["stderr"])


_INTS = ["20", "+3", " 7", "\u0663", "ten"]
_VALUES = ["G7", "Hmn:2,2", "", "out.json"]
_ODD_TOKENS = [
    "--gr", "--form", "--max", "--group=G7", "--format=json", "-h", "--help", "--", "--bogus",
    "--group", "--all", "--print", "--max-m", "G7", "-1", "ten", "", "xml", "Z", "csv",
]


@st.composite
def _argvs(draw):
    """A command line drawn from the option table (each flag or not, a
    required one mostly, in any order, each with a value of its kind that may
    fail its type or choices), then up to two edits, each replacing or
    inserting an odd token: an abbreviated, `=`-form, help or repeated flag,
    another command's flag, `--`, or a bad value.  The first token may be no
    command at all."""
    command = draw(st.sampled_from([*cli._COMMANDS, "frobnicate", "-h", ""]))
    options = dict(cli._COMMANDS[command][2]) if command in cli._COMMANDS else {}
    argv = [command]
    for flag in draw(st.permutations(list(options))):
        kw = options[flag]
        if draw(st.sampled_from((True, True, True, False) if kw.get("required") else (True, False))):
            argv.append(flag)
            if kw.get("action") != "store_true":
                if "choices" in kw:
                    argv.append(draw(st.sampled_from([*kw["choices"], "xml"])))
                else:
                    argv.append(draw(st.sampled_from(_INTS if "type" in kw else _VALUES)))
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        at = draw(st.integers(1, len(argv)))
        odd = draw(st.sampled_from(_ODD_TOKENS))
        if at < len(argv) and draw(st.booleans()):
            argv[at] = odd
        else:
            argv.insert(at, odd)
    return argv


@given(_argvs() | st.just([]))
@settings(max_examples=400, deadline=None)
def test_direct_parse_is_argparse_wherever_it_answers(argv):
    ns = cli._parse(argv)
    if ns is None:
        return  # argparse parses it in `main`
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            expected = vars(cli._build_parser().parse_args(argv))
        except SystemExit:  # argparse refuses what the direct parse accepted
            expected = None
    assert vars(ns) == expected


@pytest.mark.parametrize("line", [
    "list",
    "list --format json --out list.json",
    "info --group G8 --format json --max-order 100",
    "chartab --group G7 --format json",
    "quiver --group G5 --format dot --out g5.dot",
    "cartan --group Hmn:2,2 --print M --format csv",
    "verify --group G7",
    "verify --all --max-m 6 --format json",
])
def test_readme_forms_take_the_direct_parse(line):
    argv = line.split()
    ns = cli._parse(argv)
    assert ns is not None
    assert vars(ns) == vars(cli._build_parser().parse_args(argv))


def test_plain_argv_never_imports_argparse():
    """The benchmark's argv is parsed from the option table alone.  A silent
    fall-back to argparse (and the `locale` import its messages pull in)
    would cost every call milliseconds while every payload stayed the same."""
    script = (
        "import contextlib, io, sys\n"
        "from mckay3 import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['verify', '--group', 'G7', '--format', 'json']),\n"
        "             cli.main(['chartab', '--group', 'G12', '--format', 'json'])]\n"
        "print(codes, sorted({'argparse', 'locale'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.stdout == "[0, 0] []\n", proc.stderr


def test_order_bound_exits_3(capsys):
    # the catalog knows the first three orders and refuses them before any
    # generator is built; the twisted binary dihedral group has no catalog
    # order, so the closure itself reaches the bound
    cases = (
        ("G12", "100"),
        ("Hmn:2,1", "1"),
        ("Hmn:1,1", "0"),
        ("SL2:binD:2:alpha=3", "10"),
    )
    for spec, bound in cases:
        code, out, err = _run(capsys, "info", "--group", spec, "--max-order", bound)
        assert code == 3
        assert out == ""
        assert f"more than {bound} elements" in err


def test_large_twist_exits_3_before_the_generators(capsys, monkeypatch):
    def no_generators(spec):
        raise AssertionError("generators built for an over-limit spec")

    monkeypatch.setattr(catalog, "generators", no_generators)
    code, out, err = _run(capsys, "info", "--group", "SL2:cyclic:3:alpha=1000000")
    assert code == 3
    assert out == ""
    assert "more than 20000 elements" in err


def test_cartan_csv_matches_expected(capsys):
    code, out, _ = _run(
        capsys, "cartan", "--group", "Hmn:2,2", "--print", "B", "--format", "csv"
    )
    assert code == 0
    assert out == "3,-1,-1,-1\n-1,3,-1,-1\n-1,-1,3,-1\n-1,-1,-1,3\n"


def test_cartan_json_report(capsys):
    code, out, _ = _run(
        capsys, "cartan", "--group", "Hmn:2,2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["requested"] == "A"
    report = payload["report"]
    assert report["charPolyA"] == [1, -24, 192, -512, 0]
    assert report["psd"] is True
    assert report["deltaInKernelOfA"] is True
    assert report["eigenChecks"] == [True] * 4
    assert report["publishedMatch"]["matchedAgainst"] == "B"


# one group per published-match line: an erratum, a documented mismatch,
# a match read as A, and no record
@pytest.mark.parametrize(
    "name, match_line",
    [
        ("G10", "published match: corrected"),
        ("Hmn:3,3", "published match: documented mismatch"),
        ("Hmn:3,2", "published match: A"),
        ("Hmn:2,3", "published match: nothing recorded"),
    ],
)
def test_cartan_text_agrees_with_the_json_report(capsys, name, match_line):
    code, text, _ = _run(capsys, "cartan", "--group", name)
    assert code == 0
    code, out, _ = _run(capsys, "cartan", "--group", name, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    matrix, report = payload["matrix"], payload["report"]
    lines = text.splitlines()
    assert [[int(v) for v in line.split()] for line in lines[: len(matrix)]] == matrix
    notes = report["publishedMatch"]["notes"] if report["publishedMatch"] else []
    eig = report["eigenChecks"]
    assert lines[len(matrix):] == [
        "",
        "charPoly(A) coefficients: " + " ".join(map(str, report["charPolyA"])),
        f"psd: {report['psd']}",
        f"A*delta = 0: {report['deltaInKernelOfA']}",
        f"B*delta = 0: {report['deltaInKernelOfB']}",
        f"eigenvector property: {sum(eig)}/{len(eig)} classes",
        f"dual transpose: {report['dualTransposeOk']}",
        match_line,
        *(f"  note: {note}" for note in notes),
    ]
    assert bool(notes) == (name in ("G10", "Hmn:3,3"))


def test_quiver_dot_default(capsys):
    code, out, _ = _run(capsys, "quiver", "--group", "Hmn:2,2")
    assert code == 0
    assert out.startswith("digraph mckay {")
    assert out.count("dir=none") == 6


def test_verify_single_group_json(capsys):
    code, out, _ = _run(
        capsys, "verify", "--group", "Hmn:3,2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["groupSpec"] == "Hmn:3,2"
    assert set(payload["checks"]) == {
        "orthogonality",
        "sumOfSquares",
        "integrality",
        "dimensionBalance",
        "psd",
        "kernelDelta",
        "eigenvectorProp",
        "dualTranspose",
        "profileMatch",
        "expectedQuiverMatch",
        "publishedMatrixMatch",
        "publishedTableMatch",
    }
    assert all(v in ("pass", "skip") for v in payload["checks"].values())
    assert payload["checks"]["publishedMatrixMatch"] == "pass"


def test_verify_reports_documented_discrepancies_without_failing(capsys):
    code, out, _ = _run(capsys, "verify", "--group", "G7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"]["publishedMatrixMatch"] == "pass"
    assert payload["checks"]["publishedTableMatch"] == "pass"
    kinds = {d["kind"] for d in payload["discrepancies"]}
    assert "published-cartan" in kinds
    assert "published-table" in kinds


def test_verify_fails_a_printed_table_that_should_match_and_does_not(monkeypatch, capsys):
    # the as-printed G7 table is recorded as a known mismatch; expecting it
    # to match must fail the check and the command
    monkeypatch.setitem(
        published.PRINTED_TABLES, "G7", ((published.TABLE_G7_AS_PRINTED, True),)
    )
    code, out, _ = _run(capsys, "verify", "--group", "G7", "--format", "json")
    assert code == 1
    checks = json.loads(out)["checks"]
    assert checks["publishedTableMatch"] == "fail"
    assert [name for name, verdict in checks.items() if verdict == "fail"] == [
        "publishedTableMatch"
    ]


def test_verify_all_text_ends_with_the_tally(capsys):
    code, out, _ = _run(capsys, "verify", "--all")
    assert code == 0
    assert out.endswith("\n73 groups verified, 0 with failures\n")


def test_verify_degenerate_warning(capsys):
    code, out, _ = _run(capsys, "verify", "--group", "Gm3:1")
    assert code == 0
    assert "degenerate" in out
    assert "fail" not in out.replace("failures", "")


def test_out_writes_identical_bytes(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for target in (first, second):
        code = main(
            ["chartab", "--group", "Gm3:3", "--format", "json", "--out", str(target)]
        )
        assert code == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


_ELAPSED = re.compile(rb'"elapsedMs": \d+')


@pytest.mark.parametrize(
    "argv",
    [
        ("chartab", "--group", "Hmn:8,8", "--format", "json"),
        ("chartab", "--group", "Hmn:8,8", "--format", "text"),
        ("quiver", "--group", "G7", "--format", "dot"),
        ("verify", "--group", "G7", "--format", "json"),
    ],
    ids=" ".join,
)
def test_out_gets_the_bytes_stdout_gets(tmp_path, capsysbinary, argv):
    target = tmp_path / "payload"
    assert main(list(argv)) == 0
    stdout = capsysbinary.readouterr().out
    assert main([*argv, "--out", str(target)]) == 0
    assert capsysbinary.readouterr().out == b""
    written = target.read_bytes()
    assert written.endswith(b"\n") and len(written) > 100
    assert _ELAPSED.sub(b"", written) == _ELAPSED.sub(b"", stdout)


@pytest.mark.parametrize(
    ("argv", "exit_code"),
    [
        (("chartab", "--group", "Hmn:0,3", "--format", "json"), 2),
        (("chartab", "--group", "G12", "--max-order", "100", "--format", "json"), 3),
    ],
    ids=["malformed spec", "order bound"],
)
def test_a_failing_command_writes_nothing(tmp_path, capsys, argv, exit_code):
    target = tmp_path / "payload"
    for extra in ((), ("--out", str(target))):
        assert main([*argv, *extra]) == exit_code
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:")
    assert not target.exists()


_SHARED = {"a": [1, 2], "b": {}}

_PAYLOADS = {
    "empty dict": {},
    "empty list": [],
    "nested empties": {"d": {}, "l": [], "in": [{}, [], [[]]]},
    "tuples": (1, (2, (3,)), (), [()]),
    "constants": [None, True, False],
    "ints": [-7, 0, 10**40, -(10**40)],
    "floats": [0.1, 1e20, -0.0, float("nan"), float("inf"), -float("inf")],
    "strings": ['"', "\\", "\n", "\u00e9", "\u2028", 'a"b\\c\nd \u00e9\u2028'],
    "shared dict": {"x": _SHARED, "y": _SHARED, "deeper": [_SHARED]},
    "non-str keys": [{1: "one"}, {True: "yes"}, {None: "none", 2.5: "half"}],
    "top-level scalar": "\u00e9",
}


@pytest.mark.parametrize("payload", list(_PAYLOADS.values()), ids=list(_PAYLOADS))
def test_dump_json_is_json_dumps_indent_2(payload):
    assert "".join(cli._dump_json(payload)) == json.dumps(payload, indent=2) + "\n"


_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
_json_like = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text() | st.integers() | st.none(), inner, max_size=4),
    max_leaves=20,
)


@given(_json_like)
@settings(max_examples=200, deadline=None)
def test_dump_json_matches_json_dumps_on_random_payloads(payload):
    assert "".join(cli._dump_json(payload)) == json.dumps(payload, indent=2) + "\n"


def test_dump_json_rejects_a_set_as_json_dumps_does():
    with pytest.raises(TypeError):
        json.dumps({"s": [{1}]}, indent=2)
    with pytest.raises(TypeError):
        cli._dump_json({"s": [{1}]})


def _chartab_shaped_payload():
    # a 64x64 table of value cells that shares 8 cell dicts
    cells = [{"N": 8, "coeffs": [[k, str(k + 1)], [k + 1, "-1/2"]]} for k in range(8)]
    return {"values": [[cells[(i * j) % 8] for j in range(64)] for i in range(64)]}


def test_dump_json_holds_no_text_twice_over():
    # keeping the text of every row as well as the table's, which already
    # holds it, peaks above 5x the payload
    payload = _chartab_shaped_payload()
    tracemalloc.start()
    try:
        text = "".join(cli._dump_json(payload))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == json.dumps(payload, indent=2) + "\n"
    assert peak < 4.5 * len(text)


def test_dump_json_never_builds_the_whole_text():
    # the rows are the pieces: nothing longer than a row's text (a row sits
    # at depth 2, so each of its lines after the first is indented by 4) and
    # never the table's text or the payload's as well as the rows'
    payload = _chartab_shaped_payload()
    tracemalloc.start()
    try:
        pieces = cli._dump_json(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = json.dumps(payload, indent=2) + "\n"
    assert "".join(pieces) == text
    row = max(len(json.dumps(r, indent=2).replace("\n", "\n    ")) for r in payload["values"])
    assert max(map(len, pieces)) <= row < len(text) // 50
    assert peak < 1.5 * len(text)


# one Dixon table, two little-group tables (Gm3:6, and the diagonal Hmn:4,5),
# and SL2:2T, whose natural character lives at a larger conductor than its
# table
@pytest.mark.parametrize("name", ["G7", "Gm3:6", "Hmn:4,5", "SL2:2T"])
def test_unshared_equal_values_give_the_shared_tables_results(monkeypatch, capsys, name):
    # every pass keyed by value object must not depend on the sharing
    an = pipeline.Analysis(catalog.parse_spec(name), 20000)
    shared = an.table
    copy = shared._replace(values=tuple(tuple(-(-v) for v in row) for row in shared.values))
    assert copy == shared
    cells = [v for row in copy.values for v in row]
    shared_cells = [v for row in shared.values for v in row]
    assert len({id(v) for v in cells}) == len(cells) > len({id(v) for v in shared_cells})

    e = shared.conductor
    p = prime_one_mod(e, 1000)
    assert residues(cells, e, p) == residues(shared_cells, e, p)
    t = lcm(e, *(v.conductor for v in an.chi))
    chi_t = [v.promote(t) for v in an.chi]
    assert chartab._integer_gram(copy, chi_t, t) == chartab._integer_gram(shared, chi_t, t)
    assert mckay.eigenvector_check(copy, an.quiver, an.chi) == an.eigen

    payloads = {}
    for table in (shared, copy):
        monkeypatch.setattr(pipeline, "Analysis", lambda spec, bound: SimpleNamespace(table=table))
        for fmt in ("json", "text"):
            argv = ("chartab", "--group", name, "--format", fmt)
            payloads.setdefault(fmt, []).append(_run(capsys, *argv))
    assert all(a == b for a, b in payloads.values())


def test_unwritable_out_exits_2(tmp_path):
    target = tmp_path / "missing" / "x.json"
    proc = subprocess.run(
        [sys.executable, "-m", "mckay3", "info", "--group", "Hmn:2,2", "--out", str(target)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not target.exists()


@pytest.mark.parametrize("out_flag", [("--out", ""), ("--out=",)], ids=["space", "equals"])
def test_empty_out_path_is_unwritable(capsys, out_flag):
    # "--out ''" is read by `_parse`, "--out=" by argparse; on both the empty
    # path is an --out file that cannot be written, not a request for stdout
    argv = ["info", "--group", "G7", *out_flag]
    assert (cli._parse(argv) is None) == (out_flag == ("--out=",))
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write")


def _failing_gram(table, chi, t):
    """An integer Gram matrix whose every entry, 1, is not divisible by |G|."""
    return [[1] * table.count for _ in range(table.count)]


_real_split = chartab._split_subspace
_real_classes = chartab.conjugacy_classes


def _split_twice(w, mj, p):
    """Every line of the real split, twice over: each character, the
    trivial one too, comes out of the Dixon lift twice."""
    return _real_split(w, mj, p) * 2


def _classes_each_self_inverse(group):
    """The real classes with every class recorded as its own inverse.  The
    class matrices come out permuted, so the split finds the same lines, but
    a non-real character's norm sum sum_k |C_k| chi(k)^2 / d^2 is then 0."""
    classes = _real_classes(group)
    return classes._replace(inverse_class=tuple(range(classes.count)))


def _det_minus_one(spec):
    return [SquareMatrix([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])]


# the orthogonality certificate of dixon_table (SL2:binD:2 is no split
# monomial group, so it takes Dixon), the exact checks of the little-group
# table of a diagonal group (its H = 1 case) and the integer Gram matrix
# that adjacency reads the quiver off; the first two ids are the names of
# the exact checks these certificates took over from, kept so the test ids
# stay stable.  Then each fail-fast exit of the Dixon split and of
# build_group.  SL2:2T (order 24) has no monomial generating set here, so
# it takes Dixon with p = 13, has non-real characters, and 24 = 11
# (mod 13) is no square mod 13.
@pytest.mark.parametrize(
    "module, name, stub, group, message",
    [
        (chartab, "_orthogonal_mod_prime", lambda table: False, "SL2:binD:2",
         "orthogonality relations fail mod p'"),
        (mckay, "_integer_gram", _failing_gram, "Hmn:2,2", "<chi*gamma_0, gamma_0> = 1 / 4"),
        (chartab, "_exact_table_checks", lambda table: False, "Hmn:2,2",
         "the diagonal table fails its exact checks"),
        (chartab, "_split_subspace", lambda w, mj, p: [w], "SL2:2T",
         "class matrices failed to separate characters"),
        (chartab, "_split_subspace", lambda w, mj, p: [[v] for v in w], "SL2:2T",
         "eigenvector vanishes at the identity class"),
        (chartab, "conjugacy_classes", _classes_each_self_inverse, "SL2:2T",
         "degenerate norm sum for a character"),
        # every line the identity-class coordinate: each norm sum is 1 and
        # each degree^2 reads as |G| mod p
        (chartab, "_split_subspace", lambda w, mj, p: [[w[0]] for _ in w], "SL2:2T",
         "character degree is not a square mod p"),
        (chartab, "_split_subspace", _split_twice, "SL2:2T",
         "trivial character missing or duplicated"),
        (catalog, "generators", _det_minus_one, "Hmn:2,2",
         "Hmn:2,2: generator determinant is not 1"),
        (catalog, "expected_order", lambda spec: 5, "Hmn:2,2",
         "Hmn:2,2: closure has 4 elements, expected 5"),
    ],
    ids=[
        "mckay3.chartab-verify_orthogonality-<lambda>",
        "mckay3.mckay-decompose_product-_raise_non_integral",
        "mckay3.chartab-_exact_table_checks-diagonal",
        "dixon-split-never-splits",
        "dixon-split-unit-lines",
        "dixon-classes-each-self-inverse",
        "dixon-split-identity-lines",
        "dixon-split-twice",
        "build_group-determinant",
        "build_group-order",
    ],
)
def test_failed_certificate_exits_1(
    monkeypatch, capsys, module, name, stub, group, message
):
    monkeypatch.setattr(module, name, stub)
    code, out, err = _run(capsys, "verify", "--group", group)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_chartab_and_info_never_build_the_quiver(monkeypatch, capsys):
    monkeypatch.setattr(mckay, "_integer_gram", _failing_gram)
    for command in ("chartab", "info"):
        code, out, _ = _run(capsys, command, "--group", "Hmn:2,2")
        assert code == 0
        assert out
    code, out, err = _run(capsys, "quiver", "--group", "Hmn:2,2")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def _on_each_analysis(monkeypatch, record):
    """Call record(an) on each `pipeline.Analysis` as soon as it is built."""
    real = pipeline.Analysis.__init__

    def init(self, spec, max_order):
        real(self, spec, max_order)
        record(self)

    monkeypatch.setattr(pipeline.Analysis, "__init__", init)


# each command form, and the cached parts of its analysis it never builds:
# a quiver that passes the eigenvector certificate needs neither B nor A
# for the PSD verdict or the polynomial; the parts are listed as tuples, not
# sets, so the test ids do not change with the string hash seed
@pytest.mark.parametrize(
    "argv, unbuilt",
    [
        (("info",), ("quiver", "chi")),
        (("info", "--format", "json"), ("quiver", "chi")),
        (("chartab",), ("quiver", "chi")),
        (("chartab", "--format", "json"), ("quiver", "chi")),
        (("quiver",), ("audit", "eigen", "b", "kernel", "a")),
        (("cartan", "--print", "M"), ("a", "_hessenberg", "b")),
        (("cartan", "--print", "B"), ("_hessenberg", "a")),
        (("cartan", "--print", "A", "--format", "json"), ("_hessenberg",)),
        (("verify",), ("a", "char_poly", "b", "_hessenberg")),
    ],
    ids=" ".join,
)
def test_each_command_builds_one_analysis_and_only_what_it_reads(
    monkeypatch, capsys, argv, unbuilt
):
    built = []
    _on_each_analysis(monkeypatch, built.append)
    code, out, _ = _run(capsys, argv[0], "--group", "G7", *argv[1:])
    assert code == 0
    assert out
    assert [an.spec.name for an in built] == ["G7"]
    assert set(unbuilt).isdisjoint(vars(built[0]))


def test_roster_pass_keeps_no_analysis(monkeypatch, capsys):
    # no memo: verify --all builds one analysis per spec, and nothing keeps
    # one alive after its report
    refs, alive = [], []

    def record(an):
        alive.append(sum(ref() is not None for ref in refs))
        refs.append(weakref.ref(an))

    _on_each_analysis(monkeypatch, record)
    code, out, _ = _run(capsys, "verify", "--all", "--format", "json")
    assert code == 0
    names = [report["groupSpec"] for report in json.loads(out)["reports"]]
    assert names == [spec.name for spec in catalog.all_specs()]
    assert len(refs) == len(names) == 73
    assert alive == [0] * 73
    assert all(ref() is None for ref in refs)


def _tamper_first_row(moves):
    """An adjacency that adds delta to m[0][j] for each (j, delta) in moves."""
    real = mckay.adjacency

    def tampered(table, chi=None):
        q = real(table, chi)
        rows = [list(row) for row in q.matrix]
        for j, delta in moves:
            rows[0][j] += delta
        return mckay.Quiver(q.dims, tuple(tuple(row) for row in rows), q.rep_dim)

    return tampered


@pytest.mark.parametrize(
    "moves",
    [((1, 1),), ((1, -1), (2, 1))],
    ids=["one-extra-arrow", "row-balanced-column-unbalanced"],
)
def test_tampered_quiver_fails_every_derived_check(monkeypatch, capsys, moves):
    monkeypatch.setattr(mckay, "adjacency", _tamper_first_row(moves))
    code, out, _ = _run(capsys, "verify", "--group", "Hmn:2,2", "--format", "json")
    assert code == 1
    checks = json.loads(out)["checks"]
    for name in ("dimensionBalance", "kernelDelta", "eigenvectorProp", "dualTranspose"):
        assert checks[name] == "fail", name


def test_verify_builds_no_polynomial_and_cartan_one_product(monkeypatch, capsys):
    # verify reads the PSD verdict off the eigen certificate; cartan prints
    # charPolyA, the product of A's certified spectrum, built once
    calls = {"char_poly": 0, "spectrum_product": 0}
    for name in calls:
        real = getattr(mckay, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(mckay, name, counted)
    for spec in catalog.all_specs():
        assert pipeline.verify(spec, 20000)["checks"]["psd"] == "pass", spec.name
    assert calls == {"char_poly": 0, "spectrum_product": 0}
    code, out, _ = _run(capsys, "cartan", "--group", "G7", "--format", "json")
    assert code == 0
    assert json.loads(out)["report"]["psd"] is True
    assert calls == {"char_poly": 0, "spectrum_product": 1}


def test_verify_certifies_the_quiver_without_exact_dot(monkeypatch):
    # adjacency reads the quiver off the integer Gram matrix, the one
    # eigenvector pass (for eigenvectorProp) runs modulo one prime and
    # dualTranspose is read off it; the exact decomposition, whose `_gram`
    # is the one certificate code that binds `dot`, gives the same quiver
    # at one exact dot per pair of rows
    calls = []
    real = chartab.dot

    def counted(xs, ys):
        calls.append(1)
        return real(xs, ys)

    monkeypatch.setattr(chartab, "dot", counted)
    report = pipeline.verify(catalog.parse_spec("Hmn:2,2"), 20000)
    assert report["checks"]["eigenvectorProp"] == "pass"
    assert calls == []
    an = pipeline.Analysis(catalog.parse_spec("Hmn:2,2"), 20000)
    assert [list(row) for row in an.quiver.matrix] == chartab.decompose_product(an.table, an.chi)
    assert len(calls) == report["classCount"] ** 2


_SEPS = st.sampled_from([":", ",", "", "::", ";", " ", "=", ":,"])
_STRAY = st.text(alphabet="aGHLmnSxz", min_size=1, max_size=3)


@st.composite
def _specs(draw):
    """A catalog spec, then mangled: separators swapped or emptied, stray
    letters inserted, a part dropped.  Integers come from 0..6 only and are
    never glued together, so no spec can ask for a large conductor."""
    kind = draw(st.sampled_from(["Hmn", "Gm3", "Gm6", "SL2", *catalog._EXCEPTIONAL]))
    ints = st.integers(0, 6).map(str)
    parts = [("", kind)]  # (separator before the part, part)
    if kind == "Hmn":
        parts += [(":", draw(ints)), (",", draw(ints))]
    elif kind in ("Gm3", "Gm6"):
        parts += [(":", draw(ints))]
    elif kind == "SL2":
        subtype = draw(st.sampled_from(catalog._SL2_SUBTYPES))
        parts += [(":", subtype)]
        if subtype in ("cyclic", "binD"):
            parts += [(":", draw(ints))]
        if draw(st.booleans()):
            parts += [(":", "alpha="), ("", draw(ints))]
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(["separator", "stray", "drop"]))
        pos = draw(st.integers(0, len(parts) - 1))
        sep, part = parts[pos]
        if edit == "separator":
            parts[pos] = (draw(_SEPS), part)
        elif edit == "stray":
            parts.insert(pos, (draw(_SEPS), draw(_STRAY)))
        elif len(parts) > 1:
            del parts[pos]
    text = ""
    for sep, part in parts:
        if not sep and text[-1:].isdigit() and part[:1].isdigit():
            sep = ":"  # never glue two integers into a larger one
        text += sep + part
    return text


@given(_specs())
@settings(max_examples=80, deadline=None)
def test_spec_fuzz_exits_cleanly(spec):
    assert not re.search("[0-9]{2}", re.sub("G1[0-2]", "G", spec))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(["info", "--group", spec, "--max-order", "400"])
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mckay3", "info", "--group", "Hmn:2,2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "order      4" in proc.stdout
