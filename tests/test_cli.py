"""Command line behavior: payload shapes, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from mckay3 import chartab, mckay, pipeline
from mckay3.chartab import NonIntegralMultiplicity
from mckay3.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_mentions_every_kind(capsys):
    code, out, _ = _run(capsys, "list")
    assert code == 0
    for token in ("Hmn:<m>,<n>", "Gm3:<m>", "Gm6:<m>", "SL2:cyclic:<k>", "G12"):
        assert token in out


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


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_order_bound_exits_3(capsys):
    code, _, err = _run(capsys, "info", "--group", "G12", "--max-order", "100")
    assert code == 3
    assert "100" in err


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


def _raise_non_integral(*args):
    raise NonIntegralMultiplicity("<chi*gamma_0, gamma_0> = 1/2")


@pytest.mark.parametrize(
    "module, name, stub",
    [
        (chartab, "verify_orthogonality", lambda table: False),
        (mckay, "decompose_product", _raise_non_integral),
    ],
)
def test_failed_certificate_exits_1(monkeypatch, capsys, module, name, stub):
    monkeypatch.setattr(module, name, stub)
    pipeline.analyze.cache_clear()  # the group must be computed afresh
    code, out, err = _run(capsys, "verify", "--group", "Hmn:2,2")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_chartab_and_info_never_build_the_quiver(monkeypatch, capsys):
    monkeypatch.setattr(mckay, "decompose_product", _raise_non_integral)
    pipeline.analyze.cache_clear()  # the group must be computed afresh
    for command in ("chartab", "info"):
        code, out, _ = _run(capsys, command, "--group", "Hmn:2,2")
        assert code == 0
        assert out
    code, out, err = _run(capsys, "quiver", "--group", "Hmn:2,2")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mckay3", "info", "--group", "Hmn:2,2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "order      4" in proc.stdout
