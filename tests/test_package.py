"""The package namespace: what `mckay3` exports, what starting it imports,
and how its nine record types behave as named tuples."""

import subprocess
import sys

import pytest

import mckay3
from mckay3 import pipeline
from mckay3.catalog import expected_profile, parse_spec
from mckay3.mckay import psd_check
from mckay3.published import PRINTED_CARTAN, TABLE_G7


def test_every_export_is_bound():
    # a name left in __all__ after its definition is deleted breaks
    # `from mckay3 import *` and nothing else
    assert [name for name in mckay3.__all__ if not hasattr(mckay3, name)] == []


@pytest.mark.parametrize("command", ["verify --group G7", "chartab --group G12"])
def test_startup_imports_no_code_introspection_modules(command):
    # in a subprocess, as pytest itself imports dataclasses and inspect;
    # -X importtime lists every module the command imports after start-up
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "mckay3", *command.split(), "--format", "json"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "mckay3.cli" in imported
    assert imported & {"dataclasses", "inspect", "ast", "dis", "tokenize"} == set()


def _records():
    """One instance of each record type, all from G7."""
    an = pipeline.Analysis(parse_spec("G7"), 20000)
    return [
        an.spec, expected_profile(an.spec), an.classes, an.table, an.quiver,
        psd_check(an.a), PRINTED_CARTAN["G7"], an.audit, TABLE_G7,
    ]


@pytest.mark.parametrize("rec", _records(), ids=lambda rec: type(rec).__name__)
def test_records_refuse_field_assignment(rec):
    for field in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, None)


@pytest.mark.parametrize("rec", _records(), ids=lambda rec: type(rec).__name__)
def test_replace_keeps_every_other_field(rec):
    marker = object()
    for field in rec._fields:
        copy = rec._replace(**{field: marker})
        assert type(copy) is type(rec)
        for other in rec._fields:
            want = marker if other == field else getattr(rec, other)
            assert getattr(copy, other) is want


def test_count_is_the_number_of_classes_or_vertices():
    # the properties shadow tuple.count, which would take an argument
    an = pipeline.Analysis(parse_spec("G7"), 20000)
    assert an.classes.count == len(an.classes.reps) == 5
    assert an.table.count == len(an.table.dims) == 5
    assert an.quiver.count == len(an.quiver.matrix) == 5
