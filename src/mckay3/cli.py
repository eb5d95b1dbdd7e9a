"""Command line front end: build, compute, verify, export.

Subcommands:

* list    - spec grammar and the catalog type numbers
* info    - order, exponent, conductor, class count, dimension multiset
* chartab - character table as text or JSON
* quiver  - the quiver as DOT or JSON
* cartan  - M, B or A plus a verification summary
* verify  - run every structural check; exit 1 on any failure

Exit codes: 0 success, 1 a verification check failed, 2 malformed spec,
usage or an unwritable --out file, 3 the closure hit its order bound.  All
payloads are byte deterministic; elapsed-time fields are the only exception
and are clearly named (elapsedMs).

The analysis itself lives in `pipeline`; this module only parses
arguments, formats payloads and maps errors to exit codes.  A command returns
its exit code and its payload as a list of pieces, strings whose concatenation
is the payload; JSON pieces come from `_dump_json`, one per member of the
payload and of its top-level containers (a table row, a verify report), so no
text of a whole table is built.  `main` writes the pieces only once the
command has returned, so a command that fails writes nothing, neither to
stdout nor to an --out file.  One option table,
`_COMMANDS`, declares every command and flag: `_parse` reads a plain command
line (exact long flags, each once, each value the next token) off it
directly, and anything else goes to the argparse parser `_build_parser` makes
from the same table, so argparse alone writes help and usage errors.
"""

from __future__ import annotations

import json
import sys
import types
from collections import defaultdict
from math import lcm

from . import catalog, mckay, pipeline
from .catalog import CatalogError, SpecError
from .chartab import NonIntegralMultiplicity, OrthogonalityFailure
from .matgroup import OrderBoundExceeded


# ---------------------------------------------------------------------------
# encoders


def _enc_cyc(v) -> dict:
    """{"N": conductor, "coeffs": [[k, "p/q"], ...]} with zero terms dropped."""
    return {
        "N": v.conductor,
        "coeffs": [[k, str(c)] for k, c in v.terms()],
    }


def _short(v) -> str:
    q = v.try_rational()
    if q is not None:
        return str(q)
    text = str(v)
    return text.rsplit(" (z = zeta_", 1)[0]


def _dump_json(payload) -> list[str]:
    """The pieces of `json.dumps(payload, indent=2) + "\n"`, byte for byte:
    the payload and each of its top-level containers are written one member
    at a time, each member rendered whole, so no text of a whole table or
    of the whole payload is ever built.

    Each dict is rendered once per depth however often it recurs.  memos[d]
    maps id(o) to the text of a dict o at depth d, and a container looks its
    items up there before it recurses into them.  Only dicts are kept, since
    only they recur (the chartab value cells); a list's text would be held
    again inside its parent's.  Keyed on id(): sound only because `payload`
    keeps every object in it alive until this call returns, so no id can
    pass to another object meanwhile.  A text is never empty, so a miss is
    the only falsy lookup.
    """
    enc = json.encoder.encode_basestring_ascii
    memos: defaultdict[int, dict[int, str]] = defaultdict(dict)

    def key(k) -> str:
        # json's own text for a non-str key ("1", "true", "null") and its TypeError
        return enc(k) if isinstance(k, str) else json.dumps({k: 0})[1:-4]

    def render(o, depth: int) -> str:
        if isinstance(o, str):
            text = enc(o)
        elif type(o) is int:
            text = int.__repr__(o)  # json's text for an int; a bool keeps json's path
        elif not isinstance(o, (dict, list, tuple)):
            text = json.dumps(o)
        else:
            down = depth + 1
            sub = memos[down]
            if isinstance(o, dict):
                ends = "{}"
                items = [f"{key(k)}: {sub.get(id(v)) or render(v, down)}" for k, v in o.items()]
            else:
                ends, items = "[]", [sub.get(id(v)) or render(v, down) for v in o]
            pad = "\n" + "  " * down
            body = pad + ("," + pad).join(items) + "\n" + "  " * depth if items else ""
            text = ends[0] + body + ends[1]
            if ends == "{}":
                memos[depth][id(o)] = text
        return text

    pieces: list[str] = []

    def emit(o, depth: int) -> None:
        # o's text onto pieces, member by member down to the payload's
        # top-level containers; anything deeper, or empty, in one piece
        if depth > 1 or not isinstance(o, (dict, list, tuple)) or not o:
            pieces.append(memos[depth].get(id(o)) or render(o, depth))
            return
        pad = "\n" + "  " * (depth + 1)
        if isinstance(o, dict):
            heads, values, ends = [f"{key(k)}: " for k in o], o.values(), "{}"
        else:
            heads, values, ends = [""] * len(o), o, "[]"
        sep, comma = ends[0] + pad, "," + pad
        for head, v in zip(heads, values):
            pieces.append(sep + head)
            emit(v, depth + 1)
            sep = comma
        pieces.append("\n" + "  " * depth + ends[1])

    emit(payload, 0)
    pieces.append("\n")
    return pieces


# ---------------------------------------------------------------------------
# subcommands


_KINDS = (
    ("Hmn:<m>,<n>", 1, "diagonal abelian group of order m*n"),
    ("Gm3:<m>", 2, "H(m,m) extended by the 3-cycle coordinate rotation, order 3m^2"),
    ("Gm6:<m>", 3, "H(m,m) extended by all coordinate permutations, order 6m^2"),
    ("SL2:cyclic:<k>[:alpha=<j>]", 4, "embedded cyclic group of order k"),
    ("SL2:binD:<k>[:alpha=<j>]", 4, "embedded binary dihedral group of order 4k"),
    ("SL2:2T[:alpha=<j>]", 4, "embedded binary tetrahedral group, order 24"),
    ("SL2:2O[:alpha=<j>]", 4, "embedded binary octahedral group, order 48"),
    ("SL2:2I[:alpha=<j>]", 4, "embedded binary icosahedral group, order 120"),
    ("G5", 5, "order 108, 14 irreducibles"),
    ("G6", 6, "order 216, 16 irreducibles"),
    ("G7", 7, "order 60, simple, 5 irreducibles"),
    ("G8", 8, "order 168, simple, 6 irreducibles"),
    ("G9", 9, "order 180, the order-60 group times its center"),
    ("G10", 10, "order 504, the order-168 group times its center"),
    ("G11", 11, "order 648, extends G5"),
    ("G12", 12, "order 1080, extends G7"),
)


def _cmd_list(args) -> tuple[int, list[str]]:
    if args.format == "json":
        payload = [
            {"grammar": g, "type": t, "description": d} for g, t, d in _KINDS
        ]
        return 0, _dump_json(payload)
    width = max(len(g) for g, _, _ in _KINDS)
    lines = [f"{'spec'.ljust(width)}  type  description"]
    for g, t, d in _KINDS:
        lines.append(f"{g.ljust(width)}  {str(t).ljust(4)}  {d}")
    lines.append("")
    lines.append("the alpha=<j> suffix multiplies the embedding by a central")
    lines.append("j-th root of unity block chosen to keep determinant 1")
    return 0, ["\n".join(lines) + "\n"]


def _cmd_info(args) -> tuple[int, list[str]]:
    spec = catalog.parse_spec(args.group)
    an = pipeline.Analysis(spec, args.max_order)
    dims = sorted(an.table.dims)
    profile = catalog.expected_profile(spec)
    degenerate = profile is not None and profile.degenerate
    notes = list(profile.notes) if profile is not None else []
    if args.format == "json":
        payload = {
            "group": spec.name,
            "order": an.group.order,
            "exponent": lcm(*an.table.class_orders),
            "conductor": an.table.conductor,
            "classCount": an.table.count,
            "dimMultiset": dims,
            "degenerate": degenerate,
            "notes": notes,
        }
        return 0, _dump_json(payload)
    lines = [
        f"group      {spec.name}",
        f"order      {an.group.order}",
        f"exponent   {lcm(*an.table.class_orders)}",
        f"conductor  {an.table.conductor}",
        f"classes    {an.table.count}",
        f"dims       {','.join(map(str, dims))}",
    ]
    if degenerate:
        lines.append(f"degenerate yes ({'; '.join(notes)})")
    return 0, ["\n".join(lines) + "\n"]


def _cmd_chartab(args) -> tuple[int, list[str]]:
    """The table as JSON or text.  Each distinct value object is encoded or
    printed once, collected by id(), so no value is hashed; t.values holds
    every value until this call returns, so no id is reused.  A table whose
    equal values are distinct objects renders each of them, to equal text."""
    spec = catalog.parse_spec(args.group)
    an = pipeline.Analysis(spec, args.max_order)
    t = an.table
    distinct = {}
    for row in t.values:
        distinct.update(zip(map(id, row), row))
    if args.format == "json":
        encoded = {k: _enc_cyc(v) for k, v in distinct.items()}
        payload = {
            "group": {"spec": spec.name, "order": t.order, "conductor": t.conductor},
            "classes": [
                {
                    "size": t.class_sizes[k],
                    "elementOrder": t.class_orders[k],
                    "centralizer": t.order // t.class_sizes[k],
                }
                for k in range(t.count)
            ],
            "irreps": [{"dim": d} for d in t.dims],
            "values": [list(map(encoded.__getitem__, map(id, row))) for row in t.values],
        }
        return 0, _dump_json(payload)
    short = {k: _short(v) for k, v in distinct.items()}
    width = max(4, max(map(len, short.values())))
    cells = {k: s.rjust(width) for k, s in short.items()}
    head = [
        f"# {spec.name}: order {t.order}, {t.count} classes, "
        f"entries in Q(zeta_{t.conductor})",
        "# class size   " + " ".join(str(s).rjust(width) for s in t.class_sizes),
        "# elem order   " + " ".join(str(o).rjust(width) for o in t.class_orders),
    ]
    body = (
        f"chi{i} (dim {d}): ".ljust(15) + " ".join(map(cells.__getitem__, map(id, row)))
        for i, (d, row) in enumerate(zip(t.dims, t.values))
    )
    return 0, [line + "\n" for line in (*head, *body)]


def _cmd_quiver(args) -> tuple[int, list[str]]:
    spec = catalog.parse_spec(args.group)
    an = pipeline.Analysis(spec, args.max_order)
    if args.format == "json":
        payload = {"group": spec.name, **mckay.export_json(an.quiver)}
        return 0, _dump_json(payload)
    return 0, [mckay.export_dot(an.quiver)]


def _published_match(audit) -> dict | None:
    """The `publishedMatch` payload: how the recorded matrix compares."""
    if audit is None:
        return None
    against = {
        "matched-as-A": "A",
        "matched-as-B": "B",
        "matched-with-erratum": "corrected",
    }.get(audit.status)
    return {
        "matchedAgainst": against,
        "permutation": list(audit.witness) if audit.witness else None,
        "asDocumented": audit.as_expected,
        "notes": list(audit.notes),
    }


def _cmd_cartan(args) -> tuple[int, list[str]]:
    spec = catalog.parse_spec(args.group)
    an = pipeline.Analysis(spec, args.max_order)
    # only the matrix printed is built: B and A are cached on first read
    chosen = {"M": lambda: an.quiver.matrix, "B": lambda: an.b, "A": lambda: an.a}[args.print]()
    eig = an.eigen
    report = {
        "charPolyA": list(an.char_poly),
        "psd": an.psd,
        "deltaInKernelOfA": an.kernel[0],
        "deltaInKernelOfB": an.kernel[1],
        "eigenChecks": list(eig),
        "dualTransposeOk": an.dual_transpose,
        "publishedMatch": _published_match(an.audit),
    }
    if args.format == "json":
        payload = {
            "group": spec.name,
            "requested": args.print,
            "matrix": chosen,
            "report": report,
        }
        return 0, _dump_json(payload)
    if args.format == "csv":
        return 0, ["\n".join(",".join(map(str, row)) for row in chosen) + "\n"]
    width = max(len(str(v)) for row in chosen for v in row)
    lines = [" ".join(str(v).rjust(width) for v in row) for row in chosen]
    lines.append("")
    lines.append(f"charPoly(A) coefficients: {' '.join(map(str, report['charPolyA']))}")
    lines.append(f"psd: {report['psd']}")
    lines.append(f"A*delta = 0: {report['deltaInKernelOfA']}")
    lines.append(f"B*delta = 0: {report['deltaInKernelOfB']}")
    lines.append(f"eigenvector property: {sum(eig)}/{len(eig)} classes")
    lines.append(f"dual transpose: {report['dualTransposeOk']}")
    pm = report["publishedMatch"]
    if pm is None:
        lines.append("published match: nothing recorded")
    elif pm["matchedAgainst"]:
        lines.append(f"published match: {pm['matchedAgainst']}")
    else:
        lines.append("published match: documented mismatch")
    for note in pm["notes"] if pm else ():
        lines.append(f"  note: {note}")
    return 0, ["\n".join(lines) + "\n"]


# ---------------------------------------------------------------------------
# verify


def _format_report_text(report: dict) -> str:
    dims = ",".join(map(str, report["dimMultiset"]))
    lines = [
        f"{report['groupSpec']}: order {report['order']}, "
        f"{report['classCount']} classes, dims {dims}"
    ]
    for name, verdict in report["checks"].items():
        lines.append(f"  {name.ljust(22)}{verdict}")
    for d in report["discrepancies"]:
        lines.append(f"  note ({d['kind']}): {d['detail']}")
    lines.append(f"  elapsed {report['elapsedMs']} ms")
    return "\n".join(lines) + "\n"


def _cmd_verify(args) -> tuple[int, list[str]]:
    if args.all:
        specs = list(catalog.all_specs(max_m=args.max_m))
    else:
        specs = [catalog.parse_spec(args.group)]
    reports = [pipeline.verify(spec, args.max_order) for spec in specs]
    failures = sum(
        1 for rep in reports if any(v == "fail" for v in rep["checks"].values())
    )
    if args.format == "json":
        if args.all:
            payload = {"reports": reports, "failures": failures}
        else:
            payload = reports[0]
        return (1 if failures else 0), _dump_json(payload)
    chunks = [_format_report_text(rep) for rep in reports]
    if args.all:
        chunks.append(f"{len(reports)} groups verified, {failures} with failures\n")
    return (1 if failures else 0), chunks


# ---------------------------------------------------------------------------
# argument wiring

# The one option table: command -> (function, help, options), each option a
# long flag and its add_argument keywords; "one_of" marks verify's required
# choice of exactly one of --group and --all.
_GROUP = ("--group", {"required": True})


def _common(*formats):
    """--format (its default the first choice), --out and --max-order."""
    return (
        ("--format", {"choices": formats, "default": formats[0]}),
        ("--out", {"help": "write the payload to this file"}),
        ("--max-order", {"type": int, "default": 20000,
                         "help": "abort closure beyond this many elements (default 20000)"}),
    )


_COMMANDS = {
    "list": (_cmd_list, "spec grammar and catalog types",
             (("--format", {"choices": ("text", "json"), "default": "text"}), ("--out", {}))),
    "info": (_cmd_info, "order, exponent, classes, dims", (_GROUP, *_common("text", "json"))),
    "chartab": (_cmd_chartab, "character table", (_GROUP, *_common("text", "json"))),
    "quiver": (_cmd_quiver, "the quiver as DOT or JSON", (_GROUP, *_common("dot", "json"))),
    "cartan": (_cmd_cartan, "adjacency / pre-Cartan / Cartan matrix",
               (_GROUP, ("--print", {"choices": ("M", "B", "A"), "default": "A"}),
                *_common("text", "json", "csv"))),
    "verify": (_cmd_verify, "run all structural checks",
               (("--group", {"one_of": True}),
                ("--all", {"one_of": True, "action": "store_true", "default": False}),
                ("--max-m", {"type": int, "default": 6,
                             "help": "parameter bound for the parametric families under --all"}),
                *_common("text", "json"))),
}


def _build_parser():
    """The argparse parser for `_COMMANDS`: the author of help and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="mckay",
        description="character tables, quivers and Cartan matrices of the "
        "catalog of finite SL3(C) subgroups",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        one_of = None
        for flag, kw in options:
            kw = dict(kw)
            if kw.pop("one_of", False):
                one_of = one_of or p.add_mutually_exclusive_group(required=True)
                one_of.add_argument(flag, **kw)
            else:
                p.add_argument(flag, **kw)
        p.set_defaults(func=func)
    return parser


def _parse(argv):
    """argparse's namespace for argv, read off `_COMMANDS`; None (argparse
    must parse) unless argv is a command and exact long flags of it, each once,
    each value the next token, not starting with "-" and valid, with every
    required flag given."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, options = _COMMANDS[argv[0]]
    table, given, tokens = dict(options), {}, iter(argv[1:])
    for flag in tokens:
        kw = table.get(flag)
        if kw is None or flag in given:
            return None
        if kw.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        try:
            value = given[flag] = kw.get("type", str)(value)
        except ValueError:
            return None
        if value not in kw.get("choices", (value,)):
            return None
    one_of = [flag for flag, kw in options if kw.get("one_of")]
    if one_of and sum(flag in given for flag in one_of) != 1:
        return None
    if any(kw.get("required") and flag not in given for flag, kw in options):
        return None
    return types.SimpleNamespace(command=argv[0], func=func, **{
        flag[2:].replace("-", "_"): given.get(flag, kw.get("default")) for flag, kw in options
    })


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv) or _build_parser().parse_args(argv)
    try:
        code, pieces = args.func(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OrderBoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CatalogError, OrthogonalityFailure, NonIntegralMultiplicity) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = getattr(args, "out", None)
    if out is not None:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            print(f"error: cannot write {out}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.writelines(pieces)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
