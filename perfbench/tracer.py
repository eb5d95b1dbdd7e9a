"""Spans and counters installed on mckay3 from outside the package.

The tracer replaces public functions of the mckay3 modules with timing
wrappers at run time; the package source is not touched.  A function bound
under several names (``decompose_product`` lives in ``chartab``, ``mckay``
and the package namespace) is replaced in every namespace that binds it,
because a call through an unwrapped binding would escape its span.

Spans are kept in memory as [name, start_ns, end_ns, parent_index]; the
caller writes them out at the end.  A span's self time is its duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# span name -> (module, attribute) pairs whose calls it times
SPANS = {
    "catalog.build": (("catalog", "build_group"),),
    "matgroup.closure": (("matgroup", "closure"),),
    "chartab.classes": (("chartab", "conjugacy_classes"),),
    "chartab.class_constants": (("chartab", "class_constants"),),
    "chartab.dixon": (("chartab", "dixon_table"),),
    "chartab.orthogonality": (("chartab", "verify_orthogonality"),),
    "chartab.decompose": (("chartab", "decompose_product"),),
    "mckay.charpoly": (("mckay", "char_poly"),),
    "mckay.eigen": (("mckay", "eigenvector_check"),),
    "mckay.quiver_iso": (("mckay", "quiver_iso"),),
    "catalog.oracle": (("catalog", "expected_adjacency"),),
    "published.audit": (
        ("published", "audit_cartan"),
        ("published", "match_printed_table"),
    ),
}

# the fingerprint and order scan, timed as a child of chartab.classes
ORDERS_SPAN = "matgroup.orders"
ROOT_SPAN = "cli"

# every span name whose self time is reported, in report order
LAYERS = (
    "matgroup.closure",
    ORDERS_SPAN,
    "chartab.classes",
    "chartab.class_constants",
    "chartab.dixon",
    "chartab.orthogonality",
    "chartab.decompose",
    "mckay.charpoly",
    "mckay.eigen",
    "mckay.quiver_iso",
    "catalog.build",
    "catalog.oracle",
    "published.audit",
    ROOT_SPAN,
)

# call counts that are the number of spans of one name
SPAN_COUNTS = {
    "chartab.orthogonality_calls": "chartab.orthogonality",
    "chartab.decompose_calls": "chartab.decompose",
}
COUNTS = (
    "exactnum.mul_calls",
    "exactnum.add_calls",
    "exactnum.dot_calls",
    "matgroup.closure_products",
    "chartab.class_constant_products",
    *SPAN_COUNTS,
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    # -- recording -------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        idx = len(self.spans)
        rec = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def _timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in every mckay3 namespace binding it."""
        from mckay3 import catalog, chartab, exactnum, matgroup, mckay, published

        def closure(generators, *args, **kwargs):
            gens = list(generators)
            group = orig["closure"](gens, *args, **kwargs)
            self.counts["matgroup.closure_products"] += group.order * len(gens)
            return group

        def conjugacy_classes(group, *args, **kwargs):
            # the orders are cached on the group, so conjugacy_classes reuses them
            self.call(ORDERS_SPAN, group.exponent)
            return orig["conjugacy_classes"](group, *args, **kwargs)

        def class_constants(group, classes, *args, **kwargs):
            self.counts["chartab.class_constant_products"] += group.order * classes.count
            return orig["class_constants"](group, classes, *args, **kwargs)

        hooks = {
            "closure": closure,
            "conjugacy_classes": conjugacy_classes,
            "class_constants": class_constants,
        }
        modules = {
            "catalog": catalog,
            "chartab": chartab,
            "matgroup": matgroup,
            "mckay": mckay,
            "published": published,
        }
        orig = {}
        replace = {}
        for name, targets in SPANS.items():
            for mod, attr in targets:
                fn = getattr(modules[mod], attr)
                orig[attr] = fn
                replace[fn] = self._timed(name, hooks.get(attr, fn))
        replace[exactnum.dot] = self._counted("exactnum.dot_calls", exactnum.dot)
        _rebind(replace)

        cyc = exactnum.Cyclotomic
        mul = self._counted("exactnum.mul_calls", cyc.__mul__)
        add = self._counted("exactnum.add_calls", cyc.__add__)
        cyc.__mul__ = cyc.__rmul__ = mul
        cyc.__add__ = cyc.__radd__ = add

    # -- results -----------------------------------------------------------

    def all_counts(self) -> dict[str, int]:
        """Every count in COUNTS."""
        names = Counter(rec[0] for rec in self.spans)
        return {
            k: names[SPAN_COUNTS[k]] if k in SPAN_COUNTS else self.counts[k] for k in COUNTS
        }

    def self_times(self) -> tuple[dict[str, float], int, int]:
        """Self seconds summed per span name, the root span's duration in
        ns, and the sum in ns of the self times of every span under it."""
        children: dict[int, list[int]] = {}
        for idx, rec in enumerate(self.spans):
            children.setdefault(rec[3], []).append(idx)
        totals = {name: 0 for name in LAYERS}
        for idx, (name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - _covered(
                [self.spans[c][1:3] for c in children.get(idx, ())]
            )
        (root,) = children[-1]
        root_ns = self.spans[root][2] - self.spans[root][1]
        return {name: ns / 1e9 for name, ns in totals.items()}, root_ns, sum(totals.values())


def _covered(intervals) -> int:
    """Length of the union of [start, end) intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _rebind(replace: dict) -> None:
    """Point every mckay3 module attribute bound to a key at its value."""
    by_id = {id(old): new for old, new in replace.items()}
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "mckay3" or modname.startswith("mckay3.")):
            continue
        for attr, value in list(vars(mod).items()):
            new = by_id.get(id(value))
            if new is not None:
                setattr(mod, attr, new)
