"""One group call of the mckay CLI, in a fresh interpreter.

run.py starts this script once per group call, so the CLI's per-process
memo never serves a repeat, no call's time depends on what ran before it in
the same process, and every call pays the real import cost, as a user's
`mckay` invocation does.  It prints one JSON object: the set-up time, the
call's time and verdict and the peak resident memory; with --trace 1 also
the call's spans, self times per layer and counts.

    python3 perfbench/worker.py --command verify|chartab --group SPEC
        --launched T [--trace 0|1]

--launched is the time.monotonic() reading taken just before the process
was started; set-up time is measured from it.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _arg(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def main(argv) -> int:
    command = _arg(argv, "--command")
    name = _arg(argv, "--group")
    launched = float(_arg(argv, "--launched"))
    traced = _arg(argv, "--trace", "0") == "1"

    sys.path.insert(0, str(SRC))
    from mckay3 import catalog, cli

    spec = catalog.parse_spec(name)
    setup_s = time.monotonic() - launched

    # imported after the set-up clock stops: they are the benchmark's, not mckay3's
    import contextlib
    import io
    import json
    import resource

    import gate
    from tracer import ROOT_SPAN, Tracer

    expect = gate.expectations(catalog, spec)
    pinned = gate.pinned_digests()[command].get(spec.name)
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()

    argv_cli = [command, "--group", spec.name, "--format", "json"]
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer:
                code = tracer.call(ROOT_SPAN, cli.main, argv_cli)
            else:
                code = cli.main(argv_cli)
    except Exception as exc:  # a crash is a failed call, not a failed run
        code, crash = None, f"exception {exc!r}"
    seconds = time.perf_counter() - t0
    if code is None:
        why = crash
    else:
        why = gate.check(command, code, out.getvalue(), expect, pinned)
    if why and err.getvalue():
        why += "; stderr: " + err.getvalue().strip()[-300:]

    result = {
        "spec": spec.name,
        "setup_s": setup_s,
        "seconds": seconds,
        "failure": why,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        self_s, root_ns, subtree_ns = tracer.self_times()
        result["self_s"] = self_s
        result["counts"] = tracer.all_counts()
        # the self times of the call's spans must add up to its traced time
        result["balanced"] = root_ns == subtree_ns
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
