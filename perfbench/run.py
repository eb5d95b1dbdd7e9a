"""The mckay3 benchmark: runs the `mckay` CLI over a fixed set of groups.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

A pass calls mckay3.cli.main once for each group of the workload, each call
in a fresh interpreter (worker.py), times the call from outside and checks
its payload (gate.py).  The seed only permutes the order of the groups.
Load comes from one process at a time with no extra threads: a closed loop
with one client.

--trace 0 runs passes until --seconds is spent (at least one) and reports
the end-to-end metrics.  --trace 1 runs one untraced pass and two traced
passes and reports the per-layer metrics; the two traced passes must give
identical counts.  --workload all runs every workload both ways.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics; the script exits 1 when correct is false and 2 when the
program cannot be run at all.

Spans of the first traced pass are written to
.bench_build/perfbench/<workload>.spans.jsonl.
"""

from __future__ import annotations

import argparse
import compileall
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import COUNTS, LAYERS, ROOT_SPAN
from worker import SRC

# workload name -> (subcommand, fixed specs, or None for the catalog roster)
WORKLOADS = {
    "roster-verify": ("verify", None),
    "wide-chartab": ("chartab", ("SL2:cyclic:60", "Hmn:8,8", "Gm3:12")),
    "exceptional-chartab": ("chartab", tuple(f"G{i}" for i in range(5, 13))),
}
ROSTER_MAX_M = 6

ROOT = SRC.parent
WORKER = Path(__file__).with_name("worker.py")
OUT_DIR = ROOT / ".bench_build" / "perfbench"
DEADLINE_S = 170.0  # every run must end within 180 s


class BenchError(RuntimeError):
    pass


def workload_specs(workload: str) -> list[str]:
    fixed = WORKLOADS[workload][1]
    if fixed is not None:
        return list(fixed)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from mckay3 import catalog

    return [s.name for s in catalog.all_specs(max_m=ROSTER_MAX_M)]


def _call(command: str, spec: str, deadline: float, trace: bool) -> dict:
    """One group call in its own worker process; its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a group call")
    cmd = [sys.executable, str(WORKER), "--command", command, "--group", spec]
    cmd += ["--trace", str(int(trace)), "--launched", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{spec} ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker for {spec} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _pass(workload: str, order: list[str], deadline: float, trace: bool = False) -> dict:
    calls = [_call(WORKLOADS[workload][0], spec, deadline, trace) for spec in order]
    return {
        "calls": calls,
        "wall_s": sum(c["seconds"] for c in calls),
        "peak_rss_mb": max(c["peak_rss_mb"] for c in calls),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _result(passes: list[dict], metrics: dict, info: dict, problems=()) -> dict:
    """Tally the group calls of the passes; every failed call is a problem."""
    calls = [c for p in passes for c in p["calls"]]
    bad = [f"{c['spec']}: {c['failure']}" for c in calls if c["failure"]]
    info["ops_failed"] = f"{len(bad)}/{len(calls)}"
    return {
        "attempted": len(calls),
        "failed": len(bad),
        "problems": bad + list(problems),
        "metrics": metrics,
        "info": info,
    }


def end_to_end(workload: str, order: list[str], seconds: float, deadline: float) -> dict:
    passes = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        passes.append(_pass(workload, order, deadline))
        now = time.monotonic()
        if now - start + (now - began) > seconds:
            break
    calls = [c for p in passes for c in p["calls"]]
    times = [c["seconds"] for c in calls]
    metrics = {
        "wall_s": _metric(statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": _metric(statistics.median(c["setup_s"] for c in calls), "s"),
        "peak_rss_mb": _metric(statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    # printed only: a percentile rests on single calls, and across runs it
    # spreads up to the largest bound BENCHMARK.json may set
    info = {
        "group_s_p50": f"{statistics.median(times):.6g} s",
        # 85th percentile: cut point 17 of 20
        "group_s_p85": f"{statistics.quantiles(times, n=20, method='inclusive')[16]:.6g} s",
        "group_calls": len(times),
        "passes": len(passes),
    }
    return _result(passes, metrics, info)


def per_layer(workload: str, order: list[str], deadline: float) -> dict:
    plain = _pass(workload, order, deadline)
    traced = [_pass(workload, order, deadline, trace=True) for _ in range(2)]
    counts = [
        {k: sum(c["counts"][k] for c in p["calls"]) for k in COUNTS} for p in traced
    ]
    problems = []
    if counts[0] != counts[1]:
        problems.append(f"counts differ between two traced passes: {counts[0]} vs {counts[1]}")
    problems += [
        f"{c['spec']}: self times do not add up to the traced call time"
        for p in traced
        for c in p["calls"]
        if not c["balanced"]
    ]
    metrics = {}
    for name in LAYERS:
        key = "cli.self_s" if name == ROOT_SPAN else f"{name}_s"
        self_s = [sum(c["self_s"][name] for c in p["calls"]) for p in traced]
        metrics[key] = _metric(statistics.median(self_s), "s")
    for name in COUNTS:
        metrics[name] = _metric(counts[0][name], "count")
    ratio = statistics.median(p["wall_s"] for p in traced) / plain["wall_s"]
    metrics["trace.overhead_ratio"] = _metric(ratio, "ratio")

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    spans = OUT_DIR / f"{workload}.spans.jsonl"
    with open(spans, "w", encoding="utf-8") as fh:
        for c in traced[0]["calls"]:
            for name, start, end, parent in c["spans"]:
                rec = {"group": c["spec"], "name": name, "start_ns": start, "end_ns": end, "parent": parent}
                fh.write(json.dumps(rec) + "\n")
    info = {"untraced_wall_s": plain["wall_s"], "spans": str(spans.relative_to(ROOT))}
    return _result([plain, *traced], metrics, info, problems)


def _report(workload: str, mode: str, res: dict) -> None:
    print(f"{workload} ({mode}): {res['attempted']} group calls, {res['failed']} failed")
    for name, m in res["metrics"].items():
        value = m["value"] if m["unit"] == "count" else f"{m['value']:.6g}"
        print(f"  {name:<36} {value} {m['unit']}")
    for name, value in res["info"].items():
        print(f"  {name:<36} {value}")
    for line in res["problems"]:
        print(f"  FAILED {line}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mckay3" / "__init__.py").is_file():
        print(f"error: no mckay3 sources under {SRC}", file=sys.stderr)
        return 2
    # the build: byte-compile once so no measured set-up pays for compiling
    compileall.compile_dir(str(SRC), quiet=2)

    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, trace in runs:
        deadline = time.monotonic() + DEADLINE_S
        order = workload_specs(workload)
        random.Random(args.seed).shuffle(order)
        try:
            if trace:
                res = per_layer(workload, order, deadline)
            else:
                res = end_to_end(workload, order, args.seconds, deadline)
        except BenchError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 2
        _report(workload, "traced" if trace else "untraced", res)
        total["correct"] = total["correct"] and not res["problems"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        prefix = f"{workload}/" if len(runs) > 1 else ""
        for name, m in res["metrics"].items():
            total["metrics"][prefix + name] = m
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
