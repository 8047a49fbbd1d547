"""infker benchmark: end-to-end and per-layer metrics for four workloads.

Usage (from the repository root):

    python3 bench/run.py --workload gap-ladder --seed 1 --seconds 26 --trace 0

Each pass runs the workload's ops once, in order, through
``infker.cli.main(argv)`` in a fresh interpreter (``worker.py``), the
way a CLI user pays cold per-space caches on every call.  The load is a
closed loop with one client: passes run one after another, ops one
after another, no threads.  A pass starts if at least half of it is
expected to fall within ``--seconds`` (the window is twice as long for
the first two untraced passes), so runs end near ``--seconds`` on
average.  Metrics are medians over passes.  The set-up alone is also
timed once before the passes and twice after each untraced pass, so
its samples spread over the run.

--trace 0 prints the end-to-end metrics:

    setup_s      import infker and build_parser() in a fresh interpreter
    wall_s       one pass of the workload's ops, set-up and checks excluded
    frontier_s   the workload's largest op (battery: its only op)
    peak_rss_mb  peak resident set of a pass's process (ru_maxrss)
    ok_frac      ops that succeeded / ops attempted

--trace 1 alternates untraced and traced passes and prints the
per-layer metrics of the traced ones (see tracer.py), plus
``trace.overhead_s``, traced minus untraced ``wall_s``.

An op fails on an unexpected exit code, a wrong answer, or stdout bytes
that differ from those of the same op in an earlier pass of the run.
The seed sets the op order within a pass (listed order for seed 0) and
is passed to every command as ``--seed``.

The last line of stdout is the result JSON; the line before it records
the run context (source digest, Python, cores, a reference-loop time)
so that drift of the host shows beside every number.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 2  # untraced passes that get a window of 2 x --seconds
PROBES_PER_PASS = 2  # set-up timings after each untraced pass
RUN_LIMIT_S = 170.0  # every run must end well within 180 s

BELOW_CLI = tuple(layer for layer in LAYERS if layer != "cli")
COUNTED = ("exterior.calls", "exterior.minors",
           "prime_linalg.calls", "prime_linalg.matmul_madds",
           "prime_linalg.matvec_madds", "prime_linalg.elim_cells",
           "prime_linalg.elim_cells_p2",
           "symplectic.calls", "symplectic.operator_calls",
           "symplectic.operator_cache_hits",
           "isotropic.calls", "isotropic.subspaces_streamed",
           "inflation.calls", "inflation.certificate_vectors",
           "extraspecial.calls")


class ChildError(RuntimeError):
    pass


def run_child(spec: dict, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    timeout = max(1.0, deadline - perf_counter())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildError(f"pass killed after {timeout:.0f} s")
    if proc.returncode != 0:
        raise ChildError(f"worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def reference_loop_s() -> float:
    """Best of three timings of a fixed pure-Python loop."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc * 31 + i) % 1_000_003
        best = min(best, perf_counter() - start)
    return best


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def layer_metrics(trace: dict, wall: float, bytes_out: int) -> dict:
    self_s, counts = trace["self_s"], trace["counts"]
    out = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in BELOW_CLI}
    out.update((name, counts.get(name, 0)) for name in COUNTED)
    checked = counts.get("inflation.certificate_vectors", 0)
    out["inflation.vacuous_ratio"] = (
        counts.get("inflation.vacuous_records", 0) / checked if checked else 0.0)
    out["cli.self_s"] = wall - sum(out[f"{layer}.self_s"] for layer in BELOW_CLI)
    out["cli.bytes_out"] = bytes_out
    return out


UNITS = {"self_s": "s", "overhead_s": "s", "vacuous_ratio": "ratio",
         "bytes_out": "bytes"}


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(args, workload, order, hard_deadline: float) -> dict:
    """Run passes until the time is up; check and tally every op."""
    def probe():
        return run_child({"setup_only": True}, hard_deadline)["setup_s"]

    spans_out = OUT / f"spans-{args.workload}.jsonl"
    if args.trace:
        OUT.mkdir(exist_ok=True)
    kinds = (False, True) if args.trace else (False,)
    min_passes = 0 if args.trace else MIN_PASSES
    tally = {"setups": [probe()], "passes": {False: [], True: []},
             "attempted": 0, "failed": 0, "errors": []}
    durations = {False: [], True: []}
    digests = {}
    measure_deadline = perf_counter() + args.seconds
    force_deadline = measure_deadline + args.seconds
    k = 0
    while True:
        traced = kinds[k % len(kinds)]
        spec = {"workload": args.workload, "order": order, "seed": args.seed,
                "trace": traced, "spans_out": str(spans_out) if traced else None}
        t0 = perf_counter()
        try:
            res = run_child(spec, hard_deadline)
        except ChildError as exc:
            tally["attempted"] += len(order)
            tally["failed"] += len(order)
            tally["errors"].append(str(exc))
            return tally
        if not args.trace:
            tally["setups"] += [res["setup_s"]] + [probe() for _ in range(PROBES_PER_PASS)]
        durations[traced].append(perf_counter() - t0)
        for op in res["ops"]:
            tally["attempted"] += 1
            error = op["error"]
            if error is None and op["sha256"] != digests.setdefault(op["index"], op["sha256"]):
                error = "stdout differs from an earlier pass"
            if error is not None:
                tally["failed"] += 1
                tally["errors"].append(f"{workload.argv(op['index'], args.seed)}: {error}")
        tally["passes"][traced].append(res)
        k += 1
        if k < len(kinds):
            continue  # a traced run always makes one pass of each kind
        midpoint = perf_counter() + statistics.median(durations[kinds[k % len(kinds)]]) / 2
        if midpoint > (force_deadline if k < min_passes else measure_deadline):
            return tally


def wall(res: dict) -> float:
    return sum(op["seconds"] for op in res["ops"])


def end_to_end(tally: dict, workload) -> dict:
    plain = tally["passes"][False]
    attempted, failed = tally["attempted"], tally["failed"]
    return {
        "setup_s": metric(statistics.median(tally["setups"]), "s"),
        "wall_s": metric(statistics.median(wall(r) for r in plain), "s"),
        "frontier_s": metric(statistics.median(
            next(op["seconds"] for op in r["ops"] if op["index"] == workload.frontier)
            for r in plain), "s"),
        "peak_rss_mb": metric(statistics.median(r["rss_kb"] for r in plain) / 1024, "MB"),
        "ok_frac": metric((attempted - failed) / attempted, "ratio"),
    }


def per_layer(tally: dict) -> dict:
    """Medians over traced passes.  Raises ValueError if the layer self
    times of a pass add up to more than its wall time."""
    rows = []
    for res in tally["passes"][True]:
        row = layer_metrics(res["trace"], wall(res), sum(op["bytes"] for op in res["ops"]))
        if row["cli.self_s"] < 0:
            raise ValueError(f"layer self times exceed the pass wall time {wall(res):.3f} s")
        rows.append(row)
    out = {name: metric(statistics.median(row[name] for row in rows),
                        UNITS.get(name.split(".", 1)[1], "count"))
           for name in rows[0]}
    out["trace.overhead_s"] = metric(
        statistics.median(wall(r) for r in tally["passes"][True])
        - statistics.median(wall(r) for r in tally["passes"][False]), "s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=26.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "infker" / "cli.py").is_file():
        print(f"error: no infker sources under {SRC}", file=sys.stderr)
        return 2

    started = perf_counter()
    workload = WORKLOADS[args.workload]
    order = workload.order(args.seed)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "ref_loop_s_before": reference_loop_s(),
        "loadavg_before": os.getloadavg()[0],
    }
    try:
        tally = measure(args, workload, order, started + RUN_LIMIT_S)
    except ChildError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    passes = tally["passes"]
    context.update(
        pass_walls={"untraced": [wall(r) for r in passes[False]],
                    "traced": [wall(r) for r in passes[True]]},
        spans=[r["trace"]["spans"] for r in passes[True]],
        ref_loop_s_after=reference_loop_s(),
        loadavg_after=os.getloadavg()[0],
        run_s=perf_counter() - started,
    )
    for err in tally["errors"]:
        print(f"failed: {err}", file=sys.stderr)

    correct = tally["failed"] == 0
    metrics = {}
    if passes[False] and (passes[True] or not args.trace):
        try:
            metrics = per_layer(tally) if args.trace else end_to_end(tally, workload)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            correct = False
    else:
        correct = False

    print(json.dumps({"context": context}))
    print(json.dumps({"correct": correct, "attempted": max(tally["attempted"], 1),
                      "failed": tally["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
