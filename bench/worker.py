"""One benchmark pass in a fresh interpreter.

Usage: python3 worker.py '<spec json>'

The spec names the workload, the op order and the seed, and whether to
trace.  With ``"setup_only": true`` the worker only times the set-up.
The worker prints one JSON line: set-up seconds, and per op its exit
code, seconds, stdout digest and byte count and the answer check's
verdict, the peak resident set, and in a traced pass the layer totals.
``infker`` must be importable (the caller sets PYTHONPATH).
"""

import contextlib
import hashlib
import io
import json
import resource
import sys
from time import perf_counter


def main(spec: dict) -> dict:
    t0 = perf_counter()
    from infker.cli import build_parser, main as cli_main
    build_parser()
    out = {"setup_s": perf_counter() - t0}
    if spec.get("setup_only"):
        return out

    from workloads import WORKLOADS
    workload = WORKLOADS[spec["workload"]]
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    runs = []
    for index in spec["order"]:
        argv = workload.argv(index, spec["seed"])
        stdout, stderr = io.StringIO(), io.StringIO()
        root = tracer.open("cli.main") if tracer else None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli_main(argv)
            error = None
        except Exception as exc:  # a traceback is a failed op, not a crash
            code, error = None, f"raised {type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
        if tracer:
            tracer.close(root)
        runs.append((index, code, seconds, stdout.getvalue(), stderr.getvalue(), error))
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer:
        out["trace"] = {"self_s": tracer.self_times(),
                        "counts": dict(tracer.counts),
                        "spans": len(tracer.spans)}
        if spec.get("spans_out"):
            tracer.dump(spec["spans_out"])

    out["ops"] = []
    for index, code, seconds, text, err, error in runs:
        if error is None:
            error = workload.ops[index].check(code, text)
        if error is not None and err:
            error += f" (stderr: {err.strip()[-300:]})"
        data = text.encode("utf-8")
        out["ops"].append({"index": index, "code": code, "seconds": seconds,
                           "sha256": hashlib.sha256(data).hexdigest(),
                           "bytes": len(data), "error": error})
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
