"""One benchmark process: imports ``cvphase`` from the checkout and calls it.

Modes (the runner starts every one of them with ``PYTHONPATH`` at ``src``):

``--probe``       import the package, build the workload's inputs, report the
                  moment that finished, exit.  The runner times set-up from
                  process start to that moment.
``(default)``     after the same set-up, repeat the workload's passes of warm
                  ``cvphase.cli.main(argv)`` calls for ``--seconds``; with
                  ``--trace 1`` each command runs once untraced and once traced.
``--cold-call``   a fresh process that installs the tracer, runs one command
                  and reports its spans: the traced half of ``cold-tables``.

Each mode prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
import traceback

from checks import check, check_trace


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def call(cli, argv, tracer=None) -> dict:
    """One ``cli.main`` call with its table captured; traced when given a tracer."""
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.install()
        tracer.begin_call()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except Exception:  # a crash counts as a failed invocation, and the run goes on
        rc = -1
        err.write(traceback.format_exc())
    wall = time.perf_counter() - t0
    record = {"rc": rc, "wall": wall, "text": out.getvalue(), "stderr": err.getvalue()[-2000:]}
    if tracer is not None:
        record["trace"] = tracer.end_call()
        tracer.uninstall()
    return record


def _checked(cmd, record, mode) -> dict:
    failures, info = check(cmd.kind, cmd.rows, record["rc"], record["text"])
    if failures and record["stderr"]:
        failures.append(record["stderr"].strip().splitlines()[-1])
    if "trace" in record:
        failures += check_trace(record["trace"])
    return {
        "label": cmd.label, "mode": mode, "wall": record["wall"],
        "failures": failures, "info": info,
        "work": 0.0 if failures else cmd.work,
        "trace": record.get("trace"),
    }


def run_loop(workload, seconds: float, traced: bool) -> list[dict]:
    import cvphase.cli as cli
    import hostspeed  # after set-up: it imports numpy, which set-up must pay for

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer(workload.name)
    commands = workload.trace_pass if traced else workload.pass_
    calls = []
    # the untraced loop measures the host's speed between calls (hostspeed.py)
    speed = None if traced else hostspeed.measure()
    start = time.perf_counter()
    passes = 0
    while True:
        for cmd in commands:
            plain = _checked(cmd, call(cli, cmd.argv), "untraced") | {"pass": passes}
            if speed is not None:
                after = hostspeed.measure()
                plain["host"] = hostspeed.index(speed, after)
                speed = after
            calls.append(plain)
            if tracer is not None:
                calls.append(_checked(cmd, call(cli, cmd.argv, tracer), "traced"))
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes > seconds:
            return calls


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--cold-call", nargs=argparse.REMAINDER)
    args = ap.parse_args()

    if args.cold_call is not None:
        import cvphase.cli as cli
        from tracer import Tracer

        record = call(cli, args.cold_call, Tracer("cold-tables"))
        print(json.dumps(record))
        return 0

    import cvphase.cli  # noqa: F401  (set-up: the package import)
    import workloads

    workload = workloads.build(args.workload, args.seed)
    ready = _now()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0
    calls = run_loop(workload, args.seconds, bool(args.trace))
    print(json.dumps({"ready": ready, "calls": calls}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
