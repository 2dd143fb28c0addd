"""cvphase benchmark: end-to-end metrics per workload, or per-layer metrics traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed).  Load is one closed loop with one client:
the runner starts one process at a time and waits for it, and each warm
worker makes one ``cvphase.cli.main`` call at a time, with no threads.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones, each from its own run.  End-to-end times are seconds at
a reference host speed: each wall time is divided by the host speed index
measured around it (see ``hostspeed.py``), because the shared host's own
speed swings more than the bounds allow.  The report keeps the raw wall
times and the indices.  Per-layer times are raw wall time.

Every command's table is checked (see ``checks.py``); a nonzero exit or a
failed check counts as a failed invocation.  The line before the result is
a JSON report with the environment, the percentiles and sample counts,
per-command figures and the digest of every table.  Exits 2 without a result when no checkout is found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from checks import check, check_trace  # noqa: E402

BUDGET_S = 170.0  # every run ends well inside the 180 s allowed
SETUP_PROBES_BEFORE = 3
SETUP_PROBES_AFTER = 2
IMPORTTIME_PROBES = 3
CLI_MAIN = "import sys; from cvphase.cli import main; sys.exit(main())"
IMPORT_ONLY = "import cvphase"
WORST_POSSIBLE_DEV = 1.0  # |dp| of a crosscheck that printed no deviation


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Starts the benchmark's processes one at a time and keeps the tallies."""

    def __init__(self, deadline: float, seed: int) -> None:
        self.deadline = deadline
        self.seed = seed
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, set[str]] = {}
        self.speed = hostspeed.measure()  # host speed just before the next process

    def spawn(self, argv: list[str]) -> dict:
        """Run one process to its end; wall time from start to exit, peak RSS,
        and the host speed index around it."""
        before = self.speed
        start = _now()
        proc = subprocess.Popen(
            [sys.executable] + argv, cwd=ROOT, env=self.env,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        chunks = {proc.stdout: [], proc.stderr: []}
        killed = False
        try:
            with selectors.DefaultSelector() as sel:
                for f in chunks:
                    sel.register(f, selectors.EVENT_READ)
                while sel.get_map():
                    remaining = self.deadline - _now()
                    if remaining <= 0 and not killed:
                        proc.kill()
                        killed = True
                    for key, _ in sel.select(timeout=max(remaining, 0.1)):
                        data = os.read(key.fd, 1 << 16)
                        if data:
                            chunks[key.fileobj].append(data)
                        else:
                            sel.unregister(key.fileobj)
                            key.fileobj.close()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        # wait4 rather than Popen.wait: it also returns this child's own peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
        end = _now()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.speed = hostspeed.measure()
        return {
            "rc": -9 if killed else proc.returncode,
            "out": b"".join(chunks[proc.stdout]).decode("utf-8", "replace"),
            "err": b"".join(chunks[proc.stderr]).decode("utf-8", "replace"),
            "start": start,
            "wall": end - start,
            "host": hostspeed.index(before, self.speed),
            "rss_mb": usage.ru_maxrss * 1024 / 1e6,
        }

    def tally(self, label: str, failures: list[str], info: dict | None = None) -> bool:
        self.attempted += 1
        if info and "digest" in info:
            self.digests.setdefault(label, set()).add(info["digest"])
        if failures:
            self.failures.append(f"{label}: {'; '.join(failures)}")
        return not failures

    def fresh_command(self, cmd) -> dict:
        res = self.spawn(["-c", CLI_MAIN] + list(cmd.argv))
        failures, info = check(cmd.kind, cmd.rows, res["rc"], res["out"])
        if failures and res["err"].strip():
            failures.append(res["err"].strip().splitlines()[-1])
        res["ok"] = self.tally(cmd.label, failures, info)
        res["info"] = info
        return res

    def fresh_import(self, extra: tuple[str, ...] = ()) -> dict:
        res = self.spawn(list(extra) + ["-c", IMPORT_ONLY])
        res["ok"] = self.tally("import", [] if res["rc"] == 0 else [f"exit code {res['rc']}"])
        return res

    def worker(self, args: list[str]) -> dict:
        res = self.spawn([str(HERE / "worker.py")] + args)
        try:
            res["json"] = json.loads(res["out"].strip().splitlines()[-1])
        except (IndexError, ValueError):
            res["json"] = None
            self.tally("worker", [f"worker exit {res['rc']}: {res['err'].strip()[-500:]}"])
        return res

    def warm_calls(self, calls: list[dict]) -> None:
        for c in calls:
            self.tally(c["label"], c["failures"], c["info"])


# --------------------------------------------------------------------- stats
def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that percentile."""
    s = sorted(samples)
    if len(s) <= 10:
        return s[-1], 100.0
    k = len(s) - 11
    return s[k], 100.0 * (k + 1) / len(s)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ------------------------------------------------------------- environment
def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def _git_commit() -> str:
    git = ROOT / ".git"
    head = _read(git / "HEAD")
    if head.startswith("ref: "):
        ref = head[5:]
        commit = _read(git / ref)
        if not commit:
            for line in _read(git / "packed-refs").splitlines():
                if line.endswith(" " + ref):
                    commit = line.split()[0]
        return commit or "unknown"
    return head or "none (not a git checkout)"


def environment(seed: int, grid_sizes: list[int]) -> dict:
    cpu_model = ""
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    l2_bytes = 0
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(idx / f) for f in ("level", "type", "size"))
        caches[f"L{level}{'d' if kind == 'Data' else 'i' if kind == 'Instruction' else ''}"] = size
        if level == "2" and size.endswith("K"):
            l2_bytes = int(size[:-1]) * 1024

    def version(pkg: str) -> str:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model or "unknown",
        "caches_per_core": caches,
        "git_commit": _git_commit(),
        "seed": seed,
        "grid_arrays": [
            {"n": n, "complex_array_bytes": 16 * n, "l2_bytes": l2_bytes,
             "over_l2": round(16 * n / l2_bytes, 3) if l2_bytes else None}
            for n in grid_sizes
        ],
        "note": "no memory-bandwidth figure: no array reaches 4x the last-level cache",
    }


def _grid_sizes(workload) -> list[int]:
    sizes = set()
    for cmd in workload.pass_ + ((workloads.REFERENCE,) if workload.reference else ()):
        if cmd.kind == "crosscheck" or "all" in cmd.argv:
            argv = list(cmd.argv)
            sizes.add(int(argv[argv.index("--grid-n") + 1]) if "--grid-n" in argv else 4096)
    return sorted(sizes)


# --------------------------------------------------------------- end to end
def end_to_end(runner: Runner, workload, seconds: float) -> tuple[dict, dict]:
    setup, rss, worst, calls = [], [], [], []
    if workload.reference:
        ref = runner.fresh_command(workloads.REFERENCE)
        worst.append(ref["info"].get("worst_dev", WORST_POSSIBLE_DEV))
    if workload.cold:
        runner.fresh_import()  # fills the bytecode cache
        start = _now()
        passes = 0
        while True:
            imp = runner.fresh_import()
            if imp["ok"]:
                setup.append((imp["wall"], imp["host"]))
            for cmd in workload.pass_:
                res = runner.fresh_command(cmd)
                calls.append({"label": cmd.label, "wall": res["wall"], "host": res["host"],
                              "pass": passes, "work": cmd.work if res["ok"] else 0.0})
                rss.append(res["rss_mb"])
            passes += 1
            elapsed = _now() - start
            if elapsed + elapsed / passes > seconds or _now() > runner.deadline - 30:
                break
    else:
        probe = ["--probe", "--workload", workload.name, "--seed", str(runner.seed)]

        def probe_once(sample=True):
            res = runner.worker(probe)
            if res["json"] is not None:
                runner.tally("setup-probe", [])
                if sample:
                    setup.append((res["json"]["ready"] - res["start"], res["host"]))

        probe_once(sample=False)  # fills the bytecode cache
        for _ in range(SETUP_PROBES_BEFORE):
            probe_once()
        res = runner.worker(
            ["--workload", workload.name, "--seed", str(runner.seed), "--seconds", str(seconds)]
        )
        calls = res["json"]["calls"] if res["json"] else []
        rss.append(res["rss_mb"])
        runner.warm_calls(calls)
        worst += [c["info"]["worst_dev"] for c in calls if "worst_dev" in c["info"]]
        for _ in range(SETUP_PROBES_AFTER):
            probe_once()
    if not calls or not setup:
        raise RuntimeError("no invocation completed")
    # every time below is at the reference host speed: wall time / host index
    walls = [c["wall"] / c["host"] for c in calls]
    tail_value, tail_pct = tail(walls)
    # throughput of each pass (a fixed mix of commands), median over the passes
    per_pass: dict[int, list[float]] = {}
    for c, wall in zip(calls, walls):
        acc = per_pass.setdefault(c["pass"], [0.0, 0.0])
        acc[0] += c["work"]
        acc[1] += wall
    hosts = [c["host"] for c in calls] + [h for _, h in setup]
    failed = len(runner.failures)
    metrics = {
        "setup_s": _metric(statistics.median(w / h for w, h in setup), "s"),
        "cmd_s.p50": _metric(statistics.median(walls), "s"),
        "cmd_s.tail": _metric(tail_value, "s"),
        "work_per_s": _metric(statistics.median(w / t for w, t in per_pass.values()), "1/s"),
        "ok_ratio": _metric((runner.attempted - failed) / runner.attempted, "ratio"),
        "worst_dev": _metric(max(worst) if worst else WORST_POSSIBLE_DEV, "prob"),
        "peak_rss_mb": _metric(max(rss), "MB"),
    }
    report = {
        "cmd_s": {"n": len(walls), "tail_percentile": tail_pct,
                  "wall_p50_raw": statistics.median(c["wall"] for c in calls)},
        "setup_s": {"n": len(setup), "wall_samples_raw": [w for w, _ in setup],
                    "wall_p50_raw": statistics.median(w for w, _ in setup)},
        "host_index": {"n": len(hosts), "min": min(hosts), "median": statistics.median(hosts),
                       "max": max(hosts), "reference_s": hostspeed.REFERENCE},
        "work_per_s": {"unit": workload.work_unit, "passes": len(per_pass),
                       "work_done": sum(w for w, _ in per_pass.values())},
        "per_command": _per_label(calls),
    }
    return metrics, report


def _per_label(calls: list[dict]) -> dict:
    out: dict[str, dict] = {}
    for c in calls:
        wall = c["wall"] / c["host"] if "host" in c else c["wall"]
        out.setdefault(c["label"], {}).setdefault(c.get("mode", "untraced"), []).append(wall)
    return {
        label: {mode: {"n": len(w), "p50_s": statistics.median(w)} for mode, w in modes.items()}
        for label, modes in out.items()
    }


# ------------------------------------------------------------------ traced
def _importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds of the outermost numpy and scipy imports."""
    # lines are "import time: <self us> | <cumulative us> | <2*depth spaces><name>",
    # a module printed after the imports it triggered
    stack: list[tuple[int, str, float, list]] = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or "cumulative" in line:
            continue
        name = parts[2][1:]
        depth = (len(name) - len(name.lstrip())) // 2
        node = (depth, name.strip(), float(parts[1]), [])
        while stack and stack[-1][0] > depth:
            node[3].insert(0, stack.pop())
        stack.append(node)
    totals = {"numpy": 0.0, "scipy": 0.0}

    def visit(node):
        top = node[1].split(".")[0]
        if top in totals:
            totals[top] += node[2] / 1e6
            return
        for child in node[3]:
            visit(child)

    for node in stack:
        visit(node)
    return totals


LAYER_SELF = (
    "cli.self_s", "cli.cmd_self_s", "model.self_s", "stats.self_s",
    "quadrature.self_s", "grid.self_s", "experiments.self_s",
)
STAGES = ("prepare", "fourier", "blackbox", "inverse", "detect")


def traced(runner: Runner, workload, seconds: float) -> tuple[dict, dict]:
    imports = []
    for _ in range(IMPORTTIME_PROBES):
        res = runner.fresh_import(("-X", "importtime"))
        if res["ok"]:
            imports.append((res["wall"], _importtime(res["err"])))
    if workload.cold:
        calls = []
        start = _now()
        passes = 0
        while True:
            for cmd in workload.trace_pass:
                plain = runner.fresh_command(cmd)
                calls.append({"label": cmd.label, "mode": "untraced", "wall": plain["wall"],
                              "info": plain["info"]})
                res = runner.worker(["--cold-call"] + list(cmd.argv))
                rec = res["json"]
                if rec is None:
                    continue
                failures, info = check(cmd.kind, cmd.rows, rec["rc"], rec["text"])
                runner.tally(cmd.label, failures + check_trace(rec["trace"]), info)
                calls.append({"label": cmd.label, "mode": "traced", "wall": res["wall"],
                              "info": info, "trace": rec["trace"]})
            passes += 1
            elapsed = _now() - start
            if elapsed + elapsed / passes > seconds or _now() > runner.deadline - 30:
                break
    else:
        res = runner.worker(
            ["--workload", workload.name, "--seed", str(runner.seed),
             "--seconds", str(seconds), "--trace", "1"]
        )
        calls = res["json"]["calls"] if res["json"] else []
        runner.warm_calls(calls)
    traced_calls = [c for c in calls if c["mode"] == "traced" and c.get("trace")]
    plain_walls = [c["wall"] for c in calls if c["mode"] == "untraced"]
    if not traced_calls or not plain_walls or not imports:
        raise RuntimeError("no traced invocation completed")

    n = len(traced_calls)
    sums: dict[str, float] = {}
    maxima: dict[str, float] = {}
    grid_rows = 0.0
    for c in traced_calls:
        for key, value in c["trace"]["sums"].items():
            sums[key] = sums.get(key, 0.0) + value
        for key, value in c["trace"]["maxima"].items():
            maxima[key] = max(maxima.get(key, 0.0), value)
        sums["cli.rows"] = sums.get("cli.rows", 0.0) + c["info"].get("rows", 0)
        sums["cli.bytes_out"] = sums.get("cli.bytes_out", 0.0) + c["info"].get("bytes", 0)
        if c["trace"]["sums"].get("grid.circuits", 0.0) > 0:
            grid_rows += c["info"].get("rows", 0)

    def per_call(key: str) -> float:
        return sums.get(key, 0.0) / n

    def ratio(num: str, den: str, scale: float = 1.0) -> float:
        d = sums.get(den, 0.0)
        return scale * sums.get(num, 0.0) / d if d > 0 else 0.0

    traced_walls = [c["wall"] for c in traced_calls]
    m: dict[str, dict] = {}
    m["import.total_s"] = _metric(statistics.median(w for w, _ in imports), "s")
    for pkg in ("scipy", "numpy"):
        m[f"import.{pkg}_s"] = _metric(statistics.median(t[pkg] for _, t in imports), "s")
    m["cli.calls"] = _metric(float(n), "count")
    for key in ("cli.self_s", "cli.cmd_self_s"):
        m[key] = _metric(per_call(key), "s")
    m["cli.rows"] = _metric(per_call("cli.rows"), "count")
    m["cli.bytes_out"] = _metric(per_call("cli.bytes_out"), "B")
    m["model.validate_calls"] = _metric(per_call("model.validate_calls"), "count")
    m["model.validate_s"] = _metric(per_call("model.validate_s"), "s")
    m["model.self_s"] = _metric(per_call("model.self_s"), "s")
    m["stats.calls"] = _metric(per_call("stats.calls"), "count")
    m["stats.self_s"] = _metric(per_call("stats.self_s"), "s")
    m["stats.us_per_call"] = _metric(ratio("stats.self_s", "stats.calls", 1e6), "us")
    m["quadrature.calls"] = _metric(per_call("quadrature.calls"), "count")
    m["quadrature.segments"] = _metric(per_call("quadrature.segments"), "count")
    m["quadrature.self_s"] = _metric(per_call("quadrature.self_s"), "s")
    m["quadrature.err_over_tol_max"] = _metric(
        maxima.get("quadrature.err_over_tol_max", 0.0), "ratio")
    m["grid.circuits"] = _metric(per_call("grid.circuits"), "count")
    m["grid.circuits_per_row"] = _metric(
        sums.get("grid.circuits", 0.0) / grid_rows if grid_rows else 0.0, "ratio")
    m["grid.points"] = _metric(per_call("grid.points"), "count")
    m["grid.self_s"] = _metric(per_call("grid.self_s"), "s")
    for stage in STAGES:
        m[f"grid.{stage}_s"] = _metric(per_call(f"grid.{stage}_s"), "s")
        m[f"grid.{stage}_us_per_call"] = _metric(
            ratio(f"grid.{stage}_s", f"grid.{stage}_calls", 1e6), "us")
    m["grid.bytes_computed"] = _metric(per_call("grid.bytes_computed"), "B")
    m["grid.fft_flops_computed"] = _metric(per_call("grid.fft_flops_computed"), "flop")
    m["grid.norm_drift_max"] = _metric(maxima.get("grid.norm_drift_max", 0.0), "ratio")
    for key, unit in (("sample_calls", "count"), ("trials", "count"), ("sample_s", "s"),
                      ("records_built", "count"), ("mle_calls", "count"), ("mle_s", "s"),
                      ("self_s", "s")):
        m[f"experiments.{key}"] = _metric(per_call(f"experiments.{key}"), unit)
    m["experiments.ns_per_trial"] = _metric(
        ratio("experiments.sample_s", "experiments.trials", 1e9), "ns")
    m["experiments.draw_floor_ns_per_trial"] = _metric(
        ratio("experiments.draw_floor_s", "experiments.trials", 1e9), "ns")
    m["experiments.overhead_over_draw"] = _metric(
        ratio("experiments.sample_s", "experiments.draw_floor_s"), "ratio")
    p50_traced = statistics.median(traced_walls)
    p50_plain = statistics.median(plain_walls)
    m["trace.cmd_s_p50"] = _metric(p50_traced, "s")
    m["trace.cmd_s_p50_untraced"] = _metric(p50_plain, "s")
    m["trace.overhead_s"] = _metric(p50_traced - p50_plain, "s")
    m["trace.bench_s"] = _metric(per_call("trace.bench_s"), "s")
    m["trace.self_sum_s"] = _metric(sum(per_call(k) for k in LAYER_SELF), "s")

    per_label = _per_label(calls)
    for label, modes in per_label.items():
        selfs = [sum(c["trace"]["sums"].get(k, 0.0) for k in LAYER_SELF)
                 for c in traced_calls if c["label"] == label]
        if selfs:
            modes["traced"]["self_sum_p50_s"] = statistics.median(selfs)
    report = {"per_command": per_label, "traced_calls": n,
              "import_probes": [{"wall_s": w, **t} for w, t in imports]}
    return m, report


# --------------------------------------------------------------------- main
def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "cvphase" / "cli.py").is_file():
        print(f"no cvphase checkout at {ROOT} (src/cvphase/cli.py missing)", file=sys.stderr)
        return 2

    runner = Runner(_now() + BUDGET_S, args.seed)
    workload = workloads.build(args.workload, args.seed)
    try:
        if args.trace:
            metrics, report = traced(runner, workload, args.seconds)
        else:
            metrics, report = end_to_end(runner, workload, args.seconds)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}; {runner.failures[:5]}", file=sys.stderr)
        return 1
    report.update({
        "workload": workload.name,
        "trace": args.trace,
        "environment": environment(args.seed, _grid_sizes(workload)),
        "failures": runner.failures[:20],
        "digests": {k: sorted(v) for k, v in runner.digests.items()},
    })
    print(json.dumps({"report": report}))
    failed = len(runner.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
