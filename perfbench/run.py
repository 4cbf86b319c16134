#!/usr/bin/env python3
"""The casimir-bec benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--max-ops K]

Run it from the root of a checkout; it imports the package from ``src/``
and needs only the standard library and numpy beyond the package's own
dependencies.  Workloads (inputs and checks in ``workloads.py``):

* ``cold_cli``: fresh ``python -m casimir_bec.cli <cmd>`` processes cycling
  potential, spectrum, dsf, bragg and bdg at default numerics;
* ``observables``: in-process dsf and bragg scenarios at 2001 and 4001
  omega points;
* ``bdg_bands``: in-process bdg scenarios, one and two fundamentals, at
  plane-wave cutoffs 16, 32 and 64;
* ``validate``: in-process ``validate_reference()`` (the seed is ignored).

An op is one CLI process, one config parse plus ``run_scenario`` call, or
one ``validate_reference()`` call.  It fails on an exception, a non-zero
exit or a failed output check.  Each in-process run first makes one
untimed warm-up op.  Ops run until ``--seconds`` have passed and the
workload's cycle of op classes is complete (or ``--max-ops`` ops ran).

With ``--trace 0`` the metrics are the end-to-end ones:

* ``setup_s``: median wall time of fresh interpreters that import what
  the workload calls and, for in-process workloads, run its first op cold;
* ``ops_per_s``: ops that passed their check per second of the window;
* ``op_p50_s``: median op latency;
* ``op_tail_s``: latency at the highest percentile with at least ten
  samples beyond it (the percentile and count are in the record line;
  with fewer than eleven ops it is the fastest op);
* ``peak_rss_mb``: peak resident memory of the process doing the work
  (the CLI children for cold_cli).

With ``--trace 1`` the first half of the window runs untraced and the
second half traced (see ``tracing.py``); the metrics are per-layer, per op
of the traced half: calls and self seconds of each traced function,
counters, import times, each layer's share of op time, the tracing
overhead and the failed-op ratio.  Spans go to
``.perfbench/trace-<workload>-<seed>.json`` in the checkout.

Standard output ends with two JSON lines: a record (environment, set-up
samples, tail percentile, failures) and the result
``{"correct", "attempted", "failed", "metrics"}``.  BLAS runs with one
thread in every process, on every commit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold_cli", "observables", "bdg_bands", "validate")
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_units() -> dict[str, str]:
    from tracing import COUNTERS, LAYERS, MAXIMA, TRACED

    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = "count/op"
        units[f"{name}.self_s"] = "s/op"
    units.update({name: "count/op" for name in COUNTERS})
    units.update({name: "count" for name in MAXIMA})
    units["bdg.dense_flops_computed"] = "flop/op"
    units["emit.bytes_written"] = "B/op"
    units.update({f"{layer}.self_share": "ratio" for layer in LAYERS})
    units.update({"import.casimir_bec_s": "s", "import.scipy_s": "s",
                  "trace.overhead_ratio": "ratio", "trace.op_s": "s",
                  "failed_ratio": "ratio"})
    return units


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    """What the numbers depend on besides the code."""
    from importlib import metadata

    import numpy as np

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        git_sha = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": BLAS_ENV,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "pythondontwritebytecode": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
    }


class Runner:
    """Runs op i of the schedule and reports (seconds, failure or None)."""

    def __init__(self, workload: str, seed: int, work: Path):
        from workloads import Schedule

        self.workload = workload
        self.schedule = Schedule(workload, seed)
        self.work = work
        self.out = work / "out"
        self.tracer = None
        self.child_dumps: list[dict] = []

    def _config(self, text: str | None) -> Path | None:
        if text is None:
            return None
        path = self.work / "run.cfg"
        path.write_text(text, encoding="utf-8")
        return path

    def run(self, i: int) -> tuple[float, str | None]:
        command, text, reference = self.schedule.op(i)
        config = self._config(text)
        if self.workload == "cold_cli":
            return self._run_cli(i, command, config, reference)
        from workloads import call, output_mismatch

        if self.tracer is not None:
            self.tracer.op_id = i
        start = time.perf_counter()
        try:
            output = call(command, config, self.out)
        except Exception as exc:  # an op that raises is a failed op, and the run goes on
            return time.perf_counter() - start, f"{command}: {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        return elapsed, output_mismatch(command, output, reference)

    def _run_cli(self, i, command, config, reference):
        from workloads import output_mismatch, summary_file_mismatch

        shutil.rmtree(self.out, ignore_errors=True)
        args = [command, "--config", str(config), "--out", str(self.out)]
        dump = self.work / "child-trace.json"
        if self.tracer is None:
            argv = [sys.executable, "-m", "casimir_bec.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "child.py"), "cli", str(dump), *args]
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
                                  check=False)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - start, f"{command}: no exit in {CHILD_TIMEOUT_S} s"
        elapsed = time.perf_counter() - start
        err = proc.stderr
        if self.tracer is not None and dump.exists():
            child = json.loads(dump.read_text(encoding="utf-8"))
            dump.unlink()
            self.tracer.merge(child)
            self.child_dumps.append({"op": i, **child})
        if proc.returncode != 0:
            return elapsed, f"{command}: exit {proc.returncode}: {err.strip()[-400:]}"
        failure = summary_file_mismatch(self.out)
        if failure is None:
            summary = json.loads((self.out / "summary.json").read_text(encoding="utf-8"))
            failure = output_mismatch(command, summary, reference)
        return elapsed, failure


def measure(runner: Runner, seconds: float, max_ops: int | None) -> dict:
    """Closed loop: op after op until time is up and the cycle is whole."""
    cycle = runner.schedule.cycle
    latencies, failures = [], []
    start = time.perf_counter()
    i = 0
    while True:
        if max_ops is not None:
            if i >= max_ops:
                break
        elif time.perf_counter() - start >= seconds and i % cycle == 0:
            break
        latency, failure = runner.run(i)
        latencies.append(latency)
        if failure is not None:
            failures.append(f"op {i}: {failure}")
        i += 1
    return {"elapsed": time.perf_counter() - start, "latencies": latencies,
            "failures": failures}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, samples beyond) at the highest percentile
    that leaves at least ten samples beyond it."""
    ordered = sorted(latencies)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def ops_per_s(window: dict) -> float:
    return (len(window["latencies"]) - len(window["failures"])) / window["elapsed"]


def measure_setup(workload: str, seed: int, work: Path) -> tuple[list[float], list[dict]]:
    walls, details = [], []
    for n in range(SETUP_SAMPLES):
        if workload == "cold_cli":
            argv = [sys.executable, "-c", "import casimir_bec.cli"]
        else:
            out = work / f"setup-{n}"
            out.mkdir()
            argv = [sys.executable, str(HERE / "child.py"), "setup", workload, str(seed),
                    str(out)]
        start = time.perf_counter()
        proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-400:]}")
        if proc.stdout.strip():
            details.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return walls, details


def run(args, work: Path) -> tuple[dict, dict]:
    from workloads import import_modules

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    setup_walls, setup_details = measure_setup(args.workload, args.seed, work)
    record["setup_samples_s"] = setup_walls
    record["setup_children"] = setup_details
    failures = [f"set-up: {d['failure']}" for d in setup_details if d.get("failure")]
    attempted = len(setup_details)

    runner = Runner(args.workload, args.seed, work)
    if args.workload != "cold_cli":
        import_modules(args.workload)
        runner.out.mkdir()
        warm_latency, warm_failure = runner.run(0)
        record["warm_up_s"] = warm_latency
        attempted += 1
        if warm_failure:
            failures.append(f"warm-up: {warm_failure}")

    if not args.trace:
        window = measure(runner, args.seconds, args.max_ops)
        if args.workload == "cold_cli":
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        latency, percentile, beyond = tail(window["latencies"])
        metrics = {
            "ops_per_s": ops_per_s(window),
            "op_p50_s": statistics.median(window["latencies"]),
            "op_tail_s": latency,
            "peak_rss_mb": rss_kb * 1024 / 1e6,
            "setup_s": statistics.median(setup_walls),
        }
        units = END_TO_END_UNITS
        record["op_tail"] = {"percentile": percentile, "samples_beyond": beyond,
                             "samples": len(window["latencies"])}
        record["latencies_s"] = window["latencies"]
        windows = [window]
    else:
        metrics, windows = traced_metrics(args, runner)
        units = per_layer_units()
        failed_ops = sum(len(w["failures"]) for w in windows) + len(failures)
        metrics["failed_ratio"] = failed_ops / (attempted + sum(len(w["latencies"])
                                                                for w in windows))

    for w in windows:
        failures += w["failures"]
        attempted += len(w["latencies"])
    record["windows"] = [{"ops": len(w["latencies"]), "elapsed_s": w["elapsed"]}
                         for w in windows]
    record["failures"] = failures[:20]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return record, result


def traced_metrics(args, runner: Runner) -> tuple[dict, list[dict]]:
    from tracing import COUNTERS, LAYERS, MAXIMA, TRACED, Tracer, import_times

    half = args.seconds / 2.0
    plain = measure(runner, half, args.max_ops)
    tracer = Tracer()
    runner.tracer = tracer
    if args.workload != "cold_cli":
        tracer.install()
    try:
        traced = measure(runner, half, args.max_ops)
    finally:
        tracer.uninstall()
        runner.tracer = None
    n_ops = len(traced["latencies"])
    op_time = sum(traced["latencies"])
    metrics = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = tracer.calls.get(name, 0) / n_ops
        metrics[f"{name}.self_s"] = tracer.self_s.get(name, 0.0) / n_ops
    for name in COUNTERS:
        metrics[name] = tracer.counters.get(name, 0) / n_ops
    for name in MAXIMA:
        metrics[name] = tracer.counters.get(name, 0)
    for layer in LAYERS:
        busy = sum(s for name, s in tracer.self_s.items() if name.split(".")[0] == layer)
        metrics[f"{layer}.self_share"] = busy / op_time
    metrics.update(import_times(sys.executable, child_env(), str(ROOT)))
    traced_rate = ops_per_s(traced)
    metrics["trace.overhead_ratio"] = ops_per_s(plain) / traced_rate if traced_rate else 0.0
    metrics["trace.op_s"] = op_time / n_ops
    spans = {"workload": args.workload, "seed": args.seed, **tracer.dump(),
             "children": runner.child_dumps}
    (ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}.json").write_text(
        json.dumps(spans), encoding="utf-8")
    return metrics, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=None,
                        help="stop each window after this many ops (smoke checks)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "casimir_bec" / "__init__.py").is_file():
        print(f"perfbench: no src/casimir_bec package under {ROOT}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so the work directory is removed
    # and a running child is killed and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.environ.update(BLAS_ENV)  # before numpy loads BLAS in this process
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        record, result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
