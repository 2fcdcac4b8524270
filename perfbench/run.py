"""covphase benchmark: time `covphase verify` and `covphase orbit` as typed.

    python3 perfbench/run.py --workload verify-curved --seed 1 --seconds 30 \
        --trace 0

Workloads are `verify-curved`, `verify-flat` and `orbit` (README.md says
why each exists); `--workload all` runs the three one after another, each
in its own fresh process.  Every operation is a command line passed to
`covphase.cli.main` in this process, on one thread, and is checked by the
gate in workloads.py.

With `--trace 0` the run repeats the workload's operations for about
`--seconds` seconds and reports the end-to-end metrics; with `--trace 1`
it runs the workload once untraced and once traced and reports the
per-layer metrics (tracing.py).  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; a fuller result
file with provenance, and the spans of a traced run, go to perfbench/out/.
"""

import os

# pin the native thread pools before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import List  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 3
CAL_AROUND_PROBE = 3

# Times on a shared machine drift by +-25% over tens of seconds, so the
# end-to-end times are stated in units of a calibration loop timed next to
# every operation (see README.md).  UNGATED figures are printed and kept
# in the result file but are too unsteady from run to run to gate on.
END_TO_END = {"setup_s": "s", "wall_cal": "cal", "peak_rss_mb": "MB"}
UNGATED = {"setup_raw_s": "s", "op_cal.p50": "cal", "op_cal.max": "cal",
           "wall_s": "s", "op_s.p50": "s", "op_s.max": "s", "cal_s": "s"}
CAL_ITERATIONS = 300_000
# the calibration loop's median time on the 2-core machine the benchmark
# was written on; it converts set-up time in `cal` back to seconds there
CAL_REFERENCE_S = 0.030


class BenchError(Exception):
    """The benchmark cannot run here: no covphase source tree."""


# ---------------------------------------------------------------------------
# set-up and operations

def measure_setup(models, repeats: int):
    """(set-up time in reference seconds, in measured seconds).

    The measured time runs from starting a fresh interpreter until
    covphase is imported and each model is loaded and validated once;
    the median over `repeats` interpreters is taken.  The reference time
    is the same median in `cal` (the calibration loop is timed around
    every probe) times CAL_REFERENCE_S, so it stays steady while the
    machine's speed drifts.
    """
    probe = os.path.join(HERE, "setup_probe.py")
    times, calib = [], [calibration_loop() for _ in range(CAL_AROUND_PROBE)]
    for _ in range(repeats):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, probe] + list(models),
                              capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(done.stdout.split()[-1]) - t0)
        calib.extend(calibration_loop() for _ in range(CAL_AROUND_PROBE))
    seconds = statistics.median(times)
    return seconds / statistics.median(calib) * CAL_REFERENCE_S, seconds


def run_op(op, main):
    """(seconds, error or None) of one operation through cli.main."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(op.argv))
    except SystemExit as exc:     # argparse rejects the command line
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:             # noqa: BLE001 - any escape is a failure
        dt = time.perf_counter() - t0
        return dt, "exception escaped cli.main:\n" + traceback.format_exc()
    dt = time.perf_counter() - t0
    error = op.gate(code, out.getvalue())
    if error and err.getvalue().strip():
        error += " (stderr: %s)" % err.getvalue().strip()[-300:]
    return dt, error


def calibration_loop() -> float:
    """Seconds a fixed pure-Python integer loop takes, about 30 ms here.

    It is the unit `cal` of the end-to-end times.  It shares no code with
    covphase, so no change to the program moves it, and it allocates
    nothing, so the garbage the program leaves behind cannot slow it
    either; it only tracks how fast the machine runs Python right now.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


@dataclass
class Pass:
    wall: float
    results: List[tuple]      # (op, seconds, error) per operation
    calib: List[float]        # calibration loop, timed before each op

    @property
    def unit(self) -> float:
        """Seconds per `cal` during this pass."""
        return statistics.median(self.calib)


def run_pass(ops, main, on_op=None) -> Pass:
    t0 = time.perf_counter()
    results, calib = [], []
    for k, op in enumerate(ops):
        calib.append(calibration_loop())
        if on_op is not None:
            on_op(k)
        results.append((op,) + run_op(op, main))
    return Pass(time.perf_counter() - t0, results, calib)


def timed_passes(make_pass, main, seconds: float):
    """Run pass 0, 1, ... while the next one is expected to end within
    `seconds` plus half a pass; always at least one.  make_pass(p) gives
    pass p's ops."""
    begin = time.perf_counter()
    passes = []
    while True:
        passes.append(run_pass(make_pass(len(passes)).ops, main))
        typical = statistics.median(p.wall for p in passes)
        if time.perf_counter() - begin + typical / 2 > seconds:
            return passes


def failures(passes):
    return [{"op": op.name, "argv": list(op.argv), "error": err}
            for p in passes
            for op, _, err in p.results if err is not None]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# provenance

def git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the package sources, which identifies the code measured
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "covphase")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(filenames):
            if fn.endswith((".py", ".ini")):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, pkg).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy
    import scipy
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# one workload

def import_covphase():
    if not os.path.isfile(os.path.join(SRC, "covphase", "__init__.py")):
        raise BenchError("no covphase source tree at %s" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import covphase.cli
    where = os.path.dirname(os.path.abspath(covphase.__file__))
    if where != os.path.join(SRC, "covphase"):
        raise BenchError("imported covphase from %s, not from %s"
                         % (where, SRC))
    return covphase


def measure(make_pass, seconds: float, trace: int, setup_repeats: int,
            spans_path=None) -> dict:
    """Run one workload; the result dict minus provenance.

    make_pass(p) is the workload with the inputs of pass p: every pass
    draws fresh inputs, so a run's medians average over several samples
    of the seed-dependent work as well as over machine noise.
    """
    import tracing

    first = make_pass(0)
    covphase = import_covphase()
    for name in first.models:
        covphase.load_builtin(name)
    main = covphase.cli.main

    if not trace:
        setup_s, setup_raw_s = measure_setup(first.models, setup_repeats)
        passes = timed_passes(make_pass, main, seconds)

        def per_op(scale):
            # each op's median over the passes; summed, a pass's typical
            # wall time, which a burst of noise in one pass cannot move
            return [statistics.median(p.results[k][1] / scale(p)
                                      for p in passes)
                    for k in range(len(first.ops))]
        cal, sec = per_op(lambda p: p.unit), per_op(lambda p: 1.0)
        metrics = {"setup_s": setup_s, "wall_cal": sum(cal),
                   "peak_rss_mb": peak_rss_mb()}
        ungated = {"setup_raw_s": setup_raw_s,
                   "op_cal.p50": statistics.median(cal),
                   "op_cal.max": max(cal), "wall_s": sum(sec),
                   "op_s.p50": statistics.median(sec), "op_s.max": max(sec),
                   "cal_s": statistics.median(
                       c for p in passes for c in p.calib)}
        units = END_TO_END
        samples = {"ops": len(sec), "passes": len(passes)}
        op_table = {op.name: t for op, t in zip(first.ops, sec)}
    else:
        plain = run_pass(first.ops, main)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            def enter(k):
                tracer.op_id = k
            traced = run_pass(first.ops, tracer.cli_main, on_op=enter)
        finally:
            tracer.uninstall()
        passes = [plain, traced]
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_s"] = traced.wall - plain.wall
        ungated = {}
        metrics.update(tracing.omega_sizes())
        units = tracing.PER_LAYER
        samples = {"ops": len(first.ops), "passes": 1,
                   "spans": len(tracer.start)}
        op_table = {op.name: t for op, t, _ in traced.results}
        if spans_path is not None:
            tracer.write(spans_path)

    fails = failures(passes)
    attempted = sum(len(p.results) for p in passes)
    result_metrics = {}
    for name, unit in units.items():
        val = metrics[name]
        result_metrics[name] = {"value": val if isinstance(val, int)
                                else float(val), "unit": unit}
    return {"correct": not fails, "attempted": attempted,
            "failed": len(fails), "metrics": result_metrics,
            "ungated": ungated, "samples": samples, "op_seconds": op_table,
            "failures": fails}


def run_one(args) -> int:
    import workloads
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    spans = os.path.join(OUT_DIR, "spans-%s.json.gz" % stem) \
        if args.trace else None
    res = measure(lambda p: workloads.build(args.workload, args.seed, p),
                  args.seconds, args.trace, SETUP_REPEATS, spans)
    res["provenance"] = provenance(args.workload, args.seed, args.seconds,
                                   args.trace)
    with open(os.path.join(OUT_DIR, "result-%s.json" % stem), "w") as fh:
        json.dump(res, fh, indent=1, sort_keys=True)

    for name, m in res["metrics"].items():
        print("%-48s %14.6g %s" % (name, m["value"], m["unit"]))
    for name, val in res["ungated"].items():
        print("%-48s %14.6g %s (not gated)" % (name, val, UNGATED[name]))
    s = res["samples"]
    print("samples: %d ops x %d passes" % (s["ops"], s["passes"]))
    print("fail_frac: %.6g (%d of %d operations failed)"
          % (res["failed"] / res["attempted"], res["failed"],
             res["attempted"]))
    for f in res["failures"][:5]:
        print("FAILED %s: %s" % (f["op"], f["error"]), file=sys.stderr)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed",
                                          "metrics")}))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one at a time."""
    import workloads
    combined = {}
    for name in workloads.WORKLOADS:
        print("== %s" % name, flush=True)
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            return done.returncode or 1
        combined[name] = json.loads(lines[-1])
    print(json.dumps(combined))
    return 0


def parse_args(argv):
    import workloads
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_covphase()
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
