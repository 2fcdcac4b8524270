"""Self-test of the covphase benchmark, at a tiny size (about 15 s).

    python3 perfbench/selftest.py

Asserts that BENCHMARK.json and run.py agree on every metric name and
unit; that a tiny untraced and a tiny traced run emit every metric with
its unit and pass the gate; that the gate trips on a forced check
failure, a usage error, a NaN residual, a missed orbit oracle and an
exception escaping cli.main; that the expression-size counts repeat
exactly; and that run.py exits non-zero, printing no result, where the
source tree is missing.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wls  # noqa: E402

SEED = 3


def check_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END, (e2e, run.END_TO_END)
    assert layers == tracing.PER_LAYER, set(layers) ^ set(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(wls.WORKLOADS)


def assert_metrics(result, units):
    got = result["metrics"]
    assert set(got) == set(units), set(got) ^ set(units)
    for name, unit in units.items():
        assert got[name]["unit"] == unit, (name, got[name])
        assert math.isfinite(got[name]["value"]), (name, got[name])


def tiny_workload(extra_ops=()):
    rng = np.random.default_rng(SEED)
    ops = (wls.verify_op("flat-free", "galilei-core", 2, SEED),
           wls.hyperbola_op(rng, duration=0.05)) + tuple(extra_ops)
    tiny = wls.Workload("tiny", ("flat-free", "uniform-e"), ops)
    return lambda p: tiny


def check_tiny_runs():
    res = run.measure(tiny_workload(), 0.1, 0, 1)
    assert res["correct"] and res["failed"] == 0, res["failures"]
    assert_metrics(res, run.END_TO_END)
    for name in run.END_TO_END:
        assert res["metrics"][name]["value"] > 0, name
    assert set(res["ungated"]) == set(run.UNGATED), res["ungated"]

    res = run.measure(tiny_workload(), 0.1, 1, 1)
    assert res["correct"], res["failures"]
    assert_metrics(res, tracing.PER_LAYER)
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["orbit.steps"] == 50 and m["orbit.rhs_calls"] == 200, m
    assert m["suites.checks_run"] == wls.SUITE_CHECKS["galilei-core"], m
    assert m["modelspec.omega_tree_nodes.flat-free"] == 27, m
    for name in ("modelspec.parse_s", "modelspec.validate_s",
                 "modelspec.eval_s", "smooth.value_s",
                 "suites.check_s.galilei-core", "orbit.integrate_s",
                 "orbit.residual_s", "report.emit_s", "cli.self_s"):
        assert m[name] > 0, name


def check_gate_trips():
    forced = wls.verify_op("flat-free", "galilei-core", 2, SEED,
                           extra=("--tol", "contact-kernel=-1"))
    usage = wls.verify_op("flat-free", "no-such-suite", 2, SEED)
    res = run.measure(tiny_workload((forced, usage)), 0.1, 0, 1)
    assert res["failed"] / res["attempted"] > 0 and not res["correct"]
    failed = {f["op"] for f in res["failures"]}
    assert failed == {forced.name, usage.name}, failed

    gate = wls.verify_op("flat-free", "galilei-core", 2, SEED).gate
    code, out = _run(["verify", "--model", "flat-free", "--suite",
                      "galilei-core", "--points", "2", "--seed", str(SEED),
                      "--report", "json"])
    assert gate(code, out) is None
    rep = json.loads(out)
    rep["checks"][0]["max_residual"] = float("nan")
    assert "not finite" in gate(0, json.dumps(rep))

    orbit = wls.hyperbola_op(np.random.default_rng(SEED), duration=0.05)
    code, out = _run(list(orbit.argv))
    assert orbit.gate(code, out) is None
    moved = re.sub(r"final position: \[[^\]]*\]",
                   "final position: [9. 9. 9. 9.]", out)
    assert "oracle" in orbit.gate(code, moved)
    assert "malformed" in orbit.gate(code, moved.replace("[9. ", "["))

    def boom(argv):
        raise ZeroDivisionError("inside the program")
    _, err = run.run_op(orbit, boom)
    assert err is not None and "ZeroDivisionError" in err


def _run(argv):
    import covphase.cli
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = covphase.cli.main(argv)
    return code, buf.getvalue()


def check_sizes_repeat():
    assert tracing.omega_sizes() == tracing.omega_sizes()


def check_bare_directory():
    """Only BENCHMARK.json and perfbench/: no source tree to measure."""
    bare = os.path.join(run.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "orbit",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0, done
    assert "correct" not in done.stdout, done.stdout


def main():
    run.import_covphase()
    for check in (check_benchmark_json, check_tiny_runs, check_gate_trips,
                  check_sizes_repeat, check_bare_directory):
        check()
        print("ok  %s" % check.__name__, flush=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
