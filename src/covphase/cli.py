"""Command line front end.

Two subcommands:

verify  runs one named check suite against a model file and prints the
        report (text table or JSON).  Exit code 0 when every check
        passes, 1 when some check fails, 2 for usage or validation
        problems (unknown suite, framework mismatch, bad or malformed
        model file, bad tolerance override, a --points count outside
        1..MAX_POINTS).

orbit   integrates the dynamical flow of a model from given initial
        data and prints a trajectory summary with the worst law-of-
        motion residual.  The model's kind decides what is integrated;
        the required --framework (g, e, galilei or einstein) is checked
        against it here, in `resolve_framework`.  A framework that does
        not match the model, non-finite initial data, an initial point
        out of the box (beyond orbit.BOX_SLACK) or not timelike, a
        duration or step that is not positive and finite, and fewer than
        2 or more than orbit.MAX_ORBIT_STEPS steps are usage errors (exit
        code 2); a trajectory that escapes the declared box or the
        lightcone, reaches a non-finite state, or meets a point where a
        field cannot be evaluated (division by zero, overflow, square
        root of a negative value) ends the run with exit code 1.

Models are addressed by file path; the names of the shipped builtin
models are accepted as a convenience.

verify imports the suites and the report writer when it runs, so that
orbit, in its own fresh process, loads only the modules it runs.
"""

import argparse
import sys

import numpy as np

from .einstein import EinsteinPhase
from .modelspec import Model, ValidationError, resolve_model
from .orbit import BoxExit, initial_state, integrate_orbit, step_count


def _parse_tols(items) -> dict:
    out = {}
    for item in items or []:
        name, sep, val = item.partition("=")
        if not sep:
            raise ValueError("bad --tol entry %r (want name=value)" % item)
        try:
            out[name] = float(val)
        except ValueError:
            raise ValueError("bad --tol value in %r" % item) from None
    return out


def resolve_framework(model: Model, framework: str) -> str:
    """framework ("galilei" or "einstein", or their initials) in full;
    ValueError when it does not match the model kind."""
    fw = {"g": "galilei", "e": "einstein"}.get(framework, framework)
    if fw != model.kind:
        raise ValueError("framework %r does not match model kind %r"
                         % (framework, model.kind))
    return fw


def _cmd_verify(args) -> int:
    from .report import emit_report
    from .suites import run_suite
    try:
        tols = _parse_tols(args.tol)
        report = run_suite(args.model, args.suite, points=args.points,
                           seed=args.seed, tol_overrides=tols)
    except (ValueError, OSError, ValidationError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    sys.stdout.write(emit_report(report, args.report).decode("utf-8"))
    if args.report == "json":
        sys.stdout.write("\n")
    return 0 if report.all_passed() else 1


def _cmd_orbit(args) -> int:
    try:
        model = resolve_model(args.model)
        fw = resolve_framework(model, args.framework)
        state = initial_state(model, args.x0, args.v)
        step_count(args.duration, args.step)
        if fw == "einstein":
            EinsteinPhase(model).require_timelike(state)
    except (ValueError, ArithmeticError, OSError, ValidationError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    try:
        res = integrate_orbit(model, args.x0, args.v, args.duration,
                              args.step)
    except (BoxExit, ValueError, ArithmeticError) as exc:
        # ValueError here is a LightconeViolation or a failed sqrt or
        # fractional power: the usage was checked above
        print("orbit aborted: %s" % exc, file=sys.stderr)
        return 1
    final = res.states[-1]
    print("steps: %d   parameter span: %.6g" % (len(res.states) - 1,
                                                res.times[-1]))
    print("final position: %s" % np.array2string(final[:4], precision=8))
    print("final velocity: %s" % np.array2string(final[4:7], precision=8))
    print("max law-of-motion residual: %.3e" % res.max_law_residual)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="covphase",
        description="verification suites and orbit integration for the "
                    "covariant phase-space models")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a named check suite")
    v.add_argument("--model", required=True,
                   help="model file path (or builtin model name)")
    v.add_argument("--suite", required=True,
                   help="check suite name (an unknown name lists them)")
    v.add_argument("--points", type=int, default=100,
                   help="number of sample phase points (default 100)")
    v.add_argument("--seed", type=int, default=0,
                   help="PRNG seed (default 0)")
    v.add_argument("--tol", nargs="+", action="extend", default=[],
                   metavar="NAME=VALUE",
                   help="override the tolerance of individual checks")
    v.add_argument("--report", choices=("text", "json"), default="text")
    v.set_defaults(func=_cmd_verify)

    o = sub.add_parser("orbit", help="integrate the dynamical flow")
    o.add_argument("--model", required=True)
    o.add_argument("--framework", required=True,
                   choices=("g", "e", "galilei", "einstein"))
    o.add_argument("--x0", type=float, nargs=4, required=True,
                   metavar="X", help="initial spacetime position")
    o.add_argument("--v", type=float, nargs=3, required=True,
                   metavar="V", help="initial observed velocity")
    o.add_argument("--duration", type=float, required=True)
    o.add_argument("--step", type=float, default=1e-3)
    o.set_defaults(func=_cmd_orbit)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
