"""Fixed-seed `covphase verify --report json` output, byte for byte.

The 25 command lines are the verify ops of the benchmark at verify seed
5: the three framework suites on each curved model at one point, and on
each flat model (plus section1-general on flat-free) at 30 points.  Their
stdout was recorded once into tests/golden/verify_seed5.json; any change
to evaluation order or rounding shows up here as a byte difference.

Regenerate (only for an intended change of results) with

    PYTHONPATH=src python tests/test_golden.py

which first prints, for every check whose residual moved, the command
line, the check, the old and new `max_residual` and the tolerance, and a
`check added` or `check removed` line for every check that is in only
the new or only the old report of a command line.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from covphase import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "verify_seed5.json"
SEED = 5
CURVED = ("curved-galilei", "curved-gravity", "curved-einstein",
          "schwarzschild-like")
FLAT = ("flat-free", "uniform-b", "minkowski", "uniform-e")
KIND_SUITES = {
    "galilei": ("galilei-core", "galilei-brackets", "galilei-quantum"),
    "einstein": ("einstein-identities", "einstein-brackets",
                 "einstein-quantum"),
}
KIND = {"flat-free": "galilei", "uniform-b": "galilei",
        "curved-gravity": "galilei", "curved-galilei": "galilei",
        "minkowski": "einstein", "uniform-e": "einstein",
        "schwarzschild-like": "einstein", "curved-einstein": "einstein"}


def command_lines():
    runs = [(m, s, 1) for m in CURVED for s in KIND_SUITES[KIND[m]]]
    runs += [(m, s, 30) for m in FLAT for s in KIND_SUITES[KIND[m]]]
    runs.append(("flat-free", "section1-general", 30))
    return [["verify", "--model", m, "--suite", s, "--points", str(n),
             "--seed", str(SEED), "--report", "json"] for m, s, n in runs]


def run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def residual_moves(old: str, new: str):
    """(check, old max_residual, new max_residual, tolerance) for every
    check of two reports of one command line whose residual differs."""
    before = {c["name"]: c for c in json.loads(old)["checks"]}
    return [(c["name"], before[c["name"]]["max_residual"], c["max_residual"],
             c["tolerance"])
            for c in json.loads(new)["checks"]
            if c["name"] in before
            and c["max_residual"] != before[c["name"]]["max_residual"]]


def check_changes(old: str, new: str):
    """(added, removed): the names of the checks that only the new, or
    only the old, of two reports of one command line has, in report
    order."""
    before = [c["name"] for c in json.loads(old)["checks"]]
    after = [c["name"] for c in json.loads(new)["checks"]]
    return ([n for n in after if n not in before],
            [n for n in before if n not in after])


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_command_line(golden):
    assert sorted(golden) == sorted(" ".join(a) for a in command_lines())
    assert len(golden) == 25


@pytest.mark.parametrize("argv", command_lines(),
                         ids=lambda a: "%s/%s" % (a[2], a[4]))
def test_report_bytes_unchanged(golden, argv):
    code, out = run(argv)
    assert code == 0
    assert out == golden[" ".join(argv)]


def test_residual_moves_lists_only_the_checks_that_moved():
    def report(*residuals):
        return json.dumps({"checks": [
            {"name": "c%d" % k, "max_residual": r, "tolerance": 1e-8}
            for k, r in enumerate(residuals)]})
    assert residual_moves(report(1e-16, 2e-16, 0.0),
                          report(1e-16, 3e-16, 0.0)) \
        == [("c1", 2e-16, 3e-16, 1e-8)]
    assert residual_moves(report(1e-16), report(1e-16)) == []


def test_check_changes_lists_added_and_removed_checks():
    def report(*names):
        return json.dumps({"checks": [
            {"name": n, "max_residual": 0.0, "tolerance": 1e-8}
            for n in names]})
    assert check_changes(report("a", "b", "c"), report("a", "d", "c", "e")) \
        == (["d", "e"], ["b"])
    assert check_changes(report("a", "b"), report("b", "a")) == ([], [])


if __name__ == "__main__":
    previous = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    record = {}
    for argv in command_lines():
        code, out = run(argv)
        if code != 0:
            raise SystemExit("%s exited %d" % (" ".join(argv), code))
        key = " ".join(argv)
        record[key] = out
        if key in previous:
            added, removed = check_changes(previous[key], out)
            for check in added:
                print("%s  check added  %s" % (key, check))
            for check in removed:
                print("%s  check removed  %s" % (key, check))
            for check, old, new, tol in residual_moves(previous[key], out):
                print("%s  %s  %r -> %r  (tolerance %g)"
                      % (key, check, old, new, tol))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("wrote %d reports to %s" % (len(record), GOLDEN))
