"""Fixed-seed `covphase verify --report json` output, byte for byte.

The 25 command lines are the verify ops of the benchmark at verify seed
5: the three framework suites on each curved model at one point, and on
each flat model (plus section1-general on flat-free) at 30 points.  Their
stdout was recorded once into tests/golden/verify_seed5.json; any change
to evaluation order or rounding shows up here as a byte difference.

Regenerate (only for an intended change of results) with

    PYTHONPATH=src python tests/test_golden.py
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


if __name__ == "__main__":
    record = {}
    for argv in command_lines():
        code, out = run(argv)
        if code != 0:
            raise SystemExit("%s exited %d" % (" ".join(argv), code))
        record[" ".join(argv)] = out
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("wrote %d reports to %s" % (len(record), GOLDEN))
