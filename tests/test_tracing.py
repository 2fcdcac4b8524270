"""The package names that the benchmark's tracer (`perfbench/tracing.py`)
binds: a deletion or rename of one of them fails here, not only in the
benchmark's self-test."""

import importlib
import sys
from pathlib import Path

import pytest

from covphase import modelspec, orbit, smooth, suites
from covphase.galilei import GalileiPhase

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def bindings():
    """What the tracer patches: `FuncField.jet`, `ExprField.partial`,
    `orbit._rk4` and each registered suite."""
    return [vars(smooth.FuncField)["jet"], modelspec.ExprField.partial,
            orbit._rk4, *suites.SUITES.values()]


def test_install_then_uninstall_restores_the_bindings(tracing):
    before = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = bindings()
    finally:
        tracer.uninstall()
    after = bindings()
    assert all(new is not old for old, new in zip(before, during))
    assert len(after) == len(before)
    assert all(new is old for old, new in zip(before, after))


def test_expression_sizes_read_the_forms(tracing):
    omega = GalileiPhase(modelspec.load_builtin("flat-free")).cosymplectic()
    assert tracing.expression_sizes(tracing._form_nodes(omega)) \
        == {"tree": 27, "dag": 12}
