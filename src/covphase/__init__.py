"""Covariant phase-space structures on Galilei and Einstein spacetimes.

The package builds, from a chart-level model file, the phase-space
geometry of a classical spacetime (contact structure, joined connection,
cosymplectic pair, special phase functions and their bracket) and the
representation of special functions by Hermitian vector fields of a
quantum line bundle.  Every structural law it claims is registered as a
named check in `covphase.suites` and runnable through the `covphase`
command line tool.  The names of `__all__` are imported on first use
(PEP 562), so that `covphase orbit` loads no suite code.
"""

from importlib import import_module

__version__ = "0.1.0"

__all__ = [
    "Model", "load_builtin", "load_model",
    "GalileiPhase", "EinsteinPhase",
    "integrate_orbit", "run_suite", "suite_names",
]

# the module of the package that defines each name of __all__
_HOME = {"Model": "modelspec", "load_builtin": "modelspec",
         "load_model": "modelspec", "GalileiPhase": "galilei",
         "EinsteinPhase": "einstein", "integrate_orbit": "orbit",
         "run_suite": "suites", "suite_names": "suites"}


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError("module 'covphase' has no attribute %r" % name)
    return getattr(import_module("covphase." + _HOME[name]), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
