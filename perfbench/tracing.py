"""Layer tracing for the covphase benchmark, done from outside the package.

`Tracer.install()` wraps the public entry points of each covphase module
at every place a caller binds them (module attributes, class attributes,
the suite registry) and `uninstall()` puts the originals back.  Each
wrapped call opens a span (name, start, end, parent, operation id) kept
in memory; for a recursive or self-nesting entry point only the outermost
call opens one.  Spans are written out once, when the run ends.

Layer metrics are derived from the spans afterwards: `*_s` is the busy
time of the outermost calls (inclusive of what they call), except the
`build_s`, `identity_s` and `self_s` metrics, which are self time (span
time minus the time of the spans it opened).  Everything runs on one
thread, so there is no waiting to report.
"""

import dataclasses
import gzip
import json
import sys
import time
from array import array
from collections import Counter
from inspect import isfunction
from typing import Dict, List

import numpy as np

from workloads import MODEL_KINDS, SUITE_CHECKS

SUITE_NAMES = tuple(SUITE_CHECKS)      # the suites the workloads run
ALL_MODELS = tuple(MODEL_KINDS)        # every shipped model


def _per_layer_units() -> Dict[str, str]:
    units = {}
    for name in ("modelspec.parse_s", "modelspec.validate_s",
                 "modelspec.diff_calls", "modelspec.diff_s",
                 "modelspec.subst_calls", "modelspec.subst_s",
                 "modelspec.eval_calls", "modelspec.eval_s"):
        units[name] = "count" if name.endswith("_calls") else "s"
    for label in ("omega", "domega"):
        for kind in ("tree", "dag"):
            for model in ALL_MODELS:
                units["modelspec.%s_%s_nodes.%s" % (label, kind, model)] = \
                    "count"
    units.update({"smooth.value_calls": "count", "smooth.value_s": "s",
                  "smooth.forms_s": "s", "smooth.closure_eval_calls": "count",
                  "galilei.build_s": "s", "einstein.build_s": "s",
                  "einstein.identity_s": "s", "quantum.build_s": "s"})
    for suite in SUITE_NAMES:
        units["suites.check_s.%s" % suite] = "s"
    units.update({"suites.self_s": "s", "suites.checks_run": "count",
                  "suites.point_evals": "count", "orbit.steps": "count",
                  "orbit.rhs_calls": "count", "orbit.integrate_s": "s",
                  "orbit.residual_s": "s", "report.emit_s": "s",
                  "cli.self_s": "s", "trace.overhead_s": "s"})
    return units


PER_LAYER = _per_layer_units()

# EinsteinPhase methods that evaluate at a point rather than build
# structure: their time belongs to the caller (orbit stepping, cli).
_EINSTEIN_POINTWISE = {"orbit_rhs", "law_residual", "require_timelike"}


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: List[int] = []
        self._active: Dict[str, bool] = {}
        self._restore = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, fn, name: str, group: str = None):
        """fn wrapped so each call opens a span; with a group, only the
        outermost call among the group's entry points does."""
        nid = self._name_id(name)
        active = self._active
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if group is not None:
                if active.get(group):
                    return fn(*args, **kwargs)
                active[group] = True
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
                if group is not None:
                    active[group] = False
        return wrapper

    # -- patching -------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_function(self, fn, name, group=None, skip=()):
        """Replace fn in every covphase module that binds it by name."""
        wrapped = self.span(fn, name, group)
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("covphase") or mod in skip:
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._set(mod, attr, wrapped)

    def _patch_method(self, cls, attr, name, group=None):
        self._set(cls, attr, self.span(vars(cls)[attr], name, group))

    def install(self) -> None:
        from covphase import (cli, einstein, galilei, modelspec, orbit,
                              quantum, report, smooth, suites)

        self._patch_function(modelspec.parse_model_text, "modelspec.parse")
        self._patch_function(modelspec.validate_model, "modelspec.validate")
        self._patch_method(modelspec.ExprField, "partial", "modelspec.diff",
                           "diff")
        self._patch_method(modelspec.ExprField, "jet", "modelspec.eval",
                           "eval")
        # substitute recurses through its own module global; patching only
        # the callers' bindings keeps the wrapper off every inner node
        self._patch_function(modelspec.substitute, "modelspec.subst",
                             "subst", skip=(modelspec,))

        for cls, attr in ((smooth.Field, "value"), (smooth.VectorField, "at"),
                          (smooth.PForm, "evaluate")):
            self._patch_method(cls, attr, "smooth.value", "value")
        for fn in (smooth.exterior_derivative, smooth.wedge, smooth.contract,
                   smooth.lie_bracket, smooth.directional):
            self._patch_function(fn, "smooth.forms", "forms")
        self._patch_method(smooth.FuncField, "jet", "smooth.closure_eval",
                           "closure")

        for attr, fn in list(vars(galilei.GalileiPhase).items()):
            if isfunction(fn) and (attr == "__init__"
                                   or not attr.startswith("_")):
                self._patch_method(galilei.GalileiPhase, attr,
                                   "galilei.build")
        for attr, fn in list(vars(einstein.EinsteinPhase).items()):
            if not isfunction(fn) or attr in _EINSTEIN_POINTWISE:
                continue
            if attr == "identity_residuals":
                self._patch_method(einstein.EinsteinPhase, attr,
                                   "einstein.identity")
            elif attr == "__init__" or not attr.startswith("_"):
                self._patch_method(einstein.EinsteinPhase, attr,
                                   "einstein.build")
        for attr, fn in list(vars(quantum).items()):
            if (isfunction(fn) and not attr.startswith("_")
                    and fn.__module__ == quantum.__name__):
                self._patch_function(fn, "quantum.build")

        self._patch_function(suites.run_suite, "suites.run")
        for sname, suite in list(suites.SUITES.items()):
            checks = tuple(
                dataclasses.replace(c, runner=self.span(
                    c.runner, "suites.check/%s/%s" % (sname, c.name)))
                for c in suite.checks)
            self._restore.append((suites.SUITES, sname, suite))
            suites.SUITES[sname] = dataclasses.replace(suite, checks=checks)

        self._patch_function(orbit.integrate_orbit, "orbit.integrate")
        self._patch_function(orbit._galilei_residuals, "orbit.residual")
        self._patch_function(orbit._einstein_residuals, "orbit.residual")
        self._set(orbit, "_rk4", self._counted_rk4(orbit._rk4))

        self._patch_function(report.emit_report, "report.emit")
        self.cli_main = self.span(cli.main, "cli.main")

    def _counted_rk4(self, rk4):
        counts = self.counts

        def step(rhs, state, h):
            def counted_rhs(s):
                counts["orbit.rhs_calls"] += 1
                return rhs(s)
            counts["orbit.steps"] += 1
            return rk4(counted_rhs, state, h)
        return step

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, val = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = val
            else:
                setattr(owner, attr, val)

    # -- output ---------------------------------------------------------------

    def write(self, path) -> None:
        """All spans as gzip'd JSON columns; times in seconds."""
        t0 = self.start[0] if len(self.start) else 0.0
        doc = {"names": self.names,
               "name": list(self.name_of), "parent": list(self.parent),
               "op": list(self.op),
               "start": [round(t - t0, 9) for t in self.start],
               "end": [round(t - t0, 9) for t in self.end],
               "counts": dict(self.counts)}
        with gzip.open(path, "wt", encoding="ascii") as fh:
            json.dump(doc, fh, separators=(",", ":"))

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer busy times and counts over every recorded span."""
        name = np.frombuffer(self.name_of, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        n = len(dur)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n) if n else np.zeros(0)
        self_time = dur - child
        by_name = {nm: i for i, nm in enumerate(self.names)}

        def mask(pred):
            ids = [i for nm, i in by_name.items() if pred(nm)]
            return np.isin(name, ids)

        def incl(nm):
            return float(dur[mask(lambda x: x == nm)].sum())

        def calls(nm):
            return int(mask(lambda x: x == nm).sum())

        def self_of(pred):
            return float(self_time[mask(pred)].sum())

        # point evaluations requested from inside a suite check
        is_check = mask(lambda x: x.startswith("suites.check/"))
        in_check = np.zeros(n, dtype=bool)
        for i in range(n):
            p = parent[i]
            in_check[i] = is_check[i] or (p >= 0 and in_check[p])
        is_value = mask(lambda x: x == "smooth.value")

        out = {
            "modelspec.parse_s": incl("modelspec.parse"),
            "modelspec.validate_s": incl("modelspec.validate"),
            "modelspec.diff_calls": calls("modelspec.diff"),
            "modelspec.diff_s": incl("modelspec.diff"),
            "modelspec.subst_calls": calls("modelspec.subst"),
            "modelspec.subst_s": incl("modelspec.subst"),
            "modelspec.eval_calls": calls("modelspec.eval"),
            "modelspec.eval_s": incl("modelspec.eval"),
            "smooth.value_calls": calls("smooth.value"),
            "smooth.value_s": incl("smooth.value"),
            "smooth.forms_s": incl("smooth.forms"),
            "smooth.closure_eval_calls": calls("smooth.closure_eval"),
            "galilei.build_s": self_of(lambda x: x == "galilei.build"),
            "einstein.build_s": self_of(lambda x: x == "einstein.build"),
            "einstein.identity_s": self_of(
                lambda x: x == "einstein.identity"),
            "quantum.build_s": self_of(lambda x: x == "quantum.build"),
        }
        for sname in SUITE_NAMES:
            prefix = "suites.check/%s/" % sname
            out["suites.check_s.%s" % sname] = float(
                dur[mask(lambda x: x.startswith(prefix))].sum())
        out["suites.self_s"] = self_of(
            lambda x: x == "suites.run" or x.startswith("suites.check/"))
        out["suites.checks_run"] = int(is_check.sum())
        out["suites.point_evals"] = int((in_check & is_value).sum())
        residual = incl("orbit.residual")
        out["orbit.steps"] = self.counts["orbit.steps"]
        out["orbit.rhs_calls"] = self.counts["orbit.rhs_calls"]
        out["orbit.integrate_s"] = incl("orbit.integrate") - residual
        out["orbit.residual_s"] = residual
        out["report.emit_s"] = incl("report.emit")
        out["cli.self_s"] = self_of(lambda x: x == "cli.main")
        return out


# ---------------------------------------------------------------------------
# expression sizes

def _children(node):
    from covphase.modelspec import BinOp, Call, Neg, Pow
    if isinstance(node, BinOp):
        return (node.left, node.right)
    if isinstance(node, (Neg, Call)):
        return (node.arg,)
    if isinstance(node, Pow):
        return (node.base,)
    return ()


def expression_sizes(roots) -> Dict[str, int]:
    """Tree size and shared DAG size of a set of expressions.

    The tree size counts every node of every root as if nothing were
    shared; the DAG size counts the distinct node objects, which is what
    the trees hold in memory and what one memoized evaluation visits.
    Iterative, so deep trees need no recursion limit.
    """
    size: Dict[int, int] = {}   # id(node) -> tree size below and at node
    tree = 0
    for root in roots:
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in size:
                continue
            kids = _children(node)
            if kids and not expanded:
                stack.append((node, True))
                stack.extend((k, False) for k in kids if id(k) not in size)
                continue
            size[id(node)] = 1 + sum(size[id(k)] for k in kids)
        tree += size[id(root)]
    return {"tree": tree, "dag": len(size)}


def _form_nodes(form):
    from covphase.modelspec import ExprField
    from covphase.smooth import BoxedField
    nodes = []
    for fld in form.comps.values():
        while isinstance(fld, BoxedField):
            fld = fld.base
        if not isinstance(fld, ExprField):
            raise TypeError("component %r is not an expression" % (fld,))
        nodes.append(fld.node)
    return nodes


def omega_sizes() -> Dict[str, int]:
    """Node counts of Omega and d Omega for every shipped model."""
    from covphase import EinsteinPhase, GalileiPhase, load_builtin
    from covphase.smooth import exterior_derivative
    out = {}
    for model_name in ALL_MODELS:
        model = load_builtin(model_name)
        cls = GalileiPhase if model.kind == "galilei" else EinsteinPhase
        omega = cls(model).cosymplectic()
        for label, form in (("omega", omega),
                            ("domega", exterior_derivative(omega))):
            sizes = expression_sizes(_form_nodes(form))
            for kind, count in sizes.items():
                out["modelspec.%s_%s_nodes.%s" % (label, kind,
                                                  model_name)] = count
    return out
