"""Tests for the verification harness: suites, reports, orbits, CLI.

Covers the suite registry, determinism of the structured report, the
orbit oracles, and the CLI exit-code protocol.
"""

import ast
import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from covphase.einstein import EinsteinPhase, LightconeViolation
from covphase.modelspec import (
    Call, Num, Var, available_models, builtin_model_dir, load_builtin,
    parse_model_text,
)
from covphase.orbit import BoxExit, OrbitResult, integrate_orbit
from covphase.report import CheckRecord, SuiteReport, emit_report
from covphase.smooth import PForm, VectorField
from covphase import cli, modelspec, orbit, smooth, suites as su


class TestRegistry:
    def test_fixed_suite_names(self):
        assert su.suite_names() == [
            "galilei-core", "galilei-brackets", "galilei-quantum",
            "einstein-identities", "einstein-brackets", "einstein-quantum",
            "section1-general", "orbits",
        ]

    def test_check_names_unique_within_suite(self):
        for suite in su.SUITES.values():
            names = [c.name for c in suite.checks]
            assert len(names) == len(set(names))

    def test_framework_tags(self):
        assert su.SUITES["galilei-core"].framework == "galilei"
        assert su.SUITES["einstein-brackets"].framework == "einstein"
        assert su.SUITES["section1-general"].framework == "any"
        assert su.SUITES["orbits"].framework == "any"


SRC = Path(__file__).resolve().parent.parent / "src" / "covphase"

# Names that no code in src/ references, each kept for a reason.
UNREFERENCED_ALLOWED = {
    "smooth.PForm.evaluate":
        "perfbench/tracing.py patches it by name until telemetry is in src/",
    "smooth.VectorField.at":
        "perfbench/tracing.py patches it by name until telemetry is in src/",
    "galilei.GalileiPhase.momentum_square_function":
        "the acceptance criteria represent it",
    "galilei.GalileiPhase.coordinate_function":
        "a distinguished special function of the paper",
    "galilei.GalileiPhase.hamiltonian_function":
        "a distinguished special function of the paper",
    "galilei.GalileiPhase.momentum_function":
        "a distinguished special function of the paper",
    "einstein.EinsteinPhase.coordinate_function":
        "a distinguished special function of the paper",
    "einstein.EinsteinPhase.hamiltonian_function":
        "a distinguished special function of the paper",
    "einstein.EinsteinPhase.momentum_function":
        "a distinguished special function of the paper",
    "quantum.galilei_inverse_map":
        "the inverse half of the isomorphism, still to be certified",
    "quantum.einstein_inverse_map":
        "the inverse half of the isomorphism, still to be certified",
    "quantum.lie_derivative_hermitian_metric":
        "Hermitian-metric preservation, still to be certified",
    "quantum.metric_derivative_defect":
        "Hermitian-metric preservation, still to be certified",
    "smooth.FuncField":
        "a name only: perfbench/tracing.py patches its jet by name",
    "smooth.BoxedField":
        "a name only: perfbench/tracing.py tests form components against it",
    "modelspec.to_text":
        "the tests compare and round-trip expressions by their text",
}


# a module's attribute hooks, which only the interpreter calls (PEP 562)
MODULE_HOOKS = ("__getattr__", "__dir__")


def unreferenced_names(src=SRC):
    """Qualified names of the module-level functions and classes, public
    or private, and the public methods of the modules in src (by default
    src/covphase) that no code there references outside their own
    definition.  A module's MODULE_HOOKS count as used.

    A module-level function or class is referenced by its bare name, by
    an import of it, or as `<module alias>.<name>` of a package module
    imported under that alias, so a method of the same spelling
    (`SuiteReport.to_text` beside `modelspec.to_text`) does not count.  A
    method is referenced by any name, attribute or import of its
    spelling: its receiver's type is not known here, so a dead method
    that shares its spelling with a live one passes."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))}
    plain, attrs = {}, {}
    for tree in trees.values():
        # `from . import quantum as qt` binds qt to a package module
        aliases = {a.asname or a.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level
                   and node.module is None for a in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                plain.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.alias):
                plain.setdefault(node.name, []).append(node)
            elif isinstance(node, ast.Attribute):
                attrs.setdefault(node.attr, []).append(node)
                if isinstance(node.value, ast.Name) \
                        and node.value.id in aliases:
                    plain.setdefault(node.attr, []).append(node)
    kinds = (ast.FunctionDef, ast.ClassDef)
    defs = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, kinds) and node.name not in MODULE_HOOKS:
                defs.append(("%s.%s" % (module, node.name), node,
                             plain.get(node.name, [])))
                if isinstance(node, ast.ClassDef):
                    defs += [("%s.%s.%s" % (module, node.name, sub.name), sub,
                              plain.get(sub.name, [])
                              + attrs.get(sub.name, []))
                             for sub in node.body if isinstance(sub, kinds)
                             and not sub.name.startswith("_")]
    out = []
    for qualname, node, refs in defs:
        inside = set(map(id, ast.walk(node)))
        if all(id(r) in inside for r in refs):
            out.append(qualname)
    return out


def unused_imports():
    """`<module>.<name>` for each name that a module of src/covphase
    imports and never reads.  A name is read by a load of it,
    bare or as the root of an attribute chain, by a mention in a string
    annotation, or by an entry of the module's `__all__`.  An import
    `name as name` re-exports name on purpose, and counts as read."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = [(a.asname or a.name).partition(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for a in node.names if a.asname != a.name]
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            notes = []
            if isinstance(node, ast.FunctionDef):
                args = node.args.args + node.args.kwonlyargs
                notes = [a.annotation for a in args] + [node.returns]
            elif isinstance(node, ast.AnnAssign):
                notes = [node.annotation]
            for note in filter(None, notes):
                for text in ast.walk(note):
                    if isinstance(text, ast.Constant) \
                            and isinstance(text.value, str):
                        used.update(n.id for n in ast.walk(ast.parse(
                            text.value, mode="eval"))
                            if isinstance(n, ast.Name))
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                used.update(ast.literal_eval(node.value))
        out += ["%s.%s" % (path.stem, name) for name in imported
                if name not in used]
    return out


README = SRC.parent.parent / "README.md"


def test_readme_library_snippet_runs(capsys):
    # the ```python block under "## Library use", run as written
    section = README.read_text().split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("suite: galilei-brackets   model: uniform-b")
    assert "result: PASS (4/4 checks)" in out


class TestApiSurface:
    def test_no_module_imports_a_name_it_never_reads(self):
        assert unused_imports() == []

    def test_every_public_name_is_used_or_allowed(self):
        # code that only tests call, or nothing calls, goes; a name kept
        # on purpose is listed above with its reason
        extra = [n for n in unreferenced_names()
                 if n not in UNREFERENCED_ALLOWED]
        assert extra == []

    def test_allowed_names_are_still_unreferenced(self):
        # once src/ uses an allowed name (or it is gone), its entry goes
        assert sorted(UNREFERENCED_ALLOWED) \
            == sorted(unreferenced_names())

    def test_module_attribute_hooks_count_as_used(self, tmp_path):
        (tmp_path / "lazy.py").write_text(
            "def __getattr__(name):\n"
            "    raise AttributeError(name)\n"
            "def __dir__():\n"
            "    return []\n"
            "def helper():\n"
            "    pass\n"
            "class Box:\n"
            "    def __dir__(self):\n"
            "        return []\n")
        assert unreferenced_names(tmp_path) == ["lazy.helper", "lazy.Box"]

    def test_package_names_resolve(self):
        import covphase
        for name in covphase.__all__:
            value = getattr(covphase, name)
            assert getattr(sys.modules[value.__module__], name) is value
        assert set(covphase.__all__) <= set(dir(covphase))
        with pytest.raises(AttributeError, match="no_such_name"):
            covphase.no_such_name


class TestRunSuite:
    def test_galilei_core_passes(self):
        rep = su.run_suite("flat-free", "galilei-core", points=12, seed=42)
        assert rep.all_passed()
        assert rep.model == "flat-free" and rep.seed == 42

    def test_einstein_identities_pass(self):
        rep = su.run_suite("uniform-e", "einstein-identities",
                           points=12, seed=7)
        assert rep.all_passed()

    def test_unknown_suite(self):
        with pytest.raises(su.UnknownSuiteError):
            su.run_suite("flat-free", "galilei-weird", points=4)

    def test_framework_mismatch(self):
        with pytest.raises(su.FrameworkMismatchError):
            su.run_suite("minkowski", "galilei-core", points=4)
        with pytest.raises(su.FrameworkMismatchError):
            su.run_suite("flat-free", "einstein-brackets", points=4)

    def test_orbits_suite_runs_its_own_models(self):
        # the runners integrate flat-free, uniform-b and uniform-e whatever
        # model they are given; the report names the model it was given
        rep = su.run_suite("minkowski", "orbits", points=1)
        assert rep.model == "minkowski"
        assert [r.name for r in rep.records] == [
            "orbit-free-straight-line", "orbit-cyclotron-radius",
            "orbit-hyperbolic-worldline"]
        assert rep.all_passed()
        other = su.run_suite("curved-galilei", "orbits", points=1)
        assert [r.residual for r in other.records] \
            == [r.residual for r in rep.records]

    def test_any_framework_accepts_both(self):
        a = su.run_suite("flat-free", "section1-general", points=8, seed=1)
        b = su.run_suite("minkowski", "section1-general", points=8, seed=1)
        assert a.all_passed() and b.all_passed()

    def test_unknown_tolerance_override(self):
        with pytest.raises(ValueError):
            su.run_suite("flat-free", "galilei-core", points=4,
                         tol_overrides={"no-such-check": 1.0})

    def test_points_above_the_ceiling_are_refused(self):
        with pytest.raises(ValueError, match="must be at most %d, got %d"
                           % (su.MAX_POINTS, su.MAX_POINTS + 1)):
            su.run_suite("flat-free", "galilei-core",
                         points=su.MAX_POINTS + 1)

    def test_tolerance_override_causes_failure(self):
        rep = su.run_suite("flat-free", "galilei-brackets", points=6, seed=2,
                           tol_overrides={"bracket-jacobi": 1e-30})
        assert not rep.all_passed()
        failing = [r for r in rep.records if not r.passed]
        assert [r.name for r in failing] == ["bracket-jacobi"]

    def test_reports_are_byte_identical(self):
        a = su.run_suite("uniform-b", "galilei-core", points=10, seed=5)
        b = su.run_suite("uniform-b", "galilei-core", points=10, seed=5)
        assert emit_report(a, "json") == emit_report(b, "json")
        assert emit_report(a, "text") == emit_report(b, "text")

    @pytest.mark.parametrize("check", ["contact-time-normalization",
                                       "connection-torsion-free",
                                       "cosymplectic-volume"])
    def test_nan_residual_is_a_failed_record(self, monkeypatch, check):
        # every field is 0 at the first point and NaN at the second, where
        # max(0.0, nan) == 0.0 (and min(1.0, nan) == 1.0) used to pass:
        # 1 / (inf * (|x1| - x1)) is 1 / inf at x1 < 0 and 1 / (inf * 0)
        # at x1 > 0
        x1 = Var(1)
        late_nan = Num(1.0) / (Num(math.inf) * (Call("abs", x1) - x1))
        late_one = late_nan + 1.0
        assert late_nan.values([[0.0, -0.5, 0, 0], [0.0, 0.5, 0, 0]]) \
            .tolist()[0] == 0.0
        stub = SimpleNamespace(
            K=lambda lam, nu, mu: late_nan,
            dynamical_vector=lambda: VectorField([late_one] * 7),
            cosymplectic=lambda: PForm(7, 2, {(a, a + 1): late_one
                                              for a in range(6)}))
        monkeypatch.setattr(su._Ctx, "phase", stub)
        monkeypatch.setattr(su._Ctx, "points", np.array(
            [[0.0, -0.5, 0, 0, 0, 0, 0], [0.0, 0.5, 0, 0, 0, 0, 0]]))
        probe = [c for c in su.SUITES["galilei-core"].checks
                 if c.name == check]
        monkeypatch.setitem(su.SUITES, "nan-probe",
                            su.Suite("nan-probe", "any", tuple(probe)))
        rep = su.run_suite("flat-free", "nan-probe", points=2)
        rec, = rep.records
        assert math.isnan(rec.residual)
        assert not rec.passed and not rep.all_passed()
        assert '"all_pass":false' in emit_report(rep, "json").decode()

    @pytest.mark.parametrize("name", ["flat-free", "curved-galilei",
                                      "uniform-e", "curved-einstein"])
    def test_no_suite_builds_a_closure(self, monkeypatch, name):
        # every field a check evaluates is an expression node, the lift
        # witness's sums over absent bivector components included
        def refuse(self, fn):
            raise AssertionError("closure field built")

        monkeypatch.setattr(smooth.FuncField, "__init__", refuse)
        model = load_builtin(name)
        for suite in su.suite_names():
            if su.SUITES[suite].framework in ("any", model.kind):
                assert su.run_suite(model, suite, points=1, seed=3).records

    def test_reports_depend_on_seed(self):
        a = su.run_suite("uniform-b", "galilei-brackets", points=8, seed=5)
        b = su.run_suite("uniform-b", "galilei-brackets", points=8, seed=6)
        assert emit_report(a, "json") != emit_report(b, "json")


class TestReport:
    def make(self):
        recs = [CheckRecord("alpha", "a = b", 1e-12, 1e-9),
                CheckRecord("beta", "c = d", 2e-3, 1e-8)]
        return SuiteReport("demo", "model-x", 3, 10, recs, wall_time=1.25)

    def test_pass_flag_matches_tolerance(self):
        rep = self.make()
        assert rep.records[0].passed and not rep.records[1].passed
        assert not rep.all_passed()

    def test_json_shape(self):
        doc = json.loads(emit_report(self.make(), "json"))
        assert doc["suite"] == "demo" and doc["model"] == "model-x"
        assert doc["seed"] == 3 and doc["points"] == 10
        assert [c["name"] for c in doc["checks"]] == ["alpha", "beta"]
        assert doc["checks"][1]["pass"] is False
        assert doc["all_pass"] is False
        assert "wall" not in emit_report(self.make(), "json").decode()

    def test_text_flags_failures(self):
        text = emit_report(self.make(), "text").decode()
        assert "[FAIL] beta" in text and "[pass] alpha" in text
        assert "result: FAIL (1/2 checks)" in text

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report(self.make(), "yaml")


class TestOrbit:
    def test_free_motion_is_straight(self):
        model = load_builtin("flat-free")
        res = integrate_orbit(model, [0, -0.5, 0, 0], [0.6, 0, 0],
                              1.0, 1e-3)
        line = np.array([0, -0.5, 0, 0]) + np.outer(res.times,
                                                    [1, 0.6, 0, 0])
        assert np.max(np.abs(res.states[:, :4] - line)) < 1e-12
        assert res.max_law_residual < 1e-12

    def test_cyclotron_radius(self):
        model = load_builtin("uniform-b")
        period = np.pi  # 2 pi m / (q B) with B = 2
        res = integrate_orbit(model, [0, 0, 0, 0], [0.5, 0, 0],
                              period, 1e-3)
        for i in (1, 2):
            spread = res.states[:, i].max() - res.states[:, i].min()
            assert abs(spread / 2.0 - 0.25) / 0.25 < 1e-5

    def test_hyperbolic_motion(self):
        model = load_builtin("uniform-e")
        res = integrate_orbit(model, [0, 0, 0, 0], [0, 0, 0],
                              1.5, 1e-3)
        s = res.times
        assert np.max(np.abs(res.states[:, 0] - np.sinh(0.5 * s) / 0.5)) \
            < 1e-9
        assert np.max(np.abs(res.states[:, 1]
                             - (np.cosh(0.5 * s) - 1.0) / 0.5)) < 1e-9

    def test_box_exit(self):
        model = load_builtin("flat-free")
        with pytest.raises(BoxExit):
            integrate_orbit(model, [0, 1.5, 0, 0], [1.0, 0, 0],
                            2.0, 1e-3)

    def test_box_edge_within_slack(self):
        # the time adds up to 1.0000000000000007 on a box of hi = 1; the
        # box allows orbit.BOX_SLACK beyond each bound
        model = load_builtin("curved-galilei")
        res = integrate_orbit(model, [0, 0.1, 0, 0], [0.2, 0.1, -0.1],
                              1.0, 1e-3)
        assert res.states[-1, 0] > 1.0
        assert res.max_law_residual < 1e-7
        # beyond the slack, an initial point is refused before any step
        with pytest.raises(ValueError) as info:
            integrate_orbit(model, [0, 1.0 + 1e-8, 0, 0], [0, 0, 0],
                            1.0, 1e-3)
        assert str(info.value) == \
            "initial position lies outside the model box"

    def test_lightcone_exit(self):
        model = load_builtin("uniform-e")
        with pytest.raises(LightconeViolation):
            integrate_orbit(model, [0, 0, 0, 0], [1.2, 0, 0],
                            1.0, 1e-3)

    def test_non_finite_state_is_box_exit(self):
        # a field so strong that one RK4 step overflows the velocity; a
        # non-finite initial state is a ValueError (test_orbit_parity)
        model = parse_model_text(model_text("uniform-b",
                                            ("B = 2.0", "B = 1e300")))
        with pytest.raises(BoxExit, match="non-finite"):
            integrate_orbit(model, [0, 0, 0, 0], [0.5, 0, 0], 0.01)

    # each once integrated no step or one and passed on a residual of
    # 0.0 over no interior sample, or went on to np.empty (a MemoryError)
    # or round(inf) (an OverflowError)
    @pytest.mark.parametrize("duration,step,message", [
        (1e-9, 1e-3, "asks for 0 steps"), (1e-3, 1e-3, "asks for 1 steps"),
        (1e12, 1e-3, "more than 1000000 steps"),
        (1e300, 1e-300, "more than 1000000 steps"),
        (0.0, 1e-3, "positive and finite"),
        (-1.0, 1e-3, "positive and finite"),
        (math.inf, 1e-3, "positive and finite"),
        (math.nan, 1e-3, "positive and finite"),
        (1.0, 0.0, "positive and finite"),
        (1.0, math.inf, "positive and finite"),
        (1.0, math.nan, "positive and finite"),
        # h ** 2 underflowed to 0.0, so the Einstein residual divided by
        # zero: three RuntimeWarnings and a NaN maximum, with exit 0
        (1e-300, 1e-303, "square underflows"),
    ])
    def test_step_count_refused(self, duration, step, message):
        model = load_builtin("uniform-b")
        with pytest.raises(ValueError, match=message):
            integrate_orbit(model, [0, 0, 0, 0], [0.5, 0, 0],
                            duration, step)

    def test_step_count_bounds(self):
        assert orbit.step_count(2e-3, 1e-3) == 2
        assert orbit.step_count(orbit.MAX_ORBIT_STEPS, 1.0) \
            == orbit.MAX_ORBIT_STEPS
        with pytest.raises(ValueError, match="more than"):
            orbit.step_count(orbit.MAX_ORBIT_STEPS + 1, 1.0)
        with pytest.raises(ValueError, match="asks for 1 steps"):
            orbit.step_count(1.49e-3, 1e-3)

    def test_no_interior_sample_is_not_a_pass(self):
        res = OrbitResult(np.zeros(2), np.zeros((2, 7)), np.full(2, np.nan))
        assert math.isnan(res.max_law_residual)

    def test_nan_velocity_is_not_timelike(self):
        phase = EinsteinPhase(load_builtin("uniform-e"))
        with pytest.raises(LightconeViolation):
            phase.require_timelike(np.array([0, 0, 0, 0, np.nan, 0, 0]))


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "covphase.cli", *args],
                          capture_output=True, text=True, timeout=600)
    return proc


class TestCli:
    def test_verify_pass_exit_zero(self):
        proc = run_cli("verify", "--model", "flat-free",
                       "--suite", "galilei-brackets",
                       "--points", "8", "--seed", "1")
        assert proc.returncode == 0, proc.stderr
        assert "result: PASS" in proc.stdout

    def test_verify_failure_exit_one(self):
        proc = run_cli("verify", "--model", "flat-free",
                       "--suite", "galilei-core", "--points", "6",
                       "--tol", "lift-witness-not-projectable=1e-9")
        assert proc.returncode == 1
        assert "[FAIL]" in proc.stdout

    def test_verify_mismatch_exit_two(self):
        proc = run_cli("verify", "--model", "minkowski",
                       "--suite", "galilei-core")
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_verify_bad_usage_exit_two(self):
        proc = run_cli("verify", "--suite", "galilei-core")
        assert proc.returncode == 2

    def test_unknown_suite_lists_every_suite(self):
        proc = run_cli("verify", "--model", "uniform-b", "--suite", "nope")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == ("error: unknown suite 'nope'; available: %s\n"
                               % ", ".join(su.suite_names()))

    def test_verify_json_deterministic(self):
        args = ("verify", "--model", "uniform-b", "--suite", "galilei-core",
                "--points", "8", "--seed", "9", "--report", "json")
        a, b = run_cli(*args), run_cli(*args)
        assert a.returncode == 0 and a.stdout == b.stdout
        doc = json.loads(a.stdout)
        assert doc["all_pass"] is True

    def test_orbit_cli(self):
        proc = run_cli("orbit", "--model", "flat-free", "--framework", "g",
                       "--x0", "0", "0", "0", "0", "--v", "0.3", "0", "0",
                       "--duration", "1.0", "--step", "1e-3")
        assert proc.returncode == 0, proc.stderr
        assert "max law-of-motion residual" in proc.stdout

    def test_orbit_box_exit_one(self):
        proc = run_cli("orbit", "--model", "flat-free", "--framework", "g",
                       "--x0", "0", "1.5", "0", "0", "--v", "1", "0", "0",
                       "--duration", "3.0")
        assert proc.returncode == 1
        assert "orbit aborted" in proc.stderr

    def test_orbit_bad_initial_data_exit_two(self):
        proc = run_cli("orbit", "--model", "uniform-e", "--framework", "e",
                       "--x0", "0", "0", "0", "0", "--v", "2", "0", "0",
                       "--duration", "1.0")
        assert proc.returncode == 2

    def test_orbit_framework_mismatch_exit_two(self):
        proc = run_cli("orbit", "--model", "uniform-b", "--framework",
                       "einstein", "--x0", "0", "0", "0", "0",
                       "--v", "0", "0", "0", "--duration", "1.0")
        assert proc.returncode == 2
        assert proc.stderr == ("error: framework 'einstein' does not match "
                               "model kind 'galilei'\n")

    # stdout of the README orbit commands, as printed before the orbit
    # right-hand side was compiled; the compiled path must not move a bit
    README_ORBITS = [
        (("--model", "uniform-b", "--framework", "g",
          "--x0", "0", "0", "0", "0", "--v", "0.5", "0", "0",
          "--duration", "3.1416", "--step", "0.001"),
         "steps: 3142   parameter span: 3.142\n"
         "final position: [ 3.14200000e+00  2.03673182e-04 -8.29655442e-08"
         "  0.00000000e+00]\n"
         "final velocity: [ 4.99999834e-01 -4.07346365e-04  0.00000000e+00]\n"
         "max law-of-motion residual: 6.667e-07\n"),
        (("--model", "uniform-e", "--framework", "e",
          "--x0", "0", "0", "0", "0", "--v", "0", "0", "0",
          "--duration", "2.0"),
         "steps: 2000   parameter span: 2\n"
         "final position: [2.35040239 1.08616127 0.         0.        ]\n"
         "final velocity: [0.76159416 0.         0.        ]\n"
         "max law-of-motion residual: 6.427e-08\n"),
    ]

    # stdout of the orbits on the two largest compiled right-hand sides:
    # the benchmark's curved-galilei orbit and CI's curved-einstein one
    CURVED_ORBITS = [
        (("--model", "curved-galilei", "--framework", "g",
          "--x0", "-0.9", "0", "0", "0", "--v", "0.2", "0.1", "0",
          "--duration", "0.3"),
         "steps: 300   parameter span: 0.3\n"
         "final position: [-0.6         0.06033938  0.02899252 -0.00090259]\n"
         "final velocity: [ 0.20205181  0.09387421 -0.0060251 ]\n"
         "max law-of-motion residual: 6.682e-09\n"),
        (("--model", "curved-einstein", "--framework", "e",
          "--x0", "0.1", "0.2", "-0.15", "0.05", "--v", "0.3", "-0.2", "0.25",
          "--duration", "0.4", "--step", "0.002"),
         "steps: 200   parameter span: 0.4\n"
         "final position: [ 0.53991197  0.33082031 -0.22972924  0.16069057]\n"
         "final velocity: [ 0.2931846  -0.16476572  0.25321537]\n"
         "max law-of-motion residual: 1.108e-08\n"),
    ]

    @pytest.mark.parametrize("args,stdout", README_ORBITS + CURVED_ORBITS,
                             ids=["uniform-b", "uniform-e", "curved-galilei",
                                  "curved-einstein"])
    def test_readme_orbit_output_pinned(self, args, stdout):
        proc = run_cli("orbit", *args)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == stdout

    # the commands of CI's "Reports do not depend on the hash seed" step
    HASH_SEED_COMMANDS = [
        ("verify", "--model", "curved-galilei", "--suite", "galilei-quantum",
         "--points", "1", "--seed", "42", "--report", "json"),
        ("verify", "--model", "uniform-e", "--suite", "einstein-identities",
         "--points", "30", "--seed", "42", "--report", "json"),
    ] + [("orbit", *args) for args, _ in README_ORBITS + CURVED_ORBITS]

    def test_output_does_not_depend_on_the_hash_seed(self):
        # each command as a fresh process under two hash seeds, the two
        # side by side
        for args in self.HASH_SEED_COMMANDS:
            procs = [subprocess.Popen(
                [sys.executable, "-m", "covphase.cli", *args],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONHASHSEED=seed))
                for seed in ("0", "1")]
            outs = [proc.communicate(timeout=600) for proc in procs]
            assert [proc.returncode for proc in procs] == [0, 0], outs
            assert outs[0][0] == outs[1][0], args

    @pytest.mark.parametrize("model,fw,x0,v", [
        ("uniform-b", "g", ("0", "0", "0", "0"), ("nan", "0", "0")),
        ("uniform-e", "e", ("0", "0", "0", "0"), ("nan", "0", "0")),
        ("uniform-b", "g", ("0", "inf", "0", "0"), ("0.5", "0", "0")),
    ])
    def test_orbit_non_finite_initial_data_exit_two(self, model, fw, x0, v):
        proc = run_cli("orbit", "--model", model, "--framework", fw,
                       "--x0", *x0, "--v", *v, "--duration", "0.01")
        assert proc.returncode == 2
        assert "must be finite" in proc.stderr
        assert proc.stdout == ""

    def test_orbit_non_finite_state_exit_one(self, tmp_path):
        # a field so strong that one RK4 step overflows the velocity
        path = tmp_path / "huge-b.ini"
        path.write_text(model_text("uniform-b", ("B = 2.0", "B = 1e300")))
        proc = run_cli("orbit", "--model", str(path), "--framework", "g",
                       "--x0", "0", "0", "0", "0", "--v", "0.5", "0", "0",
                       "--duration", "0.01")
        assert proc.returncode == 1
        assert "non-finite state" in proc.stderr

    ORBIT_ARGS = ("orbit", "--framework", "g", "--x0", "0", "0", "0", "0",
                  "--v", "0.5", "0", "0")

    @pytest.mark.parametrize("duration,step", [
        ("-1", "1e-3"), ("0.01", "0"), ("0.01", "-0.001"), ("nan", "1e-3"),
        ("0.01", "inf"),
    ])
    def test_orbit_duration_and_step_must_be_positive(self, capsys, duration,
                                                      step):
        code = cli.main([*self.ORBIT_ARGS, "--model", "uniform-b",
                         "--duration", duration, "--step", step])
        out, err = capsys.readouterr()
        assert code == 2
        assert "duration and step must be positive" in err
        assert out == ""

    # validation passes (the Sobol points miss x1 = 0) but the orbit,
    # which starts at x1 = 0, meets the singularity on its first step
    @pytest.mark.parametrize("potential,message", [
        ("1/x1", "division by zero in expression"),
        ("exp(0.001/(x1^2 + 0.000001))", "math range error"),
        ("sqrt(x1^2)", "sqrt of non-positive value"),
        ("(x1^2)^(1/2)", "fractional power of non-positive base"),
    ], ids=["ZeroDivisionError", "OverflowError", "ValueError-sqrt",
            "ValueError-power"])
    def test_orbit_field_evaluation_error_exit_one(self, tmp_path, capsys,
                                                   potential, message):
        text = model_text("uniform-b", ("A2 = B/2 * x1", "A2 = " + potential))
        path = tmp_path / "singular.ini"
        path.write_text(text.replace("lo = -1, -3", "lo = -1, -1")
                        .replace("hi = 12, 3", "hi = 12, 2"))
        code = cli.main([*self.ORBIT_ARGS, "--model", str(path),
                         "--duration", "0.01"])
        out, err = capsys.readouterr()
        assert code == 1
        assert err.startswith("orbit aborted: ") and message in err
        assert out == ""

    # validation passes (the Sobol points miss x1 = 0.3), but the timelike
    # check of the initial point divides by zero there
    DIV_MODEL = """
[model]
kind = einstein
name = div

[constants]
m = 1.0 M
q = 1.0 T^-1 L^3/2 M^1/2
hbar = 1.0 T^-1 L^2 M
c = 1.0 T^-1 L

[box]
lo = -1, -1, -1, -1
hi = 1, 1, 1, 1

[metric]
g00 = -1 - 1 / (x1 - 0.3)^2
g11 = 1
g22 = 1
g33 = 1
"""

    def test_orbit_initial_metric_error_exit_two(self, tmp_path, capsys):
        path = tmp_path / "div.ini"
        path.write_text(self.DIV_MODEL)
        code = cli.main(["orbit", "--model", str(path), "--framework", "e",
                         "--x0", "0", "0.3", "0", "0", "--v", "0", "0", "0",
                         "--duration", "0.01"])
        out, err = capsys.readouterr()
        assert code == 2
        assert err == ("error: division by zero in expression at point "
                       "[0.0, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0]\n")
        assert out == ""

    # the initial point may lie outside the box by orbit.BOX_SLACK (1e-9),
    # as integrate_orbit allows
    @pytest.mark.parametrize("x1,code", [("2.0000000005", 0),
                                         ("-2.0000000005", 0),
                                         ("2.000000002", 2),
                                         ("-2.000000002", 2)])
    def test_orbit_initial_box_slack(self, capsys, x1, code):
        got = cli.main(["orbit", "--model", "flat-free", "--framework", "g",
                        "--x0", "0", x1, "0", "0", "--v", "0", "0", "0",
                        "--duration", "0.01"])
        out, err = capsys.readouterr()
        assert got == code
        if code:
            assert err == ("error: initial position lies outside the model "
                           "box\n")
            assert out == ""
        else:
            assert err == "" and out.startswith("steps: 10 ")

    def test_validation_error_exit_two(self, tmp_path):
        path = tmp_path / "overflow.ini"
        path.write_text(model_text("uniform-b", ("A1 = -B/2 * x2",
                                                 "A1 = exp(1000*x1)")))
        for args in (("verify", "--suite", "galilei-core"),
                     ("orbit", "--framework", "g", "--x0", "0", "0", "0", "0",
                      "--v", "0.5", "0", "0", "--duration", "0.01")):
            proc = run_cli(args[0], "--model", str(path), *args[1:])
            assert proc.returncode == 2, args
            assert "Traceback" not in proc.stderr
            assert "at witness point [2.575, 1.35" in proc.stderr
            assert "np.float64" not in proc.stderr

    # each once exited 1 with NaN records (or a failed check) instead
    @pytest.mark.parametrize("option,message", [
        (("--points", "0"), "the number of points must be positive, got 0"),
        (("--points", "-3"), "the number of points must be positive, got -3"),
        (("--points", "1000000000000000"),
         "the number of points must be at most 10000, got 1000000000000000"),
        (("--seed", "-1"), "the seed must be non-negative, got -1"),
        (("--tol", "contact-kernel=nan"),
         "tolerance override contact-kernel=nan is not a finite "
         "non-negative number"),
        (("--tol", "contact-kernel=-1"),
         "tolerance override contact-kernel=-1.0 is not a finite "
         "non-negative number"),
    ], ids=["points-0", "points-negative", "points-huge", "seed-negative",
            "tol-nan",
            "tol-negative"])
    def test_verify_bad_option_value_exit_two(self, capsys, option, message):
        code = cli.main(["verify", "--model", "flat-free", "--suite",
                         "galilei-core", "--points", "5", *option])
        out, err = capsys.readouterr()
        assert code == 2
        assert err == "error: %s\n" % message
        assert out == ""

    # a known defect, pinned so that its fix has to flip this: on
    # uniform-b's box (x0 in [-1, 12]) the values the observer change
    # compares reach 1.4e4, and their rounding reads 1.028366e-08 against
    # the 1e-08 tolerance of bracket-observer-independence
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="bracket-observer-independence depends on "
                              "the size of the model's box")
    def test_verify_verdict_does_not_depend_on_the_box(self, capsys):
        code = cli.main(["verify", "--model", "uniform-b", "--suite",
                         "galilei-brackets", "--points", "30", "--seed",
                         "7308022"])
        assert code == 0, capsys.readouterr().out

    # a directory once escaped as an IsADirectoryError traceback
    @pytest.mark.parametrize("args", [
        ("verify", "--suite", "galilei-core"),
        ORBIT_ARGS + ("--duration", "0.01"),
    ], ids=["verify", "orbit"])
    def test_model_directory_exit_two(self, capsys, args):
        model_dir = str(builtin_model_dir())
        code = cli.main([args[0], "--model", model_dir, *args[1:]])
        out, err = capsys.readouterr()
        assert code == 2
        assert err == "error: [Errno 21] Is a directory: %r\n" % model_dir
        assert out == ""

    # a name that is neither a file nor a builtin once read "[Errno 2] No
    # such file or directory", hiding the list of shipped models
    @pytest.mark.parametrize("args", [
        ("verify", "--suite", "galilei-core"),
        ORBIT_ARGS + ("--duration", "0.01"),
    ], ids=["verify", "orbit"])
    def test_misspelled_builtin_model_exit_two(self, capsys, args):
        code = cli.main([args[0], "--model", "nope", *args[1:]])
        out, err = capsys.readouterr()
        assert code == 2
        assert err == "error: no builtin model 'nope'; available: %s\n" \
            % ", ".join(available_models())
        assert out == ""

    # each once escaped as a configparser traceback with exit code 1
    @pytest.mark.parametrize("text,message", [
        ("kind = galilei\n", "File contains no section headers."),
        ("[model]\nkind = galilei\n[model]\nkind = galilei\n",
         "section 'model' already exists"),
        ("[model]\nkind = galilei\nkind = einstein\n",
         "option 'kind' in section 'model' already exists"),
        ("[other]\nkind = galilei\n", "model file has no [model] section"),
    ], ids=["no-header", "duplicate-section", "duplicate-option",
            "no-model-section"])
    @pytest.mark.parametrize("args", [
        ("verify", "--suite", "galilei-core"),
        ORBIT_ARGS + ("--duration", "0.01"),
    ], ids=["verify", "orbit"])
    def test_malformed_ini_exit_two(self, tmp_path, capsys, args, text,
                                    message):
        path = tmp_path / "malformed.ini"
        path.write_text(text)
        code = cli.main([args[0], "--model", str(path), *args[1:]])
        out, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert out == ""

    # each once ended in a numpy allocation traceback (exit 1) or, for an
    # infinite quotient, an aborted orbit; none may be allocated or run
    @pytest.mark.parametrize("duration,step", [
        ("1e12", "1e-3"), ("1e300", "1e-300"), ("ceiling+1", "1"),
    ], ids=["readme-step", "infinite-quotient", "one-over"])
    def test_orbit_step_ceiling_exit_two(self, capsys, duration, step):
        if duration == "ceiling+1":
            duration = str(orbit.MAX_ORBIT_STEPS + 1)
        code = cli.main([*self.ORBIT_ARGS, "--model", "uniform-b",
                         "--duration", duration, "--step", step])
        out, err = capsys.readouterr()
        assert code == 2
        assert err == ("error: duration / step asks for more than %d steps\n"
                       % orbit.MAX_ORBIT_STEPS)
        assert out == ""

    @pytest.mark.parametrize("duration", ["1e-9", "1e-3"],
                             ids=["no-step", "one-step"])
    def test_orbit_too_few_steps_exit_two(self, capsys, duration):
        code = cli.main([*self.ORBIT_ARGS, "--model", "uniform-b",
                         "--duration", duration, "--step", "1e-3"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: duration / step asks for ")
        assert err.endswith("an orbit takes at least 2\n")

    def test_orbit_underflowing_step_exit_two(self, capsys):
        # the step's square underflows; this once exited 0 with a NaN
        # law-of-motion residual and numpy warnings
        code = cli.main(["orbit", "--model", "minkowski", "--framework", "e",
                         "--x0", "0", "0", "0", "0", "--v", "0", "0", "0",
                         "--duration", "1e-300", "--step", "1e-303"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == ("error: step 1e-303 is too small: its square "
                       "underflows\n")

    def test_gravity_evaluation_error_exit_two(self, tmp_path, capsys):
        # dPhi cannot be evaluated at the first sample point; this once
        # printed a ZeroDivisionError traceback
        path = tmp_path / "singular-gravity.ini"
        path.write_text(model_text("curved-gravity", (
            "Phi01 = -x2", "Phi01 = 1/(x2 + 0.9)")))
        code = cli.main(["verify", "--model", str(path), "--suite",
                         "galilei-core", "--points", "2"])
        out, err = capsys.readouterr()
        assert code == 2
        assert err == ("error: field evaluation failed: division by zero in "
                       "expression at witness point [-0.9, -0.9, -0.9, -0.9]\n")
        assert out == ""

    def test_no_timelike_sample_points_exit_two(self, tmp_path):
        # |g00| below the sampler's radicand threshold of 0.1: no draw
        # is accepted, which used to loop forever
        path = tmp_path / "shallow-minkowski.ini"
        path.write_text(model_text("minkowski", ("g00 = -1", "g00 = -0.05")))
        proc = run_cli("verify", "--model", str(path),
                       "--suite", "einstein-identities")
        assert proc.returncode == 2
        assert "no timelike sample point found: 0 of 20000 draws" \
            in proc.stderr

    # the first two once named no entry, and the second failed only at
    # validation, at a witness point; a zero exponent denominator printed
    # a ZeroDivisionError traceback; a value that is not a number once
    # gave only float()'s message, and an entry that no model reads (or a
    # second spelling of a symmetric one) was silently ignored
    @pytest.mark.parametrize("name,edit,message", [
        ("uniform-b", ("g22 = 1", "g22 = 1 +"),
         "g22: expected a value, found 'end of input' (offset 3)"),
        ("uniform-b", ("A2 = B/2 * x1", "A2 = Bee/2 * x1"),
         "A2: unknown name 'Bee' (offset 0)"),
        ("uniform-b", ("A2 = B/2 * x1", "A2 = B/2 * x5"),
         "A2: x5 is not a spacetime coordinate"),
        ("uniform-b", ("g11 = 1", "g11 = 1 + x1^(1/0)"),
         "g11: exponent denominator is zero (offset 10)"),
        ("curved-gravity", ("m = 1.0 M", "m = abc M"),
         "constant 'm' is not a number: 'abc'"),
        ("uniform-b", ("m = 1.0 M", "m ="), "constant 'm' is not a number: ''"),
        ("uniform-b", ("lo = -1, -3, -3, -3", "lo = -1, -3, abc, -3"),
         "[box] lo is not a number: 'abc'"),
        ("uniform-b", ("lo = -1, -3, -3, -3", "lo = -1, -3, nan, -3"),
         "[box] lo is not finite"),
        ("uniform-b", ("g11 = 1", "g11 = 1\ng03 = 5*x1"),
         "g03: no such entry in [metric]; the entries are g11..g33"),
        ("uniform-b", ("g22 = 1", "g22 = 1\ng12 = 0.1\ng21 = 0.3"),
         "g12 and g21 are the same entry; give one"),
        ("uniform-b", ("A2 = B/2 * x1", "A2 = B/2 * x1\nA5 = x1"),
         "A5: no such entry in [potential]; the entries are A0..A3"),
        ("curved-gravity", ("Phi03 =", "Phi30 ="),
         "Phi30: no such entry in [gravity]; the entries are Phi<a><b> "
         "with a < b"),
        ("uniform-b", ("name = uniform-b", "name = uniform-b\nkinds = x"),
         "kinds: no such entry in [model]; the entries are kind and name"),
        ("uniform-b", ("hi = 12, 3, 3, 3", "hi = 12, 3, 3, 3\nmid = 0"),
         "mid: no such entry in [box]; the entries are lo and hi"),
        ("uniform-b", ("hi = 12, 3, 3, 3\n", ""),
         "[box] has no hi entry"),
        ("uniform-b", ("[potential]", "[potentials]"),
         "[potentials]: galilei models have no such section; the sections "
         "are [model], [constants], [params], [box], [metric], "
         "[potential], [gravity]"),
        ("uniform-e", ("[potential]", "[gravity]"),
         "[gravity]: einstein models have no such section; the sections "
         "are [model], [constants], [params], [box], [metric], "
         "[potential]"),
    ], ids=["parse-error", "unknown-name", "phase-coordinate",
            "exponent-zero-denominator",
            "constant-not-a-number", "constant-empty", "box-not-a-number",
            "box-nan", "metric-unread-entry", "metric-both-spellings",
            "potential-unread-entry", "gravity-unread-entry",
            "model-unread-entry", "box-unread-entry", "box-missing-bound",
            "unknown-section", "gravity-in-einstein"])
    def test_bad_entry_names_its_key_exit_two(self, tmp_path, capsys, name,
                                              edit, message):
        path = tmp_path / "bad-entry.ini"
        path.write_text(model_text(name, edit))
        code = cli.main(["verify", "--model", str(path), "--suite",
                         "galilei-core", "--points", "2"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "error: %s\n" % message

    # x2 and exp were once silently ignored (the parser reads them as a
    # coordinate and a function), and nan was refused only at a witness
    # point, without the parameter's name
    @pytest.mark.parametrize("entry,message", [
        ("B = 2.0\n2k = 1.0", "parameter '2k' can never be read"),
        ("B = 2.0\nx2 = 7.0", "parameter 'x2' can never be read"),
        ("B = 2.0\nexp = 1.0", "parameter 'exp' can never be read"),
        ("B = nan", "parameter 'B' is not finite"),
        ("B = -inf", "parameter 'B' is not finite"),
    ], ids=["not-an-identifier", "coordinate", "function", "nan", "inf"])
    def test_unreadable_param_exit_two(self, tmp_path, capsys, entry,
                                       message):
        path = tmp_path / "bad-param.ini"
        path.write_text(model_text("uniform-b", ("B = 2.0", entry)))
        code = cli.main(["verify", "--model", str(path), "--suite",
                         "galilei-core", "--points", "2"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: " + message) and err.count("\n") == 1


class TestStartup:
    """covphase runs on numpy alone: scipy and sympy stay off its import
    path, which kept a command's start-up at over a second.  An orbit
    imports none of the code that only verify runs."""

    BLOCK_SCIPY = (
        "import sys\n"
        "class Block:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ModuleNotFoundError('scipy is blocked')\n"
        "sys.meta_path.insert(0, Block())\n")
    VERIFY = ["verify", "--model", "flat-free", "--suite", "galilei-core",
              "--points", "5", "--seed", "3", "--report", "json"]

    def test_verify_without_scipy(self):
        code = self.BLOCK_SCIPY + (
            "import covphase.cli\n"
            "sys.exit(covphase.cli.main(%r))\n" % self.VERIFY)
        blocked = subprocess.run([sys.executable, "-c", code],
                                 capture_output=True, text=True, timeout=600)
        normal = run_cli(*self.VERIFY)
        assert blocked.returncode == 0, blocked.stderr
        assert normal.returncode == 0, normal.stderr
        assert blocked.stdout == normal.stdout

    # what `covphase orbit` never runs, and so never imports
    NOT_FOR_ORBITS = ("covphase.suites", "covphase.quantum", "covphase.report",
                      "numpy.random", "numpy.polynomial")

    def test_no_scipy_or_sympy_imported(self):
        cyclotron = ["orbit", *TestCli.README_ORBITS[0][0]]
        code = ("import sys\n"
                "import covphase.cli\n"
                "from covphase.modelspec import available_models\n"
                "assert len(available_models()) == 8\n"
                "for name in available_models():\n"
                "    covphase.load_builtin(name)\n"
                "assert covphase.cli.main(%r) == 0\n"
                "print(sorted(m for m in sys.modules\n"
                "             if m.split('.')[0] in ('scipy', 'sympy')\n"
                "             or m in %r))\n"
                "assert covphase.cli.main(%r) == 0\n"
                "print(covphase.run_suite\n"
                "      is sys.modules['covphase.suites'].run_suite)\n"
                % (cyclotron, self.NOT_FOR_ORBITS, self.VERIFY))
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(TestCli.README_ORBITS[0][1] + "[]\n")
        assert proc.stdout.endswith("}\nTrue\n")


class TestCheckErrors:
    """A check whose fields cannot be evaluated is a failed record."""

    @pytest.mark.parametrize("exc", [ValueError, ZeroDivisionError,
                                     OverflowError])
    def test_runner_error_fails_the_check(self, monkeypatch, capsys, exc):
        def broken(ctx):
            raise exc("stub failure")
        checks = (su.Check("breaks", "raises", 1e-9, broken),
                  su.Check("still-runs", "0 = 0", 1e-9, lambda ctx: 0.0))
        monkeypatch.setitem(su.SUITES, "error-probe",
                            su.Suite("error-probe", "any", checks))
        code = cli.main(["verify", "--model", "flat-free", "--suite",
                         "error-probe", "--points", "2", "--report", "json"])
        out, err = capsys.readouterr()
        assert code == 1
        assert err == "check breaks: %s: stub failure\n" % exc.__name__
        first, second = json.loads(out)["checks"]
        assert math.isnan(first["max_residual"]) and first["pass"] is False
        assert second["name"] == "still-runs" and second["pass"] is True

    def test_runner_bug_propagates(self, monkeypatch):
        # a KeyError is a bug in a runner, not a usage error (exit 2)
        def broken(ctx):
            raise KeyError("x")
        monkeypatch.setitem(su.SUITES, "bug-probe", su.Suite(
            "bug-probe", "any", (su.Check("bug", "raises", 1e-9, broken),)))
        with pytest.raises(KeyError, match="x"):
            cli.main(["verify", "--model", "flat-free", "--suite",
                      "bug-probe", "--points", "2"])

    def test_deeply_nested_entry_exit_two(self, tmp_path):
        # 1,200 terms once overflowed the recursive walkers with a
        # RecursionError traceback
        terms = " + ".join(["0.001*x2"] * 1200)
        path = tmp_path / "deep.ini"
        path.write_text(model_text("uniform-b", ("A1 = -B/2 * x2",
                                                 "A1 = " + terms)))
        proc = run_cli("verify", "--model", str(path),
                       "--suite", "galilei-core", "--points", "2")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "expression nested too deeply" in proc.stderr


class TestCollectorScope:
    """`run_suite` raises the cycle collector's young-generation threshold
    for its own duration, and leaves a collector the caller turned off
    off; nodes, partials and batches are freed without the collector."""

    CALLER = (1234, 5, 6)  # a caller's thresholds, none of them a default

    @pytest.fixture(autouse=True)
    def caller_collector(self):
        saved, enabled = gc.get_threshold(), gc.isenabled()
        gc.set_threshold(*self.CALLER)
        try:
            yield
        finally:
            gc.set_threshold(*saved)
            (gc.enable if enabled else gc.disable)()

    def probe(self, monkeypatch, runner):
        """The collector's state, as the one check of a probe suite that
        then runs runner, sees it."""
        seen = []

        def check(ctx):
            seen.append((gc.isenabled(), gc.get_threshold()))
            return runner(ctx)

        probe = su.Check("probe", "0 = 0", 1e-9, check)
        monkeypatch.setitem(su.SUITES, "gc-probe",
                            su.Suite("gc-probe", "any", (probe,)))
        return seen

    @pytest.mark.parametrize("exc", [None, ZeroDivisionError, KeyError],
                             ids=["pass", "nan-record", "escapes"])
    def test_thresholds_restored(self, monkeypatch, exc):
        def runner(ctx):
            if exc is not None:
                raise exc("stub failure")
            return 0.0

        seen = self.probe(monkeypatch, runner)
        if exc is KeyError:  # not an evaluation error: it escapes
            with pytest.raises(KeyError):
                su.run_suite("flat-free", "gc-probe", points=2)
        else:
            rec, = su.run_suite("flat-free", "gc-probe", points=2).records
            assert repr(rec.residual) == ("0.0" if exc is None else "nan")
        assert seen == [(True, (su._GC_THRESHOLD0, 5, 6))]
        assert gc.isenabled() and gc.get_threshold() == self.CALLER

    @pytest.mark.parametrize("off", ["disabled", "threshold0-zero"])
    def test_collector_turned_off_stays_off(self, monkeypatch, off):
        seen = self.probe(monkeypatch, lambda ctx: 0.0)
        if off == "disabled":
            gc.disable()
            want = (False, self.CALLER)
        else:
            gc.set_threshold(0, 5, 6)
            want = (True, (0, 5, 6))
        su.run_suite("flat-free", "gc-probe", points=2)
        assert seen == [want]
        assert (gc.isenabled(), gc.get_threshold()) == want

    def test_suites_leave_no_node_to_the_cycle_collector(self):
        gc.disable()
        for name in ("flat-free", "curved-galilei", "minkowski",
                     "curved-einstein"):
            kind = load_builtin(name).kind
            for suite in su.SUITES.values():
                if suite.framework in ("any", kind):
                    before = len(modelspec._NODES)
                    su.run_suite(name, suite.name, points=2, seed=1)
                    assert len(modelspec._NODES) == before, \
                        (name, suite.name)


def model_text(name: str, edit) -> str:
    old, new = edit
    text = (builtin_model_dir() / (name + ".ini")).read_text()
    assert old in text
    return text.replace(old, new)
