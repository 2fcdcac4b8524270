"""Parity fence for the Einstein sampler.

`_Ctx.points` draws Einstein candidates n at a time, one `rng.uniform`
call to a block, and tests each block's radicand in one batch.  The
reference below is the per-draw sampler it replaced: each candidate drawn
with two `rng.uniform` calls and tested alone by the compiled radicand.
The two must keep the same points bit for bit, refuse after the same
number of accepted draws, and fail with the same class at the same draw.
The one difference is the text of an evaluation error, which now names
the draw.

`suites._poly` draws each coefficient as `-1.0 + 2.0 * rng.random()`,
numpy's own formula for `uniform(-1.0, 1.0)`.  The reference `ref_poly`
is the `rng.uniform` spelling it replaced: both must build the same
polynomials and leave the generator in the same state.
"""

import math

import numpy as np
import pytest

from covphase.modelspec import (
    BinOp, Num, ValidationError, Var, builtin_model_dir, compile_fields,
    load_builtin, parse_model_text,
)
from covphase.suites import MAX_DRAWS_PER_POINT, _Ctx, _poly, run_suite

EINSTEIN_MODELS = ("minkowski", "uniform-e", "curved-einstein",
                   "schwarzschild-like")
COUNTS = (1, 7, 30)
SEEDS = (3, 7, 42, 1001)


def ref_outcome(ctx):
    """The per-draw sampler: the points' bytes, or the class and text of
    what it raises (an evaluation error with the draw's point)."""
    rng = ctx.rng("phase-points")
    n = ctx.npoints
    lo, hi = ctx.model.box_lo, ctx.model.box_hi
    span = hi - lo
    rad = compile_fields([ctx.phase.radicand()])
    out = []
    for _ in range(MAX_DRAWS_PER_POINT * n):
        if len(out) == n:
            break
        p = np.concatenate([rng.uniform(lo + 0.05 * span, hi - 0.05 * span,
                                        size=(1, 4))[0],
                            rng.uniform(-0.25, 0.25, 3)])
        try:
            if rad(p.tolist())[0] < -0.1:
                out.append(p)
        except (ValueError, ArithmeticError) as exc:
            return type(exc), "%s at point %s" % (exc, p.tolist())
    if len(out) < n:
        return ValidationError, (
            "no timelike sample point found: %d of %d draws had "
            "radicand < -0.1" % (len(out), MAX_DRAWS_PER_POINT * n))
    return np.array(out).tobytes()


def outcome(ctx):
    try:
        return ctx.points.tobytes()
    except (ValueError, ArithmeticError, ValidationError) as exc:
        return type(exc), str(exc)


def minkowski(g00: str):
    text = (builtin_model_dir() / "minkowski.ini").read_text()
    assert "g00 = -1\n" in text
    return parse_model_text(text.replace("g00 = -1\n", "g00 = %s\n" % g00))


@pytest.mark.parametrize("n", COUNTS)
@pytest.mark.parametrize("name", EINSTEIN_MODELS)
def test_points_byte_equal(name, n):
    model = load_builtin(name)
    for seed in SEEDS:
        want = ref_outcome(_Ctx(model, n, seed))
        assert isinstance(want, bytes)
        assert outcome(_Ctx(model, n, seed)) == want


@pytest.mark.parametrize("n", COUNTS)
def test_points_byte_equal_with_rejections(n):
    # |v|^2 < 0.05 keeps about 38% of the velocity cube [-0.25, 0.25]^3
    model = minkowski("-0.15")
    for seed in SEEDS:
        want = ref_outcome(_Ctx(model, n, seed))
        assert isinstance(want, bytes)
        assert outcome(_Ctx(model, n, seed)) == want


@pytest.mark.parametrize("g00, accepted", [("-0.05", False),
                                           ("-0.101", True)])
def test_refusal_same_draw_count(g00, accepted):
    # -0.05: no draw passes; -0.101: about one draw in a thousand does,
    # so the refusal counts the draws kept before the budget ran out
    model = minkowski(g00)
    kept = 0
    for n in COUNTS:
        for seed in SEEDS:
            want = ref_outcome(_Ctx(model, n, seed))
            assert want[0] is ValidationError
            assert outcome(_Ctx(model, n, seed)) == want
            kept += not want[1].startswith(
                "no timelike sample point found: 0 of")
    assert bool(kept) == accepted


@pytest.mark.parametrize("g00", ["-1 + 1e-9 * sqrt(x1 + 2.4)",
                                 "-0.2 + 1e-9 * sqrt(x1 + 2.65)"],
                         ids=["steep", "shallow"])
def test_failing_radicand_same_class_at_same_draw(g00):
    # the radicand fails where x1 <= -2.4 (6% of the sampled box) or
    # x1 <= -2.65 (1%): a failing draw raises unless n draws were kept
    # before it.  With g00 near -0.2 most draws are rejected, so a block
    # may keep draws after a failure (which raises), or end on failures
    # after the n-th kept draw (which do not)
    model = minkowski(g00)
    raised = kept = 0
    for n in COUNTS:
        for seed in range(20):
            want = ref_outcome(_Ctx(model, n, seed))
            got = outcome(_Ctx(model, n, seed))
            assert got == want
            if isinstance(want, bytes):
                kept += 1
            else:
                assert want[0] is ValueError
                raised += 1
    assert raised and kept


def test_failed_draw_is_not_drawn_again(monkeypatch, capsys):
    # every check of the suite asks for the points; the first draw raises,
    # and each later check raises a new error of its class and text
    # instead of drawing the same failing block again
    tags = []
    rng = _Ctx.rng
    monkeypatch.setattr(_Ctx, "rng",
                        lambda ctx, tag: tags.append(tag) or rng(ctx, tag))
    model = minkowski("-1 + 1e-9 * sqrt(x1 + 2.4)")
    report = run_suite(model, "einstein-identities", points=30, seed=3)
    assert tags.count("phase-points") == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == len(report.records) == 9
    assert all(math.isnan(r.residual) for r in report.records)
    for line, record in zip(lines, report.records):
        assert line.startswith("check %s: ValueError: sqrt of non-positive "
                               "value at point [" % record.name)
    assert len({line.split(": ", 1)[1] for line in lines}) == 1


def ref_poly(rng, nvars=4):
    node = Num(float(rng.uniform(-1.0, 1.0)))
    for _ in range(int(rng.integers(1, 4))):
        term = Num(float(rng.uniform(-1.0, 1.0)))
        for _ in range(int(rng.integers(1, 3))):
            term = BinOp("*", term, Var(int(rng.integers(0, nvars))))
        node = BinOp("+", node, term)
    return node


def state(rng):
    """The generator's state, with its arrays (Philox's) as lists."""
    def plain(x):
        if isinstance(x, dict):
            return {k: plain(v) for k, v in x.items()}
        return x.tolist() if isinstance(x, np.ndarray) else x
    return plain(rng.bit_generator.state)


@pytest.mark.parametrize("make", [
    lambda seed: _Ctx(load_builtin("flat-free"), 1, seed).rng("poly"),
    np.random.default_rng,
], ids=["philox", "default_rng"])
def test_poly_draws_the_reference_polynomials(make):
    for seed in range(300):
        want_rng, got_rng = make(seed), make(seed)
        for nvars in (4, 7):
            want = ref_poly(want_rng, nvars)
            assert _poly(got_rng, nvars) is want
            assert state(got_rng) == state(want_rng)


def test_scaled_random_is_uniform_bit_for_bit():
    want_rng, got_rng = np.random.default_rng(5), np.random.default_rng(5)
    want = [float(want_rng.uniform(-1.0, 1.0)) for _ in range(100_000)]
    got = [-1.0 + 2.0 * got_rng.random() for _ in range(100_000)]
    assert np.array(got).view(np.uint64).tolist() == \
        np.array(want).view(np.uint64).tolist()
    assert state(got_rng) == state(want_rng)
