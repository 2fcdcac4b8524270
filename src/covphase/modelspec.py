"""Model description files: expression language, parsing, validation.

A model file is an INI document declaring a spacetime kind (galilei or
einstein), metric components, an optional electromagnetic potential, the
physical constants with dimension tags, free parameters, a chart box, and
optionally a closed gravitational 2-form.  Component entries are written in
a small expression language over the chart coordinates x0..x3::

    A2 = B/2 * x1
    g11 = 1 / (1 + k*x1^2)

Expressions parse to expression nodes.  Each node is a field, an
`ExprField`, which differentiates symbolically and therefore never runs
out of derivative order.  Loading validates the model at low-discrepancy
sample points inside the declared box; failures raise `ValidationError`
carrying a witness point.
"""

import configparser
import math
import os
import re
import struct
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .dims import CANONICAL_CONSTANT_DIMS, format_dimension, parse_dimension
from .smooth import Batch, Field, PForm, exterior_derivative, total

SAMPLE_COUNT = 49  # validation points per model
MAX_DEPTH = 200  # levels of nesting allowed in one parsed expression

FUNCTIONS = ("sin", "cos", "exp", "sqrt", "abs")


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__("%s (offset %d)" % (message, offset))
        self.message = message
        self.offset = offset


class ValidationError(Exception):
    """Model failed a validation check; `witness` is the offending point."""

    def __init__(self, message: str, witness=None):
        if witness is not None:
            message = "%s at witness point %s" % (
                message, [float(v) for v in witness])
        super().__init__(message)
        self.witness = witness


# ---------------------------------------------------------------------------
# Expression AST
#
# A node is the field it defines: every node class derives from
# `ExprField`, a `smooth.Field`, so the phase modules combine,
# differentiate and evaluate nodes themselves, with no wrapper object.
# Nodes are hash-consed: each one is built through one weak table, keyed
# by its class, its plain fields and its children themselves (which the
# node holds anyway), so building a node structurally equal to a live one
# returns that node.  Structural equality is identity, and nodes compare
# and hash by identity, so a key compares children by identity, and every
# DAG walk keys its memo by the node itself.  A float is keyed with the
# sign of a zero and its type, so Num(0.0), Num(-0.0) and Num(0) are three
# nodes; a NaN is never looked up.  A node is never mutated after it is
# built.  The table holds its nodes weakly, so a node is freed as soon as
# nothing else refers to it, and its entry and key go with it.  Each node
# carries `_m`, the bitmask of the coordinates it reads (bit k for x_k),
# set once when it is built, and `_d`, weak references to the derivatives
# taken of it, the one cache of partials (see `derivative`).  A leaf is a
# number or a coordinate: parameters are numbers by the time a node is
# built (see `parse_expr`).

_NODES: Dict[tuple, "_Entry"] = {}
_new = object.__new__


class _Entry(weakref.ref):
    """A weak reference to an interned node that removes the node's table
    entry when the node is freed."""

    __slots__ = ("key",)


def _drop(entry: _Entry) -> None:
    if _NODES.get(entry.key) is entry:
        del _NODES[entry.key]


def _enter(key, node, mask):
    """Enter a new node, which reads the coordinates in mask, in the
    table under key; returns it."""
    node._d, node._m = None, mask
    entry = _NODES[key] = _Entry(node, _drop)
    entry.key = key
    return node


class ExprField(Field):
    """An expression node, which is itself the field it defines: it
    differentiates exactly to any order.

    A node is built by the constructor of its class in `_BUILD`; `_m` has
    bit k set when the node reads x_k, and `_d` maps a coordinate index
    to a weak reference to the node's derivative along it.
    `ExprField(...)` itself raises TypeError: text becomes a node through
    `parse_expr`, and a node is its own field.  Sums, products and
    quotients with nodes and numbers are nodes (with the folding of
    `_add`, `_mul` and so on), so every structure built from model
    components inherits exact differentiation.  `_Rows` evaluates a node
    over every row of a `Batch`, and its value at a point is the one row
    of a one-row batch.  A model's parameters are numbers in the node
    from the moment it is parsed.
    """

    __slots__ = ("_d", "_m", "__weakref__")

    def __new__(cls, *fields, **named):
        if cls is ExprField:
            raise TypeError("ExprField is the base class of the nodes; "
                            "parse text with parse_expr")
        return _BUILD[cls](*fields, **named)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self.__match_args__))

    @property
    def node(self):
        # read only by `perfbench/tracing._form_nodes`, which takes the
        # node of each form component
        return self

    def jet(self, coords):
        """The value at float coordinates, a Python float: row 0 of a
        one-row `Batch`, whose error names the point."""
        batch = Batch([coords])
        v = _batch_walk(batch, self)
        batch.raise_first()
        return v

    def partial(self, i):
        # cached weakly in `_d`: a partial lives as long as its caller
        # holds it (see `derivative`)
        return derivative(self, i)

    def _values(self, batch: Batch):
        val = _batch_walk(batch, self)
        if isinstance(val, np.ndarray):
            return val.copy()
        if len(batch.P) == 1:
            return np.array([val])
        return np.full(len(batch.P), val)

    # an operand that is neither a node nor a number gives NotImplemented,
    # so Python raises TypeError

    def __add__(self, other):
        b = other if isinstance(other, ExprField) else _as_node(other)
        return NotImplemented if b is None else _add(self, b)

    __radd__ = __add__

    def __sub__(self, other):
        b = other if isinstance(other, ExprField) else _as_node(other)
        return NotImplemented if b is None else _sub(self, b)

    def __rsub__(self, other):
        b = other if isinstance(other, ExprField) else _as_node(other)
        return NotImplemented if b is None else _sub(b, self)

    def __mul__(self, other):
        b = other if isinstance(other, ExprField) else _as_node(other)
        return NotImplemented if b is None else _mul(self, b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = other if isinstance(other, ExprField) else _as_node(other)
        return NotImplemented if b is None else _div(self, b)

    def __rtruediv__(self, other):
        b = other if isinstance(other, ExprField) else _as_node(other)
        return NotImplemented if b is None else _div(b, self)

    def __neg__(self):
        return _ZERO if _is_num(self, 0.0) else _neg(self)


def _as_node(x):
    """The node of an operand that is not a node: a number as a `Num`,
    None for anything else."""
    return _num(float(x)) if isinstance(x, (int, float)) else None


class Num(ExprField):
    __slots__ = __match_args__ = ("number",)


class Var(ExprField):
    __slots__ = __match_args__ = ("index",)  # 0..3 spacetime, 4..6 velocity


class Neg(ExprField):
    __slots__ = __match_args__ = ("arg",)


class BinOp(ExprField):
    __slots__ = __match_args__ = ("op", "left", "right")  # op: + - * /


class Pow(ExprField):
    __slots__ = __match_args__ = ("base", "exponent")  # exponent: Fraction


class Call(ExprField):
    __slots__ = __match_args__ = ("func", "arg")


class Homotopy(ExprField):
    """A quadrature along the segments from base to x (never parsed):

        sum_k sum_nu (weights_k * phis_nu(y_k)) * (x_nu - base_nu)

    with y_k = base + ts_k (x - base), summed k outer, nu inner; without
    the factor (x_nu - base_nu) when `radial` is false.  The phis are
    expressions in x0..x3, so the node reads x0..x3 only.  base, ts and
    weights are tuples of floats, keyed by their bits.
    """

    __slots__ = __match_args__ = ("phis", "base", "ts", "weights", "radial")


# the constructors; the hot paths call them without going through the class


def _num(value):
    if value != value:  # NaN equals nothing, so it is never looked up
        node = _new(Num)
        node.number, node._d, node._m = value, None, 0
        return node
    key = (Num, type(value), value, value or math.copysign(1.0, value))
    ref = _NODES.get(key)
    node = ref and ref()
    if node is None:
        node = _enter(key, _new(Num), 0)
        node.number = value
    return node


def _var(index):
    ref = _NODES.get((Var, index))
    node = ref and ref()
    if node is None:
        node = _enter((Var, index), _new(Var), 1 << index)
        node.index = index
    return node


def _neg(arg):
    key = (Neg, arg)
    ref = _NODES.get(key)
    node = ref and ref()
    if node is None:
        node = _enter(key, _new(Neg), arg._m)
        node.arg = arg
    return node


def _binop(op, left, right):
    key = (BinOp, op, left, right)
    ref = _NODES.get(key)
    node = ref and ref()
    if node is None:
        node = _enter(key, _new(BinOp), left._m | right._m)
        node.op, node.left, node.right = op, left, right
    return node


def _power(base, exponent):
    key = (Pow, base, type(exponent), exponent)
    ref = _NODES.get(key)
    node = ref and ref()
    if node is None:
        node = _enter(key, _new(Pow), base._m)
        node.base, node.exponent = base, exponent
    return node


def _call(func, arg):
    key = (Call, func, arg)
    ref = _NODES.get(key)
    node = ref and ref()
    if node is None:
        node = _enter(key, _new(Call), arg._m)
        node.func, node.arg = func, arg
    return node


def _homotopy(phis, base, ts, weights, radial=True):
    phis = tuple(phis)
    key = (Homotopy, phis, _bits(base), _bits(ts), _bits(weights), radial)
    ref = _NODES.get(key)
    node = ref and ref()
    if node is None:
        # the radial factor reads every base coordinate
        node = _enter(key, _new(Homotopy), (1 << len(base)) - 1)
        node.phis, node.base, node.ts = phis, base, ts
        node.weights, node.radial = weights, radial
    return node


def _bits(floats) -> bytes:
    return struct.pack("%dd" % len(floats), *floats)


_BUILD = {Num: _num, Var: _var, Neg: _neg, BinOp: _binop, Pow: _power,
          Call: _call, Homotopy: _homotopy}


# ---------------------------------------------------------------------------
# Tokenizer and parser

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<ws>\s+)")


def tokenize(text: str) -> List[Tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError("unexpected character %r" % text[pos], pos)
        kind = m.lastgroup
        if kind != "ws":
            out.append((kind, m.group(), pos))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, text: str, params: Dict[str, float]):
        self.text = text
        self.params = params
        self.toks = tokenize(text)
        self.k = 0

    def peek(self):
        return self.toks[self.k] if self.k < len(self.toks) else (None, "", len(self.text))

    def take(self):
        tok = self.peek()
        self.k += 1
        return tok

    def expect_op(self, op):
        kind, text, off = self.take()
        if kind != "op" or text != op:
            raise ParseError("expected %r, found %r" % (op, text or "end of input"), off)

    def parse(self):
        node = self.expr()
        kind, text, off = self.peek()
        if kind is not None:
            raise ParseError("trailing input %r" % text, off)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, text, off = self.peek()
            if kind == "op" and text in "+-":
                self.take()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, text, off = self.peek()
            if kind == "op" and text in "*/":
                self.take()
                node = BinOp(text, node, self.unary())
            else:
                return node

    def unary(self):
        kind, text, off = self.peek()
        if kind == "op" and text == "-":
            self.take()
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        kind, text, off = self.peek()
        if kind == "op" and text == "^":
            self.take()
            node = Pow(node, self.exponent())
        return node

    def exponent(self) -> Fraction:
        """A signed integer, or a signed integer ratio in parentheses,
        x^(p/q): a bare exponent ends at its integer, so x^2 / 3 is
        (x^2) / 3."""
        kind, text, off = self.peek()
        paren = kind == "op" and text == "("
        if paren:
            self.take()
            kind, text, off = self.peek()
        sign = 1
        if kind == "op" and text == "-":
            self.take()
            sign = -1
        e = Fraction(sign * self.integer("exponent must be an integer or "
                                         "integer ratio"))
        kind, text, _ = self.peek()
        if paren and kind == "op" and text == "/":
            self.take()
            den_off = self.peek()[2]
            den = self.integer("exponent denominator must be an integer")
            if den == 0:
                raise ParseError("exponent denominator is zero", den_off)
            e /= den
        try:
            float(e)
        except OverflowError:
            raise ParseError("exponent too large for a float", off) from None
        if paren:
            self.expect_op(")")
        return e

    def integer(self, message: str) -> int:
        kind, text, off = self.take()
        if kind != "num" or not text.isdigit():
            raise ParseError(message, off)
        return int(text)

    def atom(self):
        kind, text, off = self.take()
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            if re.fullmatch(r"x[0-9]", text):
                return Var(int(text[1]))
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            if text in self.params:
                return _num(self.params[text])
            raise ParseError("unknown name %r" % text, off)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError("expected a value, found %r" % (text or "end of input"), off)


def parse_expr(text: str, params: Optional[Dict[str, float]] = None):
    """The expression tree of text; raises ParseError.

    An identifier that is not a coordinate x0..x9 or a function is a
    parameter: it becomes the number params gives it, and a name params
    lacks is a ParseError.  Deeper nesting than MAX_DEPTH is refused: the
    parser and `to_text` recurse once per level.
    """
    try:
        node = _Parser(text, params or {}).parse()
    except RecursionError:
        node = None
    if node is None or _walk(node, {}, _depth) > MAX_DEPTH:
        raise ParseError("expression nested too deeply (more than %d "
                         "levels)" % MAX_DEPTH, 0)
    return node


def _depth(node, kids) -> int:
    return 1 + max(kids, default=0)


# ---------------------------------------------------------------------------
# Printing

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def to_text(node, prec: int = 0) -> str:
    match node:
        case Num(number=v):
            # a negative zero too: -0.0^2 would parse as -(0.0^2)
            if v >= 0 and math.copysign(1.0, v) > 0:
                return repr(v)
            return "(%s)" % repr(v)
        case Var(index=i):
            return "x%d" % i
        case Neg(arg=a):
            s = "-" + to_text(a, 3)
            return "(%s)" % s if prec > 2 else s
        case BinOp(op=o, left=a, right=b):
            p = _PREC[o]
            s = "%s %s %s" % (to_text(a, p), o, to_text(b, p + 1))
            return "(%s)" % s if prec > p else s
        case Pow(base=b, exponent=e):
            if e.denominator == 1 and e >= 0:
                etxt = str(e.numerator)
            else:
                etxt = "(%d/%d)" % (e.numerator, e.denominator) \
                    if e.denominator != 1 else "(%d)" % e.numerator
            # a power as a base is parenthesized: x1^2^3 does not parse
            s = "%s^%s" % (to_text(b, 4), etxt)
            return "(%s)" % s if prec > 3 else s
        case Call(func=f, arg=a):
            return "%s(%s)" % (f, to_text(a, 0))
        case Homotopy(phis=ps):
            return "homotopy(%s)" % ", ".join(to_text(p) for p in ps)
    raise TypeError("not an expression node: %r" % (node,))


# ---------------------------------------------------------------------------
# Symbolic differentiation (with light constant folding)


def _is_num(node, v=None):
    return type(node) is Num and (v is None or node.number == v)


_ZERO = Num(0.0)
_ONE = Num(1.0)
_TWO = Fraction(2)


def _add(a, b):
    if type(a) is Num and a.number == 0.0:
        return b
    if type(b) is Num and b.number == 0.0:
        return a
    return _binop("+", a, b)


def _sub(a, b):
    if type(b) is Num and b.number == 0.0:
        return a
    if type(a) is Num and a.number == 0.0:
        return _neg(b)
    return _binop("-", a, b)


def _mul(a, b):
    if type(a) is Num or type(b) is Num:
        x = a.number if type(a) is Num else None
        y = b.number if type(b) is Num else None
        if x == 0.0 or y == 0.0:
            return _ZERO
        if x == 1.0:
            return b
        if y == 1.0:
            return a
    return _binop("*", a, b)


def _div(a, b):
    if type(a) is Num and a.number == 0.0:
        return _ZERO
    if type(b) is Num and b.number == 1.0:
        return a
    return _binop("/", a, b)


def _pow(base, e: Fraction):
    if e == 0:
        return _ONE
    if e == 1:
        return base
    return _power(base, e)


def _derive(node, i: int, ds: dict):
    """node's partial derivative along x_i, given ds, which maps each of
    its children to its derivative along x_i; node reads x_i
    (`derivative` never derives a node whose mask lacks it)."""
    t = type(node)
    if t is BinOp:
        o, a, b = node.op, node.left, node.right
        da, db = ds[a], ds[b]
        if o == "+":
            return _add(da, db)
        if o == "-":
            return _sub(da, db)
        if o == "*":
            return _add(_mul(da, b), _mul(a, db))
        return _div(_sub(_mul(da, b), _mul(a, db)), _pow(b, _TWO))
    if t is Call:
        f, a = node.func, node.arg
        if f == "sin":
            return _mul(_call("cos", a), ds[a])
        if f == "cos":
            d = _mul(_call("sin", a), ds[a])
            return _ZERO if _is_num(d, 0.0) else _neg(d)
        if f == "exp":
            return _mul(node, ds[a])
        if f == "sqrt":
            return _div(ds[a], _mul(_num(2.0), node))
        return _mul(_div(a, node), ds[a])  # abs
    if t is Pow:
        e = node.exponent
        return _mul(_mul(_num(float(e)), _pow(node.base, e - 1)),
                    ds[node.base])
    if t is Neg:
        d = ds[node.arg]
        return _ZERO if _is_num(d, 0.0) else _neg(d)
    if t is Var:
        return _ONE
    if t is Homotopy:
        # d/dx_i phi(y_k) = t_k (d_i phi)(y_k), and the radial factor
        # x_nu - base_nu contributes the nu = i term without it
        ps, ts, ws = node.phis, node.ts, node.weights
        dps = tuple(derivative(p, i) for p in ps)
        res = _ZERO
        if not all(_is_num(d, 0.0) for d in dps):
            res = _homotopy(dps, node.base, ts,
                            tuple(w * t for w, t in zip(ws, ts)),
                            node.radial)
        if node.radial and not _is_num(ps[i], 0.0):
            res = _add(res, _homotopy((ps[i],), node.base, ts, ws, False))
        return res
    raise TypeError("not an expression node: %r" % (node,))


def derivative(node, i: int):
    """Exact partial derivative of an expression with respect to x_i.

    The DAG is walked without recursion, in `_pending`'s order, and each
    node is derived as soon as its children are, so any depth
    differentiates.  A subtree whose mask `_m` lacks x_i is not walked:
    its derivative is `_ZERO`.  Each node walked keeps its derivative
    along x_i in `_d`, weakly: a derivative lives as long as a caller or
    a node built from it holds it (a strong reference would make cycles,
    as d exp(u) = exp(u) du refers to exp(u)).  A node whose derivative
    is still held is not walked either.  So a node shared within one
    expression or between expressions built apart is differentiated once
    while its derivative is held, its derivative is shared in the output,
    and `derivative(n, i) is derivative(n, i)`.

    The loop is `_pending`'s stack, copied, because it prunes a node
    when the node is popped, before its children are pushed: a mask that
    lacks x_i, or a derivative still held.  `_pending` could do that only
    by asking its caller about each node, a call per node, which was
    measured slower on derivative-heavy runs.
    """
    bit = 1 << i
    if not node._m & bit:
        return _ZERO
    ref = node._d and node._d.get(i)
    held = ref and ref()
    if held is not None:  # asked for again, and still held
        return held
    # node -> its derivative; dropped whole if a node fails to derive.
    # The stack is `_pending`'s; a node is looked up in `_d` when popped.
    ds = {}
    stack = [node]
    push, pop = stack.append, stack.pop
    while stack:
        n = pop()
        if n is None:  # the node under it: its children are done
            n = pop()
        elif n in ds:  # pushed twice, and done
            continue
        else:
            if not n._m & bit:
                ds[n] = _ZERO
                continue
            ref = n._d and n._d.get(i)
            d = ref and ref()
            if d is not None:
                ds[n] = d
                continue
            t = type(n)
            if t is BinOp:
                a, b = n.left, n.right
                if b not in ds:
                    push(n)
                    push(None)
                    push(b)
                    if a not in ds:
                        push(a)
                    continue
                if a not in ds:
                    push(n)
                    push(None)
                    push(a)
                    continue
            elif t is Neg or t is Call or t is Pow:
                a = n.base if t is Pow else n.arg
                if a not in ds:
                    push(n)
                    push(None)
                    push(a)
                    continue
        d = ds[n] = _derive(n, i, ds)
        if n._d is None:
            n._d = {}
        n._d[i] = weakref.ref(d)
    return ds[node]


def _rebuild(node, kids, repl: Dict[int, object]):
    match node:
        case Num():
            return node
        case Var(index=i):
            return repl.get(i, node)
        case Neg():
            return _neg(*kids)
        case BinOp(op=o):
            return _binop(o, *kids)
        case Pow(exponent=e):
            return _power(*kids, e)
        case Call(func=f):
            return _call(f, *kids)
    raise TypeError("not an expression node: %r" % (node,))


def substitute(node, repl: Dict[int, object], memo: Optional[dict] = None):
    """Replace coordinate references by expression nodes (for compositions).

    Walks the DAG with `_walk`, so without recursion.  A subexpression shared
    in the input stays shared in the output, since the rebuilt nodes are
    interned.  Calls that pass the same memo (node identity to result)
    walk the nodes they share once, and must pass the same repl.
    """
    return _walk(node, {} if memo is None else memo,
                 lambda n, kids: _rebuild(n, kids, repl))


def det_node(m: List[List[object]]):
    """Determinant of a matrix of expression nodes, by cofactor expansion."""
    n = len(m)
    if n == 1:
        return m[0][0]
    acc = None
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = _mul(m[0][j], det_node(minor))
        if acc is None:
            acc = term
        elif j % 2 == 1:
            acc = _sub(acc, term)
        else:
            acc = _add(acc, term)
    return acc


def inverse_nodes(m: List[List[object]]) -> List[List[object]]:
    """Entrywise expression nodes of the matrix inverse, via the adjugate."""
    n = len(m)
    det = det_node(m)
    out: List[List[object]] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[m[r][c] for c in range(n) if c != i]
                     for r in range(n) if r != j]
            cof = det_node(minor) if n > 1 else _ONE
            if (i + j) % 2 == 1:
                cof = _neg(cof) if not _is_num(cof, 0.0) else cof
            out[i][j] = _div(cof, det)
    return out


def constant(v: float) -> ExprField:
    """The constant v as an expression field."""
    return _num(float(v))


def velocity(i: int) -> ExprField:
    """The fibre coordinate x^i_0 (i = 1..3) as a phase field."""
    return _var(3 + i)


# ---------------------------------------------------------------------------
# Compilation to straight-line float code


def _pending(root, memo: dict):
    """Yield root's DAG nodes not in memo, post-order, left child first,
    each once and only after its children; the caller enters each node
    in memo before it resumes the generator.  This is the one traversal
    of the DAG: `_walk` and `_Rows.run` iterate it, so every evaluator
    visits in this order and the first operation to fail is the same in
    each (`derivative` runs the same stack in its own loop).  The stack
    holds bare nodes and None: a popped node whose children are all in
    memo is yielded at once, else it goes back under a None with its
    missing children on top, right then left, and popping that None
    yields the node under it.  A node pushed twice is in memo when it
    comes up again, and is skipped.  Nothing is held but the stack, so a
    caller that stops part way leaves memo holding finished results only.
    """
    stack = [root]
    push, pop = stack.append, stack.pop
    while stack:
        n = pop()
        if n is None:  # the node under it: its children are done
            yield pop()
            continue
        if n in memo:  # pushed twice, and done
            continue
        t = type(n)
        if t is BinOp:
            a, b = n.left, n.right
            if b not in memo:
                push(n)
                push(None)
                push(b)
                if a not in memo:
                    push(a)
                continue
            if a not in memo:
                push(n)
                push(None)
                push(a)
                continue
        elif t is Neg or t is Call or t is Pow:
            a = n.base if t is Pow else n.arg
            if a not in memo:
                push(n)
                push(None)
                push(a)
                continue
        yield n


def _walk(root, memo: dict, visit):
    """Visit root's DAG nodes not in memo in `_pending`'s order; memo maps
    each to visit(node, (its children's results)).  Returns root's
    result.  A visit that raises leaves memo usable: it holds finished
    results only."""
    for n in _pending(root, memo):
        t = type(n)
        if t is BinOp:
            kids = (memo[n.left], memo[n.right])
        elif t is Neg or t is Call:
            kids = (memo[n.arg],)
        elif t is Pow:
            kids = (memo[n.base],)
        else:
            kids = ()
        memo[n] = visit(n, kids)
    return memo[root]


def dag_size(fields: Sequence[Field]) -> int:
    """The number of distinct nodes in the fields' shared DAG: the arrays
    one `Batch` holds once it has evaluated them all."""
    memo = {}
    for fld in fields:
        for n in _pending(fld, memo):
            memo[n] = None
    return len(memo)


class _Emitter:
    """Straight-line Python source for a set of expression DAGs.

    Each compound node becomes one temporary, emitted in `_pending` order, so
    the first operation to raise is the one `_Rows` fails on first.  A
    node's reference is the source of its float value.  Each case does the
    `_Rows` arithmetic and checks on one float, raising the error text
    `_Rows` logs.  A compound node that reads no coordinate is folded: it
    is evaluated once, by `_Rows` on a one-row batch, and its reference is
    the number.  One that fails there keeps its line and its check, so the
    function raises it in the same place.  A product by the number 1.0 is
    its other operand, and one by -1.0 that operand's negation: the same
    floats, a NaN's sign aside.  A division checks its divisor
    only where that can fail: not for a nonzero number, nor for a
    reference an earlier division has checked.  A homotopy node has no
    float code: its quadrature runs in a `Batch` only.

    A line is its target temporary (or None) and its tokens: text and
    the references it reads.  `source` writes a temporary as a statement
    only where it is read more than once, can raise (`**`, sin, cos, exp,
    sqrt) or is an output, and every other one (`+ - * /`, negation,
    `abs`) in parentheses into its one reader, at most NESTING deep.  So
    only operations that cannot raise run later, on the same operands: a
    division runs after its divisor check.
    """

    # CPython's tokenizer refuses 200 nested parentheses; an inlined value
    # adds at most two
    NESTING = 32

    def __init__(self):
        self.lines: List[Tuple[Optional[str], tuple]] = []
        self.safe = set()  # temporaries whose operation cannot raise
        self.env = {"_sin": math.sin, "_cos": math.cos, "_exp": math.exp,
                    "_sqrt": math.sqrt}
        self.memo: Dict[object, str] = {}
        self.loaded = set()
        self.nonzero = set()  # references that cannot be zero here
        self.consts = Batch([[]])  # the values of the folded nodes

    def field(self, fld: Field) -> str:
        """Emit fld after the nodes emitted so far; the source of its value."""
        if not isinstance(fld, ExprField):
            raise TypeError("only expression fields compile, not %s"
                            % type(fld).__name__)
        return _walk(fld, self.memo, self.visit)

    def source(self, outs: Sequence[str]) -> str:
        """The emitted lines as the source of a function p -> [outs]."""
        reads = dict.fromkeys(outs, 2)  # an output is never written inline
        for _, tokens in self.lines:
            for ref in tokens:
                reads[ref] = reads.get(ref, 0) + 1
        inline = {}  # temporary -> its tokens in parentheses, their depth
        body = []
        for target, tokens in self.lines:
            text, depth = [], 0
            for ref in tokens:
                if ref in inline:
                    sub, d = inline.pop(ref)
                    text += sub
                    depth = max(depth, d)
                else:
                    text.append(ref)
            if target in self.safe and reads.get(target, 0) < 2 \
                    and depth < self.NESTING:
                inline[target] = (["(", *text, ")"], depth + 1)
            else:
                line = "".join(text)
                if target:
                    line = "%s = %s" % (target, line)
                body.append("    %s\n" % line)
        binds = "".join(", %s=%s" % (k, k) for k in self.env)
        return "def _compiled(p%s):\n%s    return [%s]\n" % (
            binds, "".join(body), ", ".join(outs))

    def function(self, outs: Sequence[str]) -> Callable:
        """The emitted lines as a function p -> [outs]."""
        namespace = dict(self.env)
        exec(compile(self.source(outs), "<compile_fields>", "exec"),
             namespace)
        # popped, so the function and its globals form no reference cycle
        return namespace.pop("_compiled")

    def temp(self, *tokens, raises=False) -> str:
        name = "t%d" % len(self.lines)
        self.lines.append((name, tokens))
        if not raises:
            self.safe.add(name)
        return name

    def check(self, cond: tuple, exc: str, message: str) -> None:
        """A line raising exc(message) when the tokens of cond are true."""
        self.lines.append((None, ("if ", *cond,
                                  ": raise %s(%r)" % (exc, message))))

    def const(self, v) -> str:
        if type(v) is float and math.isfinite(v):
            ref = "(%r)" % v
            if v:
                self.nonzero.add(ref)
            return ref
        name = "_k%d" % len(self.env)
        self.env[name] = v
        return name

    def visit(self, node, kids):
        if kids and not node._m:  # a compound node that reads no coordinate
            value = _batch_walk(self.consts, node)
            if not self.consts.errors:
                return self.const(value)
            # the failure stays in the code; later nodes fold afresh
            self.consts = Batch([[]])
        match node:
            case Num(number=v):
                return self.const(float(v))
            case Var(index=k):
                name = "x%d" % k
                if k not in self.loaded:
                    self.loaded.add(k)
                    self.lines.append((None, ("%s = float(p[%d])"
                                              % (name, k),)))
                return name
            case Neg():
                return self.temp("-", kids[0])
            case BinOp(op=o):
                a, b = kids
                if o == "*" and "(1.0)" in kids:  # x * 1.0 is x, bit for bit
                    return b if a == "(1.0)" else a
                if o == "*" and "(-1.0)" in kids:  # and x * -1.0 is -x
                    return self.temp("-", b if a == "(-1.0)" else a)
                if o == "/" and b not in self.nonzero:
                    self.nonzero.add(b)
                    self.check((b, " == 0.0"), "ZeroDivisionError",
                               "division by zero in expression")
                return self.temp(a, " %s " % o, b)
            case Pow(exponent=e):
                a, = kids
                if e == 0:
                    return "(1.0)"
                if e.denominator != 1:
                    self.check((a, " <= 0.0"), "ValueError",
                               "fractional power of non-positive base")
                return self.temp(a, " ** %r" % float(e), raises=True)
            case Call(func=f):
                a, = kids
                if f == "sqrt":
                    self.check((a, " <= 0.0"), "ValueError",
                               "sqrt of non-positive value")
                fn = "abs" if f == "abs" else "_" + f
                return self.temp(fn + "(", a, ")", raises=f != "abs")
        raise TypeError("no float code for a %s node" % type(node).__name__)


def compile_fields(fields: Sequence[Field]) -> Callable[[Sequence[float]],
                                                         List[float]]:
    """Compile expression fields into one function p -> [values at p].

    The fields' shared DAG is walked once, by node identity, and emitted
    as straight-line float code with one operation per compound node;
    common subexpressions are shared across all the fields.  A subtree
    that reads no coordinate is folded into its number at compile time,
    unless it fails, and then it stays in place to raise.  A value read
    once that cannot raise is written into its reader.  Every operation
    is the same IEEE float operation as in `_Rows`, so the values equal a
    batch row's bit for bit, and an error raises the class and text that
    the batch logs on that row (ValueError, ZeroDivisionError,
    OverflowError), without the point.  It serves the
    one function that runs many times on one point each, the phases'
    `dynamical_fn`, once per RK4 stage; every evaluation over many points
    goes through a `Batch`.  A homotopy node raises TypeError.
    """
    em = _Emitter()
    return em.function([em.field(fld) for fld in fields])


# ---------------------------------------------------------------------------
# Evaluation over all rows of a point batch

# what a field raises where it cannot be evaluated: what Python float
# arithmetic and math functions raise
_FLOAT_ERRORS = (ValueError, ZeroDivisionError, OverflowError)


def _batch_walk(batch: Batch, node):
    """node's value at every row of the batch (a float for a node that
    reads no coordinate, and for every node of a one-row batch).  The
    batch has one memo, keyed by node (nodes are interned and hash by
    identity), so fields share their common subexpressions, even when
    they were built apart; the memo keeps its nodes alive as long as the
    batch.  The memo holds no reference back to the batch, so a batch is
    freed as soon as it is dropped.  The nodes not yet in the memo are
    evaluated by `_Rows.run`, in `_pending`'s order."""
    memo = batch.memo
    if node in memo:
        return memo[node]
    rows = _Rows(batch)
    if rows.one:
        rows.run(node)
    else:
        with np.errstate(all="ignore"):
            rows.run(node)
    return memo[node]


class _Rows:
    """Node values at every row of a `Batch`: the batch evaluator of
    expression fields.  `compile_fields` repeats its arithmetic on one
    point, and the tests hold the two bit-equal.

    A value is a Python float for a node that reads no coordinate, else
    a float64 array over the rows.  In a one-row batch a coordinate is a
    Python float too, so every node takes the float branches, with no
    numpy call and so no `np.errstate`; a multi-row batch runs under
    `np.errstate(all="ignore")`.  A number enters as a float (an int
    parameter too), and every operation is plain IEEE arithmetic on
    floats.  Addition, subtraction, multiplication, division, negation,
    `abs` and `sqrt` are correctly rounded in numpy as in Python, so both
    give the same bits; `**`, `exp`, `sin` and `cos` go through
    `float.__pow__` and `math` element by element, since their numpy
    versions round differently.  A failing row is logged in the batch
    instead of raising, so the other rows carry on.  `run` iterates
    `_pending` and does the common arithmetic inline.
    """

    def __init__(self, batch: Batch):
        self.batch = batch
        self.one = len(batch.P) == 1
        # the coordinate values by column: Python floats for one row
        self.x = batch.P[0].tolist() if self.one else batch.P.T

    def run(self, root) -> None:
        """Evaluate root and its nodes not yet in the batch memo into the
        memo, in `_pending`'s order, so the memo only ever holds finished
        values.  The loop does `+ - *`, negation, coordinates and numbers
        itself and hands the nodes that can fail, and homotopies, to
        `visit`."""
        memo, x, visit = self.batch.memo, self.x, self.visit
        for n in _pending(root, memo):
            t = type(n)
            if t is BinOp:
                o = n.op
                if o == "*":
                    v = memo[n.left] * memo[n.right]
                elif o == "+":
                    v = memo[n.left] + memo[n.right]
                elif o == "-":
                    v = memo[n.left] - memo[n.right]
                else:
                    v = visit(n, (memo[n.left], memo[n.right]))
            elif t is Neg:
                v = -memo[n.arg]
            elif t is Num:
                v = float(n.number)
            elif t is Var:
                v = x[n.index]
            elif t is Call:
                v = visit(n, (memo[n.arg],))
            elif t is Pow:
                v = visit(n, (memo[n.base],))
            else:
                v = visit(n, ())
            memo[n] = v

    def each(self, fn, a):
        """fn applied to each element of a as a Python float, errors
        logged row by row."""
        if not isinstance(a, np.ndarray):
            try:
                return fn(a)
            except _FLOAT_ERRORS as exc:
                self.batch.fail(True, type(exc), str(exc))
                return math.nan
        xs = a.tolist()
        try:
            return np.array([fn(x) for x in xs], dtype=float)
        except _FLOAT_ERRORS:
            out = np.empty(len(xs))
            for r, x in enumerate(xs):
                try:
                    out[r] = fn(x)
                except _FLOAT_ERRORS as exc:
                    out[r] = math.nan
                    self.batch.fail(np.arange(len(xs)) == r, type(exc),
                                    str(exc))
            return out

    def visit(self, node, kids):
        """The value of a quotient, power, call or homotopy node, from
        its children's values."""
        t = type(node)
        if t is BinOp:  # "/": `run` does the other operators
            a, b = kids
            zero = b == 0
            self.batch.fail(zero, ZeroDivisionError,
                            "division by zero in expression")
            if not isinstance(b, np.ndarray) and zero:
                return math.nan
            return a / b
        if t is Call:
            a, = kids
            f = node.func
            if f == "sqrt":
                self.batch.fail(a <= 0.0, ValueError,
                                "sqrt of non-positive value")
                if isinstance(a, np.ndarray):
                    return np.sqrt(a)
                return math.sqrt(a) if a > 0.0 else math.nan
            if f == "abs":
                return abs(a)
            return self.each(getattr(math, f), a)
        if t is Pow:
            return self.pow(kids[0], node.exponent)
        if t is Homotopy:
            return self.homotopy(node)
        raise TypeError("not an expression node: %r" % (node,))

    def homotopy(self, node: Homotopy):
        """The quadrature walks its phis once, over one batch that stacks
        the rows y_k of every node t_k (k-major), shared by every
        homotopy node with the same nodes and base point; an error at a
        stacked row is logged on the row it came from.  In a one-row
        batch it runs on Python floats, with the same products and the
        same left-to-right sum."""
        P, base, ts = self.batch.P, node.base, node.ts
        n, nts = len(P), len(ts)
        rel = [x - b for x, b in zip(self.x, base)]
        key = (ts, base)
        stacked = self.batch.stacked.get(key)
        if stacked is None:
            ys = [[b + t * r for b, r in zip(base, rel)] for t in ts]
            stacked = self.batch.stacked[key] = Batch(
                ys if self.one
                else np.concatenate([np.stack(y, axis=1) for y in ys]))
        vals = [_batch_walk(stacked, phi) for phi in node.phis]
        for r, (exc, message) in sorted(stacked.errors.items()):
            self.batch.fail(np.arange(n) == r % n, exc, message)
        # each phi's values at node t_k, k = 0..nts-1
        if self.one:
            parts = [v.tolist() if isinstance(v, np.ndarray) else [v] * nts
                     for v in vals]
        else:
            parts = [[v[k * n:(k + 1) * n] for k in range(nts)]
                     if isinstance(v, np.ndarray) else [v] * nts
                     for v in vals]
        terms = []
        for k, w in enumerate(node.weights):
            for nu, part in enumerate(parts):
                term = w * part[k]
                terms.append(term * rel[nu] if node.radial else term)
        return total(terms)

    def pow(self, a, e: Fraction):
        if e == 0:
            return 1.0
        p = float(e)
        if e.denominator == 1:
            return self.each(lambda x: x ** p, a)
        self.batch.fail(a <= 0.0, ValueError,
                        "fractional power of non-positive base")
        # skips the rows just failed, whose power would be complex
        return self.each(lambda x: x ** p if x > 0.0 else math.nan, a)


# ---------------------------------------------------------------------------
# Model files


GALILEI_CONSTANTS = ("m", "q", "hbar")
EINSTEIN_CONSTANTS = ("m", "q", "hbar", "c")


@dataclass
class Model:
    kind: str  # "galilei" or "einstein"
    name: str
    constants: Dict[str, float]  # dimension tags are checked at load
    params: Dict[str, float]
    box_lo: np.ndarray
    box_hi: np.ndarray
    metric: List[List[ExprField]]  # 3x3 spacelike (galilei) or 4x4 (einstein)
    potential: List[ExprField]  # covariant components of the EM potential
    gravity2: Optional[PForm]  # closed observed gravitational 2-form

    @property
    def mass(self) -> float:
        return self.constants["m"]

    @property
    def charge(self) -> float:
        return self.constants["q"]

    @property
    def hbar(self) -> float:
        return self.constants["hbar"]

    @property
    def lightspeed(self) -> float:
        return self.constants["c"]

    @property
    def coupling(self) -> float:
        """The charge-to-action ratio q/hbar scaling the electromagnetic terms."""
        return self.charge / self.hbar

    @cached_property
    def coupled_potential(self) -> List[ExprField]:
        """The coupled electromagnetic potential (q/hbar) A, built once."""
        return [a * self.coupling for a in self.potential]

    def center(self) -> np.ndarray:
        return 0.5 * (self.box_lo + self.box_hi)


def _spacetime_expr(key: str, text: str, params) -> ExprField:
    """The field of model entry key; its errors name the entry."""
    try:
        node = parse_expr(text, params)
    except ParseError as exc:
        raise ParseError("%s: %s" % (key, exc.message), exc.offset) from None
    high = node._m >> 4  # the lowest set bit names the first bad index
    if high:
        raise ValueError("%s: x%d is not a spacetime coordinate"
                         % (key, 3 + (high & -high).bit_length()))
    return node


def _param(key: str, text: str) -> float:
    """The value of a [params] entry that an expression can read."""
    token = _TOKEN_RE.fullmatch(key)
    if token is None or token.lastgroup != "name" \
            or re.fullmatch(r"x[0-9]", key) or key in FUNCTIONS:
        raise ValueError("parameter %r can never be read: a parameter name "
                         "is an identifier other than x0..x9 and %s"
                         % (key, ", ".join(FUNCTIONS)))
    return _number("parameter %r" % key, text)


def _number(what: str, text: str) -> float:
    """text as a finite float; the error names the entry by `what`."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError("%s is not a number: %r" % (what, text)) from None
    if not math.isfinite(value):
        raise ValueError("%s is not finite" % what)
    return value


def _closed(section, name: str, keys, hint: str) -> None:
    """Refuse an entry of section [name] that the model never reads."""
    for key in section:
        if key not in keys:
            raise ValueError("%s: no such entry in [%s]; %s"
                             % (key, name, hint))


def _symmetric_entries(section, prefix, lo_idx, hi_idx, params):
    _closed(section, "metric",
            {"%s%d%d" % (prefix, i, j) for i in range(lo_idx, hi_idx + 1)
             for j in range(lo_idx, hi_idx + 1)},
            "the entries are %s%d%d..%s%d%d"
            % (prefix, lo_idx, lo_idx, prefix, hi_idx, hi_idx))
    dim = hi_idx - lo_idx + 1
    grid: List[List[Optional[ExprField]]] = [[None] * dim for _ in range(dim)]
    for i in range(lo_idx, hi_idx + 1):
        for j in range(i, hi_idx + 1):
            key = "%s%d%d" % (prefix, i, j)
            alt = "%s%d%d" % (prefix, j, i)
            if i != j and key in section and alt in section:
                raise ValueError("%s and %s are the same entry; give one"
                                 % (key, alt))
            if key not in section and alt in section:
                key = alt
            text = section.get(key)
            if text is None:
                if i == j:
                    raise ValueError("missing metric entry %s" % key)
                text = "0"
            fld = _spacetime_expr(key, text, params)
            grid[i - lo_idx][j - lo_idx] = fld
            grid[j - lo_idx][i - lo_idx] = fld
    return grid


def _parse_box(section) -> Tuple[np.ndarray, np.ndarray]:
    _closed(section, "box", ("lo", "hi"), "the entries are lo and hi")
    for key in ("lo", "hi"):
        if key not in section:
            raise ValueError("[box] has no %s entry" % key)
    lo, hi = (np.array([_number("[box] " + key, v.strip())
                        for v in section[key].split(",")])
              for key in ("lo", "hi"))
    if lo.shape != (4,) or hi.shape != (4,):
        raise ValueError("box bounds must have four components")
    if not np.all(lo < hi):
        raise ValueError("box must have positive extent in every coordinate")
    return lo, hi


def _parse_constants(section, kind) -> Dict[str, float]:
    required = EINSTEIN_CONSTANTS if kind == "einstein" else GALILEI_CONSTANTS
    out = {}
    for name in required:
        if name not in section:
            raise ValueError("missing constant %r" % name)
        parts = section[name].split(None, 1) or [""]
        value = _number("constant %r" % name, parts[0])
        dim = parse_dimension(parts[1] if len(parts) > 1 else "1")
        want = CANONICAL_CONSTANT_DIMS[name]
        if dim != want:
            raise ValidationError("constant %r has dimension %s, expected %s"
                                  % (name, format_dimension(dim),
                                     format_dimension(want)))
        if name != "q" and value <= 0:
            raise ValidationError("constant %r must be positive" % name)
        out[name] = value
    for name in section:
        if name not in required:
            if name == "c" and kind == "galilei":
                raise ValueError("a light-speed constant has no place in a "
                                 "galilei model")
            raise ValueError("unknown constant %r" % name)
    return out


def parse_model_text(text: str, name: str = "<string>") -> Model:
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=("#",))
    cp.optionxform = str
    try:
        cp.read_string(text, source=name)
    except configparser.Error as exc:
        # the parser's message, on one line
        raise ValueError(" ".join(str(exc).split())) from None

    def section(key: str):
        if not cp.has_section(key):
            raise ValueError("model file has no [%s] section" % key)
        return cp[key]

    head = section("model")
    kind = head.get("kind", "").strip()
    if kind not in ("galilei", "einstein"):
        raise ValueError("model kind must be 'galilei' or 'einstein'")
    _closed(head, "model", ("kind", "name"), "the entries are kind and name")
    # only the galilei dynamics reads a gravitational 2-form
    known = ["model", "constants", "params", "box", "metric", "potential"] \
        + (["gravity"] if kind == "galilei" else [])
    for key in cp.sections():
        if key not in known:
            raise ValueError("[%s]: %s models have no such section; the "
                             "sections are %s" % (key, kind, ", ".join(
                                 "[%s]" % k for k in known)))
    model_name = head.get("name", name).strip()

    params = {}
    if cp.has_section("params"):
        for key, val in cp["params"].items():
            params[key] = _param(key, val)

    constants = _parse_constants(section("constants"), kind)
    box_lo, box_hi = _parse_box(section("box"))

    if kind == "galilei":
        metric = _symmetric_entries(section("metric"), "g", 1, 3, params)
    else:
        metric = _symmetric_entries(section("metric"), "g", 0, 3, params)

    potential: List[ExprField] = []
    pot = cp["potential"] if cp.has_section("potential") else {}
    keys = ["A%d" % lam for lam in range(4)]
    _closed(pot, "potential", keys, "the entries are A0..A3")
    for key in keys:
        potential.append(_spacetime_expr(key, pot.get(key, "0"), params))

    gravity2 = None
    if cp.has_section("gravity"):
        keys = {"Phi%d%d" % (a, b): (a, b)
                for a in range(4) for b in range(a + 1, 4)}
        _closed(cp["gravity"], "gravity", keys,
                "the entries are Phi<a><b> with a < b")
        gravity2 = PForm(4, 2, {
            ab: _spacetime_expr(key, cp["gravity"][key], params)
            for key, ab in keys.items() if key in cp["gravity"]})

    return Model(kind=kind, name=model_name, constants=constants,
                 params=params, box_lo=box_lo, box_hi=box_hi, metric=metric,
                 potential=potential, gravity2=gravity2)


# Sobol direction numbers (Joe & Kuo, "Constructing Sobol sequences with
# better two-dimensional projections", SIAM J. Sci. Comput. 30, 2008): the
# (degree s, coefficients a, initial m) of dimensions 2-4; dimension 1 is
# van der Corput.
_SOBOL_DIMS = ((1, 0, (1,)), (2, 1, (1, 3)), (3, 1, (1, 3, 1)))
_SOBOL_BITS = 30


def _direction_numbers(s: int, a: int, m: Sequence[int]) -> List[int]:
    m = list(m)
    for k in range(s, _SOBOL_BITS):
        mk = m[k - s] ^ (m[k - s] << s)
        for j in range(1, s):
            if (a >> (s - 1 - j)) & 1:
                mk ^= m[k - j] << j
        m.append(mk)
    return [mk << (_SOBOL_BITS - 1 - k) for k, mk in enumerate(m)]


def sobol(n: int) -> np.ndarray:
    """The first n points of the unscrambled 4-D Sobol sequence in Gray-code
    order, as an array [n, 4] of exact dyadic floats c / 2**30 (the points
    of scipy's `qmc.Sobol(d=4, scramble=False)`)."""
    dirs = [[1 << (_SOBOL_BITS - 1 - k) for k in range(_SOBOL_BITS)]]
    dirs += [_direction_numbers(*dim) for dim in _SOBOL_DIMS]
    x = [0, 0, 0, 0]
    rows = []
    for i in range(n):
        rows.append(x)
        c = (~i & (i + 1)).bit_length() - 1  # the lowest zero bit of i
        x = [xj ^ v[c] for xj, v in zip(x, dirs)]
    return np.array(rows, dtype=float).reshape(n, 4) / 2.0 ** _SOBOL_BITS


def sample_points(model: Model, count: int = SAMPLE_COUNT) -> np.ndarray:
    """Deterministic low-discrepancy points inside the declared box."""
    span = model.box_hi - model.box_lo
    # keep a small margin so finite differencing in tests stays inside
    return model.box_lo + span * (0.05 + 0.9 * sobol(count))


def validate_model(model: Model) -> None:
    pts = sample_points(model)
    n = len(model.metric)
    fields = [f for row in model.metric for f in row] + model.potential
    closure = []
    if model.gravity2 is not None:
        fields += list(model.gravity2.comps.values())
        closure = list(exterior_derivative(model.gravity2).comps.items())
    # every field over all points in one batch, without raising; first[r]
    # is the index of the first field that failed at row r, whose error
    # is the one the batch logged there
    batch = Batch(pts)
    per_field: List[np.ndarray] = []
    first: Dict[int, int] = {}
    for j, f in enumerate(fields + [f for _, f in closure]):
        per_field.append(f._values(batch))
        for r in batch.errors:
            first.setdefault(r, j)

    def evaluation_failed(r: int) -> ValidationError:
        return ValidationError("field evaluation failed: %s"
                               % batch.errors[r][1], witness=pts[r])

    vals = np.stack(per_field[:len(fields)], axis=1)
    gs = vals[:, :n * n].reshape(-1, n, n)
    # one call for every point's metric, the same eigenvalues as one call
    # per point; a non-finite entry is masked, since its point fails
    # before its eigenvalues are read
    eigs = np.linalg.eigvalsh(np.where(np.isfinite(gs), gs, 0.0))
    for r, p in enumerate(pts):
        if first.get(r, len(fields)) < len(fields):
            raise evaluation_failed(r)
        row = vals[r]
        if not np.all(np.isfinite(row)):
            raise ValidationError("non-finite field value", witness=p)
        g = gs[r]
        eig = eigs[r]
        if model.kind == "galilei":
            if eig[0] <= 0:
                raise ValidationError(
                    "spacelike metric is not positive definite "
                    "(eigenvalues %s)" % eig, witness=p)
        else:
            if not (eig[0] < 0 and eig[1] > 0):
                raise ValidationError(
                    "metric does not have Lorentzian signature -+++ "
                    "(eigenvalues %s)" % eig, witness=p)
            if g[0, 0] >= 0:
                raise ValidationError(
                    "the chart time direction is not timelike (g00 >= 0)",
                    witness=p)
    for r, p in enumerate(pts):
        for j, (key, _) in enumerate(closure, len(fields)):
            if first.get(r) == j:
                raise evaluation_failed(r)
            v = per_field[j][r]
            if not abs(v) <= 1e-9:  # NaN included
                raise ValidationError(
                    "gravitational 2-form is not closed "
                    "(d-component %s = %g)" % (key, v), witness=p)


def load_model(path) -> Model:
    path = Path(path)
    model = parse_model_text(path.read_text(), name=path.stem)
    validate_model(model)
    return model


def builtin_model_dir() -> Path:
    return Path(__file__).resolve().parent / "models"


def available_models() -> List[str]:
    return sorted(p.stem for p in builtin_model_dir().glob("*.ini"))


def load_builtin(name: str) -> Model:
    path = builtin_model_dir() / (name + ".ini")
    if not path.exists():
        raise FileNotFoundError(
            "no builtin model %r; available: %s"
            % (name, ", ".join(available_models())))
    return load_model(path)


def resolve_model(spec) -> Model:
    """Load a model from a file path, falling back to the builtin name;
    a name that is neither raises the builtin error, which lists the
    shipped models."""
    if isinstance(spec, Model):
        return spec
    path = str(spec)
    if path.endswith(".ini"):
        return load_model(path)
    try:
        return load_builtin(path)
    except FileNotFoundError:
        if not os.path.exists(path):
            raise
        return load_model(path)
