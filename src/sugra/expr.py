"""Closed-form scalar expressions over a coordinate chart.

Expression trees built from decimal constants, chart coordinates, sums,
products, negation, quotients, integer powers, square roots, and the
elementary functions exp/sin/cos.  Trees are immutable after construction
and safe to share between threads.  They support

* exact symbolic differentiation, closed under the node set above,
* double-precision evaluation with one evaluator, :func:`evaluate_points`,
  each node computed once for a whole batch of points; its walk is laid out
  once as a plan that can be run batch after batch; domain errors carry
  the offending subexpression and the first point where it fails,
* substitution of an expression for each coordinate, and
* parsing from text (at most ``_MAX_NESTING`` levels deep) and printing.

Every operation is one walk over the distinct nodes (by identity) of its
expressions, children first (:func:`_distinct_nodes`), applying a local rule
of each node class to the results of its children: shared subtrees cost
once and no operation recurses.

There is deliberately no general simplifier: the smart constructors only
absorb literal zeros and ones (and fold arithmetic on literal constants),
which keeps repeated differentiation tractable.  Sums and products keep
their terms in the order they were built, the folded constant first, so no
operation compares the structure of two expressions: all downstream
comparisons are made by evaluation.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from typing import Callable, Iterable, NoReturn, Sequence

import numpy as np

__all__ = [
    "Chart",
    "Expr",
    "Const",
    "Coord",
    "Add",
    "Mul",
    "Neg",
    "Div",
    "IntPow",
    "Sqrt",
    "Exp",
    "Sin",
    "Cos",
    "ExprError",
    "EvalDomainError",
    "ParseError",
    "add",
    "mul",
    "neg",
    "div",
    "intpow",
    "sqrt",
    "exp",
    "sin",
    "cos",
    "const",
    "coord",
    "parse",
    "evaluate",
    "evaluate_points",
    "diff",
    "gradient",
    "to_text",
    "compile_expr",
    "substitute",
    "depends_on",
    "is_zero",
]


class ExprError(Exception):
    """Invalid expression construction or use."""


class EvalDomainError(ExprError):
    """Evaluation left the expression's domain (sqrt of a negative, x/0,
    0^-n) or produced a non-finite value.

    Carries the offending subexpression in ``.expr`` and the first point of
    the evaluated batch where it fails in ``.point``.
    """

    def __init__(self, message: str, expr: "Expr", point: tuple[float, ...]):
        super().__init__(message)
        self.expr = expr
        self.point = point


class _OutOfDomain(Exception):
    """Raised by ``_np``: a message, the first bad point and all the values."""


def _checked(values, bad, message: str):
    if np.count_nonzero(bad):
        raise _OutOfDomain(message, int(np.argmax(bad)), values)
    return values


class ParseError(ExprError):
    """Text does not conform to the expression grammar.

    ``.pos`` is the 0-based character offset of the problem.
    """

    def __init__(self, message: str, text: str, pos: int):
        super().__init__(f"{message} (at position {pos}: {text[max(0, pos - 8):pos + 8]!r})")
        self.text = text
        self.pos = pos


class Chart:
    """An ordered tuple of coordinate names; dimension between 1 and 11, and
    each name one that :func:`parse` reads as a coordinate."""

    __slots__ = ("names",)

    def __init__(self, names: tuple[str, ...]):
        names = tuple(names)
        if not (1 <= len(names) <= 11):
            raise ExprError(f"chart dimension must be 1..11, got {len(names)}")
        for n in names:
            if names.count(n) > 1:
                raise ExprError(f"chart repeats the name {n!r}")
            m = _TOKEN_RE.fullmatch(n)
            if m is None or m.lastgroup != "ident" or n in _FUNCS:
                raise ExprError(f"chart coordinate {n!r} is not a name that expressions can use "
                                f"(an identifier other than {', '.join(_FUNCS)})")
        self.names = names

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ExprError(f"{name!r} is not a coordinate of chart {self.names}") from None


class Expr:
    """Base class of all expression nodes.  Immutable; identity-hashed.

    Subclasses implement the local rules below (``Const`` has no ``_np``:
    ``_Plan`` fills constants in).  Build expressions with the module's
    functions (:func:`add`, :func:`mul`, ...) or :func:`parse`.
    """

    __slots__ = ()
    _prec = 5  # how tightly the printed form binds; see _paren

    # -- local rules, given the results for the nodes below ---------------
    def _diff(self, index: int, d: dict) -> "Expr":
        """Derivative along coordinate ``index``; ``d`` maps each child to its derivative."""
        raise NotImplementedError

    def _np(self, pts: np.ndarray, *args: np.ndarray) -> np.ndarray:
        """Values at the rows of ``pts``, given those ``args`` of :meth:`_children`."""
        raise NotImplementedError

    def _text(self, names, t: dict) -> str:
        """Printed form; ``t`` maps every node below to its printed form."""
        raise NotImplementedError

    def _rebuild(self, kids: list) -> "Expr":
        """The same node over the children ``kids``."""
        return type(self)(*kids)

    def _children(self) -> tuple:
        return ()

    def __repr__(self):
        return f"<{type(self).__name__}>"


def _as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float)):
        return Const(float(x))
    raise ExprError(f"cannot interpret {x!r} as an expression")


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = float(value)

    def _diff(self, index, d):
        return _ZERO

    def _text(self, names, t):
        return repr(self.value) if self.value >= 0 else f"-{repr(-self.value)}"

    def _rebuild(self, kids):
        return self

    @property
    def _prec(self):
        return 5 if self.value >= 0 else 3

    def __repr__(self):
        return f"Const({self.value!r})"


class Coord(Expr):
    __slots__ = ("index",)

    def __init__(self, index: int):
        if index < 0:
            raise ExprError(f"coordinate index must be non-negative, got {index}")
        self.index = index

    def _diff(self, index, d):
        return _ONE if index == self.index else _ZERO

    def _np(self, pts):
        return pts[:, self.index]

    def _text(self, names, t):
        return names[self.index]

    def __repr__(self):
        return f"Coord({self.index})"


class Add(Expr):
    __slots__ = ("terms",)
    _prec = 1

    def __init__(self, *terms: Expr):
        self.terms = terms

    def _diff(self, index, d):
        return add(*[d[x] for x in self.terms])

    def _np(self, pts, *terms):
        return functools.reduce(operator.add, terms)

    def _children(self):
        return self.terms

    def _text(self, names, t):
        parts = [t[self.terms[0]]]
        for x in self.terms[1:]:
            if isinstance(x, Neg):
                parts.append(f" - {_paren(x.arg, 2, t)}")
            elif isinstance(x, Const) and x.value < 0:
                parts.append(f" - {repr(-x.value)}")
            else:
                parts.append(f" + {t[x]}")
        return "".join(parts)


class Mul(Expr):
    __slots__ = ("factors",)
    _prec = 2

    def __init__(self, *factors: Expr):
        self.factors = factors

    def _diff(self, index, d):
        terms = []
        for i, f in enumerate(self.factors):
            if not is_zero(df := d[f]):
                terms.append(mul(df, *self.factors[:i], *self.factors[i + 1:]))
        return add(*terms)

    def _np(self, pts, *factors):
        return functools.reduce(operator.mul, factors)

    def _children(self):
        return self.factors

    def _text(self, names, t):
        parts = [_paren(self.factors[0], 2, t)]
        for f in self.factors[1:]:
            # a * b / c parses as (a*b)/c, so quotients after the first slot
            # must be parenthesized.
            parts.append(f"({t[f]})" if isinstance(f, Div) else _paren(f, 3, t))
        return " * ".join(parts)


class Neg(Expr):
    __slots__ = ("arg",)
    _prec = 3

    def __init__(self, arg: Expr):
        self.arg = arg

    def _diff(self, index, d):
        return neg(d[self.arg])

    def _np(self, pts, arg):
        return -arg

    def _children(self):
        return (self.arg,)

    def _text(self, names, t):
        return f"-{_paren(self.arg, 4, t)}"


class Div(Expr):
    __slots__ = ("num", "den")
    _prec = 2

    def __init__(self, num: Expr, den: Expr):
        self.num = num
        self.den = den

    def _diff(self, index, d):
        dn = d[self.num]
        dd = d[self.den]
        if is_zero(dd):
            return div(dn, self.den)
        return div(add(mul(dn, self.den), neg(mul(self.num, dd))), intpow(self.den, 2))

    def _np(self, pts, num, den):
        return _checked(num / den, den == 0.0, "division by zero")

    def _children(self):
        return (self.num, self.den)

    def _text(self, names, t):
        return f"{_paren(self.num, 2, t)} / {_paren(self.den, 3, t)}"


class IntPow(Expr):
    __slots__ = ("base", "exponent")
    _prec = 4

    def __init__(self, base: Expr, exponent: int):
        self.base = base
        self.exponent = exponent

    def _diff(self, index, d):
        db = d[self.base]
        if is_zero(db):
            return _ZERO
        return mul(Const(self.exponent), intpow(self.base, self.exponent - 1), db)

    def _np(self, pts, base):
        if self.exponent < 0:
            return _checked(base ** self.exponent, base == 0.0, "zero raised to a negative power")
        return base ** self.exponent

    def _children(self):
        return (self.base,)

    def _rebuild(self, kids):
        return IntPow(kids[0], self.exponent)

    def _text(self, names, t):
        return f"{_paren(self.base, 5, t)}^{self.exponent}"


class _Func(Expr):
    __slots__ = ("arg",)
    name = "?"

    def __init__(self, arg: Expr):
        self.arg = arg

    def _children(self):
        return (self.arg,)

    def _text(self, names, t):
        return f"{self.name}({t[self.arg]})"


class Sqrt(_Func):
    __slots__ = ()
    name = "sqrt"

    def _diff(self, index, d):
        da = d[self.arg]
        return _ZERO if is_zero(da) else div(da, mul(Const(2.0), self))

    def _np(self, pts, arg):
        return _checked(np.sqrt(arg), arg < 0.0, "square root of a negative value")


class Exp(_Func):
    __slots__ = ()
    name = "exp"

    def _diff(self, index, d):
        da = d[self.arg]
        return _ZERO if is_zero(da) else mul(self, da)

    def _np(self, pts, arg):
        return np.exp(arg)


class Sin(_Func):
    __slots__ = ()
    name = "sin"

    def _diff(self, index, d):
        da = d[self.arg]
        return _ZERO if is_zero(da) else mul(Cos(self.arg), da)

    def _np(self, pts, arg):
        return np.sin(arg)


class Cos(_Func):
    __slots__ = ()
    name = "cos"

    def _diff(self, index, d):
        da = d[self.arg]
        return _ZERO if is_zero(da) else neg(mul(Sin(self.arg), da))

    def _np(self, pts, arg):
        return np.cos(arg)


_ZERO = Const(0.0)
_ONE = Const(1.0)


def is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0.0


def _is_one(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 1.0


# ---------------------------------------------------------------------------
# Smart constructors.  These are the only places literal absorption happens.
# ---------------------------------------------------------------------------

def const(value: float) -> Const:
    return Const(value)


def coord(index: int) -> Coord:
    return Coord(index)


def add(*terms) -> Expr:
    flat: list[Expr] = []
    csum = 0.0
    stack = [_as_expr(t) for t in terms]
    stack.reverse()
    while stack:
        t = stack.pop()
        if isinstance(t, Add):
            stack.extend(reversed(t.terms))
        elif isinstance(t, Const):
            csum += t.value
        else:
            flat.append(t)
    if csum != 0.0:
        flat.insert(0, Const(csum))
    if not flat:
        return _ZERO
    if len(flat) == 1:
        return flat[0]
    return Add(*flat)


def mul(*factors) -> Expr:
    flat: list[Expr] = []
    cprod = 1.0
    stack = [_as_expr(f) for f in factors]
    stack.reverse()
    while stack:
        f = stack.pop()
        if isinstance(f, Mul):
            stack.extend(reversed(f.factors))
        elif isinstance(f, Const):
            cprod *= f.value
            if cprod == 0.0:
                return _ZERO
        else:
            flat.append(f)
    if not flat:
        return Const(cprod)
    if cprod != 1.0:
        flat.insert(0, Const(cprod))
    if len(flat) == 1:
        return flat[0]
    return Mul(*flat)


def neg(e) -> Expr:
    e = _as_expr(e)
    if isinstance(e, Const):
        return Const(-e.value)
    if isinstance(e, Neg):
        return e.arg
    return Neg(e)


def div(num, den) -> Expr:
    num = _as_expr(num)
    den = _as_expr(den)
    if is_zero(den):
        raise ExprError("denominator is the literal zero")
    if is_zero(num):
        return _ZERO
    if _is_one(den):
        return num
    if isinstance(num, Const) and isinstance(den, Const):
        return Const(num.value / den.value)
    return Div(num, den)


def intpow(base, exponent: int) -> Expr:
    base = _as_expr(base)
    if not isinstance(exponent, int):
        raise ExprError(f"integer exponent required, got {exponent!r}")
    if exponent == 0:
        return _ONE
    if exponent == 1:
        return base
    if isinstance(base, Const):
        if base.value == 0.0 and exponent < 0:
            raise ExprError("zero base with negative exponent")
        try:
            return Const(base.value ** exponent)
        except OverflowError:
            raise ExprError(f"constant power {base.value!r}^{exponent} overflows") from None
    return IntPow(base, exponent)


def sqrt(e) -> Expr:
    e = _as_expr(e)
    if isinstance(e, Const) and e.value >= 0.0:
        return Const(math.sqrt(e.value))
    return Sqrt(e)


def exp(e) -> Expr:
    return Exp(_as_expr(e))


def sin(e) -> Expr:
    return Sin(_as_expr(e))


def cos(e) -> Expr:
    return Cos(_as_expr(e))


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------

def diff(e: Expr, index: int) -> Expr:
    """Exact partial derivative with respect to the chart coordinate ``index``."""
    return gradient(e, (index,))[0]


def gradient(e: Expr, indices: Iterable[int]) -> list[Expr]:
    """``[diff(e, i) for i in indices]``, from one walk over ``e``."""
    ds = [(i, {}) for i in indices]
    for node in _distinct_nodes([e]):
        for i, d in ds:
            d[node] = node._diff(i, d)
    return [d[e] for _, d in ds]


def evaluate_points(exprs: Sequence[Expr], points) -> np.ndarray:
    """Values of every expression at every point, as an array of shape
    ``(len(points), len(exprs))``; ``points`` holds one float per chart
    coordinate each.  The :class:`_Plan` of ``exprs``, run once.
    """
    return _Plan(exprs).values(points)


class _Plan:
    """The walk of :func:`evaluate_points` over ``exprs``, laid out once and
    run on any number of batches of points.  The distinct nodes of
    ``exprs`` (distinct by identity, so shared subtrees cost once), children
    first, are the slots of the walk: constants are filled in up front, and
    every other node is a step ``(slot, node, child slots)``.  A node's
    values are dropped after the step of its last use (``last``), so at
    most ``live`` slots hold values at once, ``cols`` maps a slot to the
    output columns it fills, and a point needs at least ``width`` floats."""

    def __init__(self, exprs: Sequence[Expr]):
        index = _distinct_nodes(exprs)
        self.exprs = list(exprs)
        self.consts = [node.value if isinstance(node, Const) else None for node in index]
        self.steps = [(i, node, tuple([index[c] for c in node._children()]))
                      for node, i in index.items() if not isinstance(node, Const)]
        self.last = list(range(len(index)))
        for i, _, kids in self.steps:
            for k in kids:
                self.last[k] = i
        self.cols: dict[int, list[int]] = {}
        for c, e in enumerate(self.exprs):
            self.cols.setdefault(index[e], []).append(c)
        self.width = max((node.index + 1 for node in index if isinstance(node, Coord)), default=0)

    @functools.cached_property
    def live(self) -> int:
        """The most slots that hold values at once during a walk."""
        most = alive = 0
        for i, _, kids in self.steps:  # a step's value, then the values it drops
            most = max(most, alive := alive + 1)
            alive -= sum(self.last[k] == i for k in {i} | {k for k in kids if self.consts[k] is None})
        return most

    def values(self, points) -> np.ndarray:
        """Every expression at every point, shape ``(len(points),
        len(exprs))``; the error of :meth:`walk`, if any, is raised."""
        out, failure = self.walk(points)
        if failure is not None:
            raise failure
        return out

    def walk(self, points) -> tuple[np.ndarray, EvalDomainError | None]:
        """One walk: each node is computed for all points with numpy and its
        values dropped after their last use.  Returns the rows before the
        first point where a node leaves its domain or a value is not finite,
        and the error naming it and the first node failing there, or None.
        Points that are not rows of ``width`` floats or more raise ``ExprError``."""
        try:
            pts = np.asarray(points, dtype=float)
        except ValueError:  # ragged rows
            pts = None
        if pts is None or pts.shape != (0,) and (pts.ndim != 2 or pts.shape[1] < self.width):
            raise ExprError(f"points must be rows of at least {self.width} floats")
        out = np.empty((len(pts), len(self.exprs)))
        if not len(pts):
            return out, None
        vals, last, cols = self.consts[:], self.last, self.cols
        first, failure = len(pts), None
        for i, c in cols.items():
            if vals[i] is not None:
                out[:, c] = vals[i]
        with np.errstate(all="ignore"):
            for i, node, kids in self.steps:
                try:
                    v = node._np(pts, *[vals[k] for k in kids])
                except _OutOfDomain as err:  # a later node may fail at an earlier point
                    message, bad, v = err.args
                    if bad < first:
                        first, failure = bad, EvalDomainError(message, node, tuple(pts[bad].tolist()))
                for c in cols.get(i, ()):
                    out[:, c] = v
                if last[i] != i:
                    vals[i] = v
                for k in kids:
                    if last[k] == i:
                        vals[k] = None
        bad = ~np.isfinite(out[:first])
        if np.count_nonzero(bad):
            first = int(np.argmax(bad.any(axis=1)))
            failure = EvalDomainError("non-finite value", self.exprs[int(np.argmax(bad[first]))],
                                      tuple(pts[first].tolist()))
        return out[:first], failure


def _distinct_nodes(exprs: Sequence[Expr]) -> dict[Expr, int]:
    """The distinct nodes of ``exprs`` (nodes hash by identity), children
    first, each mapped to its position in that order."""
    index: dict[Expr, int] = {}
    for root in exprs:
        if root in index:
            continue
        stack = [(root, iter(root._children()))]
        while stack:
            node, children = stack[-1]
            for c in children:
                if c not in index:
                    stack.append((c, iter(c._children())))
                    break
            else:
                stack.pop()
                index[node] = len(index)
    return index


def evaluate(e: Expr, point: Sequence[float]) -> float:
    """IEEE double value of ``e`` at ``point`` (one float per chart coordinate)."""
    return float(evaluate_points([e], [point])[0, 0])


def to_text(e: Expr, chart: Chart) -> str:
    """Print ``e`` in the expression grammar; round-trips through :func:`parse`."""
    t: dict = {}
    for node in _distinct_nodes([e]):
        t[node] = node._text(chart.names, t)
    return t[e]


def _paren(e: Expr, min_prec: int, t: dict) -> str:
    return f"({t[e]})" if e._prec < min_prec else t[e]


def substitute(e: Expr, table: Sequence[Expr] | dict[int, Expr]) -> Expr:
    """Rebuild ``e`` with every coordinate ``i`` replaced by ``table[i]``.  Each
    node keeps its class (a nested sum is not flattened into its parent)."""
    new: dict = {}
    for node in _distinct_nodes([e]):
        new[node] = (table[node.index] if isinstance(node, Coord)
                     else node._rebuild([new[c] for c in node._children()]))
    return new[e]


def depends_on(e: Expr, indices: Iterable[int]) -> bool:
    """True when ``e`` mentions any coordinate in ``indices``."""
    wanted = set(indices)
    return any(isinstance(n, Coord) and n.index in wanted for n in _distinct_nodes([e]))


def compile_expr(e: Expr) -> Callable[[Sequence[float]], float]:
    """``e`` as a point -> float callable, equal to :func:`evaluate` on ``e``;
    the walk of ``e`` is laid out once, here, and run at each call."""
    plan = _Plan([e])
    return lambda p: float(plan.values([p])[0, 0])


# ---------------------------------------------------------------------------
# Parser.
#
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := ('-')? base ('^' signed-integer)?
#   base   := number | ident | '(' expr ')' | func '(' expr ')'
#   func   := 'sin' | 'cos' | 'exp' | 'sqrt'
# ---------------------------------------------------------------------------

# One ``(kind, text, pos)`` token per match: a number, an identifier, an
# operator (told apart by its text), or a ``bad`` character that starts none.
_TOKEN_RE = re.compile(r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|(?P<ident>[A-Za-z_]\w*)"
                       r"|(?P<op>[-+*/^()])|(?P<bad>\S))")

_FUNCS = {"sin": sin, "cos": cos, "exp": exp, "sqrt": sqrt}

# Deepest nesting that parse accepts: parentheses (function calls included),
# each a few frames of the recursive descent below, plus the ``/`` links of
# a quotient chain, which the README's bad-input contract counts too.
# Shipped files nest 3.
_MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str, chart: Chart):
        self.text = text
        self.chart = chart
        self.toks = [(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup))
                     for m in _TOKEN_RE.finditer(text)] + [("end", "", len(text))]
        self.i = 0
        self.depth = 0
        bad = [t for t in self.toks if t[0] == "bad"]
        if bad:
            self.fail("unexpected character", bad[0])

    def fail(self, message: str, tok: tuple, found: bool = True) -> NoReturn:
        """Raise ``message`` at ``tok``, followed by the text found there."""
        shown = f"{message} {tok[1] or 'end of input'!r}" if found else message
        raise ParseError(shown, self.text, tok[2])

    def peek(self) -> str:
        """The text of the next token ("" at the end)."""
        return self.toks[self.i][1]

    def accept(self, text: str) -> bool:
        """Take the next token if its text is ``text``."""
        taken = self.peek() == text
        self.i += taken
        return taken

    def next(self) -> tuple:
        self.i += 1
        return self.toks[self.i - 1]

    def expect(self, text: str) -> tuple:
        t = self.next()
        if t[1] != text:
            self.fail(f"expected {text!r}, found", t)
        return t

    def parse(self) -> Expr:
        e = self.expr()
        if self.peek():
            self.fail("unexpected trailing input", self.next())
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()[1]
            rhs = self.term()
            e = add(e, rhs) if op == "+" else add(e, neg(rhs))
        return e

    def term(self) -> Expr:
        e = self.factor()
        depth = self.depth
        while self.peek() in ("*", "/"):
            op = self.next()
            if op[1] == "/":  # a quotient nests everything before it one level deeper
                self.nest(op)
            rhs = self.factor()
            e = mul(e, rhs) if op[1] == "*" else div(e, rhs)
        self.depth = depth
        return e

    def factor(self) -> Expr:
        negate = self.accept("-")
        e = self.base()
        if self.accept("^"):
            e = intpow(e, self.exponent())
        return neg(e) if negate else e

    def exponent(self) -> int:
        sign = -1 if self.accept("-") else 1
        t = self.next()
        if t[0] != "num" or not t[1].isdigit():
            self.fail("malformed exponent", t)
        return sign * int(t[1])

    def nest(self, tok: tuple) -> None:
        """One level deeper at ``tok``, an opening parenthesis or a ``/``."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            self.fail(f"parentheses and quotients nested deeper than {_MAX_NESTING}", tok, False)

    def group(self, opening: tuple) -> Expr:
        """The expression after ``opening`` and its closing parenthesis."""
        self.nest(opening)
        e = self.expr()
        self.expect(")")
        self.depth -= 1
        return e

    def base(self) -> Expr:
        t = self.next()
        kind, text, _ = t
        if kind == "num":
            return Const(float(text))
        if text == "(":
            return self.group(t)
        if kind == "ident" and text in _FUNCS:
            return _FUNCS[text](self.group(self.expect("(")))
        if kind == "ident" and text in self.chart.names:
            return Coord(self.chart.names.index(text))
        self.fail("unknown identifier" if kind == "ident" else "expected a value, found", t)


def parse(text: str, chart: Chart) -> Expr:
    """Parse ``text`` against ``chart``; identifiers must be coordinates."""
    if not isinstance(text, str):
        raise ParseError("input is not a string", "", 0)
    if not text.strip():
        raise ParseError("empty expression", text, 0)
    return _Parser(text, chart).parse()
