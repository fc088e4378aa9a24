"""Closed-form scalar expressions over a coordinate chart.

Expression trees built from decimal constants, chart coordinates, sums,
products, negation, quotients, integer powers, square roots, and the
elementary functions exp/sin/cos.  Trees are immutable after construction
and safe to share between threads.  They support

* exact symbolic differentiation, closed under the node set above,
* double-precision evaluation at a point, with domain errors that carry
  the offending subexpression,
* parsing from text and printing back to parseable text.

There is deliberately no general simplifier: the smart constructors only
absorb literal zeros and ones (and fold arithmetic on literal constants),
which keeps repeated differentiation tractable.  All downstream comparisons
are made by evaluation, never by structural equality.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

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
    "diff",
    "to_text",
    "compile_expr",
    "remap_coords",
    "depends_on",
    "is_zero",
]

# Deeply nested derivative trees (second derivatives of metric entries) can
# exceed the default recursion limit during printing/compilation.
if sys.getrecursionlimit() < 20000:
    sys.setrecursionlimit(20000)


class ExprError(Exception):
    """Invalid expression construction or use."""


class EvalDomainError(ExprError):
    """Evaluation left the expression's domain (sqrt of a negative, x/0).

    Carries the offending subexpression in ``.expr``.
    """

    def __init__(self, message: str, expr: "Expr"):
        super().__init__(message)
        self.expr = expr


class ParseError(ExprError):
    """Text does not conform to the expression grammar.

    ``.pos`` is the 0-based character offset of the problem.
    """

    def __init__(self, message: str, text: str, pos: int):
        super().__init__(f"{message} (at position {pos}: {text[max(0, pos - 8):pos + 8]!r})")
        self.text = text
        self.pos = pos


@dataclass(frozen=True)
class Chart:
    """An ordered tuple of coordinate names; dimension between 1 and 11."""

    names: tuple[str, ...]

    def __post_init__(self):
        if not (1 <= len(self.names) <= 11):
            raise ExprError(f"chart dimension must be 1..11, got {len(self.names)}")
        if len(set(self.names)) != len(self.names):
            raise ExprError(f"duplicate coordinate names in chart {self.names}")

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ExprError(f"{name!r} is not a coordinate of chart {self.names}") from None


class Expr:
    """Base class of all expression nodes.  Immutable; identity-hashed."""

    __slots__ = ("_key",)

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, neg(_as_expr(other)))

    def __rsub__(self, other):
        return add(_as_expr(other), neg(self))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _as_expr(other))

    def __rtruediv__(self, other):
        return div(_as_expr(other), self)

    def __pow__(self, n: int):
        return intpow(self, n)

    def __neg__(self):
        return neg(self)

    # -- core interface --------------------------------------------------
    def diff(self, index: int) -> "Expr":
        raise NotImplementedError

    def _eval(self, point) -> float:
        raise NotImplementedError

    def _text(self, names) -> str:
        raise NotImplementedError

    def _src(self) -> str:
        raise NotImplementedError

    def _children(self) -> tuple:
        return ()

    def _prec(self) -> int:
        return 5

    def sort_key(self):
        try:
            return self._key
        except AttributeError:
            key = self._make_key()
            self._key = key
            return key

    def _make_key(self):
        raise NotImplementedError

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

    def diff(self, index):
        return _ZERO

    def _eval(self, point):
        return self.value

    def _text(self, names):
        return repr(self.value) if self.value >= 0 else f"-{repr(-self.value)}"

    def _prec(self):
        return 5 if self.value >= 0 else 3

    def _src(self):
        return repr(self.value)

    def _make_key(self):
        return (0, self.value)

    def __repr__(self):
        return f"Const({self.value!r})"


class Coord(Expr):
    __slots__ = ("index",)

    def __init__(self, index: int):
        if index < 0:
            raise ExprError(f"coordinate index must be non-negative, got {index}")
        self.index = index

    def diff(self, index):
        return _ONE if index == self.index else _ZERO

    def _eval(self, point):
        try:
            return point[self.index]
        except IndexError:
            raise ExprError(
                f"point of length {len(point)} has no coordinate {self.index}"
            ) from None

    def _text(self, names):
        return names[self.index]

    def _src(self):
        return f"p[{self.index}]"

    def _make_key(self):
        return (1, self.index)

    def __repr__(self):
        return f"Coord({self.index})"


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple[Expr, ...]):
        self.terms = terms

    def diff(self, index):
        return add(*[t.diff(index) for t in self.terms])

    def _eval(self, point):
        return math.fsum(t._eval(point) for t in self.terms)

    def _children(self):
        return self.terms

    def _prec(self):
        return 1

    def _text(self, names):
        parts = [self.terms[0]._text(names)]
        for t in self.terms[1:]:
            if isinstance(t, Neg):
                parts.append(f" - {_paren(t.arg, 2, names)}")
            elif isinstance(t, Const) and t.value < 0:
                parts.append(f" - {repr(-t.value)}")
            else:
                parts.append(f" + {t._text(names)}")
        return "".join(parts)

    def _src(self):
        return "(" + " + ".join(t._src() for t in self.terms) + ")"

    def _make_key(self):
        return (9, tuple(t.sort_key() for t in self.terms))


class Mul(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple[Expr, ...]):
        self.factors = factors

    def diff(self, index):
        terms = []
        for i, f in enumerate(self.factors):
            d = f.diff(index)
            if is_zero(d):
                continue
            rest = self.factors[:i] + self.factors[i + 1:]
            terms.append(mul(d, *rest))
        return add(*terms)

    def _eval(self, point):
        out = 1.0
        for f in self.factors:
            out *= f._eval(point)
        return out

    def _children(self):
        return self.factors

    def _prec(self):
        return 2

    def _text(self, names):
        parts = [_paren(self.factors[0], 2, names)]
        for f in self.factors[1:]:
            # a * b / c parses as (a*b)/c, so quotients after the first slot
            # must be parenthesized.
            if isinstance(f, Div):
                parts.append(f"({f._text(names)})")
            else:
                parts.append(_paren(f, 3, names))
        return " * ".join(parts)

    def _src(self):
        return "(" + " * ".join(f._src() for f in self.factors) + ")"

    def _make_key(self):
        return (8, tuple(f.sort_key() for f in self.factors))


class Neg(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        self.arg = arg

    def diff(self, index):
        return neg(self.arg.diff(index))

    def _eval(self, point):
        return -self.arg._eval(point)

    def _children(self):
        return (self.arg,)

    def _prec(self):
        return 3

    def _text(self, names):
        return f"-{_paren(self.arg, 4, names)}"

    def _src(self):
        return f"(-{self.arg._src()})"

    def _make_key(self):
        return (7, self.arg.sort_key())


class Div(Expr):
    __slots__ = ("num", "den")

    def __init__(self, num: Expr, den: Expr):
        self.num = num
        self.den = den

    def diff(self, index):
        dn = self.num.diff(index)
        dd = self.den.diff(index)
        if is_zero(dd):
            return div(dn, self.den)
        return div(add(mul(dn, self.den), neg(mul(self.num, dd))), intpow(self.den, 2))

    def _eval(self, point):
        d = self.den._eval(point)
        if d == 0.0:
            raise EvalDomainError("division by zero", self)
        return self.num._eval(point) / d

    def _children(self):
        return (self.num, self.den)

    def _prec(self):
        return 2

    def _text(self, names):
        return f"{_paren(self.num, 2, names)} / {_paren(self.den, 3, names)}"

    def _src(self):
        return f"({self.num._src()} / {self.den._src()})"

    def _make_key(self):
        return (6, self.num.sort_key(), self.den.sort_key())


class IntPow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        self.base = base
        self.exponent = exponent

    def diff(self, index):
        db = self.base.diff(index)
        if is_zero(db):
            return _ZERO
        return mul(Const(self.exponent), intpow(self.base, self.exponent - 1), db)

    def _eval(self, point):
        b = self.base._eval(point)
        if b == 0.0 and self.exponent < 0:
            raise EvalDomainError("zero raised to a negative power", self)
        return b ** self.exponent

    def _children(self):
        return (self.base,)

    def _prec(self):
        return 4

    def _text(self, names):
        return f"{_paren(self.base, 5, names)}^{self.exponent}"

    def _src(self):
        return f"({self.base._src()} ** {self.exponent})"

    def _make_key(self):
        return (5, self.base.sort_key(), self.exponent)


class _Func(Expr):
    __slots__ = ("arg",)
    name = "?"

    def __init__(self, arg: Expr):
        self.arg = arg

    def _children(self):
        return (self.arg,)

    def _text(self, names):
        return f"{self.name}({self.arg._text(names)})"

    def _make_key(self):
        return (2, self.name, self.arg.sort_key())


class Sqrt(_Func):
    __slots__ = ()
    name = "sqrt"

    def diff(self, index):
        da = self.arg.diff(index)
        if is_zero(da):
            return _ZERO
        return div(da, mul(Const(2.0), Sqrt(self.arg)))

    def _eval(self, point):
        v = self.arg._eval(point)
        if v < 0.0:
            raise EvalDomainError("square root of a negative value", self)
        return math.sqrt(v)

    def _src(self):
        return f"sqrt({self.arg._src()})"


class Exp(_Func):
    __slots__ = ()
    name = "exp"

    def diff(self, index):
        da = self.arg.diff(index)
        if is_zero(da):
            return _ZERO
        return mul(Exp(self.arg), da)

    def _eval(self, point):
        return math.exp(self.arg._eval(point))

    def _src(self):
        return f"exp({self.arg._src()})"


class Sin(_Func):
    __slots__ = ()
    name = "sin"

    def diff(self, index):
        da = self.arg.diff(index)
        if is_zero(da):
            return _ZERO
        return mul(Cos(self.arg), da)

    def _eval(self, point):
        return math.sin(self.arg._eval(point))

    def _src(self):
        return f"sin({self.arg._src()})"


class Cos(_Func):
    __slots__ = ()
    name = "cos"

    def diff(self, index):
        da = self.arg.diff(index)
        if is_zero(da):
            return _ZERO
        return neg(mul(Sin(self.arg), da))

    def _eval(self, point):
        return math.cos(self.arg._eval(point))

    def _src(self):
        return f"cos({self.arg._src()})"


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
        flat.append(Const(csum))
    if not flat:
        return _ZERO
    if len(flat) == 1:
        return flat[0]
    flat.sort(key=lambda e: e.sort_key())
    return Add(tuple(flat))


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
        flat.append(Const(cprod))
    if len(flat) == 1:
        return flat[0]
    flat.sort(key=lambda e: e.sort_key())
    return Mul(tuple(flat))


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
        return Const(base.value ** exponent)
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
    return e.diff(index)


def evaluate(e: Expr, point: Sequence[float]) -> float:
    """IEEE double value of ``e`` at ``point`` (one float per chart coordinate)."""
    return e._eval(point)


def to_text(e: Expr, chart: Chart) -> str:
    """Print ``e`` in the expression grammar; round-trips through :func:`parse`."""
    return e._text(chart.names)


def _paren(e: Expr, min_prec: int, names) -> str:
    t = e._text(names)
    return f"({t})" if e._prec() < min_prec else t


def remap_coords(e: Expr, table: dict[int, int]) -> Expr:
    """Rebuild ``e`` with every coordinate index sent through ``table``."""
    if isinstance(e, Coord):
        return Coord(table[e.index])
    if isinstance(e, Const):
        return e
    if isinstance(e, Add):
        return add(*[remap_coords(t, table) for t in e.terms])
    if isinstance(e, Mul):
        return mul(*[remap_coords(f, table) for f in e.factors])
    if isinstance(e, Neg):
        return neg(remap_coords(e.arg, table))
    if isinstance(e, Div):
        return div(remap_coords(e.num, table), remap_coords(e.den, table))
    if isinstance(e, IntPow):
        return intpow(remap_coords(e.base, table), e.exponent)
    if isinstance(e, Sqrt):
        return sqrt(remap_coords(e.arg, table))
    if isinstance(e, Exp):
        return exp(remap_coords(e.arg, table))
    if isinstance(e, Sin):
        return sin(remap_coords(e.arg, table))
    if isinstance(e, Cos):
        return cos(remap_coords(e.arg, table))
    raise ExprError(f"cannot remap {e!r}")


def depends_on(e: Expr, indices: Iterable[int]) -> bool:
    """True when ``e`` mentions any coordinate in ``indices``."""
    wanted = set(indices)

    def walk(node: Expr) -> bool:
        if isinstance(node, Coord):
            return node.index in wanted
        return any(walk(c) for c in node._children())

    return walk(e)


_COMPILE_ENV = {
    "sqrt": math.sqrt,
    "exp": math.exp,
    "sin": math.sin,
    "cos": math.cos,
    "__builtins__": {},
}


def compile_expr(e: Expr) -> Callable[[Sequence[float]], float]:
    """Compile to a fast point->float callable.

    Used internally by the residual jet core; falls back to the interpreted
    evaluator when the generated source is too deeply nested for CPython.
    Domain errors surface as ZeroDivisionError/ValueError/OverflowError from
    the compiled path; :func:`evaluate` names the offending subexpression.
    """
    try:
        src = e._src()
        return eval(compile(f"lambda p: {src}", "<expr>", "eval"), _COMPILE_ENV)
    except (RecursionError, SyntaxError, MemoryError):
        return lambda p: e._eval(p)


# ---------------------------------------------------------------------------
# Parser.
#
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := ('-')? base ('^' signed-integer)?
#   base   := number | ident | '(' expr ')' | func '(' expr ')'
#   func   := 'sin' | 'cos' | 'exp' | 'sqrt'
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|(?P<ident>[A-Za-z_]\w*)|(?P<op>[-+*/^()]))"
)

_FUNCS = {"sin": sin, "cos": cos, "exp": exp, "sqrt": sqrt}


class _Tok:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = n - len(stripped)
            raise ParseError(f"unexpected character {text[bad]!r}", text, bad)
        if m.group("num") is not None:
            toks.append(_Tok("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            toks.append(_Tok("ident", m.group("ident"), m.start("ident")))
        else:
            toks.append(_Tok(m.group("op"), m.group("op"), m.start("op")))
        pos = m.end()
    toks.append(_Tok("end", "", n))
    return toks


class _Parser:
    def __init__(self, text: str, chart: Chart):
        self.text = text
        self.chart = chart
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> _Tok:
        t = self.next()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.text or 'end of input'!r}", self.text, t.pos)
        return t

    def parse(self) -> Expr:
        e = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"unexpected trailing input {t.text!r}", self.text, t.pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self.term()
            e = add(e, rhs) if op == "+" else add(e, neg(rhs))
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            rhs = self.factor()
            e = mul(e, rhs) if op == "*" else div(e, rhs)
        return e

    def factor(self) -> Expr:
        negate = False
        if self.peek().kind == "-":
            self.next()
            negate = True
        e = self.base()
        if self.peek().kind == "^":
            self.next()
            e = intpow(e, self.exponent())
        return neg(e) if negate else e

    def exponent(self) -> int:
        sign = 1
        if self.peek().kind == "-":
            self.next()
            sign = -1
        t = self.next()
        if t.kind != "num" or not re.fullmatch(r"\d+", t.text):
            raise ParseError(f"malformed exponent {t.text or 'end of input'!r}", self.text, t.pos)
        return sign * int(t.text)

    def base(self) -> Expr:
        t = self.next()
        if t.kind == "num":
            return Const(float(t.text))
        if t.kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        if t.kind == "ident":
            if t.text in _FUNCS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return _FUNCS[t.text](arg)
            if t.text in self.chart.names:
                return Coord(self.chart.names.index(t.text))
            raise ParseError(f"unknown identifier {t.text!r}", self.text, t.pos)
        raise ParseError(f"expected a value, found {t.text or 'end of input'!r}", self.text, t.pos)


def parse(text: str, chart: Chart) -> Expr:
    """Parse ``text`` against ``chart``; identifiers must be coordinates."""
    if not isinstance(text, str):
        raise ParseError("input is not a string", "", 0)
    if not text.strip():
        raise ParseError("empty expression", text, 0)
    return _Parser(text, chart).parse()
