"""Expression kernel: parsing, differentiation, evaluation, printing."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import count_plans, random_scalar, rng_for, structure
from oracles import central_diff

from sugra.expr import (
    Add,
    Chart,
    Const,
    Div,
    EvalDomainError,
    Exp,
    ExprError,
    IntPow,
    Neg,
    ParseError,
    Sin,
    Sqrt,
    add,
    compile_expr,
    const,
    coord,
    diff,
    div,
    evaluate,
    evaluate_points,
    gradient,
    intpow,
    mul,
    parse,
    substitute,
    to_text,
)
from sugra.forms import coordinate_form

W5 = Chart(("u", "x1", "x2", "x3", "v"))


class TestParse:
    def test_sum_of_squares(self):
        e = parse("x1^2 + x2^2 + x3^2", W5)
        assert isinstance(e, Add)
        assert all(isinstance(t, IntPow) for t in e.terms)
        assert evaluate(e, (0.0, 1.0, 2.0, 3.0, 0.0)) == 14.0

    def test_exp_quotient(self):
        e = parse("exp(2*x1)/4", W5)
        assert isinstance(e, Div)
        assert isinstance(e.num, Exp)
        assert evaluate(e, (0, 0.5, 0, 0, 0)) == pytest.approx(math.e / 4.0)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError) as err:
            parse("1/6 * f^2", W5)
        assert "unknown identifier 'f'" in str(err.value)
        assert err.value.pos == 6

    def test_precedence_and_associativity(self):
        assert evaluate(parse("8/4/2", W5), (0,) * 5) == 1.0
        assert evaluate(parse("1 - 2 - 3", W5), (0,) * 5) == -4.0
        assert evaluate(parse("2*x1^2", W5), (0, 3, 0, 0, 0)) == 18.0
        # '^' binds tighter than the leading minus
        assert evaluate(parse("-x1^2", W5), (0, 2, 0, 0, 0)) == -4.0
        assert evaluate(parse("x1^-2", W5), (0, 2, 0, 0, 0)) == 0.25

    def test_scientific_numbers(self):
        assert evaluate(parse("1e-8 + 2.5E2", W5), (0,) * 5) == pytest.approx(250.00000001)

    def test_malformed_exponent(self):
        for text in ("x1^2.5", "x1^x2", "x1^", "x1^1e2"):
            with pytest.raises(ParseError):
                parse(text, W5)

    def test_fuzz_corpus_rejected_without_crashing(self):
        corpus = [
            "", "   ", "(", ")", "()", "1 +", "* 2", "x1 x2", "sin()", "sin(x1",
            "1..2", "x1^^2", "@", "x1 + @", "sqrt", "sqrt()", "cos)x1(",
            "1e", "1e+", "2 ** 3", "x1!", "((x1)", "x1)", "+", "-", "/x1",
            "x1 / ", "exp(x1))", "una + 1", "x1 ^ (2)", "0x1f", "1.2.3",
            "(" * 300 + "x1" + ")" * 300, "x1" + "/x2" * 300,
        ]
        rng = rng_for("fuzz")
        glyphs = list("abc123+-*/^()%.$ ")
        for _ in range(60):
            n = int(rng.integers(1, 14))
            corpus.append("".join(glyphs[int(i)] for i in rng.integers(0, len(glyphs), n)))
        rejected = 0
        for text in corpus:
            try:
                parse(text, W5)
            except ParseError:
                rejected += 1
            except Exception as err:  # pragma: no cover - the assertion message
                pytest.fail(f"{text!r} crashed with {type(err).__name__}: {err}")
        assert rejected >= len(corpus) - 15  # random soup occasionally parses

    def test_nesting_bound(self):
        for text in ["(" * 100 + "x1" + ")" * 100, "x1" + "/x2" * 100,
                     "(" * 50 + "x1" + "/x2" * 50 + ")" * 50]:
            parse(text, W5)
            with pytest.raises(ParseError, match="nested deeper than 100"):
                parse("(" + text + ")", W5)
        parse(" + ".join(["x1" + "/x2" * 100] * 3), W5)  # each term nests on its own

    def test_roundtrip_through_text(self):
        rng = rng_for("roundtrip")
        pts = [tuple(rng.uniform(0.3, 1.1, size=5)) for _ in range(20)]
        for _ in range(60):
            e = random_scalar(W5, rng)
            e2 = parse(to_text(e, W5), W5)
            for p in pts[:5]:
                assert evaluate(e2, p) == pytest.approx(evaluate(e, p), rel=1e-12, abs=1e-12)
        # substitute keeps the Add, so a negative constant can follow its first term
        e = substitute(parse("x1 + x2", W5), {1: coord(1), 2: const(-2.0)})
        assert isinstance(e, Add) and isinstance(e.terms[1], Const)
        assert to_text(e, W5) == "x1 - 2.0"
        e2 = parse(to_text(e, W5), W5)
        for p in pts[:5]:
            assert evaluate(e2, p) == evaluate(e, p)

    @settings(max_examples=60, deadline=1000, derandomize=True, database=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_parse_inverts_to_text(self, seed):
        """``parse(to_text(e)) == e`` node by node, for random scalars on a
        two-coordinate chart (so both coordinates often coincide)."""
        chart = Chart(("p", "q"))
        e = random_scalar(chart, np.random.default_rng(seed))
        assert structure(parse(to_text(e, chart), chart)) == structure(e)


class TestEval:
    def test_square(self):
        assert evaluate(parse("x1^2", W5), (0.0, 2.0, 0.0, 0.0, 0.0)) == 4.0

    def test_quadratic_profile(self):
        e = parse("1/6 * u^2 * (x1^2+x2^2+x3^2)", W5)
        assert evaluate(e, (1.0, 1.0, 1.0, 1.0, 0.0)) == pytest.approx(0.5)

    def test_sqrt_domain_error_carries_subexpression(self):
        e = parse("sqrt(u)", W5)
        with pytest.raises(EvalDomainError) as err:
            evaluate(e, (-1.0, 0, 0, 0, 0))
        assert isinstance(err.value.expr, Sqrt)

    def test_division_by_zero(self):
        e = parse("1/u", W5)
        with pytest.raises(EvalDomainError):
            evaluate(e, (0.0, 0, 0, 0, 0))

    def test_matches_sympy(self):
        """evaluate_points against an independent evaluator: sympy parses
        the printed text, and lambdify evaluates it with the math module."""
        sympy = pytest.importorskip("sympy")
        rng = rng_for("compiled")
        exprs = [random_scalar(W5, rng) for _ in range(30)]
        exprs += [diff(e, 1) for e in exprs]
        exprs.append(parse("sqrt(2 + u^2) * exp(-x1) / (1 + x2^2)^3 - x3^-2", W5))
        pts = [tuple(rng.uniform(0.2, 1.0, size=5)) for _ in range(7)]
        got = evaluate_points(exprs, pts)
        assert got.shape == (len(pts), len(exprs))
        assert compile_expr(exprs[0])(pts[1]) == got[1, 0] == evaluate(exprs[0], pts[1])
        symbols = sympy.symbols(W5.names)
        for c, e in enumerate(exprs):
            fn = sympy.lambdify(symbols, sympy.sympify(to_text(e, W5)), "math")
            for k, p in enumerate(pts):
                assert got[k, c] == pytest.approx(fn(*p), rel=1e-12)
        # diff against sympy's derivative of the printed expression
        for e in exprs[:30]:
            got = evaluate_points([diff(e, i) for i in range(5)], pts)
            sym = sympy.sympify(to_text(e, W5))
            for i, x in enumerate(symbols):
                fn = sympy.lambdify(symbols, sympy.diff(sym, x), "math")
                for k, p in enumerate(pts):
                    assert got[k, i] == pytest.approx(fn(*p), rel=1e-10)

    def test_compile_expr_plans_once(self, monkeypatch):
        """A compiled expression gives evaluate's values, and its walk is laid
        out once, when it is compiled, however often it is called."""
        rng = rng_for("compileonce")
        pts = [tuple(rng.uniform(0.2, 1.0, size=5)) for _ in range(100)]
        exprs = [random_scalar(W5, rng) for _ in range(20)]
        want = [[evaluate(e, p) for p in pts] for e in exprs]
        built = count_plans(monkeypatch)
        for e, values in zip(exprs, want):
            before = built[0]
            fn = compile_expr(e)
            assert [fn(p) for p in pts] == values
            assert built[0] - before == 1

    def test_shared_nodes_are_evaluated_once(self):
        # 2^61 - 1 tree nodes but 61 distinct ones
        e = coord(1)
        for _ in range(60):
            e = Add(e, e)
        assert evaluate(e, (0.0, 3.0, 0.0, 0.0, 0.0)) == 3.0 * 2.0 ** 60
        assert evaluate(diff(e, 1), (0.0,) * 5) == 2.0 ** 60
        assert evaluate(substitute(e, {1: coord(3)}), (0.0, 0.0, 0.0, 5.0, 0.0)) == 5.0 * 2.0 ** 60

    def test_deep_chain_without_recursion(self):
        # sin(-sin(-...sin(-x1)...)), 5,000 nodes deep
        e = coord(1)
        for _ in range(2500):
            e = Sin(Neg(e))
        assert to_text(e, W5) == "sin(-" * 2500 + "x1" + ")" * 2500
        x, dx = 0.7, 1.0  # the chain rule, one link at a time
        for _ in range(2500):
            x, dx = math.sin(-x), -math.cos(-x) * dx
        assert evaluate(e, (0.0, 0.7, 0.0, 0.0, 0.0)) == pytest.approx(x, rel=1e-12)
        assert evaluate(diff(e, 1), (0.0, 0.7, 0.0, 0.0, 0.0)) == pytest.approx(dx, rel=1e-10)
        assert evaluate(substitute(e, {1: coord(4)}), (0.0, 0.0, 0.0, 0.0, 0.7)) == pytest.approx(x, rel=1e-12)

    def test_similar_deep_chains_combine(self):
        """``add`` and ``mul`` of two chains, built in code, that agree for
        1,000 levels: no construction compares their structure."""
        a, b = coord(0), coord(1)
        x, dx, y = 0.3, 1.0, 0.7  # the values of a and b, and a's derivative
        for _ in range(1000):
            a, b = Sin(Neg(a)), Sin(Neg(b))
            x, dx, y = math.sin(-x), -math.cos(-x) * dx, math.sin(-y)
        p = (0.3, 0.7, 0.0, 0.0, 0.0)
        for e, value, d in ((add(a, b), x + y, dx), (mul(a, b), x * y, dx * y)):
            assert to_text(e, W5).count("sin(-") == 2000
            assert evaluate(e, p) == pytest.approx(value, rel=1e-12)
            assert evaluate(diff(e, 0), p) == pytest.approx(d, rel=1e-10)

    def test_wide_sum(self):
        terms = [mul(float(k), coord(k % 5)) for k in range(1, 5001)]
        e = add(*terms)
        assert isinstance(e, Add) and len(e.terms) == 5000
        pts = np.random.default_rng(3).uniform(-1.0, 1.0, size=(4, 5))
        want = [sum(k * p[k % 5] for k in range(1, 5001)) for p in pts]
        assert evaluate_points([e], pts)[:, 0] == pytest.approx(want, rel=1e-12)

    def test_no_points(self):
        assert evaluate_points([parse("u", W5), parse("1/x1", W5)], []).shape == (0, 2)

    @pytest.mark.parametrize("text, points, width", [
        ("u", [1.0, 2.0], 1),  # a flat list: one float per point, not one row
        ("u + x3", [(0.0, 1.0, 2.0, 3.0, 4.0), (0.0, 1.0)], 4),  # ragged rows
        ("u + x3", [(0.0, 1.0, 2.0), (3.0, 4.0, 5.0)], 4),  # rows that stop before x3
    ])
    def test_bad_points_raise_one_expr_error(self, text, points, width):
        with pytest.raises(ExprError, match=f"points must be rows of at least {width} floats") as err:
            evaluate_points([parse(text, W5)], points)
        assert type(err.value) is ExprError

    def test_domain_error_names_the_first_failing_point(self):
        # 1/x2 first fails at the third point, sqrt(u) at the second
        exprs = [parse("1/x2", W5), parse("sqrt(u)", W5)]
        pts = [(1.0, 1.0, 1.0, 0.0, 0.0), (-1.0, 1.0, 1.0, 0.0, 0.0),
               (1.0, 1.0, 0.0, 0.0, 0.0), (-2.0, 0.0, 0.0, 0.0, 0.0)]
        with pytest.raises(EvalDomainError) as err:
            evaluate_points(exprs, pts)
        assert isinstance(err.value.expr, Sqrt)
        assert err.value.point == pts[1]
        with pytest.raises(EvalDomainError) as err:
            evaluate_points(exprs, [pts[0], pts[2], pts[1]])
        assert isinstance(err.value.expr, Div)
        assert err.value.point == pts[2]

    @pytest.mark.parametrize("text, message, first", [
        ("x1^-2", "zero raised to a negative power", 1),
        ("exp(exp(x1 + 7))", "non-finite value", 0),  # overflows at both points
        # constant subtrees, out of the domain at every point
        ("sqrt(-1)", "square root of a negative value", 0),
        ("x1 + 1/exp(-1000)", "division by zero", 0),
        ("sin(0)^-1", "zero raised to a negative power", 0),
    ])
    def test_other_domain_errors(self, text, message, first):
        pts = [(0.0, 1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0, 0.0)]
        with pytest.raises(EvalDomainError, match=message) as err:
            evaluate_points([parse(text, W5)], pts)
        assert err.value.point == pts[first]


def test_import_leaves_the_recursion_limit_alone():
    import sugra

    code = ("import sys; before = sys.getrecursionlimit(); import sugra; "
            "print(before, sys.getrecursionlimit())")
    src = str(Path(sugra.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": src}, check=True, timeout=60).stdout.split()
    assert out[0] == out[1]


class TestDiff:
    def test_sin_rule(self):
        e = diff(parse("sin(u)", W5), 0)
        for u in (0.0, 0.4, -1.3):
            assert evaluate(e, (u, 0, 0, 0, 0)) == pytest.approx(math.cos(u))

    def test_polynomial_rule(self):
        e = diff(parse("x1^2+x2^2+x3^2", W5), 1)
        assert evaluate(e, (0, 3.0, 5.0, 7.0, 0)) == 6.0

    def test_exp_quotient_matches_central_difference(self):
        e = parse("exp(2*x1)/4", W5)
        d = diff(e, 1)
        fd = central_diff(lambda t: evaluate(e, (0, t, 0, 0, 0)), 0.3, h=1e-5)
        assert abs(evaluate(d, (0, 0.3, 0, 0, 0)) - fd) <= 1e-8

    def test_gradient_is_diff_per_index(self):
        rng = rng_for("gradient")
        for _ in range(20):
            e = random_scalar(W5, rng)
            got = [structure(g) for g in gradient(e, [4, 0, 2, 0])]
            assert got == [structure(diff(e, i)) for i in (4, 0, 2, 0)]
        assert gradient(coord(1), []) == []

    def test_against_central_differences_random(self):
        rng = rng_for("fd")
        for _ in range(40):
            e = random_scalar(W5, rng)
            i = int(rng.integers(0, 5))
            p = list(rng.uniform(0.3, 1.0, size=5))
            d = evaluate(diff(e, i), tuple(p))

            def f(t, i=i, p=p, e=e):
                q = list(p)
                q[i] = t
                return evaluate(e, tuple(q))

            fd = central_diff(f, p[i], h=1e-5)
            assert d == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_mixed_partials_commute(self):
        rng = rng_for("mixed")
        exprs = [random_scalar(W5, rng) for _ in range(12)]
        exprs.append(parse("1/6 * u^2 * (x1^2+x2^2+x3^2)", W5))
        exprs.append(parse("exp(2*x1)/4 + sin(u)*cos(x2)", W5))
        exprs.append(parse("sqrt(1 + x1^2) / (2 + x2^2)", W5))
        pts = [tuple(rng.uniform(0.25, 1.1, size=5)) for _ in range(100)]
        for e in exprs:
            for i in range(5):
                for j in range(i + 1, 5):
                    ab = evaluate_points([diff(diff(e, i), j), diff(diff(e, j), i)], pts)
                    assert ab[:, 0] == pytest.approx(ab[:, 1], rel=1e-9, abs=1e-9)

    def test_diff_closed_under_node_set(self):
        rng = rng_for("closed")
        allowed = "Const Coord Add Mul Neg Div IntPow Sqrt Exp Sin Cos".split()

        def walk(e):
            assert type(e).__name__ in allowed
            for c in e._children():
                walk(c)

        for _ in range(20):
            e = random_scalar(W5, rng)
            walk(diff(diff(e, 0), 1))


class TestConstructors:
    def test_literal_absorption(self):
        x = coord(1)
        assert add(x, 0.0) is x
        assert mul(x, 1.0) is x
        assert isinstance(mul(x, 0.0), Const)
        assert intpow(x, 1) is x
        assert isinstance(intpow(x, 0), Const)

    def test_division_by_literal_zero_rejected(self):
        with pytest.raises(ExprError):
            div(coord(0), 0.0)
        with pytest.raises(ParseError):
            parse("x1 ^ 2.5", W5)

    def test_zero_base_negative_power_rejected(self):
        with pytest.raises(ExprError):
            intpow(Const(0.0), -2)

    def test_remap(self):
        e = parse("u * x1", W5)
        big = Chart(tuple(f"c{i}" for i in range(11)))
        shifted = substitute(e, {0: coord(5), 1: coord(6)})
        assert evaluate(shifted, (0,) * 5 + (2.0, 3.0, 0, 0, 0, 0)) == 6.0

    def test_chart_validation(self):
        with pytest.raises(ExprError):
            Chart(("a", "a"))
        with pytest.raises(ExprError):
            Chart(tuple(f"c{i}" for i in range(12)))
        assert W5.index("x2") == 2
        with pytest.raises(ExprError):
            W5.index("nope")

    @pytest.mark.parametrize("names, message", [
        (("a", "a"), "chart repeats the name 'a'"),
        (("sin", "x"), "chart coordinate 'sin' is not a name that expressions can use "
                       "(an identifier other than sin, cos, exp, sqrt)"),
        (("1v", "x"), "chart coordinate '1v' is not a name that expressions can use"),
        (("x", "x y"), "chart coordinate 'x y' is not a name"),
    ], ids=["repeat", "function", "number", "space"])
    def test_chart_names_are_ones_parse_reads(self, names, message):
        """A chart holds only names that an expression can write: ``sin``
        parses as the function and ``1v`` as the number 1 then ``v``."""
        with pytest.raises(ExprError) as err:
            Chart(names)
        assert str(err.value).startswith(message)

    def test_chart_names_are_a_tuple(self):
        assert Chart(["x", "y"]).names == ("x", "y")
        both = coordinate_form(Chart(["x", "y"]), "x") + coordinate_form(Chart(("x", "y")), "y")
        assert both.chart.names == ("x", "y") and len(both.coeffs) == 2
