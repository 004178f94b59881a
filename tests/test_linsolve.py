"""Distributed linear solving: staggering, convergence, oracle equivalence."""

from __future__ import annotations

import ast
import dataclasses
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramodel import (
    ControllerParams,
    DivergenceError,
    FirstOrderFilter,
    LinearTrackingProblem,
    ValidationError,
    builtin_problem,
    matvec,
    solve_linear,
    stagger_params,
)
from paramodel.config_io import tracking_error
from paramodel import codegen, linsolve
from paramodel.linsolve import DEMO_A, DEMO_B, PRODUCT_TERMS, _loop_args, _loop_source, _rows, as_records

from allowlist import is_float, outside_the_allowlist
from conftest import EQ3_X_STAR
from test_kernel import assert_same_linsolve

BASE = ControllerParams(kp=1.0, ki=0.01, k_alpha=166.5, k_beta=4.0, dt=1e-5)


def gaussian_eliminate(a_rows, b_vals):
    """Independent dense solve in exact rational arithmetic.

    Entries are taken through their decimal string representation, so the
    oracle solves the system with the literal printed coefficients.
    """
    n = len(b_vals)
    m = [[Fraction(str(v)) for v in row] + [Fraction(str(b_vals[i]))] for i, row in enumerate(a_rows)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(m[r][col]))
        if m[pivot][col] == 0:
            raise ZeroDivisionError("singular system")
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(n):
            if r != col:
                factor = m[r][col] / m[col][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return [m[i][n] / m[i][i] for i in range(n)]


def make_problem(a, b, horizon=30_000, rho=0.5, base=BASE):
    n = len(b)
    return LinearTrackingProblem(
        a=a,
        b=b,
        controllers=tuple(stagger_params(base, n, rho)),
        filters=tuple(FirstOrderFilter(tau=1e-5, state=0.0) for _ in range(n)),
        horizon=horizon,
    )


def test_stagger_rho_one_copies():
    out = stagger_params(BASE, 3, 1.0)
    assert out == [BASE, BASE, BASE]


def test_stagger_hand_values():
    out = stagger_params(BASE, 3, 0.5)
    assert [p.kp for p in out] == [1.0, 0.5, 0.25]
    assert [p.ki for p in out] == [0.01, 0.005, 0.0025]
    assert all(p.k_alpha == BASE.k_alpha for p in out)
    assert all(p.k_beta == BASE.k_beta for p in out)


@given(
    rho=st.floats(min_value=0.05, max_value=0.99),
    n=st.integers(min_value=2, max_value=8),
)
def test_stagger_strictly_decreasing(rho, n):
    out = stagger_params(BASE, n, rho)
    for a, b in zip(out, out[1:]):
        assert b.kp < a.kp
        assert b.ki < a.ki
        assert b.k_alpha == a.k_alpha
        assert b.k_beta == a.k_beta


def test_stagger_validation():
    with pytest.raises(ValidationError):
        stagger_params(BASE, 0, 0.5)
    with pytest.raises(ValidationError):
        stagger_params(BASE, 3, 0.0)
    with pytest.raises(ValidationError):
        stagger_params(BASE, 3, 1.5)


def test_problem_validation():
    with pytest.raises(ValidationError):  # not square
        make_problem(((1.0, 2.0),), (1.0, 2.0))
    with pytest.raises(ValidationError):  # controller count
        LinearTrackingProblem(
            a=((1.0,),),
            b=(1.0,),
            controllers=(),
            filters=(FirstOrderFilter(tau=1e-5),),
            horizon=10,
        )
    with pytest.raises(ValidationError):  # bad horizon
        make_problem(((1.0,),), (1.0,), horizon=0)
    for a, b in ((((1.0, 2.0), (3.0, math.nan)), (1.0, 2.0)), (((1.0, 2.0), (3.0, 4.0)), (-math.inf, 2.0))):
        with pytest.raises(ValidationError, match="must be a finite number"):
            make_problem(a, b)


@pytest.mark.parametrize("horizon", [5.5, 10.0, True, "10"], ids=["float", "integral-float", "bool", "str"])
def test_horizon_is_an_integer(horizon):
    # as a configuration's horizon key: the run would fail in range()
    with pytest.raises(ValidationError, match=f"horizon: must be an integer, got {re.escape(repr(horizon))}"):
        make_problem(((1.0,),), (1.0,), horizon=horizon)


def test_oracle_confirms_frozen_solution():
    x_star = gaussian_eliminate(DEMO_A, DEMO_B)
    assert x_star == [Fraction(1, 2), Fraction(1, 10), Fraction(4, 5)]
    assert [float(v) for v in x_star] == list(EQ3_X_STAR)


def test_solves_demo_system(builtin_linsolve_run):
    run = builtin_linsolve_run
    assert run.final_residual < 1e-2
    for got, want in zip(run.x_final, EQ3_X_STAR):
        assert abs(got - want) < 1e-2


def test_solves_identity_system():
    b = (0.5, -0.2, 0.3)
    problem = make_problem(((1.0, 0, 0), (0, 1.0, 0), (0, 0, 1.0)), b)
    x_trace, y_trace = solve_linear(problem)
    for got, want in zip(x_trace[-1], b):
        assert abs(got - want) < 1e-2


def test_solves_diagonal_system():
    problem = make_problem(((2.0, 0, 0), (0, 4.0, 0), (0, 0, 5.0)), (2.0, 2.0, 5.0))
    x_trace, y_trace = solve_linear(problem)
    for got, want in zip(x_trace[-1], (1.0, 0.5, 1.0)):
        assert abs(got - want) < 1e-2
    assert tracking_error(as_records(problem, x_trace, y_trace)[-1]) < 1e-2


def rows(a, x) -> tuple:
    """A x as the solver's loop measures it: each expression of
    ``_rows(len(x))`` for a row of ``a``, evaluated with ``a0_0, a0_1, ...``
    and ``x0, x1, ...`` bound and no builtins."""
    names = {"__builtins__": {}, **{f"x{c}": v for c, v in enumerate(x)}}
    names.update({f"a{j}_{c}": v for j, row in enumerate(a) for c, v in enumerate(row)})
    return tuple(eval(row, names) for row in _rows(len(x))[: len(a)])


def test_matvec_sums_left_to_right():
    # 0.0 + 1 + 1e100 - 1e100 in plain IEEE order is 0; a compensated sum
    # (sum() from Python 3.12 on) would give 1.0
    a = ((1.0, 1e100, -1e100),)
    assert matvec(a, (1.0, 1.0, 1.0)) == rows(a, (1.0, 1.0, 1.0)) == (0.0,)


def bits(y):
    """Each component by ``float.hex``, every nan as one value."""
    return ["nan" if v != v else v.hex() for v in y]


# signed zeros, the smallest subnormal and normal, and entries whose
# products and row sums overflow
EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308)
ENTRIES = st.sampled_from(EDGES) | st.floats(allow_nan=False, allow_infinity=False)
VALUES = st.sampled_from((0.0, -0.0, math.inf, -math.inf, math.nan)) | st.floats()


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=8))
def test_written_rows_are_matvec_bit_for_bit(data, n):
    a = data.draw(st.tuples(*[st.tuples(*[ENTRIES] * n)] * n))
    x = data.draw(st.lists(VALUES, min_size=n, max_size=n))
    assert bits(rows(a, x)) == bits(matvec(a, x))


def test_written_rows_of_a_zero_row_are_positive_zero():
    # each term is -0.0: summed from the start 0.0 the row is 0.0, summed
    # without it the row would be -0.0
    a, x = ((0.0, 0.0, 0.0), (1.0, 0.0, 2.0)), (-1.0, -2.0, -3.0)
    assert math.copysign(1.0, 0.0 * -1.0 + 0.0 * -2.0 + 0.0 * -3.0) == -1.0
    assert bits(rows(a, x)) == bits(matvec(a, x)) == ["0x0.0p+0", "-0x1.c000000000000p+2"]


def test_rows_are_written_out_up_to_their_bound():
    n = math.isqrt(PRODUCT_TERMS)
    for size, written in ((n, True), (n + 1, False)):
        a = tuple(tuple((-1.0) ** (i + j) * (i + 1) / (j + 1) for j in range(size)) for i in range(size))
        (_, _, got), values, _ = _loop_args(make_problem(a, (1.0,) * size))
        assert got is written
        # A's entries are values of the loop only where its rows are written out
        assert len(values) == 4 + 3 * size + (size * size if written else 0)
        if written:
            x = [1.0 / (c + 3) for c in range(size)]
            assert bits(rows(a, x)) == bits(matvec(a, x))


def loop_problem(a, **gain):
    n = len(a)
    base = ControllerParams(kp=1.0, ki=0.01, k_alpha=166.5, k_beta=4.0, dt=1e-5)
    controllers = list(stagger_params(dataclasses.replace(base, **gain), n, 0.9))
    filters = [FirstOrderFilter(tau=1e-5, state=0.0)] * n
    # a second and a third group: another dt and tau, another k_alpha
    controllers[n // 2] = dataclasses.replace(controllers[n // 2], dt=2e-5)
    filters[n // 2] = FirstOrderFilter(tau=3e-5, state=-0.5)
    controllers[-1] = dataclasses.replace(controllers[-1], k_alpha=0.0)
    return LinearTrackingProblem(a=a, b=(1.0,) * n, controllers=controllers, filters=filters, horizon=10)


def side(n):
    return tuple(tuple(float(i * n + j) - 2000.5 for j in range(n)) for i in range(n))


LOOP_PROBLEMS = {
    "demo": lambda: builtin_problem(),
    "1x1": lambda: loop_problem(((2.0,),)),
    "zeros": lambda: loop_problem(((0.0, -0.0), (-5e-324, 1e308))),
    "3x3-edges": lambda: loop_problem(
        ((1.0, 1e100, -1e100), (-1.5, 2.5, -3.5), (1e-320, -2.2250738585072014e-308, 0.1)), kp=-0.0, ki=5e-324
    ),
    "64x64": lambda: loop_problem(side(64)),
    "65x65-matvec": lambda: loop_problem(side(65)),
}


@pytest.mark.parametrize("name", LOOP_PROBLEMS)
def test_generated_loop_holds_only_arithmetic(name):
    source = _loop_source(*_loop_args(LOOP_PROBLEMS[name]())[0])
    assert ("mul(x)" in source) is (name == "65x65-matvec")
    assert outside_the_allowlist(source) == []
    # no value of the problem: the floats are LAW's 2.0 and 6.0 and the 0.0
    # that starts the rows and the state and that the tests compare with
    assert {repr(n.value) for n in ast.walk(ast.parse(source)) if is_float(n)} == {"0.0", "2.0", "6.0"}


def builtin_source() -> str:
    return _loop_source(*_loop_args(builtin_problem())[0])


def test_the_loop_allowlist_rejects_sums_and_other_operators(monkeypatch):
    source = builtin_source()
    for old, new, flagged in [
        ("s = y0 + y1 + y2", "s = sum((y0, y1, y2))", ["Call: sum((y0, y1, y2))", "Name: sum"]),
        ("s = y0 + y1 + y2", "s = fsum((y0, y1, y2))", ["Call: fsum((y0, y1, y2))", "Name: fsum"]),
        ("if s - s", "if abs(s) - s", ["Call: abs(s)", "Name: abs"]),
        ("s = y0 + y1 + y2", "s = y0 ** 2.0", ["BinOp: y0 ** 2.0", "Pow: "]),
        ("s = y0 + y1 + y2", "s = y0 % y1", ["BinOp: y0 % y1", "Mod: "]),
        ("s = y0 + y1 + y2", "s = y0 + 1", ["Constant: 1"]),
        ("s = y0 + y1 + y2", "s = -y0 + y1 + y2", ["UnaryOp: -y0"]),
        ("column0):", "column0=sum):", ["def: not loop(...) of plain arguments"]),
        ("x_trace.append", "x_trace.extend", ["Attribute: x_trace.extend"]),
        ("x_trace.append", "x_trace.real.append", ["Attribute: x_trace.real.append", "Attribute: x_trace.real"]),
    ]:
        assert old in source
        assert sorted(outside_the_allowlist(source.replace(old, new, 1))) == sorted(flagged)
    # a generator whose rows are sums flags every row, before the loop and in it
    monkeypatch.setattr(
        linsolve, "_rows", lambda n: [f"sum(({', '.join(f'a{j}_{c} * x{c}' for c in range(n))}), 0.0)" for j in range(n)]
    )
    mutated = builtin_source()
    assert sum(entry.startswith("Call: sum(") for entry in outside_the_allowlist(mutated)) == 6


def test_a_second_solve_of_a_problem_compiles_nothing(monkeypatch):
    first = solve_linear(make_problem(DEMO_A, DEMO_B, horizon=200))
    misses = linsolve._loop.cache_info().misses
    compiled = []
    define = codegen.define
    monkeypatch.setattr(codegen, "define", lambda *args: compiled.append(args[1]) or define(*args))
    # an equal problem, built again, writes the same text
    second = solve_linear(make_problem(DEMO_A, DEMO_B, horizon=200))
    assert compiled == []
    assert linsolve._loop.cache_info().misses == misses
    assert [bits(x) for x in first[0] + first[1]] == [bits(x) for x in second[0] + second[1]]
    info = linsolve._loop.cache_info()
    assert info.maxsize == linsolve.LOOPS_CACHED and info.currsize <= linsolve.LOOPS_CACHED


def scaled(problem: LinearTrackingProblem, by: float) -> LinearTrackingProblem:
    """``problem`` with A, b, every gain but k_beta, dt and tau scaled by ``by``."""
    return dataclasses.replace(
        problem,
        a=tuple(tuple(v * by for v in row) for row in problem.a),
        b=tuple(v * by for v in problem.b),
        controllers=tuple(
            dataclasses.replace(p, kp=p.kp * by, ki=p.ki * by, k_alpha=p.k_alpha * by, dt=p.dt * by)
            for p in problem.controllers
        ),
        filters=tuple(dataclasses.replace(f, tau=f.tau * by) for f in problem.filters),
    )


def test_a_solve_groups_its_unknowns_once(monkeypatch):
    # the loop's values and its decay columns come from one grouping
    calls = []
    groups = linsolve._groups
    monkeypatch.setattr(linsolve, "_groups", lambda problem: calls.append(problem) or groups(problem))
    problem = builtin_problem(10)
    solve_linear(problem)
    assert calls == [problem]


def test_problems_of_one_shape_share_one_text_and_one_loop():
    # three groups (another dt and tau, another k_alpha), and every value differs
    first = loop_problem(((2.0, 0.5, 0.25), (0.5, 3.0, -1.0), (0.0, 1.0, 4.0)))
    second = scaled(first, 1.5)
    (shape, values, _), (other, others, _) = _loop_args(first), _loop_args(second)
    assert shape == other == (3, ((0,), (1,), (2,)), True)
    assert len(values) == len(others) == 3 * 4 + 3 * 3 + 9
    assert all(u != v for u, v in zip(values, others) if u != 0.0)
    assert _loop_source(*shape) == _loop_source(*other)
    linsolve._loop.cache_clear()
    for problem in (first, second):
        assert_same_linsolve(problem)
    info = linsolve._loop.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def test_a_stagger_sweep_compiles_one_loop():
    linsolve._loop.cache_clear()
    solve_linear(builtin_problem())
    for i in range(24):
        rho = 0.2 + i * (0.99 - 0.2) / 23
        gains = tuple(stagger_params(linsolve.DEMO_GAINS, 3, rho))
        assert_same_linsolve(dataclasses.replace(builtin_problem(horizon=300), controllers=gains))
    info = linsolve._loop.cache_info()
    assert (info.hits, info.misses, info.currsize) == (24, 1, 1)


@pytest.mark.parametrize("n", [64, 65], ids=["written", "matvec"])
def test_two_problems_of_a_large_side_share_their_loop(n):
    first = loop_problem(side(n))
    linsolve._loop.cache_clear()
    for problem in (first, scaled(first, 0.75)):
        assert_same_linsolve(problem)
    info = linsolve._loop.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def test_residual_consistency():
    problem = make_problem(DEMO_A, DEMO_B, horizon=500)
    x_trace, y_trace = solve_linear(problem)
    assert len(x_trace) == len(y_trace) == 500
    for k in (0, 1, 9, 99, 499):
        assert y_trace[k] == matvec(problem.a, x_trace[k])


def test_permutation_covariance_2x2():
    # full relabeling (rows, columns, controllers, filters all permuted the
    # same way) permutes the trajectory.  With n = 2 each row sum is a
    # single addition, so commutativity makes the match bit-exact.
    a = ((2.0, 0.3), (0.4, 1.5))
    b = (1.0, 0.7)
    base = ControllerParams(kp=1.0, ki=0.01, k_alpha=166.5, k_beta=4.0, dt=1e-5)
    controllers = tuple(stagger_params(base, 2, 0.5))
    filters = (FirstOrderFilter(tau=1e-5, state=0.0), FirstOrderFilter(tau=1e-5, state=0.0))
    p = LinearTrackingProblem(a=a, b=b, controllers=controllers, filters=filters, horizon=400)
    perm = (1, 0)
    a_p = tuple(tuple(a[perm[i]][perm[j]] for j in range(2)) for i in range(2))
    p_perm = LinearTrackingProblem(
        a=a_p,
        b=tuple(b[perm[i]] for i in range(2)),
        controllers=tuple(controllers[perm[i]] for i in range(2)),
        filters=tuple(filters[perm[i]] for i in range(2)),
        horizon=400,
    )
    x1, y1 = solve_linear(p)
    x2, y2 = solve_linear(p_perm)
    for k in range(400):
        assert x2[k] == (x1[k][1], x1[k][0])
        assert y2[k] == (y1[k][1], y1[k][0])


def test_uniform_gains_diverge_on_demo_system():
    # without staggering the three loops fight each other and blow up;
    # the solver must report the iteration it detected the overflow at
    base = ControllerParams(kp=1.0, ki=0.01, k_alpha=166.5, k_beta=40.0, dt=1e-5)
    problem = make_problem(DEMO_A, DEMO_B, horizon=50_000, rho=1.0, base=base)
    with pytest.raises(DivergenceError) as err:
        solve_linear(problem)
    assert err.value.iteration is not None
    assert 0 < err.value.iteration < 50_000


def test_as_records_shape():
    problem = make_problem(DEMO_A, DEMO_B, horizon=5)
    x_trace, y_trace = solve_linear(problem)
    recs = as_records(problem, x_trace, y_trace)
    assert [r.k for r in recs] == [1, 2, 3, 4, 5]
    assert recs[0].b == problem.b
    assert recs[2].x == x_trace[2]
    assert recs[2].y == y_trace[2]


def test_divergence_by_an_infinite_filter_output():
    # u is finite at iteration 1 and the RK4 step overflows to +inf
    problem = LinearTrackingProblem(
        a=((1.0,),),
        b=(0.5,),
        controllers=(ControllerParams(kp=1e160, ki=1e153, k_alpha=1.0, k_beta=0.0),),
        filters=(FirstOrderFilter(tau=1.0),),
        horizon=5,
    )
    with pytest.raises(DivergenceError) as err:
        solve_linear(problem)
    assert str(err.value) == "unknown 0: filter state became non-finite: inf (iteration 1)"
