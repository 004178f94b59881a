"""The package's own exp and tanh: correct rounding against mpmath, special
values, the tanh the network calls, and no libm transcendental anywhere on
the simulation path."""

from __future__ import annotations

import ast
import decimal
import inspect
import math
import random
import threading
from collections import deque

import pytest

from paramodel import (
    ControllerParams,
    Edge,
    FeedforwardNet,
    builtin_problem,
    builtin_scenarios,
    controller,
    dynamics,
    elementary,
    forward,
    linsolve,
    network,
    solve_linear,
    stagger_params,
    train_online,
    trainer,
)
from paramodel.elementary import exp, tanh

from conftest import short_fig7

INF = math.inf
LIBM = ("exp", "expm1", "tanh", "pow", "log", "log1p", "sinh", "cosh", "atanh", "sin", "cos")


def rounded(value) -> float:
    """An mpmath number rounded to the nearest double (mpmath's own float()
    rounds twice for subnormal results)."""
    sign, man, e, _ = value._mpf_
    try:
        magnitude = man / (1 << -e) if e < 0 else float(man << e)
    except OverflowError:
        magnitude = INF
    return -magnitude if sign else magnitude


def reference(name: str, x: float) -> float:
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(200):
        return rounded(getattr(mpmath, name)(mpmath.mpf(x)))


def check(name: str, fn, xs) -> None:
    """Every result within 1 ulp of the exact value, and in fact correctly
    rounded with the sign of zero kept."""
    wrong, far = [], []
    for x in xs:
        got, want = fn(x), reference(name, x)
        if got != want or math.copysign(1.0, got) != math.copysign(1.0, want):
            wrong.append((x.hex(), got, want))
            if not abs(got - want) <= math.ulp(want):
                far.append(wrong[-1])
    assert not far, f"{len(far)} of {len(xs)} more than 1 ulp off, e.g. {far[:5]}"
    assert not wrong, f"{len(wrong)} of {len(xs)} not correctly rounded, e.g. {wrong[:5]}"


def any_doubles(rng: random.Random, n: int, max_exp: int) -> list[float]:
    """Doubles of every sign and binade up to 2**max_exp, subnormals included."""
    out = []
    for _ in range(n):
        e = rng.randint(-1075, max_exp)
        out.append(rng.choice((-1.0, 1.0)) * math.ldexp(1.0 + rng.random(), e))
    return out


def test_tanh_reached_range():
    rng = random.Random(20221)
    xs = [rng.uniform(-3.0, 3.0) for _ in range(20_000)]
    xs += [i / 4096 for i in range(-3 * 4096, 3 * 4096 + 1, 7)]
    check("tanh", tanh, xs)


def test_exp_reached_range():
    rng = random.Random(20222)
    xs = [rng.uniform(-50.0, 0.0) for _ in range(20_000)]
    xs += [-40.0 * (k * 1e-5) for k in range(1, 100_001, 37)]  # decay of the built-ins
    check("exp", exp, xs)


def test_tanh_whole_domain():
    rng = random.Random(20223)
    xs = any_doubles(rng, 4000, 10) + [rng.uniform(-25.0, 25.0) for _ in range(4000)]
    check("tanh", tanh, xs)


def test_exp_whole_domain():
    rng = random.Random(20224)
    xs = any_doubles(rng, 3000, 9) + [rng.uniform(-746.0, 710.0) for _ in range(3000)]
    xs += [rng.uniform(-745.2, -708.0) for _ in range(1000)]  # subnormal results
    check("exp", exp, [x for x in xs if x < 710.0])


#: Draws after which ``rejected`` gives up (about 76,000 reach its minimum
#: counts with today's tables).
SWEEP_CAP = 1_000_000


def sent_to_the_exact_paths(run) -> dict[str, list[float]]:
    """The arguments that ``run()`` hands to exp's and tanh's exact paths:
    the ones whose fast result the rounding test could not prove."""
    seen = {"exp": [], "tanh": []}
    exp_exact, tanh_exact = elementary._exp_exact, elementary._tanh_exact
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(elementary, "_exp_exact", lambda x: seen["exp"].append(x) or exp_exact(x))
        mp.setattr(elementary, "_tanh_exact", lambda a: seen["tanh"].append(a) or tanh_exact(a))
        run(seen)
    return seen


@pytest.fixture(scope="module")
def rejected():
    """The exact-path arguments of a seeded sweep through exp and tanh: it
    draws from one stream until at least 300 exp and 80 tanh arguments have
    reached the exact paths, so a bound or table that sends fewer there
    draws longer, not fewer."""

    def sweep(seen):
        rng = random.Random(20227)
        for _ in range(SWEEP_CAP):
            if len(seen["exp"]) >= 300 and len(seen["tanh"]) >= 80:
                return
            exp(rng.uniform(-50.0, 0.0))
            tanh(rng.uniform(-4.5, 4.5))
        counts = f"{len(seen['exp'])} exp and {len(seen['tanh'])} tanh arguments"
        pytest.fail(f"{SWEEP_CAP} draws sent only {counts} to the exact paths")

    return sent_to_the_exact_paths(sweep)


@pytest.fixture(scope="module")
def builtin_rejected():
    """The exact-path arguments of the built-ins: exp's of the two decay
    columns (k_beta 4 and 40), computed afresh, and tanh's of the four
    training runs."""

    def run(seen):
        controller._decay_block.cache_clear()
        for scenario in builtin_scenarios().values():
            deque(train_online(scenario), maxlen=0)
        solve_linear(builtin_problem())

    return sent_to_the_exact_paths(run)


def exact_bits(rejected) -> list[str]:
    return [elementary._exp_exact(x).hex() for x in rejected["exp"]] + [
        elementary._tanh_exact(a).hex() for a in rejected["tanh"]
    ]


def test_exact_paths(rejected):
    # the exact paths decide the arguments whose fast result the rounding
    # test cannot prove; check them on those and on random ones
    check("exp", elementary._exp_exact, rejected["exp"])
    check("tanh", elementary._tanh_exact, rejected["tanh"])
    rng = random.Random(20225)
    check("exp", elementary._exp_exact, [rng.uniform(-745.0, 709.0) for _ in range(200)])
    check("tanh", elementary._tanh_exact, [rng.uniform(2.0**-27, 19.0) for _ in range(200)])
    check("tanh", elementary._tanh_exact, [math.ldexp(1.0 + rng.random(), -rng.randint(2, 27)) for _ in range(200)])


def test_exact_paths_under_pure_python_decimal(rejected, builtin_rejected, monkeypatch):
    # the C decimal and the pure-Python one are two implementations of one
    # correctly rounded specification: they must give the same bits, on
    # the sweep's arguments and on the built-ins' own
    pydecimal = pytest.importorskip("_pydecimal")
    assert len(builtin_rejected["exp"]) > 300 and len(builtin_rejected["tanh"]) > 300
    want = exact_bits(rejected), exact_bits(builtin_rejected)
    names = [n for n, value in vars(elementary).items() if not n.startswith("_") and getattr(decimal, n, None) is value]
    assert {"Context", "Decimal", "ROUND_FLOOR", "ROUND_CEILING", "InvalidOperation"} <= set(names)
    for name in names:
        monkeypatch.setattr(elementary, name, getattr(pydecimal, name))
    assert (exact_bits(rejected), exact_bits(builtin_rejected)) == want


def test_exact_paths_ignore_the_thread_and_default_contexts(rejected):
    want = exact_bits(rejected)
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.rounding = 2, decimal.ROUND_DOWN
        ctx.traps.update(dict.fromkeys(ctx.traps, True))  # FloatOperation too
        assert exact_bits(rejected) == want
    # a new thread starts from a copy of DefaultContext
    default, saved = decimal.DefaultContext, decimal.DefaultContext.copy()
    got = []
    try:
        default.prec, default.rounding, default.Emin, default.Emax, default.clamp = 2, decimal.ROUND_DOWN, -1, 1, 1
        default.traps.update(dict.fromkeys(default.traps, True))
        assert exact_bits(rejected) == want
        thread = threading.Thread(target=lambda: got.append(exact_bits(rejected)))
        thread.start()
        thread.join(timeout=120)
    finally:
        default.prec, default.rounding, default.Emin, default.Emax = saved.prec, saved.rounding, saved.Emin, saved.Emax
        default.clamp = saved.clamp
        default.traps.update(saved.traps)
    assert got == [want]


def test_rename_leaves_number_literals_whole(monkeypatch):
    text = "y = 1e-05 * e + 2.5e+300 * x1 - .5e3 + e1"
    assert elementary.rename(text, str.upper) == "Y = 1e-05 * E + 2.5e+300 * X1 - .5e3 + E1"
    # the law renames its error input e, not the e of a literal
    monkeypatch.setattr(controller, "LAW", controller.LAW.replace("ki * e * dt", "ki * e * dt * 1e-05 * 2.5e+300"))
    assert "integral = integral + ki * err * dt * 1e-05 * 2.5e+300" in controller.law({"e": "err"}, {})


def test_exact_paths_raise_rather_than_loop_on_a_nan():
    # tanh(inf) by the exact path would divide inf by inf: the trap stops it
    with pytest.raises(decimal.InvalidOperation):
        elementary._tanh_exact(INF)


def test_tanh_special_values():
    assert math.copysign(1.0, tanh(0.0)) == 1.0
    assert math.copysign(1.0, tanh(-0.0)) == -1.0
    assert math.isnan(tanh(math.nan))
    assert tanh(INF) == 1.0 and tanh(-INF) == -1.0
    for tiny in (5e-324, 1e-300, 2.2250738585072014e-308, 1e-9, math.nextafter(2.0**-27, 0.0)):
        assert tanh(tiny) == tiny and tanh(-tiny) == -tiny
    for big in (19.0625, 20.0, 710.0, 1e300):
        assert tanh(big) == 1.0 and tanh(-big) == -1.0
    assert tanh(19.0) < 1.0


def test_exp_special_values():
    assert exp(0.0) == 1.0 and exp(-0.0) == 1.0
    assert math.isnan(exp(math.nan))
    assert exp(INF) == INF and exp(-INF) == 0.0
    assert exp(709.78) < INF and exp(709.79) == INF and exp(1e300) == INF
    assert exp(2.0**-54) == 1.0 and exp(-(2.0**-54)) == 1.0
    # underflow goes through the subnormals, monotonically, to zero
    xs = [-708.0 - i * 0.0371 for i in range(1000)]
    ys = [exp(x) for x in xs]
    assert ys[0] >= 2.2250738585072014e-308 > ys[-300] > 0.0
    assert all(a >= b for a, b in zip(ys, ys[1:]))
    assert exp(-745.1) == 5e-324 and exp(-745.2) == 0.0 and exp(-1e300) == 0.0


def test_eval_inlines_tanh(monkeypatch):
    # a one-edge net computes tanh(0.0 + 1.0 * x) = tanh(x) through the
    # text of elementary.TANH that eval_with writes out; its fallback, the
    # tanh_slow the generated text reads, must be reached too
    net = FeedforwardNet(
        inputs=("a",), hidden=(), output="y", edges=(Edge("a", "y", 0),), weights=(1.0,), mask=(True,)
    )
    fallbacks = []
    slow = elementary.tanh_slow
    monkeypatch.setattr(network, "tanh_slow", lambda x: fallbacks.append(x) or slow(x))
    rng = random.Random(20226)
    xs = [rng.uniform(-4.5, 4.5) for _ in range(20_000)]
    xs += [0.0, 2.0**-30, 1e-300, 3.9999999999999996, 4.0, -4.0, 4.0078125, 7.5, 19.1, -25.0]
    for x in xs:
        assert forward(net, (x,)) == tanh(x), x.hex()
    assert any(-4.0 < x < 4.0 for x in fallbacks)


def test_no_libm_transcendental_on_the_simulation_path(monkeypatch):
    originals = [getattr(math, name) for name in LIBM]
    for mod in (controller, dynamics, network, trainer, linsolve, elementary):
        bound = [name for name, value in vars(mod).items() if any(value is f for f in originals)]
        assert not bound, f"{mod.__name__} binds {bound}"

    def called(*args):
        raise AssertionError("a libm transcendental was called")

    for name in LIBM:
        monkeypatch.setattr(math, name, called)
    # decay columns cached by earlier tests would let the runs skip exp
    controller._decay_block.cache_clear()
    records = list(train_online(short_fig7()))
    assert len(records) == 2000
    x_trace, _ = solve_linear(builtin_problem(horizon=2000))
    assert len(x_trace) == 2000
    # the slow paths too: subnormal and overflowing exp, tanh beyond the
    # table, and the exact paths
    assert exp(-740.0) > 0.0 and exp(800.0) == INF and tanh(7.5) < 1.0
    assert elementary._exp_exact(-0.5) == exp(-0.5)
    assert elementary._tanh_exact(0.25) == tanh(0.25) and elementary._tanh_exact(2.5) == tanh(2.5)


def test_no_float_power_on_the_simulation_path():
    """The guard above cannot see ``**`` or ``pow()``, which call the C pow
    for floats: every power left in the simulation modules raises 2 to a
    literal integer, which any libm returns exactly."""

    def literal(node):
        try:
            return ast.literal_eval(node)
        except ValueError:
            return None

    for mod in (controller, dynamics, network, trainer, linsolve, elementary):
        for node in ast.walk(ast.parse(inspect.getsource(mod))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id != "pow", f"{mod.__name__}:{node.lineno} calls pow()"
            if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow):
                raise AssertionError(f"{mod.__name__}:{node.lineno} uses **=")
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
                base, exponent = literal(node.left), literal(node.right)
                assert base == 2 and type(exponent) is int, f"{mod.__name__}:{node.lineno} uses **"


def test_stagger_powers_are_correctly_rounded():
    """stagger_params scales instance j by rho**j correctly rounded, over a
    seeded sweep of rho in [0.01, 1) and j < 64 (the C pow of glibc 2.36
    misrounds about 0.1% of such pairs)."""
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20261018)
    rhos = [0.17032763475060728, 0.9, 0.5, 0.25, 1.0] + [rng.uniform(0.01, 1.0) for _ in range(400)]
    base = ControllerParams(kp=1.0, ki=1.0, k_alpha=166.5, k_beta=40.0, dt=1e-5)
    wrong = []
    with mpmath.workprec(53 * 64):  # the powers are exact
        for rho in rhos:
            for j, p in enumerate(stagger_params(base, 64, rho)):
                want = rounded(mpmath.mpf(rho) ** j)
                if p.kp != want or p.ki != want:
                    wrong.append((rho.hex(), j, p.kp.hex(), want.hex()))
    assert not wrong, f"{len(wrong)} of {64 * len(rhos)} powers misrounded, e.g. {wrong[:5]}"
    # libm's pow gives ...583p-64 here
    assert stagger_params(base, 26, 0.17032763475060728)[25].kp.hex() == "0x1.1df2c6600d584p-64"
