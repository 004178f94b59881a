"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with ``pytest -v -s tests/test_acceptance.py``).

Criterion 2a is a strict xfail: its stated error bound cannot be met by
any 4th-order one-step method (details in the test), and it is kept
failing on purpose rather than loosened.
"""

from __future__ import annotations

import math
import pathlib
import random
from fractions import Fraction

import pytest

from paramodel import (
    ControllerParams,
    FirstOrderFilter,
    LinearTrackingProblem,
    builtin_problem,
    builtin_scenarios,
    controller_new,
    controller_step,
    default_topology,
    filter_step,
    forward,
    set_mask,
    set_weight,
    solve_linear,
    stagger_params,
    train_online,
    write_trace,
)
from paramodel.config_io import builtin_names
from paramodel.linsolve import DEMO_A, DEMO_B, as_records

from conftest import (
    EQ3_X_STAR,
    GOLDEN_DECIMATION,
    GOLDEN_DIGESTS,
    SETTLE_BUDGET,
    TRACK_TOL,
    event_resettled_within,
    settled_from,
)
from test_linsolve import gaussian_eliminate

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

TRAIN_BUILTINS = ("fig4", "fig5", "fig6", "fig7")


def test_criterion_1_controller_closed_form():
    # constant error 0.1, frozen series psi = 2: after n steps the control
    # equals psi0 * ki * eps * n * dt to within 1e-12 relative error
    eps, n = 0.1, 10_000
    params = ControllerParams(kp=1.0, ki=0.01, k_alpha=0.0, k_beta=40.0, dt=1e-5)
    state = controller_new(params, psi0=2.0)
    u = 0.0
    for _ in range(n):
        state, u = controller_step(state, params, eps, 0.0)
    expected = 2.0 * 0.01 * 0.1 * n * 1e-5  # = 2e-4
    rel = abs(u - expected) / expected
    assert state.psi == 2.0
    assert rel < 1e-12
    print(f"[criterion 1] PASS: u_n = {u!r}, closed form {expected!r}, rel err {rel:.2e}")


@pytest.mark.xfail(
    strict=True,
    reason="every 4th-order Runge-Kutta shares the amplification polynomial "
    "R(z) = 1+z+z^2/2+z^3/6+z^4/24, and |R(-1) - exp(-1)| = 7.12e-3; a "
    "single step at dt = tau therefore cannot reach the 1e-4 bound",
)
def test_criterion_2a_single_step_error_bound():
    f = filter_step(FirstOrderFilter(tau=1.0, state=0.0), 1.0, 1.0)
    err = abs(f.state - (1.0 - math.exp(-1.0)))
    print(f"[criterion 2a] single-step error at dt=tau: {err:.3e} (stated bound 1e-4)")
    assert err < 1e-4


def test_criterion_2b_fourth_order_convergence():
    errs = []
    for h in (1.0, 0.5, 0.25, 0.125):
        state = filter_step(FirstOrderFilter(tau=1.0, state=0.0), 1.0, h).state
        errs.append(abs(state - (1.0 - math.exp(-h))))
    ratios = [errs[i] / errs[i + 1] for i in range(3)]
    for r in ratios:
        assert 32.0 * 0.8 < r < 32.0 * 1.2
    print(
        "[criterion 2] PASS (convergence order): halving ratios "
        + ", ".join(f"{r:.1f}" for r in ratios)
        + " within 32 +- 20%"
    )


def test_criterion_3_linear_solver_oracle(builtin_linsolve_run):
    run = builtin_linsolve_run
    assert run.horizon <= 200_000
    assert run.wall < 5.0, f"took {run.wall:.2f}s"
    assert run.final_residual < 1e-2
    x_star = [float(v) for v in gaussian_eliminate(DEMO_A, DEMO_B)]
    assert x_star == list(EQ3_X_STAR)
    x_err = max(abs(g - w) for g, w in zip(run.x_final, x_star))
    assert x_err < 1e-2

    base = ControllerParams(kp=1.0, ki=0.01, k_alpha=166.5, k_beta=4.0, dt=1e-5)

    def solve(a, b, horizon=30_000):
        problem = LinearTrackingProblem(
            a=a,
            b=b,
            controllers=tuple(stagger_params(base, len(b), 0.5)),
            filters=tuple(FirstOrderFilter(tau=1e-5) for _ in b),
            horizon=horizon,
        )
        x_trace, y_trace = solve_linear(problem)
        return x_trace[-1]

    x_id = solve(((1.0, 0, 0), (0, 1.0, 0), (0, 0, 1.0)), (0.5, -0.2, 0.3))
    assert max(abs(g - w) for g, w in zip(x_id, (0.5, -0.2, 0.3))) < 1e-2
    x_dg = solve(((2.0, 0, 0), (0, 4.0, 0), (0, 0, 5.0)), (2.0, 2.0, 5.0))
    assert max(abs(g - w) for g, w in zip(x_dg, (1.0, 0.5, 1.0))) < 1e-2
    print(
        f"[criterion 3] PASS: residual {run.final_residual:.2e}, "
        f"|x - x*| {x_err:.2e}, wall {run.wall:.2f}s; identity and diagonal ok"
    )


def test_criterion_4_primary_training_run(builtin_run):
    run = builtin_run("fig4")
    s = run.scenario
    # the printed operating point, pinned
    assert s.base_params == ControllerParams(
        kp=1.0, ki=1.0 / 100.0, k_alpha=333.0 / 2.0, k_beta=40.0, dt=1e-5
    )
    assert s.tau == 1e-5
    assert s.w_max == 1.0
    assert s.net.weights == (0.0,) * 7
    assert s.events[0].kind == "drop_weight" and s.events[0].index == 6

    tail_start = int(0.8 * s.horizon)
    tail_violations = [k for k in run.violations if k >= tail_start]
    assert not tail_violations, f"band violated {len(tail_violations)}x in final 20%"
    assert abs(run.final.y - 0.55) < TRACK_TOL
    assert run.max_abs_w <= 1.0
    print(
        f"[criterion 4] PASS: |y - 0.55| = {abs(run.final.y - 0.55):.2e} held over "
        f"final 20%, max |w| = {run.max_abs_w:.4f} <= 1"
    )


@pytest.mark.parametrize("name", ["fig5", "fig6", "fig7"])
def test_criterion_5_event_resettling(name, builtin_run):
    run = builtin_run(name)
    assert settled_from(run.violations, run.scenario.horizon) is not None
    pairs = event_resettled_within(run.scenario, run.violations)
    for at, settle in pairs:
        assert settle <= SETTLE_BUDGET, (
            f"{name}: event at {at} re-settled after {settle} > budget {SETTLE_BUDGET}"
        )
    detail = ", ".join(f"k={at}: {settle}" for at, settle in pairs)
    print(f"[criterion 5] PASS ({name}): re-settled within budget {SETTLE_BUDGET} ({detail})")


def test_criterion_6_mask_zero_equivalence():
    rng = random.Random(20260809)
    net0 = default_topology()
    checked = 0
    for _ in range(100):
        ws = [rng.uniform(-1.0, 1.0) for _ in range(7)]
        x = (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        net = net0
        for i, w in enumerate(ws):
            net = set_weight(net, i, w)
        for i in range(7):
            masked = forward(set_mask(net, i, False), x)
            zeroed = forward(set_weight(net, i, 0.0), x)
            assert masked == zeroed
            checked += 1
    print(f"[criterion 6] PASS: {checked} masked-vs-zeroed evaluations bit-identical")


def test_criterion_7_determinism_and_goldens(builtin_run, builtin_linsolve_run, tmp_path):
    for name in TRAIN_BUILTINS:
        first = builtin_run(name).csv_text
        path = tmp_path / f"{name}_rerun.csv"
        write_trace(train_online(builtin_scenarios()[name]), str(path), GOLDEN_DECIMATION)
        assert path.read_text() == first, f"{name}: rerun trace differs"
        golden = (GOLDEN_DIR / f"{name}_trace.csv").read_text()
        assert first == golden, f"{name}: trace differs from committed golden"

    problem = builtin_problem()
    x_trace, y_trace = solve_linear(problem)
    path = tmp_path / "linsolve3_rerun.csv"
    write_trace(as_records(problem, x_trace, y_trace), str(path), GOLDEN_DECIMATION)
    assert path.read_text() == builtin_linsolve_run.csv_text
    assert path.read_text() == (GOLDEN_DIR / "linsolve3_trace.csv").read_text()
    print("[criterion 7] PASS: all 5 builtins byte-identical across runs and goldens")


def test_criterion_7_full_resolution_digests(builtin_run):
    # the goldens keep every 100th row, and a 1-ulp difference can heal
    # within 100 rows: the digests cover every field of every iteration
    digests = {name: builtin_run(name).digest for name in builtin_names()}
    assert digests == GOLDEN_DIGESTS, f"new digests: {digests}"


def test_criterion_7_enabled_weights_share_their_bits(builtin_run):
    # with uniform gains every enabled weight has the w and u bits of the
    # lowest one at every iteration, so the trainer steps only that one;
    # a dropped weight is w = u = 0.0 (weight 6 dropped at 0, or at 40000
    # in fig7, and weight 3 dropped at 20000 in fig6)
    enabled = (0, 0, 0, 0, 0, 0, 0)
    without_6 = (0, 0, 0, 0, 0, 0, 6)
    assert {name: builtin_run(name).weight_classes for name in TRAIN_BUILTINS} == {
        "fig4": [(1, without_6)],
        "fig5": [(1, without_6)],
        "fig6": [(1, without_6), (20_000, (0, 0, 0, 3, 0, 0, 3))],
        "fig7": [(1, enabled), (40_000, without_6)],
    }


def test_criterion_8_stagger_ordering():
    base = ControllerParams(kp=1.0, ki=0.01, k_alpha=166.5, k_beta=40.0, dt=1e-5)
    for rho in (0.9, 0.5, 0.25):
        out = stagger_params(base, 7, rho)
        for j, p in enumerate(out):
            # the correctly rounded power, not the C library's pow
            power = float(Fraction(rho) ** j)
            assert p.kp == base.kp * power
            assert p.ki == base.ki * power
        for a, b in zip(out, out[1:]):
            assert b.kp < a.kp and b.ki < a.ki
            assert b.k_alpha == a.k_alpha and b.k_beta == a.k_beta
    print("[criterion 8] PASS: staggered gains strictly decreasing, k_alpha/k_beta constant")
