"""The type rules of the configuration dataclasses.

Each field's annotation is the one statement of its type and its bounds:
the dataclass checks it on construction (``errors.check_fields``) and the
YAML reader applies the same rule.  A value of the wrong type or out of
range, from a library call as from a configuration, is a ValidationError
whose key names the field.
"""

from __future__ import annotations

import ast
import copy
import dataclasses
import functools
import inspect
import math
import operator
import pathlib
import re
import types
import typing

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import paramodel
from paramodel import (
    ControllerParams,
    ControllerState,
    Edge,
    FeedforwardNet,
    FirstOrderFilter,
    LinearTrackingProblem,
    RunConfig,
    Scenario,
    ScenarioEvent,
    TrainingSample,
    ValidationError,
    builtin_problem,
    builtin_scenarios,
    default_topology,
    forward,
    set_mask,
    set_weight,
)
from paramodel.config_io import builtin_config_dict, config_to_dict, parse_config, serialize_config
from paramodel.controller import stagger_params
from paramodel.errors import field_types, rule

SAMPLE = TrainingSample(x=(0.2, 0.6), y=0.55)

#: a valid instance of each configuration dataclass, every optional field set
VALID = {
    RunConfig: lambda: RunConfig(mode="train", scenario=builtin_scenarios()["fig5"], output="t.csv"),
    Scenario: lambda: builtin_scenarios()["fig5"],
    ScenarioEvent: lambda: ScenarioEvent.set_input(5, 0, 0.1),
    ControllerParams: ControllerParams,
    ControllerState: lambda: ControllerState(psi=0.5, integral=0.25, k=3),
    TrainingSample: lambda: SAMPLE,
    FeedforwardNet: lambda: dataclasses.replace(default_topology(), weights=(0.1,) * 7, mask=(True,) * 7),
    Edge: lambda: Edge("x1", "y", 0),
    LinearTrackingProblem: lambda: builtin_problem(horizon=10),
    FirstOrderFilter: FirstOrderFilter,
}

FIELDS = [(cls, name) for cls in VALID for name in field_types(cls)]

#: values of the wrong type for each scalar annotation: a string, a bool for
#: a number, a float for an int, an int past float range, a container
WRONG = {
    float: st.sampled_from(["1", "0.5", "nan", True, False, 10**400, -(10**400), math.nan, -math.inf, [1.0], {}]),
    int: st.sampled_from([True, False, "3", [1], {}]) | st.floats(),
    str: st.sampled_from([1, 1.0, True, ["y"], {}, b"y"]),
    bool: st.sampled_from([1, 0, "false", "true", 1.0, [True], {}]),
}


def wrong(tp, valid):
    """A strategy of values of the wrong type for annotation ``tp``, beside
    the valid value ``valid``; None is wrong unless ``tp`` allows it.  A
    bound is not a type: ``Annotated[X, ...]`` takes the wrong values of X."""
    if typing.get_origin(tp) is typing.Annotated:
        return wrong(typing.get_args(tp)[0], valid)
    optional = typing.get_origin(tp) in (typing.Union, types.UnionType)
    if optional:
        tp = next(t for t in typing.get_args(tp) if t is not type(None))
    if typing.get_origin(tp) is tuple:
        items = list(valid)
        # a list or tuple holding one bad item, or no list at all
        one_bad = wrong(typing.get_args(tp)[0], items[0] if items else None).flatmap(
            lambda bad: st.sampled_from([(*items, bad), [bad, *items]])
        )
        out = one_bad | st.sampled_from(["abc", 5, {}])
    elif tp in WRONG:
        out = WRONG[tp]
    else:  # a dataclass: a mapping of its keys, or another dataclass
        other = Edge("a", "y", 0) if tp is not Edge else ControllerParams()
        out = st.sampled_from([{}, {"kp": 1.0}, "x", 1, other])
    return out if optional else out | st.none()


@pytest.mark.parametrize("cls, name", FIELDS, ids=[f"{cls.__name__}.{name}" for cls, name in FIELDS])
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_value_of_the_wrong_type_is_an_error_naming_its_field(cls, name, data):
    valid = VALID[cls]()
    bad = data.draw(wrong(field_types(cls)[name], getattr(valid, name)))
    with pytest.raises(ValidationError) as err:  # not a TypeError, and no string converted
        dataclasses.replace(valid, **{name: bad})
    assert err.value.key == name


@pytest.mark.parametrize(
    "make, key",
    [
        (lambda: FeedforwardNet(weights=("0.3",) * 7), "weights"),
        (lambda: FeedforwardNet(weights=(True,) * 7), "weights"),
        (lambda: FeedforwardNet(inputs=(1, 2)), "inputs"),
        (lambda: TrainingSample(x=("0.2", 0.6), y=0.5), "x"),
        (lambda: TrainingSample(x=(0.2, 0.6), y="0.5"), "y"),
        (lambda: ControllerParams(kp="1"), "kp"),
        (lambda: ControllerParams(kp=True), "kp"),
        (lambda: ControllerParams(kp=10**400), "kp"),
        (lambda: FirstOrderFilter(tau="1"), "tau"),
        (lambda: FirstOrderFilter(state=10**400), "state"),
        (lambda: Scenario(SAMPLE, base_params=None), "base_params"),
        (lambda: Scenario(SAMPLE, net={}), "net"),
        (lambda: dataclasses.replace(builtin_problem(), a=(("1",),)), "a"),
        (lambda: dataclasses.replace(builtin_problem(), b=(True,)), "b"),
        (lambda: dataclasses.replace(builtin_problem(), controllers=({"kp": 1},)), "controllers"),
        (lambda: dataclasses.replace(VALID[RunConfig](), decimation="3"), "decimation"),
        (lambda: dataclasses.replace(VALID[RunConfig](), tolerance=True), "tolerance"),
        (lambda: dataclasses.replace(VALID[RunConfig](), output=5), "output"),
    ],
)
def test_library_input_that_was_accepted_or_a_traceback(make, key):
    with pytest.raises(ValidationError) as err:
        make()
    assert err.value.key == key


@pytest.mark.parametrize(
    "call, key, shown",
    [
        (lambda: forward(default_topology(), ("a", 0.1)), "x", "'a'"),
        (lambda: forward(default_topology(), (math.nan, 0.1)), "x", "nan"),
        (lambda: forward(default_topology(), 0.1), "x", None),
        (lambda: set_weight(default_topology(), "0", 0.3), "index", "'0'"),
        (lambda: set_weight(default_topology(), True, 0.3), "index", "True"),
        (lambda: set_mask(default_topology(), 1.5, True), "index", "1.5"),
        (lambda: stagger_params(ControllerParams(), "3", 0.5), "n", "'3'"),
        (lambda: stagger_params(ControllerParams(), 3, "0.5"), "rho", "'0.5'"),
        (lambda: stagger_params("x", 2, 0.5), "base", "'x'"),
        (lambda: serialize_config("x"), "config", "'x'"),
        (lambda: serialize_config(None), "config", "None"),
        (lambda: default_topology().eval_with((0.1,) * 3, (True,) * 7, (0.2, 0.6)), "weights", "3"),
        (lambda: default_topology().eval_with((0.1,) * 9, (True,) * 7, (0.2, 0.6)), "weights", "9"),
        (lambda: default_topology().eval_with(("0.1",) * 7, (True,) * 7, (0.2, 0.6)), "weights", "'0.1'"),
        (lambda: default_topology().eval_with((0.1,) * 7, (True,) * 7, (0.2,)), "x", "1"),
        (lambda: forward(default_topology(), (0.2, 0.6, 0.1)), "x", "3"),
    ],
)
def test_function_arguments_follow_the_type_rules(call, key, shown):
    # each ended in a bare TypeError, AttributeError, IndexError or
    # ValueError, in a nan output (a nan input), in a value (9 weights,
    # serialize_config) or in an error with no key (3 inputs to forward)
    with pytest.raises(ValidationError) as err:
        call()
    assert err.value.key == key
    if shown is not None:
        assert err.value.message.endswith(f", got {shown}")


HUGE = 10**400


@pytest.mark.parametrize(
    "call",
    [
        lambda: FeedforwardNet(inputs=("a",), edges=(Edge("a", "y", HUGE),), weights=(0.0,)),
        lambda: FeedforwardNet(inputs=("a",), edges=(Edge("a", "y", HUGE),)),
        lambda: Scenario(SAMPLE, events=(ScenarioEvent.drop_weight(HUGE, 0),)),
        lambda: Scenario(SAMPLE, events=(ScenarioEvent.set_input(5, HUGE, 0.1),)),
        lambda: Scenario(SAMPLE, events=(ScenarioEvent.drop_weight(5, HUGE),)),
        lambda: Scenario(SAMPLE, events=(ScenarioEvent.restore_weight(5, HUGE),)),
        lambda: set_weight(default_topology(), HUGE, 0.3),
        lambda: set_mask(default_topology(), -HUGE, False),
        lambda: stagger_params(ControllerParams(), -HUGE, 0.5),
        lambda: builtin_config_dict(str(HUGE)),
    ],
    ids=["weights", "edge", "at", "set_input", "drop_weight", "restore_weight",
         "set_weight", "set_mask", "stagger_params", "builtin"],
)
def test_an_index_of_400_digits_is_shown_bounded(call):
    with pytest.raises(ValidationError) as err:
        call()
    assert len(str(err.value)) < 160
    assert "..." in str(err.value)


def test_valid_values_are_stored_as_their_annotation_says():
    # an int is a float, a list is a tuple; a float and a tuple are kept as given
    s = TrainingSample(x=[0, 0.5], y=0)
    assert (repr(s.x), repr(s.y)) == ("(0.0, 0.5)", "0.0")
    x = (0.25, 0.5)
    assert TrainingSample(x=x, y=0.5).x == x
    net = FeedforwardNet(inputs=["a"], edges=[Edge("a", "y", 0)], weights=[1], mask=[False])
    assert (net.inputs, net.edges, net.weights, net.mask) == (("a",), (Edge("a", "y", 0),), (1.0,), (False,))
    assert type(net.weights[0]) is float


def package_dataclasses():
    for _, module in inspect.getmembers(paramodel, inspect.ismodule):
        for _, obj in inspect.getmembers(module, inspect.isclass):
            if dataclasses.is_dataclass(obj) and obj.__module__.startswith("paramodel."):
                yield obj


def test_every_field_annotation_has_a_rule():
    # a field whose annotation has no rule would go unchecked: resolving the
    # rules of every dataclass of the package fails on it
    classes = set(package_dataclasses())
    assert set(VALID) <= classes
    for cls in classes:
        for tp in field_types(cls).values():
            rule(tp)
    for tp in (dict, list[float], tuple[float, float], int | str, typing.Any):
        with pytest.raises(TypeError, match="no type rule"):
            rule(tp)


def bounded_fields():
    """(class, field, its type, its Interval) of each field of the package
    whose annotation bounds it."""
    for cls in sorted(set(package_dataclasses()), key=lambda c: c.__name__):
        for name, tp in field_types(cls).items():
            if typing.get_origin(tp) is typing.Annotated:
                yield cls, name, *typing.get_args(tp)


BOUNDED = list(bounded_fields())

#: the fields a bounded field's end needs beside it in its class's valid
#: instance, to keep the class's cross-field rules
ALONGSIDE = {(Scenario, "horizon"): dict(events=())}


def ends(tp, interval):
    """(accepted, rejected): each closed end of ``interval``, and each open
    end and the value one ulp (for an int, 1) outside each closed end."""
    low, high = tp(interval.low), interval.high

    def step(v, toward):
        return v + (1 if toward > v else -1) if tp is int else math.nextafter(v, toward)

    accepted, rejected = ([], [low]) if interval.open else ([low], [step(low, -math.inf)])
    if high != math.inf:
        accepted.append(tp(high))
        rejected.append(step(tp(high), math.inf))
    return accepted, rejected


def test_the_package_has_bounded_fields():
    assert {(cls.__name__, name) for cls, name, _, _ in BOUNDED} == {
        ("ControllerParams", "kp"), ("ControllerParams", "ki"), ("ControllerParams", "k_alpha"),
        ("ControllerParams", "k_beta"), ("ControllerParams", "dt"), ("ControllerState", "k"),
        ("FirstOrderFilter", "tau"), ("Edge", "weight"), ("ScenarioEvent", "at"), ("Scenario", "horizon"),
        ("Scenario", "stagger_rho"), ("Scenario", "tau"), ("Scenario", "w_max"),
        ("LinearTrackingProblem", "horizon"), ("RunConfig", "decimation"), ("RunConfig", "tolerance"),
    }


@pytest.mark.parametrize(
    "cls, name, tp, interval", BOUNDED, ids=[f"{cls.__name__}.{name}" for cls, name, _, _ in BOUNDED]
)
def test_a_bounded_field_takes_its_closed_ends_and_rejects_the_rest(cls, name, tp, interval):
    accepted, rejected = ends(tp, interval)
    valid, alongside = VALID[cls](), ALONGSIDE.get((cls, name), {})
    for value in accepted:
        assert getattr(dataclasses.replace(valid, **alongside, **{name: value}), name) == value
    for value in rejected:
        with pytest.raises(ValidationError) as err:
            dataclasses.replace(valid, **alongside, **{name: value})
        assert err.value.key == name
        assert err.value.message == f"must be {interval}, got {value!r}"


TRAIN = config_to_dict(VALID[RunConfig]())
LINSOLVE = config_to_dict(RunConfig(mode="linsolve", problem=builtin_problem()))
GENERATED = builtin_config_dict("linsolve3")


#: (document, key, value out of range, message)
OUT_OF_RANGE = [
    (TRAIN, "decimation", 0, "must be >= 1, got 0"),
    (TRAIN, "tolerance", 0.0, "must be > 0, got 0.0"),
    (TRAIN, "scenario.horizon", 0, "must be >= 1, got 0"),
    (TRAIN, "scenario.stagger_rho", 1.5, "must be > 0 and <= 1, got 1.5"),
    (TRAIN, "scenario.tau", -0.0, "must be > 0, got -0.0"),
    (TRAIN, "scenario.w_max", 0, "must be > 0, got 0.0"),
    (TRAIN, "scenario.gains.kp", -1, "must be >= 0, got -1.0"),
    (TRAIN, "scenario.gains.ki", -5e-324, "must be >= 0, got -5e-324"),
    (TRAIN, "scenario.gains.k_alpha", -1.0, "must be >= 0, got -1.0"),
    (TRAIN, "scenario.gains.k_beta", -1.0, "must be >= 0, got -1.0"),
    (TRAIN, "scenario.gains.dt", 0.0, "must be > 0, got 0.0"),
    (TRAIN, "scenario.network.edges[1].weight", -1, "must be >= 0, got -1"),
    (TRAIN, "scenario.events[0].at", -1, "must be >= 0, got -1"),
    (LINSOLVE, "problem.horizon", 0, "must be >= 1, got 0"),
    (LINSOLVE, "problem.controllers[2].kp", -1.0, "must be >= 0, got -1.0"),
    (LINSOLVE, "problem.filters[1].tau", 0, "must be > 0, got 0.0"),
    (GENERATED, "problem.stagger_rho", 0.0, "must be > 0 and <= 1, got 0.0"),
    (GENERATED, "problem.tau", -1e-5, "must be > 0, got -1e-05"),
    (GENERATED, "problem.gains.dt", 0, "must be > 0, got 0.0"),
]


@pytest.mark.parametrize("doc, key, bad, message", OUT_OF_RANGE, ids=[key for _, key, _, _ in OUT_OF_RANGE])
def test_a_configuration_names_the_full_key_of_a_value_out_of_range(doc, key, bad, message):
    doc = copy.deepcopy(doc)
    *parents, last = [int(p) if p.isdigit() else p for p in re.findall(r"\w+", key)]
    section = functools.reduce(operator.getitem, parents, doc)
    section[last] = bad
    with pytest.raises(ValidationError) as err:
        parse_config(yaml.safe_dump(doc, sort_keys=False))
    assert (err.value.key, err.value.message) == (key, message)


def test_the_first_bad_key_of_a_document_is_named():
    # the range rules ran after the document was read, so kp came first
    text = "mode: train\nscenario: {tau: 0, sample: {x: [0.2, 0.6], y: 0.55}, gains: {kp: -1}}\n"
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert str(err.value) == "scenario.tau: must be > 0, got 0.0"


SRC = pathlib.Path(paramodel.__file__).parent
ORDER = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def lone_field_bounds(tree):
    """The line of each comparison in a ``__post_init__`` of ``tree`` that
    orders one ``self.<field>`` against constants only: a bound that belongs
    on the field's annotation."""
    for fn in ast.walk(tree):
        if not (isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Compare) and all(isinstance(op, ORDER) for op in node.ops):
                operands = [node.left, *node.comparators]
                fields = [o for o in operands if isinstance(o, ast.Attribute) and isinstance(o.value, ast.Name) and o.value.id == "self"]
                constants = [o for o in operands if isinstance(getattr(o, "operand", o), ast.Constant)]
                if len(fields) == 1 and len(fields) + len(constants) == len(operands):
                    yield node.lineno


def test_the_bound_check_finds_a_hand_written_bound():
    code = (
        "class S:\n"
        "    def __post_init__(self):\n"
        "        if self.horizon < 1: pass\n"
        "        if not 0.0 < self.rho <= 1.0: pass\n"
        "        if not self.kp >= -0.0: pass\n"
        "        if self.a < self.b or len(self.c) < 1 or self.d.e < 1 or self.output == '': pass\n"
        "    def check(self):\n"
        "        if self.horizon < 1: pass\n"
    )
    assert list(lone_field_bounds(ast.parse(code))) == [3, 4, 5]


def test_no_post_init_states_a_bound_by_hand():
    # a single field's bounds are its annotation's, Annotated[X, Interval(...)]
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in lone_field_bounds(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []
