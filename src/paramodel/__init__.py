"""Model-free tracking control: para-model controllers driving linear
systems and online neural-network weight tuning."""

from .controller import ControllerParams, ControllerState, controller_new, controller_step
from .dynamics import FirstOrderFilter, filter_step
from .errors import DivergenceError, ParamodelError, ParseError, ValidationError
from .linsolve import (
    LinearTrackingProblem,
    LinsolveRecord,
    builtin_problem,
    matvec,
    solve_linear,
    stagger_params,
)
from .network import (
    Edge,
    FeedforwardNet,
    TrainingSample,
    default_topology,
    forward,
    set_mask,
    set_weight,
)
from .trainer import (
    Scenario,
    ScenarioEvent,
    TraceRecord,
    builtin_scenarios,
    train_online,
)
from .config_io import (
    RunConfig,
    builtin_config_dict,
    builtin_names,
    parse_config,
    read_trace,
    serialize_config,
    write_trace,
)

__version__ = "0.1.0"

__all__ = [
    "ControllerParams",
    "ControllerState",
    "DivergenceError",
    "Edge",
    "FeedforwardNet",
    "FirstOrderFilter",
    "LinearTrackingProblem",
    "LinsolveRecord",
    "ParamodelError",
    "ParseError",
    "RunConfig",
    "Scenario",
    "ScenarioEvent",
    "TraceRecord",
    "TrainingSample",
    "ValidationError",
    "builtin_config_dict",
    "builtin_names",
    "builtin_problem",
    "builtin_scenarios",
    "controller_new",
    "controller_step",
    "default_topology",
    "filter_step",
    "forward",
    "matvec",
    "parse_config",
    "read_trace",
    "serialize_config",
    "set_mask",
    "set_weight",
    "solve_linear",
    "stagger_params",
    "train_online",
    "write_trace",
]
