"""Fast construction of the frozen trace records."""

from __future__ import annotations

import dataclasses

__all__ = ["slot_constructor"]


def slot_constructor(cls):
    """A function ``make(*values)`` equal to ``cls(*values)`` for a frozen,
    slotted dataclass without ``__post_init__``, that stores the fields
    through the slots directly.

    The frozen ``__init__`` stores each field through ``object.__setattr__``
    and costs about twice as much; for the simulation loops and the trace
    reader, which build one record per iteration, that is a measurable
    share of the run.  The function is generated with one statement per
    field, as dataclasses generates ``__init__``: a loop over the fields
    would cost as much as the ``__init__`` it replaces.
    """
    if "__slots__" not in cls.__dict__ or hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__name__} must be slotted and have no __post_init__")
    names = [f.name for f in dataclasses.fields(cls)]
    env = {"_new": object.__new__, "_cls": cls}
    lines = [f"def make({', '.join(names)}):", "    _rec = _new(_cls)"]
    for name in names:
        env[f"_set_{name}"] = cls.__dict__[name].__set__
        lines.append(f"    _set_{name}(_rec, {name})")
    lines.append("    return _rec")
    exec("\n".join(lines), env)
    return env["make"]
