"""Deterministic simulator and checkers for gracefully degrading gathering
of identified robots on dynamic rings."""

from .ring_model import (  # noqa: F401
    AC,
    BRE,
    COT,
    RE,
    ST,
    DynClass,
    EvolvingRing,
    Schedule,
    static_ring,
    verify_class,
)
from .gdg_protocol import RobotVars, View  # noqa: F401
from .sim_engine import Stop, Trace, run, step  # noqa: F401
from .checkers import BoundParams, Verdict, bound_for, check_safety, check_variant  # noqa: F401
