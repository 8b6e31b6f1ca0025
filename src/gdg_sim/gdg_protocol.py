"""The GDG robot state machine: predicates, actions, and guarded rules.

Everything here is a pure function of a robot's Look-phase view, so rule
evaluation for distinct robots in one round is order-independent. The rule
identifiers (Term1..M11) are listed in dispatch priority order and are the
stable strings recorded in traces.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional

UNSET = -1  # robot ids are >= 1, so -1 is an unambiguous "not learned yet"


class RobotState(enum.Enum):
    RIGHTER = "righter"
    DUMB_SEARCHER = "dumbSearcher"
    AWARE_SEARCHER = "awareSearcher"
    POTENTIAL_MIN = "potentialMin"
    WAITING_WALKER = "waitingWalker"
    MIN_WAITING_WALKER = "minWaitingWalker"
    HEAD_WALKER = "headWalker"
    TAIL_WALKER = "tailWalker"
    MIN_TAIL_WALKER = "minTailWalker"
    LEFT_WALKER = "leftWalker"


class Direction(enum.Enum):
    RIGHT = "right"
    LEFT = "left"
    BOT = "bot"


SEARCHERS = frozenset({RobotState.DUMB_SEARCHER, RobotState.AWARE_SEARCHER})
MIN_STATES = frozenset({RobotState.MIN_WAITING_WALKER, RobotState.MIN_TAIL_WALKER})
WAITING_STATES = frozenset({RobotState.WAITING_WALKER, RobotState.MIN_WAITING_WALKER})
WALKERS = frozenset(
    {RobotState.HEAD_WALKER, RobotState.TAIL_WALKER, RobotState.MIN_TAIL_WALKER}
)
NOT_WALKER = frozenset(
    {
        RobotState.RIGHTER,
        RobotState.POTENTIAL_MIN,
        RobotState.DUMB_SEARCHER,
        RobotState.AWARE_SEARCHER,
    }
)

# Dispatch priority: the first enabled rule in this order fires.
RULE_ORDER = (
    "Term1",
    "Term2",
    "T1",
    "T2",
    "T3",
    "W1",
    "K1",
    "K2",
    "K3",
    "K4",
    "M1",
    "M2",
    "M3",
    "M4",
    "M5",
    "M6",
    "M7",
    "M8",
    "M9",
    "M10",
    "M11",
)


class ProtocolViolation(Exception):
    """No rule is enabled for a non-terminated robot; unreachable by design."""


@dataclass(frozen=True, slots=True)
class RobotVars:
    id: int
    state: RobotState = RobotState.RIGHTER
    dir: Direction = Direction.RIGHT
    right_steps: int = 0
    id_potential_min: int = UNSET
    id_min: int = UNSET
    walker_mate: frozenset[int] = frozenset()
    walk_steps: int = 0
    id_head_walker: int = UNSET
    terminated: bool = False

    def __post_init__(self) -> None:
        if self.id <= 0:
            raise ValueError("robot ids must be strictly positive")


@dataclass(frozen=True, slots=True)
class View:
    """What one robot observes during its Look phase."""

    self_vars: RobotVars
    mates: tuple[RobotVars, ...]  # frozen co-located robots, terminated included
    edge_right_current: bool
    edge_left_current: bool
    edge_right_previous: bool
    edge_left_previous: bool
    has_moved: bool
    n: int
    R: int

    def mate_ids(self) -> frozenset[int]:
        return frozenset(m.id for m in self.mates)


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


def min_discovery(view: View) -> bool:
    me = view.self_vars
    if me.state is RobotState.POTENTIAL_MIN and any(
        m.state is RobotState.RIGHTER and me.id < m.id for m in view.mates
    ):
        return True
    if any(m.id_min == me.id for m in view.mates):
        return True
    if any(
        m.state in (RobotState.DUMB_SEARCHER, RobotState.POTENTIAL_MIN)
        and me.id < m.id_potential_min
        for m in view.mates
    ):
        return True
    return me.right_steps == 4 * me.id * view.n


def gathering_predicates(view: View) -> tuple[bool, bool]:
    """(all R co-located, all but two co-located with a min present)."""
    g_e = len(view.mates) == view.R - 1
    g_ew = len(view.mates) == view.R - 2 and any(
        r.state in MIN_STATES for r in (view.self_vars,) + view.mates
    )
    return g_e, g_ew


def _head_walker_without_walker_mate(view: View) -> bool:
    me = view.self_vars
    return (
        me.state is RobotState.HEAD_WALKER
        and view.edge_left_previous
        and not view.has_moved
        and view.mate_ids() != me.walker_mate
    )


def _all_but_two_waiting_walker(view: View) -> bool:
    return len(view.mates) == view.R - 3 and all(
        r.state in WAITING_STATES for r in (view.self_vars,) + view.mates
    )


def _all_but_one_righter(view: View) -> bool:
    return len(view.mates) == view.R - 2 and all(
        r.state is RobotState.RIGHTER for r in (view.self_vars,) + view.mates
    )


def _dumb_searcher_min_revelation(view: View) -> bool:
    me = view.self_vars
    return me.state is RobotState.DUMB_SEARCHER and any(
        m.state is RobotState.RIGHTER and m.id > me.id_potential_min
        for m in view.mates
    )


# Per-mate predicates for the existentially quantified guards.


def _with_min_waiting(m: RobotVars) -> bool:
    return m.state is RobotState.MIN_WAITING_WALKER


def _with_head_walker(m: RobotVars) -> bool:
    return m.state is RobotState.HEAD_WALKER


def _with_min_tail_walker(m: RobotVars) -> bool:
    return m.state is RobotState.MIN_TAIL_WALKER


def _with_aware_searcher(m: RobotVars) -> bool:
    return m.state is RobotState.AWARE_SEARCHER


def _with_searcher(m: RobotVars) -> bool:
    return m.state in SEARCHERS


def select_witness(view: View, predicate) -> RobotVars:
    """Deterministic witness for an "exists a mate" guard: smallest id wins."""
    hits = [m for m in view.mates if predicate(m)]
    if not hits:
        raise ProtocolViolation("witness requested but no mate satisfies the guard")
    return min(hits, key=lambda m: m.id)


# ---------------------------------------------------------------------------
# Guards, in dispatch order
# ---------------------------------------------------------------------------


def _guard(rule: str, view: View) -> bool:
    me = view.self_vars
    g_e, g_ew = gathering_predicates(view)
    if rule == "Term1":
        return g_e
    if rule == "Term2":
        return g_ew
    if rule == "T1":
        return me.state is RobotState.LEFT_WALKER
    if rule == "T2":
        return _head_walker_without_walker_mate(view)
    if rule == "T3":
        return me.state in WALKERS and me.walk_steps == view.n
    if rule == "W1":
        return me.state in WALKERS
    if rule == "K1":
        return _all_but_two_waiting_walker(view)
    if rule == "K2":
        return me.state in WAITING_STATES
    if rule == "K3":
        return me.state in (
            RobotState.POTENTIAL_MIN,
            RobotState.DUMB_SEARCHER,
            RobotState.AWARE_SEARCHER,
        ) and any(_with_min_waiting(m) for m in view.mates)
    if rule == "K4":
        return (
            me.state is RobotState.RIGHTER
            and any(_with_min_waiting(m) for m in view.mates)
            and view.edge_right_current
        )
    if rule == "M1":
        return me.state in (RobotState.POTENTIAL_MIN, RobotState.RIGHTER) and min_discovery(view)
    if rule == "M2":
        return (
            me.state in NOT_WALKER
            and any(_with_head_walker(m) for m in view.mates)
            and view.edge_right_current
        )
    if rule == "M3":
        return me.state in NOT_WALKER and any(_with_head_walker(m) for m in view.mates)
    if rule == "M4":
        return me.state in NOT_WALKER and any(_with_min_tail_walker(m) for m in view.mates)
    if rule == "M5":
        return me.state is RobotState.POTENTIAL_MIN and any(
            _with_aware_searcher(m) for m in view.mates
        )
    if rule == "M6":
        return _all_but_one_righter(view)
    if rule == "M7":
        return me.state is RobotState.RIGHTER and any(_with_searcher(m) for m in view.mates)
    if rule == "M8":
        return me.state in (RobotState.POTENTIAL_MIN, RobotState.RIGHTER)
    if rule == "M9":
        return _dumb_searcher_min_revelation(view)
    if rule == "M10":
        return me.state is RobotState.DUMB_SEARCHER and any(
            _with_aware_searcher(m) for m in view.mates
        )
    if rule == "M11":
        return me.state in SEARCHERS
    raise ValueError(f"unknown rule {rule!r}")


def first_enabled_rule(view: View) -> str:
    if view.self_vars.terminated:
        raise ProtocolViolation("terminated robots do not compute")
    for rule in RULE_ORDER:
        if _guard(rule, view):
            return rule
    raise ProtocolViolation(
        f"no rule enabled for robot {view.self_vars.id} in state {view.self_vars.state}"
    )


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------


def _stop_moving(vars: RobotVars) -> RobotVars:
    return replace(vars, dir=Direction.BOT)


def _walk(vars: RobotVars, view: View) -> RobotVars:
    mate_ids = view.mate_ids()
    if (vars.id == vars.id_head_walker and vars.walker_mate != mate_ids) or (
        vars.id != vars.id_head_walker and vars.id_head_walker in mate_ids
    ):
        new_dir = Direction.BOT
    else:
        new_dir = Direction.RIGHT
    steps = vars.walk_steps
    if new_dir is Direction.RIGHT and view.edge_right_current:
        steps += 1
    return replace(vars, dir=new_dir, walk_steps=steps)


def _initiate_walk(vars: RobotVars, view: View) -> RobotVars:
    head = max({vars.id} | view.mate_ids())
    if vars.id == head:
        state = RobotState.HEAD_WALKER
    elif vars.state is RobotState.MIN_WAITING_WALKER:
        state = RobotState.MIN_TAIL_WALKER
    else:
        state = RobotState.TAIL_WALKER
    return replace(vars, id_head_walker=head, walker_mate=view.mate_ids(), state=state)


def _become_waiting_walker(vars: RobotVars, witness: RobotVars) -> RobotVars:
    return replace(
        vars,
        state=RobotState.WAITING_WALKER,
        id_potential_min=witness.id,
        id_min=witness.id,
        dir=Direction.BOT,
    )


def _become_min_waiting_walker(vars: RobotVars) -> RobotVars:
    return replace(
        vars,
        state=RobotState.MIN_WAITING_WALKER,
        id_potential_min=vars.id,
        id_min=vars.id,
        dir=Direction.BOT,
    )


def _become_aware_searcher(vars: RobotVars, witness: RobotVars) -> RobotVars:
    if witness.state is RobotState.DUMB_SEARCHER:
        learned = witness.id_potential_min
    else:
        learned = witness.id_min
    return replace(
        vars,
        state=RobotState.AWARE_SEARCHER,
        dir=Direction.RIGHT,
        id_potential_min=learned,
        id_min=learned,
    )


def _become_tail_walker(vars: RobotVars, witness: RobotVars) -> RobotVars:
    return replace(
        vars,
        state=RobotState.TAIL_WALKER,
        id_potential_min=witness.id_potential_min,
        id_min=witness.id_min,
        id_head_walker=witness.id_head_walker,
        walker_mate=witness.walker_mate,
        walk_steps=witness.walk_steps,
    )


def _move_right(vars: RobotVars, view: View) -> RobotVars:
    steps = vars.right_steps
    if view.edge_right_current:
        steps += 1
    return replace(vars, dir=Direction.RIGHT, right_steps=steps)


def _initiate_search(vars: RobotVars, view: View) -> RobotVars:
    candidate = min({vars.id} | view.mate_ids())
    state = RobotState.POTENTIAL_MIN if vars.id == candidate else RobotState.DUMB_SEARCHER
    steps = vars.right_steps
    # A robot firing this rule is a righter, hence already headed right.
    if state is RobotState.POTENTIAL_MIN and view.edge_right_current:
        steps += 1
    return replace(vars, id_potential_min=candidate, state=state, right_steps=steps)


def _search(vars: RobotVars, view: View) -> RobotVars:
    if len(view.mates) >= 1:
        top = max({vars.id} | view.mate_ids())
        new_dir = Direction.LEFT if vars.id == top else Direction.RIGHT
        return replace(vars, dir=new_dir)
    return vars


def apply_rule(rule: str, view: View) -> RobotVars:
    """Run the action of `rule` against the frozen view; returns updated vars."""
    vars = view.self_vars
    if rule in ("Term1", "Term2"):
        return replace(vars, terminated=True)
    if rule == "T1":
        return replace(vars, dir=Direction.LEFT)
    if rule == "T2":
        return replace(vars, state=RobotState.LEFT_WALKER, dir=Direction.BOT)
    if rule == "T3":
        return _stop_moving(vars)
    if rule == "W1":
        return _walk(vars, view)
    if rule == "K1":
        return _initiate_walk(vars, view)
    if rule == "K2":
        return _stop_moving(vars)
    if rule == "K3":
        return _become_waiting_walker(vars, select_witness(view, _with_min_waiting))
    if rule == "K4":
        return _become_aware_searcher(vars, select_witness(view, _with_min_waiting))
    if rule == "M1":
        return _become_min_waiting_walker(vars)
    if rule == "M2":
        return _become_aware_searcher(vars, select_witness(view, _with_head_walker))
    if rule == "M3":
        out = _become_aware_searcher(vars, select_witness(view, _with_head_walker))
        return _stop_moving(out)
    if rule == "M4":
        out = _become_tail_walker(vars, select_witness(view, _with_min_tail_walker))
        return _walk(out, view)
    if rule == "M5":
        out = _become_aware_searcher(vars, select_witness(view, _with_aware_searcher))
        return _search(out, view)
    if rule == "M6":
        return _initiate_search(vars, view)
    if rule == "M7":
        out = _become_aware_searcher(vars, select_witness(view, _with_searcher))
        return _search(out, view)
    if rule == "M8":
        return _move_right(vars, view)
    if rule == "M9":
        out = _become_aware_searcher(vars, vars)  # learns from itself
        return _search(out, view)
    if rule == "M10":
        out = _become_aware_searcher(vars, select_witness(view, _with_aware_searcher))
        return _search(out, view)
    if rule == "M11":
        return _search(vars, view)
    raise ValueError(f"unknown rule {rule!r}")


def compute(view: View) -> tuple[RobotVars, str]:
    """One Compute phase: pick the first enabled rule and run its action."""
    rule = first_enabled_rule(view)
    return apply_rule(rule, view), rule
