"""The GDG robot state machine: predicates, actions, and one rule table.

Everything here is a pure function of a robot's Look-phase view, so rule
evaluation for distinct robots in one round is order-independent.

`RULES` holds the 21 guarded rules in dispatch priority order; the first
enabled one fires. Each entry is the whole rule: its name (Term1..M11, the
stable string recorded in traces), the states it fires from, an optional
tower size, an optional witness, an optional extra condition on the view,
and its action. A witness is a set of states: some co-located robot must be
in one of them, and the action learns from the smallest-id one that is.
`RULE_ORDER` is the names of `RULES`, in order.

The order is the paper's with T1, T2, T3, W1, K1 and K2 moved behind M11,
and it fires the same rule as the paper's on every view. A rule is never
enabled for a robot whose state is not in its `states`, so the rule that
fires depends only on each state's subsequence of the table. The moved
rules fire only from walker and waiting states, and every rule they now
follow, K3 to M11, only from righter, potentialMin and the two searcher
states, so no state's subsequence changes. Every robot starts as a
righter, and M8 ("move right") fires in most computes. It sits 12th: each
of the 11 rules ahead of it fires from righter or potentialMin, as M8
does, so no linear order puts it earlier.

`first_enabled_rule` reads the mates once per compute: `present` is the OR
of their states' bits (each `RobotState` member carries one as `bit`) and
`gap` is `R - len(mates)`. A rule's derived `seen` is the OR of its
witness states' bits, so a witness test is one AND, `seen & present`. A
tower-size rule carries the one `gap` it fires at (Term1 1, Term2 2, M6 2,
K1 3), so its size test is one compare, and its condition tests only the
rest. So the paper's two gathering predicates are Term1's gap (all R
robots here) and Term2's gap with its condition (all but one here, and one
of them in a min state). Both facts are arguments of `_guard`, which
dispatch calls once per rule in `RULES` order up to the one that fires, so
the guard count is the fired rule's position, as the tests and the
benchmark's self-test count it.

`RobotVars` and `View` are NamedTuples: every Compute phase builds a View
and most build a RobotVars, and tuples build and `_replace` two to three
times faster than frozen dataclasses. M8's usual branch, a step right over
a present edge, skips even `_replace`: it builds its RobotVars in one
`tuple.__new__` call from a tuple in field order, which
`test_m8_builds_the_replaced_vars` pins. An action that changes nothing
returns its input. RobotVars checks none of its fields: a robot's id enters
a run once, with the placement, and `sim_engine.initial_configuration`
rejects one that is not strictly positive.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

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


# Each state's bit, an attribute of the member: first_enabled_rule ORs the
# mates' bits once per compute, and a witness test is one AND on that.
for _i, _state in enumerate(RobotState):
    _state.bit = 1 << _i
del _i, _state


class Direction(enum.Enum):
    RIGHT = "right"
    LEFT = "left"
    BOT = "bot"


# State groups are tuples: finding an Enum member in a short tuple is an
# identity scan, while a frozenset lookup calls Enum's Python-level __hash__.
ALL_STATES = tuple(RobotState)
SEARCHERS = (RobotState.DUMB_SEARCHER, RobotState.AWARE_SEARCHER)
MIN_STATES = (RobotState.MIN_WAITING_WALKER, RobotState.MIN_TAIL_WALKER)
WAITING_STATES = (RobotState.WAITING_WALKER, RobotState.MIN_WAITING_WALKER)
WALKERS = (RobotState.HEAD_WALKER, RobotState.TAIL_WALKER, RobotState.MIN_TAIL_WALKER)
NOT_WALKER = (
    RobotState.RIGHTER,
    RobotState.POTENTIAL_MIN,
    RobotState.DUMB_SEARCHER,
    RobotState.AWARE_SEARCHER,
)


class ProtocolViolation(Exception):
    """No rule is enabled for a non-terminated robot; unreachable by design."""


class RobotVars(NamedTuple):
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


class View(NamedTuple):
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
    # One pass over the mates: a mate naming me the min, a larger righter met
    # by a potential min, or a searcher or potential min with a larger candidate.
    for m in view.mates:
        if (
            m.id_min == me.id
            or (m.state is RobotState.RIGHTER and me.id < m.id
                and me.state is RobotState.POTENTIAL_MIN)
            or (m.state in (RobotState.DUMB_SEARCHER, RobotState.POTENTIAL_MIN)
                and me.id < m.id_potential_min)
        ):
            return True
    return me.right_steps == 4 * me.id * view.n


def select_witness(view: View, states: tuple[RobotState, ...]) -> RobotVars:
    """Deterministic witness for an "exists a mate" guard: smallest id wins."""
    hits = [m for m in view.mates if m.state in states]
    if not hits:
        raise ProtocolViolation("witness requested but no mate satisfies the guard")
    return min(hits, key=lambda m: m.id)


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------


def _stop_moving(vars: RobotVars) -> RobotVars:
    return vars if vars.dir is Direction.BOT else vars._replace(dir=Direction.BOT)


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
    return vars._replace(dir=new_dir, walk_steps=steps)


def _initiate_walk(vars: RobotVars, view: View) -> RobotVars:
    mate_ids = view.mate_ids()
    head = max({vars.id} | mate_ids)
    if vars.id == head:
        state = RobotState.HEAD_WALKER
    elif vars.state is RobotState.MIN_WAITING_WALKER:
        state = RobotState.MIN_TAIL_WALKER
    else:
        state = RobotState.TAIL_WALKER
    return vars._replace(id_head_walker=head, walker_mate=mate_ids, state=state)


def _become_waiting_walker(vars: RobotVars, witness: RobotVars) -> RobotVars:
    return vars._replace(
        state=RobotState.WAITING_WALKER,
        id_potential_min=witness.id,
        id_min=witness.id,
        dir=Direction.BOT,
    )


def _become_min_waiting_walker(vars: RobotVars) -> RobotVars:
    return vars._replace(
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
    return vars._replace(
        state=RobotState.AWARE_SEARCHER,
        dir=Direction.RIGHT,
        id_potential_min=learned,
        id_min=learned,
    )


def _become_tail_walker(vars: RobotVars, witness: RobotVars) -> RobotVars:
    return vars._replace(
        state=RobotState.TAIL_WALKER,
        id_potential_min=witness.id_potential_min,
        id_min=witness.id_min,
        id_head_walker=witness.id_head_walker,
        walker_mate=witness.walker_mate,
        walk_steps=witness.walk_steps,
    )


def _move_right(vars: RobotVars, view: View) -> RobotVars:
    if view.edge_right_current:
        # M8 fires in most computes, and this is its usual branch: one C call
        # builds the vars from (id, state, dir, right_steps) and the six
        # fields after them, where _replace runs _make and ten kwds.pop calls.
        return tuple.__new__(
            RobotVars, (vars.id, vars.state, Direction.RIGHT, vars.right_steps + 1) + vars[4:]
        )
    return vars if vars.dir is Direction.RIGHT else vars._replace(dir=Direction.RIGHT)


def _initiate_search(vars: RobotVars, view: View) -> RobotVars:
    candidate = min({vars.id} | view.mate_ids())
    state = RobotState.POTENTIAL_MIN if vars.id == candidate else RobotState.DUMB_SEARCHER
    steps = vars.right_steps
    # A robot firing this rule is a righter, hence already headed right.
    if state is RobotState.POTENTIAL_MIN and view.edge_right_current:
        steps += 1
    return vars._replace(id_potential_min=candidate, state=state, right_steps=steps)


def _search(vars: RobotVars, view: View) -> RobotVars:
    if len(view.mates) >= 1:
        top = max({vars.id} | view.mate_ids())
        new_dir = Direction.LEFT if vars.id == top else Direction.RIGHT
        if new_dir is not vars.dir:
            return vars._replace(dir=new_dir)
    return vars


def _terminate(vars: RobotVars, view: View, witness: Optional[RobotVars]) -> RobotVars:
    return vars._replace(terminated=True)


def _learn_then_search(vars: RobotVars, view: View, witness: RobotVars) -> RobotVars:
    return _search(_become_aware_searcher(vars, witness), view)


# ---------------------------------------------------------------------------
# The rule table, in dispatch order
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Rule:
    """One guarded rule.

    It is enabled when the robot's state is in `states`, `R - len(mates)`
    equals `gap` (if set), some mate is in a state of `witness` (if not
    empty) and `condition(view)` holds (if set). Firing it runs
    `action(self_vars, view, witness)`, where the witness is the mate that
    `select_witness` picks from the same states, or None. `seen` is derived:
    the OR of the witness states' bits.
    """

    name: str
    states: tuple[RobotState, ...]
    action: Callable[[RobotVars, View, Optional[RobotVars]], RobotVars]
    witness: tuple[RobotState, ...] = ()
    condition: Optional[Callable[[View], bool]] = None
    gap: Optional[int] = None
    seen: int = field(init=False)

    def __post_init__(self) -> None:
        seen = 0
        for state in self.witness:
            seen |= state.bit
        object.__setattr__(self, "seen", seen)


# Term1 and Term2 first, then the rules of righters, potential mins and
# searchers, then those of walkers and waiting walkers: the paper's order
# within each state, as the module docstring argues.
RULES = (
    Rule("Term1", ALL_STATES, _terminate, gap=1),  # all R robots are here
    Rule(
        "Term2",
        ALL_STATES,
        _terminate,
        # all robots but one are here, and one of them is in a min state
        condition=lambda view: (
            view.self_vars.state in MIN_STATES or any(m.state in MIN_STATES for m in view.mates)
        ),
        gap=2,
    ),
    Rule(
        "K3",
        (RobotState.POTENTIAL_MIN, RobotState.DUMB_SEARCHER, RobotState.AWARE_SEARCHER),
        lambda me, view, w: _become_waiting_walker(me, w),
        witness=(RobotState.MIN_WAITING_WALKER,),
    ),
    Rule(
        "K4",
        (RobotState.RIGHTER,),
        lambda me, view, w: _become_aware_searcher(me, w),
        witness=(RobotState.MIN_WAITING_WALKER,),
        condition=lambda view: view.edge_right_current,
    ),
    Rule(
        "M1",
        (RobotState.POTENTIAL_MIN, RobotState.RIGHTER),
        lambda me, view, w: _become_min_waiting_walker(me),
        condition=min_discovery,
    ),
    Rule(
        "M2",
        NOT_WALKER,
        lambda me, view, w: _become_aware_searcher(me, w),
        witness=(RobotState.HEAD_WALKER,),
        condition=lambda view: view.edge_right_current,
    ),
    Rule(
        "M3",
        NOT_WALKER,
        lambda me, view, w: _stop_moving(_become_aware_searcher(me, w)),
        witness=(RobotState.HEAD_WALKER,),
    ),
    Rule(
        "M4",
        NOT_WALKER,
        lambda me, view, w: _walk(_become_tail_walker(me, w), view),
        witness=(RobotState.MIN_TAIL_WALKER,),
    ),
    Rule(
        "M5",
        (RobotState.POTENTIAL_MIN,),
        _learn_then_search,
        witness=(RobotState.AWARE_SEARCHER,),
    ),
    Rule(
        "M6",
        (RobotState.RIGHTER,),
        lambda me, view, w: _initiate_search(me, view),
        # all robots but one are here, and all of them are righters
        condition=lambda view: all(m.state is RobotState.RIGHTER for m in view.mates),
        gap=2,
    ),
    Rule("M7", (RobotState.RIGHTER,), _learn_then_search, witness=SEARCHERS),
    Rule(
        "M8",
        (RobotState.POTENTIAL_MIN, RobotState.RIGHTER),
        lambda me, view, w: _move_right(me, view),
    ),
    Rule(
        "M9",
        (RobotState.DUMB_SEARCHER,),
        lambda me, view, w: _learn_then_search(me, view, me),  # learns from itself
        # a righter larger than the candidate it carries reveals that
        # candidate as the minimum
        condition=lambda view: any(
            m.state is RobotState.RIGHTER and m.id > view.self_vars.id_potential_min
            for m in view.mates
        ),
    ),
    Rule(
        "M10",
        (RobotState.DUMB_SEARCHER,),
        _learn_then_search,
        witness=(RobotState.AWARE_SEARCHER,),
    ),
    Rule("M11", SEARCHERS, lambda me, view, w: _search(me, view)),
    Rule("T1", (RobotState.LEFT_WALKER,), lambda me, view, w: me._replace(dir=Direction.LEFT)),
    Rule(
        "T2",
        (RobotState.HEAD_WALKER,),
        lambda me, view, w: me._replace(state=RobotState.LEFT_WALKER, dir=Direction.BOT),
        # a head walker without its walker mates: its left edge was there
        # last round, it did not move, and its mates are not its walker mates
        condition=lambda view: (
            view.edge_left_previous
            and not view.has_moved
            and view.mate_ids() != view.self_vars.walker_mate
        ),
    ),
    Rule(
        "T3",
        WALKERS,
        lambda me, view, w: _stop_moving(me),
        condition=lambda view: view.self_vars.walk_steps == view.n,
    ),
    Rule("W1", WALKERS, lambda me, view, w: _walk(me, view)),
    Rule(
        "K1",
        WAITING_STATES,
        lambda me, view, w: _initiate_walk(me, view),
        # all robots but two are here, and all of them are waiting
        condition=lambda view: all(m.state in WAITING_STATES for m in view.mates),
        gap=3,
    ),
    Rule("K2", WAITING_STATES, lambda me, view, w: _stop_moving(me)),
)

RULE_ORDER = tuple(rule.name for rule in RULES)
_BY_NAME = {rule.name: rule for rule in RULES}


def _guard(rule: Rule, state: RobotState, gap: int, present: int, view: View) -> bool:
    """Is `rule` enabled? `gap` is `R - len(mates)` and `present` the OR of
    the mates' state bits, both read once per compute by the caller."""
    if state not in rule.states:
        return False
    want = rule.gap
    if want is not None and want != gap:
        return False
    seen = rule.seen
    if seen and not seen & present:
        return False  # no mate is a witness, or there is no mate
    condition = rule.condition
    return condition is None or condition(view)


def first_enabled_rule(view: View) -> str:
    me = view.self_vars
    if me.terminated:
        raise ProtocolViolation("terminated robots do not compute")
    state = me.state
    mates = view.mates
    gap = view.R - len(mates)
    present = 0
    for m in mates:
        present |= m.state.bit
    for rule in RULES:
        if _guard(rule, state, gap, present, view):
            return rule.name
    raise ProtocolViolation(f"no rule enabled for robot {me.id} in state {state}")


def apply_rule(rule: str, view: View) -> RobotVars:
    """Run the action of `rule` against the frozen view; returns updated vars."""
    entry = _BY_NAME.get(rule)
    if entry is None:
        raise ValueError(f"unknown rule {rule!r}")
    witness = select_witness(view, entry.witness) if entry.witness else None
    return entry.action(view.self_vars, view, witness)


def compute(view: View) -> tuple[RobotVars, str]:
    """One Compute phase: pick the first enabled rule and run its action."""
    rule = first_enabled_rule(view)
    return apply_rule(rule, view), rule
