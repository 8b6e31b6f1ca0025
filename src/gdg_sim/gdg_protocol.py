"""The GDG robot state machine: predicates, actions, and one rule table.

Everything here is a pure function of a robot's Look-phase view, so rule
evaluation for distinct robots in one round is order-independent.

`RULES` holds the 21 guarded rules in dispatch priority order; the first
enabled one fires. Each entry is the whole rule: its name (Term1..M11, the
stable string recorded in traces), the states it fires from, an optional
tower size, an optional witness, an optional extra condition on the view,
and its action. A witness is a set of states: some co-located robot must be
in one of them, and the action learns from the smallest-id one that is.
`RULE_ORDER` is the names of `RULES`, in order. Every action has the one
signature `apply_rule` calls, `(me, view, witness) -> RobotVars`, and is a
module-level function that the table names: a rule that composes steps,
such as M4 joining a walk and then walking, has its own named action, and
no entry wraps a helper in an adapter.

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
of their states' bits (`BIT` maps each state to one) and `gap` is
`R - len(mates)`. A rule's derived `seen` is the OR of its witness states'
bits, so a witness test is one AND, `seen & present`. A
tower-size rule carries the one `gap` it fires at (Term1 1, Term2 2, M6 2,
K1 3), so its size test is one compare, and its condition tests only the
rest. So the paper's two gathering predicates are Term1's gap (all R
robots here) and Term2's gap with its condition (all but one here, and one
of them in a min state). Both facts are arguments of `_guard`, which
dispatch calls once per rule in `RULES` order up to the one that fires, so
the guard count is the fired rule's position, as the tests and the
benchmark's self-test count it. Dispatch decides once: `first_enabled_rule`
returns the fired `Rule` itself, `apply_rule` runs that `Rule`, and
`compute` reports its name, so no name is looked up again.

`RobotVars` and `View` are NamedTuples: every Compute phase builds a View
and most build a RobotVars, and tuples build and `_replace` two to three
times faster than frozen dataclasses. M8's usual branch, a step right over
a present edge, skips even `_replace`: it builds its RobotVars in one
`tuple.__new__` call from a tuple in field order, which
`test_m8_builds_the_replaced_vars` pins. An action that changes nothing
returns its input. RobotVars checks none of its fields: a robot's id enters
a run once, with the placement, and `sim_engine.initial_configuration`
rejects one that is not exactly an int, or not strictly positive.

A state or a direction is a `str`, the very text a trace writes for it
(`RIGHTER` is "righter"), defined here once: `RobotVars` holds it,
`sim_engine.step` writes it into the round's record as it is, and the
trace decoder and `checkers.monitor_invariants` test records against
`ALL_STATES`, `DIRECTIONS` and the state groups below. Code compares
states and directions with `==` or `in`, never `is`: equal text need not
be one object, as in a decoded trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

UNSET = -1  # robot ids are >= 1, so -1 is an unambiguous "not learned yet"

# The ten robot states and three directions, as a trace writes them.
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
RIGHT = "right"
LEFT = "left"
BOT = "bot"

ALL_STATES = (RIGHTER, DUMB_SEARCHER, AWARE_SEARCHER, POTENTIAL_MIN, WAITING_WALKER,
              MIN_WAITING_WALKER, HEAD_WALKER, TAIL_WALKER, MIN_TAIL_WALKER, LEFT_WALKER)
DIRECTIONS = (RIGHT, LEFT, BOT)
# Each state's bit: first_enabled_rule ORs the mates' bits once per compute,
# and a witness test is one AND on that.
BIT = {state: 1 << i for i, state in enumerate(ALL_STATES)}

SEARCHERS = (DUMB_SEARCHER, AWARE_SEARCHER)
MIN_STATES = (MIN_WAITING_WALKER, MIN_TAIL_WALKER)
WAITING_STATES = (WAITING_WALKER, MIN_WAITING_WALKER)
WALKERS = (HEAD_WALKER, TAIL_WALKER, MIN_TAIL_WALKER)
NOT_WALKER = (RIGHTER, POTENTIAL_MIN, DUMB_SEARCHER, AWARE_SEARCHER)
# The states that head right: the states of M1 and M8, and those the
# monitor's dir-right invariant holds for.
RIGHTWARD = (RIGHTER, POTENTIAL_MIN)


class ProtocolViolation(Exception):
    """No rule is enabled for a non-terminated robot; unreachable by design."""


class RobotVars(NamedTuple):
    id: int
    state: str = RIGHTER
    dir: str = RIGHT
    right_steps: int = 0
    id_potential_min: int = UNSET
    id_min: int = UNSET
    walker_mate: frozenset[int] = frozenset()
    walk_steps: int = 0
    id_head_walker: int = UNSET
    terminated: bool = False


class View(NamedTuple):
    """What one robot observes during its Look phase. Of its edges, the rules
    read the right one this round (K4, M2 and the steps of M6, M8 and the
    walk) and the left one last round (T2, with `has_moved`)."""

    self_vars: RobotVars
    mates: tuple[RobotVars, ...]  # frozen co-located robots, terminated included
    edge_right_current: bool
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
            or (m.state == RIGHTER and me.id < m.id and me.state == POTENTIAL_MIN)
            or (m.state in (DUMB_SEARCHER, POTENTIAL_MIN) and me.id < m.id_potential_min)
        ):
            return True
    return me.right_steps == 4 * me.id * view.n


def _edge_right_current(view: View) -> bool:
    return view.edge_right_current


def select_witness(view: View, states: tuple[str, ...]) -> RobotVars:
    """Deterministic witness for an "exists a mate" guard: smallest id wins."""
    hits = [m for m in view.mates if m.state in states]
    if not hits:
        raise ProtocolViolation("witness requested but no mate satisfies the guard")
    return min(hits, key=lambda m: m.id)


# ---------------------------------------------------------------------------
# Actions: each is one rule's whole update, called as apply_rule calls it
# ---------------------------------------------------------------------------


def _terminate(me: RobotVars, view: View, witness: Optional[RobotVars]) -> RobotVars:
    return me._replace(terminated=True)


def _stop_moving(me: RobotVars, view: View, witness: Optional[RobotVars]) -> RobotVars:
    return me if me.dir == BOT else me._replace(dir=BOT)


def _walk(me: RobotVars, view: View, witness: Optional[RobotVars]) -> RobotVars:
    mate_ids = view.mate_ids()
    if (me.id == me.id_head_walker and me.walker_mate != mate_ids) or (
        me.id != me.id_head_walker and me.id_head_walker in mate_ids
    ):
        new_dir = BOT
    else:
        new_dir = RIGHT
    steps = me.walk_steps
    if new_dir == RIGHT and view.edge_right_current:
        steps += 1
    return me._replace(dir=new_dir, walk_steps=steps)


def _initiate_walk(me: RobotVars, view: View, witness: Optional[RobotVars]) -> RobotVars:
    mate_ids = view.mate_ids()
    head = max({me.id} | mate_ids)
    if me.id == head:
        state = HEAD_WALKER
    elif me.state == MIN_WAITING_WALKER:
        state = MIN_TAIL_WALKER
    else:
        state = TAIL_WALKER
    return me._replace(id_head_walker=head, walker_mate=mate_ids, state=state)


def _become_waiting_walker(me: RobotVars, view: View, witness: Optional[RobotVars]) -> RobotVars:
    return me._replace(
        state=WAITING_WALKER,
        id_potential_min=witness.id,
        id_min=witness.id,
        dir=BOT,
    )


def _become_min_waiting_walker(
    me: RobotVars, view: View, witness: Optional[RobotVars]
) -> RobotVars:
    return me._replace(
        state=MIN_WAITING_WALKER,
        id_potential_min=me.id,
        id_min=me.id,
        dir=BOT,
    )


def _become_aware_searcher(me: RobotVars, view: View, witness: Optional[RobotVars]) -> RobotVars:
    if witness.state == DUMB_SEARCHER:
        learned = witness.id_potential_min
    else:
        learned = witness.id_min
    return me._replace(
        state=AWARE_SEARCHER,
        dir=RIGHT,
        id_potential_min=learned,
        id_min=learned,
    )


def _learn_then_stop(me: RobotVars, view: View, witness: Optional[RobotVars]) -> RobotVars:
    return _become_aware_searcher(me, view, witness)._replace(dir=BOT)


def _join_walk(me: RobotVars, view: View, witness: Optional[RobotVars]) -> RobotVars:
    """Become a tail walker of the witness's walk, then take its step."""
    tail = me._replace(
        state=TAIL_WALKER,
        id_potential_min=witness.id_potential_min,
        id_min=witness.id_min,
        id_head_walker=witness.id_head_walker,
        walker_mate=witness.walker_mate,
        walk_steps=witness.walk_steps,
    )
    return _walk(tail, view, witness)


def _move_right(me: RobotVars, view: View, witness: Optional[RobotVars]) -> RobotVars:
    if view.edge_right_current:
        # M8 fires in most computes, and this is its usual branch: one C call
        # builds the vars from (id, state, dir, right_steps) and the six
        # fields after them, where _replace runs _make and ten kwds.pop calls.
        return tuple.__new__(
            RobotVars, (me.id, me.state, RIGHT, me.right_steps + 1) + me[4:]
        )
    return me if me.dir == RIGHT else me._replace(dir=RIGHT)


def _initiate_search(me: RobotVars, view: View, witness: Optional[RobotVars]) -> RobotVars:
    candidate = min({me.id} | view.mate_ids())
    state = POTENTIAL_MIN if me.id == candidate else DUMB_SEARCHER
    steps = me.right_steps
    # A robot firing this rule is a righter, hence already headed right.
    if state == POTENTIAL_MIN and view.edge_right_current:
        steps += 1
    return me._replace(id_potential_min=candidate, state=state, right_steps=steps)


def _search(me: RobotVars, view: View, witness: Optional[RobotVars]) -> RobotVars:
    if len(view.mates) >= 1:
        top = max({me.id} | view.mate_ids())
        new_dir = LEFT if me.id == top else RIGHT
        if new_dir != me.dir:
            return me._replace(dir=new_dir)
    return me


def _learn_then_search(me: RobotVars, view: View, witness: Optional[RobotVars]) -> RobotVars:
    return _search(_become_aware_searcher(me, view, witness), view, witness)


def _reveal_then_search(me: RobotVars, view: View, witness: Optional[RobotVars]) -> RobotVars:
    """A dumb searcher learns its own candidate as the minimum, then searches."""
    return _learn_then_search(me, view, me)


def _turn_left(me: RobotVars, view: View, witness: Optional[RobotVars]) -> RobotVars:
    return me._replace(dir=LEFT)


def _park_left(me: RobotVars, view: View, witness: Optional[RobotVars]) -> RobotVars:
    return me._replace(state=LEFT_WALKER, dir=BOT)


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
    `select_witness` picks from the same states, or None. Every action is a
    module-level function with that one signature, named in the table
    itself. `seen` is derived: the OR of the witness states' bits.
    """

    name: str
    states: tuple[str, ...]
    action: Callable[[RobotVars, View, Optional[RobotVars]], RobotVars]
    witness: tuple[str, ...] = ()
    condition: Optional[Callable[[View], bool]] = None
    gap: Optional[int] = None
    seen: int = field(init=False)

    def __post_init__(self) -> None:
        seen = 0
        for state in self.witness:
            seen |= BIT[state]
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
        (POTENTIAL_MIN, DUMB_SEARCHER, AWARE_SEARCHER),
        _become_waiting_walker,
        witness=(MIN_WAITING_WALKER,),
    ),
    Rule(
        "K4",
        (RIGHTER,),
        _become_aware_searcher,
        witness=(MIN_WAITING_WALKER,),
        condition=_edge_right_current,
    ),
    Rule("M1", RIGHTWARD, _become_min_waiting_walker, condition=min_discovery),
    Rule(
        "M2",
        NOT_WALKER,
        _become_aware_searcher,
        witness=(HEAD_WALKER,),
        condition=_edge_right_current,
    ),
    Rule("M3", NOT_WALKER, _learn_then_stop, witness=(HEAD_WALKER,)),
    Rule("M4", NOT_WALKER, _join_walk, witness=(MIN_TAIL_WALKER,)),
    Rule("M5", (POTENTIAL_MIN,), _learn_then_search, witness=(AWARE_SEARCHER,)),
    Rule(
        "M6",
        (RIGHTER,),
        _initiate_search,
        # all robots but one are here, and all of them are righters
        condition=lambda view: all(m.state == RIGHTER for m in view.mates),
        gap=2,
    ),
    Rule("M7", (RIGHTER,), _learn_then_search, witness=SEARCHERS),
    Rule("M8", RIGHTWARD, _move_right),
    Rule(
        "M9",
        (DUMB_SEARCHER,),
        _reveal_then_search,
        # a righter larger than the candidate it carries reveals that
        # candidate as the minimum
        condition=lambda view: any(
            m.state == RIGHTER and m.id > view.self_vars.id_potential_min
            for m in view.mates
        ),
    ),
    Rule("M10", (DUMB_SEARCHER,), _learn_then_search, witness=(AWARE_SEARCHER,)),
    Rule("M11", SEARCHERS, _search),
    Rule("T1", (LEFT_WALKER,), _turn_left),
    Rule(
        "T2",
        (HEAD_WALKER,),
        _park_left,
        # a head walker without its walker mates: its left edge was there
        # last round, it did not move, and its mates are not its walker mates
        condition=lambda view: (
            view.edge_left_previous
            and not view.has_moved
            and view.mate_ids() != view.self_vars.walker_mate
        ),
    ),
    Rule("T3", WALKERS, _stop_moving, condition=lambda view: view.self_vars.walk_steps == view.n),
    Rule("W1", WALKERS, _walk),
    Rule(
        "K1",
        WAITING_STATES,
        _initiate_walk,
        # all robots but two are here, and all of them are waiting
        condition=lambda view: all(m.state in WAITING_STATES for m in view.mates),
        gap=3,
    ),
    Rule("K2", WAITING_STATES, _stop_moving),
)

RULE_ORDER = tuple(rule.name for rule in RULES)


def _guard(rule: Rule, state: str, gap: int, present: int, view: View) -> bool:
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


def first_enabled_rule(view: View) -> Rule:
    me = view.self_vars
    if me.terminated:
        raise ProtocolViolation("terminated robots do not compute")
    state = me.state
    mates = view.mates
    gap = view.R - len(mates)
    present = 0
    for m in mates:
        present |= BIT[m.state]
    for rule in RULES:
        if _guard(rule, state, gap, present, view):
            return rule
    raise ProtocolViolation(f"no rule enabled for robot {me.id} in state {state}")


def apply_rule(rule: Rule, view: View) -> RobotVars:
    """Run the action of `rule` against the frozen view; returns updated vars."""
    witness = select_witness(view, rule.witness) if rule.witness else None
    return rule.action(view.self_vars, view, witness)


def compute(view: View) -> tuple[RobotVars, str]:
    """One Compute phase: pick the first enabled rule and run its action."""
    rule = first_enabled_rule(view)
    return apply_rule(rule, view), rule.name
