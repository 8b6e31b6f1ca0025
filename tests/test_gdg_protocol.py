import pytest
from hypothesis import given, settings, strategies as st

from gdg_sim import gdg_protocol
from gdg_sim.adversary import adaptive_ac_adversary
from gdg_sim.gdg_protocol import (
    ALL_STATES,
    AWARE_SEARCHER,
    BIT,
    BOT,
    DIRECTIONS,
    DUMB_SEARCHER,
    HEAD_WALKER,
    LEFT,
    LEFT_WALKER,
    MIN_STATES,
    MIN_TAIL_WALKER,
    MIN_WAITING_WALKER,
    POTENTIAL_MIN,
    RIGHT,
    RIGHTER,
    RULE_ORDER,
    RULES,
    TAIL_WALKER,
    WAITING_STATES,
    WAITING_WALKER,
    ProtocolViolation,
    RobotVars,
    View,
    apply_rule,
    compute,
    first_enabled_rule,
    min_discovery,
    select_witness,
)
from gdg_sim.ring_model import static_ring
from gdg_sim.sim_engine import run

import spec
from spec import BY_NAME


def make_view(
    self_vars,
    mates=(),
    R=4,
    n=4,
    right_cur=True,
    left_prev=True,
    has_moved=False,
):
    return View(
        self_vars=self_vars,
        mates=tuple(mates),
        edge_right_current=right_cur,
        edge_left_previous=left_prev,
        has_moved=has_moved,
        n=n,
        R=R,
    )


def robot(rid, state=RIGHTER, **kw):
    return RobotVars(id=rid, state=state, **kw)


class TestMinDiscovery:
    def test_potential_min_meets_larger_righter(self):
        me = robot(1, POTENTIAL_MIN)
        view = make_view(me, [robot(5)])
        assert min_discovery(view)

    def test_potential_min_meets_smaller_righter(self):
        me = robot(5, POTENTIAL_MIN)
        view = make_view(me, [robot(1)])
        assert not min_discovery(view)

    def test_mate_announces_my_id_as_min(self):
        me = robot(2)
        mate = robot(7, AWARE_SEARCHER, id_min=2, id_potential_min=2)
        assert min_discovery(make_view(me, [mate]))

    def test_searcher_carries_larger_candidate(self):
        me = robot(1)
        mate = robot(6, DUMB_SEARCHER, id_potential_min=3)
        assert min_discovery(make_view(me, [mate]))
        # equal candidate does not qualify
        mate_eq = robot(6, DUMB_SEARCHER, id_potential_min=1)
        assert not min_discovery(make_view(me, [mate_eq]))

    def test_full_lap_counter(self):
        me = robot(2, right_steps=4 * 2 * 4)
        assert min_discovery(make_view(me, [], n=4))
        assert not min_discovery(make_view(robot(2, right_steps=31), [], n=4))


class TestGatheringPredicates:
    """Term1 fires when all R robots are here; Term2 when all but one are,
    and one of them, the robot itself or a mate, is in a min state."""

    def test_all_but_one_with_min(self):
        me = robot(1, MIN_WAITING_WALKER)
        view = make_view(me, [robot(3, WAITING_WALKER), robot(4)], R=4)
        assert first_enabled_rule(view).name == "Term2"
        mate = robot(1, MIN_TAIL_WALKER)
        view = make_view(robot(3, WAITING_WALKER), [mate, robot(4)], R=4)
        assert first_enabled_rule(view).name == "Term2"

    def test_all_but_one_without_min(self):
        for state in ALL_STATES:
            if state not in MIN_STATES:
                view = make_view(robot(1, state), [robot(3), robot(4)], R=4)
                assert first_enabled_rule(view).name not in ("Term1", "Term2")


class TestDispatch:
    def test_head_walker_lost_mates_excused_after_missing_edge(self):
        me = robot(5, HEAD_WALKER, walker_mate=frozenset({1, 2}), id_head_walker=5)
        view = make_view(me, [robot(1, TAIL_WALKER)], left_prev=False)
        assert first_enabled_rule(view).name == "W1"

    def test_searcher_meets_min(self):
        me = robot(4, DUMB_SEARCHER, id_potential_min=2)
        view = make_view(me, [robot(1, MIN_WAITING_WALKER)], R=5)
        assert first_enabled_rule(view).name == "K3"

    def test_righter_meets_min_needs_right_edge(self):
        me = robot(4)
        mates = [robot(1, MIN_WAITING_WALKER)]
        assert first_enabled_rule(make_view(me, mates, R=5, right_cur=True)).name == "K4"
        assert first_enabled_rule(make_view(me, mates, R=5, right_cur=False)).name == "M8"

    def test_dumb_searcher_min_revelation_preempts_search(self):
        me = robot(4, DUMB_SEARCHER, id_potential_min=2)
        assert first_enabled_rule(make_view(me, [robot(6)], R=5)).name == "M9"
        me_sure = robot(4, DUMB_SEARCHER, id_potential_min=2)
        assert first_enabled_rule(make_view(me_sure, [robot(1)], R=5)).name == "M11"

    def test_head_walker_mate_needs_edge_for_m2(self):
        me = robot(2)
        mates = [robot(8, HEAD_WALKER, id_head_walker=8)]
        assert first_enabled_rule(make_view(me, mates, R=5, right_cur=True)).name == "M2"
        assert first_enabled_rule(make_view(me, mates, R=5, right_cur=False)).name == "M3"

    def test_terminated_robot_never_dispatches(self):
        with pytest.raises(ProtocolViolation):
            first_enabled_rule(make_view(robot(2, terminated=True)))


class TestActions:
    def test_initiate_search_splits_roles(self):
        view5 = make_view(robot(5), [robot(2), robot(9)], R=5)
        out5 = apply_rule(BY_NAME["M6"], view5)
        assert out5.state == DUMB_SEARCHER
        assert out5.id_potential_min == 2
        assert out5.right_steps == 0

        view2 = make_view(robot(2, right_steps=3), [robot(5), robot(9)], R=5)
        out2 = apply_rule(BY_NAME["M6"], view2)
        assert out2.state == POTENTIAL_MIN
        assert out2.id_potential_min == 2
        assert out2.right_steps == 4  # candidate keeps walking right

        view2_blocked = make_view(
            robot(2, right_steps=3), [robot(5), robot(9)], R=5, right_cur=False
        )
        assert apply_rule(BY_NAME["M6"], view2_blocked).right_steps == 3

    def test_initiate_walk_assigns_roles(self):
        waiting = {
            1: robot(1, MIN_WAITING_WALKER, dir=BOT),
            4: robot(4, WAITING_WALKER, dir=BOT),
            7: robot(7, WAITING_WALKER, dir=BOT),
            8: robot(8, WAITING_WALKER, dir=BOT),
        }
        outs = {}
        for rid, me in waiting.items():
            mates = [v for k, v in sorted(waiting.items()) if k != rid]
            outs[rid] = apply_rule(BY_NAME["K1"], make_view(me, mates, R=6))
        assert outs[8].state == HEAD_WALKER
        assert outs[8].walker_mate == frozenset({1, 4, 7})
        assert outs[1].state == MIN_TAIL_WALKER
        assert outs[4].state == TAIL_WALKER
        assert outs[7].state == TAIL_WALKER
        assert all(v.id_head_walker == 8 for v in outs.values())

    def test_walk_head_moves_with_full_escort(self):
        me = robot(
            8,
            HEAD_WALKER,
            id_head_walker=8,
            walker_mate=frozenset({1, 4}),
            walk_steps=2,
        )
        mates = [robot(1, MIN_TAIL_WALKER, id_head_walker=8),
                 robot(4, TAIL_WALKER, id_head_walker=8)]
        out = apply_rule(BY_NAME["W1"], make_view(me, mates, R=5))
        assert out.dir == RIGHT
        assert out.walk_steps == 3

    def test_walk_head_pauses_when_escort_changes(self):
        me = robot(8, HEAD_WALKER, id_head_walker=8, walker_mate=frozenset({1, 4}))
        out = apply_rule(BY_NAME["W1"], make_view(me, [robot(1, MIN_TAIL_WALKER)], R=5))
        assert out.dir == BOT
        assert out.walk_steps == 0

    def test_walk_tail_pauses_while_head_present(self):
        me = robot(4, TAIL_WALKER, id_head_walker=8, walk_steps=1)
        with_head = make_view(me, [robot(8, HEAD_WALKER, id_head_walker=8)], R=5)
        assert apply_rule(BY_NAME["W1"], with_head).dir == BOT
        without_head = make_view(me, [], R=5)
        out = apply_rule(BY_NAME["W1"], without_head)
        assert out.dir == RIGHT
        assert out.walk_steps == 2

    def test_walk_does_not_count_blocked_step(self):
        me = robot(4, TAIL_WALKER, id_head_walker=8, walk_steps=1)
        out = apply_rule(BY_NAME["W1"], make_view(me, [], R=5, right_cur=False))
        assert out.dir == RIGHT
        assert out.walk_steps == 1

    def test_become_waiting_walker_records_min(self):
        me = robot(4, DUMB_SEARCHER, id_potential_min=2)
        view = make_view(me, [robot(1, MIN_WAITING_WALKER)], R=5)
        out = apply_rule(BY_NAME["K3"], view)
        assert out.state == WAITING_WALKER
        assert (out.id_potential_min, out.id_min) == (1, 1)
        assert out.dir == BOT

    def test_become_min_waiting_walker(self):
        me = robot(1, POTENTIAL_MIN, id_potential_min=1)
        out = apply_rule(BY_NAME["M1"], make_view(me, [robot(5)], R=5))
        assert out.state == MIN_WAITING_WALKER
        assert (out.id_potential_min, out.id_min) == (1, 1)
        assert out.dir == BOT

    def test_aware_searcher_copies_candidate_from_dumb_witness(self):
        me = robot(9)
        witness = robot(6, DUMB_SEARCHER, id_potential_min=2)
        out = apply_rule(BY_NAME["M7"], make_view(me, [witness], R=5))
        assert out.state == AWARE_SEARCHER
        assert (out.id_potential_min, out.id_min) == (2, 2)

    def test_aware_searcher_copies_min_from_aware_witness(self):
        me = robot(9)
        witness = robot(6, AWARE_SEARCHER, id_potential_min=3, id_min=3)
        out = apply_rule(BY_NAME["M7"], make_view(me, [witness], R=5))
        assert (out.id_potential_min, out.id_min) == (3, 3)

    def test_min_revelation_promotes_self_candidate(self):
        me = robot(4, DUMB_SEARCHER, id_potential_min=2)
        out = apply_rule(BY_NAME["M9"], make_view(me, [robot(6)], R=5))
        assert out.state == AWARE_SEARCHER
        assert (out.id_potential_min, out.id_min) == (2, 2)

    def test_search_splits_largest_left(self):
        me = robot(9, AWARE_SEARCHER, id_min=2, id_potential_min=2)
        out = apply_rule(BY_NAME["M11"], make_view(me, [robot(6, DUMB_SEARCHER)], R=5))
        assert out.dir == LEFT
        me_small = robot(3, DUMB_SEARCHER, id_potential_min=2)
        out2 = apply_rule(BY_NAME["M11"], make_view(me_small, [robot(6, DUMB_SEARCHER)], R=5))
        assert out2.dir == RIGHT

    def test_search_alone_keeps_direction(self):
        me = robot(3, DUMB_SEARCHER, id_potential_min=2, dir=LEFT)
        assert apply_rule(BY_NAME["M11"], make_view(me, [], R=5)).dir == LEFT

    def test_tail_walker_adoption(self):
        witness = robot(
            1,
            MIN_TAIL_WALKER,
            id_potential_min=1,
            id_min=1,
            id_head_walker=8,
            walker_mate=frozenset({1, 4}),
            walk_steps=3,
        )
        me = robot(6, AWARE_SEARCHER, id_min=1, id_potential_min=1)
        out = apply_rule(BY_NAME["M4"], make_view(me, [witness], R=5))
        assert out.state == TAIL_WALKER
        assert out.id_head_walker == 8
        assert out.walk_steps == 4  # walks along immediately

    def test_m3_joins_walk_but_stops(self):
        me = robot(2)
        head = robot(8, HEAD_WALKER, id_min=1, id_potential_min=1, id_head_walker=8)
        out = apply_rule(BY_NAME["M3"], make_view(me, [head], R=5, right_cur=False))
        assert out.state == AWARE_SEARCHER
        assert out.dir == BOT
        assert (out.id_potential_min, out.id_min) == (1, 1)

    def test_termination_freezes(self):
        view = make_view(robot(1), [robot(2), robot(3), robot(4)], R=4)
        out = apply_rule(BY_NAME["Term1"], view)
        assert out.terminated
        assert out.state == RIGHTER


class TestWitness:
    def test_smallest_id_wins(self):
        me = robot(9)
        mates = [
            robot(6, DUMB_SEARCHER, id_potential_min=3),
            robot(2, DUMB_SEARCHER, id_potential_min=5),
        ]
        view = make_view(me, mates, R=5)
        witness = select_witness(view, (DUMB_SEARCHER,))
        assert witness.id == 2
        out = apply_rule(BY_NAME["M7"], view)
        assert out.id_min == 5  # learned from robot 2, not robot 6

    def test_missing_witness_raises(self):
        with pytest.raises(ProtocolViolation):
            select_witness(make_view(robot(9)), ALL_STATES)


# ---------------------------------------------------------------------------
# Every rule: a view in which it is the first enabled one
# ---------------------------------------------------------------------------

HEAD = robot(8, HEAD_WALKER, id_min=1, id_potential_min=1, id_head_walker=8)
MIN_WAITING = robot(1, MIN_WAITING_WALKER, id_min=1, id_potential_min=1)
AWARE = robot(6, AWARE_SEARCHER, id_min=1, id_potential_min=1)

# In priority order; each view enables its rule and no earlier one.
FIRST_ENABLED = {
    "Term1": make_view(robot(1), [robot(2), robot(3), robot(4)], R=4),
    "Term2": make_view(
        robot(1, MIN_WAITING_WALKER),
        [robot(3, WAITING_WALKER), robot(4)],
        R=4,
    ),
    "K3": make_view(robot(4, DUMB_SEARCHER, id_potential_min=2), [MIN_WAITING], R=5),
    "K4": make_view(robot(4), [MIN_WAITING], R=5),
    "M1": make_view(robot(1, POTENTIAL_MIN, id_potential_min=1), [robot(5)], R=5),
    "M2": make_view(robot(2), [HEAD], R=5),
    "M3": make_view(robot(2), [HEAD], R=5, right_cur=False),
    "M4": make_view(
        AWARE,
        [robot(1, MIN_TAIL_WALKER, id_min=1, id_head_walker=8)],
        R=5,
    ),
    "M5": make_view(robot(2, POTENTIAL_MIN, id_potential_min=2), [AWARE], R=5),
    "M6": make_view(robot(1), [robot(2), robot(3)], R=4),
    "M7": make_view(robot(4), [robot(6, DUMB_SEARCHER, id_potential_min=2)], R=5),
    "M8": make_view(robot(3)),
    "M9": make_view(robot(4, DUMB_SEARCHER, id_potential_min=2), [robot(6)], R=5),
    "M10": make_view(robot(4, DUMB_SEARCHER, id_potential_min=2), [AWARE], R=5),
    "M11": make_view(robot(3, DUMB_SEARCHER, id_potential_min=2), R=5),
    "T1": make_view(robot(2, LEFT_WALKER)),
    "T2": make_view(
        robot(5, HEAD_WALKER, walker_mate=frozenset({1, 2}), id_head_walker=5),
        [robot(1, TAIL_WALKER)],
    ),
    "T3": make_view(robot(5, HEAD_WALKER, walk_steps=4, id_head_walker=5), n=4),
    "W1": make_view(
        robot(5, HEAD_WALKER, walker_mate=frozenset({1}), id_head_walker=5),
        [robot(1, MIN_TAIL_WALKER, id_head_walker=5)],
        R=5,
    ),
    "K1": make_view(
        robot(1, MIN_WAITING_WALKER),
        [robot(4, WAITING_WALKER), robot(7, WAITING_WALKER)],
        R=5,
    ),
    "K2": make_view(robot(4, WAITING_WALKER), [robot(9)], R=5),
}


# The vars each FIRST_ENABLED view's rule returns, every field pinned.
FIRST_ENABLED_VARS = {
    "Term1": robot(1, terminated=True),
    "Term2": robot(1, MIN_WAITING_WALKER, terminated=True),
    "K3": robot(4, WAITING_WALKER, dir=BOT, id_potential_min=1, id_min=1),
    "K4": robot(4, AWARE_SEARCHER, id_potential_min=1, id_min=1),
    "M1": robot(1, MIN_WAITING_WALKER, dir=BOT, id_potential_min=1, id_min=1),
    "M2": robot(2, AWARE_SEARCHER, id_potential_min=1, id_min=1),
    "M3": robot(2, AWARE_SEARCHER, dir=BOT, id_potential_min=1, id_min=1),
    # the witness's walk: its unset candidate and empty walker mates too
    "M4": robot(6, TAIL_WALKER, id_min=1, walk_steps=1, id_head_walker=8),
    "M5": robot(2, AWARE_SEARCHER, id_potential_min=1, id_min=1),
    "M6": robot(1, POTENTIAL_MIN, right_steps=1, id_potential_min=1),
    "M7": robot(4, AWARE_SEARCHER, id_potential_min=2, id_min=2),
    "M8": robot(3, right_steps=1),
    "M9": robot(4, AWARE_SEARCHER, id_potential_min=2, id_min=2),
    "M10": robot(4, AWARE_SEARCHER, id_potential_min=1, id_min=1),
    "M11": robot(3, DUMB_SEARCHER, id_potential_min=2),
    "T1": robot(2, LEFT_WALKER, dir=LEFT),
    "T2": robot(
        5, LEFT_WALKER, dir=BOT, walker_mate=frozenset({1, 2}), id_head_walker=5
    ),
    "T3": robot(5, HEAD_WALKER, dir=BOT, walk_steps=4, id_head_walker=5),
    "W1": robot(
        5, HEAD_WALKER, walker_mate=frozenset({1}), walk_steps=1, id_head_walker=5
    ),
    "K1": robot(1, MIN_TAIL_WALKER, walker_mate=frozenset({4, 7}), id_head_walker=7),
    "K2": robot(4, WAITING_WALKER, dir=BOT),
}


def test_first_enabled_covers_every_rule_in_priority_order():
    assert tuple(FIRST_ENABLED) == RULE_ORDER
    assert tuple(FIRST_ENABLED_VARS) == RULE_ORDER


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.name)
def test_action_is_a_module_level_function(rule):
    # The table names each action itself; a lambda's __name__ is "<lambda>".
    action = rule.action
    assert getattr(gdg_protocol, action.__name__, None) is action


@pytest.mark.parametrize("rule", RULE_ORDER)
def test_rule_is_first_enabled(rule):
    view = FIRST_ENABLED[rule]
    assert first_enabled_rule(view).name == rule
    assert compute(view) == (apply_rule(BY_NAME[rule], view), rule)
    assert compute(view) == (FIRST_ENABLED_VARS[rule], rule)


class TestUnpinnedActions:
    def test_term2_freezes(self):
        out = apply_rule(BY_NAME["Term2"], FIRST_ENABLED["Term2"])
        assert out.terminated
        assert out.state == MIN_WAITING_WALKER

    def test_t1_turns_left(self):
        out = apply_rule(BY_NAME["T1"], FIRST_ENABLED["T1"])
        assert (out.state, out.dir) == (LEFT_WALKER, LEFT)

    def test_t2_becomes_parked_left_walker(self):
        out = apply_rule(BY_NAME["T2"], FIRST_ENABLED["T2"])
        assert (out.state, out.dir) == (LEFT_WALKER, BOT)
        assert out.walker_mate == frozenset({1, 2})

    def test_t3_stops_after_full_walk(self):
        out = apply_rule(BY_NAME["T3"], FIRST_ENABLED["T3"])
        assert (out.state, out.dir, out.walk_steps) == (HEAD_WALKER, BOT, 4)

    def test_k2_parks(self):
        out = apply_rule(BY_NAME["K2"], FIRST_ENABLED["K2"])
        assert (out.state, out.dir) == (WAITING_WALKER, BOT)

    def test_k4_learns_min_from_min_waiting(self):
        out = apply_rule(BY_NAME["K4"], FIRST_ENABLED["K4"])
        assert (out.state, out.dir) == (AWARE_SEARCHER, RIGHT)
        assert (out.id_potential_min, out.id_min) == (1, 1)

    def test_m2_learns_min_from_head_walker_and_keeps_going(self):
        out = apply_rule(BY_NAME["M2"], FIRST_ENABLED["M2"])
        assert (out.state, out.dir) == (AWARE_SEARCHER, RIGHT)
        assert (out.id_potential_min, out.id_min) == (1, 1)

    def test_m5_learns_from_smallest_aware_searcher_then_searches(self):
        me = robot(2, POTENTIAL_MIN, id_potential_min=2)
        other = robot(9, AWARE_SEARCHER, id_min=5, id_potential_min=5)
        out = apply_rule(BY_NAME["M5"], make_view(me, [other, AWARE], R=5))
        assert out.state == AWARE_SEARCHER
        assert (out.id_potential_min, out.id_min) == (1, 1)
        assert out.dir == RIGHT  # not the largest id here

    def test_m8_moves_right_counting_present_edges(self):
        out = apply_rule(BY_NAME["M8"], make_view(robot(3, right_steps=2, dir=BOT)))
        assert (out.state, out.dir, out.right_steps) == (RIGHTER, RIGHT, 3)
        heading_right = make_view(robot(3, right_steps=2))
        assert apply_rule(BY_NAME["M8"], heading_right).right_steps == 3
        assert heading_right.self_vars.right_steps == 2
        blocked = apply_rule(BY_NAME["M8"], make_view(robot(3, right_steps=2), right_cur=False))
        assert blocked.right_steps == 2
        parked_view = make_view(robot(3, right_steps=2, dir=BOT), right_cur=False)
        parked = apply_rule(BY_NAME["M8"], parked_view)
        assert (parked.dir, parked.right_steps) == (RIGHT, 2)

    def test_m10_dumb_searcher_learns_min_and_searches(self):
        out = apply_rule(BY_NAME["M10"], FIRST_ENABLED["M10"])
        assert out.state == AWARE_SEARCHER
        assert (out.id_potential_min, out.id_min) == (1, 1)
        assert out.dir == RIGHT
        me = robot(7, DUMB_SEARCHER, id_potential_min=2)
        assert apply_rule(BY_NAME["M10"], make_view(me, [AWARE], R=5)).dir == LEFT


# ---------------------------------------------------------------------------
# Totality: every reachable-looking view dispatches exactly one rule
# ---------------------------------------------------------------------------

states = st.sampled_from(ALL_STATES)
dirs = st.sampled_from(DIRECTIONS)


@st.composite
def robot_vars(draw, rid=None):
    return RobotVars(
        id=rid if rid is not None else draw(st.integers(1, 32)),
        state=draw(states),
        dir=draw(dirs),
        right_steps=draw(st.integers(0, 40)),
        id_potential_min=draw(st.sampled_from([-1, 1, 2, 5])),
        id_min=draw(st.sampled_from([-1, 1, 2, 5])),
        walker_mate=frozenset(draw(st.lists(st.integers(1, 32), max_size=3))),
        walk_steps=draw(st.integers(0, 8)),
        id_head_walker=draw(st.sampled_from([-1, 1, 2, 5, 32])),
    )


@st.composite
def views(draw):
    ids = draw(st.lists(st.integers(1, 32), min_size=1, max_size=4, unique=True))
    me = draw(robot_vars(rid=ids[0]))
    mates = tuple(draw(robot_vars(rid=i)) for i in ids[1:])
    return make_view(
        me,
        mates,
        R=draw(st.integers(4, 8)),
        n=draw(st.integers(4, 8)),
        right_cur=draw(st.booleans()),
        left_prev=draw(st.booleans()),
        has_moved=draw(st.booleans()),
    )


@settings(max_examples=500)
@given(views())
def test_compute_is_total_and_deterministic(view):
    vars1, rule1 = compute(view)
    vars2, rule2 = compute(view)
    assert (vars1, rule1) == (vars2, rule2)
    assert rule1 in (
        "Term1", "Term2", "T1", "T2", "T3", "W1",
        "K1", "K2", "K3", "K4",
        "M1", "M2", "M3", "M4", "M5", "M6", "M7", "M8", "M9", "M10", "M11",
    )


@settings(max_examples=500)
@given(views())
def test_terminated_only_via_term_rules(view):
    vars, rule = compute(view)
    assert vars.terminated == (rule in ("Term1", "Term2"))


@settings(max_examples=300)
@given(
    robot_vars(),
    st.sampled_from([RIGHTER, POTENTIAL_MIN]),
    st.booleans(),
)
def test_m8_builds_the_replaced_vars(drawn, state, right_cur):
    # M8 builds its vars over a present edge from a tuple in field order, so
    # compare with _replace, which names each field, and check the type:
    # a plain tuple of the same fields compares equal to a RobotVars.
    me = drawn._replace(state=state)
    fields = tuple(me)
    out = apply_rule(BY_NAME["M8"], make_view(me, right_cur=right_cur))
    if right_cur:
        assert out == me._replace(dir=RIGHT, right_steps=me.right_steps + 1)
    else:
        assert out == me._replace(dir=RIGHT)
    assert type(out) is RobotVars
    assert tuple(me) == fields


# ---------------------------------------------------------------------------
# Value types: immutable, hashable, keyword-constructed
# ---------------------------------------------------------------------------


class TestValueTypes:
    @pytest.mark.parametrize("rid", [0, -1])
    def test_non_positive_id_rejected(self, rid):
        # RobotVars checks nothing; an id is checked where it enters a run,
        # before any Compute phase.
        def never_called(view):
            raise AssertionError("a Compute phase ran")

        placement = {rid: 0, 2: 1, 3: 2, 4: 3}
        assert RobotVars(id=rid).id == rid
        with pytest.raises(ValueError, match="strictly positive"):
            run(static_ring(4), placement, 5, never_called)
        with pytest.raises(ValueError, match="strictly positive"):
            adaptive_ac_adversary(4, 4, placement, 3, 4, 5, never_called)

    def test_replace_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unexpected field names"):
            robot(3)._replace(colour="red")

    def test_robot_vars_fields_cannot_be_set(self):
        with pytest.raises(AttributeError):
            robot(3).state = LEFT_WALKER

    def test_view_fields_cannot_be_set(self):
        with pytest.raises(AttributeError):
            make_view(robot(3)).has_moved = True

    def test_replace_returns_robot_vars(self):
        out = robot(3)._replace(dir=LEFT)
        assert type(out) is RobotVars
        assert (out.id, out.dir) == (3, LEFT)

    def test_equal_vars_from_different_actions_are_equal_and_hash_equal(self):
        # K3 turns a searcher into this waiting walker; K2 parks one that was
        # already waiting but still headed right.
        via_k3 = apply_rule(BY_NAME["K3"], FIRST_ENABLED["K3"])
        waiting = robot(4, WAITING_WALKER, id_potential_min=1, id_min=1)
        via_k2 = apply_rule(BY_NAME["K2"], make_view(waiting, [MIN_WAITING], R=5))
        assert via_k3 is not via_k2
        assert via_k3 == via_k2
        assert hash(via_k3) == hash(via_k2)
        assert len({via_k3, via_k2}) == 1

    def test_keyword_construction_with_defaults(self):
        me = RobotVars(id=3)
        assert (me.state, me.dir, me.right_steps, me.walk_steps) == (
            RIGHTER, RIGHT, 0, 0
        )
        assert (me.id_potential_min, me.id_min, me.id_head_walker) == (-1, -1, -1)
        assert (me.walker_mate, me.terminated) == (frozenset(), False)
        assert RobotVars(3, POTENTIAL_MIN, LEFT) == RobotVars(
            id=3, state=POTENTIAL_MIN, dir=LEFT
        )
        view = make_view(me, R=6, n=9)
        assert (view.self_vars, view.mates, view.n, view.R) == (me, (), 9, 6)


# ---------------------------------------------------------------------------
# Actions that change nothing return their input
# ---------------------------------------------------------------------------


class TestUnchangedVars:
    def test_blocked_m8_returns_its_input(self):
        view = make_view(robot(3, right_steps=2), right_cur=False)
        assert apply_rule(BY_NAME["M8"], view) is view.self_vars

    def test_k2_at_bot_returns_its_input(self):
        view = make_view(robot(4, WAITING_WALKER, dir=BOT), [robot(9)], R=5)
        assert apply_rule(BY_NAME["K2"], view) is view.self_vars

    def test_lone_m11_returns_its_input(self):
        view = FIRST_ENABLED["M11"]
        assert apply_rule(BY_NAME["M11"], view) is view.self_vars

    def test_m11_keeping_its_direction_returns_its_input(self):
        me = robot(3, DUMB_SEARCHER, id_potential_min=2)
        view = make_view(me, [robot(6, DUMB_SEARCHER)], R=5)
        assert apply_rule(BY_NAME["M11"], view) is me


# ---------------------------------------------------------------------------
# Dispatch against the spec's walk of the rule table in the paper's order
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("state", ALL_STATES)
def test_rule_order_keeps_each_states_paper_order(state):
    # A rule whose states leave out the robot's is never enabled, so two
    # orders fire the same rule on every view iff they agree on the rules
    # of each state.
    def rules_of(order):
        return [name for name in order if state in BY_NAME[name].states]

    assert rules_of(RULE_ORDER) == rules_of(spec.PAPER_ORDER)


@settings(max_examples=500)
@given(views())
def test_min_discovery_matches_reference(view):
    assert min_discovery(view) == spec.min_discovery(view)


@settings(max_examples=500)
@given(views())
def test_dispatch_matches_reference_walk(view):
    assert first_enabled_rule(view).name == spec.dispatch(view)


# ---------------------------------------------------------------------------
# Dispatch tests one guard per rule, up to and including the one that fires
# ---------------------------------------------------------------------------


def _guarded_dispatch(monkeypatch, view):
    """first_enabled_rule(view).name and the names of the rules it guarded, in order."""
    calls = []
    guard = gdg_protocol._guard

    def counting(rule, *args):
        calls.append(rule.name)
        return guard(rule, *args)

    monkeypatch.setattr(gdg_protocol, "_guard", counting)
    return first_enabled_rule(view).name, calls


@pytest.mark.parametrize("rule", RULE_ORDER)
def test_first_enabled_rule_guards_each_rule_up_to_the_fired_one(monkeypatch, rule):
    fired, calls = _guarded_dispatch(monkeypatch, FIRST_ENABLED[rule])
    assert fired == rule
    assert len(calls) == RULE_ORDER.index(rule) + 1
    assert tuple(calls) == RULE_ORDER[: len(calls)]


@settings(max_examples=500)
@given(views())
def test_guard_count_is_the_fired_rules_position(view):
    with pytest.MonkeyPatch.context() as monkeypatch:
        try:
            fired, calls = _guarded_dispatch(monkeypatch, view)
        except ProtocolViolation:
            return
    assert len(calls) == RULE_ORDER.index(fired) + 1
    assert tuple(calls) == RULE_ORDER[: len(calls)]


# ---------------------------------------------------------------------------
# Dense towers: R - len(mates) is 1 to 4, where the tower-size rules live
# ---------------------------------------------------------------------------

# Mate states that make the tower-size conditions hold or nearly hold: all
# righters (M6), all waiting (K1), a min present (Term2), or anything.
TOWER_MATE_STATES = {
    "righters": st.just(RIGHTER),
    "waiting": st.sampled_from(WAITING_STATES),
    "min": st.sampled_from(MIN_STATES + (RIGHTER, WAITING_WALKER)),
    "any": states,
}


@st.composite
def tower_views(draw):
    R = draw(st.integers(4, 9))
    gap = draw(st.integers(1, 4))
    ids = draw(st.lists(st.integers(1, 32), min_size=R, max_size=R, unique=True))
    kind = draw(st.sampled_from(sorted(TOWER_MATE_STATES)))
    mate_state = TOWER_MATE_STATES[kind]
    me_state = draw(st.one_of(mate_state, states))
    me = draw(robot_vars(rid=ids[0]))._replace(state=me_state)
    mates = tuple(
        draw(robot_vars(rid=i))._replace(state=draw(mate_state))
        for i in ids[1 : R - gap + 1]
    )
    return make_view(
        me,
        mates,
        R=R,
        n=draw(st.integers(4, 8)),
        right_cur=draw(st.booleans()),
        left_prev=draw(st.booleans()),
        has_moved=draw(st.booleans()),
    )


@settings(max_examples=500)
@given(tower_views())
def test_dense_towers_dispatch_as_the_reference_walk(view):
    assert 1 <= view.R - len(view.mates) <= 4
    with pytest.MonkeyPatch.context() as monkeypatch:
        fired, calls = _guarded_dispatch(monkeypatch, view)
    assert fired == spec.dispatch(view)
    assert tuple(calls) == RULE_ORDER[: RULE_ORDER.index(fired) + 1]


# ---------------------------------------------------------------------------
# The table's derived fields: state bits, witness bits and tower gaps
# ---------------------------------------------------------------------------


def test_state_bits_are_distinct_powers_of_two():
    assert list(BIT) == list(ALL_STATES)
    bits = list(BIT.values())
    assert all(bit > 0 and bit & (bit - 1) == 0 for bit in bits)
    assert len(set(bits)) == len(bits)


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.name)
def test_seen_is_the_or_of_the_witness_bits(rule):
    expected = 0
    for state in rule.witness:
        expected |= BIT[state]
    assert rule.seen == expected


def test_exactly_the_tower_size_rules_carry_a_gap():
    gaps = {rule.name: rule.gap for rule in RULES if rule.gap is not None}
    assert gaps == {"Term1": 1, "Term2": 2, "M6": 2, "K1": 3}


@pytest.mark.parametrize(
    "rule,drop",
    [
        (name, k)
        for name in ("Term1", "Term2", "M6", "K1")
        for k in range(len(FIRST_ENABLED[name].mates))
    ],
)
def test_tower_rule_needs_its_whole_tower(rule, drop):
    view = FIRST_ENABLED[rule]
    mates = view.mates[:drop] + view.mates[drop + 1 :]
    smaller = view._replace(mates=mates)
    assert first_enabled_rule(smaller).name != rule
    assert first_enabled_rule(smaller).name == spec.dispatch(smaller)
