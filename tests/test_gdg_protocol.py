import pytest
from hypothesis import given, settings, strategies as st

from gdg_sim import gdg_protocol
from gdg_sim.adversary import adaptive_ac_adversary
from gdg_sim.gdg_protocol import (
    ALL_STATES,
    MIN_STATES,
    WAITING_STATES,
    Direction,
    ProtocolViolation,
    RULE_ORDER,
    RULES,
    RobotState,
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


def make_view(
    self_vars,
    mates=(),
    R=4,
    n=4,
    right_cur=True,
    left_cur=True,
    right_prev=True,
    left_prev=True,
    has_moved=False,
):
    return View(
        self_vars=self_vars,
        mates=tuple(mates),
        edge_right_current=right_cur,
        edge_left_current=left_cur,
        edge_right_previous=right_prev,
        edge_left_previous=left_prev,
        has_moved=has_moved,
        n=n,
        R=R,
    )


def robot(rid, state=RobotState.RIGHTER, **kw):
    return RobotVars(id=rid, state=state, **kw)


class TestMinDiscovery:
    def test_potential_min_meets_larger_righter(self):
        me = robot(1, RobotState.POTENTIAL_MIN)
        view = make_view(me, [robot(5)])
        assert min_discovery(view)

    def test_potential_min_meets_smaller_righter(self):
        me = robot(5, RobotState.POTENTIAL_MIN)
        view = make_view(me, [robot(1)])
        assert not min_discovery(view)

    def test_mate_announces_my_id_as_min(self):
        me = robot(2)
        mate = robot(7, RobotState.AWARE_SEARCHER, id_min=2, id_potential_min=2)
        assert min_discovery(make_view(me, [mate]))

    def test_searcher_carries_larger_candidate(self):
        me = robot(1)
        mate = robot(6, RobotState.DUMB_SEARCHER, id_potential_min=3)
        assert min_discovery(make_view(me, [mate]))
        # equal candidate does not qualify
        mate_eq = robot(6, RobotState.DUMB_SEARCHER, id_potential_min=1)
        assert not min_discovery(make_view(me, [mate_eq]))

    def test_full_lap_counter(self):
        me = robot(2, right_steps=4 * 2 * 4)
        assert min_discovery(make_view(me, [], n=4))
        assert not min_discovery(make_view(robot(2, right_steps=31), [], n=4))


class TestGatheringPredicates:
    """Term1 fires when all R robots are here; Term2 when all but one are,
    and one of them, the robot itself or a mate, is in a min state."""

    def test_all_present(self):
        view = make_view(robot(1), [robot(2), robot(3), robot(4)], R=4)
        assert first_enabled_rule(view) == "Term1"

    def test_all_but_one_with_min(self):
        me = robot(1, RobotState.MIN_WAITING_WALKER)
        view = make_view(me, [robot(3, RobotState.WAITING_WALKER), robot(4)], R=4)
        assert first_enabled_rule(view) == "Term2"
        mate = robot(1, RobotState.MIN_TAIL_WALKER)
        view = make_view(robot(3, RobotState.WAITING_WALKER), [mate, robot(4)], R=4)
        assert first_enabled_rule(view) == "Term2"

    def test_all_but_one_without_min(self):
        for state in RobotState:
            if state not in MIN_STATES:
                view = make_view(robot(1, state), [robot(3), robot(4)], R=4)
                assert first_enabled_rule(view) not in ("Term1", "Term2")


class TestDispatch:
    def test_fresh_righter_alone_moves_right(self):
        assert first_enabled_rule(make_view(robot(3))) == "M8"

    def test_three_righters_initiate_search(self):
        view = make_view(robot(1), [robot(2), robot(3)], R=4)
        assert first_enabled_rule(view) == "M6"

    def test_four_righters_terminate(self):
        view = make_view(robot(1), [robot(2), robot(3), robot(4)], R=4)
        assert first_enabled_rule(view) == "Term1"

    def test_left_walker_turns_back(self):
        assert first_enabled_rule(make_view(robot(2, RobotState.LEFT_WALKER))) == "T1"

    def test_walker_with_full_lap_stops(self):
        me = robot(5, RobotState.HEAD_WALKER, walk_steps=4, id_head_walker=5)
        assert first_enabled_rule(make_view(me, n=4)) == "T3"

    def test_head_walker_lost_mates(self):
        me = robot(5, RobotState.HEAD_WALKER, walker_mate=frozenset({1, 2}), id_head_walker=5)
        view = make_view(me, [robot(1, RobotState.TAIL_WALKER)], left_prev=True, has_moved=False)
        assert first_enabled_rule(view) == "T2"

    def test_head_walker_lost_mates_excused_after_missing_edge(self):
        me = robot(5, RobotState.HEAD_WALKER, walker_mate=frozenset({1, 2}), id_head_walker=5)
        view = make_view(me, [robot(1, RobotState.TAIL_WALKER)], left_prev=False)
        assert first_enabled_rule(view) == "W1"

    def test_waiting_tower_initiates_walk(self):
        me = robot(1, RobotState.MIN_WAITING_WALKER)
        mates = [robot(4, RobotState.WAITING_WALKER), robot(7, RobotState.WAITING_WALKER)]
        assert first_enabled_rule(make_view(me, mates, R=5)) == "K1"

    def test_waiting_walker_otherwise_parks(self):
        me = robot(4, RobotState.WAITING_WALKER)
        assert first_enabled_rule(make_view(me, [robot(9)], R=5)) == "K2"

    def test_searcher_meets_min(self):
        me = robot(4, RobotState.DUMB_SEARCHER, id_potential_min=2)
        view = make_view(me, [robot(1, RobotState.MIN_WAITING_WALKER)], R=5)
        assert first_enabled_rule(view) == "K3"

    def test_righter_meets_min_needs_right_edge(self):
        me = robot(4)
        mates = [robot(1, RobotState.MIN_WAITING_WALKER)]
        assert first_enabled_rule(make_view(me, mates, R=5, right_cur=True)) == "K4"
        assert first_enabled_rule(make_view(me, mates, R=5, right_cur=False)) == "M8"

    def test_righter_meets_searcher(self):
        me = robot(4)
        view = make_view(me, [robot(6, RobotState.DUMB_SEARCHER, id_potential_min=2)], R=5)
        assert first_enabled_rule(view) == "M7"

    def test_dumb_searcher_min_revelation_preempts_search(self):
        me = robot(4, RobotState.DUMB_SEARCHER, id_potential_min=2)
        assert first_enabled_rule(make_view(me, [robot(6)], R=5)) == "M9"
        me_sure = robot(4, RobotState.DUMB_SEARCHER, id_potential_min=2)
        assert first_enabled_rule(make_view(me_sure, [robot(1)], R=5)) == "M11"

    def test_head_walker_mate_needs_edge_for_m2(self):
        me = robot(2)
        mates = [robot(8, RobotState.HEAD_WALKER, id_head_walker=8)]
        assert first_enabled_rule(make_view(me, mates, R=5, right_cur=True)) == "M2"
        assert first_enabled_rule(make_view(me, mates, R=5, right_cur=False)) == "M3"

    def test_terminated_robot_never_dispatches(self):
        with pytest.raises(ProtocolViolation):
            first_enabled_rule(make_view(robot(2, terminated=True)))


class TestActions:
    def test_initiate_search_splits_roles(self):
        view5 = make_view(robot(5), [robot(2), robot(9)], R=5)
        out5 = apply_rule("M6", view5)
        assert out5.state is RobotState.DUMB_SEARCHER
        assert out5.id_potential_min == 2
        assert out5.right_steps == 0

        view2 = make_view(robot(2, right_steps=3), [robot(5), robot(9)], R=5)
        out2 = apply_rule("M6", view2)
        assert out2.state is RobotState.POTENTIAL_MIN
        assert out2.id_potential_min == 2
        assert out2.right_steps == 4  # candidate keeps walking right

        view2_blocked = make_view(
            robot(2, right_steps=3), [robot(5), robot(9)], R=5, right_cur=False
        )
        assert apply_rule("M6", view2_blocked).right_steps == 3

    def test_initiate_walk_assigns_roles(self):
        waiting = {
            1: robot(1, RobotState.MIN_WAITING_WALKER, dir=Direction.BOT),
            4: robot(4, RobotState.WAITING_WALKER, dir=Direction.BOT),
            7: robot(7, RobotState.WAITING_WALKER, dir=Direction.BOT),
            8: robot(8, RobotState.WAITING_WALKER, dir=Direction.BOT),
        }
        outs = {}
        for rid, me in waiting.items():
            mates = [v for k, v in sorted(waiting.items()) if k != rid]
            outs[rid] = apply_rule("K1", make_view(me, mates, R=6))
        assert outs[8].state is RobotState.HEAD_WALKER
        assert outs[8].walker_mate == frozenset({1, 4, 7})
        assert outs[1].state is RobotState.MIN_TAIL_WALKER
        assert outs[4].state is RobotState.TAIL_WALKER
        assert outs[7].state is RobotState.TAIL_WALKER
        assert all(v.id_head_walker == 8 for v in outs.values())

    def test_walk_head_moves_with_full_escort(self):
        me = robot(
            8,
            RobotState.HEAD_WALKER,
            id_head_walker=8,
            walker_mate=frozenset({1, 4}),
            walk_steps=2,
        )
        mates = [robot(1, RobotState.MIN_TAIL_WALKER, id_head_walker=8),
                 robot(4, RobotState.TAIL_WALKER, id_head_walker=8)]
        out = apply_rule("W1", make_view(me, mates, R=5))
        assert out.dir is Direction.RIGHT
        assert out.walk_steps == 3

    def test_walk_head_pauses_when_escort_changes(self):
        me = robot(8, RobotState.HEAD_WALKER, id_head_walker=8, walker_mate=frozenset({1, 4}))
        out = apply_rule("W1", make_view(me, [robot(1, RobotState.MIN_TAIL_WALKER)], R=5))
        assert out.dir is Direction.BOT
        assert out.walk_steps == 0

    def test_walk_tail_pauses_while_head_present(self):
        me = robot(4, RobotState.TAIL_WALKER, id_head_walker=8, walk_steps=1)
        with_head = make_view(me, [robot(8, RobotState.HEAD_WALKER, id_head_walker=8)], R=5)
        assert apply_rule("W1", with_head).dir is Direction.BOT
        without_head = make_view(me, [], R=5)
        out = apply_rule("W1", without_head)
        assert out.dir is Direction.RIGHT
        assert out.walk_steps == 2

    def test_walk_does_not_count_blocked_step(self):
        me = robot(4, RobotState.TAIL_WALKER, id_head_walker=8, walk_steps=1)
        out = apply_rule("W1", make_view(me, [], R=5, right_cur=False))
        assert out.dir is Direction.RIGHT
        assert out.walk_steps == 1

    def test_become_waiting_walker_records_min(self):
        me = robot(4, RobotState.DUMB_SEARCHER, id_potential_min=2)
        view = make_view(me, [robot(1, RobotState.MIN_WAITING_WALKER)], R=5)
        out = apply_rule("K3", view)
        assert out.state is RobotState.WAITING_WALKER
        assert (out.id_potential_min, out.id_min) == (1, 1)
        assert out.dir is Direction.BOT

    def test_become_min_waiting_walker(self):
        me = robot(1, RobotState.POTENTIAL_MIN, id_potential_min=1)
        out = apply_rule("M1", make_view(me, [robot(5)], R=5))
        assert out.state is RobotState.MIN_WAITING_WALKER
        assert (out.id_potential_min, out.id_min) == (1, 1)
        assert out.dir is Direction.BOT

    def test_aware_searcher_copies_candidate_from_dumb_witness(self):
        me = robot(9)
        witness = robot(6, RobotState.DUMB_SEARCHER, id_potential_min=2)
        out = apply_rule("M7", make_view(me, [witness], R=5))
        assert out.state is RobotState.AWARE_SEARCHER
        assert (out.id_potential_min, out.id_min) == (2, 2)

    def test_aware_searcher_copies_min_from_aware_witness(self):
        me = robot(9)
        witness = robot(6, RobotState.AWARE_SEARCHER, id_potential_min=3, id_min=3)
        out = apply_rule("M7", make_view(me, [witness], R=5))
        assert (out.id_potential_min, out.id_min) == (3, 3)

    def test_min_revelation_promotes_self_candidate(self):
        me = robot(4, RobotState.DUMB_SEARCHER, id_potential_min=2)
        out = apply_rule("M9", make_view(me, [robot(6)], R=5))
        assert out.state is RobotState.AWARE_SEARCHER
        assert (out.id_potential_min, out.id_min) == (2, 2)

    def test_search_splits_largest_left(self):
        me = robot(9, RobotState.AWARE_SEARCHER, id_min=2, id_potential_min=2)
        out = apply_rule("M11", make_view(me, [robot(6, RobotState.DUMB_SEARCHER)], R=5))
        assert out.dir is Direction.LEFT
        me_small = robot(3, RobotState.DUMB_SEARCHER, id_potential_min=2)
        out2 = apply_rule("M11", make_view(me_small, [robot(6, RobotState.DUMB_SEARCHER)], R=5))
        assert out2.dir is Direction.RIGHT

    def test_search_alone_keeps_direction(self):
        me = robot(3, RobotState.DUMB_SEARCHER, id_potential_min=2, dir=Direction.LEFT)
        assert apply_rule("M11", make_view(me, [], R=5)).dir is Direction.LEFT

    def test_tail_walker_adoption(self):
        witness = robot(
            1,
            RobotState.MIN_TAIL_WALKER,
            id_potential_min=1,
            id_min=1,
            id_head_walker=8,
            walker_mate=frozenset({1, 4}),
            walk_steps=3,
        )
        me = robot(6, RobotState.AWARE_SEARCHER, id_min=1, id_potential_min=1)
        out = apply_rule("M4", make_view(me, [witness], R=5))
        assert out.state is RobotState.TAIL_WALKER
        assert out.id_head_walker == 8
        assert out.walk_steps == 4  # walks along immediately

    def test_m3_joins_walk_but_stops(self):
        me = robot(2)
        head = robot(8, RobotState.HEAD_WALKER, id_min=1, id_potential_min=1, id_head_walker=8)
        out = apply_rule("M3", make_view(me, [head], R=5, right_cur=False))
        assert out.state is RobotState.AWARE_SEARCHER
        assert out.dir is Direction.BOT
        assert (out.id_potential_min, out.id_min) == (1, 1)

    def test_termination_freezes(self):
        view = make_view(robot(1), [robot(2), robot(3), robot(4)], R=4)
        out = apply_rule("Term1", view)
        assert out.terminated
        assert out.state is RobotState.RIGHTER


class TestWitness:
    def test_smallest_id_wins(self):
        me = robot(9)
        mates = [
            robot(6, RobotState.DUMB_SEARCHER, id_potential_min=3),
            robot(2, RobotState.DUMB_SEARCHER, id_potential_min=5),
        ]
        view = make_view(me, mates, R=5)
        witness = select_witness(view, (RobotState.DUMB_SEARCHER,))
        assert witness.id == 2
        out = apply_rule("M7", view)
        assert out.id_min == 5  # learned from robot 2, not robot 6

    def test_missing_witness_raises(self):
        with pytest.raises(ProtocolViolation):
            select_witness(make_view(robot(9)), ALL_STATES)


# ---------------------------------------------------------------------------
# Every rule: a view in which it is the first enabled one
# ---------------------------------------------------------------------------

HEAD = robot(8, RobotState.HEAD_WALKER, id_min=1, id_potential_min=1, id_head_walker=8)
MIN_WAITING = robot(1, RobotState.MIN_WAITING_WALKER, id_min=1, id_potential_min=1)
AWARE = robot(6, RobotState.AWARE_SEARCHER, id_min=1, id_potential_min=1)

# In priority order; each view enables its rule and no earlier one.
FIRST_ENABLED = {
    "Term1": make_view(robot(1), [robot(2), robot(3), robot(4)], R=4),
    "Term2": make_view(
        robot(1, RobotState.MIN_WAITING_WALKER),
        [robot(3, RobotState.WAITING_WALKER), robot(4)],
        R=4,
    ),
    "K3": make_view(robot(4, RobotState.DUMB_SEARCHER, id_potential_min=2), [MIN_WAITING], R=5),
    "K4": make_view(robot(4), [MIN_WAITING], R=5),
    "M1": make_view(robot(1, RobotState.POTENTIAL_MIN, id_potential_min=1), [robot(5)], R=5),
    "M2": make_view(robot(2), [HEAD], R=5),
    "M3": make_view(robot(2), [HEAD], R=5, right_cur=False),
    "M4": make_view(
        AWARE,
        [robot(1, RobotState.MIN_TAIL_WALKER, id_min=1, id_head_walker=8)],
        R=5,
    ),
    "M5": make_view(robot(2, RobotState.POTENTIAL_MIN, id_potential_min=2), [AWARE], R=5),
    "M6": make_view(robot(1), [robot(2), robot(3)], R=4),
    "M7": make_view(robot(4), [robot(6, RobotState.DUMB_SEARCHER, id_potential_min=2)], R=5),
    "M8": make_view(robot(3)),
    "M9": make_view(robot(4, RobotState.DUMB_SEARCHER, id_potential_min=2), [robot(6)], R=5),
    "M10": make_view(robot(4, RobotState.DUMB_SEARCHER, id_potential_min=2), [AWARE], R=5),
    "M11": make_view(robot(3, RobotState.DUMB_SEARCHER, id_potential_min=2), R=5),
    "T1": make_view(robot(2, RobotState.LEFT_WALKER)),
    "T2": make_view(
        robot(5, RobotState.HEAD_WALKER, walker_mate=frozenset({1, 2}), id_head_walker=5),
        [robot(1, RobotState.TAIL_WALKER)],
    ),
    "T3": make_view(robot(5, RobotState.HEAD_WALKER, walk_steps=4, id_head_walker=5), n=4),
    "W1": make_view(
        robot(5, RobotState.HEAD_WALKER, walker_mate=frozenset({1}), id_head_walker=5),
        [robot(1, RobotState.MIN_TAIL_WALKER, id_head_walker=5)],
        R=5,
    ),
    "K1": make_view(
        robot(1, RobotState.MIN_WAITING_WALKER),
        [robot(4, RobotState.WAITING_WALKER), robot(7, RobotState.WAITING_WALKER)],
        R=5,
    ),
    "K2": make_view(robot(4, RobotState.WAITING_WALKER), [robot(9)], R=5),
}


def test_first_enabled_covers_every_rule_in_priority_order():
    assert tuple(FIRST_ENABLED) == RULE_ORDER


@pytest.mark.parametrize("rule", RULE_ORDER)
def test_rule_is_first_enabled(rule):
    view = FIRST_ENABLED[rule]
    assert first_enabled_rule(view) == rule
    assert compute(view) == (apply_rule(rule, view), rule)


class TestUnpinnedActions:
    def test_term2_freezes(self):
        out = apply_rule("Term2", FIRST_ENABLED["Term2"])
        assert out.terminated
        assert out.state is RobotState.MIN_WAITING_WALKER

    def test_t1_turns_left(self):
        out = apply_rule("T1", FIRST_ENABLED["T1"])
        assert (out.state, out.dir) == (RobotState.LEFT_WALKER, Direction.LEFT)

    def test_t2_becomes_parked_left_walker(self):
        out = apply_rule("T2", FIRST_ENABLED["T2"])
        assert (out.state, out.dir) == (RobotState.LEFT_WALKER, Direction.BOT)
        assert out.walker_mate == frozenset({1, 2})

    def test_t3_stops_after_full_walk(self):
        out = apply_rule("T3", FIRST_ENABLED["T3"])
        assert (out.state, out.dir, out.walk_steps) == (RobotState.HEAD_WALKER, Direction.BOT, 4)

    def test_k2_parks(self):
        out = apply_rule("K2", FIRST_ENABLED["K2"])
        assert (out.state, out.dir) == (RobotState.WAITING_WALKER, Direction.BOT)

    def test_k4_learns_min_from_min_waiting(self):
        out = apply_rule("K4", FIRST_ENABLED["K4"])
        assert (out.state, out.dir) == (RobotState.AWARE_SEARCHER, Direction.RIGHT)
        assert (out.id_potential_min, out.id_min) == (1, 1)

    def test_m2_learns_min_from_head_walker_and_keeps_going(self):
        out = apply_rule("M2", FIRST_ENABLED["M2"])
        assert (out.state, out.dir) == (RobotState.AWARE_SEARCHER, Direction.RIGHT)
        assert (out.id_potential_min, out.id_min) == (1, 1)

    def test_m5_learns_from_smallest_aware_searcher_then_searches(self):
        me = robot(2, RobotState.POTENTIAL_MIN, id_potential_min=2)
        other = robot(9, RobotState.AWARE_SEARCHER, id_min=5, id_potential_min=5)
        out = apply_rule("M5", make_view(me, [other, AWARE], R=5))
        assert out.state is RobotState.AWARE_SEARCHER
        assert (out.id_potential_min, out.id_min) == (1, 1)
        assert out.dir is Direction.RIGHT  # not the largest id here

    def test_m8_moves_right_counting_present_edges(self):
        out = apply_rule("M8", make_view(robot(3, right_steps=2, dir=Direction.BOT)))
        assert (out.state, out.dir, out.right_steps) == (RobotState.RIGHTER, Direction.RIGHT, 3)
        heading_right = make_view(robot(3, right_steps=2))
        assert apply_rule("M8", heading_right).right_steps == 3
        assert heading_right.self_vars.right_steps == 2
        blocked = apply_rule("M8", make_view(robot(3, right_steps=2), right_cur=False))
        assert blocked.right_steps == 2
        parked_view = make_view(robot(3, right_steps=2, dir=Direction.BOT), right_cur=False)
        parked = apply_rule("M8", parked_view)
        assert (parked.dir, parked.right_steps) == (Direction.RIGHT, 2)

    def test_m10_dumb_searcher_learns_min_and_searches(self):
        out = apply_rule("M10", FIRST_ENABLED["M10"])
        assert out.state is RobotState.AWARE_SEARCHER
        assert (out.id_potential_min, out.id_min) == (1, 1)
        assert out.dir is Direction.RIGHT
        me = robot(7, RobotState.DUMB_SEARCHER, id_potential_min=2)
        assert apply_rule("M10", make_view(me, [AWARE], R=5)).dir is Direction.LEFT

    def test_unknown_rule_raises(self):
        with pytest.raises(ValueError, match="unknown rule"):
            apply_rule("M12", FIRST_ENABLED["M8"])


# ---------------------------------------------------------------------------
# Totality: every reachable-looking view dispatches exactly one rule
# ---------------------------------------------------------------------------

states = st.sampled_from(list(RobotState))
dirs = st.sampled_from(list(Direction))


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
        left_cur=draw(st.booleans()),
        right_prev=draw(st.booleans()),
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
    st.sampled_from([RobotState.RIGHTER, RobotState.POTENTIAL_MIN]),
    st.booleans(),
)
def test_m8_builds_the_replaced_vars(drawn, state, right_cur):
    # M8 builds its vars over a present edge from a tuple in field order, so
    # compare with _replace, which names each field, and check the type:
    # a plain tuple of the same fields compares equal to a RobotVars.
    me = drawn._replace(state=state)
    fields = tuple(me)
    out = apply_rule("M8", make_view(me, right_cur=right_cur))
    if right_cur:
        assert out == me._replace(dir=Direction.RIGHT, right_steps=me.right_steps + 1)
    else:
        assert out == me._replace(dir=Direction.RIGHT)
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
            robot(3).state = RobotState.LEFT_WALKER

    def test_view_fields_cannot_be_set(self):
        with pytest.raises(AttributeError):
            make_view(robot(3)).has_moved = True

    def test_replace_returns_robot_vars(self):
        out = robot(3)._replace(dir=Direction.LEFT)
        assert type(out) is RobotVars
        assert (out.id, out.dir) == (3, Direction.LEFT)

    def test_equal_vars_from_different_actions_are_equal_and_hash_equal(self):
        # K3 turns a searcher into this waiting walker; K2 parks one that was
        # already waiting but still headed right.
        via_k3 = apply_rule("K3", FIRST_ENABLED["K3"])
        waiting = robot(4, RobotState.WAITING_WALKER, id_potential_min=1, id_min=1)
        via_k2 = apply_rule("K2", make_view(waiting, [MIN_WAITING], R=5))
        assert via_k3 is not via_k2
        assert via_k3 == via_k2
        assert hash(via_k3) == hash(via_k2)
        assert len({via_k3, via_k2}) == 1

    def test_keyword_construction_with_defaults(self):
        me = RobotVars(id=3)
        assert (me.state, me.dir, me.right_steps, me.walk_steps) == (
            RobotState.RIGHTER, Direction.RIGHT, 0, 0
        )
        assert (me.id_potential_min, me.id_min, me.id_head_walker) == (-1, -1, -1)
        assert (me.walker_mate, me.terminated) == (frozenset(), False)
        assert RobotVars(3, RobotState.POTENTIAL_MIN, Direction.LEFT) == RobotVars(
            id=3, state=RobotState.POTENTIAL_MIN, dir=Direction.LEFT
        )
        view = make_view(me, R=6, n=9)
        assert (view.self_vars, view.mates, view.n, view.R) == (me, (), 9, 6)


# ---------------------------------------------------------------------------
# Actions that change nothing return their input
# ---------------------------------------------------------------------------


class TestUnchangedVars:
    def test_blocked_m8_returns_its_input(self):
        view = make_view(robot(3, right_steps=2), right_cur=False)
        assert apply_rule("M8", view) is view.self_vars

    def test_k2_at_bot_returns_its_input(self):
        view = make_view(robot(4, RobotState.WAITING_WALKER, dir=Direction.BOT), [robot(9)], R=5)
        assert apply_rule("K2", view) is view.self_vars

    def test_lone_m11_returns_its_input(self):
        view = FIRST_ENABLED["M11"]
        assert apply_rule("M11", view) is view.self_vars

    def test_m11_keeping_its_direction_returns_its_input(self):
        me = robot(3, RobotState.DUMB_SEARCHER, id_potential_min=2)
        view = make_view(me, [robot(6, RobotState.DUMB_SEARCHER)], R=5)
        assert apply_rule("M11", view) is me


# ---------------------------------------------------------------------------
# Dispatch against a reference walk of the rule table
# ---------------------------------------------------------------------------


# The paper's rule order, which RULES reorders.
PAPER_ORDER = (
    "Term1", "Term2", "T1", "T2", "T3", "W1", "K1", "K2", "K3", "K4",
    "M1", "M2", "M3", "M4", "M5", "M6", "M7", "M8", "M9", "M10", "M11",
)
BY_NAME = {rule.name: rule for rule in RULES}


@pytest.mark.parametrize("state", RobotState, ids=lambda state: state.value)
def test_rule_order_keeps_each_states_paper_order(state):
    # A rule whose states leave out the robot's is never enabled, so two
    # orders fire the same rule on every view iff they agree on the rules
    # of each state.
    def rules_of(order):
        return [name for name in order if state in BY_NAME[name].states]

    assert rules_of(RULE_ORDER) == rules_of(PAPER_ORDER)


def reference_first_enabled_rule(view):
    """The first rule of the paper's order whose state, witness and condition
    all hold, with Term1 and Term2 decided by the paper's two gathering
    predicates (all R robots here; all but one here, one of them in a min
    state), M1 by reference_min_discovery, and the tower sizes of M6 (all
    robots but one here) and K1 (all but two) spelled out rather than read
    from the rules."""
    here = (view.self_vars,) + view.mates
    gathered = {
        "Term1": len(here) == view.R,
        "Term2": len(here) == view.R - 1 and any(r.state in MIN_STATES for r in here),
    }
    tower = {"M6": view.R - 2, "K1": view.R - 3}
    for rule in (BY_NAME[name] for name in PAPER_ORDER):
        if view.self_vars.state not in rule.states:
            continue
        if rule.witness and not any(m.state in rule.witness for m in view.mates):
            continue
        if rule.name in gathered:
            enabled = gathered[rule.name]
        elif rule.name == "M1":
            enabled = reference_min_discovery(view)
        elif rule.name in tower:
            enabled = len(view.mates) == tower[rule.name] and rule.condition(view)
        else:
            enabled = rule.condition is None or rule.condition(view)
        if enabled:
            return rule.name
    return None


def reference_min_discovery(view):
    """min_discovery as three separate scans of the mates."""
    me = view.self_vars
    return (
        (me.state is RobotState.POTENTIAL_MIN
         and any(m.state is RobotState.RIGHTER and me.id < m.id for m in view.mates))
        or any(m.id_min == me.id for m in view.mates)
        or any(
            m.state in (RobotState.DUMB_SEARCHER, RobotState.POTENTIAL_MIN)
            and me.id < m.id_potential_min
            for m in view.mates
        )
        or me.right_steps == 4 * me.id * view.n
    )


@settings(max_examples=500)
@given(views())
def test_min_discovery_matches_reference(view):
    assert min_discovery(view) == reference_min_discovery(view)


@settings(max_examples=500)
@given(views())
def test_dispatch_matches_reference_walk(view):
    assert first_enabled_rule(view) == reference_first_enabled_rule(view)


# ---------------------------------------------------------------------------
# Dispatch tests one guard per rule, up to and including the one that fires
# ---------------------------------------------------------------------------


def _guarded_dispatch(monkeypatch, view):
    """first_enabled_rule(view) and the names of the rules it guarded, in order."""
    calls = []
    guard = gdg_protocol._guard

    def counting(rule, *args):
        calls.append(rule.name)
        return guard(rule, *args)

    monkeypatch.setattr(gdg_protocol, "_guard", counting)
    return first_enabled_rule(view), calls


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
    "righters": st.just(RobotState.RIGHTER),
    "waiting": st.sampled_from(WAITING_STATES),
    "min": st.sampled_from(MIN_STATES + (RobotState.RIGHTER, RobotState.WAITING_WALKER)),
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
        left_cur=draw(st.booleans()),
        right_prev=draw(st.booleans()),
        left_prev=draw(st.booleans()),
        has_moved=draw(st.booleans()),
    )


@settings(max_examples=500)
@given(tower_views())
def test_dense_towers_dispatch_as_the_reference_walk(view):
    assert 1 <= view.R - len(view.mates) <= 4
    with pytest.MonkeyPatch.context() as monkeypatch:
        fired, calls = _guarded_dispatch(monkeypatch, view)
    assert fired == reference_first_enabled_rule(view)
    assert tuple(calls) == RULE_ORDER[: RULE_ORDER.index(fired) + 1]


# ---------------------------------------------------------------------------
# The table's derived fields: state bits, witness bits and tower gaps
# ---------------------------------------------------------------------------


def test_state_bits_are_distinct_powers_of_two():
    bits = [state.bit for state in RobotState]
    assert all(bit > 0 and bit & (bit - 1) == 0 for bit in bits)
    assert len(set(bits)) == len(bits)


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.name)
def test_seen_is_the_or_of_the_witness_bits(rule):
    expected = 0
    for state in rule.witness:
        expected |= state.bit
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
    assert first_enabled_rule(smaller) != rule
    assert first_enabled_rule(smaller) == reference_first_enabled_rule(smaller)
