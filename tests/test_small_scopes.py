"""ROADMAP item 8's stage 0, which needs no solver: the rotation symmetry
that a solver's "robot 1 on node 0" reduction rests on, and every placement
of one ST scope.
"""

import dataclasses
import itertools

from hypothesis import given, settings, strategies as st

import spec
from gdg_sim.checkers import experiment
from gdg_sim.ring_model import ST, DynClass, EvolvingRing, Schedule, static_ring
from gdg_sim.sim_engine import Stop, run


# ---------------------------------------------------------------------------
# Rotation symmetry: robots never read a node's index
# ---------------------------------------------------------------------------


def rotated(snaps, k):
    """Each snapshot with edge i moved to edge i + k."""
    return tuple(snap[-k:] + snap[:-k] for snap in snaps)


@settings(max_examples=150, deadline=None)
@given(spec.runs(), st.data())
def test_rotating_placement_and_snapshots_rotates_the_positions(drawn, data):
    _, ring, placement, horizon = drawn
    n, schedule = ring.n, ring.schedule
    k = data.draw(st.integers(1, n - 1))
    turned = EvolvingRing(n, Schedule(rotated(schedule.prefix, k), rotated(schedule.cycle, k)))
    shifted = {rid: (node + k) % n for rid, node in placement.items()}
    trace, stop = run(ring, placement, horizon)
    twin, twin_stop = run(turned, shifted, horizon)
    assert twin_stop == stop
    assert len(twin.events) == len(trace.events)
    for ev, turned_ev in zip(trace.events, twin.events):
        assert turned_ev.robots == {
            rid: dataclasses.replace(rec, position=(rec.position + k) % n)
            for rid, rec in ev.robots.items()
        }


# ---------------------------------------------------------------------------
# Every ST placement of one scope
# ---------------------------------------------------------------------------

# The latest termination round over the sweep below, against ST's bound of 96.
ST_4_RING_WORST = 24


def test_every_st_placement_on_the_4_ring_gathers_within_its_bound():
    # Robots 1..4 on the static 4-ring with robot 1 on node 0, which by the
    # rotation property stands for every placement: 64 runs.
    exps = [
        experiment(static_ring(4), {1: 0, 2: a, 3: b, 4: c}, DynClass(ST))
        for a, b, c in itertools.product(range(4), repeat=3)
    ]
    assert len(exps) == 64
    assert all(exp.ok and exp.stop == Stop("all_terminated") for exp in exps)
    assert {exp.bound for exp in exps} == {96}
    assert max(exp.verdict.termination_round for exp in exps) == ST_4_RING_WORST
