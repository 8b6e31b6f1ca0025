import pytest

from gdg_sim.adversary import (
    GeneratorSpec,
    adaptive_ac_adversary,
    generate,
)
from gdg_sim import adversary, sim_engine
from gdg_sim.gdg_protocol import BOT, LEFT, RIGHT
from gdg_sim.sim_engine import Stop
from gdg_sim.ring_model import (
    AC,
    BRE,
    COT,
    RE,
    ST,
    DynClass,
    EvolvingRing,
    Schedule,
    footprint,
    verify_class,
)

from spec import DUEL_CYCLES, DUELS, never_move


class TestGenerators:
    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize(
        "dyn",
        [DynClass(ST), DynClass(AC), DynClass(RE), DynClass(COT), DynClass(BRE, 2)],
        ids=lambda d: d.tag,
    )
    def test_output_is_in_class(self, dyn, seed):
        ring = generate(GeneratorSpec(dyn, n=6, seed=seed))
        assert verify_class(ring, dyn)

    @pytest.mark.parametrize("seed", range(10))
    def test_cot_rings_are_strictly_degraded(self, seed):
        ring = generate(GeneratorSpec(DynClass(COT), n=6, seed=seed))
        assert not verify_class(ring, DynClass(RE))

    @pytest.mark.parametrize("delta", [1, 2, 3, 5])
    def test_bre_respects_delta(self, delta):
        ring = generate(GeneratorSpec(DynClass(BRE, delta), n=6, seed=11))
        assert verify_class(ring, DynClass(BRE, delta))

    def test_seeded_reproducibility(self):
        spec = GeneratorSpec(DynClass(RE), n=8, seed=42)
        assert generate(spec) == generate(spec)

    @pytest.mark.parametrize("n", [0, 3, -2])
    @pytest.mark.parametrize(
        "dyn",
        [DynClass(ST), DynClass(AC), DynClass(RE), DynClass(COT), DynClass(BRE, 2)],
        ids=lambda d: d.tag,
    )
    def test_rejects_small_ring(self, dyn, n):
        with pytest.raises(ValueError, match="ring size must be >= 4"):
            generate(GeneratorSpec(dyn, n=n, seed=0))


class TestAdaptiveAdversary:
    PLACEMENT = {1: 0, 2: 1, 3: 2, 4: 3}

    def test_defeats_parked_robots_never(self):
        res = adaptive_ac_adversary(4, 4, self.PLACEMENT, 3, 4, 50, compute_fn=never_move)
        assert res.defeated_at is None

    def test_gdg_targets_never_meet(self):
        res = adaptive_ac_adversary(4, 4, self.PLACEMENT, 3, 4, 500)
        assert res.defeated_at is None
        for ev in res.trace.events:
            assert ev.robots[3].position != ev.robots[4].position

    def test_defeat_is_the_first_round_the_targets_share_a_node(self, monkeypatch):
        # A source that withholds no edge lets GDG gather the targets.
        monkeypatch.setattr(
            adversary._Adversary, "next_snapshot", lambda self, config: (1,) * self.n
        )
        res = adaptive_ac_adversary(4, 4, self.PLACEMENT, 3, 4, 500)
        met = [ev.round for ev in res.trace.events if ev.robots[3].position == ev.robots[4].position]
        assert met and res.defeated_at == met[0] > 0

    def test_schedule_is_always_connected(self):
        res = adaptive_ac_adversary(6, 4, {2: 0, 5: 1, 9: 3, 11: 5}, 9, 11, 300)
        span = len(res.ring.schedule.prefix) + len(res.ring.schedule.cycle)
        for t in range(span):
            absent = sum(
                1 for e in range(6) if not res.ring.snapshot(t)[e]
            )
            assert absent <= 1
        assert verify_class(res.ring, DynClass(AC))

    def test_a_ring_missing_an_edge_throughout_is_not_ac(self):
        # The parked targets sit on nodes 2 and 3, so every round withholds
        # edge 2: every snapshot is connected, yet edge 2 never shows.
        res = adaptive_ac_adversary(4, 4, self.PLACEMENT, 3, 4, 50, compute_fn=never_move)
        assert res.stop.reason == "cycle"
        assert footprint(res.ring) == {0, 1, 3}
        assert not verify_class(res.ring, DynClass(AC))

    def test_emitted_schedule_matches_trace(self):
        res = adaptive_ac_adversary(4, 4, self.PLACEMENT, 3, 4, 100)
        for ev in res.trace.events:
            for e in range(4):
                assert res.ring.snapshot(ev.round)[e] == bool(ev.snapshot[e])

    def test_rejects_colocated_targets(self):
        with pytest.raises(ValueError):
            adaptive_ac_adversary(4, 4, {1: 0, 2: 0, 3: 1, 4: 2}, 1, 2, 10)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            adaptive_ac_adversary(4, 4, self.PLACEMENT, 3, 4, 0)

    def test_rejects_small_ring(self):
        def must_not_compute(view):
            raise AssertionError("the ring size is checked before any round runs")

        with pytest.raises(ValueError):
            adaptive_ac_adversary(
                3, 4, {1: 0, 2: 1, 3: 2, 4: 0}, 1, 2, 10, compute_fn=must_not_compute
            )

    def test_rejects_unknown_target(self):
        with pytest.raises(ValueError, match="target 9 "):
            adaptive_ac_adversary(4, 4, {1: 0, 2: 1, 3: 2, 4: 3}, 3, 9, 10)

    def test_rejects_fewer_than_four_robots(self):
        with pytest.raises(ValueError, match="at least 4 robots"):
            adaptive_ac_adversary(4, 3, {1: 0, 2: 1, 3: 2}, 1, 2, 10)

    @pytest.mark.parametrize("R", [3, 5])
    def test_rejects_robot_count_other_than_placement(self, R):
        with pytest.raises(ValueError, match="placement has 4 robots"):
            adaptive_ac_adversary(4, R, self.PLACEMENT, 3, 4, 20)

    @pytest.mark.parametrize("n, placement, r1, r2", DUELS)
    def test_trace_equals_replay_of_schedule(self, n, placement, r1, r2):
        res = adaptive_ac_adversary(n, len(placement), placement, r1, r2, 2000)
        replay, stop = sim_engine.run(res.ring, placement, 2000)
        assert replay.events == res.trace.events
        assert stop == res.stop

    @pytest.mark.parametrize("n, placement, r1, r2", DUELS)
    def test_closed_schedule_keeps_a_settled_duel_apart(self, n, placement, r1, r2):
        res = adaptive_ac_adversary(n, len(placement), placement, r1, r2, 2000)
        cycle = DUEL_CYCLES[[duel[0] for duel in DUELS].index(n)]
        assert res.stop == cycle
        # The ring closes with the proven cycle, not with the last snapshot.
        snapshots = [ev.snapshot for ev in res.trace.events]
        end = cycle.start + cycle.period
        assert res.ring.schedule.prefix == tuple(snapshots[: cycle.start])
        assert res.ring.schedule.cycle == tuple(snapshots[cycle.start : end])
        assert verify_class(res.ring, DynClass(AC))
        replay, stop = sim_engine.run(res.ring, placement, 6000)
        assert replay.events[:2000] == res.trace.events
        assert stop == cycle
        assert all(ev.robots[r1].position != ev.robots[r2].position for ev in replay.events)

    def test_a_horizon_too_short_for_the_proof_closes_no_ring(self):
        for horizon in (1, 22):
            res = adaptive_ac_adversary(4, 4, self.PLACEMENT, 3, 4, horizon)
            assert res.stop == Stop("horizon")
            assert res.ring is None
        proven = adaptive_ac_adversary(4, 4, self.PLACEMENT, 3, 4, 23)
        assert proven.stop == DUEL_CYCLES[0]
        snapshots = tuple(ev.snapshot for ev in proven.trace.events)
        assert proven.ring.schedule == Schedule(snapshots[:21], snapshots[21:22])

    @pytest.mark.parametrize(
        "placement, dirs, meeting",
        [
            ({1: 0, 2: 2, 3: 4, 4: 4}, (RIGHT, LEFT), 1),
            ({1: 0, 2: 4, 3: 2, 4: 2}, (LEFT, RIGHT), 5),  # they meet across node 0
        ],
        ids=["inside", "wrapping"],
    )
    def test_targets_two_apart_lose_the_edge_they_would_meet_across(
        self, placement, dirs, meeting
    ):
        # Target 1 walks dirs[0], target 2 dirs[1], toward each other; the
        # others park. On the all-present fork they would meet on `meeting`.
        def toward_each_other(view):
            me = view.self_vars
            return me._replace(dir={1: dirs[0], 2: dirs[1]}.get(me.id, BOT)), "walk"

        n = 6
        res = adaptive_ac_adversary(n, 4, placement, 1, 2, 5, compute_fn=toward_each_other)
        withheld = adversary._edge_between(placement[1], meeting, n)
        assert res.trace.events[0].snapshot == tuple(int(e != withheld) for e in range(n))
        after = res.trace.events[0].robots
        assert after[1].position != after[2].position
        assert res.defeated_at is None

    def test_steps_get_the_previous_emitted_snapshot(self, monkeypatch):
        # Only headWalker reads the previous snapshot, and the duels never
        # reach it, so the replay above cannot see a wrong handoff.
        calls = []
        step = sim_engine.step

        def spy(config, snap, compute_fn):
            calls.append((config.round, config.last_snap))
            return step(config, snap, compute_fn)

        monkeypatch.setattr(sim_engine, "step", spy)
        n, placement, r1, r2 = DUELS[1]
        res = adaptive_ac_adversary(n, len(placement), placement, r1, r2, 500)
        emitted = [ev.snapshot for ev in res.trace.events]
        # Rounds up to the proof are stepped, the rest copied.
        stepped = res.stop.start + res.stop.period
        assert [t for t, _ in calls if t >= stepped] == []
        assert len(calls) > stepped  # the forks are checked too
        assert all(prev == (emitted[t - 1] if t else (0,) * n) for t, prev in calls)
        assert any(not all(prev) for t, prev in calls if t)  # edges were withheld

    @pytest.mark.parametrize("horizon", [100, 1000])
    def test_builds_one_ring_at_any_horizon(self, monkeypatch, horizon):
        builds = []
        init = EvolvingRing.__post_init__

        def counted(ring):
            builds.append(ring)
            init(ring)

        monkeypatch.setattr(EvolvingRing, "__post_init__", counted)
        n, placement, r1, r2 = DUELS[1]
        res = adaptive_ac_adversary(n, len(placement), placement, r1, r2, horizon)
        assert len(res.trace.events) == horizon
        assert len(builds) == 1 and builds[0] is res.ring
