"""The package against the spec: one differential property over drawn runs.

Each draw (spec.runs) is a ring of a dynamics class from adversary.generate,
or a ring of no class from the rings() strategy, with 4-6 robots and a
horizon of 1-400 rounds. For each, the optimised run, trace_to_jsonl,
check_variant and monitor_invariants must give what the spec's naive
pipeline gives. The compute_fn is drawn as well: the protocol's, or the
protocol's with its directions mirrored or its searchers regressed to
righters, so that the monitors have violations to agree on.
"""

from hypothesis import given, settings, strategies as st

import spec
from gdg_sim import gdg_protocol
from gdg_sim.checkers import BoundParams, bound_for, check_variant, monitor_invariants
from gdg_sim.gdg_protocol import BOT, LEFT, RIGHT, RIGHTER, SEARCHERS
from gdg_sim.sim_engine import run, trace_to_jsonl

MIRROR = {RIGHT: LEFT, LEFT: RIGHT, BOT: BOT}


def mirrored(compute_fn):
    """compute_fn with every direction it chooses mirrored: righters head
    left, which breaks the monitors' invariants, so the monitors have
    violations to agree on."""
    def compute(view):
        me, rule = compute_fn(view)
        return me._replace(dir=MIRROR[me.dir]), rule

    return compute


def regressed(compute_fn):
    """compute_fn with every robot whose view shows it as a searcher turned
    back into a righter, still a pure function of the view. A searcher has
    left both the righter group and the righter/potentialMin group, so one
    such round re-enters two groups at once: two no-reentry violations in
    one record, which a monitor counting one per record would miss."""
    def compute(view):
        me, rule = compute_fn(view)
        if view.self_vars.state in SEARCHERS:
            me = me._replace(state=RIGHTER)
        return me, rule

    return compute


@settings(max_examples=120, deadline=None)
@given(spec.runs(), st.sampled_from((None, mirrored, regressed)))
def test_the_package_computes_what_the_spec_computes(drawn, perturb):
    dyn, ring, placement, horizon = drawn
    fast, naive = gdg_protocol.compute, spec.compute
    if perturb is not None:
        fast, naive = perturb(fast), perturb(naive)
    tag = dyn.tag if dyn else None
    trace, stop = run(ring, placement, horizon, fast, class_claim=tag, seed=horizon)
    expected, last = spec.run(ring, placement, horizon, naive, class_claim=tag, seed=horizon)
    assert trace.events == expected.events
    spec.check_stop(stop, expected, last)
    assert trace_to_jsonl(trace) == spec.jsonl(expected)
    bounds = {None}
    if dyn is not None:
        bounds.add(bound_for(BoundParams(dyn, ring.n, len(placement), min(placement))))
    for bound in bounds:
        assert check_variant(trace, horizon, bound) == spec.verdict(expected, bound)
    assert monitor_invariants(trace) == spec.monitor(expected)
