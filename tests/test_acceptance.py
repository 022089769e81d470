"""Acceptance gate: one test per shipped guarantee.

Each test pins the tolerances and runtime budgets the package promises;
the conftest hook prints one PASS/FAIL line per criterion.
"""

import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from ontoflux import monitor
from ontoflux.io import (
    parse_events,
    parse_fragments,
    parse_mappings,
    parse_ontology,
    parse_query,
    serialize_ontology,
)
from ontoflux.kb import EntityName, entailed_members
from ontoflux.merging import merge, query
from ontoflux.mfrag import validate_mtheory
from ontoflux.simulate import (
    Costs,
    GammaParams,
    Regime,
    SimConfig,
    Simulation,
    adjust_exogenous,
    erlang_b,
    run_simulation,
    sample_gamma,
    sample_poisson_interarrival,
)
from ontoflux.temporal import (
    ActionPattern,
    ActionRecord,
    Interval,
    Polarity,
    PropState,
    TemporalProposition,
    step_proposition,
)

from helpers import random_kb, world_scores


def sim_config(**overrides) -> SimConfig:
    base = dict(
        regime=Regime.EXOGENOUS,
        base_stock=4,
        demand_rate=1.0,
        lead=GammaParams(mu=2.0, r=1.0),
        horizon=12_000.0,
        warmup=0.0,
        review_period=1.0,
        seed=0,
        costs=Costs(),
        measure_position=False,
    )
    base.update(overrides)
    return SimConfig(**base)


def test_c01_travel_merge_query(fixture_text) -> None:
    started = time.perf_counter()
    local = parse_ontology(fixture_text("travel_local.onto"))
    external = parse_ontology(fixture_text("travel_external.onto"))
    mappings = parse_mappings(fixture_text("travel.map"))
    merged = merge(local, external, mappings)

    sea = parse_query("O1:Event(x) ∧ O1:keyword(x, Sea)")
    answers = query(merged, sea)
    assert [(a.binding, a.probability) for a in answers] == [
        ((("x", EntityName("i", "Trip")),), 1.0)
    ]
    assert answers[0].probability == 1.0  # local dominance is exact

    place = parse_query("O1:Event(x) ∧ O1:keyword(x, Place)")
    mapped = query(merged, place, mapped_only=True)
    assert len(mapped) == 1
    assert mapped[0].probability == pytest.approx(0.81, abs=1e-12)

    # every answer agrees with brute-force possible-worlds enumeration
    for conjuncts, mapped_only, got in (
        (sea, False, answers),
        (place, True, mapped),
        (place, False, query(merged, place)),
    ):
        oracle = world_scores(local, external, mappings, conjuncts, mapped_only=mapped_only)
        assert set(oracle) == {a.binding for a in got}
        for answer in got:
            assert answer.probability == pytest.approx(oracle[answer.binding], abs=1e-12)

    assert time.perf_counter() - started < 1.0


def test_c02_noncrossing_invariant() -> None:
    started = time.perf_counter()
    for regime in (Regime.EXOGENOUS, Regime.ENDOGENOUS):
        orders = 0
        for seed in range(10):
            sim = Simulation(sim_config(regime=regime, seed=seed))
            sim.run()
            assert sim.noncrossing_violations == 0
            scheduled = [
                o.effective_delivery
                for o in sim.orders
                if not math.isnan(o.effective_delivery)
            ]
            assert all(b >= a for a, b in zip(scheduled, scheduled[1:]))
            orders += len(sim.orders)
        assert orders >= 100_000
    assert time.perf_counter() - started < 30.0


def test_c03_erlang_b_oracle() -> None:
    started = time.perf_counter()
    assert erlang_b(1, 1.0) == 0.5
    assert erlang_b(2, 1.0) == pytest.approx(0.2, abs=1e-15)
    assert erlang_b(4, 2.0) == pytest.approx(2.0 / 21.0, rel=1e-12)

    for base_stock, rate in ((1, 1.0), (2, 1.0), (4, 2.0)):
        stats = run_simulation(
            sim_config(
                regime=Regime.EXOGENOUS_IID,
                base_stock=base_stock,
                demand_rate=rate,
                lead=GammaParams(mu=1.0, r=1.0),
                horizon=100_000.0,
                warmup=1_000.0,
                seed=11,
            )
        )
        loss = 1.0 - stats.fill_rate
        assert loss == pytest.approx(erlang_b(base_stock, rate), abs=0.01)
    assert time.perf_counter() - started < 60.0


def test_c04_sampler_moments() -> None:
    started = time.perf_counter()
    rng = np.random.default_rng(2)
    gamma = sample_gamma(GammaParams(mu=1.0, r=2.0), rng, size=1_000_000)
    assert gamma.mean() == pytest.approx(2.0, rel=0.01)
    assert gamma.var(ddof=1) == pytest.approx(2.0, rel=0.03)

    gaps = sample_poisson_interarrival(2.0, rng, size=1_000_000)
    assert gaps.mean() == pytest.approx(0.5, rel=0.002)
    assert time.perf_counter() - started < 10.0


def test_c05_delivery_adjustment() -> None:
    assert adjust_exogenous(8.0, 6.0, 3.0) == (9.0, 3.0)
    assert adjust_exogenous(8.0, 6.0, 1.0) == (8.0, 2.0)
    assert adjust_exogenous(9.0, 6.0, 3.0) == (9.0, 3.0)

    rng = np.random.default_rng(5)
    prevs = rng.uniform(0.0, 50.0, 1_000_000).tolist()
    times = rng.uniform(0.0, 50.0, 1_000_000).tolist()
    draws = rng.gamma(1.0, 2.0, 1_000_000).tolist()
    branch_counts = [0, 0]
    for prev, t, drawn in zip(prevs, times, draws):
        effective, adjusted = adjust_exogenous(prev, t, drawn)
        assert effective == max(prev, t + drawn)
        assert adjusted >= 0.0
        if t + drawn >= prev:
            branch_counts[0] += 1
            assert (effective, adjusted) == (t + drawn, drawn)
        else:
            branch_counts[1] += 1
            # the dormant order is stretched to land exactly with its
            # predecessor, never before it
            assert (effective, adjusted) == (prev, prev - t)
    assert min(branch_counts) > 100_000


MERGE_KIND = EntityName("up", "MergeAction")

quarter_times = st.integers(min_value=0, max_value=48).map(lambda n: n / 4.0)


def action_log(times: list[float]) -> list[ActionRecord]:
    return [
        ActionRecord(at, f"a{i}", MERGE_KIND, EntityName("i", "Bot"), ())
        for i, at in enumerate(sorted(times))
    ]


@st.composite
def temporal_cases(draw):
    times = draw(st.lists(quarter_times, max_size=6))
    start = draw(quarter_times)
    end = start + draw(st.integers(min_value=0, max_value=20)) / 4.0
    checkpoints = sorted(draw(st.lists(quarter_times, min_size=1, max_size=8)))
    return action_log(times), Interval(start, end), checkpoints


@settings(max_examples=300, deadline=None)
@given(temporal_cases())
def check_temporal_properties(case) -> None:
    log, window, checkpoints = case

    for polarity in (Polarity.POSITIVE, Polarity.NEGATIVE):
        prop = TemporalProposition("p", polarity, ActionPattern(MERGE_KIND), window)

        # monotonicity: at most one transition, and it is terminal
        states = []
        stepped = prop
        for now in checkpoints:
            stepped = step_proposition(stepped, log, now)
            states.append(stepped.state)
        for before, after in zip(states, states[1:]):
            if before is not PropState.PENDING:
                assert after is before

        # evaluation-order independence: one shot equals incremental
        final = checkpoints[-1]
        assert step_proposition(prop, log, final).state is stepped.state

    # polarity duality once the window has closed
    after_end = window.end + 0.25
    pos = step_proposition(
        TemporalProposition("p", Polarity.POSITIVE, ActionPattern(MERGE_KIND), window),
        log,
        after_end,
    )
    neg = step_proposition(
        TemporalProposition("n", Polarity.NEGATIVE, ActionPattern(MERGE_KIND), window),
        log,
        after_end,
    )
    assert pos.state is not PropState.PENDING and neg.state is not PropState.PENDING
    assert (pos.state is PropState.FULFILLED) == (neg.state is PropState.VIOLATED)


def test_c06_temporal_state_machine() -> None:
    window = Interval(2.0, 5.0)
    obligation = TemporalProposition("ob", Polarity.POSITIVE, ActionPattern(MERGE_KIND), window)
    prohibition = TemporalProposition("pr", Polarity.NEGATIVE, ActionPattern(MERGE_KIND), window)

    assert step_proposition(obligation, action_log([3.0]), now=3.0).state is PropState.FULFILLED
    assert step_proposition(obligation, action_log([1.0, 5.5]), now=5.001).state is PropState.VIOLATED
    assert step_proposition(prohibition, action_log([4.0]), now=4.0).state is PropState.VIOLATED
    assert step_proposition(prohibition, [], now=5.001).state is PropState.FULFILLED

    check_temporal_properties()


def test_c07_monitor_determinism_and_freshness(fixture_text) -> None:
    kb = parse_ontology(fixture_text("monitor_base.onto"))
    events = parse_events(fixture_text("monitor_script.evt"))
    closed = (EntityName("up", "Event"), EntityName("up", "Agent"))

    _, first = monitor.run(monitor.init(kb, closed), 50, events=events)
    _, second = monitor.run(monitor.init(kb, closed), 50, events=events)
    assert "\n".join(first).encode() == "\n".join(second).encode()

    state = monitor.init(kb, closed)
    for event in events:
        if isinstance(event, ActionRecord):
            state = monitor.record_action(state, event)
        else:
            state = monitor.enqueue_event(state, event)
    for _ in range(50):
        state = monitor.tick(state)
        for concept in closed:
            record = state.kb.closures[concept]
            assert record.closed_at == state.clock
            assert record.members == frozenset(entailed_members(state.kb, concept))
    assert state.pending_events == () and state.pending_actions == ()


FRAGMENT_EXPECTATIONS = {
    "frags_valid.mth": [],
    "frags_cycle.mth": ["CycleDetected(weather.a1,e1)"],
    "frags_overlap.mth": ["DisjointnessViolated(weather.z1): in two node sets"],
    "frags_missing_dist.mth": ["MissingDistribution(weather.n1)"],
    "frags_missing_instance.mth": ["MissingActionInstance(weather.a1)"],
    "frags_bad_row_sum.mth": ["BadRowSum(weather.n1): row () sums to 0.999"],
    "frags_uncovered_combo.mth": ["MissingParentCombination(weather.n1): wait"],
    "frags_duplicate_home.mth": ["DuplicateHome(n1): resident in morning and evening"],
}


def test_c08_fragment_fixture_suite(fixture_text) -> None:
    for name, expected in FRAGMENT_EXPECTATIONS.items():
        theory = parse_fragments(fixture_text(name))
        assert [str(e) for e in validate_mtheory(theory)] == expected, name


def test_c09_exogenous_beats_endogenous_fill() -> None:
    # long leads (E[U] = r/mu = 4 = 4/demand_rate) and a high base stock;
    # the endogenous single server saturates while adjusted exogenous
    # leads stay near their draw
    def fill_rate(regime: Regime, seed: int) -> float:
        config = sim_config(
            regime=regime,
            base_stock=8,
            lead=GammaParams(mu=0.5, r=2.0),
            horizon=2_500.0,
            warmup=250.0,
            seed=seed,
        )
        return run_simulation(config).fill_rate

    seeds = range(30)
    exo = np.array([fill_rate(Regime.EXOGENOUS, s) for s in seeds])
    endo = np.array([fill_rate(Regime.ENDOGENOUS, s) for s in seeds])
    assert exo.mean() >= endo.mean()
    result = sstats.ttest_rel(exo, endo, alternative="greater")
    assert result.pvalue < 0.05


def test_c10_round_trip_1000_kbs() -> None:
    started = time.perf_counter()
    for seed in range(1000):
        kb = random_kb(random.Random(seed))
        assert parse_ontology(serialize_ontology(kb)) == kb
    assert time.perf_counter() - started < 10.0
