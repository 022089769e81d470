import dataclasses
import math
import struct
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ontoflux import simulate
from ontoflux.errors import InvalidConfigError, NonPositiveRateError
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

from reference_simulation import ReferenceSimulation


def config(**overrides) -> SimConfig:
    base = dict(
        regime=Regime.EXOGENOUS,
        base_stock=4,
        demand_rate=1.0,
        lead=GammaParams(mu=2.0, r=1.0),
        horizon=300.0,
        warmup=30.0,
        review_period=1.0,
        seed=11,
    )
    base.update(overrides)
    return SimConfig(**base)


def test_parameter_validation():
    with pytest.raises(InvalidConfigError):
        GammaParams(mu=0.0, r=1.0)
    with pytest.raises(InvalidConfigError):
        GammaParams(mu=1.0, r=-2.0)
    with pytest.raises(InvalidConfigError):
        Costs(holding=-1.0)
    with pytest.raises(InvalidConfigError):
        config(base_stock=0)
    with pytest.raises(InvalidConfigError):
        config(warmup=300.0)
    with pytest.raises(InvalidConfigError):
        config(review_period=0.0)
    with pytest.raises(NonPositiveRateError):
        sample_poisson_interarrival(0.0, np.random.default_rng(0))


@pytest.mark.parametrize("seed", [-3, -1, 1.5, 2.0])
def test_negative_or_non_integer_seed_is_rejected(seed):
    with pytest.raises(InvalidConfigError, match="seed must be a nonnegative integer"):
        config(seed=seed)


def test_gamma_params_expose_moments():
    params = GammaParams(mu=2.0, r=4.0)
    assert params.mean == 2.0
    assert params.variance == 1.0


def test_sampler_moments_track_the_distribution():
    rng = np.random.default_rng(42)
    draws = sample_gamma(GammaParams(mu=1.0, r=2.0), rng, size=200_000)
    assert abs(draws.mean() - 2.0) < 0.02 * 2.0
    assert abs(draws.var() - 2.0) < 0.05 * 2.0
    gaps = sample_poisson_interarrival(2.0, rng, size=200_000)
    assert abs(gaps.mean() - 0.5) < 0.01 * 0.5


def test_poisson_counts_have_unit_dispersion():
    rng = np.random.default_rng(7)
    gaps = sample_poisson_interarrival(1.0, rng, size=200_000)
    arrivals = np.cumsum(gaps)
    counts = np.bincount(arrivals.astype(int), minlength=int(arrivals[-1]) + 1)[:-1]
    ratio = counts.var() / counts.mean()
    assert 0.97 < ratio < 1.03


def test_sampling_is_reproducible_per_seed():
    a = sample_gamma(GammaParams(mu=2.0, r=1.5), np.random.default_rng(5), size=10)
    b = sample_gamma(GammaParams(mu=2.0, r=1.5), np.random.default_rng(5), size=10)
    assert np.array_equal(a, b)


def test_adjustment_branch_examples():
    assert adjust_exogenous(8.0, 6.0, 3.0) == (9.0, 3.0)
    assert adjust_exogenous(8.0, 6.0, 1.0) == (8.0, 2.0)
    assert adjust_exogenous(9.0, 6.0, 3.0) == (9.0, 3.0)


@settings(max_examples=500, deadline=None)
@given(
    st.floats(0.0, 100.0, allow_nan=False),
    st.floats(0.0, 100.0, allow_nan=False),
    st.floats(0.0, 50.0, allow_nan=False),
)
def test_adjustment_postconditions(prev, t, drawn):
    effective, adjusted = adjust_exogenous(prev, t, drawn)
    assert effective == max(prev, t + drawn)
    assert adjusted >= drawn
    if t + drawn < prev:
        # branch 2 lands exactly on the previous delivery, stretching the lead
        assert (effective, adjusted) == (prev, prev - t)
    else:
        assert (effective, adjusted) == (t + drawn, drawn)


def test_erlang_b_recursion_values():
    assert erlang_b(0, 3.7) == 1.0
    assert erlang_b(1, 1.0) == 0.5
    assert erlang_b(2, 1.0) == pytest.approx(0.2, abs=1e-15)
    assert erlang_b(4, 2.0) == pytest.approx(2.0 / 21.0, abs=1e-15)
    losses = [erlang_b(s, 2.0) for s in range(8)]
    assert all(a > b for a, b in zip(losses, losses[1:]))
    with pytest.raises(InvalidConfigError):
        erlang_b(-1, 1.0)


@pytest.mark.parametrize("servers, load", [(3, math.nan), (3, math.inf), (3, -1.0), (2.5, 1.0), (math.nan, 1.0)])
def test_erlang_b_rejects_servers_or_a_load_out_of_range(servers, load):
    # a NaN load fails every comparison, and range() takes no fractional or NaN count
    with pytest.raises(InvalidConfigError):
        erlang_b(servers, load)


def test_no_demand_run_is_all_fill():
    stats = run_simulation(config(demand_rate=0.0))
    assert stats.fill_rate == 1.0
    assert stats.avg_on_hand == pytest.approx(4.0)
    assert stats.lost_count == 0 and stats.served_count == 0
    assert stats.long_run_avg_cost == pytest.approx(4.0)  # holding cost only


def test_identical_seeds_reproduce_and_seeds_matter():
    for regime in Regime:
        first = run_simulation(config(regime=regime))
        second = run_simulation(config(regime=regime))
        assert first == second
    assert run_simulation(config(seed=1)) != run_simulation(config(seed=2))


@pytest.mark.parametrize("regime", [Regime.EXOGENOUS, Regime.ENDOGENOUS])
def test_deliveries_never_cross(regime):
    sim = Simulation(config(regime=regime))
    sim.run()
    assert sim.noncrossing_violations == 0
    deliveries = [o.effective_delivery for o in sorted(sim.completed, key=lambda o: o.seq)]
    assert all(a <= b for a, b in zip(deliveries, deliveries[1:]))


def test_independent_leads_do_cross():
    sim = Simulation(config(regime=Regime.EXOGENOUS_IID, lead=GammaParams(mu=0.25, r=0.5)))
    sim.run()
    deliveries = [o.effective_delivery for o in sorted(sim.completed, key=lambda o: o.seq)]
    assert any(a > b for a, b in zip(deliveries, deliveries[1:]))
    assert sim.noncrossing_violations == 0


def test_queueing_only_lengthens_service():
    sim = Simulation(config(regime=Regime.ENDOGENOUS))
    stats = sim.run()
    for order in sim.completed:
        assert order.effective_delivery - order.placed_at >= order.drawn_lead - 1e-12
    assert stats.service_time_mean >= GammaParams(mu=2.0, r=1.0).mean - 1e-12


def test_dormant_orders_draw_at_review_epochs():
    sim = Simulation(config(regime=Regime.EXOGENOUS, review_period=1.0))
    sim.run()
    for order in sim.completed:
        assert order.drawn_at >= order.placed_at
        assert order.drawn_at == pytest.approx(math.ceil(order.placed_at), abs=1e-9)


def test_inventory_position_is_conserved():
    stats = run_simulation(config(measure_position=True))
    assert stats.avg_on_hand == pytest.approx(4.0, abs=1e-9)
    sim = Simulation(config())
    sim.run()
    assert sim.on_hand + sim.on_order == 4


def test_window_statistics_use_post_warmup_orders_only():
    sim = Simulation(config(warmup=100.0))
    stats = sim.run()
    window_orders = [o for o in sim.completed if o.placed_at >= 100.0]
    mean = sum(o.effective_delivery - o.placed_at for o in window_orders) / len(window_orders)
    assert stats.service_time_mean == pytest.approx(mean)
    assert 0.0 <= stats.fill_rate <= 1.0


@pytest.mark.parametrize(
    "field, value",
    [
        ("base_stock", math.nan),
        ("base_stock", math.inf),
        ("demand_rate", math.nan),
        ("demand_rate", math.inf),
        ("horizon", math.nan),
        ("horizon", math.inf),
        ("warmup", math.nan),
        ("review_period", math.nan),
        ("review_period", math.inf),
    ],
)
def test_non_finite_config_values_are_rejected(field, value):
    with pytest.raises(InvalidConfigError, match=f"{field} must be finite"):
        config(**{field: value})


@pytest.mark.parametrize(
    "make",
    [
        lambda v: GammaParams(mu=v, r=1.0),
        lambda v: GammaParams(mu=1.0, r=v),
        lambda v: Costs(holding=v),
        lambda v: Costs(lost_penalty=v),
        lambda v: Costs(processing=v),
    ],
)
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_parameters_are_rejected(make, value):
    with pytest.raises(InvalidConfigError):
        make(value)


def test_demand_stream_does_not_depend_on_the_lead_stream():
    def placements(regime: Regime, lead: GammaParams) -> list[float]:
        sim = Simulation(config(regime=regime, base_stock=1000, lead=lead))
        sim.run()
        assert sim.lost == 0
        return [o.placed_at for o in sim.orders]

    exo = placements(Regime.EXOGENOUS, GammaParams(mu=2.0, r=1.0))
    assert len(exo) > 200
    for regime in Regime:
        for lead in (GammaParams(mu=2.0, r=1.0), GammaParams(mu=0.1, r=5.0)):
            assert placements(regime, lead) == exo


def _bits(record) -> tuple:
    """A dataclass's fields with each float as its IEEE-754 bytes (NaN equals NaN)."""
    return tuple(
        struct.pack("<d", v) if isinstance(v, float) else v for v in dataclasses.astuple(record)
    )


def _on_grid(sample, step: float):
    """``sample`` with every draw rounded up to a multiple of ``step``."""
    return lambda params, rng, size=None: np.ceil(sample(params, rng, size) / step) * step


@st.composite
def sim_configs(draw) -> SimConfig:
    horizon = draw(st.floats(5.0, 400.0))
    return SimConfig(
        regime=draw(st.sampled_from(Regime)),
        base_stock=draw(st.integers(1, 6)),
        demand_rate=draw(st.just(0.0) | st.floats(0.2, 6.0)),
        lead=GammaParams(mu=draw(st.floats(0.3, 4.0)), r=draw(st.floats(0.3, 3.0))),
        horizon=horizon,
        warmup=draw(st.just(0.0) | st.floats(0.0, 0.9)) * horizon,
        review_period=draw(st.sampled_from([1.0, 0.5, 2.0, 0.7])),
        seed=draw(st.integers(0, 2**32 - 1)),
        measure_position=draw(st.booleans()),
    )


LONG_RUN = config(base_stock=6, demand_rate=4.0, lead=GammaParams(mu=1.0, r=1.5), horizon=700.0)


@settings(max_examples=150, deadline=None)
@given(sim_configs(), st.booleans())
@example(LONG_RUN, False)
@example(dataclasses.replace(LONG_RUN, regime=Regime.ENDOGENOUS), True)
@example(dataclasses.replace(LONG_RUN, regime=Regime.EXOGENOUS_IID, base_stock=1), True)
@example(dataclasses.replace(LONG_RUN, base_stock=1, warmup=0.0), True)
@example(dataclasses.replace(LONG_RUN, regime=Regime.ENDOGENOUS, base_stock=1, measure_position=True), False)
@example(dataclasses.replace(LONG_RUN, regime=Regime.ENDOGENOUS, base_stock=1, measure_position=True), True)
def test_event_merge_equals_the_reference_heap_loop(cfg, on_grid):
    # on the grid, leads are whole numbers and demand gaps multiples of
    # 0.5, so reviews, deliveries and demands coincide and ties decide
    with ExitStack() as stack:
        if on_grid:
            for name, step in (("sample_gamma", 1.0), ("sample_poisson_interarrival", 0.5)):
                stack.enter_context(mock.patch.object(simulate, name, _on_grid(getattr(simulate, name), step)))
        sim, ref = Simulation(cfg), ReferenceSimulation(cfg)
        assert _bits(sim.run()) == _bits(ref.run())
    assert [_bits(o) for o in sim.orders] == [_bits(o) for o in ref.orders]
    assert [_bits(o) for o in sim.completed] == [_bits(o) for o in ref.completed]
    for name in ("noncrossing_violations", "served", "lost", "on_hand", "on_order"):
        assert getattr(sim, name) == getattr(ref, name), name


@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("base_stock", [1, 2, 6])
def test_measure_position_changes_only_avg_on_hand(regime, base_stock):
    cfg = config(regime=regime, base_stock=base_stock, demand_rate=4.0, lead=GammaParams(mu=1.0, r=1.5))
    on_hand = _bits(run_simulation(cfg))
    position = _bits(run_simulation(dataclasses.replace(cfg, measure_position=True)))
    fields = [f.name for f in dataclasses.fields(simulate.SimStats)]
    differ = [name for name, a, b in zip(fields, on_hand, position) if a != b and name != "avg_on_hand"]
    assert differ == []


def test_a_second_run_of_one_simulation_is_rejected():
    sim = Simulation(SimConfig(Regime.ENDOGENOUS, 3, 2.0, GammaParams(1.0, 1.5), 50.0, 5.0, seed=3))
    first = sim.run()
    state = (sim.served, sim.lost, sim.on_hand, list(sim.placed_at), list(sim.delivered))
    # the first run must not be repeated on used streams and columns
    with pytest.raises(InvalidConfigError, match=r"already called.*new Simulation"):
        sim.run()
    assert (sim.served, sim.lost, sim.on_hand, sim.placed_at, sim.delivered) == state
    assert Simulation(sim.config).run() == first


def test_run_builds_no_order_record():
    built = {"UpdateOrder": 0, "_Order": 0}

    def counting(name, method):
        def count(self, *args, **kwargs):
            built[name] += 1
            return method(self, *args, **kwargs)
        return count

    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(
            simulate.UpdateOrder, "__post_init__", counting("UpdateOrder", simulate.UpdateOrder.__post_init__)
        ))
        stack.enter_context(mock.patch.object(
            simulate._Order, "__init__", counting("_Order", simulate._Order.__init__)
        ))
        for regime in Regime:
            sim = Simulation(config(regime=regime))
            sim.run()
            assert built == {"UpdateOrder": 0, "_Order": 0}, regime
        # the records are built when read
        assert len(sim.orders) == built["_Order"] > 0
        assert len(sim.completed) == built["UpdateOrder"] > 0


def test_delivery_before_placement_is_rejected():
    negative = lambda params, rng, size=None: np.full(size, -1.0)
    with mock.patch.object(simulate, "sample_gamma", negative):
        with pytest.raises(
            InvalidConfigError,
            match=r"^order 0: delivery 2\.365309689476561 precedes placement 3\.365309689476561$",
        ):
            Simulation(config(regime=Regime.EXOGENOUS_IID)).run()


@pytest.mark.parametrize("regime", list(Regime))
def test_order_history_reads_the_same_twice(regime):
    sim = Simulation(config(regime=regime))
    sim.run()
    assert sim.orders and sim.completed
    assert [_bits(o) for o in sim.orders] == [_bits(o) for o in sim.orders]
    assert sim.completed == sim.completed
