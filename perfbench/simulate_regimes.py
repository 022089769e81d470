"""Workload ``simulate_regimes``: one base-stock simulation per op.

One unit is one ``simulate.Simulation(config).run()``.  Ops cycle
through the exo, endo and exo-iid regimes and, for each regime, through
five fixed horizons averaging 500 time units (about 2000 demands).  The
regimes cost different amounts per demand; spreading the horizons keeps
the op latencies from forming three narrow peaks, between which the
median would jump when the machine's speed drifts.  Each op's simulation
seed is derived from the workload seed.  The workload never touches
``kb``, ``merging`` or ``monitor``, so it is the control for every
reasoning-side change.
"""

from __future__ import annotations

import math
import random

from ontoflux import io as textio
from ontoflux import simulate

REGIMES = ("exo", "endo", "exo-iid")
BASE_STOCK = 6
DEMAND_RATE = 4.0
HORIZONS = (300.0, 400.0, 500.0, 600.0, 700.0)


def prepare(seed: int, index: int, workdir) -> simulate.SimConfig:
    """The config of op ``index``, written as a config document and parsed back."""
    sim_seed = random.Random(f"simulate_regimes/{seed}/{index}").randrange(2**31)
    text = "\n".join([
        f"regime = {REGIMES[index % len(REGIMES)]}",
        f"base_stock = {BASE_STOCK}",
        f"demand_rate = {DEMAND_RATE}",
        "lead_mu = 1.0",
        "lead_r = 1.5",
        "review_period = 1.0",
        f"horizon = {HORIZONS[index // len(REGIMES) % len(HORIZONS)]}",
        "warmup = 50.0",
        f"seed = {sim_seed}",
    ]) + "\n"
    return textio.parse_sim_config(text)


def run(config: simulate.SimConfig, timer) -> tuple[list[bool], str]:
    """One timed run, then the untimed consistency check; the stats are the output."""
    sim = simulate.Simulation(config)
    stats = timer(sim.run)
    return [stats is not None and check(sim, stats)], repr(stats)


def check(sim: simulate.Simulation, stats: simulate.SimStats) -> bool:
    if sim.config.regime is not simulate.Regime.EXOGENOUS_IID and sim.noncrossing_violations:
        return False
    return (0.0 <= stats.fill_rate <= 1.0
            and stats.served_count >= 0 and stats.lost_count >= 0
            and stats.served_count + stats.lost_count <= sim.served + sim.lost
            and 0.0 <= stats.avg_on_hand <= sim.config.base_stock
            and stats.service_time_mean >= 0.0 and stats.service_time_var >= 0.0
            and math.isfinite(stats.long_run_avg_cost))
