"""Discrete-event simulation of sequential merge-update regimes.

The system is a continuous-review, lost-sales, base-stock model: unit
demands arrive by a Poisson process, each served demand immediately
places a replenishment order restoring the inventory position to S,
and demands that find nothing on hand are lost.  Three regimes differ
only in how an order's delivery time comes about:

* Exogenous: lead times are drawn from a Gamma distribution once per
  review period (orders placed in between wait for the next review),
  then pushed through the non-crossing adjustment so deliveries never
  overtake each other.
* Endogenous: orders queue for a single FIFO server with Gamma service
  times; congestion makes lead times depend on the order flow itself.
* ExogenousIID: leads are drawn at placement and used as-is, crossing
  allowed.  This regime exists for oracle tests: with independent
  leads the loss fraction is the Erlang-B probability of an M/G/S/S
  system.

One run draws from two generators spawned from
``np.random.SeedSequence(seed)``: one for demand interarrival gaps, one
for lead (service) times.  Each stream is consumed in blocks, in order,
so statistics are a pure function of the configuration, and the demand
process does not depend on the lead distribution or the regime.  A
block of gaps becomes a block of demand times by a running sum from
the last arrival, which adds in the same order as stepping from one
arrival to the next.  The run goes demand by demand: before each one
it settles the reviews and deliveries due at or before it (a review
first, then deliveries in ``seq`` order, then the demand), and a
demand that finds nothing on hand starts a lost stretch, which lasts
until the next review or delivery and is counted with one bisect.
"""

from __future__ import annotations

import bisect
import heapq
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import InvalidConfigError, NegativeAdjustmentError, NonPositiveRateError


@dataclass(frozen=True)
class GammaParams:
    """Shape r, rate mu (scale 1/mu): mean r/mu, variance r/mu^2."""

    mu: float
    r: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.r)) or self.mu <= 0 or self.r <= 0:
            raise InvalidConfigError(f"gamma parameters must be positive: mu={self.mu}, r={self.r}")

    @property
    def mean(self) -> float:
        return self.r / self.mu

    @property
    def variance(self) -> float:
        return self.r / self.mu**2


class Regime(Enum):
    EXOGENOUS = "exo"
    ENDOGENOUS = "endo"
    EXOGENOUS_IID = "exo-iid"


@dataclass(frozen=True)
class Costs:
    holding: float = 1.0  # per item per time unit
    lost_penalty: float = 10.0  # per lost update
    processing: float = 1.0  # per completed merge

    def __post_init__(self):
        values = (self.holding, self.lost_penalty, self.processing)
        if not all(math.isfinite(v) and v >= 0 for v in values):
            raise InvalidConfigError(f"costs must be finite and nonnegative, got {values}")


@dataclass(frozen=True)
class SimConfig:
    regime: Regime
    base_stock: int
    demand_rate: float
    lead: GammaParams
    horizon: float
    warmup: float = 0.0
    review_period: float = 1.0
    seed: int = 0
    costs: Costs = Costs()
    measure_position: bool = False  # avg_on_hand reports position instead of on-hand

    def __post_init__(self):
        for name in ("base_stock", "demand_rate", "horizon", "warmup", "review_period"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.base_stock < 1 or self.base_stock != int(self.base_stock):
            raise InvalidConfigError(f"base_stock must be an integer >= 1, got {self.base_stock}")
        if self.demand_rate < 0:
            raise InvalidConfigError("demand_rate must be nonnegative")
        if self.review_period <= 0:
            raise InvalidConfigError("review_period must be positive")
        if self.horizon <= 0:
            raise InvalidConfigError("horizon must be positive")
        if self.warmup < 0 or self.warmup >= self.horizon:
            raise InvalidConfigError("warmup must satisfy 0 <= warmup < horizon")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise InvalidConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")


@dataclass(frozen=True)
class UpdateOrder:
    seq: int
    placed_at: float
    drawn_lead: float
    effective_delivery: float
    drawn_at: float

    def __post_init__(self):
        if self.effective_delivery < self.placed_at:
            raise InvalidConfigError(
                f"order {self.seq}: delivery {self.effective_delivery} precedes placement {self.placed_at}"
            )


@dataclass(frozen=True)
class SimStats:
    fill_rate: float
    avg_on_hand: float
    long_run_avg_cost: float
    service_time_mean: float
    service_time_var: float
    lost_count: int
    served_count: int


def sample_gamma(params: GammaParams, rng: np.random.Generator, size: Optional[int] = None):
    """Gamma(shape r, scale 1/mu) draw(s) from a seeded generator."""
    return rng.gamma(shape=params.r, scale=1.0 / params.mu, size=size)


def sample_poisson_interarrival(rate: float, rng: np.random.Generator, size: Optional[int] = None):
    """Exponential interarrival(s) of a Poisson process with the given rate."""
    if rate <= 0:
        raise NonPositiveRateError(f"rate must be positive, got {rate}")
    return rng.exponential(1.0 / rate, size=size)


def adjust_exogenous(prev_delivery: float, t_n: float, drawn: float) -> tuple[float, float]:
    """Non-crossing adjustment of one drawn lead time.

    If the drawn delivery t_n + drawn would not overtake the previous
    order's delivery it is used as-is; otherwise the lead is stretched
    so this delivery lands exactly on the previous one.
    """
    if t_n + drawn >= prev_delivery:
        return t_n + drawn, drawn
    adjusted = prev_delivery - t_n
    if adjusted < 0:
        raise NegativeAdjustmentError(
            f"adjusted lead {adjusted} negative (prev={prev_delivery}, t_n={t_n})"
        )
    return prev_delivery, adjusted


def erlang_b(servers: int, offered_load: float) -> float:
    """Loss probability of an M/G/s/s system via the stable recursion."""
    if not isinstance(servers, numbers.Integral) or servers < 0 or not 0 <= offered_load < math.inf:
        raise InvalidConfigError(f"need integer servers >= 0 and a finite load >= 0, got {servers} and {offered_load}")
    b = 1.0
    for k in range(1, servers + 1):
        b = offered_load * b / (k + offered_load * b)
    return b


# Draws per refill of a stream.  Numpy's block draws equal the same
# number of scalar draws in sequence, so the block size changes no result.
_BLOCK = 1024


@dataclass
class _Order:
    seq: int
    placed_at: float
    drawn_at: float = math.nan
    drawn_lead: float = math.nan
    effective_delivery: float = math.nan


class Simulation:
    """One seeded run; exposes the order history for invariant checks.

    The history is kept as columns indexed by order ``seq``:
    ``placed_at``, ``drawn_at``, ``drawn_lead`` and ``effective_delivery``
    (NaN until an exogenous order's review draws its lead), plus
    ``delivered``, the ``seq`` of each delivery in delivery order.  The
    ``orders`` and ``completed`` records are built from these when read.
    """

    def __init__(self, config: SimConfig):
        self.config = config
        demand_seed, lead_seed = np.random.SeedSequence(config.seed).spawn(2)
        self.demand_rng = np.random.default_rng(demand_seed)
        self.lead_rng = np.random.default_rng(lead_seed)
        self.on_hand = config.base_stock
        self.on_order = 0
        self.placed_at: list[float] = []
        self.drawn_at: list[float] = []
        self.drawn_lead: list[float] = []
        self.effective_delivery: list[float] = []
        self.delivered: list[int] = []
        self.noncrossing_violations = 0
        self.lost = 0
        self.served = 0
        self._ran = False

    @property
    def orders(self) -> list[_Order]:
        """Every placed order, in ``seq`` order."""
        return list(map(_Order, range(len(self.placed_at)), self.placed_at, self.drawn_at,
                        self.drawn_lead, self.effective_delivery))

    @property
    def completed(self) -> list[UpdateOrder]:
        """Every delivered order, in delivery order."""
        return [
            UpdateOrder(seq, self.placed_at[seq], self.drawn_lead[seq], self.effective_delivery[seq],
                        self.drawn_at[seq])
            for seq in self.delivered
        ]

    def run(self) -> SimStats:
        """Serve the demands in time order up to the horizon; a second call raises.

        Demand times come a block at a time, as running sums of the
        block's gaps from the last arrival; in the block that passes the
        horizon, the first later entry is replaced by the horizon, where
        the run stops.  Before each demand the run drains the reviews
        (exo only) and the heap of ``(effective_delivery, seq)`` due at
        or before it: at equal times a review decides leads first, then
        deliveries land in scheduling (``seq``) order, then the demand
        is served.  A demand that finds nothing on hand is lost, and so
        is every later one before the next review or delivery, so the
        whole stretch is counted with one bisect on the block."""
        if self._ran:
            raise InvalidConfigError(
                "Simulation.run() was already called: a run consumes the seeded streams and "
                "extends the order columns, so each run needs a new Simulation"
            )
        self._ran = True
        cfg = self.config
        horizon, warmup, measure = cfg.horizon, cfg.warmup, cfg.measure_position
        exo = cfg.regime is Regime.EXOGENOUS
        iid = cfg.regime is Regime.EXOGENOUS_IID
        placed_at, drawn_at, drawn_lead = self.placed_at, self.drawn_at, self.drawn_lead
        effective_delivery, delivered = self.effective_delivery, self.delivered
        on_hand, on_order, served, lost = self.on_hand, self.on_order, self.served, self.lost
        violations, completions_in_window, lost_in_window = self.noncrossing_violations, 0, 0
        area_on_hand = area_position = 0.0
        window_leads: list[float] = []
        heap: list[tuple[float, int]] = []
        dormant: list[int] = []
        leads: list[float] = []
        # i == n draws the first block, from the arrival at 0; stop is set in the block past the horizon
        block, i, n, k, stop = [0.0], 1, 1, 0, -1
        last = last_delivery = server_free_at = 0.0
        t_review = cfg.review_period if exo else math.inf
        t_delivery = math.inf
        while True:
            if i == n:
                if cfg.demand_rate > 0:
                    gaps = sample_poisson_interarrival(cfg.demand_rate, self.demand_rng, _BLOCK)
                    block = np.cumsum(np.concatenate(((block[-1],), gaps)))[1:].tolist()
                else:
                    block = [math.inf]
                i, n = 0, len(block)
                if block[-1] > horizon:
                    stop = bisect.bisect_right(block, horizon)
                    block[stop] = horizon
            t = block[i]
            now = t_review if t_review <= t_delivery else t_delivery
            while now <= t:
                lo = last if last > warmup else warmup
                if now > lo:
                    area_on_hand += on_hand * (now - lo)
                    if measure:
                        area_position += (on_hand + on_order) * (now - lo)
                last = now
                if now == t_review:
                    for seq in dormant:
                        if k == len(leads):
                            leads, k = sample_gamma(cfg.lead, self.lead_rng, _BLOCK).tolist(), 0
                        drawn = leads[k]
                        k += 1
                        effective, _ = adjust_exogenous(last_delivery, now, drawn)
                        if effective < last_delivery:
                            violations += 1
                        else:
                            last_delivery = effective
                        drawn_at[seq], drawn_lead[seq], effective_delivery[seq] = now, drawn, effective
                        heapq.heappush(heap, (effective, seq))
                        if effective < t_delivery:
                            t_delivery = effective
                    dormant.clear()
                    t_review = now + cfg.review_period
                else:
                    seq = heapq.heappop(heap)[1]
                    placed = placed_at[seq]
                    if now < placed:
                        raise InvalidConfigError(f"order {seq}: delivery {now} precedes placement {placed}")
                    on_hand += 1
                    on_order -= 1
                    delivered.append(seq)
                    if now >= warmup:
                        completions_in_window += 1
                        if placed >= warmup:
                            window_leads.append(now - placed)
                    t_delivery = heap[0][0] if heap else math.inf
                now = t_review if t_review <= t_delivery else t_delivery
            lo = last if last > warmup else warmup
            if t > lo:
                area_on_hand += on_hand * (t - lo)
                if measure:
                    area_position += (on_hand + on_order) * (t - lo)
            last = t
            if i == stop:
                break
            if on_hand > 0:
                on_hand -= 1
                on_order += 1
                served += 1
                seq = len(placed_at)
                placed_at.append(t)
                if exo:
                    drawn_at.append(math.nan)
                    drawn_lead.append(math.nan)
                    effective_delivery.append(math.nan)
                    dormant.append(seq)
                else:
                    if k == len(leads):
                        leads, k = sample_gamma(cfg.lead, self.lead_rng, _BLOCK).tolist(), 0
                    drawn = leads[k]
                    k += 1
                    if iid:
                        effective = t + drawn
                    else:
                        effective = (t if t >= server_free_at else server_free_at) + drawn
                        server_free_at = effective
                        if effective < last_delivery:
                            violations += 1
                        else:
                            last_delivery = effective
                    drawn_at.append(t)
                    drawn_lead.append(drawn)
                    effective_delivery.append(effective)
                    heapq.heappush(heap, (effective, seq))
                    if effective < t_delivery:
                        t_delivery = effective
                i += 1
            else:
                # lost until the next review or delivery: on-hand area stays 0
                j = bisect.bisect_left(block, now if now < horizon else horizon, i + 1)
                lost += j - i
                lost_in_window += j - (i if t >= warmup else bisect.bisect_left(block, warmup, i, j))
                if measure:
                    for u in block[i + 1:j]:
                        lo = last if last > warmup else warmup
                        if u > lo:
                            area_position += on_order * (u - lo)
                        last = u
                last = block[j - 1]
                i = j
        self.on_hand, self.on_order, self.served, self.lost = on_hand, on_order, served, lost
        self.noncrossing_violations = violations
        area = area_position if measure else area_on_hand
        return self._stats(area, area_on_hand, completions_in_window, lost_in_window, window_leads)

    def _stats(self, area: float, area_on_hand: float, completions: int, lost: int,
               leads: list[float]) -> SimStats:
        """Post-warmup statistics from the run's areas, in-window counts and in-window leads."""
        cfg = self.config
        elapsed = cfg.horizon - cfg.warmup
        # placements happen in time order, so the in-window ones are a suffix
        served = len(self.placed_at) - bisect.bisect_left(self.placed_at, cfg.warmup)
        total = served + lost
        fill_rate = served / total if total else 1.0
        cost = (
            cfg.costs.holding * area_on_hand
            + cfg.costs.lost_penalty * lost
            + cfg.costs.processing * completions
        ) / elapsed
        window = np.array(leads)
        mean = float(window.mean()) if window.size else 0.0
        var = float(window.var(ddof=1)) if window.size > 1 else 0.0
        return SimStats(
            fill_rate=fill_rate,
            avg_on_hand=area / elapsed,
            long_run_avg_cost=cost,
            service_time_mean=mean,
            service_time_var=var,
            lost_count=lost,
            served_count=served,
        )


def run_simulation(config: SimConfig) -> SimStats:
    """Simulate one run and return its post-warmup statistics."""
    return Simulation(config).run()
