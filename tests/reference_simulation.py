"""The simulator as a reference: ``ReferenceSimulation`` is a heap of
event tuples with one handler per event kind, drawing one scalar at a
time from the same two spawned streams as
``ontoflux.simulate.Simulation``; the library's block-drawing merge of
event sources must reproduce it bit for bit.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

import numpy as np

from ontoflux import simulate
from ontoflux.simulate import Regime, SimConfig, SimStats, UpdateOrder, adjust_exogenous


class _EventKind(IntEnum):
    # heap tiebreak at equal times: reviews decide leads before anything
    # else moves; deliveries land before a coincident demand is served
    REVIEW = 0
    DELIVERY = 1
    DEMAND = 2


@dataclass
class ReferenceOrder:
    seq: int
    placed_at: float
    drawn_at: float = math.nan
    drawn_lead: float = math.nan
    effective_delivery: float = math.nan


class ReferenceSimulation:
    """One run as a heap of ``(time, kind, tie, order)`` events.

    Draws go one scalar at a time through ``simulate.sample_*``, looked
    up at call time, so a test that patches them patches both simulators.
    """

    def __init__(self, config: SimConfig):
        self.config = config
        demand_seed, lead_seed = np.random.SeedSequence(config.seed).spawn(2)
        self.demand_rng = np.random.default_rng(demand_seed)
        self.lead_rng = np.random.default_rng(lead_seed)
        self.on_hand = config.base_stock
        self.on_order = 0
        self.orders: list[ReferenceOrder] = []
        self.completed: list[UpdateOrder] = []
        self.noncrossing_violations = 0
        self.lost = 0
        self.served = 0
        self._completions_in_window = 0
        self._lost_in_window = 0
        self._heap: list[tuple[float, int, int, Optional[int]]] = []
        self._tie = itertools.count()
        self._last_time = 0.0
        self._area_on_hand = 0.0
        self._area_position = 0.0
        self._dormant: list[int] = []
        self._last_delivery = 0.0
        self._server_free_at = 0.0

    def _push(self, time: float, kind: _EventKind, order_idx: Optional[int] = None) -> None:
        heapq.heappush(self._heap, (time, int(kind), next(self._tie), order_idx))

    def _draw_lead(self) -> float:
        return float(simulate.sample_gamma(self.config.lead, self.lead_rng))

    def _draw_gap(self) -> float:
        return float(simulate.sample_poisson_interarrival(self.config.demand_rate, self.demand_rng))

    def _accrue(self, now: float) -> None:
        lo = max(self._last_time, self.config.warmup)
        hi = min(now, self.config.horizon)
        if hi > lo:
            self._area_on_hand += self.on_hand * (hi - lo)
            self._area_position += (self.on_hand + self.on_order) * (hi - lo)
        self._last_time = now

    def _schedule_delivery(self, order: ReferenceOrder, drawn_at: float, drawn: float) -> None:
        regime = self.config.regime
        if regime is Regime.EXOGENOUS_IID:
            effective = drawn_at + drawn
        elif regime is Regime.EXOGENOUS:
            effective, _ = adjust_exogenous(self._last_delivery, drawn_at, drawn)
        else:
            start = max(order.placed_at, self._server_free_at)
            effective = start + drawn
            self._server_free_at = effective
        if regime is not Regime.EXOGENOUS_IID and effective < self._last_delivery:
            self.noncrossing_violations += 1
        self._last_delivery = max(self._last_delivery, effective)
        order.drawn_at = drawn_at
        order.drawn_lead = drawn
        order.effective_delivery = effective
        self._push(effective, _EventKind.DELIVERY, order.seq)

    def _place_order(self, now: float) -> None:
        order = ReferenceOrder(seq=len(self.orders), placed_at=now)
        self.orders.append(order)
        self.on_order += 1
        if self.config.regime is Regime.EXOGENOUS:
            self._dormant.append(order.seq)
        else:
            self._schedule_delivery(order, now, self._draw_lead())

    def _on_demand(self, now: float) -> None:
        if self.on_hand > 0:
            self.on_hand -= 1
            self.served += 1
            self._place_order(now)
        else:
            self.lost += 1
            if now >= self.config.warmup:
                self._lost_in_window += 1

    def _on_review(self, now: float) -> None:
        for seq in self._dormant:
            self._schedule_delivery(self.orders[seq], now, self._draw_lead())
        self._dormant.clear()

    def _on_delivery(self, now: float, seq: int) -> None:
        self.on_hand += 1
        self.on_order -= 1
        order = self.orders[seq]
        self.completed.append(
            UpdateOrder(order.seq, order.placed_at, order.drawn_lead, order.effective_delivery, order.drawn_at)
        )
        if now >= self.config.warmup:
            self._completions_in_window += 1

    def run(self) -> SimStats:
        cfg = self.config
        if cfg.demand_rate > 0:
            self._push(self._draw_gap(), _EventKind.DEMAND)
        if cfg.regime is Regime.EXOGENOUS:
            self._push(cfg.review_period, _EventKind.REVIEW)
        while self._heap:
            now, kind, _, seq = heapq.heappop(self._heap)
            if now > cfg.horizon:
                break
            self._accrue(now)
            if kind == _EventKind.DEMAND:
                self._on_demand(now)
                self._push(now + self._draw_gap(), _EventKind.DEMAND)
            elif kind == _EventKind.REVIEW:
                self._on_review(now)
                self._push(now + cfg.review_period, _EventKind.REVIEW)
            else:
                self._on_delivery(now, seq)
        self._accrue(cfg.horizon)
        return self._stats()

    def _stats(self) -> SimStats:
        cfg = self.config
        elapsed = cfg.horizon - cfg.warmup
        served = sum(1 for o in self.orders if o.placed_at >= cfg.warmup)
        lost = self._lost_in_window
        total = served + lost
        fill_rate = served / total if total else 1.0
        area = self._area_position if cfg.measure_position else self._area_on_hand
        cost = (
            cfg.costs.holding * self._area_on_hand
            + cfg.costs.lost_penalty * lost
            + cfg.costs.processing * self._completions_in_window
        ) / elapsed
        leads = np.array(
            [o.effective_delivery - o.placed_at for o in self.completed if o.placed_at >= cfg.warmup]
        )
        return SimStats(
            fill_rate=fill_rate,
            avg_on_hand=area / elapsed,
            long_run_avg_cost=cost,
            service_time_mean=float(leads.mean()) if leads.size else 0.0,
            service_time_var=float(leads.var(ddof=1)) if leads.size > 1 else 0.0,
            lost_count=lost,
            served_count=served,
        )
