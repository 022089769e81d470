"""Temporal upper ontology and deadline propositions.

Two halves.  First, the small upper ontology every monitored knowledge
base must carry: Event, Action, Agent and the temporal-entity classes,
tied together by three axioms (actions are events, nothing is both an
event and an agent, temporal entities are exactly instants and
intervals).  Second, temporal propositions: obligations and
prohibitions that some action matching a pattern occur inside a closed
time window.  A proposition steps through Pending into exactly one of
Fulfilled or Violated, and the terminal states are absorbing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .errors import MalformedItemError, MissingAxiomError, UnsortedLogError
from .kb import (
    DisjointClasses,
    EntityName,
    KnowledgeBase,
    SubClassOf,
    TBoxAxiom,
    UnionEquivalence,
)


@dataclass(frozen=True, order=True)
class Instant:
    at: float

    def __post_init__(self):
        if not math.isfinite(self.at):
            raise MalformedItemError(f"an instant must be finite, got {self.at}")


@dataclass(frozen=True, order=True)
class Interval:
    """Closed interval; both endpoints belong to it."""

    start: float
    end: float

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise MalformedItemError(f"interval endpoints must be finite, got {self.start} and {self.end}")
        if self.end < self.start:
            raise MalformedItemError(f"interval end {self.end} precedes start {self.start}")

    def contains(self, t: float) -> bool:
        return self.start <= t <= self.end


class TemporalKind(Enum):
    INSTANT = "instant"
    INTERVAL = "interval"


def classify(entity: Instant | Interval) -> TemporalKind:
    if isinstance(entity, Instant):
        return TemporalKind.INSTANT
    if isinstance(entity, Interval):
        return TemporalKind.INTERVAL
    raise MalformedItemError(f"not a temporal entity: {entity!r}")


def upper_ontology(namespace: str = "up") -> list[TBoxAxiom]:
    """The structural axioms a monitored KB is required to contain."""
    n = lambda local: EntityName(namespace, local)
    return [
        SubClassOf(n("Action"), n("Event")),
        DisjointClasses(n("Agent"), n("Event")),
        UnionEquivalence(n("TemporalEntity"), (n("Instant"), n("Interval"))),
    ]


def validate_upper_ontology(kb: KnowledgeBase, namespace: str = "up") -> None:
    """Raise ``MissingAxiomError`` naming every required axiom absent from ``kb``.

    Disjointness is accepted in either argument order; the union's part
    order is immaterial because parts are compared as sets.
    """
    missing: list[str] = []
    present_unions = {
        (ax.whole, frozenset(ax.parts)) for ax in kb.tbox if isinstance(ax, UnionEquivalence)
    }
    present_disjoint = {
        frozenset((ax.a, ax.b)) for ax in kb.tbox if isinstance(ax, DisjointClasses)
    }
    for ax in upper_ontology(namespace):
        if isinstance(ax, SubClassOf):
            ok = ax in kb.tbox
            label = f"subclass {ax.sub} {ax.sup}"
        elif isinstance(ax, DisjointClasses):
            ok = frozenset((ax.a, ax.b)) in present_disjoint
            label = f"disjoint {ax.a} {ax.b}"
        else:
            ok = (ax.whole, frozenset(ax.parts)) in present_unions
            label = f"union {ax.whole} = " + " | ".join(str(p) for p in ax.parts)
        if not ok:
            missing.append(label)
    if missing:
        raise MissingAxiomError(missing)


# --- action records and deadline propositions ---------------------------


@dataclass(frozen=True, order=True)
class ActionRecord:
    """One occurrence of an action: what kind, who did it, when, to what."""

    at: float
    action_id: str
    kind: EntityName
    actor: EntityName
    targets: tuple[str, ...] = ()  # ontology identifiers the action touches

    def __post_init__(self):
        if not math.isfinite(self.at) or self.at < 0:
            raise MalformedItemError(
                f"action {self.action_id}: occurrence time must be finite and nonnegative, got {self.at}"
            )


@dataclass(frozen=True)
class ActionPattern:
    """Matches records by action kind, optionally requiring a target."""

    kind: EntityName
    target: Optional[str] = None

    def matches(self, record: ActionRecord) -> bool:
        if record.kind != self.kind:
            return False
        return self.target is None or self.target in record.targets


class Polarity(Enum):
    POSITIVE = "positive"  # obligation: a match must occur in the window
    NEGATIVE = "negative"  # prohibition: no match may occur in the window


class PropState(Enum):
    PENDING = "pending"
    FULFILLED = "fulfilled"
    VIOLATED = "violated"


@dataclass(frozen=True)
class TemporalProposition:
    prop_id: str
    polarity: Polarity
    pattern: ActionPattern
    window: Interval
    state: PropState = PropState.PENDING

    @property
    def terminal(self) -> bool:
        return self.state is not PropState.PENDING


def _check_sorted(log: Sequence[ActionRecord]) -> None:
    for earlier, later in zip(log, log[1:]):
        if later.at < earlier.at:
            raise UnsortedLogError(
                f"action log out of order: {later.action_id} at {later.at} after {earlier.at}"
            )


def step_proposition(
    prop: TemporalProposition, log: Sequence[ActionRecord], now: float
) -> TemporalProposition:
    """Advance a proposition against the actions observed up to ``now``.

    A matching action inside the closed window settles the proposition
    the moment it is seen (fulfilled for obligations, violated for
    prohibitions).  Once ``now`` passes the window end with no match,
    the opposite terminal state is reached.  Terminal states never
    change afterwards, whatever the log says.
    """
    return step_all((prop,), log, now)[0]


def step_all(
    props: Sequence[TemporalProposition], log: Sequence[ActionRecord], now: float
) -> list[TemporalProposition]:
    """``step_proposition`` over ``props``, checking the log's order once.

    As with the per-proposition calls, an empty ``props`` checks nothing.
    """
    if props:
        _check_sorted(log)
    return [p if p.terminal else _advance(p, log, now) for p in props]


def _advance(prop: TemporalProposition, log: Sequence[ActionRecord], now: float) -> TemporalProposition:
    """One step of a pending proposition against a log already checked for order."""
    matched = any(
        record.at <= now and prop.window.contains(record.at) and prop.pattern.matches(record)
        for record in log
    )
    if matched:
        state = PropState.FULFILLED if prop.polarity is Polarity.POSITIVE else PropState.VIOLATED
    elif now > prop.window.end:
        state = PropState.VIOLATED if prop.polarity is Polarity.POSITIVE else PropState.FULFILLED
    else:
        return prop
    return TemporalProposition(prop.prop_id, prop.polarity, prop.pattern, prop.window, state)
