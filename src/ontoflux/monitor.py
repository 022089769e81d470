"""The monitoring loop tying the knowledge base to the event producers.

Each tick advances the clock by exactly one time unit and performs, in
order: (a) drain queued assertions whose timestamps fall in the tick's
half-open window, (b) evaluate entailment and step every temporal
proposition at the new time on the action records drained this tick,
(c) apply the merge-acceptance policy to the candidate mappings and
materialize the merged fact set, (d) re-close every configured concept,
(e) commit the clock.

A tick costs what changed in it.  The A-Box only grows: step (a)
asserts the drained events in one pass, and the knowledge base
continues its last saturation from them alone, with the fact index and
the member sets of every concept carried along, so membership checks
and closures in steps (b) and (d) read a set instead of rescanning the
saturation.  Step (c) continues the previous tick's merge: with no new
fact and the same accepted mappings it keeps the previous fact set,
otherwise it seeds the previous fixpoint with the new facts only.  Each
pending queue carries its earliest time, so a tick whose window ends
before it passes the queue on untouched; a tick that drains one splits
it, in enqueue order.  Step (b) steps only the propositions the tick
can settle, found through a wake index that ``init`` builds once over
the proposition tuple: those whose window end the new time has passed,
read from the ends in sorted order past a cursor the state carries, and
those whose pattern kind matches an action drained this tick.  Any
other pending proposition would step to itself, since a record drained
earlier was already seen, at its own tick, by every proposition still
pending.  What still grows with the run is copying: the event log tuple
on every tick, and the action log tuple, the A-Box dict and the merged
fact dict on each tick that adds to them, the last rebuilt in
``str(atom)`` order when a new fact sorts between older ones.

Every effect is appended to an append-only log with lines
of the form ``tick=<n> step=<a..e> detail=<text>``; the log is
deterministic for equal inputs and carries enough to replay the run.

The decision step is a threshold policy with deterministic tie
breaking: richer optimizers can be slotted in by replacing it, the loop
only needs something that selects among merge alternatives.
"""

from __future__ import annotations

import dataclasses
import math
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, NamedTuple, Optional, Sequence, Union

from . import io as textio
from .errors import ProbabilityOutOfRangeError, StaleEventError
from .kb import (
    ABoxAssertion,
    ClassAtom,
    EntityName,
    Individual,
    KnowledgeBase,
    Truth,
    assert_all,
    close_class,
    is_member,
)
from .merging import Mapping, MergedKB, atom_predicate, merge
from .simulate import UpdateOrder
from .temporal import ActionRecord, TemporalProposition, step_all

Event = Union[ABoxAssertion, ActionRecord]


@dataclass(frozen=True)
class MergePolicy:
    """Accept every candidate mapping at or above the threshold.

    Accepted mappings are ordered by descending probability, then by
    mapping id, so merge materialization order never depends on input
    order.
    """

    acceptance_threshold: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.acceptance_threshold <= 1.0:
            raise ProbabilityOutOfRangeError(
                f"acceptance threshold {self.acceptance_threshold} outside [0, 1]"
            )

    def accept(self, mappings: Sequence[Mapping]) -> list[Mapping]:
        chosen = [m for m in mappings if m.probability >= self.acceptance_threshold]
        return sorted(chosen, key=lambda m: (-m.probability, m.mapping_id))


# named tuples rather than frozen dataclasses: a tick builds them, and a
# tuple costs a fraction of a frozen dataclass to build
class _Queue(NamedTuple):
    """A pending queue with its earliest time, so a tick whose window ends
    before that time leaves the queue as it is."""

    items: tuple
    time_of: Callable[[Event], float]
    at: float

    @staticmethod
    def known(queue: Optional[_Queue], items: tuple, time_of: Callable[[Event], float]) -> _Queue:
        """``queue`` if it was made for ``items``, else ``items`` scanned afresh."""
        if queue is not None and queue.items is items:
            return queue
        return _Queue(items, time_of, min(map(time_of, items), default=math.inf))

    def extended(self, new: tuple) -> _Queue:
        return _Queue(self.items + new, self.time_of, min((self.at, *map(self.time_of, new))))

    def drained(self, now: float) -> tuple[tuple, _Queue]:
        """The entries due by ``now``, in enqueue order, and the queue of the rest."""
        if self.at > now:
            return (), self
        due = tuple(x for x in self.items if self.time_of(x) <= now)
        return due, _Queue.known(None, tuple(x for x in self.items if self.time_of(x) > now), self.time_of)


class _Wake(NamedTuple):
    """The wake index over ``propositions``: which of them a tick can settle.

    ``by_end`` holds the positions sorted by window end, ties by position,
    and ``ends`` those ends; ``by_kind`` holds the positions of each
    pattern kind in order.  Only windows and kinds are indexed, so the
    three are shared by every later state.  The first ``cursor`` entries
    of ``by_end`` are the ends earlier ticks passed, which left those
    propositions terminal.
    """

    propositions: tuple[TemporalProposition, ...]
    ends: tuple[float, ...]
    by_end: tuple[int, ...]
    by_kind: dict[EntityName, tuple[int, ...]]
    cursor: int = 0

    @staticmethod
    def known(wake: Optional[_Wake], propositions: tuple[TemporalProposition, ...]) -> _Wake:
        """``wake`` if it was made for ``propositions``, else a new index over them."""
        if wake is not None and wake.propositions is propositions:
            return wake
        by_end = tuple(sorted(range(len(propositions)), key=lambda i: propositions[i].window.end))
        by_kind: dict[EntityName, tuple[int, ...]] = {}
        for i, prop in enumerate(propositions):
            by_kind[prop.pattern.kind] = by_kind.get(prop.pattern.kind, ()) + (i,)
        return _Wake(propositions, tuple(propositions[i].window.end for i in by_end), by_end, by_kind)


@dataclass(frozen=True)
class MonitorState:
    clock: float
    kb: KnowledgeBase
    closed_concepts: tuple[EntityName, ...] = ()
    upper_namespace: str = "up"
    pending_events: tuple[ABoxAssertion, ...] = ()
    pending_actions: tuple[ActionRecord, ...] = ()
    action_log: tuple[ActionRecord, ...] = ()
    propositions: tuple[TemporalProposition, ...] = ()
    merge_relation: frozenset[tuple[EntityName, EntityName, float]] = frozenset()
    merged: Optional[MergedKB] = None
    event_log: tuple[str, ...] = ()
    # what lets a tick skip idle queues and propositions; outside equality,
    # and trusted only while made for the very tuples above
    _events: Optional[_Queue] = field(default=None, compare=False, repr=False)
    _actions: Optional[_Queue] = field(default=None, compare=False, repr=False)
    _wake: Optional[_Wake] = field(default=None, compare=False, repr=False)


def init(
    kb: KnowledgeBase,
    closed_concepts: Sequence[EntityName] = (),
    propositions: Sequence[TemporalProposition] = (),
    upper_namespace: str = "up",
) -> MonitorState:
    """Start monitoring at t=0 with the configured concepts closed."""
    for concept in closed_concepts:
        kb = close_class(kb, concept, 0.0)
    propositions = tuple(propositions)
    return MonitorState(
        clock=0.0,
        kb=kb,
        closed_concepts=tuple(closed_concepts),
        upper_namespace=upper_namespace,
        propositions=propositions,
        _wake=_Wake.known(None, propositions),
    )


_EVENT_AT, _ACTION_AT = attrgetter("asserted_at"), attrgetter("at")


def _queues(state: MonitorState) -> tuple[_Queue, _Queue]:
    return (_Queue.known(state._events, state.pending_events, _EVENT_AT),
            _Queue.known(state._actions, state.pending_actions, _ACTION_AT))


def _enqueued(state: MonitorState, events: Sequence[Event]) -> MonitorState:
    """``state`` with ``events`` appended to their queues, each checked to lie after the clock."""
    assertions: list[ABoxAssertion] = []
    actions: list[ActionRecord] = []
    for event in events:
        is_assertion = isinstance(event, ABoxAssertion)
        at = event.asserted_at if is_assertion else event.at
        if at <= state.clock:
            what = "event" if is_assertion else f"action {event.action_id}"
            raise StaleEventError(f"{what} at {at} is not after the processed clock {state.clock}")
        (assertions if is_assertion else actions).append(event)
    old_events, old_actions = _queues(state)
    queued_events = old_events.extended(tuple(assertions))
    queued_actions = old_actions.extended(tuple(actions))
    return dataclasses.replace(
        state,
        pending_events=queued_events.items,
        pending_actions=queued_actions.items,
        _events=queued_events,
        _actions=queued_actions,
    )


def enqueue_event(state: MonitorState, assertion: ABoxAssertion) -> MonitorState:
    return _enqueued(state, (assertion,))


def record_action(state: MonitorState, action: ActionRecord) -> MonitorState:
    return _enqueued(state, (action,))


def _format_time(t: float) -> str:
    return repr(float(t))


def tick(
    state: MonitorState,
    policy: Optional[MergePolicy] = None,
    mappings: Sequence[Mapping] = (),
    external_kb: Optional[KnowledgeBase] = None,
) -> MonitorState:
    """Advance one time unit through the five sub-steps."""
    now = state.clock + 1.0
    n = int(round(now))
    log: list[str] = []  # this tick's lines
    kb = state.kb

    # (a) drain events timestamped inside (clock, now]
    event_queue, action_queue = _queues(state)
    due_events, event_queue = event_queue.drained(now)
    kb = assert_all(kb, due_events)
    for event in due_events:
        log.append(f"tick={n} step=a detail=assert {event.atom} @ {_format_time(event.asserted_at)}")

    # (b) evaluate at the new time: consume due actions, step the
    # propositions whose end has passed or whose kind a due action has
    due, action_queue = action_queue.drained(now)
    due_actions = sorted(due, key=action_queue.time_of)
    if due_actions:
        agent_class = EntityName(state.upper_namespace, "Agent")
    for action in due_actions:
        targets = ",".join(action.targets)
        log.append(
            f"tick={n} step=b detail=action {action.action_id} {action.kind} "
            f"by {action.actor} @ {_format_time(action.at)} targets={targets}"
        )
        if is_member(kb, action.actor, agent_class) is not Truth.TRUE:
            log.append(
                f"tick={n} step=b detail=warn actor {action.actor} not entailed in {agent_class}"
            )
    action_log = state.action_log + tuple(due_actions)
    propositions = state.propositions
    wake = _Wake.known(state._wake, propositions)
    cursor = bisect_left(wake.ends, now, wake.cursor)
    woken = wake.by_end[wake.cursor:cursor]
    if due_actions:
        woken = set(woken).union(*(wake.by_kind.get(action.kind, ()) for action in due_actions))
    positions = [i for i in sorted(woken) if not propositions[i].terminal]
    stepped = step_all([propositions[i] for i in positions], due_actions, now)
    changed = [(i, after) for i, after in zip(positions, stepped) if after.state is not propositions[i].state]
    if changed:
        propositions = list(propositions)
        for i, after in changed:
            log.append(f"tick={n} step=b detail=prop {after.prop_id} {propositions[i].state.value}->{after.state.value}")
            propositions[i] = after
        propositions = tuple(propositions)
    if changed or cursor != wake.cursor:
        wake = _Wake(propositions, wake.ends, wake.by_end, wake.by_kind, cursor)

    # (c) merge decision and materialization
    merge_relation = state.merge_relation
    merged = state.merged
    if policy is not None:
        accepted = policy.accept(mappings)
        merge_relation = frozenset(
            (atom_predicate(m.target), atom_predicate(m.source), m.probability) for m in accepted
        )
        if external_kb is not None:
            merged = merge(kb, external_kb, accepted, parent=state.merged)
        if accepted:
            ids = ",".join(m.mapping_id for m in accepted)
            log.append(f"tick={n} step=c detail=accept {ids}")

    # (d) refresh closures at the new time
    for concept in state.closed_concepts:
        kb = close_class(kb, concept, now)
        members = kb.closures[concept].members
        log.append(f"tick={n} step=d detail=close {concept} members={len(members)}")

    # (e) commit the clock
    log.append(f"tick={n} step=e detail=clock {_format_time(now)}")

    return MonitorState(
        clock=now,
        kb=kb,
        closed_concepts=state.closed_concepts,
        upper_namespace=state.upper_namespace,
        pending_events=event_queue.items,
        pending_actions=action_queue.items,
        action_log=action_log,
        propositions=propositions,
        merge_relation=merge_relation,
        merged=merged,
        event_log=state.event_log + tuple(log),
        _events=event_queue,
        _actions=action_queue,
        _wake=wake,
    )


def run(
    state: MonitorState,
    horizon: int,
    policy: Optional[MergePolicy] = None,
    mappings: Sequence[Mapping] = (),
    external_kb: Optional[KnowledgeBase] = None,
    events: Sequence[Event] = (),
) -> tuple[MonitorState, tuple[str, ...]]:
    """Enqueue the scripted events and tick ``horizon`` times."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    state = _enqueued(state, events)
    for _ in range(horizon):
        state = tick(state, policy, mappings, external_kb)
    return state, state.event_log


_ASSERT_LINE = re.compile(r"^tick=\d+ step=a detail=assert (?P<atom>.+) @ (?P<time>\S+)$")
_ACTION_LINE = re.compile(
    r"^tick=\d+ step=b detail=action (?P<id>\S+) (?P<kind>\S+) by (?P<actor>\S+) "
    r"@ (?P<time>\S+) targets=(?P<targets>\S*)$"
)
_CLOCK_LINE = re.compile(r"^tick=(?P<n>\d+) step=e detail=clock ")


def replay_log(
    log: Sequence[str],
    kb: KnowledgeBase,
    closed_concepts: Sequence[EntityName] = (),
    propositions: Sequence[TemporalProposition] = (),
    upper_namespace: str = "up",
    policy: Optional[MergePolicy] = None,
    mappings: Sequence[Mapping] = (),
    external_kb: Optional[KnowledgeBase] = None,
) -> MonitorState:
    """Rebuild the final state from a log and the run's fixed inputs.

    The log supplies every assertion and action with its original
    timestamp and the number of ticks; policy, mappings and the
    starting knowledge base are configuration, not events, so the
    caller passes them unchanged.
    """
    events: list[Event] = []
    ticks = 0
    for line in log:
        m = _ASSERT_LINE.match(line)
        if m:
            atom = textio.parse_ground_atom(m.group("atom"))
            events.append(ABoxAssertion(atom, float(m.group("time"))))
            continue
        m = _ACTION_LINE.match(line)
        if m:
            kind_ns, kind_local = m.group("kind").split(":", 1)
            actor_ns, actor_local = m.group("actor").split(":", 1)
            targets = tuple(t for t in m.group("targets").split(",") if t)
            events.append(
                ActionRecord(
                    at=float(m.group("time")),
                    action_id=m.group("id"),
                    kind=EntityName(kind_ns, kind_local),
                    actor=EntityName(actor_ns, actor_local),
                    targets=targets,
                )
            )
            continue
        m = _CLOCK_LINE.match(line)
        if m:
            ticks = max(ticks, int(m.group("n")))
    state = init(kb, closed_concepts, propositions, upper_namespace)
    final, _ = run(state, ticks, policy, mappings, external_kb, events)
    return final


def merge_completion_event(
    order: UpdateOrder,
    namespace: str = "up",
    actor: Optional[EntityName] = None,
    targets: tuple[str, ...] = (),
) -> tuple[ABoxAssertion, ActionRecord]:
    """Translate a delivered update order into monitor events.

    The completed merge becomes an Event individual asserted at the
    delivery time plus a MergeAction record, which is how the
    stochastic layer feeds the knowledge-base loop.
    """
    individual = EntityName(textio.INSTANCE_NAMESPACE, f"Merge_{order.seq}")
    assertion = ABoxAssertion(
        ClassAtom(EntityName(namespace, "Event"), Individual(individual)),
        order.effective_delivery,
    )
    record = ActionRecord(
        at=order.effective_delivery,
        action_id=f"merge_{order.seq}",
        kind=EntityName(namespace, "MergeAction"),
        actor=actor or EntityName(textio.INSTANCE_NAMESPACE, "Merger"),
        targets=targets,
    )
    return assertion, record
