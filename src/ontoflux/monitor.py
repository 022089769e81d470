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
otherwise it seeds the previous fixpoint with the new facts only.  Step
(b) needs only the new records: an earlier record was already seen, at
its own tick, by every proposition still pending.  What still grows
with the run is copying, once per tick that adds to them: the event log
tuple, the A-Box dict and the merged fact dict, which a merge rebuilds
in ``str(atom)`` order when a new fact sorts between older ones.

Every effect is appended to an append-only log with lines
of the form ``tick=<n> step=<a..e> detail=<text>``; the log is
deterministic for equal inputs and carries enough to replay the run.

The decision step is a threshold policy with deterministic tie
breaking: richer optimizers can be slotted in by replacing it, the loop
only needs something that selects among merge alternatives.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from typing import Optional, Sequence, Union

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


def init(
    kb: KnowledgeBase,
    closed_concepts: Sequence[EntityName] = (),
    propositions: Sequence[TemporalProposition] = (),
    upper_namespace: str = "up",
) -> MonitorState:
    """Start monitoring at t=0 with the configured concepts closed."""
    for concept in closed_concepts:
        kb = close_class(kb, concept, 0.0)
    return MonitorState(
        clock=0.0,
        kb=kb,
        closed_concepts=tuple(closed_concepts),
        upper_namespace=upper_namespace,
        propositions=tuple(propositions),
    )


def enqueue_event(state: MonitorState, assertion: ABoxAssertion) -> MonitorState:
    if assertion.asserted_at <= state.clock:
        raise StaleEventError(
            f"event at {assertion.asserted_at} is not after the processed clock {state.clock}"
        )
    return dataclasses.replace(state, pending_events=state.pending_events + (assertion,))


def record_action(state: MonitorState, action: ActionRecord) -> MonitorState:
    if action.at <= state.clock:
        raise StaleEventError(
            f"action {action.action_id} at {action.at} is not after the processed clock {state.clock}"
        )
    return dataclasses.replace(state, pending_actions=state.pending_actions + (action,))


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
    due_events = tuple(e for e in state.pending_events if e.asserted_at <= now)
    pending_events = tuple(e for e in state.pending_events if e.asserted_at > now)
    kb = assert_all(kb, due_events)
    for event in due_events:
        log.append(f"tick={n} step=a detail=assert {event.atom} @ {_format_time(event.asserted_at)}")

    # (b) evaluate at the new time: consume due actions, step propositions
    due_actions = sorted(
        (a for a in state.pending_actions if a.at <= now), key=lambda a: a.at
    )
    pending_actions = tuple(a for a in state.pending_actions if a.at > now)
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
    propositions = tuple(step_all(state.propositions, due_actions, now))
    for before, after in zip(state.propositions, propositions):
        if before.state is not after.state:
            log.append(
                f"tick={n} step=b detail=prop {after.prop_id} {before.state.value}->{after.state.value}"
            )

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

    return dataclasses.replace(
        state,
        clock=now,
        kb=kb,
        pending_events=pending_events,
        pending_actions=pending_actions,
        action_log=action_log,
        propositions=propositions,
        merge_relation=merge_relation,
        merged=merged,
        event_log=state.event_log + tuple(log),
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
    for event in events:
        if isinstance(event, ABoxAssertion):
            state = enqueue_event(state, event)
        else:
            state = record_action(state, event)
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
