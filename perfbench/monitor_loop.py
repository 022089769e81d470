"""Workload ``monitor_loop``: the paper's full monitor tick loop.

One unit is an episode: a generated ontology, event script, external
ontology, mappings and deadline propositions, run from ``monitor.init``
through ``EPISODE_TICKS`` ticks.  One op is one ``monitor.tick`` with a
merge policy, so every tick writes to the A-Box (when events are due),
re-saturates once per closure and per actor check, steps the
propositions and re-merges.  Events arrive by a Poisson process at well
under one per tick, so most ticks ingest nothing and memoized or
incremental work shows; the KB grows through the episode, so per-tick
costs that grow with the run show in the tail latency.

Episodes cycle, in a seeded order, through five sizes of initial KB
(2 to 6 individuals per chain level), so tick latencies spread over a
range instead of one narrow peak whose median would jump when the
machine's speed drifts.

The generator builds every document so that the expected outcome
follows from its own construction, without calling the reasoner:

* every individual named in an ``O:`` class or ``O:rel`` atom is a
  member of the chain top ``O:C5`` (each chain class is a subclass of
  the next, ``O:rel`` has its domain and range in the chain, and the
  rule's head is a chain class);
* the members of ``up:Event`` are the individuals asserted as
  ``up:Event`` or ``up:Action``;
* a proposition's final state follows from the scheduled actions.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass

from ontoflux import io as textio
from ontoflux import monitor
from ontoflux.kb import ABoxAssertion, EntityName, KnowledgeBase
from ontoflux.merging import Mapping
from ontoflux.temporal import (
    ActionPattern,
    Interval,
    Polarity,
    PropState,
    TemporalProposition,
)

EPISODE_TICKS = 40
CHAIN = 6
TOP = f"O:C{CHAIN - 1}"
PER_LEVEL = (2, 3, 4, 5, 6)  # initial individuals at each chain level, cycled over episodes
INITIAL_EDGES = 8
AGENTS = 4
# 12 events over 40 ticks (0.3 per tick), of these kinds in a seeded order
EVENT_KINDS = ("individual",) * 5 + ("edge",) * 3 + ("up:Event",) * 3 + ("up:Action",)
ACTIONS = 12
PROPOSITIONS = 40
ACTION_KINDS = ("O:Review", "O:Approve", "O:Ship")
TARGETS = ("T0", "T1", "T2", "T3")
CLOSED = (EntityName("up", "Event"), EntityName("O", f"C{CHAIN - 1}"))
THRESHOLD = 0.5
# replay_log costs as much as the episode, so it checks every fourth one
REPLAY_EVERY = 4

_CLOSE_LINE = re.compile(r"^tick=\d+ step=d detail=close (\S+) members=(\d+)$")


@dataclass
class Episode:
    kb0: KnowledgeBase
    external: KnowledgeBase
    mappings: list[Mapping]
    propositions: list[TemporalProposition]
    policy: monitor.MergePolicy
    state: monitor.MonitorState
    # per tick n (index n-1): {concept text: members}, assert lines, action lines
    expected_members: list[dict[str, int]]
    expected_asserts: list[int]
    expected_actions: list[int]
    expected_final: dict[str, PropState]
    replay: bool


def _times(rng: random.Random, count: int) -> list[float]:
    """Arrival times of a Poisson process on (0, EPISODE_TICKS] given its count."""
    return sorted(max(round(rng.uniform(0, EPISODE_TICKS), 4), 0.001) for _ in range(count))


def _documents(rng: random.Random, per_level: int):
    """Text of the ontology, event script, external ontology and mappings,
    plus the per-tick expectations and the proposition specs.

    Every episode has the same counts of each kind of statement; the seed
    picks names, levels' members, pairings and times.
    """
    onto = ["namespace O", "class up:Event", "class up:Action", "class up:Agent",
            "class up:Instant", "class up:Interval", "class up:TemporalEntity",
            "subclass up:Action up:Event", "disjoint up:Agent up:Event",
            "union up:TemporalEntity = up:Instant | up:Interval",
            "property O:rel", "domain O:rel O:C0", "range O:rel O:C2",
            "rule r1: O:C1(x), O:rel(x, y) -> O:C3(y)"]
    onto += [f"class O:C{k}" for k in range(CHAIN)]
    onto += [f"subclass O:C{k} O:C{k + 1}" for k in range(CHAIN - 1)]
    onto += [f"class {kind}" for kind in ACTION_KINDS]

    levels = [k for k in range(CHAIN) for _ in range(per_level)]
    rng.shuffle(levels)
    individuals = [f"x{i}" for i in range(len(levels))]
    onto += [f"assert O:C{level}({x})" for x, level in zip(individuals, levels)]
    by_level = {k: [x for x, level in zip(individuals, levels) if level == k] for k in range(CHAIN)}
    for k in range(INITIAL_EDGES):
        a = rng.choice(by_level[k % CHAIN])
        b = rng.choice([x for x in individuals if x != a])
        onto.append(f"assert O:rel({a}, {b})")
    agents = [f"a{i}" for i in range(AGENTS)]
    onto += [f"assert up:Agent({a})" for a in agents]
    onto += [f"assert up:Event(e0_{i})" for i in range(3)]
    onto.append("assert up:Instant(t0)")
    top = set(individuals)
    events_members = {f"e0_{i}" for i in range(3)}

    script = ["namespace O"]
    arrivals: list[tuple[float, str, str]] = []  # (time, closed concept, new member)
    kinds = list(EVENT_KINDS)
    rng.shuffle(kinds)
    new_levels = [k % CHAIN for k in range(kinds.count("individual"))]
    rng.shuffle(new_levels)
    for n, (when, kind) in enumerate(zip(_times(rng, len(kinds)), kinds)):
        if kind == "individual":
            x = f"n{n}"
            script.append(f"at {when} assert O:C{new_levels.pop()}({x})")
            arrivals.append((when, TOP, x))
            individuals.append(x)
        elif kind == "edge":
            a, b = rng.sample(individuals, 2)
            script.append(f"at {when} assert O:rel({a}, {b})")
        else:
            script.append(f"at {when} assert {kind}(e{n})")
            arrivals.append((when, "up:Event", f"e{n}"))

    actions: list[tuple[float, str, tuple[str, str]]] = []
    gap = EPISODE_TICKS / ACTIONS
    for k in range(ACTIONS):
        when = round(k * gap + rng.uniform(0.05, gap - 0.05), 4)
        kind = rng.choice(ACTION_KINDS)
        targets = tuple(rng.sample(TARGETS, 2))
        script.append(f"at {when} action act{k} {kind} by {rng.choice(agents)} "
                      f"target {targets[0]} {targets[1]}")
        actions.append((when, kind, targets))

    expected_members, expected_asserts, expected_actions = [], [], []
    asserted = [float(line.split()[1]) for line in script if " assert " in line]
    for n in range(1, EPISODE_TICKS + 1):
        for when, concept, x in arrivals:
            if n - 1 < when <= n:
                (top if concept == TOP else events_members).add(x)
        expected_members.append({"up:Event": len(events_members), TOP: len(top)})
        expected_asserts.append(sum(1 for when in asserted if n - 1 < when <= n))
        expected_actions.append(sum(1 for when, _, _ in actions if n - 1 < when <= n))

    def spread(count: int) -> list[str]:
        """``count`` distinct initial individuals, taken from the levels in turn."""
        pools = [rng.sample(by_level[k], per_level) for k in range(CHAIN)]
        return [pools[k % CHAIN][k // CHAIN] for k in range(count)]

    external = ["namespace X", "class X:Obs", "class X:Tagged", "property X:link"]
    external += [f"assert X:Obs({x})" for x in spread(10)]
    external += [f"assert X:Tagged({x})" for x in spread(6)]
    external += [f"assert X:link({a}, {b})" for a, b in zip(spread(6), reversed(spread(6)))]
    mappings = [
        f"map m1: O:C0(x) <- X:Obs(x) ; P({rng.uniform(0.55, 0.95):.2f})",
        f"map m2: O:C1(x) <- X:Tagged(x) ; P({rng.uniform(0.55, 0.95):.2f})",
        f"map m3: O:rel(x, y) <- X:link(x, y) ; P({rng.uniform(0.55, 0.95):.2f})",
        f"map m4: O:C4(x) <- X:Obs(x) ; P({rng.uniform(0.05, 0.45):.2f})",
    ]

    props = []
    for i in range(PROPOSITIONS):
        start = rng.randrange(0, EPISODE_TICKS)
        window = (float(start), float(start + rng.randrange(2, 13)))
        polarity = Polarity.POSITIVE if rng.random() < 0.7 else Polarity.NEGATIVE
        kind = rng.choice(ACTION_KINDS)
        target = rng.choice(TARGETS) if rng.random() < 0.5 else None
        props.append((f"p{i}", polarity, kind, target, window))

    return ("\n".join(onto) + "\n", "\n".join(script) + "\n", "\n".join(external) + "\n",
            "\n".join(mappings) + "\n", actions, props,
            expected_members, expected_asserts, expected_actions)


def _final_state(polarity, kind, target, window, actions) -> PropState:
    start, end = window
    matched = any(k == kind and (target is None or target in targets) and start <= when <= end
                  for when, k, targets in actions)
    if matched:
        return PropState.FULFILLED if polarity is Polarity.POSITIVE else PropState.VIOLATED
    if EPISODE_TICKS > end:
        return PropState.VIOLATED if polarity is Polarity.POSITIVE else PropState.FULFILLED
    return PropState.PENDING


def _name(text: str) -> EntityName:
    ns, local = text.split(":")
    return EntityName(ns, local)


def prepare(seed: int, index: int, workdir) -> Episode:
    """Generate episode ``index`` of the workload seed, parse it and start the monitor."""
    sizes = list(PER_LEVEL)
    random.Random(f"monitor_loop/{seed}/sizes/{index // len(sizes)}").shuffle(sizes)
    rng = random.Random(f"monitor_loop/{seed}/{index}")
    (onto, script, external_text, mapping_text, actions, props,
     members, asserts, action_counts) = _documents(rng, sizes[index % len(sizes)])
    kb0 = textio.parse_ontology(onto)
    events = textio.parse_events(script)
    external = textio.parse_ontology(external_text)
    mappings = textio.parse_mappings(mapping_text)
    propositions = [
        TemporalProposition(pid, polarity, ActionPattern(_name(kind), target), Interval(*window))
        for pid, polarity, kind, target, window in props
    ]
    state = monitor.init(kb0, CLOSED, propositions, "up")
    for event in events:
        if isinstance(event, ABoxAssertion):
            state = monitor.enqueue_event(state, event)
        else:
            state = monitor.record_action(state, event)
    expected_final = {pid: _final_state(polarity, kind, target, window, actions)
                      for pid, polarity, kind, target, window in props}
    return Episode(kb0, external, mappings, propositions, monitor.MergePolicy(THRESHOLD),
                   state, members, asserts, action_counts, expected_final,
                   replay=index % REPLAY_EVERY == 0)


def run(episode: Episode, timer) -> tuple[list[bool], str]:
    """Tick the episode to its end; ``timer(fn)`` times one op and returns its result.

    Returns one check flag per tick (the episode-level checks land on the
    last tick) and a digest of the event log for the tracing check.
    """
    state = episode.state
    flags = []
    for n in range(1, EPISODE_TICKS + 1):
        before = len(state.event_log)
        state = timer(lambda: monitor.tick(state, episode.policy, episode.mappings, episode.external))
        flags.append(state is not None and _tick_ok(state.event_log[before:], episode, n))
        if state is None:
            return flags + [False] * (EPISODE_TICKS - n), ""
    flags[-1] = flags[-1] and _episode_ok(state, episode)
    log = "\n".join(state.event_log).encode("utf-8")
    return flags, hashlib.sha256(log).hexdigest()


def _tick_ok(lines, episode: Episode, n: int) -> bool:
    closes = {}
    asserts = actions = 0
    for line in lines:
        if " step=a detail=assert " in line:
            asserts += 1
        elif " step=b detail=action " in line:
            actions += 1
        elif " detail=warn " in line:
            return False
        else:
            m = _CLOSE_LINE.match(line)
            if m:
                closes[m.group(1)] = int(m.group(2))
    return (closes == episode.expected_members[n - 1]
            and asserts == episode.expected_asserts[n - 1]
            and actions == episode.expected_actions[n - 1]
            and lines[-1] == f"tick={n} step=e detail=clock {float(n)!r}")


def _episode_ok(state: monitor.MonitorState, episode: Episode) -> bool:
    final = {p.prop_id: p.state for p in state.propositions}
    if final != episode.expected_final:
        return False
    if not episode.replay:
        return True
    replayed = monitor.replay_log(
        state.event_log, episode.kb0, CLOSED, episode.propositions, "up",
        episode.policy, episode.mappings, episode.external,
    )
    return (replayed.event_log == state.event_log
            and {c: r.members for c, r in replayed.kb.closures.items()}
            == {c: r.members for c, r in state.kb.closures.items()}
            and {p.prop_id: p.state for p in replayed.propositions} == final)
