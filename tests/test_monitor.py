import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ontoflux.kb
import ontoflux.temporal

from helpers import reference_saturate, world_atom_probabilities

from ontoflux import monitor
from ontoflux.errors import ProbabilityOutOfRangeError, StaleEventError
from ontoflux.io import parse_events, parse_ground_atom, parse_mappings, parse_ontology, parse_query
from ontoflux.kb import (
    ABoxAssertion,
    ClassAtom,
    EntityName,
    HornRule,
    Individual,
    KnowledgeBase,
    Truth,
    Variable,
    assert_all,
    entailed_members,
    is_member,
    saturate,
)
from ontoflux.merging import merge, query
from ontoflux.monitor import MergePolicy, MonitorState, enqueue_event, record_action, tick
from ontoflux.simulate import UpdateOrder
from ontoflux.temporal import (
    ActionPattern,
    ActionRecord,
    Interval,
    Polarity,
    PropState,
    TemporalProposition,
    step_all,
    upper_ontology,
)

EVENT = EntityName("up", "Event")
AGENT = EntityName("up", "Agent")
ACTION = EntityName("up", "Action")


def ind(token: str) -> Individual:
    return Individual(EntityName("i", token))


def base_kb() -> KnowledgeBase:
    return assert_all(
        KnowledgeBase(),
        [*upper_ontology(), ABoxAssertion(ClassAtom(AGENT, ind("Bot")))],
    )


def event(at: float, token: str) -> ABoxAssertion:
    return ABoxAssertion(ClassAtom(EVENT, ind(token)), at)


def action(at: float, action_id: str, actor: str = "Bot") -> ActionRecord:
    return ActionRecord(at, action_id, ACTION, EntityName("i", actor))


def test_init_closes_concepts_at_time_zero():
    state = monitor.init(base_kb(), (EVENT, AGENT))
    assert state.clock == 0.0
    assert state.kb.closures[EVENT].closed_at == 0.0
    assert state.kb.closures[AGENT].members == frozenset({EntityName("i", "Bot")})


def test_stale_submissions_are_rejected():
    state = monitor.init(base_kb())
    state = tick(state)
    assert state.clock == 1.0
    with pytest.raises(StaleEventError):
        enqueue_event(state, event(1.0, "E"))
    with pytest.raises(StaleEventError):
        record_action(state, action(0.5, "a1"))
    enqueue_event(state, event(1.001, "E"))
    record_action(state, action(1.001, "a1"))


def test_tick_drains_only_the_next_unit_interval():
    state = monitor.init(base_kb(), (EVENT,))
    state = enqueue_event(state, event(0.5, "Soon"))
    state = enqueue_event(state, event(1.5, "Later"))
    state = tick(state)
    assert ClassAtom(EVENT, ind("Soon")) in state.kb.abox
    assert ClassAtom(EVENT, ind("Later")) not in state.kb.abox
    assert state.pending_events == (event(1.5, "Later"),)
    state = tick(state)
    assert state.kb.abox[ClassAtom(EVENT, ind("Later"))] == 1.5
    assert state.pending_events == ()


def test_tick_log_lines_are_exact():
    state = monitor.init(base_kb(), (EVENT,))
    state = enqueue_event(state, event(0.5, "E1"))
    state = record_action(state, action(0.25, "a1"))
    state = tick(state)
    assert state.event_log == (
        "tick=1 step=a detail=assert up:Event(i:E1) @ 0.5",
        "tick=1 step=b detail=action a1 up:Action by i:Bot @ 0.25 targets=",
        "tick=1 step=d detail=close up:Event members=1",
        "tick=1 step=e detail=clock 1.0",
    )


def test_unknown_actor_is_warned_about():
    state = monitor.init(base_kb())
    state = record_action(state, action(0.5, "a1", actor="Ghost"))
    state = tick(state)
    assert any(
        line == "tick=1 step=b detail=warn actor i:Ghost not entailed in up:Agent"
        for line in state.event_log
    )
    bot = monitor.init(base_kb())
    bot = record_action(bot, action(0.5, "a1", actor="Bot"))
    assert not any("warn" in line for line in tick(bot).event_log)


def test_proposition_transitions_are_logged():
    prop = TemporalProposition(
        "ob1", Polarity.POSITIVE, ActionPattern(ACTION), Interval(0.0, 3.0)
    )
    state = monitor.init(base_kb(), propositions=(prop,))
    state = record_action(state, action(0.5, "a1"))
    state = tick(state)
    assert state.propositions[0].state is PropState.FULFILLED
    assert "tick=1 step=b detail=prop ob1 pending->fulfilled" in state.event_log
    # terminal propositions stay settled on later ticks
    later = tick(state)
    assert later.propositions[0].state is PropState.FULFILLED


def test_policy_threshold_picks_strong_mappings(fixture_text):
    mappings = parse_mappings(fixture_text("travel.map"))
    accepted = MergePolicy(0.85).accept(mappings)
    assert [m.mapping_id for m in accepted] == ["m2", "m4"]
    assert MergePolicy(0.0).accept(mappings)[0].mapping_id == "m2"
    with pytest.raises(ProbabilityOutOfRangeError):
        MergePolicy(1.5)


def test_tick_materializes_merge_under_policy(fixture_text):
    local = parse_ontology(fixture_text("travel_local.onto"))
    external = parse_ontology(fixture_text("travel_external.onto"))
    mappings = parse_mappings(fixture_text("travel.map"))
    state = monitor.init(local, upper_namespace="O1")
    state = tick(state, policy=MergePolicy(0.85), mappings=mappings, external_kb=external)
    assert "tick=1 step=c detail=accept m2,m4" in state.event_log
    assert state.merge_relation == frozenset(
        {
            (EntityName("O1", "Event"), EntityName("O2", "Action"), 0.9),
            (EntityName("O1", "keyword"), EntityName("O2", "about"), 0.9),
        }
    )
    answers = query(state.merged, parse_query("O1:Event(x) & O1:keyword(x, Place)"), mapped_only=True)
    assert [(a.binding[0][1].local, a.probability) for a in answers] == [("Trip", 0.81)]


def test_closures_track_new_facts_each_tick():
    state = monitor.init(base_kb(), (EVENT,))
    for n in range(1, 4):
        state = enqueue_event(state, event(n - 0.5, f"E{n}"))
    for expected in (1, 2, 3):
        state = tick(state)
        record = state.kb.closures[EVENT]
        assert record.closed_at == state.clock
        assert record.members == frozenset(entailed_members(state.kb, EVENT))
        assert len(record.members) == expected
    assert is_member(state.kb, EntityName("i", "Nothing"), EVENT) is Truth.FALSE


def test_run_is_tick_composition():
    events = [event(0.5, "E1"), event(2.5, "E3"), action(1.5, "a1")]
    base = monitor.init(base_kb(), (EVENT,))
    ran, log = monitor.run(base, 3, events=events)
    stepped = base
    for e in events:
        stepped = (
            enqueue_event(stepped, e) if isinstance(e, ABoxAssertion) else record_action(stepped, e)
        )
    for _ in range(3):
        stepped = tick(stepped)
    assert ran == stepped
    assert log == stepped.event_log
    assert ran.pending_events == () and ran.pending_actions == ()


def test_replay_rebuilds_the_same_state(fixture_text):
    from ontoflux.io import parse_events

    kb = parse_ontology(fixture_text("monitor_base.onto"))
    events = parse_events(fixture_text("monitor_script.evt"))
    closed = (EVENT, AGENT)
    final, log = monitor.run(monitor.init(kb, closed), 50, events=events)
    replayed = monitor.replay_log(log, kb, closed)
    assert replayed == final


def test_merge_completion_becomes_monitor_events():
    order = UpdateOrder(seq=3, placed_at=1.0, drawn_lead=2.0, effective_delivery=3.5, drawn_at=1.5)
    assertion, record = monitor.merge_completion_event(order, targets=("O1", "O2"))
    assert assertion == ABoxAssertion(ClassAtom(EVENT, ind("Merge_3")), 3.5)
    assert record.at == 3.5 and record.kind == EntityName("up", "MergeAction")
    assert record.actor == EntityName("i", "Merger")
    assert record.targets == ("O1", "O2")

    state = monitor.init(base_kb(), (EVENT,), upper_namespace="up")
    state = enqueue_event(state, assertion)
    state = record_action(state, record)
    for _ in range(4):
        state = tick(state)
    assert state.kb.closures[EVENT].members == frozenset({EntityName("i", "Merge_3")})


# --- incremental ticks against fresh computation ----------------------------

FIXTURE_EXTERNAL = """namespace X
class X:Happening
class X:Staff
assert X:Happening(E3)
assert X:Happening(E17)
assert X:Happening(Late)
assert X:Staff(A7)
assert X:Staff(Bot)
assert X:Staff(Nobody)
"""
FIXTURE_MAPPINGS = """map m1: up:Action(x) <- X:Happening(x) ; P(0.6)
map m2: up:Event(x) <- X:Happening(x) ; P(0.7)
map m3: up:Agent(x) <- X:Staff(x) ; P(0.8)
map m4: up:Instant(x) <- X:Happening(x) ; P(0.3)
"""


def generated_episode(rng: random.Random, ticks: int):
    """Ontology, events, external ontology and mappings of a random monitor run."""
    onto = ["namespace O", "subclass up:Action up:Event", "disjoint up:Agent up:Event",
            "union up:TemporalEntity = up:Instant | up:Interval", "property O:rel",
            "domain O:rel O:C0", "range O:rel O:C2", "rule r1: O:C1(x), O:rel(x, y) -> O:C3(y)"]
    onto += [f"subclass O:C{k} O:C{k + 1}" for k in range(3)]
    people = [f"x{i}" for i in range(8)]
    onto += [f"assert O:C{rng.randrange(4)}({x})" for x in people[:4]]
    onto += ["assert up:Agent(a0)", "assert up:Agent(a1)"]
    script = ["namespace O"]
    for k in range(ticks // 2):
        when = round(rng.uniform(0.01, ticks), 3)
        if rng.random() < 0.5:
            script.append(f"at {when} assert O:C{rng.randrange(4)}({rng.choice(people)})")
        else:
            a, b = rng.sample(people, 2)
            script.append(f"at {when} assert O:rel({a}, {b})")
        if rng.random() < 0.3:
            script.append(f"at {when} action act{k} O:Review by a{rng.randrange(2)} target T{k % 3} T3")
    external = ["namespace X", "class X:Obs", "property X:link"] + [f"assert X:Obs({x})" for x in rng.sample(people, 4)]
    external += [f"assert X:link({a}, {b})" for a, b in (rng.sample(people, 2) for _ in range(4))]
    mappings = [f"map m1: O:C0(x) <- X:Obs(x) ; P({rng.uniform(0.5, 0.9):.2f})",
                f"map m2: O:rel(x, y) <- X:link(x, y) ; P({rng.uniform(0.5, 0.9):.2f})",
                f"map m3: O:C3(x) <- X:Obs(x) ; P({rng.uniform(0.1, 0.4):.2f})"]
    review, approve, ship = (EntityName("O", kind) for kind in ("Review", "Approve", "Ship"))  # no action is a Ship
    propositions = [
        TemporalProposition(f"p{i}", Polarity.POSITIVE, ActionPattern(review, f"T{i % 3}"),
                            Interval(float(i), float(i + 4)))
        for i in range(0, ticks, 3)
    ]
    windows = [(0.0, 0.0), (0.0, 0.5), (0.25, 0.75),  # over before t=1
               (2.0, 2.0), (2.5, 2.5),  # zero length, on and off a whole tick
               (1.0, 6.0), (3.5, 6.0)]  # a shared end on a whole tick
    for _ in range(ticks // 2):
        start = rng.randrange(ticks) + rng.choice([0.0, 0.5])
        windows.append((start, start + rng.choice([0.0, 0.5, 1.0, 2.25, 4.0])))
    for i, window in enumerate(windows):
        pattern = ActionPattern(rng.choice([review, approve, ship]), rng.choice([None, "T0", "T1"]))
        propositions.append(TemporalProposition(f"q{i}", rng.choice(list(Polarity)), pattern, Interval(*window)))
    # actions of a second kind, and a tick whose events and actions are enqueued out of time order
    for k in range(ticks // 3):
        script.append(f"at {round(rng.uniform(0.01, ticks), 3)} action apr{k} O:Approve by a{rng.randrange(2)} "
                      f"target T{k % 2} T3")
    t = rng.randrange(ticks)
    script += [f"at {t + 0.75} assert O:C{rng.randrange(4)}({rng.choice(people)})",
               f"at {t + 0.25} assert O:C{rng.randrange(4)}({rng.choice(people)})",
               f"at {t + 0.6} action late{t} O:Approve by a0 target T1 T3",
               f"at {t + 0.4} action early{t} O:Review by a1 target T0 T3"]
    return (parse_ontology("\n".join(onto) + "\n"), parse_events("\n".join(script) + "\n"),
            parse_ontology("\n".join(external) + "\n"), parse_mappings("\n".join(mappings) + "\n"),
            propositions)


def tick_against_fresh_computation(kb, closed, events, external, mappings, propositions, ticks):
    policy = MergePolicy(0.25)
    accepted = policy.accept(mappings)
    state = monitor.init(kb, closed, propositions)
    for e in events:
        state = enqueue_event(state, e) if isinstance(e, ABoxAssertion) else record_action(state, e)
    quiet = 0
    for _ in range(ticks):
        before = state
        state = tick(state, policy, mappings, external)
        drained = any(" step=a " in line for line in state.event_log[len(before.event_log):])
        if before.merged is not None and not drained:
            assert state.merged.derived is before.merged.derived  # nothing new: reused
            quiet += 1
        fresh = merge(state.merged.local, external, accepted)
        assert state.merged == fresh
        assert [(a, f.paths, f.probability) for a, f in state.merged.derived.items()] == [
            (a, f.paths, f.probability) for a, f in fresh.derived.items()
        ]
        assert saturate(state.kb) == reference_saturate(state.kb)
        assert list(state.propositions) == step_all(propositions, state.action_log, state.clock)
    replayed = monitor.replay_log(state.event_log, kb, closed, propositions, "up", policy, mappings, external)
    assert replayed.event_log == state.event_log
    assert quiet > 0
    return state


def test_incremental_ticks_equal_fresh_merges_on_the_fixture_script(fixture_text):
    kb = parse_ontology(fixture_text("monitor_base.onto"))
    events = parse_events(fixture_text("monitor_script.evt"))
    state = tick_against_fresh_computation(
        kb, (EVENT, AGENT), events, parse_ontology(FIXTURE_EXTERNAL), parse_mappings(FIXTURE_MAPPINGS), (), 52
    )
    assert state.merged.derived.get(ClassAtom(EVENT, ind("E3"))).paths == frozenset(
        {frozenset(), frozenset({"m1"}), frozenset({"m2"})}
    )


@pytest.mark.parametrize("seed", [5])
def test_incremental_ticks_equal_fresh_merges_on_a_generated_episode(seed):
    kb, events, external, mappings, propositions = generated_episode(random.Random(seed), 30)
    state = tick_against_fresh_computation(
        kb, (EVENT, EntityName("O", "C3")), events, external, mappings, propositions, 32
    )
    assert len(state.kb.abox) > len(kb.abox) and any(p.terminal for p in state.propositions)


@pytest.mark.parametrize("seed", [3])
def test_each_tick_stores_the_possible_worlds_probabilities(seed):
    kb, events, external, mappings, propositions = generated_episode(random.Random(seed), 16)
    # O:Hot(x) needs m4 and one of m1, m2: overlapping paths {m1, m4}, {m2, m4}
    x = Variable("x")
    hot = HornRule("r2", (ClassAtom(EntityName("O", "C1"), x), ClassAtom(EntityName("O", "Tag"), x)),
                   ClassAtom(EntityName("O", "Hot"), x))
    kb = assert_all(kb, [hot])
    mappings = (*mappings, *parse_mappings("map m4: O:Tag(x) <- X:Obs(x) ; P(0.65)\n"))
    policy = MergePolicy(0.25)
    accepted = policy.accept(mappings)
    state = monitor.init(kb, (EVENT,), propositions)
    for e in events:
        state = enqueue_event(state, e) if isinstance(e, ABoxAssertion) else record_action(state, e)
    overlapping = 0
    for _ in range(17):
        state = tick(state, policy, mappings, external)
        want = world_atom_probabilities(state.merged.local, external, accepted)
        assert set(state.merged.derived) == set(want)
        for atom, fact in state.merged.derived.items():
            assert abs(fact.probability - want[atom]) <= 1e-12, (atom, fact.paths)
            overlapping += len(fact.mapping_ids()) < sum(map(len, fact.paths))
    assert overlapping > 0


# --- branching histories of persistent states ---------------------------------


def observe(state: MonitorState) -> tuple:
    """Everything a caller can read from ``state``, in a form that compares by value.

    It reads the saturation and members through the KB's memo, and the
    query through the merge's fixpoint state, which later states may
    have taken over.
    """
    kb, merged = state.kb, state.merged
    concepts = (EVENT, AGENT, *(EntityName("O", f"C{k}") for k in range(4)))
    members = [sorted(map(str, entailed_members(kb, c))) for c in concepts]
    facts = answers = None
    if merged is not None:
        facts = [(str(a), sorted(map(sorted, f.paths)), repr(f.probability))
                 for a, f in merged.derived.items()]
        answers = [(a.binding, repr(a.probability)) for a in query(merged, parse_query("O:C3(x) & O:C0(x)"))]
    closures = [(str(c), r.closed_at, sorted(map(str, r.members))) for c, r in kb.closures.items()]
    return (state.clock, list(kb.abox.items()), sorted(map(str, saturate(kb))), members, closures,
            facts, answers, [p.state for p in state.propositions], state.action_log, state.event_log,
            state.pending_events, state.pending_actions)


def digest(state: MonitorState) -> str:
    return hashlib.sha256(repr(observe(state)).encode()).hexdigest()


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_branching_histories_of_monitor_states_match_fresh_computation(seed):
    """Monitor states are values that share their memo and merge state with
    their successors, and a successor takes that state over in place.  Any
    pooled state may be extended or ticked again, so histories branch; after
    every step each pooled state must still read what it read when it was
    made, and that must be what a computation from scratch gives."""
    rng = random.Random(seed)
    kb, _, external, mappings, propositions = generated_episode(rng, 12)
    closed, policy = (EVENT, EntityName("O", "C3")), MergePolicy(0.25)
    accepted = policy.accept(mappings)
    people = [f"x{i}" for i in range(8)]
    made: dict[int, tuple[MonitorState, str]] = {}  # by id: the state, kept alive, and its digest when made

    def admit(state: MonitorState) -> MonitorState:
        assert saturate(state.kb) == reference_saturate(state.kb)
        if state.merged is not None:
            fresh = merge(state.merged.local, external, accepted)
            assert state.merged.local.abox == state.kb.abox
            assert [(a, f.paths, repr(f.probability)) for a, f in state.merged.derived.items()] == [
                (a, f.paths, repr(f.probability)) for a, f in fresh.derived.items()
            ]
        assert list(state.propositions) == step_all(propositions, state.action_log, state.clock)
        replayed = monitor.replay_log(state.event_log, kb, closed, propositions, "up", policy, mappings,
                                      external)
        assert (replayed.clock, replayed.kb, replayed.merged) == (state.clock, state.kb, state.merged)
        assert (replayed.event_log, replayed.action_log) == (state.event_log, state.action_log)
        made[id(state)] = (state, digest(state))
        return state

    pool = [admit(monitor.init(kb, closed, propositions))]
    for step in range(12):
        state = rng.choice(pool)
        at = state.clock + rng.choice([0.25, 0.5, 1.0, 1.75, 2.5])
        roll = rng.random()
        if roll < 0.3:
            a, b = rng.sample(people, 2)
            atom = parse_ground_atom(rng.choice([f"O:C{rng.randrange(4)}(i:{a})", f"O:rel(i:{a}, i:{b})"]))
            state = enqueue_event(state, ABoxAssertion(atom, at))
        elif roll < 0.45:
            actor, target = EntityName("i", f"a{rng.randrange(2)}"), f"T{rng.randrange(3)}"
            kind = EntityName("O", rng.choice(["Review", "Approve"]))
            state = record_action(state, ActionRecord(at, f"act{step}", kind, actor, (target,)))
        else:
            state = tick(state, policy, mappings, external)
        pool.append(admit(state))
        if len(pool) > 4:
            pool.pop(rng.randrange(len(pool) - 1))  # any state but the newest
        for state in pool:
            assert digest(state) == made[id(state)][1]


# --- an ingesting tick costs what it ingests -------------------------------------


def grown_monitor(size: int) -> tuple[MonitorState, MergePolicy, list, KnowledgeBase]:
    """A monitor over ``size`` individuals on a subclass chain, with a rule, mappings and one closed concept."""
    onto = ["namespace O", "property O:rel", "domain O:rel O:C0", "range O:rel O:C2",
            "rule r1: O:C1(x), O:rel(x, y) -> O:C3(y)"] + [f"subclass O:C{k} O:C{k + 1}" for k in range(5)]
    onto += [f"assert O:C{k % 6}(x{k})" for k in range(size)] + [f"assert O:rel(x{k}, x{k + 7})" for k in range(8)]
    external = parse_ontology("namespace X\nclass X:Obs\n" + "".join(f"assert X:Obs(x{k})\n" for k in range(10)))
    mappings = parse_mappings("map m1: O:C0(x) <- X:Obs(x) ; P(0.7)\nmap m2: O:C4(x) <- X:Obs(x) ; P(0.3)\n")
    state = monitor.init(parse_ontology("\n".join(onto) + "\n"), (EntityName("O", "C5"),))
    return state, MergePolicy(0.0), mappings, external


def test_an_ingesting_tick_indexes_as_many_atoms_at_any_abox_size(monkeypatch):
    """The engine files an atom under its predicate (``kb.atom_predicate``) when it
    indexes or joins it: an ingesting tick must do that as often over 2,000
    individuals as over 200, so its cost follows what it ingests."""
    calls = []
    counted = ontoflux.kb.atom_predicate
    monkeypatch.setattr(ontoflux.kb, "atom_predicate", lambda atom: calls.append(atom) or counted(atom))
    counts = {}
    for size in (200, 2000):
        state, policy, mappings, external = grown_monitor(size)
        state = tick(state, policy, mappings, external)  # the first saturation and merge start from scratch
        per_tick = []
        for n in range(2, 8):
            atom = ClassAtom(EntityName("O", f"C{n % 3}"), ind(f"new{n}"))
            state = enqueue_event(state, ABoxAssertion(atom, n - 0.5))
            calls.clear()
            state = tick(state, policy, mappings, external)
            per_tick.append(len(calls))
            assert atom in saturate(state.kb) and state.merged.derived.get(atom) is not None
        counts[size] = per_tick
    assert counts[200] == counts[2000] and min(counts[200]) > 0


# --- an idle tick costs nothing per pending proposition or queued event ---------


def deadline_monitor(count: int, first_end: float) -> MonitorState:
    """A monitor with ``count`` pending propositions of kinds O:K0..O:K3, both
    polarities, whose windows end at ``first_end`` and at the six half units after it."""
    propositions = [
        TemporalProposition(f"p{i}", Polarity.POSITIVE if i % 3 else Polarity.NEGATIVE,
                            ActionPattern(EntityName("O", f"K{i % 4}")), Interval(0.0, first_end + (i % 7) / 2))
        for i in range(count)
    ]
    return monitor.init(base_kb(), (EVENT,), propositions)


def counting_advance(monkeypatch) -> list:
    """Record each proposition ``temporal.step_all`` advances."""
    advanced = []
    counted = ontoflux.temporal._advance
    monkeypatch.setattr(ontoflux.temporal, "_advance",
                        lambda prop, log, now: advanced.append(prop) or counted(prop, log, now))
    return advanced


@pytest.mark.parametrize("count", [0, 200, 2000])
def test_an_idle_tick_advances_no_proposition(monkeypatch, count):
    advanced = counting_advance(monkeypatch)
    state = tick(deadline_monitor(count, 10.0))
    assert advanced == [] and len(state.propositions) == count
    assert not any(p.terminal for p in state.propositions)


def test_a_due_action_advances_its_kind_and_the_expired_propositions_only(monkeypatch):
    kind = EntityName("O", "K1")
    state = deadline_monitor(200, 1.5)
    state = tick(tick(state))  # the windows ending at 1.5 are over
    state = record_action(state, ActionRecord(2.5, "go", kind, EntityName("i", "Bot")))
    advanced = counting_advance(monkeypatch)
    after = tick(state)
    expected = [p for p in state.propositions if not p.terminal and (p.pattern.kind == kind or p.window.end < 3.0)]
    assert advanced == expected
    assert any(p.pattern.kind != kind for p in expected) and any(p.window.end >= 3.0 for p in expected)
    assert list(after.propositions) == step_all(deadline_monitor(200, 1.5).propositions, after.action_log, 3.0)


def test_an_idle_tick_leaves_long_queues_untouched():
    events = [event(10.5 + k / 1000, f"E{k}") for k in range(8000)]
    events += [action(10.25 + k / 1000, f"a{k}") for k in range(8000)]
    state, _ = monitor.run(monitor.init(base_kb(), (EVENT,)), 2, events=events)
    after = tick(state)
    assert after.pending_events is state.pending_events and after.pending_actions is state.pending_actions
    assert after.action_log == () and len(after.pending_events) == len(after.pending_actions) == 8000
