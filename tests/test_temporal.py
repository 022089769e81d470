import dataclasses
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ontoflux.errors import MalformedItemError, MissingAxiomError, UnsortedLogError
from ontoflux.kb import EntityName, KnowledgeBase, assert_all
from ontoflux.temporal import (
    ActionPattern,
    ActionRecord,
    Instant,
    Interval,
    Polarity,
    PropState,
    TemporalKind,
    TemporalProposition,
    classify,
    step_all,
    step_proposition,
    upper_ontology,
    validate_upper_ontology,
)

MERGE = EntityName("up", "MergeAction")
OTHER = EntityName("up", "CleanupAction")


def record(at: float, kind: EntityName = MERGE, targets: tuple[str, ...] = ()) -> ActionRecord:
    return ActionRecord(at, f"a{at}", kind, EntityName("i", "Bot"), targets)


def obligation(start: float, end: float, target=None) -> TemporalProposition:
    return TemporalProposition("ob", Polarity.POSITIVE, ActionPattern(MERGE, target), Interval(start, end))


def prohibition(start: float, end: float, target=None) -> TemporalProposition:
    return TemporalProposition("pr", Polarity.NEGATIVE, ActionPattern(MERGE, target), Interval(start, end))


def test_classify_distinguishes_instants_from_intervals():
    assert classify(Instant(1.5)) is TemporalKind.INSTANT
    assert classify(Interval(0.0, 2.0)) is TemporalKind.INTERVAL
    with pytest.raises(MalformedItemError):
        classify("noon")


@pytest.mark.parametrize("at", [math.nan, math.inf, -math.inf])
def test_an_instant_must_be_finite(at):
    with pytest.raises(MalformedItemError):
        Instant(at)


def test_interval_is_closed_and_ordered():
    window = Interval(2.0, 5.0)
    assert window.contains(2.0) and window.contains(5.0)
    assert not window.contains(1.999) and not window.contains(5.001)
    assert window.end - window.start == 3.0
    with pytest.raises(MalformedItemError):
        Interval(3.0, 1.0)


def test_upper_ontology_validates_itself():
    kb = assert_all(KnowledgeBase(), upper_ontology())
    validate_upper_ontology(kb)


def test_missing_axioms_are_each_reported():
    axioms = upper_ontology()
    kb = assert_all(KnowledgeBase(), axioms[:1])
    with pytest.raises(MissingAxiomError) as err:
        validate_upper_ontology(kb)
    assert len(err.value.missing) == 2
    assert any("disjoint" in label for label in err.value.missing)
    assert any("union" in label for label in err.value.missing)


def test_action_record_rejects_negative_time():
    with pytest.raises(MalformedItemError):
        record(-0.5)


@pytest.mark.parametrize("at", [math.nan, math.inf, -math.inf])
def test_action_record_rejects_non_finite_time(at):
    with pytest.raises(MalformedItemError):
        record(at)


@pytest.mark.parametrize("start, end", [(0.0, math.nan), (math.nan, 1.0), (0.0, math.inf), (-math.inf, 1.0)])
def test_interval_rejects_non_finite_endpoints(start, end):
    with pytest.raises(MalformedItemError):
        Interval(start, end)


def test_pattern_matches_kind_and_optional_target():
    r = record(1.0, targets=("O2",))
    assert ActionPattern(MERGE).matches(r)
    assert ActionPattern(MERGE, "O2").matches(r)
    assert not ActionPattern(MERGE, "O3").matches(r)
    assert not ActionPattern(OTHER).matches(r)


# The three deadline scenarios: an obligation met inside its window, an
# obligation that expires unmet, and a prohibition broken by a match.


def test_obligation_fulfilled_by_match_inside_window():
    prop = obligation(2.0, 5.0)
    log = [record(3.0)]
    assert step_proposition(prop, log, now=2.5).state is PropState.PENDING
    assert step_proposition(prop, log, now=3.0).state is PropState.FULFILLED


def test_obligation_violated_once_window_expires():
    prop = obligation(2.0, 5.0)
    log = [record(1.0), record(6.0)]  # both fall outside the window
    assert step_proposition(prop, log, now=5.0).state is PropState.PENDING
    assert step_proposition(prop, log, now=5.001).state is PropState.VIOLATED


def test_prohibition_violated_by_match():
    prop = prohibition(2.0, 5.0)
    log = [record(4.0)]
    assert step_proposition(prop, log, now=3.0).state is PropState.PENDING
    assert step_proposition(prop, log, now=4.0).state is PropState.VIOLATED
    quiet = step_proposition(prohibition(2.0, 5.0), [], now=6.0)
    assert quiet.state is PropState.FULFILLED


def test_boundary_matches_count():
    assert step_proposition(obligation(2.0, 5.0), [record(2.0)], 2.0).state is PropState.FULFILLED
    assert step_proposition(obligation(2.0, 5.0), [record(5.0)], 5.0).state is PropState.FULFILLED


def test_terminal_states_never_change():
    done = step_proposition(obligation(2.0, 5.0), [record(3.0)], now=3.0)
    assert done.terminal
    # later evidence, even a contradicting empty log, leaves it alone
    assert step_proposition(done, [], now=100.0) is done


def test_unsorted_log_is_rejected():
    with pytest.raises(UnsortedLogError):
        step_proposition(obligation(0.0, 9.0), [record(5.0), record(1.0)], now=6.0)


def test_step_all_advances_every_proposition():
    props = [obligation(0.0, 2.0), prohibition(0.0, 2.0)]
    after = step_all(props, [record(1.0)], now=1.0)
    assert [p.state for p in after] == [PropState.FULFILLED, PropState.VIOLATED]


# --- generated-log properties --------------------------------------------

quarter = st.integers(0, 40).map(lambda q: q / 4.0)


@st.composite
def windows(draw):
    a, b = sorted((draw(quarter), draw(quarter)))
    return Interval(a, b)


@st.composite
def logs(draw):
    times = sorted(draw(st.lists(quarter, max_size=6)))
    kinds = [draw(st.sampled_from([MERGE, OTHER])) for _ in times]
    return [
        ActionRecord(t, f"a{i}", kind, EntityName("i", "Bot"))
        for i, (t, kind) in enumerate(zip(times, kinds))
    ]


@st.composite
def propositions(draw):
    return TemporalProposition(
        f"p{draw(st.integers(0, 9))}",
        draw(st.sampled_from(Polarity)),
        ActionPattern(draw(st.sampled_from([MERGE, OTHER]))),
        draw(windows()),
        draw(st.sampled_from(PropState)),
    )


def _outcome(step):
    """What ``step()`` returns, or the message of the ``UnsortedLogError`` it raises."""
    try:
        return step()
    except UnsortedLogError as exc:
        return str(exc)


SETTLED = [dataclasses.replace(obligation(0.0, 1.0), state=state) for state in (PropState.FULFILLED, PropState.VIOLATED)]
UNSORTED = [record(5.0), record(1.0)]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(propositions(), max_size=4),
    logs() | st.lists(quarter, max_size=5).map(lambda times: [record(t) for t in times]),
    quarter,
)
@example([], UNSORTED, 6.0)
@example(SETTLED, UNSORTED, 6.0)
@example(SETTLED, [record(1.0)], 6.0)
def test_step_all_equals_stepping_each_proposition(props, log, now):
    # each result is paired with whether it is the proposition passed in
    def each():
        return [(q, q is p) for p, q in ((p, step_proposition(p, log, now)) for p in props)]

    def together():
        return [(q, q is p) for p, q in zip(props, step_all(props, log, now))]

    assert _outcome(together) == _outcome(each)


@settings(max_examples=300, deadline=None)
@given(windows(), logs(), st.lists(quarter, min_size=1, max_size=5))
def test_states_move_once_and_stick(window, log, nows):
    prop = TemporalProposition("p", Polarity.POSITIVE, ActionPattern(MERGE), window)
    seen = [prop.state]
    for now in sorted(nows):
        prop = step_proposition(prop, log, now)
        seen.append(prop.state)
    changes = sum(1 for a, b in zip(seen, seen[1:]) if a is not b)
    assert changes <= 1
    if PropState.PENDING not in seen[1:]:
        assert seen[1] is seen[-1]


@settings(max_examples=300, deadline=None)
@given(windows(), logs(), quarter)
def test_polarity_duality_after_window_closes(window, log, extra):
    now = window.end + 0.25 + extra
    pos = step_proposition(
        TemporalProposition("p", Polarity.POSITIVE, ActionPattern(MERGE), window), log, now
    )
    neg = step_proposition(
        TemporalProposition("n", Polarity.NEGATIVE, ActionPattern(MERGE), window), log, now
    )
    assert pos.state is not PropState.PENDING and neg.state is not PropState.PENDING
    assert (pos.state is PropState.FULFILLED) == (neg.state is PropState.VIOLATED)


@settings(max_examples=300, deadline=None)
@given(
    windows(),
    logs(),
    st.lists(quarter, min_size=1, max_size=5),
    st.sampled_from([Polarity.POSITIVE, Polarity.NEGATIVE]),
)
def test_stepping_schedule_does_not_matter(window, log, nows, polarity):
    final = max(nows)
    prop = TemporalProposition("p", polarity, ActionPattern(MERGE), window)
    one_shot = step_proposition(prop, log, final)
    stepped = prop
    for now in sorted(nows):
        stepped = step_proposition(stepped, log, now)
    assert stepped.state is one_shot.state


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_stepping_each_tick_on_its_new_records_equals_stepping_on_the_whole_log(seed):
    # the monitor steps its propositions on the actions drained in each tick only
    rng = random.Random(seed)
    ticks = 12
    times = sorted(round(rng.uniform(0.01, ticks), 2) for _ in range(rng.randint(0, 10)))
    log = [
        ActionRecord(t, f"a{i}", rng.choice([MERGE, OTHER]), EntityName("i", "Bot"), (rng.choice("AB"),))
        for i, t in enumerate(times)
    ]
    props = []
    for i in range(8):
        start = rng.randint(0, ticks)
        pattern = ActionPattern(MERGE, rng.choice([None, "A", "B"]))
        polarity = rng.choice([Polarity.POSITIVE, Polarity.NEGATIVE])
        props.append(TemporalProposition(f"p{i}", polarity, pattern, Interval(start, start + rng.randint(0, 4))))
    on_new, on_log = props, props
    for now in range(1, ticks + 2):
        on_new = step_all(on_new, [r for r in log if now - 1 < r.at <= now], now)
        on_log = step_all(on_log, [r for r in log if r.at <= now], now)
        assert [p.state for p in on_new] == [p.state for p in on_log]
