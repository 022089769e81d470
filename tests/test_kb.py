import contextlib
import copy
import dataclasses
import functools
import math
import operator
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ontoflux
import ontoflux.kb as kb_module
from helpers import match_body, match_rule_body, random_assertion, random_kb, reference_saturate
from ontoflux.errors import MalformedItemError
from ontoflux.kb import (
    ABoxAssertion,
    AllValuesFrom,
    ClassAtom,
    ClosureRecord,
    DisjointClasses,
    EntityName,
    HornRule,
    Individual,
    KnowledgeBase,
    PropertyAtom,
    PropertyDomain,
    PropertyRange,
    SubClassOf,
    Truth,
    UnionEquivalence,
    Variable,
    Violation,
    assert_all,
    assert_item,
    atom_terms,
    check_all_values_from,
    check_disjointness,
    close_class,
    entailed_members,
    index_args,
    index_facts,
    is_ground,
    is_member,
    saturate,
)


def n(local: str, ns: str = "O") -> EntityName:
    return EntityName(ns, local)


def ind(token: str) -> Individual:
    return Individual(EntityName("i", token))


EVENT, ACTION, AGENT, ENTITY = n("Event"), n("Action"), n("Agent"), n("Entity")
ABOUT = n("about")


def test_subclass_propagates_membership():
    kb = assert_all(
        KnowledgeBase(),
        [SubClassOf(ACTION, EVENT), ABoxAssertion(ClassAtom(ACTION, ind("move")))],
    )
    assert ClassAtom(EVENT, ind("move")) in saturate(kb)
    assert is_member(kb, n("move", "i"), EVENT) is Truth.TRUE


def test_union_feeds_whole_but_not_parts():
    kb = assert_all(
        KnowledgeBase(),
        [
            UnionEquivalence(ENTITY, (EVENT, AGENT)),
            ABoxAssertion(ClassAtom(AGENT, ind("bot"))),
            ABoxAssertion(ClassAtom(ENTITY, ind("blob"))),
        ],
    )
    assert is_member(kb, n("bot", "i"), ENTITY) is Truth.TRUE
    assert is_member(kb, n("blob", "i"), EVENT) is Truth.UNKNOWN
    assert is_member(kb, n("blob", "i"), AGENT) is Truth.UNKNOWN


def test_domain_and_range_type_the_arguments():
    kb = assert_all(
        KnowledgeBase(),
        [
            PropertyDomain(ABOUT, EVENT),
            PropertyRange(ABOUT, n("Topic")),
            ABoxAssertion(PropertyAtom(ABOUT, ind("trip"), ind("sea"))),
        ],
    )
    assert is_member(kb, n("trip", "i"), EVENT) is Truth.TRUE
    assert is_member(kb, n("sea", "i"), n("Topic")) is Truth.TRUE


def test_horn_rule_fires_only_on_known_individuals():
    x = Variable("x")
    rule = HornRule(
        "r1",
        (ClassAtom(EVENT, x), PropertyAtom(ABOUT, x, ind("sea"))),
        ClassAtom(n("Maritime"), x),
    )
    kb = assert_all(
        KnowledgeBase(),
        [
            rule,
            ABoxAssertion(ClassAtom(EVENT, ind("trip"))),
            ABoxAssertion(ClassAtom(EVENT, ind("gala"))),
            ABoxAssertion(PropertyAtom(ABOUT, ind("trip"), ind("sea"))),
        ],
    )
    derived = saturate(kb)
    assert ClassAtom(n("Maritime"), ind("trip")) in derived
    assert ClassAtom(n("Maritime"), ind("gala")) not in derived


def test_unsafe_rule_is_rejected():
    x, y = Variable("x"), Variable("y")
    with pytest.raises(MalformedItemError):
        HornRule("bad", (ClassAtom(EVENT, x),), PropertyAtom(ABOUT, x, y))
    with pytest.raises(MalformedItemError):
        HornRule("empty", (), ClassAtom(EVENT, x))


def test_disjointness_violation_found_through_inference():
    kb = assert_all(
        KnowledgeBase(),
        [
            SubClassOf(ACTION, EVENT),
            DisjointClasses(AGENT, EVENT),
            ABoxAssertion(ClassAtom(ACTION, ind("mix"))),
            ABoxAssertion(ClassAtom(AGENT, ind("mix"))),
        ],
    )
    violations = check_disjointness(kb)
    assert [v.individual for v in violations] == [n("mix", "i")]
    assert violations[0].axiom == DisjointClasses(AGENT, EVENT)


def test_disjointness_needs_distinct_classes():
    with pytest.raises(MalformedItemError):
        DisjointClasses(EVENT, EVENT)
    with pytest.raises(MalformedItemError):
        UnionEquivalence(ENTITY, (EVENT, EVENT))


def test_membership_is_three_valued():
    kb = assert_all(
        KnowledgeBase(),
        [ABoxAssertion(ClassAtom(EVENT, ind("trip")))],
    )
    assert is_member(kb, n("trip", "i"), EVENT) is Truth.TRUE
    assert is_member(kb, n("ghost", "i"), EVENT) is Truth.UNKNOWN
    closed = close_class(kb, EVENT, now=1.0)
    assert is_member(closed, n("ghost", "i"), EVENT) is Truth.FALSE
    assert is_member(closed, n("trip", "i"), EVENT) is Truth.TRUE


def test_closure_cannot_move_backwards():
    kb = close_class(KnowledgeBase(), EVENT, now=2.0)
    with pytest.raises(ValueError):
        close_class(kb, EVENT, now=1.0)
    again = close_class(kb, EVENT, now=2.0)
    assert again.closures[EVENT] == ClosureRecord(EVENT, frozenset(), 2.0)


@pytest.mark.parametrize("now", [math.nan, math.inf, -1.0])
def test_closure_rejects_a_time_that_is_not_finite_and_nonnegative(now):
    with pytest.raises(ValueError, match=str(now)):
        close_class(KnowledgeBase(), EVENT, now=now)
    kb = close_class(KnowledgeBase(), EVENT, now=5.0)
    with contextlib.suppress(ValueError):
        kb = close_class(kb, EVENT, now=now)  # must record nothing
    with pytest.raises(ValueError):
        close_class(kb, EVENT, now=1.0)  # so closing backwards is still rejected


def test_closure_sees_facts_added_later():
    kb = close_class(KnowledgeBase(), EVENT, now=0.0)
    kb = assert_item(kb, ABoxAssertion(ClassAtom(EVENT, ind("late")), 3.0))
    assert is_member(kb, n("late", "i"), EVENT) is Truth.TRUE
    kb = close_class(kb, EVENT, now=3.0)
    assert kb.closures[EVENT].members == frozenset({n("late", "i")})


def test_reassertion_keeps_earliest_time():
    atom = ClassAtom(EVENT, ind("trip"))
    kb = assert_item(KnowledgeBase(), ABoxAssertion(atom, 5.0))
    kb = assert_item(kb, ABoxAssertion(atom, 2.0))
    kb = assert_item(kb, ABoxAssertion(atom, 9.0))
    assert kb.abox[atom] == 2.0


def test_all_values_from_violation_requires_closed_filler():
    axiom = AllValuesFrom(EVENT, n("keyword"), n("Subject"))
    kb = assert_all(
        KnowledgeBase(),
        [
            axiom,
            ABoxAssertion(ClassAtom(EVENT, ind("trip"))),
            ABoxAssertion(PropertyAtom(n("keyword"), ind("trip"), ind("noise"))),
        ],
    )
    assert check_all_values_from(kb) == []
    closed = close_class(kb, n("Subject"), now=1.0)
    violations = check_all_values_from(closed)
    assert [v.individual for v in violations] == [n("trip", "i")]
    assert violations[0].axiom == axiom


# --- properties over generated knowledge bases ---------------------------


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_saturation_is_monotone(seed):
    rng = random.Random(seed)
    kb = random_kb(rng)
    before = saturate(kb)
    larger = assert_item(kb, random_assertion(rng, kb))
    assert before <= saturate(larger)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_saturation_is_idempotent(seed):
    kb = random_kb(random.Random(seed))
    derived = saturate(kb)
    resaturated = assert_all(kb, [ABoxAssertion(a, 0.0) for a in sorted(derived, key=str)])
    assert saturate(resaturated) == derived


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_closure_matches_entailed_members(seed):
    rng = random.Random(seed)
    kb = random_kb(rng)
    subjects = [a for a in kb.abox if isinstance(a, ClassAtom)]
    concept = subjects[0].concept if subjects else EntityName("A", "C0")
    closed = close_class(kb, concept, now=10.0)
    assert closed.closures[concept].members == frozenset(entailed_members(kb, concept))


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_derived_set_respects_vocabulary_bound(seed):
    kb = random_kb(random.Random(seed))
    derived = saturate(kb)
    individuals = {
        t.name
        for a in derived
        for t in (a.subject,) + ((a.object,) if isinstance(a, PropertyAtom) else ())
        if isinstance(t, Individual)
    }
    classes = {a.concept for a in derived if isinstance(a, ClassAtom)}
    for ax in kb.tbox:
        if isinstance(ax, SubClassOf):
            classes.update((ax.sub, ax.sup))
        elif isinstance(ax, UnionEquivalence):
            classes.add(ax.whole)
            classes.update(ax.parts)
        elif isinstance(ax, (PropertyDomain, PropertyRange)):
            classes.add(ax.concept)
    props = {a.prop for a in derived if isinstance(a, PropertyAtom)}
    bound = len(individuals) * len(classes) + len(individuals) ** 2 * len(props)
    assert len(derived) <= bound
    # no invented individuals: every subject/object was asserted somewhere
    asserted = {
        t.name
        for a in kb.abox
        for t in (a.subject,) + ((a.object,) if isinstance(a, PropertyAtom) else ())
    }
    assert individuals <= asserted


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_membership_answers_are_consistent(seed):
    rng = random.Random(seed)
    kb = random_kb(rng)
    concepts = sorted({a.concept for a in kb.abox if isinstance(a, ClassAtom)}, key=str)
    if not concepts:
        return
    concept = concepts[0]
    closed = close_class(kb, concept, now=5.0)
    members = entailed_members(kb, concept)
    for token in [f"x{i}" for i in range(5)]:
        name = EntityName("i", token)
        answer = is_member(closed, name, concept)
        if name in members:
            assert answer is Truth.TRUE
        else:
            assert answer is Truth.FALSE


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_saturation_matches_the_reference_chainer(seed):
    rng = random.Random(seed)
    kb = random_kb(rng)
    assert saturate(kb) == reference_saturate(kb)
    larger = assert_item(kb, random_assertion(rng, kb))
    assert saturate(larger) == reference_saturate(larger)


@pytest.mark.parametrize("when", [-1.0, math.nan, math.inf, -math.inf])
def test_assertion_time_must_be_finite_and_nonnegative(when):
    with pytest.raises(MalformedItemError):
        ABoxAssertion(ClassAtom(EVENT, ind("late")), when)


@pytest.mark.parametrize("subject", [ind("trip"), Variable("x")])
@pytest.mark.parametrize("obj", [None, ind("sea"), Variable("y")])
def test_only_a_ground_atom_is_asserted(subject, obj):
    atom = ClassAtom(EVENT, subject) if obj is None else PropertyAtom(ABOUT, subject, obj)
    ground = all(isinstance(t, Individual) for t in atom_terms(atom))
    assert is_ground(atom) is ground
    if ground:
        assert ABoxAssertion(atom).atom == atom
    else:
        with pytest.raises(MalformedItemError) as error:
            ABoxAssertion(atom)
        assert str(error.value) == f"A-Box atom must be ground: {atom}"


@pytest.mark.parametrize("when", [-1, -0.5, math.nan, math.inf])
def test_a_rejected_assertion_time_is_named_in_the_error(when):
    with pytest.raises(MalformedItemError) as error:
        ABoxAssertion(ClassAtom(EVENT, ind("late")), when)
    assert str(error.value) == f"asserted_at must be finite and nonnegative, got {when}"


# --- indexed rule join and the per-KB memo --------------------------------


X, Y = Variable("x"), Variable("y")
LINK = n("link")


def test_join_binds_a_repeated_variable_once():
    loop = HornRule("self", (PropertyAtom(LINK, X, X),), ClassAtom(n("Loop"), X))
    kb = assert_all(
        KnowledgeBase(),
        [
            loop,
            ABoxAssertion(PropertyAtom(LINK, ind("a"), ind("a"))),
            ABoxAssertion(PropertyAtom(LINK, ind("a"), ind("b"))),
        ],
    )
    loops = {a for a in saturate(kb) if isinstance(a, ClassAtom) and a.concept == n("Loop")}
    assert loops == {ClassAtom(n("Loop"), ind("a"))}


def test_join_matches_a_constant_individual():
    body = (ClassAtom(EVENT, X), PropertyAtom(ABOUT, X, ind("sea")))
    kb = assert_all(
        KnowledgeBase(),
        [
            HornRule("maritime", body, ClassAtom(n("Maritime"), X)),
            ABoxAssertion(ClassAtom(EVENT, ind("trip"))),
            ABoxAssertion(ClassAtom(EVENT, ind("gala"))),
            ABoxAssertion(PropertyAtom(ABOUT, ind("trip"), ind("sea"))),
            ABoxAssertion(PropertyAtom(ABOUT, ind("gala"), ind("music"))),
        ],
    )
    matched = match_body(body, index_facts(kb.abox))
    assert matched == [{X: ind("trip")}]
    assert ClassAtom(n("Maritime"), ind("trip")) in saturate(kb)
    assert ClassAtom(n("Maritime"), ind("gala")) not in saturate(kb)


def test_join_fires_when_only_the_last_conjunct_is_new():
    body = (ClassAtom(n("A"), X), PropertyAtom(LINK, X, Y), ClassAtom(n("D"), Y))
    old = [ClassAtom(n("A"), ind("a")), PropertyAtom(LINK, ind("a"), ind("b"))]
    new = ClassAtom(n("D"), ind("b"))
    index = index_facts(old + [new])
    assert match_body(body, index, delta=index_facts([new])) == [{X: ind("a"), Y: ind("b")}]
    assert match_body(body, index, delta=index_facts([ClassAtom(n("D"), ind("c"))])) == []

    # D(b) is derived in the first round, so the rule fires on it in the second
    kb = assert_all(
        KnowledgeBase(),
        [HornRule("r", body, ClassAtom(n("H"), X)), SubClassOf(n("C"), n("D"))]
        + [ABoxAssertion(a) for a in old]
        + [ABoxAssertion(ClassAtom(n("C"), ind("b")))],
    )
    assert ClassAtom(n("H"), ind("a")) in saturate(kb)


def facts_read_per_new_atom(unrelated: int) -> float:
    """Facts that a continued fixpoint reads from its indexes, per new ``A``
    atom, beside ``unrelated`` ``rel`` facts whose subjects are never in ``A``.

    The predicate index counts the facts each iteration of a bucket yields,
    and the argument index the facts of each bucket it hands out.
    """
    rule = HornRule("r", (ClassAtom(n("A"), X), PropertyAtom(n("rel"), X, Y)), ClassAtom(n("Q"), X))
    facts = [PropertyAtom(n("rel"), ind(f"u{i}"), ind(f"w{i}")) for i in range(unrelated)]
    facts += [PropertyAtom(n("rel"), ind(f"a{i}"), ind(f"b{i}")) for i in range(20)]
    holds = kb_module._holds
    derived, index, args, _ = kb_module.fixpoint((), [rule], dict.fromkeys(facts, True), holds, holds)
    read = []

    class Bucket(set):
        def __iter__(self):
            read.append(len(self))
            return super().__iter__()

    class Args(dict):
        def get(self, key, default=None):
            bucket = super().get(key, default)
            read.append(len(bucket))
            return bucket

    closed = (derived, {pred: Bucket(bucket) for pred, bucket in index.items()}, Args(args))
    new = dict.fromkeys([ClassAtom(n("A"), ind(f"a{i}")) for i in range(20)], True)
    grown, *_ = kb_module.fixpoint((), [rule], new, holds, holds, closed)
    assert {ClassAtom(n("Q"), ind(f"a{i}")) for i in range(20)} <= grown.keys()
    return sum(read) / 20


def test_a_join_on_a_bound_argument_reads_only_the_facts_with_it():
    assert facts_read_per_new_atom(10) == facts_read_per_new_atom(1_000)


def random_body(rng: random.Random, kb: KnowledgeBase) -> tuple:
    """A rule body over ``kb``'s predicates, with shared variables and constants."""
    atoms = list(kb.abox)
    individuals = sorted({t for a in atoms for t in atom_terms(a)}) or [ind("x0")]
    terms = [Variable("v0"), Variable("v1"), Variable("v2")]

    def term():
        return rng.choice(individuals) if rng.random() < 0.2 else rng.choice(terms)

    body = []
    for _ in range(rng.randint(1, 3)):
        like = rng.choice(atoms) if atoms else ClassAtom(n("C"), ind("x0"))
        if isinstance(like, ClassAtom):
            body.append(ClassAtom(like.concept, term()))
        else:
            body.append(PropertyAtom(like.prop, term(), term()))
    return tuple(body)


def binding_list(bindings) -> list:
    return sorted(sorted((v.token, str(i)) for v, i in b.items()) for b in bindings)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_indexed_joins_give_the_bindings_of_a_plain_scan(seed):
    rng = random.Random(seed)
    kb = random_kb(rng, max_size=12)
    facts = list(saturate(kb))
    body = random_body(rng, kb)
    index, args = index_facts(facts), index_args(facts)
    want = binding_list(match_rule_body(body, facts))
    assert binding_list(match_body(body, index)) == want
    assert binding_list(match_body(body, index, args=args)) == want
    # with a delta: the bindings that use a delta fact, once each
    delta = [a for a in facts if rng.random() < 0.4]
    old = [a for a in facts if a not in delta]
    got = binding_list(match_body(body, index, index_facts(delta), args))
    assert got == binding_list(match_body(body, index, index_facts(delta)))
    stale = binding_list(match_rule_body(body, old))
    assert got == [b for b in want if b not in stale]


def test_memoized_saturation_follows_assertions_and_closures():
    kb = assert_all(KnowledgeBase(), [SubClassOf(ACTION, EVENT)])
    assert saturate(kb) == frozenset()
    grown = assert_item(kb, ABoxAssertion(ClassAtom(ACTION, ind("move"))))
    assert ClassAtom(EVENT, ind("move")) in saturate(grown)
    assert is_member(grown, n("move", "i"), EVENT) is Truth.TRUE
    assert close_class(grown, EVENT, now=1.0).closures[EVENT].members == {n("move", "i")}
    assert saturate(kb) == frozenset()

    closed = close_class(grown, EVENT, now=1.0)
    fresh = close_class(
        assert_all(
            KnowledgeBase(),
            [SubClassOf(ACTION, EVENT), ABoxAssertion(ClassAtom(ACTION, ind("move")))],
        ),
        EVENT,
        now=1.0,
    )
    assert saturate(closed) is saturate(grown)  # a closure keeps its parent's fixpoint
    assert closed == fresh
    assert repr(closed) == repr(fresh)


# --- continuing a saturation ---------------------------------------------


def split_abox(kb: KnowledgeBase, rng: random.Random) -> tuple[KnowledgeBase, list[ABoxAssertion]]:
    """``kb`` with about half its A-Box, and the other half as assertions in a random order."""
    assertions = kb.assertions()
    rng.shuffle(assertions)
    half = len(assertions) // 2
    first = KnowledgeBase(kb.tbox, {}, kb.rbox)
    return assert_all(first, assertions[:half]), assertions[half:]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_saturation_continued_over_new_assertions_equals_a_fresh_one(seed):
    rng = random.Random(seed)
    kb = random_kb(rng, max_size=8)
    grown, rest = split_abox(kb, rng)
    saturate(grown)
    for assertion in rest:
        grown = assert_item(grown, assertion)
        if rng.random() < 0.3:
            saturate(grown)  # continue from here on, or from further back
    fresh = KnowledgeBase(kb.tbox, dict(kb.abox), kb.rbox)
    assert grown == kb
    assert saturate(grown) == saturate(fresh) == reference_saturate(kb)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_tbox_and_rbox_assertions_after_saturation_start_afresh(seed):
    rng = random.Random(seed)
    kb = random_kb(rng, max_size=8)
    bare = assert_all(KnowledgeBase(), kb.assertions())
    saturate(bare)
    for item in sorted(kb.tbox, key=str) + sorted(kb.rbox, key=str):
        bare = assert_item(bare, item)
        if rng.random() < 0.5:
            assert saturate(bare) == reference_saturate(bare)
    assert saturate(bare) == reference_saturate(kb)


def test_new_assertion_extends_the_memo_and_a_known_one_keeps_it():
    kb = assert_all(KnowledgeBase(), [SubClassOf(ACTION, EVENT)])
    kb = assert_item(kb, ABoxAssertion(ClassAtom(ACTION, ind("a")), 2.0))
    before = saturate(kb)
    atoms = frozenset(before)
    # an earlier time for a known atom: the same atoms, so the same saturation
    earlier = assert_item(kb, ABoxAssertion(ClassAtom(ACTION, ind("a")), 1.0))
    assert earlier.abox[ClassAtom(ACTION, ind("a"))] == 1.0
    assert saturate(earlier) is before
    # new atoms continue the last computed saturation, seeded with the atoms
    # past that saturation's A-Box only, and forget it once saturated
    b, c = ClassAtom(ACTION, ind("b")), ClassAtom(AGENT, ind("c"))
    grown = assert_item(assert_item(kb, ABoxAssertion(b)), ABoxAssertion(c))
    assert grown._memo.base is kb._memo  # by identity: a memo compares as a set
    assert grown._memo.since == len(kb.abox) and list(grown.abox)[grown._memo.since:] == [b, c]
    assert saturate(grown) == atoms | {b, ClassAtom(EVENT, ind("b")), c}
    assert grown._memo.base is None
    # the grown KB took the closure over and extended it; the older KB still
    # answers with its own atoms
    assert saturate(kb) is before
    assert before == atoms and len(before) == 2 and b not in before
    assert entailed_members(kb, EVENT) == {n("a", "i")}
    assert is_member(kb, n("b", "i"), ACTION) is Truth.UNKNOWN
    assert entailed_members(grown, EVENT) == {n("a", "i"), n("b", "i")}


def test_an_unsaturated_kb_seeds_its_continuation_with_the_atoms_new_since_the_memo(monkeypatch):
    kb = assert_all(KnowledgeBase(), [SubClassOf(ACTION, EVENT), ABoxAssertion(ClassAtom(ACTION, ind("a")), 2.0)])
    saturate(kb)
    b, c = ClassAtom(ACTION, ind("b")), PropertyAtom(ABOUT, ind("c"), ind("a"))
    grown = assert_item(kb, ABoxAssertion(b, 3.0))
    grown = assert_item(grown, ABoxAssertion(ClassAtom(ACTION, ind("a")), 1.0))  # known, at an earlier time
    grown = assert_item(grown, ABoxAssertion(c, 3.0))
    seeds = []
    engine = kb_module.fixpoint

    def recording(tbox, rbox, given, *rest):
        seeds.append(list(given))
        return engine(tbox, rbox, given, *rest)

    monkeypatch.setattr(kb_module, "fixpoint", recording)
    assert saturate(grown) == reference_saturate(grown)
    assert seeds == [[b, c]]


def test_schema_assertion_after_saturation_derives_the_new_consequences():
    kb = assert_all(
        KnowledgeBase(),
        [ABoxAssertion(ClassAtom(ACTION, ind("a"))), ABoxAssertion(PropertyAtom(ABOUT, ind("a"), ind("b")))],
    )
    assert saturate(kb) == set(kb.abox)
    typed = assert_item(kb, SubClassOf(ACTION, EVENT))
    assert ClassAtom(EVENT, ind("a")) in saturate(typed)
    ruled = assert_item(
        typed, HornRule("r", (PropertyAtom(ABOUT, Variable("x"), Variable("y")),), ClassAtom(ENTITY, Variable("y")))
    )
    assert ClassAtom(ENTITY, ind("b")) in saturate(ruled)
    assert saturate(ruled) == reference_saturate(ruled)


def test_assertions_list_class_and_property_atoms_together():
    kb = assert_all(
        KnowledgeBase(),
        [ABoxAssertion(PropertyAtom(ABOUT, ind("a"), ind("b")), 1.0), ABoxAssertion(ClassAtom(EVENT, ind("a")))],
    )
    assert [str(a.atom) for a in kb.assertions()] == ["O:Event(i:a)", "O:about(i:a, i:b)"]
    assert assert_all(KnowledgeBase(), kb.assertions()) == kb


# --- one-pass bulk assertion ---------------------------------------------------


def memo_lineage(kb: KnowledgeBase) -> tuple:
    """What ``kb``'s memo holds or continues: computed, or its base and the atoms added since.

    The base is given by identity, since a memo compares as a set.
    """
    memo = kb._memo
    added = list(kb.abox)[memo.since:] if memo.base is not None else []
    return memo.closure is not None, id(memo.base), tuple(added)


def random_items(rng: random.Random, kb: KnowledgeBase) -> list:
    """A-Box assertions, new and known, at earlier and later times, and now and then a schema item."""
    donor = random_kb(rng)
    items = [random_assertion(rng, kb) for _ in range(rng.randint(0, 6))]
    known = rng.sample(sorted(kb.abox, key=str), min(2, len(kb.abox)))
    items += [ABoxAssertion(a, rng.choice([0.0, 0.5, 4.0])) for a in known]
    items += donor.assertions()[: rng.randint(0, 3)]
    if rng.random() < 0.3:
        items += sorted(donor.tbox, key=str)[:1] + sorted(donor.rbox, key=str)[:1]
    rng.shuffle(items)
    return items


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_assert_all_equals_asserting_one_by_one(seed):
    rng = random.Random(seed)
    kb = random_kb(rng)
    if rng.random() < 0.5:
        saturate(kb)
    if rng.random() < 0.3:
        kb = assert_item(kb, random_assertion(rng, kb))  # a memo not yet computed, with a base
    items = random_items(rng, kb)
    bulk = assert_all(kb, items)
    folded = functools.reduce(assert_item, items, kb)
    assert bulk == folded and repr(bulk) == repr(folded)
    assert list(bulk.abox.items()) == list(folded.abox.items())  # insertion order too
    assert memo_lineage(bulk) == memo_lineage(folded)
    assert (bulk is kb) == (folded is kb)
    assert (bulk._memo is kb._memo) == (folded._memo is kb._memo)
    assert saturate(bulk) == reference_saturate(folded)


def test_assert_all_copies_the_abox_once_and_shares_it_when_nothing_changes():
    kb = assert_all(KnowledgeBase(), [ABoxAssertion(ClassAtom(EVENT, ind("a")), 1.0)])
    assert assert_all(kb, [ABoxAssertion(ClassAtom(EVENT, ind("a")), 2.0)]) is kb
    typed = assert_all(kb, [SubClassOf(EVENT, ENTITY)])
    assert typed.abox is kb.abox and typed._memo is not kb._memo
    closed = close_class(kb, EVENT, now=1.0)
    assert closed.abox is kb.abox and closed._memo is kb._memo
    with pytest.raises(MalformedItemError):
        assert_all(kb, [ABoxAssertion(ClassAtom(EVENT, ind("b"))), "not an item"])


# --- saturations that outgrow each other ------------------------------------------


def members_in(derived, concept: EntityName) -> set[EntityName]:
    return {a.subject.name for a in derived if isinstance(a, ClassAtom) and a.concept == concept}


def assert_answers_match_the_reference(kb: KnowledgeBase) -> None:
    want = reference_saturate(kb)
    assert saturate(kb) == want and len(saturate(kb)) == len(want)
    assert all(atom in saturate(kb) for atom in want)
    names = {t.name for a in want for t in atom_terms(a)} | {n("nobody", "i")}
    for concept in {a.concept for a in want if isinstance(a, ClassAtom)} | {n("Nowhere")}:
        assert entailed_members(kb, concept) == members_in(want, concept)
        for name in names:
            assert (is_member(kb, name, concept) is Truth.TRUE) == (name in members_in(want, concept))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_a_parent_saturated_before_its_children_keeps_its_answers(seed):
    rng = random.Random(seed)
    kb = random_kb(rng, max_size=8)
    parent, rest = split_abox(kb, rng)
    saturate(parent)
    concept = next((a.concept for a in sorted(kb.abox, key=str) if isinstance(a, ClassAtom)), n("Nowhere"))
    parent = close_class(parent, concept, now=1.0)
    record = parent.closures[concept]
    frozen_members = frozenset(record.members)
    # the first child takes the parent's closure over, a sibling copies the parent's part of it
    first = assert_all(parent, rest[: len(rest) // 2])
    second = assert_all(parent, rest[len(rest) // 2:] + [random_assertion(rng, kb)])
    for child in (first, second, parent, assert_all(first, rest)):
        assert_answers_match_the_reference(child)
    assert_answers_match_the_reference(parent)
    assert record.members == frozen_members == members_in(reference_saturate(parent), concept)
    assert len(record.members) == len(frozen_members)
    assert all(m in record.members for m in frozen_members)
    later = members_in(reference_saturate(assert_all(first, rest)), concept) - frozen_members
    assert not any(m in record.members for m in later)
    grown = close_class(first, concept, now=2.0)
    assert grown.closures[concept].members == members_in(reference_saturate(first), concept)


def test_a_closure_record_keeps_the_members_it_was_closed_with():
    kb = close_class(assert_item(KnowledgeBase(), ABoxAssertion(ClassAtom(EVENT, ind("a")))), EVENT, now=1.0)
    record = kb.closures[EVENT]
    grown = assert_item(kb, ABoxAssertion(ClassAtom(EVENT, ind("b")), 2.0))
    assert is_member(grown, n("b", "i"), EVENT) is Truth.TRUE  # extends the member set the record reads
    assert grown.closures[EVENT] is record and n("b", "i") not in record.members
    assert record.members == {n("a", "i")} and len(record.members) == 1
    assert is_member(kb, n("b", "i"), EVENT) is Truth.FALSE


# --- names and atoms hash once ------------------------------------------------------

PICKLE_SCRIPT = r"""
import pickle, sys
from ontoflux.kb import ClassAtom, EntityName, Individual, PropertyAtom, Variable

def atoms():
    a, b = Individual(EntityName("i", "a")), Individual(EntityName("i", "b"))
    return [EntityName("O", "Event"), a, Variable("x"), ClassAtom(EntityName("O", "Event"), a),
            PropertyAtom(EntityName("O", "rel"), a, b)]

if sys.argv[1] == "dump":
    sys.stdout.buffer.write(pickle.dumps(atoms()))
else:
    loaded, fresh = pickle.loads(sys.stdin.buffer.read()), atoms()
    print(loaded == fresh, all(x in set(fresh) for x in loaded), all(x in set(loaded) for x in fresh),
          [hash(x) for x in loaded] == [hash(x) for x in fresh])
"""


def test_an_atom_pickled_under_one_hash_seed_is_found_under_another():
    package_root = str(Path(ontoflux.__file__).resolve().parent.parent)

    def python(mode: str, seed: str, data: bytes = b"") -> bytes:
        env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root, "PYTHONHASHSEED": seed}
        return subprocess.run([sys.executable, "-c", PICKLE_SCRIPT, mode], input=data,
                              capture_output=True, check=True, env=env).stdout

    assert python("load", "2", python("dump", "1")) == b"True True True True\n"


def test_copies_of_an_atom_are_equal_with_an_equal_hash():
    a, b = ind("a"), ind("b")
    for value in (n("Event"), a, Variable("x"), ClassAtom(EVENT, a), PropertyAtom(ABOUT, a, b)):
        for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert clone == value and hash(clone) == hash(value) and repr(clone) == repr(value)
    assert ClassAtom(EVENT, a) < ClassAtom(EVENT, b) and n("A") < n("B")
    with pytest.raises(AttributeError):
        ClassAtom(EVENT, a).concept = ACTION
    # a saturated KB, whose memo is its saturation, pickles and copies too
    kb = close_class(assert_all(KnowledgeBase(), [SubClassOf(ACTION, EVENT), ABoxAssertion(ClassAtom(ACTION, a))]),
                     EVENT, now=1.0)
    for clone in (copy.deepcopy(kb), pickle.loads(pickle.dumps(kb))):
        assert clone == kb and repr(clone) == repr(kb)
        assert saturate(clone) == saturate(kb) and ClassAtom(EVENT, a) in saturate(clone)
    assert pickle.loads(pickle.dumps(saturate(kb))) == copy.deepcopy(saturate(kb)) == saturate(kb)


VALUE_TYPES = (EntityName, Individual, Variable, ClassAtom, PropertyAtom, ABoxAssertion)
# each value type as the frozen, ordered dataclass it replaces, with the same name and fields
TWINS = {cls: dataclasses.make_dataclass(cls.__name__, cls.__match_args__, frozen=True, order=True)
         for cls in VALUE_TYPES}


def twin(value):
    cls = TWINS.get(type(value))
    return value if cls is None else cls(*(twin(getattr(value, name)) for name in value.__match_args__))


def some_values() -> list:
    names = [n("A"), n("B"), n("A", "P"), n("a", "O")]
    people = [ind("a"), ind("b"), Individual(n("a"))]
    terms = people + [Variable("x"), Variable("y")]
    atoms = [ClassAtom(c, t) for c in names[:3] for t in terms]
    atoms += [PropertyAtom(p, s, o) for p in names[:2] for s in terms[:3] for o in terms[2:]]
    stamped = [ABoxAssertion(atom, at) for atom in atoms if is_ground(atom) for at in (0.0, 2.5)]
    # every value a second time, built anew from equal parts
    return [copy.deepcopy(v) for v in names + terms + atoms + stamped] + names + terms + atoms + stamped


def test_values_compare_and_print_as_the_dataclasses_they_replace():
    values = some_values()
    for a in values:
        assert repr(a) == repr(twin(a))
        for b in values:
            if type(a) is not type(b):
                assert a != b
                continue
            assert (a == b) == (twin(a) == twin(b))
            assert (a != b) == (twin(a) != twin(b))
            if a == b:
                assert hash(a) == hash(b)
            for op in (operator.lt, operator.le, operator.gt, operator.ge):  # or both raise TypeError
                assert outcome(op, a, b) == outcome(op, twin(a), twin(b)), (a, op, b)


def outcome(op, a, b):
    try:
        return op(a, b)
    except TypeError:  # an individual and a variable, or a class and a property atom, do not compare
        return TypeError


@pytest.mark.parametrize("value", some_values()[::7], ids=str)
def test_values_survive_pickling_and_copying_and_refuse_assignment(value):
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert clone == value and hash(clone) == hash(value) and repr(clone) == repr(value)
    for name in (*value.__match_args__, "_hash"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)


@pytest.mark.parametrize(
    "namespace, local, message",
    [("O", "1bad", "bad local token: '1bad'"), ("O", "a-b", "bad local token: 'a-b'"),
     ("O", "", "bad local token: ''"), ("", "ok", "entity namespace must be nonempty")],
)
def test_a_bad_name_is_rejected_with_its_message(namespace, local, message):
    with pytest.raises(MalformedItemError) as error:
        EntityName(namespace, local)
    assert str(error.value) == message


# --- the checks read the memo ---------------------------------------------------------


def reference_violations(kb: KnowledgeBase) -> tuple[list, list]:
    """``check_disjointness`` and ``check_all_values_from``, over the reference saturation."""
    derived = reference_saturate(kb)
    disjoint = [
        Violation(i, ax)
        for ax in sorted(kb.tbox, key=str) if isinstance(ax, DisjointClasses)
        for i in sorted(members_in(derived, ax.a) & members_in(derived, ax.b))
    ]

    def definitely_not(name: EntityName, concept: EntityName) -> bool:
        record = kb.closures.get(concept)
        return name not in members_in(derived, concept) and record is not None and name not in record.members

    universal = [
        Violation(a.subject.name, ax)
        for ax in sorted(kb.tbox, key=str) if isinstance(ax, AllValuesFrom)
        for a in sorted(derived, key=str)
        if isinstance(a, PropertyAtom) and a.prop == ax.prop
        and a.subject.name in members_in(derived, ax.concept) and definitely_not(a.object.name, ax.filler)
    ]
    return disjoint, universal


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_checks_equal_their_reference_over_the_reference_saturation(seed):
    rng = random.Random(seed)
    kb = random_kb(rng, max_size=8)
    classes = sorted({a.concept for a in kb.abox if isinstance(a, ClassAtom)}, key=str) or [n("C0", "A")]
    props = sorted({a.prop for a in kb.abox if isinstance(a, PropertyAtom)}, key=str) or [n("p0", "A")]
    kb = assert_all(kb, [AllValuesFrom(rng.choice(classes), rng.choice(props), rng.choice(classes))
                         for _ in range(rng.randint(1, 3))])
    for concept in rng.sample(classes, rng.randint(0, len(classes))):
        kb = close_class(kb, concept, now=1.0)
    kb = assert_all(kb, [random_assertion(rng, kb) for _ in range(rng.randint(0, 3))])  # closures go stale
    assert (check_disjointness(kb), check_all_values_from(kb)) == reference_violations(kb)
