import copy
import inspect
import math
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
from ontoflux import cli, merging
from ontoflux.io import serialize_mappings, serialize_ontology
from helpers import random_kb, world_atom_probabilities, world_scores, world_support
from ontoflux.errors import (
    LineageTooLargeError,
    MalformedItemError,
    NamespaceClashError,
    ProbabilityOutOfRangeError,
    UnsafeQueryError,
)
from ontoflux.kb import (
    ABoxAssertion,
    ClassAtom,
    EntityName,
    HornRule,
    Individual,
    KnowledgeBase,
    PropertyAtom,
    SubClassOf,
    Variable,
    assert_all,
    assert_item,
    close_class,
)
from ontoflux.merging import (
    Mapping,
    atom_predicate,
    fact_probability,
    merge,
    query,
)

X, Y = Variable("x"), Variable("y")


def local_name(token: str) -> EntityName:
    return EntityName("L", token)


def ext_name(token: str) -> EntityName:
    return EntityName("X", token)


def ind(token: str) -> Individual:
    return Individual(EntityName("i", token))


def class_mapping(mid: str, target: str, source: str, p: float, **kw) -> Mapping:
    return Mapping(mid, ClassAtom(local_name(target), X), ClassAtom(ext_name(source), X), p, **kw)


def kb_of(*items) -> KnowledgeBase:
    return assert_all(KnowledgeBase.empty(), items)


def test_mapping_validation():
    with pytest.raises(ProbabilityOutOfRangeError):
        class_mapping("m", "A", "B", 1.3)
    with pytest.raises(ProbabilityOutOfRangeError):
        class_mapping("m", "A", "B", 0.5, negative_probability=-0.1)
    with pytest.raises(MalformedItemError):
        Mapping("m", ClassAtom(local_name("A"), X), ClassAtom(ext_name("B"), Variable("y")), 0.5)
    with pytest.raises(MalformedItemError):
        Mapping("m", ClassAtom(local_name("A"), X), ClassAtom(local_name("B"), X), 0.5)


def test_merge_rejects_foreign_mapping_targets():
    local = kb_of(ABoxAssertion(ClassAtom(local_name("A"), ind("t"))))
    external = kb_of(ABoxAssertion(ClassAtom(ext_name("B"), ind("t"))))
    stray = Mapping("m", ClassAtom(EntityName("Z", "A"), X), ClassAtom(ext_name("B"), X), 0.5)
    with pytest.raises(NamespaceClashError):
        merge(local, external, [stray])


def test_local_fact_dominates_every_mapping():
    local = kb_of(ABoxAssertion(ClassAtom(local_name("A"), ind("t"))))
    external = kb_of(ABoxAssertion(ClassAtom(ext_name("B"), ind("t"))))
    merged = merge(local, external, [class_mapping("m1", "A", "B", 0.3)])
    fact = merged.fact(ClassAtom(local_name("A"), ind("t")))
    assert fact.probability == 1.0
    assert fact.local
    assert frozenset() in fact.paths and frozenset({"m1"}) in fact.paths


def test_fact_probability_views():
    prob_of = {"m1": 0.3, "m2": 0.5}
    both = frozenset({frozenset(), frozenset({"m1"})})
    assert fact_probability(both, prob_of) == 1.0
    mapped = frozenset({frozenset({"m1"}), frozenset({"m2"})})
    assert fact_probability(mapped, prob_of) == 1.0 - 0.5 * 0.7
    assert fact_probability(frozenset({frozenset({"m1", "m2"})}), prob_of) == 0.15
    assert fact_probability(frozenset(), prob_of) == 0.0


def test_dominated_paths_are_dropped():
    # C(t) via rule over A(t) alone {m1}, and via A(t) plus D(t) {m1, m2}:
    # the superset derivation adds nothing and must not dilute the score.
    local = kb_of(
        HornRule("r1", (ClassAtom(local_name("A"), X),), ClassAtom(local_name("C"), X)),
        HornRule(
            "r2",
            (ClassAtom(local_name("A"), X), ClassAtom(local_name("D"), X)),
            ClassAtom(local_name("C"), X),
        ),
    )
    external = kb_of(
        ABoxAssertion(ClassAtom(ext_name("B"), ind("t"))),
        ABoxAssertion(ClassAtom(ext_name("E"), ind("t"))),
    )
    merged = merge(
        local,
        external,
        [class_mapping("m1", "A", "B", 0.9), class_mapping("m2", "D", "E", 0.5)],
    )
    fact = merged.fact(ClassAtom(local_name("C"), ind("t")))
    assert fact.paths == frozenset({frozenset({"m1"})})
    assert fact.probability == 0.9


def test_two_independent_routes_combine_by_noisy_or():
    local = kb_of(SubClassOf(local_name("A"), local_name("C")))
    external = kb_of(
        ABoxAssertion(ClassAtom(ext_name("B"), ind("t"))),
        ABoxAssertion(ClassAtom(ext_name("D"), ind("t"))),
    )
    merged = merge(
        local,
        external,
        [class_mapping("m1", "A", "B", 0.5), class_mapping("m2", "C", "D", 0.5)],
    )
    fact = merged.fact(ClassAtom(local_name("C"), ind("t")))
    assert fact.probability == 0.75


def test_overlapping_paths_score_exactly():
    # D(t) by A∧B or by A∧C: paths {m1, m2} and {m1, m3} share m1, so the
    # score is P(m1)·P(m2 ∨ m3) = 0.375, not the independent-paths 0.4375
    body = lambda other: (ClassAtom(local_name("A"), X), ClassAtom(local_name(other), X))
    local = kb_of(
        HornRule("r1", body("B"), ClassAtom(local_name("D"), X)),
        HornRule("r2", body("C"), ClassAtom(local_name("D"), X)),
    )
    external = kb_of(*[ABoxAssertion(ClassAtom(ext_name(f"E{k}"), ind("t"))) for k in range(3)])
    mappings = [class_mapping(f"m{k + 1}", name, f"E{k}", 0.5) for k, name in enumerate("ABC")]
    fact = merge(local, external, mappings).fact(ClassAtom(local_name("D"), ind("t")))
    assert fact.paths == frozenset({frozenset({"m1", "m2"}), frozenset({"m1", "m3"})})
    assert fact.probability == 0.375
    assert fact.probability == world_scores(local, external, mappings, [fact.atom])[()]


def test_lineage_over_many_mappings_matches_its_closed_form():
    # Q(t) needs one of 20 A-mappings and one of 8 rel-mappings: 160
    # overlapping two-mapping paths whose exact score is a product of supports
    local = kb_of(
        SubClassOf(local_name("A"), local_name("B")),
        HornRule(
            "r1",
            (ClassAtom(local_name("A"), X), PropertyAtom(local_name("rel"), X, Y)),
            ClassAtom(local_name("Q"), X),
        ),
    )
    external = kb_of(
        *[ABoxAssertion(ClassAtom(ext_name(f"D{k}"), ind("t"))) for k in range(20)],
        *[ABoxAssertion(PropertyAtom(ext_name(f"E{k}"), ind("t"), ind(f"u{k}"))) for k in range(8)],
    )
    p_a = [0.05 + 0.04 * k for k in range(20)]
    p_rel = [0.1 + 0.1 * k for k in range(8)]
    mappings = [class_mapping(f"a{k}", "A", f"D{k}", p) for k, p in enumerate(p_a)]
    mappings += [
        Mapping(f"r{k}", PropertyAtom(local_name("rel"), X, Y), PropertyAtom(ext_name(f"E{k}"), X, Y), p)
        for k, p in enumerate(p_rel)
    ]
    merged = merge(local, external, mappings)
    support_a = 1.0 - math.prod(1.0 - p for p in p_a)
    support_rel = 1.0 - math.prod(1.0 - p for p in p_rel)
    fact = merged.fact(ClassAtom(local_name("Q"), ind("t")))
    assert len(fact.paths) == 160
    assert math.isclose(fact.probability, support_a * support_rel, rel_tol=0.0, abs_tol=1e-12)
    assert math.isclose(merged.fact(ClassAtom(local_name("B"), ind("t"))).probability, support_a, abs_tol=1e-12)
    # Q(t) implies B(t), so the conjunction scores as Q(t) alone
    answers = query(merged, [ClassAtom(local_name("Q"), X), ClassAtom(local_name("B"), X)])
    assert [a.binding for a in answers] == [(("x", EntityName("i", "t")),)]
    assert math.isclose(answers[0].probability, support_a * support_rel, rel_tol=0.0, abs_tol=1e-12)


def test_lineage_beyond_the_work_budget_raises_a_typed_error():
    # 80 conjuncts, each supported by three of 40 mappings: a random
    # monotone CNF, which no split into independent parts simplifies
    rng = random.Random(1)
    items = [SubClassOf(local_name(f"M{k}"), local_name(f"A{i}")) for i in range(80) for k in rng.sample(range(40), 3)]
    external = kb_of(ABoxAssertion(ClassAtom(ext_name("D"), ind("t"))))
    mappings = [class_mapping(f"m{k:02d}", f"M{k}", "D", 0.5) for k in range(40)]
    merged = merge(kb_of(*items), external, mappings)
    with pytest.raises(LineageTooLargeError):
        query(merged, [ClassAtom(local_name(f"A{i}"), X) for i in range(80)])


def test_lineage_nested_past_the_interpreter_stack_raises_a_typed_error():
    # a chain {m000, m001}, {m001, m002}, ... is expanded one link per level
    # of recursion; a lower recursion limit stands in for a longer chain
    chain = frozenset(frozenset({f"m{i:03d}", f"m{i + 1:03d}"}) for i in range(300))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        with pytest.raises(LineageTooLargeError):
            fact_probability(chain, dict.fromkeys(set().union(*chain), 0.5))
    finally:
        sys.setrecursionlimit(limit)


@pytest.fixture
def score_calls(monkeypatch) -> list:
    """The ``_score`` calls made while the test runs, recursive ones included."""
    calls = []
    score = merging._score
    monkeypatch.setattr(merging, "_score", lambda *args: calls.append(args) or score(*args))
    return calls


def test_a_clause_that_needs_the_pivot_skips_the_failed_branch(score_calls):
    # both paths need m1, so the clause fails without it: three calls (the
    # outermost, its expansion on m1 and the branch {m2} or {m3} where m1
    # holds) and none for the branch where m1 fails, which scores 0
    paths = frozenset({frozenset({"m1", "m2"}), frozenset({"m1", "m3"})})
    assert fact_probability(paths, dict.fromkeys(["m1", "m2", "m3"], 0.5)) == 0.375
    assert len(score_calls) == 3


def lineage_scenario(clauses: list[list[frozenset]], prob_of: dict[str, float]):
    """A merge whose fact ``L:A{k}(t)`` has clause ``k`` as its paths: a rule
    per mapped path, a local assertion for the empty path."""
    items = []
    for k, clause in enumerate(clauses):
        head = ClassAtom(local_name(f"A{k}"), X)
        for i, path in enumerate(clause):
            if path:
                body = tuple(ClassAtom(local_name(f"M{m}"), X) for m in sorted(path))
                items.append(HornRule(f"r{k}_{i}", body, head))
            else:
                items.append(ABoxAssertion(ClassAtom(local_name(f"A{k}"), ind("t"))))
    external = kb_of(ABoxAssertion(ClassAtom(ext_name("D"), ind("t"))))
    mappings = [class_mapping(m, f"M{m}", "D", p) for m, p in sorted(prob_of.items())]
    return kb_of(*items), external, mappings


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_exact_scores_equal_possible_worlds_over_random_lineages(seed):
    rng = random.Random(seed)
    prob_of = {f"m{j}": rng.choice([0.0, 0.25, 0.5, 0.7, 1.0, rng.random()]) for j in range(rng.randint(1, 5))}
    ids = sorted(prob_of)

    def path() -> frozenset:
        return frozenset(rng.sample(ids, rng.randint(0 if rng.random() < 0.1 else 1, min(3, len(ids)))))

    clauses = [[path() for _ in range(rng.randint(1, 3))] for _ in range(rng.randint(1, 3))]
    local, external, mappings = lineage_scenario(clauses, prob_of)
    conjuncts = [ClassAtom(local_name(f"A{k}"), X) for k in range(len(clauses))]
    want = world_scores(local, external, mappings, conjuncts).get((("x", EntityName("i", "t")),), 0.0)
    got = merging._score([frozenset(clause) for clause in clauses], prob_of)
    assert math.isclose(got, want, rel_tol=0.0, abs_tol=1e-12), (clauses, prob_of)
    answers = query(merge(local, external, mappings), conjuncts)
    assert math.isclose(answers[0].probability if answers else 0.0, want, rel_tol=0.0, abs_tol=1e-12)


def test_merge_scores_no_fact_until_one_is_read(score_calls):
    clauses = [[frozenset({"m1", "m2"}), frozenset({"m1", "m3"})], [frozenset({"m2"})]]
    prob_of = {"m1": 0.5, "m2": 0.6, "m3": 0.7}
    local, external, mappings = lineage_scenario(clauses, prob_of)
    merged = merge(local, external, mappings)
    grown = assert_item(local, ABoxAssertion(ClassAtom(local_name("M3"), ind("u"))))
    merge(grown, external, mappings, parent=merged)
    assert score_calls == []

    want = world_atom_probabilities(local, external, mappings)
    fact = merged.fact(ClassAtom(local_name("A0"), ind("t")))
    first = fact.probability
    assert score_calls
    assert math.isclose(first, want[fact.atom], rel_tol=0.0, abs_tol=1e-12)
    assert first == fact_probability(fact.paths, prob_of)
    read = len(score_calls)
    assert fact.probability == first
    assert len(score_calls) == read  # the second read is kept, not scored again
    for atom, f in merged.derived.items():
        assert math.isclose(f.probability, want[atom], rel_tol=0.0, abs_tol=1e-12)


def test_pickled_and_copied_merges_read_the_same_probabilities():
    local, external, mappings = lineage_scenario(
        [[frozenset({"m1", "m2"}), frozenset({"m1", "m3"})], [frozenset(), frozenset({"m3"})]],
        {"m1": 0.3, "m2": 0.6, "m3": 0.9},
    )
    unread = merge(local, external, mappings)
    read = merge(local, external, mappings)
    want = [(a, f.paths, f.probability) for a, f in read.derived.items()]
    for merged in (unread, read):
        for copied in (pickle.loads(pickle.dumps(merged)), copy.deepcopy(merged), copy.copy(merged)):
            assert [(a, f.paths, f.probability) for a, f in copied.derived.items()] == want
            assert copied == merged
    fact = next(iter(unread.derived.values()))
    with pytest.raises(AttributeError):
        fact.probability = 0.0


def test_an_oversize_stored_lineage_raises_when_its_probability_is_read(monkeypatch, tmp_path, capsys):
    # no expansion is allowed, so D(t), whose two paths share m1, is oversize;
    # C(t) has one path and needs none
    monkeypatch.setattr(merging, "SCORING_BUDGET", 0)
    local, external, mappings = lineage_scenario(
        [[frozenset({"m1", "m2"}), frozenset({"m1", "m3"})], [frozenset({"m2"})]],
        {"m1": 0.5, "m2": 0.6, "m3": 0.7},
    )
    merged = merge(local, external, mappings)
    assert merged.fact(ClassAtom(local_name("A1"), ind("t"))).probability == 0.6
    with pytest.raises(LineageTooLargeError):
        merged.fact(ClassAtom(local_name("A0"), ind("t"))).probability

    files = [tmp_path / name for name in ("local.onto", "external.onto", "mappings.map")]
    files[0].write_text(serialize_ontology(local), encoding="utf-8")
    files[1].write_text(serialize_ontology(external), encoding="utf-8")
    files[2].write_text(serialize_mappings(mappings), encoding="utf-8")
    assert cli.main(["merge-query", *map(str, files), "L:A1(x)"]) == 0
    assert capsys.readouterr().out == "x=t p=0.600000000\n"
    assert cli.main(["merge-query", *map(str, files), "L:A0(x)"]) == 1


def test_shared_mapping_across_conjuncts_scores_exactly():
    # A(t) and C(t) both hinge on m1 alone, so the joint is p, not p*p.
    local = kb_of(SubClassOf(local_name("A"), local_name("C")))
    external = kb_of(ABoxAssertion(ClassAtom(ext_name("B"), ind("t"))))
    merged = merge(local, external, [class_mapping("m1", "A", "B", 0.6)])
    conjuncts = [ClassAtom(local_name("A"), X), ClassAtom(local_name("C"), X)]
    answers = query(merged, conjuncts)
    assert len(answers) == 1
    assert answers[0].probability == 0.6
    assert not answers[0].approximate


def test_wide_shared_queries_score_exactly():
    subclass = SubClassOf(local_name("A"), local_name("C"))
    conjuncts = [ClassAtom(local_name("A"), X), ClassAtom(local_name("C"), X)]
    for count in (16, 17, 30):
        external = kb_of(
            *[ABoxAssertion(ClassAtom(ext_name(f"B{k}"), ind("t"))) for k in range(count)]
        )
        mappings = [class_mapping(f"m{k}", "A", f"B{k}", 0.5) for k in range(count)]
        answers = query(merge(kb_of(subclass), external, mappings), conjuncts)
        assert len(answers) == 1 and not answers[0].approximate
        # both conjuncts hinge on the same mappings: the joint is either's support
        assert abs(answers[0].probability - (1.0 - 0.5**count)) <= 1e-12


def test_query_needs_a_conjunct_and_sorts_answers():
    local = kb_of(
        ABoxAssertion(ClassAtom(local_name("A"), ind("t1"))),
    )
    external = kb_of(
        ABoxAssertion(ClassAtom(ext_name("B"), ind("t2"))),
    )
    merged = merge(local, external, [class_mapping("m1", "A", "B", 0.4)])
    with pytest.raises(UnsafeQueryError):
        query(merged, [])
    answers = query(merged, [ClassAtom(local_name("A"), X)])
    assert [(a.binding[0][1].local, a.probability) for a in answers] == [("t1", 1.0), ("t2", 0.4)]


def test_ground_query_answers_with_empty_binding():
    local = kb_of()
    external = kb_of(ABoxAssertion(ClassAtom(ext_name("B"), ind("t"))))
    merged = merge(local, external, [class_mapping("m1", "A", "B", 0.7)])
    answers = query(merged, [ClassAtom(local_name("A"), ind("t"))])
    assert answers == [type(answers[0])((), 0.7, False)]


# --- randomized scenarios against the possible-worlds oracle ---------------


def random_scenario(rng: random.Random):
    locals_pool = [local_name(f"C{i}") for i in range(3)]
    ext_pool = [ext_name(f"D{i}") for i in range(3)]
    people = [ind(f"t{i}") for i in range(2)]

    local_items: list = []
    for _ in range(rng.randint(0, 2)):
        a, b = rng.sample(locals_pool, 2)
        local_items.append(SubClassOf(a, b))
    if rng.random() < 0.4:
        body = (ClassAtom(rng.choice(locals_pool), X), ClassAtom(rng.choice(locals_pool), X))
        local_items.append(HornRule("r0", body, ClassAtom(rng.choice(locals_pool), X)))
    for _ in range(rng.randint(0, 2)):
        local_items.append(ABoxAssertion(ClassAtom(rng.choice(locals_pool), rng.choice(people))))

    external_items = [
        ABoxAssertion(ClassAtom(rng.choice(ext_pool), rng.choice(people)))
        for _ in range(rng.randint(1, 4))
    ]

    mappings = []
    for k in range(rng.randint(1, 4)):
        mappings.append(
            Mapping(
                f"m{k}",
                ClassAtom(rng.choice(locals_pool), X),
                ClassAtom(rng.choice(ext_pool), X),
                rng.choice([0.0, 0.1, 0.25, 0.5, 0.8, 0.9, 1.0]),
            )
        )
    conjuncts = [
        ClassAtom(rng.choice(locals_pool), X) for _ in range(rng.randint(1, 2))
    ]
    return kb_of(*local_items), kb_of(*external_items), mappings, conjuncts


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_query_matches_possible_worlds_enumeration(seed, mapped_only):
    rng = random.Random(seed)
    local, external, mappings, conjuncts = random_scenario(rng)
    merged = merge(local, external, mappings)
    got = {a.binding: a.probability for a in query(merged, conjuncts, mapped_only=mapped_only)}
    want = world_scores(local, external, mappings, conjuncts, mapped_only=mapped_only)
    for key in set(got) | set(want):
        assert math.isclose(
            got.get(key, 0.0), want.get(key, 0.0), rel_tol=0.0, abs_tol=1e-12
        ), (key, got.get(key), want.get(key))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_extra_mappings_never_lower_fact_probabilities(seed):
    rng = random.Random(seed)
    local, external, mappings, _ = random_scenario(rng)
    extra = Mapping(
        "extra",
        ClassAtom(local_name(f"C{rng.randint(0, 2)}"), X),
        ClassAtom(ext_name(f"D{rng.randint(0, 2)}"), X),
        rng.choice([0.2, 0.5, 0.9]),
    )
    smaller = merge(local, external, mappings)
    bigger = merge(local, external, mappings + [extra])
    for atom, fact in smaller.derived.items():
        grown = bigger.fact(atom)
        assert grown is not None
        assert grown.probability >= fact.probability - 1e-15


def random_kb_scenario(rng: random.Random):
    """A ``random_kb`` local ontology, with class and property mappings into its vocabulary."""
    local = random_kb(rng)
    vocabulary = [atom_predicate(a) for a in local.abox]
    vocabulary += [atom_predicate(r.head) for r in local.rbox]
    vocabulary += [name for ax in local.tbox for name in vars(ax).values() if isinstance(name, EntityName)]
    ns = vocabulary[0].namespace if vocabulary else "A"
    people = [ind(f"x{i}") for i in range(4)]
    sources = [ext_name(f"D{i}") for i in range(2)]
    link = ext_name("q")
    external = kb_of(
        *[
            ABoxAssertion(ClassAtom(rng.choice(sources), rng.choice(people)))
            for _ in range(rng.randint(1, 4))
        ],
        *[
            ABoxAssertion(PropertyAtom(link, rng.choice(people), rng.choice(people)))
            for _ in range(rng.randint(0, 3))
        ],
    )
    mappings = [
        Mapping(
            f"m{k}",
            ClassAtom(EntityName(ns, f"C{rng.randint(0, 3)}"), X),
            ClassAtom(rng.choice(sources), X),
            0.5,
        )
        for k in range(rng.randint(1, 3))
    ]
    target = PropertyAtom(EntityName(ns, "p0"), X, Y)
    mappings.append(Mapping("mp", target, PropertyAtom(link, X, Y), 0.5))
    return local, external, mappings


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_merged_atoms_are_the_reference_saturation_of_the_all_mappings_world(seed, from_random_kb):
    rng = random.Random(seed)
    if from_random_kb:
        local, external, mappings = random_kb_scenario(rng)
    else:
        local, external, mappings, _ = random_scenario(rng)
    derivable, _ = world_support(local, external, mappings)
    assert set(merge(local, external, mappings).derived) == derivable


def assert_stored_probabilities_exact(merged, local, external, mappings) -> None:
    want = world_atom_probabilities(local, external, mappings)  # no atom of a 0-probability world
    assert set(want) <= set(merged.derived)
    for atom, fact in merged.derived.items():
        assert math.isclose(fact.probability, want.get(atom, 0.0), rel_tol=0.0, abs_tol=1e-12), (
            atom, fact.paths, fact.probability, want.get(atom)
        )


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_stored_probabilities_match_possible_worlds(seed, from_random_kb):
    rng = random.Random(seed)
    if from_random_kb:
        local, external, mappings = random_kb_scenario(rng)
    else:
        local, external, mappings, _ = random_scenario(rng)
    half = split_local(local, rng)
    parent = merge(half, external, mappings)
    assert_stored_probabilities_exact(parent, half, external, mappings)
    continued = merge(local, external, mappings, parent=parent)
    assert_stored_probabilities_exact(continued, local, external, mappings)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_atom_probabilities_are_single_atom_world_scores(seed):
    local, external, mappings, _ = random_scenario(random.Random(seed))
    for atom, p in world_atom_probabilities(local, external, mappings).items():
        assert world_scores(local, external, mappings, [atom]) == {(): p}


BOB = ind("bob")


def shaped_scenario(rng: random.Random):
    """A merge whose mappings and query take every shape a compiled rename or
    plan step can: swapped arguments, a repeated variable, and an individual in
    a mapping's source, its target or a query conjunct."""
    a, b, q, rel = (local_name(token) for token in ("A", "B", "Q", "rel"))
    d, e = ext_name("D"), ext_name("E")
    people = [ind("t0"), ind("t1"), BOB]
    shapes = [
        (ClassAtom(a, X), ClassAtom(d, X)),
        (PropertyAtom(rel, X, Y), PropertyAtom(e, X, Y)),
        (PropertyAtom(rel, Y, X), PropertyAtom(e, X, Y)),  # swapped arguments
        (ClassAtom(a, X), PropertyAtom(e, X, X)),  # a repeated variable
        (ClassAtom(a, X), PropertyAtom(e, X, BOB)),  # an individual in the source
        (PropertyAtom(rel, X, BOB), ClassAtom(d, X)),  # an individual in the target
    ]
    mappings = [Mapping(f"m{k}", *shape, rng.choice([0.1, 0.5, 0.8, 1.0]))
                for k, shape in enumerate(rng.sample(shapes, rng.randint(1, 4)))]
    rules = [
        HornRule("join", (ClassAtom(a, X), PropertyAtom(rel, X, Y)), ClassAtom(q, X)),
        HornRule("loop", (PropertyAtom(rel, X, X),), ClassAtom(q, X)),
        HornRule("to_bob", (PropertyAtom(rel, X, BOB), ClassAtom(a, BOB)), ClassAtom(b, X)),
    ]
    local_items = [rule for rule in rules if rng.random() < 0.5]
    if rng.random() < 0.5:
        local_items.append(SubClassOf(a, b))
    for _ in range(rng.randint(0, 2)):
        fact = rng.choice([ClassAtom(a, rng.choice(people)), PropertyAtom(rel, rng.choice(people), rng.choice(people))])
        local_items.append(ABoxAssertion(fact))
    external_items = [
        ABoxAssertion(rng.choice([ClassAtom(d, rng.choice(people)), PropertyAtom(e, rng.choice(people), rng.choice(people))]))
        for _ in range(rng.randint(1, 5))
    ]
    conjuncts = rng.choice([
        [ClassAtom(a, X)],
        [PropertyAtom(rel, X, Y)],
        [PropertyAtom(rel, X, X)],
        [PropertyAtom(rel, X, BOB)],
        [ClassAtom(a, BOB)],
        [PropertyAtom(rel, BOB, Y), ClassAtom(a, Y)],
        [ClassAtom(a, X), PropertyAtom(rel, X, Y), ClassAtom(a, Y)],
        [ClassAtom(q, X), ClassAtom(b, X)],
    ])
    return kb_of(*local_items), kb_of(*external_items), mappings, conjuncts


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_renames_and_plans_of_every_shape_match_possible_worlds(seed, mapped_only):
    local, external, mappings, conjuncts = shaped_scenario(random.Random(seed))
    merged = merge(local, external, mappings)
    assert_stored_probabilities_exact(merged, local, external, mappings)
    answers = query(merged, conjuncts, mapped_only=mapped_only)
    got = {a.binding: a.probability for a in answers}
    want = world_scores(local, external, mappings, conjuncts, mapped_only=mapped_only)
    for key in set(got) | set(want):
        assert math.isclose(got.get(key, 0.0), want.get(key, 0.0), rel_tol=0.0, abs_tol=1e-12), (
            key, got.get(key), want.get(key)
        )
    # a child merge takes the fixpoint over; the parent answers from its own facts
    grown = assert_item(local, ABoxAssertion(ClassAtom(local_name("A"), ind("t9"))))
    merge(grown, external, mappings, parent=merged)
    assert merged._state.taken
    assert query(merged, conjuncts, mapped_only=mapped_only) == answers


def test_merge_and_query_build_no_atom_by_substitution(monkeypatch):
    calls = []
    counted = kb_module.substitute

    def counter(*args):
        calls.append(args)
        return counted(*args)

    monkeypatch.setattr(kb_module, "substitute", counter)
    monkeypatch.setattr(merging, "substitute", counter, raising=False)  # where merging imported it
    rule = HornRule("join", (ClassAtom(local_name("A"), X), PropertyAtom(local_name("rel"), X, Y)),
                    ClassAtom(local_name("Q"), X))
    local = kb_of(rule, ABoxAssertion(PropertyAtom(local_name("rel"), ind("t0"), BOB)))
    external = kb_of(ABoxAssertion(ClassAtom(ext_name("D"), ind("t0"))))
    merged = merge(local, external, [class_mapping("m1", "A", "D", 0.5)])
    grown = assert_item(local, ABoxAssertion(PropertyAtom(local_name("rel"), ind("t0"), ind("t1"))))
    continued = merge(grown, external, merged.mappings, parent=merged)
    for kb in (merged, continued):
        assert [(a.binding, a.probability) for a in query(kb, [ClassAtom(local_name("Q"), X)])] == [
            ((("x", EntityName("i", "t0")),), 0.5)
        ]
    assert calls == []


HASH_SEED_SCRIPT = r"""
from ontoflux.io import parse_mappings, parse_ontology, parse_query
from ontoflux.merging import fact_probability as f, merge, query
F = frozenset
# three factors whose product rounds differently in different orders
print(repr(f(F({F({"m1"}), F({"m2"}), F({"m3"})}), {"m1": .67, "m2": .71, "m3": .73})))
print(repr(f(F({F({"m1", "m2", "m3"})}), {"m1": .1, "m2": .3, "m3": .7})))
# overlapping paths with tied mapping counts, next to an independent part
print(repr(f(F({F({"a", "b"}), F({"b", "c"}), F({"c", "d"}), F({"d", "a"}), F({"e", "g"}), F({"g", "h"})}),
             dict(a=.67, b=.71, c=.73, d=.79, e=.83, g=.89, h=.97))))
local = parse_ontology("namespace L\nclass L:A\nclass L:B\nclass L:C\nclass L:Q\nproperty L:rel\n"
                       "subclass L:A L:B\nrule r1: L:A(x), L:rel(x, y) -> L:Q(x)\n")
external = parse_ontology("namespace X\nclass X:F\nassert X:F(s)\n"
                          + "".join(f"class X:D{k}\nassert X:D{k}(t)\nassert X:D{k}(s)\n" for k in range(6))
                          + "".join(f"property X:E{k}\nassert X:E{k}(t, u)\n" for k in range(3)))
mappings = parse_mappings("map c0: L:C(x) <- X:F(x) ; P(0.59)\n"
                          + "".join(f"map a{k}: L:A(x) <- X:D{k}(x) ; P(0.{61 + 7 * k})\n" for k in range(6))
                          + "".join(f"map r{k}: L:rel(x, y) <- X:E{k}(x, y) ; P(0.{53 + 11 * k})\n" for k in range(3)))
merged = merge(local, external, mappings)
print([(str(a), repr(fact.probability)) for a, fact in merged.derived.items()])
for text in ("L:Q(x) & L:B(x)", "L:B(x) & L:C(x)", "L:A(x) & L:B(x)"):
    print([(a.binding, repr(a.probability)) for a in query(merged, parse_query(text))])
# a seeded monitor episode: its log, its propositions and every stored fact
import random
from ontoflux import monitor
from ontoflux.io import parse_events
from ontoflux.kb import EntityName
from ontoflux.temporal import ActionPattern, Interval, Polarity, TemporalProposition
rng = random.Random(11)
people = [f"x{i}" for i in range(8)]
onto = parse_ontology("namespace O\nclass O:Tag\nclass O:Hot\nsubclass O:C0 O:C1\nsubclass O:C1 O:C2\nproperty O:rel\n"
                      "domain O:rel O:C0\nrule r1: O:C1(x), O:rel(x, y) -> O:C2(y)\n"
                      "rule r2: O:C1(x), O:Tag(x) -> O:Hot(x)\nassert up:Agent(a0)\n"
                      + "".join(f"assert O:C{rng.randrange(3)}({x})\n" for x in people[:4]))
script = "".join(f"at {rng.uniform(0.1, 20):.3f} assert O:C{rng.randrange(3)}({rng.choice(people)})\n"
                 f"at {rng.uniform(0.1, 20):.3f} assert O:rel({rng.choice(people)}, {rng.choice(people)})\n"
                 f"at {rng.uniform(0.1, 20):.3f} action act{k} O:Review by a0 target T{k % 2} T2\n" for k in range(8))
outside = parse_ontology("namespace X\nclass X:Obs\nproperty X:link\n"
                         + "".join(f"assert X:Obs({x})\nassert X:link({x}, {rng.choice(people)})\n" for x in people[::2]))
maps = parse_mappings("map m1: O:C0(x) <- X:Obs(x) ; P(0.61)\nmap m2: O:rel(x, y) <- X:link(x, y) ; P(0.73)\n"
                      "map m3: O:Tag(x) <- X:Obs(x) ; P(0.67)\nmap m4: O:C1(x) <- X:Obs(x) ; P(0.29)\n")
props = [TemporalProposition(f"p{i}", Polarity.POSITIVE, ActionPattern(EntityName("O", "Review"), f"T{i % 2}"),
                             Interval(float(i), float(i + 3))) for i in range(0, 20, 2)]
state = monitor.init(onto, (EntityName("O", "C2"), EntityName("up", "Agent")), props)
state, log = monitor.run(state, 21, monitor.MergePolicy(0.25), maps, outside, parse_events(script))
print("\n".join(log))
print([(p.prop_id, p.state.value) for p in state.propositions])
print([(str(a), sorted(sorted(path) for path in f.paths), repr(f.probability)) for a, f in state.merged.derived.items()])
"""


def test_fact_probability_does_not_depend_on_the_hash_seed():
    package_root = str(Path(ontoflux.__file__).resolve().parent.parent)
    outputs = {
        subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT],
            capture_output=True,
            text=True,
            check=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root, "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("1", "2", "3", "4")
    }
    assert len(outputs) == 1, outputs


# --- continuing a merge ----------------------------------------------------


def split_local(local: KnowledgeBase, rng: random.Random) -> KnowledgeBase:
    """``local`` with a random half of its A-Box."""
    atoms = sorted(local.abox, key=str)
    kept = rng.sample(atoms, len(atoms) // 2)
    return KnowledgeBase(local.tbox, {a: local.abox[a] for a in kept}, local.rbox)


def assert_same_merge(got, want) -> None:
    assert got == want
    assert [(a, f.paths, f.probability) for a, f in got.derived.items()] == [
        (a, f.paths, f.probability) for a, f in want.derived.items()
    ]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_merge_continued_from_a_parent_equals_a_fresh_merge(seed, from_random_kb):
    rng = random.Random(seed)
    if from_random_kb:
        local, external, mappings = random_kb_scenario(rng)
    else:
        local, external, mappings, _ = random_scenario(rng)
    half = split_local(local, rng)
    parent = merge(half, external, mappings)
    assert_same_merge(merge(half, external, mappings, parent=parent), parent)
    assert_same_merge(merge(local, external, mappings, parent=parent), merge(local, external, mappings))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_a_parent_merge_continued_twice_gives_each_child_the_fresh_facts(seed, from_random_kb):
    """The first child takes the parent's fixpoint over and extends it in place;
    a second child of the same parent, and the parent itself, must not see that."""
    rng = random.Random(seed)
    if from_random_kb:
        local, external, mappings = random_kb_scenario(rng)
    else:
        local, external, mappings, _ = random_scenario(rng)
    half = split_local(local, rng)
    parent = merge(half, external, mappings)
    facts = [(a, f.paths, f.probability) for a, f in parent.derived.items()]
    rest = [a for a in sorted(local.abox, key=str) if a not in half.abox]
    rng.shuffle(rest)
    first = assert_all(half, [ABoxAssertion(a, local.abox[a]) for a in rest[: len(rest) // 2]])
    second = assert_all(half, [ABoxAssertion(a, local.abox[a]) for a in rest[len(rest) // 2:]])
    for child in (first, second, local):
        assert_same_merge(merge(child, external, mappings, parent=parent), merge(child, external, mappings))
    assert [(a, f.paths, f.probability) for a, f in parent.derived.items()] == facts
    continued = merge(first, external, mappings, parent=parent)
    assert_same_merge(merge(local, external, mappings, parent=continued), merge(local, external, mappings))


def continuation_scenario() -> tuple[KnowledgeBase, KnowledgeBase, list[Mapping]]:
    local = kb_of(
        SubClassOf(local_name("A"), local_name("B")),
        ABoxAssertion(ClassAtom(local_name("A"), ind("a"))),
        ABoxAssertion(ClassAtom(local_name("B"), ind("b"))),
    )
    external = kb_of(
        ABoxAssertion(ClassAtom(ext_name("D"), ind("c"))),
        ABoxAssertion(ClassAtom(ext_name("E"), ind("d"))),
    )
    mappings = [class_mapping("m1", "A", "D", 0.6), class_mapping("m2", "A", "E", 0.7)]
    return local, external, mappings


def test_merge_unchanged_since_its_parent_reuses_the_parent_facts():
    local, external, mappings = continuation_scenario()
    parent = merge(local, external, mappings)
    closed = close_class(local, local_name("B"), 1.0)
    child = merge(closed, external, list(mappings), parent=parent)
    assert child.local is closed
    assert child.derived is parent.derived
    grown = assert_item(closed, ABoxAssertion(ClassAtom(local_name("B"), ind("c"))))
    continued = merge(grown, external, mappings, parent=parent)
    assert_same_merge(continued, merge(grown, external, mappings))
    assert continued.derived[ClassAtom(local_name("B"), ind("d"))] is parent.derived[
        ClassAtom(local_name("B"), ind("d"))
    ]


def test_merge_starts_afresh_when_the_parent_differs_in_more_than_new_local_facts():
    local, external, mappings = continuation_scenario()
    parent = merge(local, external, mappings)
    bigger_external = assert_item(external, ABoxAssertion(ClassAtom(ext_name("E"), ind("e"))))
    shrunk = KnowledgeBase(local.tbox, {ClassAtom(local_name("A"), ind("a")): 0.0}, local.rbox)
    grown = assert_item(local, ABoxAssertion(ClassAtom(local_name("A"), ind("z"))))
    untyped = KnowledgeBase(frozenset(), dict(grown.abox), grown.rbox)
    ruled = assert_item(local, HornRule("r", (ClassAtom(local_name("A"), X),), ClassAtom(local_name("C"), X)))
    for args in [
        (local, external, mappings[:1]),  # other mappings
        (local, external, [class_mapping("m1", "A", "D", 0.9), mappings[1]]),
        (local, kb_of(ABoxAssertion(ClassAtom(ext_name("D"), ind("c")))), mappings),  # other external KB
        (grown, bigger_external, mappings),
        (shrunk, external, mappings),  # shrunk A-Box
        (untyped, external, mappings),  # other T-Box
        (ruled, external, mappings),  # other R-Box
    ]:
        assert_same_merge(merge(*args, parent=parent), merge(*args))
