"""Shared test utilities: a reference reasoner, a random KB generator,
a possible-worlds oracle and a plain form of the engine's rule joins.

``reference_saturate`` is the naive forward chainer: every round fires
every axiom on every atom and joins rule bodies by nested loops over
all facts.  It shares no code with the library's semi-naive engine, so
the engine can be tested against it.

The oracle marginalizes a conjunctive query over every subset of the
mappings by brute force, on top of the reference chainer.  It shares
none of the library's derivation-path bookkeeping, so agreement is
meaningful evidence that the minimal-path lineage and its exact scoring
are right, for stored facts as well as for query answers.

``match_body`` reads the rows of the library's compiled join plans
(``ontoflux.kb.Plan``) as variable bindings, so the joins the engine
runs can be compared with ``match_rule_body``'s nested loops.

The reference simulator is in ``reference_simulation.py`` and the
reference parsers are in ``reference_parsers.py``.  This module imports
neither, so what imports it for the oracle alone does not load them.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from ontoflux.kb import (
    ABoxAssertion,
    ArgIndex,
    Atom,
    ClassAtom,
    DisjointClasses,
    EntityName,
    FactIndex,
    HornRule,
    Individual,
    KnowledgeBase,
    Plan,
    PropertyAtom,
    PropertyDomain,
    PropertyRange,
    SubClassOf,
    UnionEquivalence,
    Term,
    Variable,
    assert_all,
    is_ground,
    substitute,
)
from ontoflux.merging import Mapping


# --- reference forward chainer -------------------------------------------


def _match_term(pattern: Term, value: Individual, binding: dict) -> dict | None:
    if isinstance(pattern, Individual):
        return binding if pattern == value else None
    bound = binding.get(pattern)
    if bound is None:
        out = dict(binding)
        out[pattern] = value
        return out
    return binding if bound == value else None


def _match_atom(pattern: Atom, fact: Atom, binding: dict) -> dict | None:
    if isinstance(pattern, ClassAtom):
        if not isinstance(fact, ClassAtom) or pattern.concept != fact.concept:
            return None
        return _match_term(pattern.subject, fact.subject, binding)
    if not isinstance(fact, PropertyAtom) or pattern.prop != fact.prop:
        return None
    binding = _match_term(pattern.subject, fact.subject, binding)
    if binding is None:
        return None
    return _match_term(pattern.object, fact.object, binding)


def match_rule_body(body: tuple[Atom, ...], facts) -> list[dict]:
    """All variable bindings under which every body atom matches a fact."""
    facts = list(facts)
    bindings = [{}]
    for pattern in body:
        extended = []
        for binding in bindings:
            for fact in facts:
                out = _match_atom(pattern, fact, binding)
                if out is not None:
                    extended.append(out)
        bindings = extended
        if not bindings:
            break
    return bindings


def match_body(
    body: tuple[Atom, ...],
    index: FactIndex,
    delta: FactIndex | None = None,
    args: ArgIndex | None = None,
) -> list[dict]:
    """All variable bindings under which every body atom matches an indexed fact.

    With ``delta`` (the facts new or changed in the last round, also in
    ``index``) only the bindings that use a delta fact, each once: one
    plan per body position matches that position to ``delta`` first,
    and the positions before it to facts outside ``delta``, as
    ``ontoflux.kb.fixpoint`` compiles them.  ``args``, the argument
    index of the facts in ``index``, lets a body atom with a bound
    argument read only the facts that have it.  A binding is a dict from
    each variable to its individual.
    """
    plans = [Plan(body)] if delta is None else [Plan(body, (), i) for i in range(len(body))]
    out = []
    for plan in plans:
        variables = [(v, slot) for v, slot in plan.slots.items() if isinstance(v, Variable)]
        out += [{v: vals[slot] for v, slot in variables} for vals, _ in plan.rows(index, args, delta)]
    return out


def reference_saturate(kb: KnowledgeBase) -> frozenset[Atom]:
    """Naive least fixpoint of the ground atoms derivable from the KB."""
    atoms: set[Atom] = set(kb.abox)
    subclass = [ax for ax in kb.tbox if isinstance(ax, SubClassOf)]
    unions = [ax for ax in kb.tbox if isinstance(ax, UnionEquivalence)]
    domains = [ax for ax in kb.tbox if isinstance(ax, PropertyDomain)]
    ranges = [ax for ax in kb.tbox if isinstance(ax, PropertyRange)]
    rules = list(kb.rbox)

    changed = True
    while changed:
        changed = False
        fresh: set[Atom] = set()
        for a in atoms:
            if isinstance(a, ClassAtom):
                for ax in subclass:
                    if ax.sub == a.concept:
                        fresh.add(ClassAtom(ax.sup, a.subject))
                for ax in unions:
                    if a.concept in ax.parts:
                        fresh.add(ClassAtom(ax.whole, a.subject))
            else:
                for ax in domains:
                    if ax.prop == a.prop:
                        fresh.add(ClassAtom(ax.concept, a.subject))
                for ax in ranges:
                    if ax.prop == a.prop:
                        fresh.add(ClassAtom(ax.concept, a.object))
        for rule in rules:
            for binding in match_rule_body(rule.body, atoms):
                fresh.add(substitute(rule.head, binding))
        if not fresh <= atoms:
            atoms |= fresh
            changed = True
    return frozenset(atoms)


# --- possible-worlds oracle ----------------------------------------------


def _mapped_atoms(external: KnowledgeBase, held: Sequence[Mapping]) -> set[Atom]:
    out: set[Atom] = set()
    for m in held:
        for atom in external.abox:
            for binding in match_rule_body((m.source,), (atom,)):
                target = substitute(m.target, binding)
                if is_ground(target):
                    out.add(target)
    return out


def world_support(
    local: KnowledgeBase, external: KnowledgeBase, held: Sequence[Mapping]
) -> tuple[frozenset[Atom], frozenset[Atom]]:
    """(derivable, mapped-support) atom sets for one world.

    An atom has mapped support when some derivation of it consumes at
    least one mapping-imported fact; a fact can carry both flavors.
    """
    mapped = _mapped_atoms(external, held)
    base = set(local.abox) | mapped
    world = assert_all(
        KnowledgeBase(local.tbox, {}, local.rbox),
        [ABoxAssertion(a, 0.0) for a in sorted(base, key=str)],
    )
    derivable = reference_saturate(world)

    supported = set(mapped)
    changed = True
    while changed:
        changed = False
        for atom in list(supported):
            heads: list[Atom] = []
            if isinstance(atom, ClassAtom):
                for ax in local.tbox:
                    if isinstance(ax, SubClassOf) and ax.sub == atom.concept:
                        heads.append(ClassAtom(ax.sup, atom.subject))
                    elif isinstance(ax, UnionEquivalence) and atom.concept in ax.parts:
                        heads.append(ClassAtom(ax.whole, atom.subject))
            else:
                for ax in local.tbox:
                    if isinstance(ax, PropertyDomain) and ax.prop == atom.prop:
                        heads.append(ClassAtom(ax.concept, atom.subject))
                    elif isinstance(ax, PropertyRange) and ax.prop == atom.prop:
                        heads.append(ClassAtom(ax.concept, atom.object))
            for head in heads:
                if head not in supported:
                    supported.add(head)
                    changed = True
        for rule in local.rbox:
            for binding in match_rule_body(rule.body, derivable):
                premises = [substitute(b, binding) for b in rule.body]
                head = substitute(rule.head, binding)
                if head in supported:
                    continue
                if all(p in derivable for p in premises) and any(p in supported for p in premises):
                    supported.add(head)
                    changed = True
    return frozenset(derivable), frozenset(supported)


def _worlds(mappings: Sequence[Mapping]):
    """Each subset of ``mappings`` that holds with nonzero probability, and that probability."""
    for bits in range(1 << len(mappings)):
        weight = 1.0
        for i, m in enumerate(mappings):
            weight *= m.probability if bits >> i & 1 else 1.0 - m.probability
        if weight != 0.0:
            yield [m for i, m in enumerate(mappings) if bits >> i & 1], weight


def world_scores(
    local: KnowledgeBase,
    external: KnowledgeBase,
    mappings: Sequence[Mapping],
    conjuncts: Sequence[Atom],
    mapped_only: bool = False,
) -> dict[tuple[tuple[str, EntityName], ...], float]:
    """Exact per-binding probabilities by enumerating all mapping subsets."""
    scores: dict[tuple[tuple[str, EntityName], ...], float] = {}
    for held, weight in _worlds(mappings):
        derivable, supported = world_support(local, external, held)
        facts = supported if mapped_only else derivable
        for binding in match_rule_body(tuple(conjuncts), sorted(facts, key=str)):
            bound = [substitute(c, binding) for c in conjuncts]
            if all(a in facts for a in bound):
                key = tuple(sorted((v.token, value.name) for v, value in binding.items()))
                scores[key] = scores.get(key, 0.0) + weight
    return scores


def world_atom_probabilities(
    local: KnowledgeBase, external: KnowledgeBase, mappings: Sequence[Mapping]
) -> dict[Atom, float]:
    """Exact probability of every ground atom derivable in some world.

    For each atom it is ``world_scores(local, external, mappings,
    [atom])[()]``, summed in the same world order, from one enumeration
    of the mapping subsets instead of one per atom.
    """
    scores: dict[Atom, float] = {}
    for held, weight in _worlds(mappings):
        for atom in world_support(local, external, held)[0]:
            scores[atom] = scores.get(atom, 0.0) + weight
    return scores


def world_probability(
    local: KnowledgeBase,
    external: KnowledgeBase,
    mappings: Sequence[Mapping],
    conjuncts: Sequence[Atom],
    binding: Optional[dict[str, str]] = None,
    mapped_only: bool = False,
) -> float:
    """Oracle probability of one binding (variable token -> individual token)."""
    wanted = None
    if binding is not None:
        wanted = tuple(sorted((v, EntityName("i", t)) for v, t in binding.items()))
    scores = world_scores(local, external, mappings, conjuncts, mapped_only)
    if wanted is None:
        if len(scores) != 1:
            raise AssertionError(f"expected a single binding, got {sorted(scores)}")
        return next(iter(scores.values()))
    return scores.get(wanted, 0.0)


# --- random knowledge bases ----------------------------------------------


def random_kb(rng: random.Random, max_size: int = 6) -> KnowledgeBase:
    """A small well-formed KB: random axioms, ground facts, and safe rules."""
    ns = rng.choice(["A", "B"])
    classes = [EntityName(ns, f"C{i}") for i in range(rng.randint(1, 4))]
    props = [EntityName(ns, f"p{i}") for i in range(rng.randint(0, 2))]
    individuals = [Individual(EntityName("i", f"x{i}")) for i in range(rng.randint(1, 5))]

    items: list = []
    for _ in range(rng.randint(0, max_size)):
        kind = rng.randint(0, 5 if props else 2)
        if kind == 0 and len(classes) >= 2:
            a, b = rng.sample(classes, 2)
            items.append(SubClassOf(a, b))
        elif kind == 1 and len(classes) >= 2:
            a, b = rng.sample(classes, 2)
            items.append(DisjointClasses(a, b))
        elif kind == 2 and len(classes) >= 3:
            whole, *parts = rng.sample(classes, 3)
            items.append(UnionEquivalence(whole, tuple(parts)))
        elif kind == 3:
            items.append(PropertyDomain(rng.choice(props), rng.choice(classes)))
        elif kind == 4:
            items.append(PropertyRange(rng.choice(props), rng.choice(classes)))

    for _ in range(rng.randint(0, max_size)):
        when = rng.choice([0.0, 0.5, 1.25, 3.0])
        if props and rng.random() < 0.4:
            atom: Atom = PropertyAtom(
                rng.choice(props), rng.choice(individuals), rng.choice(individuals)
            )
        else:
            atom = ClassAtom(rng.choice(classes), rng.choice(individuals))
        items.append(ABoxAssertion(atom, when))

    for k in range(rng.randint(0, 2)):
        x = Variable("v0")
        body: list[Atom] = [ClassAtom(rng.choice(classes), x)]
        if props and rng.random() < 0.5:
            body.append(PropertyAtom(rng.choice(props), x, rng.choice(individuals)))
        head = ClassAtom(rng.choice(classes), x)
        items.append(HornRule(f"r{k}", tuple(body), head))

    return assert_all(KnowledgeBase(), items)


def random_assertion(rng: random.Random, kb: KnowledgeBase) -> ABoxAssertion:
    """One more ground fact over the KB's own vocabulary (or a fresh name)."""
    concepts = sorted(
        {ax.sub for ax in kb.tbox if isinstance(ax, SubClassOf)}
        | {ax.sup for ax in kb.tbox if isinstance(ax, SubClassOf)},
        key=str,
    )
    atoms = sorted(kb.abox, key=str)
    pool_c = concepts or [EntityName("A", "C0")]
    pool_i = sorted(
        {t.name for a in atoms for t in (a.subject,) if isinstance(t, Individual)},
        key=str,
    ) or [EntityName("i", "x0")]
    concept = rng.choice(pool_c)
    who = Individual(rng.choice(pool_i))
    return ABoxAssertion(ClassAtom(concept, who), rng.choice([0.0, 1.0, 2.5]))
