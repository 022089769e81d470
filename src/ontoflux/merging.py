"""Probabilistic merging of an external ontology into a local one.

Mappings are directed bridges: a source atom pattern over the external
namespace, a target pattern over the local namespace, and the
probability that instances of the source belong to the target.  A merge
applies every mapping to every asserted external ground fact, then
chains the resulting local atoms through the local T-Box and R-Box with
the knowledge base's semi-naive engine (``kb.fixpoint``).  A merge may
name an earlier merge as its ``parent``: when only the local A-Box grew
since, it continues the parent's fixpoint with the new local facts as
seeds and keeps the parent's facts whose paths did not change.

Each derived atom carries its provenance as a set of derivation paths,
every path being the set of mapping ids it relied on; that path set is
the engine's annotation, so an atom re-enters the engine's delta
whenever its set of minimal paths changes.  The empty path marks a
purely local derivation and has probability one; a path's
probability is the product over its mappings (independent mappings must
all hold); alternative paths combine by noisy-OR.  Conjunctive queries
multiply conjunct probabilities while provenance is disjoint and switch
to exact possible-worlds enumeration when conjuncts share mappings,
falling back to the product with an approximation marker once the
number of distinct mappings involved makes enumeration unaffordable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .errors import (
    MalformedItemError,
    NamespaceClashError,
    ProbabilityOutOfRangeError,
    UnsafeQueryError,
)
from .kb import (
    Atom,
    EntityName,
    KnowledgeBase,
    PropertyDomain,
    PropertyRange,
    SubClassOf,
    UnionEquivalence,
    Variable,
    atom_predicate,
    atom_terms,
    fixpoint,
    index_facts,
    is_ground,
    match_body,
    substitute,
)

EXACT_ENUMERATION_LIMIT = 16

Path = frozenset  # of mapping ids
PathSet = frozenset  # of Path


def _variables(atom: Atom) -> frozenset[Variable]:
    return frozenset(t for t in atom_terms(atom) if isinstance(t, Variable))


@dataclass(frozen=True)
class Mapping:
    """Directed probabilistic bridge from an external atom to a local one.

    ``negative_probability`` is the reverse conditional (chance that a
    non-member of the source belongs to the target); it is stored when a
    document provides it but plays no role in scoring.
    """

    mapping_id: str
    target: Atom
    source: Atom
    probability: float
    negative_probability: Optional[float] = None

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ProbabilityOutOfRangeError(
                f"mapping {self.mapping_id}: probability {self.probability} outside [0, 1]"
            )
        if self.negative_probability is not None and not 0.0 <= self.negative_probability <= 1.0:
            raise ProbabilityOutOfRangeError(
                f"mapping {self.mapping_id}: negative probability outside [0, 1]"
            )
        if _variables(self.source) != _variables(self.target):
            raise MalformedItemError(
                f"mapping {self.mapping_id}: source and target must use the same variables"
            )
        if atom_predicate(self.source).namespace == atom_predicate(self.target).namespace:
            raise MalformedItemError(
                f"mapping {self.mapping_id}: source and target namespaces must differ"
            )


@dataclass(frozen=True)
class DerivedFact:
    """A ground local atom with its derivation paths and combined probability."""

    atom: Atom
    probability: float
    paths: PathSet

    @property
    def local(self) -> bool:
        return frozenset() in self.paths

    def mapping_ids(self) -> frozenset[str]:
        return frozenset(m for path in self.paths for m in path)


@dataclass(frozen=True)
class MergedKB:
    local: KnowledgeBase
    external: KnowledgeBase
    mappings: tuple[Mapping, ...]
    derived: dict[Atom, DerivedFact] = field(default_factory=dict)

    def fact(self, atom: Atom) -> Optional[DerivedFact]:
        return self.derived.get(atom)


def complement(p: float) -> float:
    if not 0.0 <= p <= 1.0:
        raise ProbabilityOutOfRangeError(f"probability {p} outside [0, 1]")
    return 1.0 - p


def combine_noisy_or(ps: Sequence[float]) -> float:
    """1 - prod(1 - p): the chance at least one independent derivation holds."""
    if not ps:
        raise MalformedItemError("noisy-OR needs at least one probability")
    for p in ps:
        if not 0.0 <= p <= 1.0:
            raise ProbabilityOutOfRangeError(f"probability {p} outside [0, 1]")
    if len(ps) == 1:
        return float(ps[0])  # skip the double complement's rounding
    return 1.0 - math.prod(1.0 - p for p in ps)


LOCAL: PathSet = frozenset({frozenset()})  # the annotation of a local A-Box fact


def _canonical(paths: Iterable[Path]) -> PathSet:
    """Keep the local path plus the subset-minimal mapped paths.

    A path that is a superset of another mapped path holds only in a
    subset of its worlds and never changes any probability; the local
    path is kept alongside so that mapped-only scoring still sees the
    mapped derivations it would otherwise absorb.
    """
    mapped = {p for p in paths if p}
    minimal = {p for p in mapped if not any(q < p for q in mapped)}
    if frozenset() in set(paths) or any(not p for p in paths):
        minimal.add(frozenset())
    return frozenset(minimal)


def _disjoin(a: PathSet, b: PathSet) -> PathSet:
    return _canonical(a | b)


def _conjoin(premises: list[PathSet]) -> PathSet:
    """The paths of a rule firing: one path of each premise, united."""
    combos = {frozenset()}
    for paths in premises:
        combos = {c | p for c in combos for p in paths}
    return _canonical(combos)


def fact_probability(
    paths: PathSet, prob_of: dict[str, float], mapped_only: bool = False
) -> Optional[float]:
    """Noisy-OR score of a path set; None when no usable path remains."""
    if not mapped_only and frozenset() in paths:
        return 1.0
    usable = [p for p in paths if p]
    if not usable:
        return None
    if len(usable) > 1:
        usable = [p for p in usable if not any(q < p for q in usable)]
    # a set iterates in the order of the per-process string hashes, and a
    # product's rounding depends on the order of its factors: sort them
    return combine_noisy_or(sorted(math.prod(sorted(prob_of[m] for m in p)) for p in usable))


def _local_namespaces(kb: KnowledgeBase) -> set[str]:
    names: set[str] = set()
    for ax in kb.tbox:
        if isinstance(ax, SubClassOf):
            names.update((ax.sub.namespace, ax.sup.namespace))
        elif isinstance(ax, UnionEquivalence):
            names.add(ax.whole.namespace)
            names.update(p.namespace for p in ax.parts)
        elif isinstance(ax, (PropertyDomain, PropertyRange)):
            names.update((ax.prop.namespace, ax.concept.namespace))
        else:
            names.update(
                getattr(ax, f).namespace
                for f in ("a", "b", "concept", "prop", "filler")
                if hasattr(ax, f)
            )
    for atom in kb.abox:
        names.add(atom_predicate(atom).namespace)
    for rule in kb.rbox:
        for atom in (*rule.body, rule.head):
            names.add(atom_predicate(atom).namespace)
    return names


def _added_atoms(
    parent: Optional[MergedKB], local: KnowledgeBase, external: KnowledgeBase, mappings: tuple
) -> Optional[set[Atom]]:
    """The local A-Box atoms ``parent`` lacks, if it merged a subset of them
    with the same external KB, mappings, T-Box and R-Box; else None."""
    if parent is None or (parent.external, parent.mappings, parent.local.tbox, parent.local.rbox) != (
        external, mappings, local.tbox, local.rbox
    ):
        return None
    before = parent.local.abox
    if before == local.abox:  # by the dicts' stored hashes: no atom is hashed again
        return set()
    added = set(local.abox).difference(before)
    return added if len(local.abox) - len(added) == len(before) else None


def merge(
    local: KnowledgeBase,
    external: KnowledgeBase,
    mappings: Sequence[Mapping],
    *,
    parent: Optional[MergedKB] = None,
) -> MergedKB:
    """Derive the merged fact set: local facts, mapped facts, local chaining.

    Mappings consume the external A-Box as asserted; chaining afterwards
    uses only the local T-Box and R-Box.  Multiple derivations of one
    atom keep all (minimal) paths and combine by noisy-OR.

    ``parent`` is an earlier merge to continue.  If it merged the same
    external KB, mappings, T-Box and R-Box, and a subset of the local
    A-Box atoms, its path sets are the closed start of the fixpoint and
    the new local atoms its seeds; facts whose paths did not change are
    reused, and with no new atom its ``derived`` is returned as is.  In
    every other case the merge starts from scratch.
    """
    mappings = tuple(mappings)
    added = _added_atoms(parent, local, external, mappings)
    if added is not None and not added:
        return MergedKB(local, external, mappings, parent.derived)

    local_names = _local_namespaces(local)
    for m in mappings:
        target_ns = atom_predicate(m.target).namespace
        if local_names and target_ns not in local_names:
            raise NamespaceClashError(
                f"mapping {m.mapping_id} targets namespace {target_ns}, "
                f"local ontology uses {', '.join(sorted(local_names))}"
            )

    known: dict[Atom, DerivedFact] = {}
    if added is None:
        seeds: dict[Atom, PathSet] = dict.fromkeys(local.abox, LOCAL)
        external_facts = index_facts(external.abox)
        for m in mappings:
            path = frozenset({frozenset({m.mapping_id})})
            for binding in match_body((m.source,), external_facts):
                mapped = substitute(m.target, binding)
                if is_ground(mapped):
                    seeds[mapped] = _disjoin(seeds[mapped], path) if mapped in seeds else path
    else:
        known, seeds = parent.derived, dict.fromkeys(added, LOCAL)
    closed = {atom: fact.paths for atom, fact in known.items()}
    paths = fixpoint(local.tbox, local.rbox, seeds, _conjoin, _disjoin, closed)

    prob_of = {m.mapping_id: m.probability for m in mappings}
    derived = {}
    for atom, ps in sorted(paths.items(), key=lambda item: str(item[0])):
        fact = known.get(atom) if known else None
        if fact is None or fact.paths != ps:
            fact = DerivedFact(atom, fact_probability(ps, prob_of), ps)
        derived[atom] = fact
    return MergedKB(local, external, mappings, derived)


@dataclass(frozen=True)
class QueryAnswer:
    binding: tuple[tuple[str, EntityName], ...]
    probability: float
    approximate: bool = False

    def as_dict(self) -> dict[str, EntityName]:
        return dict(self.binding)


def _score_exact(conjunct_paths: list[list[Path]], prob_of: dict[str, float]) -> float:
    ids = sorted({m for ps in conjunct_paths for p in ps for m in p})
    total = 0.0
    for bits in range(1 << len(ids)):
        held = frozenset(ids[i] for i in range(len(ids)) if bits >> i & 1)
        weight = 1.0
        for i, mid in enumerate(ids):
            weight *= prob_of[mid] if bits >> i & 1 else 1.0 - prob_of[mid]
        if all(any(p <= held for p in ps) for ps in conjunct_paths):
            total += weight
    return total


def query(
    merged: MergedKB, conjuncts: Sequence[Atom], mapped_only: bool = False
) -> list[QueryAnswer]:
    """Answer a conjunctive query over the merged fact set.

    With ``mapped_only`` the purely local derivation paths are ignored,
    scoring each binding by what the mappings alone support.  Results
    are sorted by descending probability, then by binding.
    """
    if not conjuncts:
        raise UnsafeQueryError("query needs at least one conjunct")
    prob_of = {m.mapping_id: m.probability for m in merged.mappings}

    base: dict[Atom, list[Path]] = {}
    for atom, fact in merged.derived.items():
        usable = [p for p in fact.paths if p] if mapped_only else list(fact.paths)
        if not usable:
            continue
        if any(not p for p in usable):
            usable = [frozenset()]
        else:
            usable = [p for p in usable if not any(q < p for q in usable)]
        base[atom] = usable

    answers = []
    for binding in match_body(tuple(conjuncts), index_facts(base)):
        conjunct_paths = [base[substitute(c, binding)] for c in conjuncts]
        flat = [p for ps in conjunct_paths for p in ps]
        disjoint = all(
            sum(1 for p in flat if m in p) <= 1 for p in flat for m in p
        )
        approximate = False
        if disjoint:
            probability = math.prod(
                fact_probability(frozenset(ps), prob_of) for ps in conjunct_paths
            )
        else:
            distinct = {m for p in flat for m in p}
            if len(distinct) <= EXACT_ENUMERATION_LIMIT:
                probability = _score_exact(conjunct_paths, prob_of)
            else:
                probability = math.prod(
                    fact_probability(frozenset(ps), prob_of) for ps in conjunct_paths
                )
                approximate = True
        key = tuple(sorted((var.token, value.name) for var, value in binding.items()))
        answers.append(QueryAnswer(key, probability, approximate))

    unique: dict[tuple, QueryAnswer] = {}
    for ans in answers:
        unique.setdefault(ans.binding, ans)
    return sorted(
        unique.values(), key=lambda a: (-a.probability, tuple(str(v) for _, v in a.binding))
    )
