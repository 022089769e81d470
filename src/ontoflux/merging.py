"""Probabilistic merging of an external ontology into a local one.

Mappings are directed bridges: a source atom pattern over the external
namespace, a target pattern over the local namespace, and the
probability that instances of the source belong to the target.  Source
and target use the same variables, so a mapping is a rename: compiled
to a one-step ``kb.Plan`` over its source, it takes each matching
asserted external fact straight to its target atom, with no join.  A
merge then chains the resulting local atoms through the local T-Box and
R-Box with the knowledge base's semi-naive engine (``kb.fixpoint``).
A merge may name an earlier merge as its ``parent``: when only the
local A-Box grew since, it takes the parent's fixpoint (path sets and
indexes) over, continues it with the new local facts as seeds, keeps
the parent's facts whose paths did not change and sorts only the new
atoms into the parent's order.  Any other merge continues an empty
fixpoint with every local fact and every mapped one as seeds, by the
same code.  A query is one compiled plan over its conjuncts, matched
against a merge's fixpoint state: the merge's own, or one rebuilt from
its facts once a later merge has taken that over.

Each derived atom carries its provenance as a set of derivation paths,
every path being the set of mapping ids it relied on; that path set is
the engine's annotation, so an atom re-enters the engine's delta
whenever its set of minimal paths changes.  The empty path marks a
purely local derivation and always holds; a mapped path holds when all
its mappings do, and mappings hold independently.  One exact scorer
gives a stored fact its probability (one path set) and a conjunctive
query answer its (one path set per conjunct, all of which must hold).
Once per scored formula, before any expansion, it factors each clause
whose paths are the product of path sets over disjoint mappings (every
path one path of each, united) into those path sets, as clauses of
their own, so that a product lineage scores as its factors (read-once
lineage: Sen, Deshpande & Getoor, PVLDB 2010).  It then splits the
formula into parts that share no mapping, and expands what stays
connected on its most frequent mapping, memoized on the residual
formula (Shannon expansion; Dalvi & Suciu, VLDB 2004); a branch in
which some clause has no path left is 0 and not expanded.
A stored fact is scored when its probability is first read, not by
``merge``, so a merge pays only for the scores its caller reads, as
probabilistic databases and ProbLog evaluate lineage only for the
atoms asked about.  A formula that needs more than ``SCORING_BUDGET``
expansions raises ``LineageTooLargeError``; no score is ever
approximated.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from collections.abc import Set as AbstractSet
from dataclasses import FrozenInstanceError, dataclass, field
from typing import ClassVar, Iterable, Optional, Sequence

from .errors import (
    LineageTooLargeError,
    MalformedItemError,
    NamespaceClashError,
    ProbabilityOutOfRangeError,
    UnsafeQueryError,
)
from .kb import (
    ArgIndex,
    Atom,
    EntityName,
    FactIndex,
    KnowledgeBase,
    Plan,
    Variable,
    atom_predicate,
    atom_terms,
    fixpoint,
    index_args,
    index_facts,
)

SCORING_BUDGET = 10_000  # expansions one lineage formula may take

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


class DerivedFact:
    """A ground local atom with its derivation paths and their probability.

    The fact holds the mapping probabilities of the merge that made it,
    and scores ``probability`` from them and its paths when it is first
    read, then keeps the value, so a merge scores only the facts that
    are read.  Otherwise ``probability`` acts as a field: equality,
    hashing and ``repr`` read it, and a pickled or copied fact carries
    the mapping probabilities along and scores the same value.  Facts
    are immutable.
    """

    __slots__ = ("atom", "paths", "_prob_of", "_probability")

    def __init__(self, atom: Atom, paths: PathSet, prob_of: dict[str, float]):
        object.__setattr__(self, "atom", atom)
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "_prob_of", prob_of)
        object.__setattr__(self, "_probability", None)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    @property
    def probability(self) -> float:
        """Exact probability that one of the paths holds; may raise ``LineageTooLargeError``."""
        if self._probability is None:
            object.__setattr__(self, "_probability", fact_probability(self.paths, self._prob_of))
        return self._probability

    def __eq__(self, other) -> bool:
        if other.__class__ is not DerivedFact:
            return NotImplemented
        return self.atom == other.atom and self.paths == other.paths and self.probability == other.probability

    def __hash__(self) -> int:
        return hash((self.atom, self.probability, self.paths))

    def __repr__(self) -> str:
        return f"DerivedFact(atom={self.atom!r}, probability={self.probability!r}, paths={self.paths!r})"

    def __reduce__(self):
        return DerivedFact, (self.atom, self.paths, self._prob_of)

    def mapping_ids(self) -> frozenset[str]:
        return frozenset(m for path in self.paths for m in path)


class _FixpointState:
    """A merge's fixpoint, for a later merge to continue: each derived
    atom's paths, their predicate and argument indexes and the derived
    atoms' ``str`` in order.

    The first merge that continues it takes it over and extends it in
    place; ``taken`` then tells every merge that held it to rebuild it
    from its own facts.
    """

    __slots__ = ("paths", "index", "args", "keys", "taken")

    def __init__(self, paths: dict[Atom, PathSet], index: FactIndex, args: ArgIndex, keys: list[str]):
        self.paths, self.index, self.args, self.keys, self.taken = paths, index, args, keys, False


@dataclass(frozen=True)
class MergedKB:
    local: KnowledgeBase
    external: KnowledgeBase
    mappings: tuple[Mapping, ...]
    derived: dict[Atom, DerivedFact] = field(default_factory=dict)
    _state: Optional[_FixpointState] = field(default=None, compare=False, repr=False)

    def _fixpoint(self) -> _FixpointState:
        """This merge's fixpoint state, rebuilt from its facts if a later merge has taken it over."""
        state = self._state
        if state is None or state.taken:
            paths = {atom: fact.paths for atom, fact in self.derived.items()}
            state = _FixpointState(paths, index_facts(paths), index_args(paths), [str(atom) for atom in self.derived])
        return state


_NO_MAPPING: Path = frozenset()  # the path of a purely local derivation
LOCAL: PathSet = frozenset({_NO_MAPPING})  # the annotation of a local A-Box fact


def _canonical(paths: AbstractSet[Path]) -> PathSet:
    """Keep the local path plus the subset-minimal mapped paths.

    A path that is a superset of another mapped path holds only in a
    subset of its worlds and never changes any probability; the local
    path is kept alongside so that mapped-only scoring still sees the
    mapped derivations it would otherwise absorb.  Taken in length
    order, a path can only be absorbed by a shorter path already kept:
    a kept single mapping it contains or, if it has three mappings or
    more, a kept path of two or more.  With no path of two or more,
    none is absorbed.
    """
    if all(len(path) < 2 for path in paths):
        return frozenset(paths)
    singles: set[str] = set()
    longer: list[Path] = []
    kept: list[Path] = []
    for path in sorted(paths, key=len):
        if len(path) > 1:
            if not path.isdisjoint(singles) or (len(path) > 2 and any(q < path for q in longer)):
                continue
            longer.append(path)
        else:
            singles |= path
        kept.append(path)
    return frozenset(kept)


def _disjoin(a: PathSet, b: PathSet) -> PathSet:
    return a if b <= a else _canonical(a | b)  # b <= a, nothing new, is the common case


def _conjoin(premises: list[PathSet]) -> PathSet:
    """The paths of a rule firing: one path of each premise, united."""
    combos = {frozenset()}
    for paths in premises:
        combos = {c | p for c in combos for p in paths}
    return frozenset(combos) if len(combos) == 1 else _canonical(combos)


def fact_probability(paths: PathSet, prob_of: dict[str, float]) -> float:
    """Exact probability that one of ``paths`` holds; 0.0 for no path."""
    return _score((paths,), prob_of)


def _path_probability(path: Path, prob_of: dict[str, float]) -> float:
    # a set iterates in the order of the per-process string hashes, and a
    # product's rounding depends on the order of its factors: sort them
    return math.prod(sorted(prob_of[m] for m in path))


def _any_holds(probabilities: Iterable[float]) -> float:
    return 1.0 - math.prod(sorted(1.0 - p for p in probabilities))


def _components(items: Iterable, ids_of) -> list[list]:
    """``items`` grouped so that no two groups share a mapping id."""
    groups: list[tuple[set, list]] = []
    for item in items:
        ids, members, apart = set(ids_of(item)), [item], []
        for group in groups:
            if ids.isdisjoint(group[0]):
                apart.append(group)
            else:
                ids |= group[0]
                members += group[1]
        groups = [*apart, (ids, members)]
    return [members for _, members in groups]


def _factors(paths: PathSet) -> Iterable[PathSet]:
    """``paths`` as path sets over disjoint mapping ids whose product it
    is (every path the union of one path of each), or ``(paths,)``.

    Two ids that never share a path go in one group, and groups close
    over that relation.  The paths' projections onto the groups are the
    factors if they leave as many path combinations as there are paths,
    and if at least two of them have two paths or more.  Ids that are in
    every path (a projection of one path) are not worth a factor alone:
    the expansion takes each of them first, at the cost of one branch.
    """
    # under four paths there are no two factors of two paths; an id alone in a
    # path shares no path with another id, so every id falls in its group
    if len(paths) < 4 or min(map(len, paths)) < 2:
        return (paths,)
    partners: dict[str, set] = {}  # each id's partners: the ids of the paths that hold it
    for path in paths:
        for m in path:
            if m in partners:
                partners[m] |= path
            else:
                partners[m] = set(path)
    left, groups = set(partners), []
    while left:
        group = [left.pop()]
        for m in group:  # extended while read: a breadth-first search
            apart = left - partners[m]
            left -= apart
            group += apart
        groups.append(group)
    if len(groups) < 2:
        return (paths,)
    parts = [frozenset(map(frozenset(group).intersection, paths)) for group in groups]
    # a path is the union of its projections, so the paths are exactly the product when it is no larger
    if math.prod(map(len, parts)) != len(paths) or sum(len(part) > 1 for part in parts) < 2:
        return (paths,)
    return parts


def _score(clauses: Iterable[PathSet], prob_of: dict[str, float], memo: Optional[dict] = None) -> float:
    """Exact probability that every path set in ``clauses`` has a path that holds.

    A path holds when all its mappings do, mappings hold independently,
    and the local path always holds.  The outermost call first factors
    each clause that is a product of path sets over disjoint mapping ids
    into those path sets, each its own clause (``_factors``); below it,
    the formula is only split and expanded.  Clauses that share no
    mapping id are independent, and so are such paths of one clause:
    the former multiply, the latter combine as 1 - prod(1 - p).  What
    stays connected is expanded on its most frequent mapping (ties by
    id), memoized on the residual clauses, for at most
    ``SCORING_BUDGET`` expansions per scored formula; factoring is not
    an expansion.
    """
    if memo is None:  # the outermost call
        try:
            return _score([part for paths in clauses for part in _factors(paths)], prob_of, {})
        except RecursionError:  # a lineage deeper than Python's stack allows
            raise LineageTooLargeError("exact scoring nests too deep") from None
    clauses = frozenset(paths for paths in clauses if _NO_MAPPING not in paths)
    if len(clauses) == 1:
        (paths,) = clauses
        if len(paths) == 1:  # most facts: one path
            return _path_probability(next(iter(paths)), prob_of)
        if len(set().union(*paths)) == sum(map(len, paths)):  # pairwise disjoint paths, or none
            return _any_holds(_path_probability(path, prob_of) for path in paths)
        parts = _components(paths, frozenset)
        if len(parts) > 1:
            return _any_holds(_score((frozenset(part),), prob_of, memo) for part in parts)
    else:
        parts = _components(clauses, lambda paths: set().union(*paths))
        if len(parts) != 1:  # independent clauses, or none
            return math.prod(sorted(_score(part, prob_of, memo) for part in parts))
    known = memo.get(clauses)
    if known is not None:
        return known
    if len(memo) >= SCORING_BUDGET:
        raise LineageTooLargeError(f"exact scoring takes over {SCORING_BUDGET} expansions")
    counts = Counter(m for paths in clauses for path in paths for m in path)
    pivot = min(counts, key=lambda m: (-counts[m], m))
    held, failed = [], []  # the clauses given that ``pivot`` holds, or not
    for paths in clauses:
        with_pivot = [path for path in paths if pivot in path]
        rest = paths.difference(with_pivot)
        held.append(_canonical(rest.union(path - {pivot} for path in with_pivot)) if with_pivot else paths)
        failed.append(rest)
    p = prob_of[pivot]
    result = p * _score(held, prob_of, memo)
    if all(failed):  # else a clause has no path without ``pivot``: the failed branch scores 0
        result += (1.0 - p) * _score(failed, prob_of, memo)
    memo[clauses] = result
    return result


def _local_namespaces(kb: KnowledgeBase) -> set[str]:
    names = set()
    for ax in kb.tbox:  # every field of a T-Box axiom is a name or a tuple of names
        for value in vars(ax).values():
            names.update(n.namespace for n in (value if isinstance(value, tuple) else (value,)))
    atoms = [*kb.abox, *(atom for rule in kb.rbox for atom in (*rule.body, rule.head))]
    return names | {atom_predicate(atom).namespace for atom in atoms}


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
    atom keep all (minimal) paths, and its probability is theirs, exactly.
    No fact is scored here: each is scored when its ``probability`` is
    first read, which is where a lineage too large to score exactly
    raises ``LineageTooLargeError``.

    ``parent`` is an earlier merge to continue.  If it merged the same
    external KB, mappings, T-Box and R-Box, and a subset of the local
    A-Box atoms, its path sets are the closed start of the fixpoint and
    the new local atoms its seeds; facts whose paths did not change are
    reused, and with no new atom its ``derived`` is returned as is.  In
    every other case the merge continues an empty fixpoint, seeded with
    the local A-Box and each mapping's renames of the external one.
    """
    mappings = tuple(mappings)
    added = _added_atoms(parent, local, external, mappings)
    if added is not None and not added:
        return MergedKB(local, external, mappings, parent.derived, parent._state)

    prob_of = {m.mapping_id: m.probability for m in mappings}
    if added is None:
        local_names = _local_namespaces(local)  # a continued parent passed this with fewer names
        for m in mappings:
            target_ns = atom_predicate(m.target).namespace
            if local_names and target_ns not in local_names:
                raise NamespaceClashError(
                    f"mapping {m.mapping_id} targets namespace {target_ns}, "
                    f"local ontology uses {', '.join(sorted(local_names))}"
                )
        seeds: dict[Atom, PathSet] = dict.fromkeys(local.abox, LOCAL)
        external_facts = index_facts(external.abox)
        for m in mappings:  # a rename: each matching external fact's target, read from its arguments
            path = frozenset({frozenset({m.mapping_id})})
            plan = Plan((m.source,), (m.target,))
            target = plan.builders[0]
            for vals, _ in plan.rows(external_facts):
                mapped = target(vals)
                seeds[mapped] = _disjoin(seeds[mapped], path) if mapped in seeds else path
        before, state = {}, _FixpointState({}, {}, {}, [])
    else:
        seeds, before, state = dict.fromkeys(added, LOCAL), parent.derived, parent._fixpoint()
    state.taken = True
    paths, index, args, changed = fixpoint(
        local.tbox, local.rbox, seeds, _conjoin, _disjoin, (state.paths, state.index, state.args)
    )
    new = sorted((str(atom), atom) for atom in changed.difference(before))  # str(atom) is unique
    keys = state.keys
    if new and keys and new[0][0] < keys[-1]:  # new atoms go between old ones: rebuild the order
        atoms = list(before)
        for key, atom in reversed(new):  # from the last, so that each insert keeps the earlier places
            at = bisect_left(keys, key)
            keys.insert(at, key)
            atoms.insert(at, atom)
        derived = dict.fromkeys(atoms)
        derived.update(before)
    else:
        keys.extend(key for key, _ in new)
        derived = dict(before)
        derived.update(dict.fromkeys(atom for _, atom in new))
    # the new facts, and those whose paths changed, in the places just given
    derived.update((atom, DerivedFact(atom, paths[atom], prob_of)) for atom in changed)
    return MergedKB(local, external, mappings, derived, _FixpointState(paths, index, args, keys))


@dataclass(frozen=True)
class QueryAnswer:
    """One binding of a query and its exact probability; no answer is approximate."""

    binding: tuple[tuple[str, EntityName], ...]
    probability: float
    approximate: ClassVar[bool] = False


def query(
    merged: MergedKB, conjuncts: Sequence[Atom], mapped_only: bool = False
) -> list[QueryAnswer]:
    """Answer a conjunctive query over the merged fact set.

    With ``mapped_only`` the purely local derivation paths are ignored,
    scoring each binding by what the mappings alone support; a binding
    that uses a fact with no mapped path is no answer.  The plan reads
    the merge's fixpoint state (``MergedKB._fixpoint``).  Results are
    sorted by descending probability, then by binding.
    """
    if not conjuncts:
        raise UnsafeQueryError("query needs at least one conjunct")
    prob_of = {m.mapping_id: m.probability for m in merged.mappings}
    state = merged._fixpoint()
    plan = Plan(tuple(conjuncts))
    variables = sorted((v.token, slot) for v, slot in plan.slots.items() if isinstance(v, Variable))
    answers: dict[tuple, QueryAnswer] = {}
    for vals, seen in plan.rows(state.index, state.args):
        key = tuple((token, vals[slot].name) for token, slot in variables)
        clauses = [state.paths[f] - LOCAL if mapped_only else state.paths[f] for f in seen]
        if key not in answers and all(clauses):  # a fact with no path left answers nothing
            answers[key] = QueryAnswer(key, _score(clauses, prob_of))
    return sorted(
        answers.values(), key=lambda a: (-a.probability, tuple(str(v) for _, v in a.binding))
    )
