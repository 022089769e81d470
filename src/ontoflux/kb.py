"""Immutable knowledge bases with closed-world class closures.

A knowledge base is the triple of terminological axioms (T-Box),
ground assertions stamped with the simulation time they were made
(A-Box), and safe Horn rules (R-Box).  Reasoning is a restricted
forward chainer: subclass and union propagation, property domain/range
inference, and Horn rules whose variables bind only to known
individuals.  That fragment is decidable and the fixpoint is finite.

One engine, ``fixpoint``, computes it, both here and for the merged
fact set in ``merging``.  It indexes the one-premise T-Box axioms by
concept and property, runs semi-naive rounds (each round fires only on
the atoms that are new or changed in the previous one) and joins rule
bodies through a per-predicate fact index.  Each atom carries an
annotation that the caller defines: ``saturate`` uses plain membership,
``merging`` the atom's minimal derivation paths.  The engine can also
continue an earlier result: given an already-closed atom set and new
seeds, only the seeds that add to it start the rounds.  Computing from
scratch is continuing from nothing.

The saturation is memoized on the knowledge base itself, so repeated
closure and membership queries against one KB cost one fixpoint.  A KB
made by ``close_class``, or by re-asserting a known atom, shares its
parent's memo, since its T-Box, R-Box and A-Box atoms are the same.  A
KB made by asserting a new A-Box atom extends its parent's memo: it
keeps the last saturation computed along its line of parents, and
saturating it continues from there, so a growing A-Box costs only the
new consequences.  A T-Box or R-Box assertion starts a fresh memo.

Queries are three-valued.  Membership that can be derived is True;
membership in a class whose extension has been explicitly closed is
False when the individual is outside the recorded closure; everything
else is Unknown.  Closing a class is how the open-world default is
switched off for the classes a monitor needs to reason about
negatively.

All values here are immutable; every operation returns a new
``KnowledgeBase`` and never mutates its input.  The memo is the one
piece of state a KB fills in later; it takes no part in equality or
``repr``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, TypeVar, Union

from .errors import MalformedItemError

_LOCAL_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

Annotation = TypeVar("Annotation")  # what the fixpoint attaches to each atom


@dataclass(frozen=True, order=True)
class EntityName:
    """A namespaced name, e.g. ``O1:Event``."""

    namespace: str
    local: str

    def __post_init__(self):
        if not self.namespace:
            raise MalformedItemError("entity namespace must be nonempty")
        if not _LOCAL_TOKEN.match(self.local):
            raise MalformedItemError(f"bad local token: {self.local!r}")

    def __str__(self) -> str:
        return f"{self.namespace}:{self.local}"


@dataclass(frozen=True, order=True)
class Individual:
    name: EntityName

    def __str__(self) -> str:
        return str(self.name)


@dataclass(frozen=True, order=True)
class Variable:
    token: str

    def __str__(self) -> str:
        return self.token


Term = Union[Individual, Variable]


@dataclass(frozen=True, order=True)
class ClassAtom:
    concept: EntityName
    subject: Term

    def __str__(self) -> str:
        return f"{self.concept}({self.subject})"


@dataclass(frozen=True, order=True)
class PropertyAtom:
    prop: EntityName
    subject: Term
    object: Term

    def __str__(self) -> str:
        return f"{self.prop}({self.subject}, {self.object})"


Atom = Union[ClassAtom, PropertyAtom]


def atom_terms(atom: Atom) -> tuple[Term, ...]:
    if isinstance(atom, ClassAtom):
        return (atom.subject,)
    return (atom.subject, atom.object)


def is_ground(atom: Atom) -> bool:
    return all(isinstance(t, Individual) for t in atom_terms(atom))


# --- T-Box axiom forms -------------------------------------------------


@dataclass(frozen=True, order=True)
class SubClassOf:
    sub: EntityName
    sup: EntityName


@dataclass(frozen=True, order=True)
class DisjointClasses:
    a: EntityName
    b: EntityName

    def __post_init__(self):
        if self.a == self.b:
            raise MalformedItemError("disjointness arguments must be distinct")


@dataclass(frozen=True, order=True)
class UnionEquivalence:
    whole: EntityName
    parts: tuple[EntityName, ...]

    def __post_init__(self):
        if len(set(self.parts)) < 2:
            raise MalformedItemError("union must have at least 2 distinct parts")


@dataclass(frozen=True, order=True)
class PropertyDomain:
    prop: EntityName
    concept: EntityName


@dataclass(frozen=True, order=True)
class PropertyRange:
    prop: EntityName
    concept: EntityName


@dataclass(frozen=True, order=True)
class AllValuesFrom:
    """``concept ⊆ ∀prop.filler``.  Validated, never used to infer."""

    concept: EntityName
    prop: EntityName
    filler: EntityName


TBoxAxiom = Union[
    SubClassOf, DisjointClasses, UnionEquivalence, PropertyDomain, PropertyRange, AllValuesFrom
]

_TBOX_TYPES = (SubClassOf, DisjointClasses, UnionEquivalence, PropertyDomain, PropertyRange, AllValuesFrom)


# --- A-Box / R-Box -----------------------------------------------------


@dataclass(frozen=True, order=True)
class ABoxAssertion:
    """A ground atom stamped with the time it was asserted."""

    atom: Atom
    asserted_at: float = 0.0

    def __post_init__(self):
        if not is_ground(self.atom):
            raise MalformedItemError(f"A-Box atom must be ground: {self.atom}")
        if not math.isfinite(self.asserted_at) or self.asserted_at < 0:
            raise MalformedItemError(
                f"asserted_at must be finite and nonnegative, got {self.asserted_at}"
            )


@dataclass(frozen=True, order=True)
class HornRule:
    """Safe Horn rule: every head variable occurs in the body."""

    rule_id: str
    body: tuple[Atom, ...]
    head: Atom

    def __post_init__(self):
        if not self.body:
            raise MalformedItemError(f"rule {self.rule_id}: body must be nonempty")
        body_vars = {t for a in self.body for t in atom_terms(a) if isinstance(t, Variable)}
        head_vars = {t for t in atom_terms(self.head) if isinstance(t, Variable)}
        if not head_vars <= body_vars:
            loose = ", ".join(sorted(v.token for v in head_vars - body_vars))
            raise MalformedItemError(f"rule {self.rule_id}: unsafe head variables {loose}")


@dataclass(frozen=True)
class ClosureRecord:
    concept: EntityName
    members: frozenset[EntityName]
    closed_at: float


class Truth(Enum):
    """Three-valued query answer."""

    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Violation:
    """An individual provably violating a T-Box constraint, with the axiom cited."""

    individual: EntityName
    axiom: TBoxAxiom


class _Memo:
    """The saturation of every KB sharing this memo: they have one T-, A- and R-Box.

    Until it is computed, ``base`` may hold the saturation of a KB with
    the same T- and R-Box and a subset of the A-Box; saturating
    continues from it and then drops it.
    """

    __slots__ = ("atoms", "base")

    def __init__(self, base: frozenset[Atom] | None = None):
        self.atoms: frozenset[Atom] | None = None
        self.base = base

    def extended(self) -> "_Memo":
        """The memo of a KB with more A-Box atoms."""
        return _Memo(self.base if self.atoms is None else self.atoms)


@dataclass(frozen=True)
class KnowledgeBase:
    """Immutable T-Box / A-Box / R-Box snapshot with closure records.

    The A-Box maps each ground atom to the earliest time at which it was
    asserted; re-asserting an atom never moves its timestamp forward.
    """

    tbox: frozenset[TBoxAxiom] = frozenset()
    abox: dict[Atom, float] = field(default_factory=dict)
    rbox: frozenset[HornRule] = frozenset()
    closures: dict[EntityName, ClosureRecord] = field(default_factory=dict)
    _memo: _Memo = field(default_factory=_Memo, compare=False, repr=False)

    @staticmethod
    def empty() -> "KnowledgeBase":
        return KnowledgeBase()

    def assertions(self) -> list[ABoxAssertion]:
        """The A-Box in ``str(atom)`` order (class and property atoms do not compare)."""
        return [ABoxAssertion(a, self.abox[a]) for a in sorted(self.abox, key=str)]


KBItem = Union[TBoxAxiom, ABoxAssertion, HornRule]


def assert_item(kb: KnowledgeBase, item: KBItem) -> KnowledgeBase:
    """Return a new KB containing ``item``.  Idempotent for duplicates."""
    if isinstance(item, _TBOX_TYPES):
        if item in kb.tbox:
            return kb
        return KnowledgeBase(kb.tbox | {item}, dict(kb.abox), kb.rbox, dict(kb.closures))
    if isinstance(item, ABoxAssertion):
        existing = kb.abox.get(item.atom)
        if existing is not None and existing <= item.asserted_at:
            return kb
        abox = dict(kb.abox)
        abox[item.atom] = item.asserted_at
        memo = kb._memo if existing is not None else kb._memo.extended()
        return KnowledgeBase(kb.tbox, abox, kb.rbox, dict(kb.closures), memo)
    if isinstance(item, HornRule):
        if item in kb.rbox:
            return kb
        return KnowledgeBase(kb.tbox, dict(kb.abox), kb.rbox | {item}, dict(kb.closures))
    raise MalformedItemError(f"cannot assert {type(item).__name__}")


def assert_all(kb: KnowledgeBase, items: Iterable[KBItem]) -> KnowledgeBase:
    for item in items:
        kb = assert_item(kb, item)
    return kb


# --- entailment --------------------------------------------------------


def atom_predicate(atom: Atom) -> EntityName:
    return atom.concept if isinstance(atom, ClassAtom) else atom.prop


FactIndex = dict[EntityName, set[Atom]]  # predicate -> ground atoms


def index_facts(facts: Iterable[Atom]) -> FactIndex:
    index: FactIndex = {}
    for atom in facts:
        index.setdefault(atom_predicate(atom), set()).add(atom)
    return index


def substitute(atom: Atom, binding: dict) -> Atom:
    def term(t: Term) -> Term:
        return binding.get(t, t) if isinstance(t, Variable) else t

    if isinstance(atom, ClassAtom):
        return ClassAtom(atom.concept, term(atom.subject))
    return PropertyAtom(atom.prop, term(atom.subject), term(atom.object))


def _unify(pattern: Atom, fact: Atom, binding: dict) -> dict | None:
    """``binding`` extended so that ``pattern`` becomes ``fact``, or None."""
    if type(pattern) is not type(fact):
        return None  # a class and a property may share a name
    out = binding
    for p, v in zip(atom_terms(pattern), atom_terms(fact)):
        if isinstance(p, Individual):
            if p != v:
                return None
        elif p in out:
            if out[p] != v:
                return None
        else:
            if out is binding:
                out = dict(binding)
            out[p] = v
    return out


def _join(plan: list[tuple[Atom, FactIndex, FactIndex]]) -> list[dict]:
    """Bindings matching each pattern to a fact of its index outside its skip index."""
    bindings = [{}]
    for pattern, index, skip in plan:
        pred = atom_predicate(pattern)
        facts = index.get(pred)
        if not facts:
            return []
        excluded = skip.get(pred, ())
        extended = []
        for binding in bindings:
            bound = substitute(pattern, binding)
            if is_ground(bound):
                if bound in facts and bound not in excluded:
                    extended.append(binding)
                continue
            for fact in facts:
                if fact not in excluded:
                    out = _unify(bound, fact, binding)
                    if out is not None:
                        extended.append(out)
        bindings = extended
        if not bindings:
            break
    return bindings


def match_body(
    body: tuple[Atom, ...], index: FactIndex, delta: FactIndex | None = None
) -> list[dict]:
    """All variable bindings under which every body atom matches an indexed fact.

    With ``delta`` (the facts new or changed in the last round, also in
    ``index``) only the bindings that use a delta fact, each once: the
    first body position that uses one matches ``delta`` and is joined
    first, the positions before it match facts outside ``delta``.
    """
    if delta is None:
        return _join([(pattern, index, {}) for pattern in body])
    out = []
    for i, pattern in enumerate(body):
        plan = [(pattern, delta, {})]
        plan += [(p, index, delta if j < i else {}) for j, p in enumerate(body) if j != i]
        out.extend(_join(plan))
    return out


def _tbox_heads(tbox: Iterable[TBoxAxiom]):
    """The one-premise axioms, indexed: ``heads(atom)`` lists the atoms they derive from it."""
    wholes: dict[EntityName, set[EntityName]] = {}  # concept -> superclasses and union wholes
    domains: dict[EntityName, set[EntityName]] = {}
    ranges: dict[EntityName, set[EntityName]] = {}
    for ax in tbox:
        if isinstance(ax, SubClassOf):
            wholes.setdefault(ax.sub, set()).add(ax.sup)
        elif isinstance(ax, UnionEquivalence):
            for part in ax.parts:
                wholes.setdefault(part, set()).add(ax.whole)
        elif isinstance(ax, PropertyDomain):
            domains.setdefault(ax.prop, set()).add(ax.concept)
        elif isinstance(ax, PropertyRange):
            ranges.setdefault(ax.prop, set()).add(ax.concept)

    def heads(atom: Atom) -> list[Atom]:
        if isinstance(atom, ClassAtom):
            return [ClassAtom(c, atom.subject) for c in wholes.get(atom.concept, ())]
        return [ClassAtom(c, atom.subject) for c in domains.get(atom.prop, ())] + [
            ClassAtom(c, atom.object) for c in ranges.get(atom.prop, ())
        ]

    return heads


def fixpoint(
    tbox: Iterable[TBoxAxiom],
    rbox: Iterable[HornRule],
    seeds: dict[Atom, Annotation],
    conjoin: Callable[[list[Annotation]], Annotation],
    disjoin: Callable[[Annotation, Annotation], Annotation],
    closed: dict[Atom, Annotation] | None = None,
) -> dict[Atom, Annotation]:
    """Least fixpoint of the T-Box and R-Box over annotated ground atoms.

    ``seeds`` maps each given atom to its annotation.  A one-premise
    axiom passes its premise's annotation to the head; a rule firing
    gives its head ``conjoin`` of its premises' annotations; two
    annotations of one atom combine by ``disjoin``.  Rounds are
    semi-naive: each fires the axioms and rules only on the atoms
    whose annotation is new or changed in the previous round, joining
    rule bodies through a per-predicate index.  Terminates when
    annotations form a finite lattice, as sets of atoms and of
    mapping-id paths over a finite KB do.

    ``closed``, if given, is a result of this function for the same
    T-Box, R-Box and annotations; the rounds continue it, and only the
    seeds whose annotation it lacks or changes enter the first delta.
    The annotations form a semiring and the fixpoint does not depend
    on evaluation order, so continuing equals computing from scratch.
    """
    heads = _tbox_heads(tbox)
    rules = list(rbox)
    if closed:
        facts = dict(closed)
        index = index_facts(facts)
        delta = _absorb(facts, seeds, disjoin, index)
    else:  # every seed is new
        facts = dict(seeds)
        index = index_facts(facts)
        delta = index_facts(facts)
    while delta:
        fresh: dict[Atom, Annotation] = {}

        def emit(head: Atom, annotation: Annotation) -> None:
            prior = fresh.get(head)
            fresh[head] = annotation if prior is None else disjoin(prior, annotation)

        for bucket in delta.values():
            for atom in bucket:
                for head in heads(atom):
                    emit(head, facts[atom])
        for rule in rules:
            for binding in match_body(rule.body, index, delta):
                emit(
                    substitute(rule.head, binding),
                    conjoin([facts[substitute(b, binding)] for b in rule.body]),
                )
        delta = _absorb(facts, fresh, disjoin, index)
    return facts


def _absorb(facts: dict, fresh: dict, disjoin: Callable, index: FactIndex) -> FactIndex:
    """Add ``fresh`` to ``facts`` and ``index``; the index of the atoms new or changed."""
    delta: FactIndex = {}
    for atom, annotation in fresh.items():
        prior = facts.get(atom)
        if prior is not None:
            annotation = disjoin(prior, annotation)
            if annotation == prior:
                continue
        facts[atom] = annotation
        pred = atom_predicate(atom)
        index.setdefault(pred, set()).add(atom)
        delta.setdefault(pred, set()).add(atom)
    return delta


def _holds(*_) -> bool:
    return True  # the plain annotation: an atom is derived or it is not


def saturate(kb: KnowledgeBase) -> frozenset[Atom]:
    """Least fixpoint of the ground atoms derivable from the KB.

    Combines asserted atoms with subclass propagation, union
    part-to-whole propagation, property domain/range inference, and
    Horn-rule firing over known individuals.  Terminates because the
    ground atom space over the KB's individuals is finite.  The result
    is computed once per KB and kept on it; a KB that extends its
    parent's memo continues the parent's saturation.
    """
    memo = kb._memo
    if memo.atoms is None:
        seeds, closed = dict.fromkeys(kb.abox, True), dict.fromkeys(memo.base or (), True)
        memo.atoms = frozenset(fixpoint(kb.tbox, kb.rbox, seeds, _holds, _holds, closed))
        memo.base = None
    return memo.atoms


def entailed_members(kb: KnowledgeBase, concept: EntityName) -> set[EntityName]:
    """Every individual provably a member of ``concept`` (empty if unknown)."""
    return {
        a.subject.name
        for a in saturate(kb)
        if isinstance(a, ClassAtom) and a.concept == concept and isinstance(a.subject, Individual)
    }


def check_disjointness(kb: KnowledgeBase) -> list[Violation]:
    """Individuals provably in both halves of a disjointness axiom."""
    out = []
    derived = saturate(kb)
    members: dict[EntityName, set[EntityName]] = {}
    for a in derived:
        if isinstance(a, ClassAtom) and isinstance(a.subject, Individual):
            members.setdefault(a.concept, set()).add(a.subject.name)
    for ax in sorted(kb.tbox, key=str):
        if isinstance(ax, DisjointClasses):
            both = members.get(ax.a, set()) & members.get(ax.b, set())
            out.extend(Violation(i, ax) for i in sorted(both))
    return out


def check_all_values_from(kb: KnowledgeBase) -> list[Violation]:
    """Definite violations of universal restrictions.

    A violation needs an entailed subject of the restricted class, a
    property edge to an object, and an object that is *definitely* not
    in the filler class, which requires the filler to be closed.
    Under the open world, a merely unproven filler membership is not a
    violation.
    """
    out = []
    derived = saturate(kb)
    for ax in sorted(kb.tbox, key=str):
        if not isinstance(ax, AllValuesFrom):
            continue
        subjects = entailed_members(kb, ax.concept)
        for a in sorted(derived, key=str):
            if isinstance(a, PropertyAtom) and a.prop == ax.prop:
                if a.subject.name in subjects:
                    if is_member(kb, a.object.name, ax.filler) is Truth.FALSE:
                        out.append(Violation(a.subject.name, ax))
    return out


def close_class(kb: KnowledgeBase, concept: EntityName, now: float) -> KnowledgeBase:
    """Record the provable extension of ``concept`` as closed at ``now``.

    After closing, non-membership queries against the concept answer
    False instead of Unknown.  Re-closing replaces the record; closing
    backwards in time is rejected.
    """
    prior = kb.closures.get(concept)
    if prior is not None and now < prior.closed_at:
        raise ValueError(f"cannot close {concept} at {now} before existing closure at {prior.closed_at}")
    closures = dict(kb.closures)
    closures[concept] = ClosureRecord(concept, frozenset(entailed_members(kb, concept)), now)
    return KnowledgeBase(kb.tbox, dict(kb.abox), kb.rbox, closures, kb._memo)


def is_member(kb: KnowledgeBase, individual: EntityName, concept: EntityName) -> Truth:
    """Three-valued membership under the closure semantics."""
    if individual in entailed_members(kb, concept):
        return Truth.TRUE
    record = kb.closures.get(concept)
    if record is not None and individual not in record.members:
        return Truth.FALSE
    return Truth.UNKNOWN
