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
bodies through two fact indexes: one per predicate, and one per
property, argument position and individual, through which a body atom
with one argument bound reads only the facts that have it there.  Both
grow from each round's delta.  Each atom carries an
annotation that the caller defines: ``saturate`` uses plain membership,
``merging`` the atom's minimal derivation paths.  The engine can also
continue an earlier result in place: given an already-closed atom set,
its indexes and new seeds, only the seeds that add to it start the
rounds.  Computing from scratch is continuing from nothing.

The saturation is memoized on the knowledge base itself.  The memo
holds the fixpoint's state, not just its atoms: the derived atoms, their
two indexes and the members of each concept, all extended from each
round's delta.  ``saturate`` hands out a read-only set view of
it; ``entailed_members``, ``is_member``, ``close_class`` and the
constraint checks read the member sets and the index, so none of them
rescans the saturation, and a closure record is a view of a member
set, not a copy.  A KB made by ``close_class``, or by
re-asserting a known atom, shares its parent's memo, since its T-Box,
R-Box and A-Box atoms are the same.  A KB made by asserting new A-Box
atoms keeps the memo it grew from and those atoms; saturating it seeds
the fixpoint with the new atoms only and takes the older memo's state
over, extending it in place.  The older KB still answers for its own
atoms, a prefix of the state it gave away, and copies that prefix out
if it is asked again.  A T-Box or R-Box assertion starts a fresh memo.

Names, terms and atoms hash once, at construction, since every dict
and set the engine keeps hashes them.  Pickling and copying rebuild
them from their fields, so a cached hash never crosses a process.

Queries are three-valued.  Membership that can be derived is True;
membership in a class whose extension has been explicitly closed is
False when the individual is outside the recorded closure; everything
else is Unknown.  Closing a class is how the open-world default is
switched off for the classes a monitor needs to reason about
negatively.

All values here are immutable; every operation returns a new
``KnowledgeBase`` and never mutates its input, and KBs share the A-Box
and closure dicts they have in common.  The memo is the one piece of
state a KB fills in later; it takes no part in equality or ``repr``.
"""

from __future__ import annotations

import math
import re
import weakref
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from typing import Callable, Iterable, TypeVar, Union

from .errors import MalformedItemError

_LOCAL_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

Annotation = TypeVar("Annotation")  # what the fixpoint attaches to each atom


class _HashedOnce:
    """A name, term or atom: it hashes its value once, at construction.

    Every dict and set of atoms hashes them, so each class keeps its hash
    in a ``_hash`` slot, which takes no part in equality, order or
    ``repr``.  String hashes differ between processes, so pickling and
    copying rebuild the value from its fields instead of carrying the
    slot over.
    """

    __slots__ = ()

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


@dataclass(frozen=True, order=True, slots=True)
class EntityName(_HashedOnce):
    """A namespaced name, e.g. ``O1:Event``."""

    namespace: str
    local: str
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.namespace:
            raise MalformedItemError("entity namespace must be nonempty")
        if not _LOCAL_TOKEN.match(self.local):
            raise MalformedItemError(f"bad local token: {self.local!r}")
        object.__setattr__(self, "_hash", hash((self.namespace, self.local)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{self.namespace}:{self.local}"


@dataclass(frozen=True, order=True, slots=True)
class Individual(_HashedOnce):
    name: EntityName
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", self.name._hash)

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return str(self.name)


@dataclass(frozen=True, order=True, slots=True)
class Variable(_HashedOnce):
    token: str
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(self.token))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self.token


Term = Union[Individual, Variable]


@dataclass(frozen=True, order=True, slots=True)
class ClassAtom(_HashedOnce):
    concept: EntityName
    subject: Term
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.concept._hash, self.subject._hash)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{self.concept}({self.subject})"


@dataclass(frozen=True, order=True, slots=True)
class PropertyAtom(_HashedOnce):
    prop: EntityName
    subject: Term
    object: Term
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.prop._hash, self.subject._hash, self.object._hash)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{self.prop}({self.subject}, {self.object})"


Atom = Union[ClassAtom, PropertyAtom]


def atom_terms(atom: Atom) -> tuple[Term, ...]:
    if isinstance(atom, ClassAtom):
        return (atom.subject,)
    return (atom.subject, atom.object)


def is_ground(atom: Atom) -> bool:
    if not isinstance(atom.subject, Individual):
        return False
    return isinstance(atom, ClassAtom) or isinstance(atom.object, Individual)


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
        if not 0 <= self.asserted_at < math.inf:  # false for NaN too
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
    members: AbstractSet[EntityName]  # a frozenset, or the ``Members`` that ``close_class`` records
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


@dataclass(frozen=True)
class KnowledgeBase:
    """Immutable T-Box / A-Box / R-Box snapshot with closure records.

    The A-Box maps each ground atom to the earliest time at which it was
    asserted; re-asserting an atom never moves its timestamp forward.
    KBs may share their A-Box and closure dicts, which are never
    mutated once a KB holds them.
    """

    tbox: frozenset[TBoxAxiom] = frozenset()
    abox: dict[Atom, float] = field(default_factory=dict)
    rbox: frozenset[HornRule] = frozenset()
    closures: dict[EntityName, ClosureRecord] = field(default_factory=dict)
    _memo: "_Memo" = field(default_factory=lambda: _Memo(), compare=False, repr=False)

    @staticmethod
    def empty() -> "KnowledgeBase":
        return KnowledgeBase()

    def assertions(self) -> list[ABoxAssertion]:
        """The A-Box in ``str(atom)`` order (class and property atoms do not compare)."""
        return [ABoxAssertion(a, self.abox[a]) for a in sorted(self.abox, key=str)]


KBItem = Union[TBoxAxiom, ABoxAssertion, HornRule]


def assert_item(kb: KnowledgeBase, item: KBItem) -> KnowledgeBase:
    """Return a new KB containing ``item``.  Idempotent for duplicates."""
    return assert_all(kb, (item,))


def assert_all(kb: KnowledgeBase, items: Iterable[KBItem]) -> KnowledgeBase:
    """Return a new KB containing every item; ``kb`` itself if none adds anything.

    One pass, equal to asserting the items one by one: an A-Box atom
    keeps its earliest time, and the A-Box is copied once.  Any new
    T-Box or R-Box item starts a fresh memo; otherwise new A-Box atoms
    extend ``kb``'s memo, and a KB with the same atoms shares it.
    """
    abox = None  # kb.abox, copied at the first change
    added: list[Atom] = []
    tbox: set[TBoxAxiom] = set()
    rbox: set[HornRule] = set()
    for item in items:
        if isinstance(item, ABoxAssertion):
            existing = (kb.abox if abox is None else abox).get(item.atom)
            if existing is not None and existing <= item.asserted_at:
                continue
            if abox is None:
                abox = dict(kb.abox)
            if existing is None:
                added.append(item.atom)
            abox[item.atom] = item.asserted_at
        elif isinstance(item, _TBOX_TYPES):
            if item not in kb.tbox:
                tbox.add(item)
        elif isinstance(item, HornRule):
            if item not in kb.rbox:
                rbox.add(item)
        else:
            raise MalformedItemError(f"cannot assert {type(item).__name__}")
    if tbox or rbox:
        return KnowledgeBase(kb.tbox | tbox, kb.abox if abox is None else abox, kb.rbox | rbox, kb.closures)
    if abox is None:
        return kb
    memo = kb._memo.extended(tuple(added)) if added else kb._memo
    return KnowledgeBase(kb.tbox, abox, kb.rbox, kb.closures, memo)


# --- entailment --------------------------------------------------------


def atom_predicate(atom: Atom) -> EntityName:
    return atom.concept if isinstance(atom, ClassAtom) else atom.prop


FactIndex = dict[EntityName, set[Atom]]  # predicate -> ground atoms
# (property, argument position, individual) -> the ground property atoms
# with that individual there; a class atom with a bound argument is ground
ArgIndex = dict[tuple[EntityName, int, Individual], set[Atom]]


def index_facts(facts: Iterable[Atom]) -> FactIndex:
    index: FactIndex = {}
    for atom in facts:
        index.setdefault(atom_predicate(atom), set()).add(atom)
    return index


def index_args(facts: Iterable[Atom]) -> ArgIndex:
    args: ArgIndex = {}
    for atom in facts:
        _index_arguments(atom, args)
    return args


def _index_arguments(atom: Atom, args: ArgIndex) -> None:
    if isinstance(atom, PropertyAtom):
        args.setdefault((atom.prop, 0, atom.subject), set()).add(atom)
        args.setdefault((atom.prop, 1, atom.object), set()).add(atom)


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


def _join(plan: list[tuple[Atom, FactIndex, ArgIndex | None, FactIndex]]) -> list[dict]:
    """Bindings matching each pattern to a fact of its index outside its skip index.

    A pattern that a binding leaves with one argument bound is matched
    against the facts with that argument only, if its index has an
    argument index.
    """
    bindings = [{}]
    for pattern, index, args, skip in plan:
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
            candidates = facts
            if args is not None and isinstance(bound, PropertyAtom):
                if isinstance(bound.subject, Individual):
                    candidates = args.get((pred, 0, bound.subject), ())
                elif isinstance(bound.object, Individual):
                    candidates = args.get((pred, 1, bound.object), ())
            for fact in candidates:
                if fact not in excluded:
                    out = _unify(bound, fact, binding)
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
    ``index``) only the bindings that use a delta fact, each once: the
    first body position that uses one matches ``delta`` and is joined
    first, the positions before it match facts outside ``delta``.
    ``args``, the argument index of the facts in ``index``, lets a body
    atom with a bound argument read only the facts that have it.
    """
    if delta is None:
        return _join([(pattern, index, args, {}) for pattern in body])
    out = []
    for i, pattern in enumerate(body):
        plan = [(pattern, delta, None, {})]
        plan += [(p, index, args, delta if j < i else {}) for j, p in enumerate(body) if j != i]
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
    closed: tuple[dict[Atom, Annotation], FactIndex, ArgIndex] | None = None,
) -> tuple[dict[Atom, Annotation], FactIndex, ArgIndex, set[Atom]]:
    """Least fixpoint of the T-Box and R-Box over annotated ground atoms.

    ``seeds`` maps each given atom to its annotation.  A one-premise
    axiom passes its premise's annotation to the head; a rule firing
    gives its head ``conjoin`` of its premises' annotations; two
    annotations of one atom combine by ``disjoin``.  Rounds are
    semi-naive: each fires the axioms and rules only on the atoms
    whose annotation is new or changed in the previous round, joining
    rule bodies through a per-predicate and a per-argument index.
    Terminates when annotations form a finite lattice, as sets of atoms
    and of mapping-id paths over a finite KB do.

    Returns the annotated atoms, their two indexes and the atoms whose
    annotation is new or changed.  ``closed``, if given, is the atoms
    and indexes of a result of this function for the same T-Box, R-Box
    and annotations; the rounds extend all three in place, and only the
    seeds whose annotation they lack or change enter the first delta.
    The annotations form a semiring and the fixpoint does not depend
    on evaluation order, so continuing equals computing from scratch.
    """
    heads = _tbox_heads(tbox)
    rules = list(rbox)
    facts, index, args = ({}, {}, {}) if closed is None else closed
    delta = _absorb(facts, seeds, disjoin, index, args)
    changed: set[Atom] = set()
    while delta:
        fresh: dict[Atom, Annotation] = {}

        def emit(head: Atom, annotation: Annotation) -> None:
            prior = fresh.get(head)
            fresh[head] = annotation if prior is None else disjoin(prior, annotation)

        for bucket in delta.values():
            changed.update(bucket)
            for atom in bucket:
                for head in heads(atom):
                    emit(head, facts[atom])
        for rule in rules:
            for binding in match_body(rule.body, index, delta, args):
                emit(
                    substitute(rule.head, binding),
                    conjoin([facts[substitute(b, binding)] for b in rule.body]),
                )
        delta = _absorb(facts, fresh, disjoin, index, args)
    return facts, index, args, changed


def _absorb(facts: dict, fresh: dict, disjoin: Callable, index: FactIndex, args: ArgIndex) -> FactIndex:
    """Add ``fresh`` to ``facts`` and both indexes; the index of the atoms new or changed."""
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
        if prior is None:
            _index_arguments(atom, args)
        delta.setdefault(pred, set()).add(atom)
    return delta


def _holds(*_) -> bool:
    return True  # the plain annotation: an atom is derived or it is not


_NONE: frozenset = frozenset()


class _Closure:
    """A saturation that grows in place: its atoms in the order derived,
    their per-predicate and per-argument indexes and the individuals
    entailed in each concept."""

    __slots__ = ("facts", "index", "args", "members")

    def __init__(self, atoms: Iterable[Atom] = ()):
        self.facts: dict[Atom, bool] = dict.fromkeys(atoms, True)
        self.index = index_facts(self.facts)
        self.args = index_args(self.facts)
        self.members: dict[EntityName, dict[EntityName, int]] = {}  # concept -> member -> ordinal
        self.add_members(self.facts)

    def add_members(self, atoms: Iterable[Atom]) -> None:
        for a in atoms:
            if isinstance(a, ClassAtom) and isinstance(a.subject, Individual):
                order = self.members.setdefault(a.concept, {})
                order.setdefault(a.subject.name, len(order))


class Members(AbstractSet):
    """The members a concept had when it was closed, as a read-only set.

    They are the first ``count`` of the saturation's member dict for the
    concept, which later saturations extend in place, so recording them
    costs no copy.
    """

    __slots__ = ("_order", "_count")

    def __init__(self, order: dict[EntityName, int], count: int):
        self._order, self._count = order, count

    def __contains__(self, name) -> bool:
        return self._order.get(name, self._count) < self._count

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        return iter(list(islice(self._order, self._count)))

    def __hash__(self) -> int:
        return hash(frozenset(self))

    def __repr__(self) -> str:
        return repr(frozenset(self))

    @classmethod
    def _from_iterable(cls, names: Iterable[EntityName]) -> frozenset[EntityName]:
        return frozenset(names)


class _Memo:
    """The saturation of every KB sharing this memo: they have one T-, A- and R-Box.

    Once computed, it is the first ``size`` atoms of ``closure``.  The
    memo of a KB with more A-Box atoms takes its base's closure over and
    extends it in place, from each round's delta; the base then reads
    its own atoms as a prefix, copied out the first time it is asked
    again.  Until computed, ``base`` may be the memo of a KB with the
    same T- and R-Box and a subset of the A-Box, and ``added`` the A-Box
    atoms asserted since (tuples linked newest first); saturating
    continues ``base`` with ``added`` as the only seeds.
    """

    __slots__ = ("closure", "size", "base", "added", "view")

    def __init__(self, base: "_Memo | None" = None, added: tuple | None = None):
        self.closure: _Closure | None = None
        self.size = 0
        self.base = base
        self.added = added
        # the last view ``saturate`` handed out, weakly: a view refers to its
        # memo, and a reference cycle would keep both past the KB's lifetime
        self.view: weakref.ref[Saturation] | None = None

    def __reduce__(self):
        return _Memo, ()  # a cache: a pickled or copied KB saturates afresh

    def extended(self, atoms: tuple[Atom, ...]) -> "_Memo":
        """The memo of a KB with the new A-Box ``atoms`` as well."""
        if self.closure is not None:
            return _Memo(self, (atoms, None))
        if self.base is None:
            return _Memo()  # nothing computed along the line: start from the whole A-Box
        return _Memo(self.base, (atoms, self.added))

    def compute(self, kb: KnowledgeBase) -> None:
        if self.base is None:
            closure, seeds = _Closure(), kb.abox
        else:
            closure, chunks, link = self.base.own(), [], self.added
            while link is not None:
                chunks.append(link[0])
                link = link[1]
            seeds = [atom for atoms in reversed(chunks) for atom in atoms]
        *_, new = fixpoint(
            kb.tbox, kb.rbox, dict.fromkeys(seeds, True), _holds, _holds,
            (closure.facts, closure.index, closure.args),
        )
        closure.add_members(new)
        self.closure, self.size, self.base, self.added = closure, len(closure.facts), None, None

    def own(self) -> _Closure:
        """The closure, holding this memo's atoms and no later ones."""
        if len(self.closure.facts) != self.size:
            self.closure = _Closure(islice(self.closure.facts, self.size))
        return self.closure


class Saturation(AbstractSet):
    """The atoms derivable from a KB, as a read-only set.

    Membership and size read the KB's memo; iterating, hashing or
    combining it with another set builds a frozenset of it, once.
    """

    __slots__ = ("_memo", "_atoms", "__weakref__")

    def __init__(self, memo: _Memo):
        self._memo = memo
        self._atoms: frozenset[Atom] | None = None

    def __contains__(self, atom) -> bool:
        return atom in self._memo.own().facts

    def __len__(self) -> int:
        return self._memo.size

    def __iter__(self):
        return iter(self.atoms())

    def __hash__(self) -> int:
        return hash(self.atoms())

    def __repr__(self) -> str:
        return f"Saturation({set(self.atoms())!r})"

    def __reduce__(self):
        return frozenset, (self.atoms(),)  # the memo it reads does not travel

    def atoms(self) -> frozenset[Atom]:
        if self._atoms is None:
            self._atoms = frozenset(self._memo.own().facts)
        return self._atoms

    @classmethod
    def _from_iterable(cls, atoms: Iterable[Atom]) -> frozenset[Atom]:
        return frozenset(atoms)


def saturate(kb: KnowledgeBase) -> Saturation:
    """Least fixpoint of the ground atoms derivable from the KB.

    Combines asserted atoms with subclass propagation, union
    part-to-whole propagation, property domain/range inference, and
    Horn-rule firing over known individuals.  Terminates because the
    ground atom space over the KB's individuals is finite.  The result
    is computed once per KB and kept on it; a KB that extends its
    parent's memo continues the parent's saturation.  It is returned as
    a read-only set view of the memo.
    """
    memo = kb._memo
    if memo.closure is None:
        memo.compute(kb)
    view = memo.view() if memo.view is not None else None
    if view is None:
        view = Saturation(memo)
        memo.view = weakref.ref(view)
    return view


def _closure(kb: KnowledgeBase) -> _Closure:
    saturate(kb)
    return kb._memo.own()


def entailed_members(kb: KnowledgeBase, concept: EntityName) -> set[EntityName]:
    """Every individual provably a member of ``concept`` (empty if unknown)."""
    return set(_closure(kb).members.get(concept, _NONE))


def check_disjointness(kb: KnowledgeBase) -> list[Violation]:
    """Individuals provably in both halves of a disjointness axiom."""
    out = []
    members = _closure(kb).members
    for ax in sorted(kb.tbox, key=str):
        if isinstance(ax, DisjointClasses):
            both = members.get(ax.a, {}).keys() & members.get(ax.b, {}).keys()
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
    closure = _closure(kb)
    for ax in sorted(kb.tbox, key=str):
        if not isinstance(ax, AllValuesFrom):
            continue
        subjects = closure.members.get(ax.concept, _NONE)
        edges = [
            a for a in closure.index.get(ax.prop, ())
            if isinstance(a, PropertyAtom) and a.subject.name in subjects
        ]
        for a in sorted(edges, key=str):
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
    order = _closure(kb).members.get(concept, {})
    closures = dict(kb.closures)
    closures[concept] = ClosureRecord(concept, Members(order, len(order)), now)
    return KnowledgeBase(kb.tbox, kb.abox, kb.rbox, closures, kb._memo)


def is_member(kb: KnowledgeBase, individual: EntityName, concept: EntityName) -> Truth:
    """Three-valued membership under the closure semantics."""
    if individual in _closure(kb).members.get(concept, _NONE):
        return Truth.TRUE
    record = kb.closures.get(concept)
    if record is not None and individual not in record.members:
        return Truth.FALSE
    return Truth.UNKNOWN
