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
the atoms that are new or changed in the previous one) and matches rule
bodies through compiled join plans (``Plan``).  A plan is compiled once
per rule and delta position: its steps work on rows of numbered slots,
each step choosing from what is bound when it is compiled a membership
test, a read of one argument through the index by property, argument
position and individual, or a read of the per-predicate fact index.
Both indexes grow from each round's delta.  A firing reads its
premises' annotations from the facts its row matched and builds its
head from the slots.  Each atom carries an
annotation that the caller defines: ``saturate`` uses plain membership,
``merging`` the atom's minimal derivation paths.  The engine can also
continue an earlier result in place: given an already-closed atom set,
its indexes and new seeds, only the seeds that add to it start the
rounds.  Computing from scratch is continuing from nothing.

The saturation is memoized on the knowledge base itself, and the memo
is the read-only set that ``saturate`` returns.  It holds the
fixpoint's state, not just its atoms: the derived atoms, their two
indexes and the members of each concept, all extended from each
round's delta.  ``entailed_members``, ``is_member``, ``close_class`` and
the constraint checks read the member sets and the index, so none of
them rescans the saturation, and a closure record is a view of a
member set, not a copy.  A KB made by ``close_class``, or by
re-asserting a known atom, shares its parent's memo, since its T-Box,
R-Box and A-Box atoms are the same.  An A-Box only gains atoms at its
end, so a KB made by asserting new A-Box atoms keeps the memo it grew
from and the length of that memo's A-Box; saturating it seeds the
fixpoint with the atoms past that length only and takes the older
memo's state over, extending it in place.  The older KB still answers
for its own atoms, a prefix of the state it gave away, and copies that
prefix out if it is asked again.  A T-Box or R-Box assertion starts a
fresh memo, which seeds the fixpoint with the whole A-Box.

Names, terms, atoms and assertions hash once, at construction, since
every dict and set the engine keeps hashes them; their constructors are
written out, not generated.  Pickling and copying rebuild them from
their fields, so a cached hash never crosses a process.  The ``str`` of
a name, term or atom is its document text (``O1:Event``, ``i:Trip``,
``O1:keyword(i:Trip, y)``): ``io`` writes documents and the monitor
writes its log lines with it, and the parsers read it back.

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
from collections.abc import Set as AbstractSet
from dataclasses import FrozenInstanceError, dataclass, field
from enum import Enum
from functools import total_ordering
from itertools import islice
from typing import Callable, Iterable, Sequence, TypeVar, Union

from .errors import MalformedItemError

_LOCAL_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

Annotation = TypeVar("Annotation")  # what the fixpoint attaches to each atom


@total_ordering
class _Value:
    """A name, term, atom or assertion: immutable, and hashed once, at construction.

    Every dict and set the engine keeps hashes them, so each value keeps
    its hash in the ``_hash`` slot.  Its fields, named by
    ``__match_args__``, give equality, order and ``repr`` as a frozen
    dataclass's would; equality compares the hashes first, and the
    values the engine compares most write it out field by field.
    String hashes differ between processes, so pickling and copying
    rebuild the value from its fields instead of carrying the hash over.
    """

    __slots__ = ("_hash",)
    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self._fields() == other._fields()

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other):
        return self._fields() < other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


_set = object.__setattr__  # how a value's own ``__init__`` fills its slots


class EntityName(_Value):
    """A namespaced name, e.g. ``O1:Event``."""

    __slots__ = __match_args__ = ("namespace", "local")

    def __init__(self, namespace: str, local: str):
        if not namespace:
            raise MalformedItemError("entity namespace must be nonempty")
        if not _LOCAL_TOKEN.match(local):
            raise MalformedItemError(f"bad local token: {local!r}")
        _set(self, "namespace", namespace)
        _set(self, "local", local)
        _set(self, "_hash", hash((namespace, local)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self.local == other.local and self.namespace == other.namespace

    __hash__ = _Value.__hash__

    def __str__(self) -> str:
        return f"{self.namespace}:{self.local}"


class Individual(_Value):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: EntityName):
        _set(self, "name", name)
        _set(self, "_hash", name._hash)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name is other.name or (self._hash == other._hash and self.name == other.name)

    __hash__ = _Value.__hash__

    def __str__(self) -> str:
        return str(self.name)


class Variable(_Value):
    __slots__ = __match_args__ = ("token",)

    def __init__(self, token: str):
        _set(self, "token", token)
        _set(self, "_hash", hash(token))

    def __eq__(self, other):
        return self.token == other.token if other.__class__ is self.__class__ else NotImplemented

    __hash__ = _Value.__hash__

    def __str__(self) -> str:
        return self.token


Term = Union[Individual, Variable]


class ClassAtom(_Value):
    __slots__ = __match_args__ = ("concept", "subject")

    def __init__(self, concept: EntityName, subject: Term):
        _set(self, "concept", concept)
        _set(self, "subject", subject)
        _set(self, "_hash", hash((concept._hash, subject._hash)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._hash == other._hash
                and (self.subject is other.subject or self.subject == other.subject)
                and (self.concept is other.concept or self.concept == other.concept))

    __hash__ = _Value.__hash__

    def __str__(self) -> str:
        return f"{self.concept}({self.subject})"


class PropertyAtom(_Value):
    __slots__ = __match_args__ = ("prop", "subject", "object")

    def __init__(self, prop: EntityName, subject: Term, object: Term):
        _set(self, "prop", prop)
        _set(self, "subject", subject)
        _set(self, "object", object)
        _set(self, "_hash", hash((prop._hash, subject._hash, object._hash)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._hash == other._hash
                and (self.subject is other.subject or self.subject == other.subject)
                and (self.object is other.object or self.object == other.object)
                and (self.prop is other.prop or self.prop == other.prop))

    __hash__ = _Value.__hash__

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


class ABoxAssertion(_Value):
    """A ground atom stamped with the time it was asserted."""

    __slots__ = __match_args__ = ("atom", "asserted_at")

    def __init__(self, atom: Atom, asserted_at: float = 0.0):
        if not is_ground(atom):
            raise MalformedItemError(f"A-Box atom must be ground: {atom}")
        if not 0 <= asserted_at < math.inf:  # false for NaN too
            raise MalformedItemError(f"asserted_at must be finite and nonnegative, got {asserted_at}")
        _set(self, "atom", atom)
        _set(self, "asserted_at", asserted_at)
        _set(self, "_hash", hash((atom._hash, asserted_at)))


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

    def assertions(self) -> list[ABoxAssertion]:
        """The A-Box in ``str(atom)`` order (class and property atoms do not compare)."""
        return [ABoxAssertion(a, self.abox[a]) for a in sorted(self.abox, key=str)]

    def __reduce__(self):
        return KnowledgeBase, (self.tbox, self.abox, self.rbox, self.closures)  # the memo does not travel


KBItem = Union[TBoxAxiom, ABoxAssertion, HornRule]


def assert_item(kb: KnowledgeBase, item: KBItem) -> KnowledgeBase:
    """Return a new KB containing ``item``.  Idempotent for duplicates."""
    return assert_all(kb, (item,))


def assert_all(kb: KnowledgeBase, items: Iterable[KBItem]) -> KnowledgeBase:
    """Return a new KB containing every item; ``kb`` itself if none adds anything.

    One pass, equal to asserting the items one by one: an A-Box atom
    keeps its earliest time and its place, a new one goes at the end,
    and the A-Box is copied once.  Any new T-Box or R-Box item starts a
    fresh memo; otherwise new A-Box atoms extend ``kb``'s memo, and a KB
    with the same atoms shares it.
    """
    abox = None  # kb.abox, copied at the first change
    tbox: set[TBoxAxiom] = set()
    rbox: set[HornRule] = set()
    for item in items:
        if isinstance(item, ABoxAssertion):
            existing = (kb.abox if abox is None else abox).get(item.atom)
            if existing is not None and existing <= item.asserted_at:
                continue
            if abox is None:
                abox = dict(kb.abox)
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
    memo = kb._memo if len(abox) == len(kb.abox) else kb._memo.extended(len(kb.abox))
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
    """``atom`` with each variable that ``binding`` maps replaced by its value."""
    def term(t: Term) -> Term:
        return binding.get(t, t) if isinstance(t, Variable) else t

    if isinstance(atom, ClassAtom):
        return ClassAtom(atom.concept, term(atom.subject))
    return PropertyAtom(atom.prop, term(atom.subject), term(atom.object))


_TEST, _ARG, _SCAN = "test", "arg", "scan"  # what a plan step does; see ``Plan``

Row = tuple[tuple, tuple]  # slot values, and the facts matched so far


def _builder(atom: Atom, slots: dict[Term, int]) -> Callable[[tuple], Atom]:
    """A function from a row's slot values to ``atom`` with its terms read from them."""
    s = slots[atom.subject]
    if atom.__class__ is ClassAtom:
        concept = atom.concept
        return lambda vals: ClassAtom(concept, vals[s])
    prop, o = atom.prop, slots[atom.object]
    return lambda vals: PropertyAtom(prop, vals[s], vals[o])


class Plan:
    """A conjunction of patterns compiled once to steps over numbered slots.

    A row is a tuple of slot values and the tuple of facts matched so
    far, one per step.  Slots hold the plan's individuals first, then
    each variable in the order a step first binds it, so binding a
    variable appends to the row, and each step knows when it is compiled
    which of its arguments are bound.  From that it takes one of four
    actions: a ground atom is a membership test; a property atom with one
    argument bound reads the facts with it there, from the argument
    index if the step has one and else by filtering its predicate's
    facts; any other atom reads every fact of its predicate, with an
    equality check for a variable it repeats.

    ``heads`` are atoms over the patterns' variables; ``builders`` holds,
    for each, a function from a row's slot values to the head.  With
    ``delta_at``, the pattern at that position is matched first, against
    the delta index passed to ``rows``, and the patterns before it match
    only facts outside the delta: each row that uses a delta fact is
    found by exactly one such plan per body.
    """

    __slots__ = ("start", "slots", "steps", "builders")

    def __init__(self, patterns: Sequence[Atom], heads: Sequence[Atom] = (), delta_at: int | None = None):
        slots: dict[Term, int] = {}
        for atom in (*patterns, *heads):
            for t in atom_terms(atom):
                if t.__class__ is Individual:
                    slots.setdefault(t, len(slots))
        self.start = tuple(slots)
        order = list(range(len(patterns)))
        if delta_at is not None:
            order.insert(0, order.pop(delta_at))
        self.steps = []
        for i in order:
            pattern = patterns[i]
            terms = atom_terms(pattern)
            bound = [slots.get(t) for t in terms]
            if None not in bound:
                step = (_TEST, _builder(pattern, slots), None)
            elif len(bound) == 2 and bound != [None, None]:
                pos = 0 if bound[1] is None else 1  # the bound argument
                step = (_ARG, pos, bound[pos])
            else:
                step = (_SCAN, pattern.__class__, len(terms) == 2 and terms[0] == terms[1])
            for t in terms:
                slots.setdefault(t, len(slots))
            skips = delta_at is not None and i < delta_at
            self.steps.append((atom_predicate(pattern), *step, i == delta_at, skips))
        self.slots = slots
        self.builders = [_builder(head, slots) for head in heads]

    def rows(
        self, index: FactIndex, args: ArgIndex | None = None, delta: FactIndex | None = None
    ) -> list[Row]:
        """Every row that matches each step to a fact of ``index``.

        The first step of a plan compiled with ``delta_at`` matches the
        facts of ``delta`` instead.  ``args``, the argument index of
        ``index``, lets a step with one bound argument read only the
        facts with it.
        """
        rows = [(self.start, ())]
        for pred, action, a, b, first, skips in self.steps:
            facts = (delta if first else index).get(pred)
            if not facts:
                return []
            excluded = delta.get(pred, _NONE) if skips else _NONE
            out = []
            if action is _TEST:  # a: the atom's builder
                for vals, seen in rows:
                    atom = a(vals)
                    if atom in facts and atom not in excluded:
                        out.append((vals, (*seen, atom)))
            elif action is _ARG:  # a: the bound argument's position, b: its slot
                for vals, seen in rows:
                    v = vals[b]
                    if args is not None and not first:
                        candidates = args.get((pred, a, v), _NONE)
                    else:
                        candidates = [f for f in facts
                                      if f.__class__ is PropertyAtom and (f.object if a else f.subject) == v]
                    for f in candidates:
                        if f not in excluded:
                            out.append(((*vals, f.subject if a else f.object), (*seen, f)))
            else:  # a: the atom class, b: whether a property atom repeats its variable
                matched = [
                    ((f.subject,) if a is ClassAtom or b else (f.subject, f.object), f)
                    for f in facts
                    if f.__class__ is a and f not in excluded and not (b and f.subject != f.object)
                ]
                out = [((*vals, *new), (*seen, f)) for vals, seen in rows for new, f in matched]
            rows = out
            if not rows:
                break
        return rows


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
    whose annotation is new or changed in the previous round.  Each
    rule is compiled once per call, to one ``Plan`` per body position
    matched against the round's delta; a firing reads its premises'
    annotations from the facts its row matched and builds its head
    from the row's slots.  Terminates when annotations form a finite lattice, as sets of atoms
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
    plans = [Plan(rule.body, (rule.head,), i) for rule in rbox for i in range(len(rule.body))]
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
        for plan in plans:
            head = plan.builders[0]
            for vals, seen in plan.rows(index, args, delta):
                emit(head(vals), conjoin([facts[f] for f in seen]))
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


class _Memo(AbstractSet):
    """The saturation of every KB sharing this memo, as a read-only set:
    they have one T-, A- and R-Box.

    Once computed, it is the first ``size`` atoms of ``closure``.  The
    memo of a KB with more A-Box atoms takes its base's closure over and
    extends it in place, from each round's delta; the base then reads
    its own atoms as a prefix, copied out the first time it is asked
    again.  Until computed, ``base`` may be the computed memo of a KB
    with the same T- and R-Box whose A-Box is the first ``since`` atoms
    of this one's; saturating continues ``base`` with the atoms after
    those as the only seeds.  Membership and size read the closure;
    iterating, hashing or combining it with another set builds a
    frozenset of it, once.
    """

    __slots__ = ("closure", "size", "base", "since", "_atoms")

    def __init__(self, base: "_Memo | None" = None, since: int = 0):
        self.closure: _Closure | None = None
        self.size = 0
        self.base = base
        self.since = since
        self._atoms: frozenset[Atom] | None = None

    def __contains__(self, atom) -> bool:
        return atom in self.own().facts

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return iter(self.atoms())

    def __hash__(self) -> int:
        return hash(self.atoms())

    def __repr__(self) -> str:
        return f"Saturation({set(self.atoms())!r})"

    def __reduce__(self):
        return frozenset, (self.atoms(),)  # the closure it reads does not travel

    @classmethod
    def _from_iterable(cls, atoms: Iterable[Atom]) -> frozenset[Atom]:
        return frozenset(atoms)

    def atoms(self) -> frozenset[Atom]:
        if self._atoms is None:
            self._atoms = frozenset(self.own().facts)
        return self._atoms

    def extended(self, size: int) -> "_Memo":
        """The memo of a KB grown by new A-Box atoms from a KB with this memo and ``size`` atoms."""
        return _Memo(self, size) if self.closure is not None else _Memo(self.base, self.since)

    def compute(self, kb: KnowledgeBase) -> None:
        closure = _Closure() if self.base is None else self.base.own()
        *_, new = fixpoint(
            kb.tbox, kb.rbox, dict.fromkeys(islice(kb.abox, self.since, None), True), _holds, _holds,
            (closure.facts, closure.index, closure.args),
        )
        closure.add_members(new)
        self.closure, self.size, self.base = closure, len(closure.facts), None

    def own(self) -> _Closure:
        """The closure, holding this memo's atoms and no later ones."""
        if len(self.closure.facts) != self.size:
            self.closure = _Closure(islice(self.closure.facts, self.size))
        return self.closure


def saturate(kb: KnowledgeBase) -> AbstractSet[Atom]:
    """Least fixpoint of the ground atoms derivable from the KB.

    Combines asserted atoms with subclass propagation, union
    part-to-whole propagation, property domain/range inference, and
    Horn-rule firing over known individuals.  Terminates because the
    ground atom space over the KB's individuals is finite.  The result
    is computed once per KB and kept on it as its memo, a read-only set;
    a KB that extends its parent's memo continues the parent's
    saturation.
    """
    memo = kb._memo
    if memo.closure is None:
        memo.compute(kb)
    return memo


def _closure(kb: KnowledgeBase) -> _Closure:
    return saturate(kb).own()


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
    backwards in time, or at a time that is not finite and nonnegative,
    is rejected.
    """
    if not 0 <= now < math.inf:  # false for NaN too
        raise ValueError(f"cannot close {concept} at {now}: the time must be finite and nonnegative")
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
