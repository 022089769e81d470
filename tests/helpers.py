"""Shared test utilities: a reference reasoner, a random KB generator and
a possible-worlds oracle.

``reference_saturate`` is the naive forward chainer: every round fires
every axiom on every atom and joins rule bodies by nested loops over
all facts.  It shares no code with the library's semi-naive engine, so
the engine can be tested against it.

The oracle marginalizes a conjunctive query over every subset of the
mappings by brute force, on top of the reference chainer.  It shares
none of the library's derivation-path bookkeeping, so agreement is
meaningful evidence that the minimal-path lineage and its exact scoring
are right, for stored facts as well as for query answers.

``ReferenceSimulation`` is the simulator as a heap of event tuples with
one handler per event kind, drawing one scalar at a time from the same
two spawned streams as ``ontoflux.simulate.Simulation``; the library's
block-drawing merge of event sources must reproduce it bit for bit.

``reference_parse_ontology`` and the other ``reference_parse_*``
functions are the document parsers as a character scanner: a cursor
that skips blanks, takes one token at a time and raises at the first
token that does not fit.  ``ontoflux.io`` reads each line with one
regular expression per statement kind instead; the two must agree on
every value, and on every error's type, message, line, column, expected
tokens and found token.  The scanner is the library's former parser
with three fixes: an atom with a third argument fails at the second
comma, `by` and `target` in event scripts are whole words, and query
columns count from the start of the text as given.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
import re
from dataclasses import dataclass
from enum import IntEnum
from typing import NoReturn, Optional, Sequence

import numpy as np

from ontoflux import simulate

from ontoflux.errors import InvalidConfigError, ParseError, UnresolvedNameError
from ontoflux.io import INSTANCE_NAMESPACE, format_name
from ontoflux.kb import (
    ABoxAssertion,
    AllValuesFrom,
    Atom,
    ClassAtom,
    DisjointClasses,
    EntityName,
    HornRule,
    Individual,
    KnowledgeBase,
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
from ontoflux.mfrag import LocalDistribution, MFrag, MTheory
from ontoflux.simulate import (
    Costs,
    GammaParams,
    Regime,
    SimConfig,
    SimStats,
    UpdateOrder,
    adjust_exogenous,
)
from ontoflux.temporal import ActionRecord


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

    return assert_all(KnowledgeBase.empty(), items)


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


# --- reference simulator ----------------------------------------------------


class _EventKind(IntEnum):
    # heap tiebreak at equal times: reviews decide leads before anything
    # else moves; deliveries land before a coincident demand is served
    REVIEW = 0
    DELIVERY = 1
    DEMAND = 2


@dataclass
class ReferenceOrder:
    seq: int
    placed_at: float
    drawn_at: float = math.nan
    drawn_lead: float = math.nan
    effective_delivery: float = math.nan


class ReferenceSimulation:
    """One run as a heap of ``(time, kind, tie, order)`` events.

    Draws go one scalar at a time through ``simulate.sample_*``, looked
    up at call time, so a test that patches them patches both simulators.
    """

    def __init__(self, config: SimConfig):
        self.config = config
        demand_seed, lead_seed = np.random.SeedSequence(config.seed).spawn(2)
        self.demand_rng = np.random.default_rng(demand_seed)
        self.lead_rng = np.random.default_rng(lead_seed)
        self.on_hand = config.base_stock
        self.on_order = 0
        self.orders: list[ReferenceOrder] = []
        self.completed: list[UpdateOrder] = []
        self.noncrossing_violations = 0
        self.lost = 0
        self.served = 0
        self._completions_in_window = 0
        self._lost_in_window = 0
        self._heap: list[tuple[float, int, int, Optional[int]]] = []
        self._tie = itertools.count()
        self._last_time = 0.0
        self._area_on_hand = 0.0
        self._area_position = 0.0
        self._dormant: list[int] = []
        self._last_delivery = 0.0
        self._server_free_at = 0.0

    def _push(self, time: float, kind: _EventKind, order_idx: Optional[int] = None) -> None:
        heapq.heappush(self._heap, (time, int(kind), next(self._tie), order_idx))

    def _draw_lead(self) -> float:
        return float(simulate.sample_gamma(self.config.lead, self.lead_rng))

    def _draw_gap(self) -> float:
        return float(simulate.sample_poisson_interarrival(self.config.demand_rate, self.demand_rng))

    def _accrue(self, now: float) -> None:
        lo = max(self._last_time, self.config.warmup)
        hi = min(now, self.config.horizon)
        if hi > lo:
            self._area_on_hand += self.on_hand * (hi - lo)
            self._area_position += (self.on_hand + self.on_order) * (hi - lo)
        self._last_time = now

    def _schedule_delivery(self, order: ReferenceOrder, drawn_at: float, drawn: float) -> None:
        regime = self.config.regime
        if regime is Regime.EXOGENOUS_IID:
            effective = drawn_at + drawn
        elif regime is Regime.EXOGENOUS:
            effective, _ = adjust_exogenous(self._last_delivery, drawn_at, drawn)
        else:
            start = max(order.placed_at, self._server_free_at)
            effective = start + drawn
            self._server_free_at = effective
        if regime is not Regime.EXOGENOUS_IID and effective < self._last_delivery:
            self.noncrossing_violations += 1
        self._last_delivery = max(self._last_delivery, effective)
        order.drawn_at = drawn_at
        order.drawn_lead = drawn
        order.effective_delivery = effective
        self._push(effective, _EventKind.DELIVERY, order.seq)

    def _place_order(self, now: float) -> None:
        order = ReferenceOrder(seq=len(self.orders), placed_at=now)
        self.orders.append(order)
        self.on_order += 1
        if self.config.regime is Regime.EXOGENOUS:
            self._dormant.append(order.seq)
        else:
            self._schedule_delivery(order, now, self._draw_lead())

    def _on_demand(self, now: float) -> None:
        if self.on_hand > 0:
            self.on_hand -= 1
            self.served += 1
            self._place_order(now)
        else:
            self.lost += 1
            if now >= self.config.warmup:
                self._lost_in_window += 1

    def _on_review(self, now: float) -> None:
        for seq in self._dormant:
            self._schedule_delivery(self.orders[seq], now, self._draw_lead())
        self._dormant.clear()

    def _on_delivery(self, now: float, seq: int) -> None:
        self.on_hand += 1
        self.on_order -= 1
        order = self.orders[seq]
        self.completed.append(
            UpdateOrder(order.seq, order.placed_at, order.drawn_lead, order.effective_delivery, order.drawn_at)
        )
        if now >= self.config.warmup:
            self._completions_in_window += 1

    def run(self) -> SimStats:
        cfg = self.config
        if cfg.demand_rate > 0:
            self._push(self._draw_gap(), _EventKind.DEMAND)
        if cfg.regime is Regime.EXOGENOUS:
            self._push(cfg.review_period, _EventKind.REVIEW)
        while self._heap:
            now, kind, _, seq = heapq.heappop(self._heap)
            if now > cfg.horizon:
                break
            self._accrue(now)
            if kind == _EventKind.DEMAND:
                self._on_demand(now)
                self._push(now + self._draw_gap(), _EventKind.DEMAND)
            elif kind == _EventKind.REVIEW:
                self._on_review(now)
                self._push(now + cfg.review_period, _EventKind.REVIEW)
            else:
                self._on_delivery(now, seq)
        self._accrue(cfg.horizon)
        return self._stats()

    def _stats(self) -> SimStats:
        cfg = self.config
        elapsed = cfg.horizon - cfg.warmup
        served = sum(1 for o in self.orders if o.placed_at >= cfg.warmup)
        lost = self._lost_in_window
        total = served + lost
        fill_rate = served / total if total else 1.0
        area = self._area_position if cfg.measure_position else self._area_on_hand
        cost = (
            cfg.costs.holding * self._area_on_hand
            + cfg.costs.lost_penalty * lost
            + cfg.costs.processing * self._completions_in_window
        ) / elapsed
        leads = np.array(
            [o.effective_delivery - o.placed_at for o in self.completed if o.placed_at >= cfg.warmup]
        )
        return SimStats(
            fill_rate=fill_rate,
            avg_on_hand=area / elapsed,
            long_run_avg_cost=cost,
            service_time_mean=float(leads.mean()) if leads.size else 0.0,
            service_time_var=float(leads.var(ddof=1)) if leads.size > 1 else 0.0,
            lost_count=lost,
            served_count=served,
        )


# --- reference parsers ------------------------------------------------------

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER = re.compile(r"[-+]?\d+(\.\d+)?([eE][-+]?\d+)?")
_COMMA_NUMBER = re.compile(r"[-+]?\d+(,\d+)?")

class _Scanner:
    """Single-line cursor with exact-position errors."""

    def __init__(self, text: str, line: int):
        self.text = text
        self.line = line
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    @property
    def column(self) -> int:
        return self.pos + 1

    def at_end(self) -> bool:
        self._skip_ws()
        return self.pos >= len(self.text) or self.text[self.pos] == "#"

    def _found(self) -> str:
        if self.at_end():
            return ""
        m = _IDENT.match(self.text, self.pos)
        return m.group(0) if m else self.text[self.pos]

    def fail(self, *expected: str) -> NoReturn:
        self._skip_ws()
        raise ParseError(self.line, self.column, tuple(expected), self._found())

    def expect_end(self) -> None:
        if not self.at_end():
            self.fail("end of line")

    def try_symbol(self, *symbols: str) -> Optional[str]:
        self._skip_ws()
        for sym in symbols:
            if self.text.startswith(sym, self.pos):
                self.pos += len(sym)
                return sym
        return None

    def take_symbol(self, *symbols: str) -> str:
        got = self.try_symbol(*symbols)
        if got is None:
            self.fail(*(f"'{s}'" for s in symbols))
        return got

    def try_word(self, word: str) -> Optional[str]:
        self._skip_ws()
        m = _IDENT.match(self.text, self.pos)
        if m and m.group(0) == word:
            self.pos = m.end()
            return word
        return None

    def take_word(self, word: str) -> str:
        if self.try_word(word) is None:
            self.fail(f"'{word}'")
        return word

    def take_identifier(self, what: str = "identifier") -> str:
        self._skip_ws()
        m = _IDENT.match(self.text, self.pos)
        if not m:
            self.fail(what)
        self.pos = m.end()
        return m.group(0)

    def take_number(self, what: str = "number", decimal_comma: bool = False) -> float:
        self._skip_ws()
        m = _NUMBER.match(self.text, self.pos)
        if decimal_comma:
            cm = _COMMA_NUMBER.match(self.text, self.pos)
            if cm and (not m or cm.end() > m.end()):
                self.pos = cm.end()
                return float(cm.group(0).replace(",", "."))
        if not m:
            self.fail(what)
        self.pos = m.end()
        return float(m.group(0))


def _take_name(sc: _Scanner, default_ns: Optional[str], what: str = "name") -> EntityName:
    first = sc.take_identifier(what)
    if sc.try_symbol(":"):
        return EntityName(first, sc.take_identifier("local name"))
    if default_ns is None:
        sc.fail("namespace-qualified name")
    return EntityName(default_ns, first)


def _take_term(sc: _Scanner, pattern: bool) -> Term:
    first = sc.take_identifier("argument")
    if sc.try_symbol(":"):
        return Individual(EntityName(first, sc.take_identifier("local name")))
    if pattern and first[0].islower():
        return Variable(first)
    return Individual(EntityName(INSTANCE_NAMESPACE, first))


def _take_individual(sc: _Scanner, what: str = "individual") -> EntityName:
    first = sc.take_identifier(what)
    if sc.try_symbol(":"):
        return EntityName(first, sc.take_identifier("local name"))
    return EntityName(INSTANCE_NAMESPACE, first)


def _take_atom(sc: _Scanner, default_ns: Optional[str], pattern: bool) -> Atom:
    predicate = _take_name(sc, default_ns, "class or property name")
    sc.take_symbol("(")
    args = [_take_term(sc, pattern)]
    if sc.try_symbol(","):
        args.append(_take_term(sc, pattern))
    sc.take_symbol(")")
    if len(args) == 1:
        return ClassAtom(predicate, args[0])
    return PropertyAtom(predicate, args[0], args[1])


def reference_parse_ground_atom(text: str, line: int = 1, default_ns: Optional[str] = None) -> Atom:
    sc = _Scanner(text, line)
    atom = _take_atom(sc, default_ns, pattern=False)
    sc.expect_end()
    return atom


_ONTOLOGY_KEYWORDS = (
    "'namespace'", "'class'", "'property'", "'subclass'", "'disjoint'", "'union'",
    "'domain'", "'range'", "'allvalues'", "'assert'", "'rule'",
)


def reference_parse_ontology(text: str) -> KnowledgeBase:
    """Parse an ontology document into a knowledge base."""
    ns: Optional[str] = None
    declared: set[EntityName] = set()
    referenced: list[tuple[EntityName, int]] = []
    items: list = []

    def declare(*names: EntityName) -> None:
        declared.update(names)

    for line_no, raw in enumerate(text.splitlines(), 1):
        sc = _Scanner(raw, line_no)
        if sc.at_end():
            continue
        sc._skip_ws()
        keyword_col = sc.column
        keyword = sc.take_identifier("statement keyword")

        if keyword == "namespace":
            ns = sc.take_identifier("namespace identifier")
        elif keyword in ("class", "property"):
            declare(_take_name(sc, ns))
        elif keyword == "subclass":
            sub, sup = _take_name(sc, ns), _take_name(sc, ns)
            declare(sub, sup)
            items.append(SubClassOf(sub, sup))
        elif keyword == "disjoint":
            a, b = _take_name(sc, ns), _take_name(sc, ns)
            declare(a, b)
            items.append(DisjointClasses(a, b))
        elif keyword == "union":
            whole = _take_name(sc, ns)
            sc.take_symbol("=")
            parts = [_take_name(sc, ns)]
            while sc.try_symbol("|"):
                parts.append(_take_name(sc, ns))
            declare(whole, *parts)
            items.append(UnionEquivalence(whole, tuple(parts)))
        elif keyword in ("domain", "range"):
            prop, concept = _take_name(sc, ns), _take_name(sc, ns)
            declare(prop, concept)
            items.append(
                PropertyDomain(prop, concept) if keyword == "domain" else PropertyRange(prop, concept)
            )
        elif keyword == "allvalues":
            concept, prop, filler = _take_name(sc, ns), _take_name(sc, ns), _take_name(sc, ns)
            declare(concept, prop, filler)
            items.append(AllValuesFrom(concept, prop, filler))
        elif keyword == "assert":
            atom = _take_atom(sc, ns, pattern=False)
            referenced.append((atom.concept if isinstance(atom, ClassAtom) else atom.prop, line_no))
            at = sc.take_number("time") if sc.try_symbol("@") else 0.0
            items.append(ABoxAssertion(atom, at))
        elif keyword == "rule":
            rule_id = sc.take_identifier("rule id")
            sc.take_symbol(":")
            body = [_take_atom(sc, ns, pattern=True)]
            while sc.try_symbol(","):
                body.append(_take_atom(sc, ns, pattern=True))
            sc.take_symbol("->")
            head = _take_atom(sc, ns, pattern=True)
            for atom in (*body, head):
                referenced.append(
                    (atom.concept if isinstance(atom, ClassAtom) else atom.prop, line_no)
                )
            items.append(HornRule(rule_id, tuple(body), head))
        else:
            raise ParseError(line_no, keyword_col, _ONTOLOGY_KEYWORDS, keyword)
        sc.expect_end()

    for name, line_no in referenced:
        if ns is not None and name.namespace == ns and name not in declared:
            raise UnresolvedNameError(format_name(name), line_no)
    return assert_all(KnowledgeBase.empty(), items)


def reference_parse_mappings(text: str) -> list[Mapping]:
    """Parse `map id: target <- source ; P(p)` lines (decimal comma accepted)."""
    mappings: list[Mapping] = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        sc = _Scanner(raw, line_no)
        if sc.at_end():
            continue
        sc._skip_ws()
        keyword_col = sc.column
        keyword = sc.take_identifier("statement keyword")
        if keyword != "map":
            raise ParseError(line_no, keyword_col, ("'map'",), keyword)
        mapping_id = sc.take_identifier("mapping id")
        sc.take_symbol(":")
        target = _take_atom(sc, None, pattern=True)
        sc.take_symbol("<-", "←")
        source = _take_atom(sc, None, pattern=True)
        sc.take_symbol(";")
        sc.take_symbol("P")
        sc.take_symbol("(")
        probability = sc.take_number("probability", decimal_comma=True)
        sc.take_symbol(")")
        negative = None
        if sc.try_symbol(";"):
            sc.take_symbol("N")
            sc.take_symbol("(")
            negative = sc.take_number("probability", decimal_comma=True)
            sc.take_symbol(")")
        sc.expect_end()
        mappings.append(Mapping(mapping_id, target, source, probability, negative))
    return mappings


def reference_parse_fragments(text: str) -> MTheory:
    """Parse a fragment document into a theory (validation is separate)."""
    theory_name = "theory"
    fragments: list[MFrag] = []
    current: Optional[dict] = None

    def finish() -> None:
        nonlocal current
        if current is None:
            return
        fragments.append(
            MFrag(
                name=current["name"],
                events=frozenset(current["events"]),
                actions=frozenset(current["actions"]),
                agents=frozenset(current["agents"]),
                graph=frozenset(current["graph"]),
                distributions={
                    node: LocalDistribution(node, parents, dict(rows))
                    for node, (parents, rows) in current["dists"].items()
                },
                action_instance_of=dict(current["instances"]),
                possible_values=dict(current["values"]),
            )
        )
        current = None

    for line_no, raw in enumerate(text.splitlines(), 1):
        sc = _Scanner(raw, line_no)
        if sc.at_end():
            continue
        sc._skip_ws()
        keyword_col = sc.column
        keyword = sc.take_identifier("statement keyword")
        if keyword == "mtheory":
            theory_name = sc.take_identifier("theory name")
            sc.expect_end()
            continue
        if keyword == "mfrag":
            finish()
            current = {
                "name": sc.take_identifier("fragment name"),
                "events": [], "actions": [], "agents": [],
                "graph": [], "dists": {}, "instances": {}, "values": {},
            }
            sc.expect_end()
            continue
        if current is None:
            raise ParseError(line_no, keyword_col, ("'mtheory'", "'mfrag'"), keyword)
        if keyword in ("event", "action", "agent"):
            current[keyword + "s"].append(sc.take_identifier("node id"))
        elif keyword == "values":
            node = sc.take_identifier("node id")
            sc.take_symbol("=")
            states = [sc.take_identifier("state token")]
            while sc.try_symbol("|"):
                states.append(sc.take_identifier("state token"))
            current["values"][node] = tuple(states)
        elif keyword == "edge":
            src = sc.take_identifier("node id")
            sc.take_symbol("->")
            current["graph"].append((src, sc.take_identifier("node id")))
        elif keyword == "instance":
            action = sc.take_identifier("action node id")
            current["instances"][action] = sc.take_identifier("agent node id")
        elif keyword == "dist":
            node = sc.take_identifier("node id")
            parents: list[str] = []
            if sc.try_symbol("("):
                parents.append(sc.take_identifier("parent node id"))
                while sc.try_symbol(","):
                    parents.append(sc.take_identifier("parent node id"))
                sc.take_symbol(")")
            current["dists"][node] = (tuple(parents), {})
        elif keyword == "row":
            node = sc.take_identifier("node id")
            if node not in current["dists"]:
                raise ParseError(line_no, keyword_col, ("'dist' line before 'row'",), keyword)
            parents, rows = current["dists"][node]
            states = tuple(sc.take_identifier("state token") for _ in parents)
            sc.take_symbol(":")
            probs = [sc.take_number("probability")]
            while not sc.at_end():
                probs.append(sc.take_number("probability"))
            rows[states] = tuple(probs)
        else:
            raise ParseError(
                line_no, keyword_col,
                ("'event'", "'action'", "'agent'", "'values'", "'edge'", "'instance'", "'dist'", "'row'"),
                keyword,
            )
        sc.expect_end()
    finish()
    return MTheory(theory_name, tuple(fragments))


_REQUIRED_CONFIG_KEYS = (
    "regime", "base_stock", "demand_rate", "lead_mu", "lead_r",
    "review_period", "horizon", "warmup", "seed",
)
_OPTIONAL_CONFIG_KEYS = ("holding", "lost_penalty", "processing", "measure_position")


def reference_parse_sim_config(text: str) -> SimConfig:
    """Parse a flat key=value config; cost keys are optional, the rest mandatory."""
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        sc = _Scanner(raw, line_no)
        if sc.at_end():
            continue
        key = sc.take_identifier("config key")
        sc.take_symbol("=")
        sc._skip_ws()
        rest = sc.text[sc.pos:]
        value = rest.split("#", 1)[0].strip()
        if not value:
            sc.fail("value")
        if key in values:
            raise InvalidConfigError(f"line {line_no}: duplicate key {key}")
        if key not in _REQUIRED_CONFIG_KEYS + _OPTIONAL_CONFIG_KEYS:
            raise InvalidConfigError(f"line {line_no}: unknown key {key}")
        values[key] = value

    missing = [k for k in _REQUIRED_CONFIG_KEYS if k not in values]
    if missing:
        raise InvalidConfigError("missing config keys: " + ", ".join(missing))

    def number(key: str, integral: bool = False) -> float:
        try:
            value = float(values[key])
        except ValueError:
            raise InvalidConfigError(f"key {key}: not a number: {values[key]!r}") from None
        if not math.isfinite(value):
            raise InvalidConfigError(f"key {key}: not a finite number: {values[key]!r}")
        if integral and not value.is_integer():
            raise InvalidConfigError(f"key {key}: not an integer: {values[key]!r}")
        return int(value) if integral else value

    regimes = {r.value: r for r in Regime}
    if values["regime"] not in regimes:
        raise InvalidConfigError(
            f"key regime: expected one of {', '.join(sorted(regimes))}, got {values['regime']!r}"
        )
    flag = values.get("measure_position", "false").lower()
    if flag not in ("true", "false"):
        raise InvalidConfigError(f"key measure_position: expected true or false, got {flag!r}")
    return SimConfig(
        regime=regimes[values["regime"]],
        base_stock=number("base_stock", integral=True),
        demand_rate=number("demand_rate"),
        lead=GammaParams(mu=number("lead_mu"), r=number("lead_r")),
        horizon=number("horizon"),
        warmup=number("warmup"),
        review_period=number("review_period"),
        seed=number("seed", integral=True),
        costs=Costs(**{key: number(key) for key in ("holding", "lost_penalty", "processing") if key in values}),
        measure_position=flag == "true",
    )


def reference_parse_query(text: str, default_ns: Optional[str] = None) -> list[Atom]:
    """Parse a conjunctive query: atoms joined by `∧` or `&`."""
    sc = _Scanner(text.rstrip(), 1)
    sc.pos = len(sc.text) - len(sc.text.lstrip())
    conjuncts = [_take_atom(sc, default_ns, pattern=True)]
    while sc.try_symbol("∧", "&"):
        conjuncts.append(_take_atom(sc, default_ns, pattern=True))
    sc.expect_end()
    return conjuncts


def reference_parse_events(text: str) -> list:
    """Parse a monitor event script.

    Lines: `at <time> assert <atom>` or
    `at <time> action <id> <kind> by <actor> [target <tok> <tok>]`.
    """
    ns: Optional[str] = None
    events: list = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        sc = _Scanner(raw, line_no)
        if sc.at_end():
            continue
        sc._skip_ws()
        keyword_col = sc.column
        keyword = sc.take_identifier("statement keyword")
        if keyword == "namespace":
            ns = sc.take_identifier("namespace identifier")
            sc.expect_end()
            continue
        if keyword != "at":
            raise ParseError(line_no, keyword_col, ("'at'", "'namespace'"), keyword)
        at = sc.take_number("time")
        what = sc.take_identifier("'assert' or 'action'")
        if what == "assert":
            atom = _take_atom(sc, ns, pattern=False)
            events.append(ABoxAssertion(atom, at))
        elif what == "action":
            action_id = sc.take_identifier("action id")
            kind = _take_name(sc, ns, "action kind")
            sc.take_word("by")
            actor = _take_individual(sc, "actor name")
            targets: tuple[str, ...] = ()
            if sc.try_word("target"):
                targets = (sc.take_identifier("ontology id"), sc.take_identifier("ontology id"))
            events.append(ActionRecord(at, action_id, kind, actor, targets))
        else:
            raise ParseError(line_no, sc.column - len(what), ("'assert'", "'action'"), what)
        sc.expect_end()
    return events


