"""The document parsers as a reference: a character scanner.

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

import math
import re
from typing import NoReturn, Optional

from ontoflux.errors import InvalidConfigError, ParseError, UnresolvedNameError
from ontoflux.io import INSTANCE_NAMESPACE
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
)
from ontoflux.merging import Mapping
from ontoflux.mfrag import LocalDistribution, MFrag, MTheory
from ontoflux.simulate import Costs, GammaParams, Regime, SimConfig
from ontoflux.temporal import ActionRecord


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
            raise UnresolvedNameError(str(name), line_no)
    return assert_all(KnowledgeBase(), items)


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
