"""Text formats: ontologies, mappings, fragments, configs, queries, results.

All documents are line based, UTF-8, one statement per line, with `#`
comments and blank lines ignored.  Parsers report failures as
``ParseError`` carrying the 1-based line and column of the first byte
at which no continuation of a valid statement exists, plus the token
kinds that would have been acceptable there.

Name resolution: a document may declare `namespace NS`; unqualified
names resolve against it, qualified names (`O2:Event`) stand alone.
Class and property names referenced by `assert` or `rule` statements in
the document's own namespace must be declared somewhere in the document
(forward references are fine); foreign-namespace names are exempt,
since merges routinely mention names whose axioms live elsewhere.  In
pattern positions (rule atoms, mapping atoms, queries) an unqualified
argument token starting with a lowercase letter is a variable;
everything else is an individual.  Arguments of `assert` are always
individuals.

Simulation results are emitted as CSV rows or JSON objects with a fixed
column order; floats carry 9 significant digits.
"""

from __future__ import annotations

import json
import math
import re
from typing import NoReturn, Optional, Sequence, Union

from .errors import InvalidConfigError, ParseError, UnresolvedNameError
from .kb import (
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
    Term,
    UnionEquivalence,
    Variable,
    assert_all,
)
from .mfrag import LocalDistribution, MFrag, MTheory
from .merging import Mapping
from .simulate import Costs, GammaParams, Regime, SimConfig, SimStats
from .temporal import ActionRecord

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER = re.compile(r"[-+]?\d+(\.\d+)?([eE][-+]?\d+)?")
_COMMA_NUMBER = re.compile(r"[-+]?\d+(,\d+)?")

# Individuals are cross-ontology constants: an unqualified argument token
# lands in this shared namespace, so the same name written in two
# documents denotes the same object.  Qualify to opt out.
INSTANCE_NAMESPACE = "i"


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


# --- names, terms, atoms ------------------------------------------------


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
    while sc.try_symbol(","):
        args.append(_take_term(sc, pattern))
        if len(args) > 2:
            sc.fail("')'")
    sc.take_symbol(")")
    if len(args) == 1:
        return ClassAtom(predicate, args[0])
    return PropertyAtom(predicate, args[0], args[1])


def format_name(name: EntityName) -> str:
    return f"{name.namespace}:{name.local}"


def format_term(term: Term) -> str:
    return term.token if isinstance(term, Variable) else format_name(term.name)


def format_atom(atom: Atom) -> str:
    if isinstance(atom, ClassAtom):
        return f"{format_name(atom.concept)}({format_term(atom.subject)})"
    return f"{format_name(atom.prop)}({format_term(atom.subject)}, {format_term(atom.object)})"


def parse_ground_atom(text: str, line: int = 1, default_ns: Optional[str] = None) -> Atom:
    sc = _Scanner(text, line)
    atom = _take_atom(sc, default_ns, pattern=False)
    sc.expect_end()
    return atom


# --- ontology documents -------------------------------------------------

_ONTOLOGY_KEYWORDS = (
    "'namespace'", "'class'", "'property'", "'subclass'", "'disjoint'", "'union'",
    "'domain'", "'range'", "'allvalues'", "'assert'", "'rule'",
)


def parse_ontology(text: str) -> KnowledgeBase:
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


def _format_float(x: float) -> str:
    return repr(float(x))


def serialize_ontology(kb: KnowledgeBase, namespace: Optional[str] = None) -> str:
    """Render a knowledge base as a document that parses back equal.

    Every name is written fully qualified, so the emitted `namespace`
    line only picks which names count as local for declaration checks.
    """
    predicates: dict[EntityName, str] = {}
    for atom in kb.abox:
        predicates.setdefault(
            atom.concept if isinstance(atom, ClassAtom) else atom.prop,
            "class" if isinstance(atom, ClassAtom) else "property",
        )
    for rule in kb.rbox:
        for atom in (*rule.body, rule.head):
            predicates.setdefault(
                atom.concept if isinstance(atom, ClassAtom) else atom.prop,
                "class" if isinstance(atom, ClassAtom) else "property",
            )
    if namespace is None:
        used = sorted(n.namespace for n in predicates)
        namespace = used[0] if used else "O"

    lines = [f"namespace {namespace}"]
    for name in sorted(predicates):
        lines.append(f"{predicates[name]} {format_name(name)}")
    for ax in sorted(kb.tbox, key=str):
        if isinstance(ax, SubClassOf):
            lines.append(f"subclass {format_name(ax.sub)} {format_name(ax.sup)}")
        elif isinstance(ax, DisjointClasses):
            lines.append(f"disjoint {format_name(ax.a)} {format_name(ax.b)}")
        elif isinstance(ax, UnionEquivalence):
            parts = " | ".join(format_name(p) for p in ax.parts)
            lines.append(f"union {format_name(ax.whole)} = {parts}")
        elif isinstance(ax, PropertyDomain):
            lines.append(f"domain {format_name(ax.prop)} {format_name(ax.concept)}")
        elif isinstance(ax, PropertyRange):
            lines.append(f"range {format_name(ax.prop)} {format_name(ax.concept)}")
        elif isinstance(ax, AllValuesFrom):
            lines.append(
                f"allvalues {format_name(ax.concept)} {format_name(ax.prop)} {format_name(ax.filler)}"
            )
    for rule in sorted(kb.rbox, key=lambda r: r.rule_id):
        body = ", ".join(format_atom(a) for a in rule.body)
        lines.append(f"rule {rule.rule_id}: {body} -> {format_atom(rule.head)}")
    for atom, at in sorted(kb.abox.items(), key=lambda kv: str(kv[0])):
        lines.append(f"assert {format_atom(atom)} @ {_format_float(at)}")
    return "\n".join(lines) + "\n"


# --- mapping documents ---------------------------------------------------


def parse_mappings(text: str) -> list[Mapping]:
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


def serialize_mappings(mappings: Sequence[Mapping]) -> str:
    lines = []
    for m in mappings:
        line = f"map {m.mapping_id}: {format_atom(m.target)} <- {format_atom(m.source)} ; P({_format_float(m.probability)})"
        if m.negative_probability is not None:
            line += f" ; N({_format_float(m.negative_probability)})"
        lines.append(line)
    return "\n".join(lines) + "\n"


# --- fragment documents --------------------------------------------------


def parse_fragments(text: str) -> MTheory:
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


# --- simulation configs ----------------------------------------------------

_REQUIRED_CONFIG_KEYS = (
    "regime", "base_stock", "demand_rate", "lead_mu", "lead_r",
    "review_period", "horizon", "warmup", "seed",
)
_OPTIONAL_CONFIG_KEYS = ("holding", "lost_penalty", "processing", "measure_position")


def parse_sim_config(text: str) -> SimConfig:
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


# --- queries and event scripts ---------------------------------------------


def parse_query(text: str, default_ns: Optional[str] = None) -> list[Atom]:
    """Parse a conjunctive query: atoms joined by `∧` or `&`."""
    sc = _Scanner(text.strip(), 1)
    conjuncts = [_take_atom(sc, default_ns, pattern=True)]
    while sc.try_symbol("∧", "&"):
        conjuncts.append(_take_atom(sc, default_ns, pattern=True))
    sc.expect_end()
    return conjuncts


Event = Union[ABoxAssertion, ActionRecord]


def parse_events(text: str) -> list[Event]:
    """Parse a monitor event script.

    Lines: `at <time> assert <atom>` or
    `at <time> action <id> <kind> by <actor> [target <tok> <tok>]`.
    """
    ns: Optional[str] = None
    events: list[Event] = []
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
            sc.take_symbol("by")
            actor = _take_individual(sc, "actor name")
            targets: tuple[str, ...] = ()
            if sc.try_symbol("target"):
                targets = (sc.take_identifier("ontology id"), sc.take_identifier("ontology id"))
            events.append(ActionRecord(at, action_id, kind, actor, targets))
        else:
            raise ParseError(line_no, sc.column - len(what), ("'assert'", "'action'"), what)
        sc.expect_end()
    return events


# --- result records ---------------------------------------------------------

RESULT_FIELDS = (
    "regime", "base_stock", "demand_rate", "lead_mu", "lead_r", "review_period",
    "horizon", "warmup", "seed", "holding", "lost_penalty", "processing",
    "measure_position", "fill_rate", "avg_on_hand", "long_run_avg_cost",
    "service_time_mean", "service_time_var", "lost_count", "served_count",
    "wall_time_s",
)


def fmt9(x: float) -> str:
    """Format a float with 9 significant digits."""
    return f"{float(x):.9g}"


def make_result_record(config: SimConfig, stats: SimStats, wall_time_s: float) -> dict:
    return {
        "regime": config.regime.value,
        "base_stock": config.base_stock,
        "demand_rate": float(fmt9(config.demand_rate)),
        "lead_mu": float(fmt9(config.lead.mu)),
        "lead_r": float(fmt9(config.lead.r)),
        "review_period": float(fmt9(config.review_period)),
        "horizon": float(fmt9(config.horizon)),
        "warmup": float(fmt9(config.warmup)),
        "seed": config.seed,
        "holding": float(fmt9(config.costs.holding)),
        "lost_penalty": float(fmt9(config.costs.lost_penalty)),
        "processing": float(fmt9(config.costs.processing)),
        "measure_position": config.measure_position,
        "fill_rate": float(fmt9(stats.fill_rate)),
        "avg_on_hand": float(fmt9(stats.avg_on_hand)),
        "long_run_avg_cost": float(fmt9(stats.long_run_avg_cost)),
        "service_time_mean": float(fmt9(stats.service_time_mean)),
        "service_time_var": float(fmt9(stats.service_time_var)),
        "lost_count": stats.lost_count,
        "served_count": stats.served_count,
        "wall_time_s": float(fmt9(wall_time_s)),
    }


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt9(value)
    return str(value)


def format_result_csv(records: Sequence[dict]) -> str:
    lines = [",".join(RESULT_FIELDS)]
    lines.extend(",".join(_cell(r[f]) for f in RESULT_FIELDS) for r in records)
    return "\n".join(lines) + "\n"


def format_result_json(records: Sequence[dict]) -> str:
    payload: object = records[0] if len(records) == 1 else list(records)
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"
