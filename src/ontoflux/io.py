"""Text formats: ontologies, mappings, fragments, configs, queries, results.

All documents are line based, UTF-8, one statement per line, with `#`
comments and blank lines ignored.  Keywords are whole words: `byalice`
is one identifier.  Parsers report failures as ``ParseError`` carrying
the 1-based line and column of the first character at which no
continuation of a valid statement exists, plus the token kinds that
would have been acceptable there.  Each statement kind is one grammar,
compiled to a regular expression that reads a valid line in one match;
a line it rejects is walked token by token over the same grammar to
find that position.  A parse call builds each distinct name and
individual of its document once, from a table that lives as long as
the call.

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

import functools
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
    atom_predicate,
)
from .mfrag import LocalDistribution, MFrag, MTheory
from .merging import Mapping
from .simulate import Costs, GammaParams, Regime, SimConfig, SimStats
from .temporal import ActionRecord

# Individuals are cross-ontology constants: an unqualified argument token
# lands in this shared namespace, so the same name written in two
# documents denotes the same object.  Qualify to opt out.
INSTANCE_NAMESPACE = "i"

# --- statement grammars -------------------------------------------------
#
# A statement kind is a grammar: a tuple of elements, each a tuple led by its kind.
#   ("id", what), ("num", what, comma)  an identifier or a number, captured; `comma` admits `0,8`
#   ("name", what), ("term", what)      an identifier with an optional `ns:` prefix, captured
#                                       as two groups; a name needs the prefix where the
#                                       document sets no namespace
#   ("sym", s, ...), ("word", w)        one of the symbols, or the keyword as a whole word
#   ("opt", lead, *items)               `items` if the symbol or word `lead` comes next
#   ("list", sep, *items)               `items`, again after each `sep` (or while the line
#                                       goes on, if `sep` is None); captured as one group
# `what` names the token in errors.  Blanks may precede any token.  Reading is greedy and
# never backtracks: once a lead or separator is read, what follows it is mandatory.

# Each token reads its longest form: a lookahead refuses a shorter one (`re` has no possessive
# quantifiers before Python 3.11), so no expression here can backtrack into another reading.
_IDENT_SOURCE = r"[A-Za-z_][A-Za-z0-9_]*(?![A-Za-z0-9_])"
_DIGITS = r"\d+(?!\d)"
_NUMBER_SOURCE = rf"[-+]?{_DIGITS}(?:\.{_DIGITS}|(?!\.\d))(?:[eE][-+]?{_DIGITS}|(?![eE][-+]?\d))"
_IDENT = re.compile(_IDENT_SOURCE)
_NUMBER = re.compile(_NUMBER_SOURCE)
_BLANKS = re.compile(r"[ \t]*")
_AT_END = re.compile(r"[ \t]*(?:#|\Z)")
_HEAD = re.compile(rf"[ \t]*(?:({_IDENT_SOURCE})|#|\Z)")


def _regex(grammar: tuple, qualified: bool, capture: bool = True) -> str:
    """One expression for ``grammar`` that accepts exactly what ``_walk`` accepts."""
    out = []
    for kind, *args in grammar:
        if kind in ("opt", "list"):
            lead = r"(?![ \t]*(?:#|\Z))" if args[0] is None else _regex(args[:1], qualified, False)
            items = _regex(tuple(args[1:]), qualified, capture and kind == "opt")
            if kind == "opt":
                out.append(f"(?:{lead}{items}|(?!{lead}))")
            else:
                items = f"{items}(?:{lead}{items})*(?!{lead})"
                out.append(f"({items})" if capture else items)
            continue
        if kind in ("sym", "word"):
            token = "(?:" + "|".join(map(re.escape, args)) + ")" + ("(?![A-Za-z0-9_])" if kind == "word" else "")
        else:
            token = _NUMBER_SOURCE if kind == "num" else _IDENT_SOURCE
            if kind == "num" and args[1]:  # `0,8` reads longer with a decimal comma than without
                token = rf"(?:[-+]?\d+,{_DIGITS}|(?![-+]?\d+,\d){token})"
            token = f"({token})" if capture else token
        token = r"[ \t]*" + token
        if kind in ("name", "term"):
            local = r"[ \t]*:" + _regex((("id", "local name"),), qualified, capture)
            token += local if kind == "name" and qualified else rf"(?:{local}|(?![ \t]*:))"
        out.append(token)
    return "".join(out)


def _fail(text: str, pos: int, line_no: int, *expected: str) -> NoReturn:
    pos = _BLANKS.match(text, pos).end()
    found = ""
    if not _AT_END.match(text, pos):
        m = _IDENT.match(text, pos)
        found = m.group(0) if m else text[pos]
    raise ParseError(line_no, pos + 1, expected, found)


def _lead(element: Optional[tuple], text: str, pos: int) -> Optional[int]:
    """The position after ``element`` if it comes next, else None; None comes while the line goes on."""
    if element is None:
        return None if _AT_END.match(text, pos) else pos
    m = re.compile(_regex((element,), True, False)).match(text, pos)
    return m.end() if m else None


def _walk(grammar: tuple, text: str, pos: int, line_no: int, ns: Optional[str]) -> int:
    """Read ``grammar`` token by token; raise at the first token that cannot continue."""
    for kind, *args in grammar:
        if kind in ("opt", "list"):
            after = pos if kind == "list" else _lead(args[0], text, pos)
            while after is not None:
                pos = _walk(tuple(args[1:]), text, after, line_no, ns)
                after = _lead(args[0], text, pos) if kind == "list" else None
            continue
        after = _lead(("id", *args) if kind in ("name", "term") else (kind, *args), text, pos)
        if after is None:
            _fail(text, pos, line_no, *([f"'{s}'" for s in args] if kind in ("sym", "word") else args[:1]))
        pos = after
        if kind in ("name", "term"):
            after = _lead(("sym", ":"), text, pos)
            if after is not None:
                pos = _walk((("id", "local name"),), text, after, line_no, ns)
            elif kind == "name" and ns is None:
                _fail(text, pos, line_no, "namespace-qualified name")
    return pos


class _Statement:
    """One statement kind: its grammar and, from its first use, its expressions."""

    def __init__(self, *grammar: tuple):
        self.grammar = grammar

    @functools.cached_property
    def patterns(self) -> tuple[re.Pattern, re.Pattern]:
        """With and without a default namespace; each also reads a line's blank or comment end."""
        end = r"(?:[ \t]*(?:#.*)?\Z)?"
        return tuple(re.compile(_regex(self.grammar, q) + end, re.DOTALL) for q in (False, True))

    def match(self, text: str, pos: int, line_no: int, ns: Optional[str]) -> re.Match:
        """Match the statement at ``pos``, or raise the error of its first bad token."""
        m = self.patterns[ns is None].match(text, pos)
        if m is None:
            _walk(self.grammar, text, pos, line_no, ns)
        return m


def _keyword(text: str, line_no: int, what: str = "statement keyword") -> tuple[Optional[str], int]:
    """A line's first word and the position after it; no word for a blank or comment line."""
    m = _HEAD.match(text)
    if m is None:
        _fail(text, 0, line_no, what)
    return m.group(1), m.end()


def _expect_end(m: re.Match, line_no: int) -> None:
    """Raise unless the statement ``m`` read the line to its end."""
    if m.end() != len(m.string):
        _fail(m.string, m.end(), line_no, "end of line")


# --- names, terms, atoms ------------------------------------------------

_NAME = ("name", "name")
_ATOM_GRAMMAR = (
    ("name", "class or property name"), ("sym", "("), ("term", "argument"),
    ("opt", ("sym", ","), ("term", "argument")), ("sym", ")"),
)
_ATOM = _Statement(*_ATOM_GRAMMAR)


class _Values:
    """The names and individuals of one parse call, each built once from the text it was read from.

    A table lives as long as its parse call, so no value is shared
    between two calls.
    """

    __slots__ = ("names", "individuals")

    def __init__(self):
        self.names: dict[tuple[str, str], EntityName] = {}  # by namespace and local token
        self.individuals: dict[EntityName, Individual] = {}

    def name(self, first: str, local: Optional[str], default_ns: Optional[str]) -> EntityName:
        key = (default_ns, first) if local is None else (first, local)
        name = self.names.get(key)
        if name is None:
            name = self.names[key] = EntityName(*key)
        return name

    def term(self, first: str, local: Optional[str], pattern: bool) -> Term:
        if local is None and pattern and first[0].islower():
            return Variable(first)
        name = self.name(first, local, INSTANCE_NAMESPACE)
        individual = self.individuals.get(name)
        if individual is None:
            individual = self.individuals[name] = Individual(name)
        return individual

    def atom(self, default_ns: Optional[str], pattern: bool, p1, p2, s1, s2, o1, o2) -> Atom:
        """The atom of one match of ``_ATOM_GRAMMAR``'s six groups."""
        predicate, subject = self.name(p1, p2, default_ns), self.term(s1, s2, pattern)
        if o1 is None:
            return ClassAtom(predicate, subject)
        return PropertyAtom(predicate, subject, self.term(o1, o2, pattern))

    def atoms(self, span: str, default_ns: Optional[str], pattern: bool) -> list[Atom]:
        """The atoms of a matched list of atoms."""
        return [self.atom(default_ns, pattern, *m.groups()) for m in _ATOM.patterns[0].finditer(span)]


def format_name(name: EntityName) -> str:
    return f"{name.namespace}:{name.local}"


def format_term(term: Term) -> str:
    return term.token if isinstance(term, Variable) else format_name(term.name)


def format_atom(atom: Atom) -> str:
    if isinstance(atom, ClassAtom):
        return f"{format_name(atom.concept)}({format_term(atom.subject)})"
    return f"{format_name(atom.prop)}({format_term(atom.subject)}, {format_term(atom.object)})"


def parse_ground_atom(text: str, line: int = 1, default_ns: Optional[str] = None) -> Atom:
    m = _ATOM.match(text, 0, line, default_ns)
    _expect_end(m, line)
    return _Values().atom(default_ns, False, *m.groups())


# --- ontology documents -------------------------------------------------

_ONTOLOGY = {
    "namespace": _Statement(("id", "namespace identifier")),
    "class": _Statement(_NAME),
    "property": _Statement(_NAME),
    "subclass": _Statement(_NAME, _NAME),
    "disjoint": _Statement(_NAME, _NAME),
    "union": _Statement(_NAME, ("sym", "="), ("list", ("sym", "|"), _NAME)),
    "domain": _Statement(_NAME, _NAME),
    "range": _Statement(_NAME, _NAME),
    "allvalues": _Statement(_NAME, _NAME, _NAME),
    "assert": _Statement(*_ATOM_GRAMMAR, ("opt", ("sym", "@"), ("num", "time", False))),
    "rule": _Statement(
        ("id", "rule id"), ("sym", ":"), ("list", ("sym", ","), *_ATOM_GRAMMAR), ("sym", "->"),
        *_ATOM_GRAMMAR,
    ),
}
_ONTOLOGY_KEYWORDS = tuple(f"'{keyword}'" for keyword in _ONTOLOGY)
_AXIOMS = dict(subclass=SubClassOf, disjoint=DisjointClasses, domain=PropertyDomain,
               range=PropertyRange, allvalues=AllValuesFrom)


def parse_ontology(text: str) -> KnowledgeBase:
    """Parse an ontology document into a knowledge base."""
    ns: Optional[str] = None
    declared: set[EntityName] = set()
    referenced: dict[EntityName, int] = {}  # each predicate, with the first line using it
    items: list = []
    values = _Values()
    for line_no, line in enumerate(text.splitlines(), 1):
        keyword, pos = _keyword(line, line_no)
        if keyword is None:
            continue
        statement = _ONTOLOGY.get(keyword)
        if statement is None:
            raise ParseError(line_no, pos - len(keyword) + 1, _ONTOLOGY_KEYWORDS, keyword)
        m = statement.match(line, pos, line_no, ns)
        groups = m.groups()
        if keyword == "assert":
            atom = values.atom(ns, False, *groups[:6])
            referenced.setdefault(atom_predicate(atom), line_no)
            items.append(ABoxAssertion(atom, 0.0 if groups[6] is None else float(groups[6])))
        elif keyword == "namespace":
            ns = groups[0]
        elif keyword == "rule":
            body, head = values.atoms(groups[1], ns, True), values.atom(ns, True, *groups[2:])
            for atom in (*body, head):
                referenced.setdefault(atom_predicate(atom), line_no)
            items.append(HornRule(groups[0], tuple(body), head))
        elif keyword == "union":
            whole = values.name(groups[0], groups[1], ns)
            parts = tuple(values.name(*part.groups(), ns) for part in _ONTOLOGY["class"].patterns[0].finditer(groups[2]))
            declared.update((whole, *parts))
            items.append(UnionEquivalence(whole, parts))
        else:
            names = [values.name(groups[i], groups[i + 1], ns) for i in range(0, len(groups), 2)]
            declared.update(names)
            if keyword in _AXIOMS:
                items.append(_AXIOMS[keyword](*names))
        _expect_end(m, line_no)

    for name, line_no in referenced.items():
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
    for atom in (*kb.abox, *(atom for rule in kb.rbox for atom in (*rule.body, rule.head))):
        predicates.setdefault(atom_predicate(atom), "class" if isinstance(atom, ClassAtom) else "property")
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

_PROBABILITY = ("num", "probability", True)
_MAP = _Statement(
    ("id", "mapping id"), ("sym", ":"), *_ATOM_GRAMMAR, ("sym", "<-", "←"), *_ATOM_GRAMMAR,
    ("sym", ";"), ("sym", "P"), ("sym", "("), _PROBABILITY, ("sym", ")"),
    ("opt", ("sym", ";"), ("sym", "N"), ("sym", "("), _PROBABILITY, ("sym", ")")),
)


def parse_mappings(text: str) -> list[Mapping]:
    """Parse `map id: target <- source ; P(p)` lines (decimal comma accepted)."""
    mappings: list[Mapping] = []
    values = _Values()
    for line_no, line in enumerate(text.splitlines(), 1):
        keyword, pos = _keyword(line, line_no)
        if keyword is None:
            continue
        if keyword != "map":
            raise ParseError(line_no, pos - len(keyword) + 1, ("'map'",), keyword)
        m = _MAP.match(line, pos, line_no, None)
        _expect_end(m, line_no)
        groups = m.groups()
        p, n = (None if g is None else float(g.replace(",", ".")) for g in groups[13:])
        target, source = values.atom(None, True, *groups[1:7]), values.atom(None, True, *groups[7:13])
        mappings.append(Mapping(groups[0], target, source, p, n))
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

_NODE = ("id", "node id")
_FRAGMENT = {
    "event": _Statement(_NODE),
    "action": _Statement(_NODE),
    "agent": _Statement(_NODE),
    "values": _Statement(_NODE, ("sym", "="), ("list", ("sym", "|"), ("id", "state token"))),
    "edge": _Statement(_NODE, ("sym", "->"), _NODE),
    "instance": _Statement(("id", "action node id"), ("id", "agent node id")),
    "dist": _Statement(
        _NODE, ("opt", ("sym", "("), ("list", ("sym", ","), ("id", "parent node id")), ("sym", ")"))
    ),
    "row": _Statement(_NODE),
}
_FRAGMENT_KEYWORDS = tuple(f"'{keyword}'" for keyword in _FRAGMENT)
_THEORY = _Statement(("id", "theory name"))
_MFRAG = _Statement(("id", "fragment name"))


@functools.cache
def _row(parents: int) -> _Statement:
    """A `row` line after its node id: one state per parent, `:`, the probabilities."""
    return _Statement(*[("id", "state token")] * parents, ("sym", ":"), ("list", None, ("num", "probability", False)))


def parse_fragments(text: str) -> MTheory:
    """Parse a fragment document into a theory (validation is separate)."""
    theory_name = "theory"
    fragments: list[dict] = []
    current: Optional[dict] = None  # the fragment being read
    for line_no, line in enumerate(text.splitlines(), 1):
        keyword, pos = _keyword(line, line_no)
        if keyword is None:
            continue
        keyword_col = pos - len(keyword) + 1
        if keyword == "mtheory":
            m = _THEORY.match(line, pos, line_no, None)
            theory_name = m.group(1)
            _expect_end(m, line_no)
            continue
        if keyword == "mfrag":
            m = _MFRAG.match(line, pos, line_no, None)
            current = {  # MFrag's fields, lists becoming frozensets
                "name": m.group(1), "events": [], "actions": [], "agents": [], "graph": [],
                "distributions": {}, "action_instance_of": {}, "possible_values": {},
            }
            fragments.append(current)
            _expect_end(m, line_no)
            continue
        if current is None:
            raise ParseError(line_no, keyword_col, ("'mtheory'", "'mfrag'"), keyword)
        statement = _FRAGMENT.get(keyword)
        if statement is None:
            raise ParseError(line_no, keyword_col, _FRAGMENT_KEYWORDS, keyword)
        m = statement.match(line, pos, line_no, None)
        groups = m.groups()
        if keyword in ("event", "action", "agent"):
            current[keyword + "s"].append(groups[0])
        elif keyword == "values":
            current["possible_values"][groups[0]] = tuple(_IDENT.findall(groups[1]))
        elif keyword == "edge":
            current["graph"].append(groups)
        elif keyword == "instance":
            current["action_instance_of"][groups[0]] = groups[1]
        elif keyword == "dist":
            current["distributions"][groups[0]] = LocalDistribution(groups[0], tuple(_IDENT.findall(groups[1] or "")))
        else:
            dist = current["distributions"].get(groups[0])
            if dist is None:
                raise ParseError(line_no, keyword_col, ("'dist' line before 'row'",), keyword)
            m = _row(len(dist.parents)).match(line, m.end(1), line_no, None)
            *states, probs = m.groups()
            dist.rows[tuple(states)] = tuple(map(float, _NUMBER.findall(probs)))
        _expect_end(m, line_no)
    return MTheory(theory_name, tuple(
        MFrag(**{key: frozenset(value) if isinstance(value, list) else value for key, value in fragment.items()})
        for fragment in fragments
    ))


# --- simulation configs ----------------------------------------------------

_REQUIRED_CONFIG_KEYS = (
    "regime", "base_stock", "demand_rate", "lead_mu", "lead_r",
    "review_period", "horizon", "warmup", "seed",
)
_OPTIONAL_CONFIG_KEYS = ("holding", "lost_penalty", "processing", "measure_position")

_CONFIG = _Statement(("sym", "="))


def parse_sim_config(text: str) -> SimConfig:
    """Parse a flat key=value config; cost keys are optional, the rest mandatory."""
    values: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        key, pos = _keyword(line, line_no, "config key")
        if key is None:
            continue
        _CONFIG.match(line, pos, line_no, None)
        pos = line.index("=", pos) + 1  # after the `=` just matched
        value = line[pos:].split("#", 1)[0].strip()
        if not value:
            _fail(line, pos, line_no, "value")
        if key in values:
            raise InvalidConfigError(f"line {line_no}: duplicate key {key}")
        if key not in _REQUIRED_CONFIG_KEYS + _OPTIONAL_CONFIG_KEYS:
            raise InvalidConfigError(f"line {line_no}: unknown key {key}")
        values[key] = value

    missing = [k for k in _REQUIRED_CONFIG_KEYS if k not in values]
    if missing:
        raise InvalidConfigError("missing config keys: " + ", ".join(missing))

    def number(key: str, integral: bool = False) -> float:
        if integral:
            try:
                return int(values[key])  # exact beyond 2**53, where the float route rounds
            except ValueError:
                pass  # forms like 2.0 or 1e3 take the float route
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

_QUERY = _Statement(("list", ("sym", "∧", "&"), *_ATOM_GRAMMAR))


def parse_query(text: str, default_ns: Optional[str] = None) -> list[Atom]:
    """Parse a conjunctive query: atoms joined by `∧` or `&`; columns count from the start of ``text``."""
    text = text.rstrip()
    m = _QUERY.match(text, len(text) - len(text.lstrip()), 1, default_ns)
    _expect_end(m, 1)
    return _Values().atoms(m.group(1), default_ns, True)


Event = Union[ABoxAssertion, ActionRecord]

_AT = _Statement(("num", "time", False), ("id", "'assert' or 'action'"))
_EVENTS = {
    "assert": _Statement(*_ATOM_GRAMMAR),
    "action": _Statement(
        ("id", "action id"), ("name", "action kind"), ("word", "by"), ("term", "actor name"),
        ("opt", ("word", "target"), ("id", "ontology id"), ("id", "ontology id")),
    ),
}


def parse_events(text: str) -> list[Event]:
    """Parse a monitor event script.

    Lines: `at <time> assert <atom>` or
    `at <time> action <id> <kind> by <actor> [target <tok> <tok>]`.
    """
    ns: Optional[str] = None
    events: list[Event] = []
    values = _Values()
    for line_no, line in enumerate(text.splitlines(), 1):
        keyword, pos = _keyword(line, line_no)
        if keyword is None:
            continue
        if keyword == "namespace":
            m = _ONTOLOGY["namespace"].match(line, pos, line_no, ns)
            ns = m.group(1)
        elif keyword != "at":
            raise ParseError(line_no, pos - len(keyword) + 1, ("'at'", "'namespace'"), keyword)
        else:
            head = _AT.match(line, pos, line_no, ns)
            at, what = float(head.group(1)), head.group(2)
            if what not in _EVENTS:
                raise ParseError(line_no, head.start(2) + 1, ("'assert'", "'action'"), what)
            m = _EVENTS[what].match(line, head.end(2), line_no, ns)
            groups = m.groups()
            if what == "assert":
                events.append(ABoxAssertion(values.atom(ns, False, *groups), at))
            else:
                kind, actor = values.name(*groups[1:3], ns), values.name(*groups[3:5], INSTANCE_NAMESPACE)
                events.append(ActionRecord(at, groups[0], kind, actor, () if groups[5] is None else groups[5:7]))
        _expect_end(m, line_no)
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
