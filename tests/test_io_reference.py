"""The statement-pattern parsers against the scanner-based reference parsers.

Every entry point of ``ontoflux.io`` is run next to its counterpart in
``reference_parsers`` on valid documents and on copies mutated with the
grammar's own symbols.  Each pair must return equal values (and, for
knowledge bases, the same A-Box order) or raise the same exception with
the same message, line, column, expected tokens and found token.
"""

import functools
import random
from pathlib import Path

import pytest

from ontoflux.io import (
    parse_events,
    parse_fragments,
    parse_ground_atom,
    parse_mappings,
    parse_ontology,
    parse_query,
    parse_sim_config,
    serialize_mappings,
    serialize_ontology,
)
from ontoflux.kb import KnowledgeBase

import reference_parsers
from helpers import random_kb

FIXTURES = Path(__file__).parent / "fixtures"
ALPHABET = ":(),;@#|=<->←∧&" + " \t" + "0123456789" + "abxyzAOPN_.,e+-"

ONTOLOGY_EXTRAS = [
    "# a comment\nnamespace O1\nclass Event   # trailing\n\tproperty O1:keyword\n"
    "union Whole = Event | O1:Part | Other\nclass Whole\nclass Part\nclass Other\n"
    "domain keyword Event\nrange keyword Whole\ndisjoint Event Part\n"
    "allvalues Event keyword Whole\nassert Event(Trip) @ 2.5\nassert keyword(Trip, O2:Sea)@1e-3\n"
    "rule r1: Event(x), keyword(x, y) -> Whole(y)\nrule r2 : O2:C(x)->Event(x)\n",
    "namespace up\nsubclass up:Action up:Event\nassert up:Action(a1) @ 0\nclass up:Action\nclass up:Event\n",
    "assert O:r(a, b)\nassert O : C ( i : x )\n",
]
QUERIES = [
    "O1:Event(x) ∧ O1:keyword(x, Sea)", "   L:Q(x) & L:B(x)  ", "L:A(x)&L:B(y)&L:rel(x,y)",
    "\tO2:p(i:a, y) ∧ O2:C(y)",
]
ATOMS = ["O1:keyword(i:Trip, i:Sea)", "O:C(a)", "  O : r ( a , O2:b )  # note"]
UNQUALIFIED = ["Event(x)", "keyword(x, O2:Sea) & O2:C(x)", "C(a)"]  # with a default namespace
EVENT_SCRIPTS = [
    "namespace up\n# schedule\nat 0.5 assert Event(E1)\nat 1.25 action a1 Action by Bot target O1 O2\n"
    "at 2 action a2 up:Action by i:Bot   # no target\nat 3e0 assert up:rel(a, b)\n",
]
CONFIGS = [
    "# minimal\nregime = exo\nbase_stock = 2   # small\ndemand_rate = 1.0\nlead_mu = 1.0\n"
    "lead_r = 1.0\nreview_period = 1.0\nhorizon = 10\nwarmup = 0\nseed = 1\nmeasure_position = true\n",
]
FRAGMENTS = [
    "mtheory demo\nmfrag weather\nevent e1\naction a1\nagent g1\nvalues e1 = wet | dry\n"
    "values a1 = go | wait\nvalues g1 = g1\nedge a1 -> e1\ninstance a1 g1\ndist e1 (a1)\n"
    "row e1 go: 0.7 0.3\nrow e1 wait: 0.1 0.9\ndist a1\nrow a1: 0.5 0.5\ndist g1\nrow g1: 1.0\n"
    "mfrag second\nagent g2\ndist g2 ( g1 , a1 )\nrow g2 x y : 0.5-0.5e0\n",
]


def _fixtures(suffix: str) -> list[str]:
    return [path.read_text() for path in sorted(FIXTURES.glob(f"*{suffix}"))]


def _blank(rng: random.Random) -> str:
    return rng.choice(["", " ", "  ", "\t"])


def _name(rng: random.Random, qualified: bool = False) -> str:
    local = rng.choice(["A", "B", "Event", "rel", "p_1"])
    return f"{rng.choice(['O1', 'X'])}:{local}" if qualified or rng.random() < 0.5 else local


def _term(rng: random.Random, pattern: bool) -> str:
    if rng.random() < 0.3:
        return f"{rng.choice(['i', 'O2'])}:{rng.choice(['Trip', 'u1'])}"
    return rng.choice(["x", "y", "Sea", "u0"] if pattern else ["Sea", "u0", "a", "Bot"])


def _atom_text(rng: random.Random, pattern: bool, qualified: bool = False) -> str:
    terms = [_term(rng, pattern) for _ in range(rng.randint(1, 2))]
    b = _blank(rng)
    return f"{_name(rng, qualified)}{b}({b}{(b + ',' + b).join(terms)}{b})"


def _mapping_document(rng: random.Random) -> str:
    lines = []
    for k in range(rng.randint(1, 4)):
        p = f"{rng.uniform(0, 1):.2f}"
        p = p.replace(".", ",") if rng.random() < 0.3 else p
        if rng.random() < 0.5:
            line = f"map m{k}: L:A{k}(x) <- X:D{k}(x) ; P({p})"
        else:
            line = f"map m{k}: L:rel(x, y) ← X:E{k}(x, y) ; P({p}) ; N(0.{k})"
        lines.append(line)
    return "\n".join(lines) + "\n"


def _event_document(rng: random.Random) -> str:
    lines = ["namespace up"] if rng.random() < 0.7 else []
    qualified = not lines  # without a namespace every name needs its prefix
    for k in range(rng.randint(1, 5)):
        at = rng.choice(["0.5", "2", "1e1", "3.25"])
        if rng.random() < 0.5:
            lines.append(f"at {at} assert {_atom_text(rng, False, qualified)}")
        else:
            target = rng.choice(["", " target O1 O2", "  target\tX Y  # both"])
            lines.append(f"at {at} action a{k} {_name(rng, qualified)} by {_term(rng, False)}{target}")
    return "\n".join(lines) + "\n"


def _query_text(rng: random.Random) -> str:
    atoms = [_atom_text(rng, True, True) for _ in range(rng.randint(1, 3))]
    joined = atoms[0] + "".join(f"{_blank(rng)}{rng.choice(['∧', '&'])}{_blank(rng)}{atom}" for atom in atoms[1:])
    return _blank(rng) + joined + _blank(rng)


def _config_document(rng: random.Random) -> str:
    values = {
        "regime": rng.choice(["exo", "endo", "exo-iid"]), "base_stock": rng.choice(["2", "4.0", "6"]),
        "demand_rate": "1.5", "lead_mu": "2.0", "lead_r": "1", "review_period": "1.0",
        "horizon": rng.choice(["10", "2e2"]), "warmup": "0", "seed": str(rng.randint(0, 99)),
        "holding": "1.0", "measure_position": rng.choice(["true", "False"]),
    }
    keys = list(values)
    rng.shuffle(keys)
    lines = [f"{_blank(rng)}{key}{_blank(rng)}={_blank(rng)}{values[key]}" for key in keys]
    return "# config\n" + "\n".join(line + rng.choice(["", "  # note"]) for line in lines) + "\n"


def _fragment_document(rng: random.Random) -> str:
    lines = ["mtheory t"]
    for f in range(rng.randint(1, 2)):
        lines += [f"mfrag f{f}", "event e1", "action a1", "agent g1", "values e1 = wet | dry",
                  "values a1 = go|wait", "edge a1 -> e1", "instance a1 g1"]
        parents = rng.sample(["a1", "g1"], rng.randint(0, 2))
        lines.append(f"dist e1 ({', '.join(parents)})" if parents else "dist e1")
        lines.append(f"row e1 {' '.join(['go'] * len(parents))}: 0.{rng.randint(1, 9)} 0.5")
    return "\n".join(lines) + "\n"


def _documents(kind: str, seed: int) -> list[str]:
    rng = random.Random(seed)
    if kind == "ontology":
        return [serialize_ontology(random_kb(rng)), *ONTOLOGY_EXTRAS, *_fixtures(".onto")]
    if kind == "mappings":
        text = _mapping_document(rng)
        return [text, serialize_mappings(reference_parsers.reference_parse_mappings(text)), *_fixtures(".map")]
    if kind == "fragments":
        return [_fragment_document(rng), *FRAGMENTS, *_fixtures(".mth")]
    if kind == "sim_config":
        return [_config_document(rng), *CONFIGS, *_fixtures(".cfg")]
    if kind == "events":
        return [_event_document(rng), *EVENT_SCRIPTS, *_fixtures(".evt")]
    ns = UNQUALIFIED if kind.endswith("_ns") else []
    if kind.startswith("query"):
        return [_query_text(rng), *QUERIES, *ns]
    return [_atom_text(rng, False, not ns), *ATOMS, *ns[2:]]


PARSERS = {
    "ontology": (parse_ontology, reference_parsers.reference_parse_ontology),
    "mappings": (parse_mappings, reference_parsers.reference_parse_mappings),
    "fragments": (parse_fragments, reference_parsers.reference_parse_fragments),
    "sim_config": (parse_sim_config, reference_parsers.reference_parse_sim_config),
    "events": (parse_events, reference_parsers.reference_parse_events),
    "query": (parse_query, reference_parsers.reference_parse_query),
    "query_ns": (functools.partial(parse_query, default_ns="O1"),
                 functools.partial(reference_parsers.reference_parse_query, default_ns="O1")),
    "ground_atom": (parse_ground_atom, reference_parsers.reference_parse_ground_atom),
    "ground_atom_ns": (functools.partial(parse_ground_atom, line=3, default_ns="O1"),
                       functools.partial(reference_parsers.reference_parse_ground_atom, line=3, default_ns="O1")),
}


def outcome(parse, text: str):
    try:
        result = parse(text)
    except Exception as exc:  # every failure must match, whatever its type
        fields = ("line", "column", "expected", "found")
        return ("raised", type(exc), str(exc), *(getattr(exc, f, None) for f in fields))
    order = list(result.abox.items()) if isinstance(result, KnowledgeBase) else None
    return ("returned", result, order)


def mutate(rng: random.Random, text: str) -> str:
    """Delete, insert or replace a few characters, mostly in one line."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(chars) + 1)
        op = rng.random()
        if op < 0.35 and pos < len(chars):
            del chars[pos]
        elif op < 0.7:
            chars.insert(pos, rng.choice(ALPHABET))
        elif pos < len(chars):
            chars[pos] = rng.choice(ALPHABET)
    return "".join(chars)


def _lines(text: str, rng: random.Random) -> str:
    """A short document cut from ``text``: a mutation then often lands on a line that parses."""
    lines = text.splitlines()
    start = rng.randrange(len(lines))
    return "\n".join(lines[start:start + rng.randint(1, 4)]) + "\n"


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_valid_documents_parse_alike(kind) -> None:
    new, reference = PARSERS[kind]
    for seed in range(40):
        for text in _documents(kind, seed):
            result = outcome(new, text)
            assert result[0] == "returned", (text, result)
            assert result == outcome(reference, text), text


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_mutated_documents_fail_alike(kind) -> None:
    new, reference = PARSERS[kind]
    rng = random.Random(kind)
    documents = [text for seed in range(20) for text in _documents(kind, seed)]
    for _ in range(1500):
        text = rng.choice(documents)
        if kind not in ("query", "query_ns", "ground_atom", "ground_atom_ns") and rng.random() < 0.7:
            text = _lines(text, rng)
        text = mutate(rng, text)
        assert outcome(new, text) == outcome(reference, text), text


@pytest.mark.parametrize(
    "kind, text",
    [
        ("ontology", "namespace O\ndisjoint A A junk\n"),
        ("ontology", "namespace O\nunion A = B | B junk\n"),
        ("ontology", "namespace O\nassert C(a) @ -1 junk\n"),
        ("ontology", "namespace O\nrule r: C(x) -> D(y) junk\n"),
        ("ontology", "namespace O\nassert C(a)\nassert C(b) junk\n"),
        ("events", "at -1 assert O:C(a) junk\n"),
        ("events", "at 1e999 action a O:K by b x\n"),
        ("mappings", "map m: A:C(x) <- A:D(x) ; P(1.5) junk\n"),
        ("sim_config", "seed = 1\nseed = 2\nbogus\n"),
    ],
)
def test_value_errors_and_parse_errors_keep_their_order(kind, text) -> None:
    new, reference = PARSERS[kind]
    assert outcome(new, text) == outcome(reference, text)


@pytest.mark.parametrize(
    "kind, text",
    [
        ("events", "at 1e5\n"),  # `1` then an `e5` keyword, were the number read short
        ("events", "at 1.5.5 assert O:C(a)\n"),
        ("events", "at 1 action a1 O:Kindby b\n"),  # `Kind` then `by`, were the name read short
        ("events", "at 1 action a1 O:K by b targetx y\n"),
        ("ontology", "namespace O\nclass C\nassert C(a) @ 1e\n"),
        ("ontology", "namespace O\nclass C\nassert C(a) @ 12.\n"),
        ("mappings", "map m: A:C(x) <- A:D(x) ; P(0,85,)\n"),
        ("mappings", "map m: A:C(x) <- A:D(x) ; P(1,2e3)\n"),
        ("fragments", "mfrag f\nevent e\ndist e\nrow e : 12 0.5e1.5\n"),
    ],
)
def test_tokens_are_read_longest_first(kind, text) -> None:
    new, reference = PARSERS[kind]
    assert outcome(new, text) == outcome(reference, text)
