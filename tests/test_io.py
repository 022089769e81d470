"""Parsers, serializers, and result-record formatting."""

import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontoflux import io
from ontoflux.errors import (
    InvalidConfigError,
    MalformedItemError,
    ParseError,
    ProbabilityOutOfRangeError,
    UnresolvedNameError,
)
from ontoflux.io import (
    INSTANCE_NAMESPACE,
    RESULT_FIELDS,
    fmt9,
    format_atom,
    format_name,
    format_result_csv,
    format_result_json,
    make_result_record,
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
from ontoflux.kb import (
    ABoxAssertion,
    AllValuesFrom,
    ClassAtom,
    EntityName,
    Individual,
    KnowledgeBase,
    PropertyAtom,
    SubClassOf,
    Variable,
)
from ontoflux.simulate import Regime, run_simulation
from ontoflux.temporal import ActionRecord

from helpers import random_kb


def name(ns: str, local: str) -> EntityName:
    return EntityName(ns, local)


# --- ontology documents ---------------------------------------------------


def test_parse_subclass_statement() -> None:
    kb = parse_ontology("namespace up\nsubclass Action Event\n")
    assert SubClassOf(name("up", "Action"), name("up", "Event")) in kb.tbox


def test_unqualified_individuals_share_instance_namespace() -> None:
    kb = parse_ontology("namespace O1\nclass O1:Event\nassert Event(Trip)\n")
    (atom,) = kb.abox
    assert atom == ClassAtom(name("O1", "Event"), Individual(name(INSTANCE_NAMESPACE, "Trip")))


def test_assert_with_explicit_time() -> None:
    kb = parse_ontology("namespace O1\nclass O1:C\nassert C(a) @ 2.5\n")
    (at,) = kb.abox.values()
    assert at == 2.5


def test_comments_and_blank_lines_ignored() -> None:
    doc = (
        "# leading comment\n"
        "namespace O1\n"
        "\n"
        "class O1:Event   # trailing comment\n"
        "   \t\n"
        "assert Event(Trip)  # another\n"
    )
    plain = "namespace O1\nclass O1:Event\nassert Event(Trip)\n"
    assert parse_ontology(doc) == parse_ontology(plain)


def test_empty_document_with_namespace_only() -> None:
    assert parse_ontology("namespace O1\n") == KnowledgeBase.empty()


def test_forward_references_allowed() -> None:
    kb = parse_ontology("namespace O1\nassert Event(Trip)\nclass O1:Event\n")
    assert len(kb.abox) == 1


def test_unclosed_paren_position() -> None:
    # Without a namespace in scope, the only valid continuation after
    # `assert Event` is a qualifying colon, so the paren's column is the
    # first character at which no valid statement can continue.
    with pytest.raises(ParseError) as err:
        parse_ontology("assert Event(x")
    assert (err.value.line, err.value.column) == (1, 13)
    assert err.value.found == "("


def test_unclosed_paren_at_end_of_line() -> None:
    with pytest.raises(ParseError) as err:
        parse_ontology("namespace O1\nassert Event(x")
    assert (err.value.line, err.value.column) == (2, 15)
    assert err.value.expected == ("')'",)
    assert "end of line" in str(err.value)


def test_three_argument_atom_fails_at_the_second_comma() -> None:
    with pytest.raises(ParseError) as err:
        parse_ontology("namespace O\nproperty O:r\nassert O:r(a, b, c)\n")
    assert (err.value.line, err.value.column) == (3, 16)
    assert (err.value.expected, err.value.found) == (("')'",), ",")


def test_unknown_keyword_position() -> None:
    with pytest.raises(ParseError) as err:
        parse_ontology("namespace O1\n  frobnicate O1:A O1:B\n")
    assert (err.value.line, err.value.column) == (2, 3)
    assert err.value.found == "frobnicate"


def test_error_message_shape() -> None:
    with pytest.raises(ParseError, match=r"line 1, column 13: expected .*found \("):
        parse_ontology("assert Event(x")


def test_undeclared_local_name_rejected() -> None:
    with pytest.raises(UnresolvedNameError, match="O1:Ghost"):
        parse_ontology("namespace O1\nassert O1:Ghost(a)\n")


def test_foreign_namespace_names_need_no_declaration() -> None:
    kb = parse_ontology("namespace O1\nassert O2:Event(Trip)\n")
    assert len(kb.abox) == 1


def test_rule_and_allvalues_statements() -> None:
    kb = parse_ontology(
        "namespace O1\n"
        "class O1:Event\n"
        "class O1:Subject\n"
        "property O1:keyword\n"
        "allvalues O1:Event O1:keyword O1:Subject\n"
        "rule r1: Event(x), keyword(x, y) -> Subject(y)\n"
    )
    assert AllValuesFrom(name("O1", "Event"), name("O1", "keyword"), name("O1", "Subject")) in kb.tbox
    (rule,) = kb.rbox
    assert rule.rule_id == "r1"
    assert rule.head == ClassAtom(name("O1", "Subject"), Variable("y"))


def names_and_individuals(value, found: list) -> list:
    """Every name and individual object inside ``value``, repeats included."""
    if isinstance(value, (EntityName, Individual)):
        found.append(value)
    if isinstance(value, KnowledgeBase):
        names_and_individuals([*value.abox, *value.tbox, *value.rbox], found)
    elif isinstance(value, (list, tuple)):
        for item in value:
            names_and_individuals(item, found)
    elif hasattr(value, "__match_args__"):  # atoms, axioms, rules, mappings, events
        names_and_individuals([getattr(value, name) for name in value.__match_args__], found)
    return found


@pytest.mark.parametrize("parse, text", [
    (parse_ontology, "namespace O\nclass O:Event\nclass O:Thing\nproperty O:about\nsubclass O:Event O:Thing\n"
                     "assert O:Event(trip)\nassert O:about(trip, sea)\nassert O:Thing(sea) @ 2\n"
                     "assert O:Event(i:sea)\nrule r1: O:Event(x), O:about(x, sea) -> O:Thing(x)\n"),
    (parse_mappings, "map m1: O:Event(x) <- X:Trip(x) ; P(0.5)\nmap m2: O:about(x, Sea) <- X:Trip(x) ; P(0.5)\nmap m3: O:Event(Sea) <- X:Trip(Sea) ; P(0.5)\n"),
    (parse_events, "namespace O\nat 1 assert O:Event(trip)\nat 2 action a1 O:Review by trip\n"
                   "at 3 assert O:about(trip, O:Event)\n"),
    (parse_query, "O:Event(x) & O:about(x, Sea) & O:Event(Sea)"),
])
def test_a_parse_builds_each_name_and_individual_once(parse, text) -> None:
    first, second = (names_and_individuals(parse(text), []) for _ in range(2))
    assert len(first) > len(set(first))  # the document repeats some
    for found in (first, second):
        for value in found:
            assert all(other is value for other in found if other == value), value
    assert not {id(v) for v in first} & {id(v) for v in second}


def test_format_atom_round_trips_through_parser() -> None:
    atom = PropertyAtom(
        name("O1", "keyword"),
        Individual(name(INSTANCE_NAMESPACE, "Trip")),
        Individual(name(INSTANCE_NAMESPACE, "Sea")),
    )
    assert format_atom(atom) == "O1:keyword(i:Trip, i:Sea)"
    assert parse_ground_atom(format_atom(atom)) == atom
    assert format_name(name("O1", "Event")) == "O1:Event"


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_ontology_round_trip(seed: int) -> None:
    kb = random_kb(random.Random(seed))
    assert parse_ontology(serialize_ontology(kb)) == kb


# --- mapping documents ------------------------------------------------------


def test_travel_mapping_probabilities(fixture_text) -> None:
    mappings = parse_mappings(fixture_text("travel.map"))
    assert [m.probability for m in mappings] == [0.8, 0.9, 0.8, 0.9]
    assert [m.mapping_id for m in mappings] == ["m1", "m2", "m3", "m4"]


def test_decimal_comma_and_point_agree() -> None:
    comma = parse_mappings("map m1: A:C(x) <- B:D(x) ; P(0,8)\n")
    point = parse_mappings("map m1: A:C(x) <- B:D(x) ; P(0.8)\n")
    assert comma == point
    assert comma[0].probability == 0.8


def test_probability_out_of_range() -> None:
    with pytest.raises(ProbabilityOutOfRangeError):
        parse_mappings("map m1: A:C(x) <- B:D(x) ; P(1.3)\n")


def test_unicode_arrow_accepted() -> None:
    a = parse_mappings("map m1: O1:keyword(x, y) ← O2:about(x, y) ; P(0.9)\n")
    b = parse_mappings("map m1: O1:keyword(x, y) <- O2:about(x, y) ; P(0.9)\n")
    assert a == b


def test_negative_probability_clause() -> None:
    (m,) = parse_mappings("map m1: A:C(x) <- B:D(x) ; P(0,75) ; N(0.1)\n")
    assert (m.probability, m.negative_probability) == (0.75, 0.1)


def test_mapping_requires_map_keyword() -> None:
    with pytest.raises(ParseError) as err:
        parse_mappings("O1:Event(x) <- O2:Event(x) ; P(0.8)\n")
    assert (err.value.line, err.value.column) == (1, 1)
    assert err.value.expected == ("'map'",)


def test_mappings_round_trip(fixture_text) -> None:
    mappings = parse_mappings(fixture_text("travel.map"))
    assert parse_mappings(serialize_mappings(mappings)) == mappings
    with_negative = parse_mappings("map m9: A:C(x) <- B:D(x) ; P(0.6) ; N(0.05)\n")
    assert parse_mappings(serialize_mappings(with_negative)) == with_negative


# --- fragment documents ------------------------------------------------------


def test_parse_fragments_structure() -> None:
    theory = parse_fragments(
        "mtheory demo\n"
        "mfrag weather\n"
        "event e1\n"
        "action a1\n"
        "agent g1\n"
        "values e1 = wet | dry\n"
        "values a1 = go | wait\n"
        "values g1 = g1\n"
        "edge a1 -> e1\n"
        "instance a1 g1\n"
        "dist e1 (a1)\n"
        "row e1 go: 0.7 0.3\n"
        "row e1 wait: 0.1 0.9\n"
        "dist a1\n"
        "row a1: 0.5 0.5\n"
        "dist g1\n"
        "row g1: 1.0\n"
    )
    assert theory.name == "demo"
    (frag,) = theory.fragments
    assert frag.name == "weather"
    assert frag.events == frozenset({"e1"})
    assert frag.graph == frozenset({("a1", "e1")})
    assert frag.action_instance_of == {"a1": "g1"}
    assert frag.distributions["e1"].parents == ("a1",)
    assert frag.distributions["e1"].rows[("go",)] == (0.7, 0.3)


def test_row_requires_preceding_dist() -> None:
    with pytest.raises(ParseError, match="'dist' line before 'row'"):
        parse_fragments("mfrag f\nevent e1\nrow e1: 1.0\n")


def test_statement_outside_fragment_rejected() -> None:
    with pytest.raises(ParseError) as err:
        parse_fragments("event e1\n")
    assert err.value.expected == ("'mtheory'", "'mfrag'")


# --- simulation configs -------------------------------------------------------


def test_parse_config_fixture(fixture_text) -> None:
    config = parse_sim_config(fixture_text("exo_small.cfg"))
    assert config.regime is Regime.EXOGENOUS
    assert config.base_stock == 4
    assert config.lead.mu == 2.0 and config.lead.r == 1.0
    assert (config.horizon, config.warmup, config.seed) == (200.0, 20.0, 7)


def test_config_cost_defaults_and_comments() -> None:
    config = parse_sim_config(
        "# minimal run\n"
        "regime = exo\n"
        "base_stock = 2   # small\n"
        "demand_rate = 1.0\n"
        "lead_mu = 1.0\n"
        "lead_r = 1.0\n"
        "review_period = 1.0\n"
        "horizon = 10\n"
        "warmup = 0\n"
        "seed = 1\n"
    )
    assert (config.costs.holding, config.costs.lost_penalty, config.costs.processing) == (1.0, 10.0, 1.0)
    assert config.measure_position is False


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda t: t.replace("seed = 7\n", ""), "missing config keys: seed"),
        (lambda t: t + "bogus = 1\n", "unknown key bogus"),
        (lambda t: t + "seed = 9\n", "duplicate key seed"),
        (lambda t: t.replace("horizon = 200.0", "horizon = soon"), "not a number"),
        (lambda t: t.replace("regime = exo", "regime = warp"), "key regime"),
    ],
)
def test_config_errors(fixture_text, mangle, message) -> None:
    broken = mangle(fixture_text("exo_small.cfg"))
    with pytest.raises(InvalidConfigError, match=message):
        parse_sim_config(broken)


@pytest.mark.parametrize(
    "key, value",
    [(key, "nan") for key in ("demand_rate", "lead_mu", "lead_r", "review_period", "horizon",
                              "warmup", "base_stock", "seed", "holding")]
    + [(key, "inf") for key in ("demand_rate", "lead_mu", "review_period", "horizon",
                                "base_stock", "seed", "lost_penalty")],
)
def test_config_rejects_non_finite_numbers(fixture_text, key, value) -> None:
    lines = [line for line in fixture_text("exo_small.cfg").splitlines() if not line.startswith(key)]
    with pytest.raises(InvalidConfigError, match=f"key {key}: not a finite number"):
        parse_sim_config("\n".join(lines + [f"{key} = {value}"]) + "\n")


@pytest.mark.parametrize("key, value", [("base_stock", "2.7"), ("seed", "7.9"), ("seed", "1e-3")])
def test_config_rejects_non_integral_integer_keys(fixture_text, key, value) -> None:
    lines = [line for line in fixture_text("exo_small.cfg").splitlines() if not line.startswith(key)]
    with pytest.raises(InvalidConfigError, match=f"key {key}: not an integer"):
        parse_sim_config("\n".join(lines + [f"{key} = {value}"]) + "\n")


def test_config_accepts_integral_values_written_as_decimals(fixture_text) -> None:
    text = fixture_text("exo_small.cfg").replace("base_stock = 4", "base_stock = 4.0")
    config = parse_sim_config(text.replace("seed = 7", "seed = 7e0"))
    assert (config.base_stock, config.seed) == (4, 7)
    assert type(config.base_stock) is int and type(config.seed) is int


def test_config_reads_integer_keys_exactly(fixture_text) -> None:
    # 2**53 + 1 has no float; the float route would read the seed of another run
    text = fixture_text("exo_small.cfg").replace("seed = 7", "seed = 9007199254740993")
    config = parse_sim_config(text.replace("base_stock = 4", "base_stock = +4"))
    assert (config.seed, config.base_stock) == (9007199254740993, 4)


@pytest.mark.parametrize("value", ["-3", "-3.0"])
def test_config_rejects_negative_seed(fixture_text, value) -> None:
    with pytest.raises(InvalidConfigError, match="seed must be a nonnegative integer"):
        parse_sim_config(fixture_text("exo_small.cfg").replace("seed = 7", f"seed = {value}"))


def test_config_measure_position_flag(fixture_text) -> None:
    text = fixture_text("exo_small.cfg") + "measure_position = true\n"
    assert parse_sim_config(text).measure_position is True
    with pytest.raises(InvalidConfigError, match="measure_position"):
        parse_sim_config(fixture_text("exo_small.cfg") + "measure_position = maybe\n")


# --- queries and event scripts ---------------------------------------------


def test_query_conjunction_symbols_agree() -> None:
    wedge = parse_query("O1:Event(x) ∧ O1:keyword(x, Sea)")
    amp = parse_query("O1:Event(x) & O1:keyword(x, Sea)")
    assert wedge == amp
    assert wedge[1] == PropertyAtom(
        name("O1", "keyword"), Variable("x"), Individual(name(INSTANCE_NAMESPACE, "Sea"))
    )


def test_query_default_namespace() -> None:
    (atom,) = parse_query("Event(x)", default_ns="O1")
    assert atom == ClassAtom(name("O1", "Event"), Variable("x"))


def test_query_columns_count_from_the_text_as_given() -> None:
    with pytest.raises(ParseError) as err:
        parse_query("   L:A(x")
    assert (err.value.column, err.value.expected, err.value.found) == (9, ("')'",), "")


def test_parse_events_shapes() -> None:
    events = parse_events(
        "namespace up\n"
        "# schedule\n"
        "at 0.5 assert Event(E1)\n"
        "at 1.25 action a1 Action by Bot target O1 O2\n"
    )
    assert events[0] == ABoxAssertion(
        ClassAtom(name("up", "Event"), Individual(name(INSTANCE_NAMESPACE, "E1"))), 0.5
    )
    assert events[1] == ActionRecord(
        1.25, "a1", name("up", "Action"), name(INSTANCE_NAMESPACE, "Bot"), ("O1", "O2")
    )


@pytest.mark.parametrize(
    "line", ["at 1e999 assert up:Event(E)", "at 1e999 action a1 up:Action by Bot"]
)
def test_parse_events_rejects_an_infinite_time(line) -> None:
    with pytest.raises(MalformedItemError):
        parse_events(line + "\n")


@pytest.mark.parametrize(
    "line, word, expected",
    [
        ("at 1 action a1 O:K byalice", "byalice", ("'by'",)),
        ("at 1 action a1 O:K by alice targetx y", "targetx", ("end of line",)),
        ("at 1 action a1 O:K by alice targets x y", "targets", ("end of line",)),
    ],
)
def test_parse_events_keywords_are_whole_words(line, word, expected) -> None:
    with pytest.raises(ParseError) as err:
        parse_events(line + "\n")
    assert (err.value.column, err.value.expected, err.value.found) == (line.index(word) + 1, expected, word)


def test_parse_events_bad_verb() -> None:
    with pytest.raises(ParseError) as err:
        parse_events("at 1.0 zap up:Event(E)\n")
    assert err.value.expected == ("'assert'", "'action'")
    assert (err.value.line, err.value.column) == (1, 8)


# --- result records ---------------------------------------------------------


def test_result_field_order_is_frozen() -> None:
    assert RESULT_FIELDS == (
        "regime", "base_stock", "demand_rate", "lead_mu", "lead_r", "review_period",
        "horizon", "warmup", "seed", "holding", "lost_penalty", "processing",
        "measure_position", "fill_rate", "avg_on_hand", "long_run_avg_cost",
        "service_time_mean", "service_time_var", "lost_count", "served_count",
        "wall_time_s",
    )


def test_fmt9_significant_digits() -> None:
    assert fmt9(0.123456789123) == "0.123456789"
    assert fmt9(1.0) == "1"
    assert fmt9(12000.0) == "12000"
    assert float(fmt9(math.pi)) == pytest.approx(math.pi, abs=5e-9)


def _small_record(fixture_text) -> dict:
    config = parse_sim_config(fixture_text("exo_small.cfg"))
    stats = run_simulation(config)
    return make_result_record(config, stats, wall_time_s=0.25)


def test_csv_schema_stable(fixture_text) -> None:
    record = _small_record(fixture_text)
    text = format_result_csv([record, record])
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(RESULT_FIELDS)
    assert all(len(line.split(",")) == len(RESULT_FIELDS) for line in lines)
    assert lines[1] == lines[2]
    assert lines[1].split(",")[0] == "exo"
    assert text.endswith("\n")


def test_json_single_record_is_object(fixture_text) -> None:
    import json

    record = _small_record(fixture_text)
    single = json.loads(format_result_json([record]))
    double = json.loads(format_result_json([record, record]))
    assert isinstance(single, dict)
    assert isinstance(double, list) and len(double) == 2
    assert list(single) == list(RESULT_FIELDS)


def test_record_echoes_config(fixture_text) -> None:
    record = _small_record(fixture_text)
    assert record["regime"] == "exo"
    assert record["base_stock"] == 4
    assert record["seed"] == 7
    assert record["wall_time_s"] == 0.25
    assert isinstance(record["measure_position"], bool)
    stats = run_simulation(parse_sim_config(fixture_text("exo_small.cfg")))
    assert record["fill_rate"] == float(fmt9(stats.fill_rate))


def test_statement_patterns_compile_on_python_3_10() -> None:
    # Possessive quantifiers and atomic groups are new in Python 3.11's `re`.
    statements = [v for v in vars(io).values() if isinstance(v, io._Statement)]
    statements += [v for table in (io._ONTOLOGY, io._FRAGMENT, io._EVENTS) for v in table.values()]
    sources = [p.pattern for s in (*statements, io._row(2)) for p in s.patterns]
    sources += [p.pattern for p in vars(io).values() if isinstance(p, re.Pattern)]
    for source in sources:
        assert not re.search(r"[*+?}]\+|\(\?>", source), source
