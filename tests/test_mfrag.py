import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontoflux.errors import InvalidFragmentError
from ontoflux.mfrag import (
    ErrorKind,
    FragmentKind,
    LocalDistribution,
    MFrag,
    MTheory,
    StructuralError,
    classify_fragment,
    topological_order,
    validate_mfrag,
    validate_mtheory,
)

VALUES = {"e1": ("wet", "dry"), "a1": ("go", "wait"), "n1": ("work", "rest")}


def minimal(**overrides) -> MFrag:
    base = dict(
        name="weather",
        events=frozenset({"e1"}),
        actions=frozenset({"a1"}),
        agents=frozenset({"n1"}),
        graph=frozenset({("a1", "e1"), ("n1", "e1")}),
        distributions={"n1": LocalDistribution("n1", (), {(): (0.25, 0.75)})},
        action_instance_of={"a1": "n1"},
        possible_values=dict(VALUES),
    )
    base.update(overrides)
    return MFrag(**base)


def kinds(errors) -> list[ErrorKind]:
    return [e.kind for e in errors]


def test_minimal_fragment_is_valid():
    assert validate_mfrag(minimal()) == []


def test_unknown_edge_endpoint():
    frag = minimal(graph=frozenset({("a1", "e1"), ("n1", "e1"), ("ghost", "e1")}))
    errs = validate_mfrag(frag)
    assert StructuralError(ErrorKind.UNKNOWN_NODE, "ghost", "edge endpoint not declared") in errs


def test_cycle_suppresses_root_checks():
    frag = minimal(graph=frozenset({("a1", "e1"), ("e1", "a1"), ("n1", "e1")}))
    errs = validate_mfrag(frag)
    assert errs == [StructuralError(ErrorKind.CYCLE_DETECTED, "a1,e1")]


def test_event_root_and_non_root_action_are_flagged():
    frag = minimal(graph=frozenset({("e1", "a1"), ("n1", "a1")}))
    errs = validate_mfrag(frag)
    assert kinds(errs) == [ErrorKind.ROOT_NOT_ACTION_OR_AGENT, ErrorKind.ACTION_OR_AGENT_NOT_ROOT]
    assert [e.subject for e in errs] == ["e1", "a1"]


def test_missing_possible_values():
    values = {k: v for k, v in VALUES.items() if k != "a1"}
    errs = validate_mfrag(minimal(possible_values=values))
    assert errs == [StructuralError(ErrorKind.MISSING_POSSIBLE_VALUES, "a1")]


def test_distribution_bookkeeping_is_exactly_one_per_agent():
    errs = validate_mfrag(minimal(distributions={}))
    assert errs == [StructuralError(ErrorKind.MISSING_DISTRIBUTION, "n1")]
    extra = {
        "n1": LocalDistribution("n1", (), {(): (0.25, 0.75)}),
        "e1": LocalDistribution("e1", (), {(): (0.5, 0.5)}),
    }
    errs = validate_mfrag(minimal(distributions=extra))
    assert errs == [StructuralError(ErrorKind.EXTRA_DISTRIBUTION, "e1")]


def test_row_sum_tolerance_is_tight():
    ok = minimal(distributions={"n1": LocalDistribution("n1", (), {(): (0.25, 0.75 + 5e-10)})})
    assert validate_mfrag(ok) == []
    bad = minimal(distributions={"n1": LocalDistribution("n1", (), {(): (0.25, 0.749)})})
    errs = validate_mfrag(bad)
    assert kinds(errs) == [ErrorKind.BAD_ROW_SUM]
    assert "0.999" in errs[0].detail


def test_row_probabilities_must_lie_in_unit_interval():
    frag = minimal(distributions={"n1": LocalDistribution("n1", (), {(): (1.25, -0.25)})})
    errs = validate_mfrag(frag)
    assert errs == [StructuralError(ErrorKind.PROBABILITY_OUT_OF_RANGE, "n1", "")]


@pytest.mark.parametrize("row", [(math.nan, math.nan), (math.nan, 0.5), (math.inf, -math.inf)])
def test_a_row_entry_that_is_not_a_number_is_out_of_range(row):
    # a NaN entry fails both `p < 0` and `p > 1`, and makes the row's sum NaN
    frag = minimal(distributions={"n1": LocalDistribution("n1", (), {(): row})})
    assert validate_mfrag(frag) == [StructuralError(ErrorKind.PROBABILITY_OUT_OF_RANGE, "n1", "")]


def test_row_length_must_match_possible_values():
    frag = minimal(distributions={"n1": LocalDistribution("n1", (), {(): (0.2, 0.3, 0.5)})})
    errs = validate_mfrag(frag)
    assert kinds(errs) == [ErrorKind.BAD_ROW_LENGTH]
    assert "3 entries for 2 values" in errs[0].detail


def test_parent_combinations_cover_the_cross_product():
    rows = {("go",): (0.25, 0.75)}
    frag = minimal(distributions={"n1": LocalDistribution("n1", ("a1",), rows)})
    errs = validate_mfrag(frag)
    assert errs == [StructuralError(ErrorKind.MISSING_PARENT_COMBINATION, "n1", "wait")]
    rows = {("go",): (0.25, 0.75), ("wait",): (0.5, 0.5), ("sprint",): (0.5, 0.5)}
    frag = minimal(distributions={"n1": LocalDistribution("n1", ("a1",), rows)})
    errs = validate_mfrag(frag)
    assert errs == [StructuralError(ErrorKind.EXTRA_PARENT_COMBINATION, "n1", "sprint")]


def test_unknown_distribution_parent():
    frag = minimal(distributions={"n1": LocalDistribution("n1", ("ghost",), {})})
    errs = validate_mfrag(frag)
    assert errs == [StructuralError(ErrorKind.UNKNOWN_NODE, "ghost", "parent of distribution n1")]


def test_action_instance_link_is_exactly_one_agent():
    errs = validate_mfrag(minimal(action_instance_of={}))
    assert errs == [StructuralError(ErrorKind.MISSING_ACTION_INSTANCE, "a1")]
    errs = validate_mfrag(minimal(action_instance_of={"a1": "n1", "e1": "n1"}))
    assert errs == [StructuralError(ErrorKind.EXTRA_ACTION_INSTANCE, "e1")]
    errs = validate_mfrag(minimal(action_instance_of={"a1": "e1"}))
    assert errs == [StructuralError(ErrorKind.BAD_INSTANCE_TARGET, "a1", "e1 is not an agent")]


def test_node_set_overlap():
    frag = minimal(events=frozenset({"e1", "a1"}))
    errs = validate_mfrag(frag)
    assert StructuralError(ErrorKind.DISJOINTNESS_VIOLATED, "a1", "in two node sets") in errs


def test_theory_prefixes_subjects_and_finds_duplicate_homes():
    saily = minimal(
        name="sailing",
        events=frozenset({"e2"}),
        actions=frozenset({"a2"}),
        graph=frozenset({("a2", "e2"), ("n1", "e2")}),
        action_instance_of={"a2": "n1"},
        possible_values={"e2": ("calm", "storm"), "a2": ("sail", "dock"), "n1": ("work", "rest")},
    )
    theory = MTheory("pair", (minimal(), saily))
    errs = validate_mtheory(theory)
    assert errs == [
        StructuralError(ErrorKind.DUPLICATE_HOME, "n1", "resident in weather and sailing")
    ]
    broken = MTheory("solo", (minimal(action_instance_of={}),))
    errs = validate_mtheory(broken)
    assert errs == [StructuralError(ErrorKind.MISSING_ACTION_INSTANCE, "weather.a1")]


def test_classification_requires_validity():
    assert classify_fragment(minimal(), has_findings=False) is FragmentKind.GENERATIVE
    assert classify_fragment(minimal(), has_findings=True) is FragmentKind.FINDING
    with pytest.raises(InvalidFragmentError):
        classify_fragment(minimal(distributions={}), has_findings=False)


def test_topological_order_respects_edges():
    order = topological_order(minimal())
    assert set(order) == {"e1", "a1", "n1"}
    assert order.index("a1") < order.index("e1")
    assert order.index("n1") < order.index("e1")
    with pytest.raises(InvalidFragmentError):
        topological_order(minimal(graph=frozenset({("a1", "e1"), ("e1", "a1")})))


# --- generated-fragment properties ----------------------------------------


@st.composite
def layered_fragments(draw):
    """Random fragments built root-first, so they are always acyclic."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n_actions = rng.randint(0, 2)
    n_agents = rng.randint(1, 2)
    n_events = rng.randint(1, 3)
    actions = [f"a{i}" for i in range(n_actions)]
    agents = [f"n{i}" for i in range(n_agents)]
    events = [f"e{i}" for i in range(n_events)]
    roots = actions + agents
    graph = set()
    for e in events:
        for parent in rng.sample(roots, rng.randint(1, len(roots))):
            graph.add((parent, e))
    for upstream, downstream in itertools.combinations(events, 2):
        if rng.random() < 0.3:
            graph.add((upstream, downstream))
    values = {node: ("low", "high") for node in actions + agents + events}
    dists = {}
    for agent in agents:
        parents = tuple(a for a in actions if rng.random() < 0.5)
        rows = {
            combo: (0.4, 0.6)
            for combo in itertools.product(*[values[p] for p in parents])
        }
        dists[agent] = LocalDistribution(agent, parents, rows)
    instance = {a: rng.choice(agents) for a in actions}
    return MFrag(
        name="gen",
        events=frozenset(events),
        actions=frozenset(actions),
        agents=frozenset(agents),
        graph=frozenset(graph),
        distributions=dists,
        action_instance_of=instance,
        possible_values=values,
    )


@settings(max_examples=150, deadline=None)
@given(layered_fragments())
def test_generated_fragments_validate_clean(frag):
    assert validate_mfrag(frag) == []
    order = topological_order(frag)
    position = {node: i for i, node in enumerate(order)}
    assert all(position[src] < position[dst] for src, dst in frag.graph)


@settings(max_examples=150, deadline=None)
@given(layered_fragments(), st.integers(0, 2**32 - 1))
def test_dropping_one_row_is_reported_exactly(frag, seed):
    rng = random.Random(seed)
    conditioned = [
        node for node, dist in frag.distributions.items() if len(dist.rows) > 1
    ]
    if not conditioned:
        return
    node = rng.choice(sorted(conditioned))
    dist = frag.distributions[node]
    combo = rng.choice(sorted(dist.rows))
    rows = {k: v for k, v in dist.rows.items() if k != combo}
    dists = dict(frag.distributions)
    dists[node] = LocalDistribution(node, dist.parents, rows)
    errs = validate_mfrag(
        MFrag(
            name=frag.name,
            events=frag.events,
            actions=frag.actions,
            agents=frag.agents,
            graph=frag.graph,
            distributions=dists,
            action_instance_of=frag.action_instance_of,
            possible_values=frag.possible_values,
        )
    )
    assert errs == [
        StructuralError(ErrorKind.MISSING_PARENT_COMBINATION, node, ",".join(combo))
    ]


@settings(max_examples=100, deadline=None)
@given(layered_fragments())
def test_validation_is_deterministic(frag):
    assert validate_mfrag(frag) == validate_mfrag(frag)
    theory = MTheory("t", (frag,))
    assert validate_mtheory(theory) == validate_mtheory(theory)
