"""Structural validation of Bayesian-network fragments and theories.

A fragment is the tuple (E, A, N, G, D): event, action, and agent node
sets, a directed acyclic graph over them, and one local distribution
per agent node.  Validation checks the machine-checkable structure
only: node-set disjointness, acyclicity, the requirement that the
graph's roots are exactly the action and agent nodes, possible-value
declarations, row coverage and normalization of each distribution, and
the one-agent-per-action instance link.  Distributions are stored and
validated, never marginalized.

Errors are values, not exceptions: ``validate_mfrag`` returns the full
list of problems so a document checker can report them all at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

from .errors import InvalidFragmentError

NodeId = str

PROB_TOL = 1e-9


@dataclass(frozen=True)
class LocalDistribution:
    """Conditional distribution of one node given the states of others.

    ``rows`` maps each combination of parent states (a tuple aligned
    with ``parents``) to a probability vector over the node's own
    possible values.  A root distribution has ``parents == ()`` and a
    single row keyed by the empty tuple.
    """

    node: NodeId
    parents: tuple[NodeId, ...] = ()
    rows: dict[tuple[str, ...], tuple[float, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class MFrag:
    name: str
    events: frozenset[NodeId] = frozenset()
    actions: frozenset[NodeId] = frozenset()
    agents: frozenset[NodeId] = frozenset()
    graph: frozenset[tuple[NodeId, NodeId]] = frozenset()
    distributions: dict[NodeId, LocalDistribution] = field(default_factory=dict)
    action_instance_of: dict[NodeId, NodeId] = field(default_factory=dict)
    possible_values: dict[NodeId, tuple[str, ...]] = field(default_factory=dict)

    @property
    def nodes(self) -> frozenset[NodeId]:
        return self.events | self.actions | self.agents


@dataclass(frozen=True)
class MTheory:
    """A collection of fragments meant to define one joint distribution.

    The home of a random variable is the fragment whose agent set
    carries its local distribution; a variable with two homes breaks
    joint-distribution uniqueness.
    """

    name: str
    fragments: tuple[MFrag, ...] = ()

    def home(self) -> dict[NodeId, str]:
        out: dict[NodeId, str] = {}
        for fragment in self.fragments:
            for rv in sorted(fragment.agents):
                out.setdefault(rv, fragment.name)
        return out


class ErrorKind(Enum):
    DISJOINTNESS_VIOLATED = "DisjointnessViolated"
    UNKNOWN_NODE = "UnknownNode"
    CYCLE_DETECTED = "CycleDetected"
    ROOT_NOT_ACTION_OR_AGENT = "RootNotActionOrAgent"
    ACTION_OR_AGENT_NOT_ROOT = "ActionOrAgentNotRoot"
    MISSING_POSSIBLE_VALUES = "MissingPossibleValues"
    MISSING_DISTRIBUTION = "MissingDistribution"
    EXTRA_DISTRIBUTION = "ExtraDistribution"
    BAD_ROW_SUM = "BadRowSum"
    BAD_ROW_LENGTH = "BadRowLength"
    PROBABILITY_OUT_OF_RANGE = "ProbabilityOutOfRange"
    MISSING_PARENT_COMBINATION = "MissingParentCombination"
    EXTRA_PARENT_COMBINATION = "ExtraParentCombination"
    MISSING_ACTION_INSTANCE = "MissingActionInstance"
    EXTRA_ACTION_INSTANCE = "ExtraActionInstance"
    BAD_INSTANCE_TARGET = "BadInstanceTarget"
    DUPLICATE_HOME = "DuplicateHome"


@dataclass(frozen=True)
class StructuralError:
    kind: ErrorKind
    subject: str
    detail: str = ""

    def __str__(self) -> str:
        base = f"{self.kind.value}({self.subject})"
        return f"{base}: {self.detail}" if self.detail else base


class FragmentKind(Enum):
    GENERATIVE = "generative"
    FINDING = "finding"


def _eliminate(fragment: MFrag) -> tuple[list[NodeId], list[NodeId]]:
    """Kahn elimination of the fragment graph, smallest ready node first.

    Returns the nodes in the order eliminated, and the sorted nodes it
    cannot eliminate: those on a cycle or downstream of one, whatever
    the order.
    """
    nodes = set(fragment.nodes).union(*fragment.graph)
    edges = sorted(fragment.graph)
    indegree = dict.fromkeys(nodes, 0)
    for _, dst in edges:
        indegree[dst] += 1
    ready = sorted((n for n, d in indegree.items() if d == 0), reverse=True)
    order: list[NodeId] = []
    while ready:
        n = ready.pop()
        order.append(n)
        for src, dst in edges:
            if src == n:
                indegree[dst] -= 1
                if indegree[dst] == 0:
                    ready.append(dst)
        ready.sort(reverse=True)
    return order, sorted(nodes.difference(order))


def topological_order(fragment: MFrag) -> list[NodeId]:
    """A deterministic topological order of the fragment graph.

    Raises ``InvalidFragmentError`` when the graph is cyclic.
    """
    order, cyclic = _eliminate(fragment)
    if cyclic:
        raise InvalidFragmentError(f"fragment {fragment.name} graph is cyclic")
    return order


def _validate_distribution(
    fragment: MFrag, dist: LocalDistribution, errors: list[StructuralError]
) -> None:
    declared = fragment.nodes
    node_values = fragment.possible_values.get(dist.node, ())
    for parent in dist.parents:
        if parent not in declared:
            errors.append(
                StructuralError(ErrorKind.UNKNOWN_NODE, parent, f"parent of distribution {dist.node}")
            )
            return
    parent_values = [fragment.possible_values.get(p, ()) for p in dist.parents]
    if any(not vs for vs in parent_values):
        return  # missing possible values reported separately
    expected = set(itertools.product(*parent_values))
    seen = set(dist.rows)
    for combo in sorted(expected - seen):
        errors.append(
            StructuralError(ErrorKind.MISSING_PARENT_COMBINATION, dist.node, ",".join(combo))
        )
    for combo in sorted(seen - expected):
        errors.append(
            StructuralError(ErrorKind.EXTRA_PARENT_COMBINATION, dist.node, ",".join(combo))
        )
    for combo in sorted(seen & expected):
        row = dist.rows[combo]
        if node_values and len(row) != len(node_values):
            errors.append(
                StructuralError(
                    ErrorKind.BAD_ROW_LENGTH,
                    dist.node,
                    f"row ({','.join(combo)}) has {len(row)} entries for {len(node_values)} values",
                )
            )
            continue
        if not all(0 <= p <= 1 for p in row):  # false for NaN too
            errors.append(
                StructuralError(ErrorKind.PROBABILITY_OUT_OF_RANGE, dist.node, ",".join(combo))
            )
            continue
        total = sum(row)
        if abs(total - 1.0) > PROB_TOL:
            errors.append(
                StructuralError(
                    ErrorKind.BAD_ROW_SUM, dist.node, f"row ({','.join(combo)}) sums to {total!r}"
                )
            )


def validate_mfrag(fragment: MFrag) -> list[StructuralError]:
    """Every structural problem in the fragment; empty iff valid.

    When the graph is cyclic the root checks are suppressed: a cycle
    makes every node on it non-root, and reporting those as separate
    errors would only restate the cycle.
    """
    errors: list[StructuralError] = []
    declared = fragment.nodes

    for node in sorted(
        (fragment.events & fragment.actions)
        | (fragment.events & fragment.agents)
        | (fragment.actions & fragment.agents)
    ):
        errors.append(StructuralError(ErrorKind.DISJOINTNESS_VIOLATED, node, "in two node sets"))

    unknown = {n for edge in fragment.graph for n in edge if n not in declared}
    for node in sorted(unknown):
        errors.append(StructuralError(ErrorKind.UNKNOWN_NODE, node, "edge endpoint not declared"))

    all_nodes = set(declared) | {n for edge in fragment.graph for n in edge}
    _, cyclic = _eliminate(fragment)
    if cyclic:
        errors.append(StructuralError(ErrorKind.CYCLE_DETECTED, ",".join(cyclic)))
    else:
        with_incoming = {dst for _, dst in fragment.graph}
        roots = all_nodes - with_incoming
        inputs = fragment.actions | fragment.agents
        for node in sorted(roots & fragment.events):
            errors.append(StructuralError(ErrorKind.ROOT_NOT_ACTION_OR_AGENT, node))
        for node in sorted(inputs & with_incoming):
            errors.append(StructuralError(ErrorKind.ACTION_OR_AGENT_NOT_ROOT, node))

    for node in sorted(declared):
        if not fragment.possible_values.get(node):
            errors.append(StructuralError(ErrorKind.MISSING_POSSIBLE_VALUES, node))

    for node in sorted(fragment.agents - set(fragment.distributions)):
        errors.append(StructuralError(ErrorKind.MISSING_DISTRIBUTION, node))
    for node in sorted(set(fragment.distributions) - fragment.agents):
        errors.append(StructuralError(ErrorKind.EXTRA_DISTRIBUTION, node))
    for node in sorted(set(fragment.distributions) & fragment.agents):
        _validate_distribution(fragment, fragment.distributions[node], errors)

    for node in sorted(fragment.actions - set(fragment.action_instance_of)):
        errors.append(StructuralError(ErrorKind.MISSING_ACTION_INSTANCE, node))
    for node in sorted(set(fragment.action_instance_of) - fragment.actions):
        errors.append(StructuralError(ErrorKind.EXTRA_ACTION_INSTANCE, node))
    for node in sorted(set(fragment.action_instance_of) & fragment.actions):
        target = fragment.action_instance_of[node]
        if target not in fragment.agents:
            errors.append(
                StructuralError(ErrorKind.BAD_INSTANCE_TARGET, node, f"{target} is not an agent")
            )

    return errors


def validate_mtheory(theory: MTheory) -> list[StructuralError]:
    """Fragment errors (subjects prefixed with the fragment name) plus home clashes."""
    errors: list[StructuralError] = []
    for fragment in theory.fragments:
        for err in validate_mfrag(fragment):
            errors.append(
                StructuralError(err.kind, f"{fragment.name}.{err.subject}", err.detail)
            )
    home = theory.home()
    for fragment in theory.fragments:
        for rv in sorted(fragment.agents):
            if home[rv] != fragment.name:
                errors.append(
                    StructuralError(
                        ErrorKind.DUPLICATE_HOME, rv, f"resident in {home[rv]} and {fragment.name}"
                    )
                )
    return errors


def classify_fragment(fragment: MFrag, has_findings: bool) -> FragmentKind:
    """Finding fragments pin situation-specific values; generative ones do not."""
    problems = validate_mfrag(fragment)
    if problems:
        raise InvalidFragmentError(
            f"fragment {fragment.name} is invalid: " + "; ".join(str(p) for p in problems)
        )
    return FragmentKind.FINDING if has_findings else FragmentKind.GENERATIVE
