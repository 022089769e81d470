"""Merge two ontologies under uncertain mappings and query the result.

Each mapping carries the probability that it is correct.  A merged fact
remembers every minimal set of mappings able to derive it; locally
asserted facts carry the empty set and therefore score exactly 1.
A fact's probability is the exact chance that one of those sets holds
entirely, with overlapping sets scored exactly, and a query can be
restricted to mapped support to see what the alignment alone buys.
"""

from ontoflux.io import parse_mappings, parse_ontology, parse_query
from ontoflux.merging import merge, query

LOCAL = """
namespace O1
class O1:Event
class O1:Subject
property O1:keyword
allvalues O1:Event O1:keyword O1:Subject
assert Event(Trip)
assert keyword(Trip, Sea)
"""

EXTERNAL = """
namespace O2
class O2:Event
class O2:Action
class O2:Thing
class O2:Topic
property O2:about
subclass O2:Action O2:Event
allvalues O2:Thing O2:about O2:Topic
assert Action(Trip)
assert Event(Holyday)
assert about(Trip, Place)
assert about(Holyday, Duration)
"""

MAPPINGS = """
map m1: O1:Event(x) <- O2:Event(x) ; P(0.8)
map m2: O1:Event(x) <- O2:Action(x) ; P(0.9)
map m3: O1:Subject(x) <- O2:Topic(x) ; P(0,8)
map m4: O1:keyword(x, y) <- O2:about(x, y) ; P(0.9)
"""


def show(title: str, answers) -> None:
    print(title)
    for a in answers:
        binding = ", ".join(f"{var}={value.local}" for var, value in a.binding) or "(ground)"
        print(f"  {binding}  p={a.probability:.9f}")


def main() -> None:
    local = parse_ontology(LOCAL)
    external = parse_ontology(EXTERNAL)
    mappings = parse_mappings(MAPPINGS)
    merged = merge(local, external, mappings)

    # Trip is locally asserted as an Event with keyword Sea, so the
    # local derivation dominates whatever the mappings add
    q = parse_query("O1:Event(x) ∧ O1:keyword(x, Sea)")
    show("events keyed by Sea:", query(merged, q))

    # keyword(Trip, Place) exists only through m4 on about(Trip, Place),
    # joined with m2 on Action(Trip): 0.9 * 0.9 = 0.81
    q = parse_query("O1:Event(x) ∧ O1:keyword(x, Place)")
    show("\nevents keyed by Place:", query(merged, q))
    show("same query, mapped support only:", query(merged, q, mapped_only=True))

    # a shared mapping is not double-counted: both conjuncts below need
    # m2, so the joint score is 0.9, not 0.81
    q = parse_query("O1:Event(Trip) ∧ O1:Event(Trip)")
    show("\nrepeated conjunct (mapped only):", query(merged, q, mapped_only=True))


if __name__ == "__main__":
    main()
