"""Workload ``merge_query``: one-shot ``ontoflux merge-query`` requests.

One unit is one request on a freshly generated triple of local
ontology, external ontology and mapping files; one op is the in-process
``cli.main(["merge-query", ...])`` call, which parses, merges, queries
and formats.  Inputs never repeat and the request never touches
``kb.saturate`` or ``temporal``.

Requests cycle through three families, so every stretch of the run has
the same mix whatever the seed:

* ``shared``: query ``L:Q(x) & L:B(x)``.  ``L:A`` is a subclass of
  ``L:B`` and rule ``r1: L:A(x), L:rel(x, y) -> L:Q(x)`` joins atoms
  imported by different mappings, so both conjuncts carry the A
  mappings and scoring enumerates the (at most 16) shared mappings.
* ``wide``: the same query over more than 16 mappings, with one to
  three hub individuals that every mapping reaches, so their answers
  take the approximate path.
* ``product``: query ``L:B(x) & L:C(x)``, whose conjuncts come from
  disjoint mapping sets, so scoring multiplies per-conjunct noisy-ORs.

The generator knows from its construction which bindings must appear
and which are derivable from local facts alone (those score exactly 1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from ontoflux import cli
from ontoflux import io as textio

FAMILIES = ("shared", "wide", "product")
QUERIES = {"shared": "L:Q(x) & L:B(x)", "wide": "L:Q(x) & L:B(x)", "product": "L:B(x) & L:C(x)"}
# (mapping count, hub individuals, individuals) per family, cycled in a
# seeded order so every seed sees the same variants.  The combinations
# spread request costs continuously from a few milliseconds to a few
# hundred; a latency distribution made of a few narrow peaks with gaps
# between them would make p50 and p95 jump when the machine's speed drifts.
VARIANTS = {
    "shared": [(n, 0, people) for n in (6, 9, 12, 16) for people in (8, 14, 20, 28, 40)],
    "wide": [(n, hubs, 14) for n in range(17, 25) for hubs in (1, 2, 3)],
    "product": [(n, 0, people) for n in (6, 12, 18, 24) for people in (8, 14, 20, 28, 40)],
}
ORACLE_VARIANTS = {"shared": (6, 0, 14), "wide": (8, 2, 14), "product": (6, 0, 14)}


@dataclass
class Request:
    family: str
    argv: list[str]
    out: Path
    expected: set[str]  # bindings of x that must be answered
    local: set[str]  # of those, the ones that must score exactly 1
    texts: tuple[str, str, str]  # local, external, mappings documents


def _prob(rng: random.Random) -> str:
    p = f"{rng.uniform(0.05, 0.95):.2f}"
    return p.replace(".", ",") if rng.random() < 0.2 else p  # the format accepts a decimal comma


def documents(rng: random.Random, family: str, n_maps: int, n_hubs: int, n_people: int):
    """Local, external and mapping documents of one request, and its expected bindings."""
    local = ["namespace L", "class L:A", "class L:B", "class L:C", "class L:Q", "property L:rel",
             "subclass L:A L:B", "rule r1: L:A(x), L:rel(x, y) -> L:Q(x)",
             "assert L:A(loc0)", "assert L:rel(loc0, loc1)", "assert L:C(loc0)"]
    if family == "product":
        n_a, n_rel = max(2, n_maps // 3), 1
    else:
        n_rel = max(1, n_maps // 4)
        n_a = n_maps - n_rel
    n_c = n_maps - n_a - n_rel

    maps = [f"map a{k}: L:A(x) <- X:D{k}(x) ; P({_prob(rng)})" for k in range(n_a)]
    maps += [f"map r{k}: L:rel(x, y) <- X:E{k}(x, y) ; P({_prob(rng)})" for k in range(n_rel)]
    maps += [f"map c{k}: L:C(x) <- X:F{k}(x) ; P({_prob(rng)})" for k in range(n_c)]

    external = ["namespace X"]
    external += [f"class X:D{k}" for k in range(n_a)] + [f"class X:F{k}" for k in range(n_c)]
    external += [f"property X:E{k}" for k in range(n_rel)]
    people = [f"u{i}" for i in range(n_people)]
    hubs = set(people[:n_hubs])
    has_a, has_rel, has_c = set(), set(), set()
    for u in people:
        if u in hubs:
            classes = range(n_a)
        else:
            classes = rng.sample(range(n_a), min(n_a, rng.randint(0, 3)))
        for k in classes:
            external.append(f"assert X:D{k}({u})")
            has_a.add(u)
        if n_c:
            for k in rng.sample(range(n_c), min(n_c, rng.randint(0, 2))):
                external.append(f"assert X:F{k}({u})")
                has_c.add(u)
        kinds = range(n_rel) if u in hubs else rng.sample(range(n_rel), rng.randint(0, min(2, n_rel)))
        for k in kinds:
            external.append(f"assert X:E{k}({u}, {rng.choice(people)})")
            has_rel.add(u)
    if family == "product":
        expected = (has_a & has_c) | {"loc0"}
    else:
        expected = (has_a & has_rel) | {"loc0"}
    texts = ("\n".join(local) + "\n", "\n".join(external) + "\n", "\n".join(maps) + "\n")
    return texts, expected, {"loc0"}


def _write(directory: Path, family: str, texts, expected, local) -> Request:
    paths = [directory / name for name in ("local.onto", "external.onto", "mappings.map")]
    for path, text in zip(paths, texts):
        path.write_text(text, encoding="utf-8")
    out = directory / "answers.txt"
    argv = ["merge-query", *map(str, paths), QUERIES[family], "--out", str(out)]
    return Request(family, argv, out, expected, local, texts)


def prepare(seed: int, index: int, directory: Path) -> Request:
    """Generate request ``index`` of the workload seed and write its files."""
    family = FAMILIES[index % len(FAMILIES)]
    cycle = index // len(FAMILIES)
    variants = list(VARIANTS[family])
    random.Random(f"merge_query/{seed}/{family}/{cycle // len(variants)}").shuffle(variants)
    rng = random.Random(f"merge_query/{seed}/{index}")
    texts, expected, local = documents(rng, family, *variants[cycle % len(variants)])
    return _write(directory, family, texts, expected, local)


def prepare_oracle(seed: int, family: str, directory: Path) -> Request:
    """A small request of ``family`` (at most 8 mappings) for the possible-worlds oracle."""
    rng = random.Random(f"merge_query/{seed}/oracle/{family}")
    texts, expected, local = documents(rng, family, *ORACLE_VARIANTS[family])
    return _write(directory, family, texts, expected, local)


def run(request: Request, timer) -> tuple[list[bool], str]:
    """One timed ``cli.main`` call, then the untimed output check; returns the answers too."""
    request.out.unlink(missing_ok=True)
    code = timer(lambda: cli.main(request.argv))
    if code != 0:
        return [False], ""
    text = request.out.read_text(encoding="utf-8")
    return [check(read_answers(text), request)], text


def verify(seed: int, directory: Path, timer, world_scores) -> list[bool]:
    """Run one small request per family and compare it with the possible-worlds oracle."""
    flags = []
    for family in FAMILIES:
        request = prepare_oracle(seed, family, directory)
        ok, text = run(request, timer)
        flags.append(ok[0] and oracle_ok(request, text, world_scores))
    return flags


def read_answers(text: str) -> dict[str, tuple[float, bool]]:
    """``x=value p=... [approx]`` lines as {value: (p, approximate)}."""
    answers = {}
    for line in text.splitlines():
        fields = dict(part.split("=", 1) for part in line.split() if "=" in part)
        answers[fields["x"]] = (float(fields["p"]), line.endswith(" approx"))
    return answers


def check(answers: dict[str, tuple[float, bool]], request: Request) -> bool:
    return (set(answers) == request.expected
            and all(0.0 <= p <= 1.0 for p, _ in answers.values())
            and all(answers[x][0] == 1.0 for x in request.local))


def oracle_ok(request: Request, text: str, world_scores) -> bool:
    """Compare a small request's answers with the possible-worlds oracle."""
    local, external, mapping_text = request.texts
    scores = world_scores(
        textio.parse_ontology(local), textio.parse_ontology(external),
        textio.parse_mappings(mapping_text), textio.parse_query(QUERIES[request.family]),
    )
    want = {dict(key)["x"].local: p for key, p in scores.items()}
    got = read_answers(text)
    return (set(got) == set(want)
            and all(not approx and abs(p - want[x]) <= 2e-9 for x, (p, approx) in got.items()))
