"""Exception types shared across the ontoflux package."""

from __future__ import annotations


class OntofluxError(Exception):
    """Base class for all ontoflux-specific errors."""


class MalformedItemError(OntofluxError):
    """A domain value violates one of its structural invariants."""


class UnsortedLogError(OntofluxError):
    """An action log was not sorted by occurrence time."""


class MissingAxiomError(OntofluxError):
    """A required structural axiom is absent from the knowledge base."""

    def __init__(self, missing: list[str]):
        self.missing = list(missing)
        super().__init__("missing required axioms: " + ", ".join(self.missing))


class InvalidFragmentError(OntofluxError):
    """A fragment failed structural validation where a valid one was required."""


class NamespaceClashError(OntofluxError):
    """A mapping targets a namespace other than the local ontology's."""


class UnsafeQueryError(OntofluxError):
    """A conjunctive query is unsafe (empty, or a variable occurs nowhere positive)."""


class LineageTooLargeError(OntofluxError):
    """Exact scoring of a lineage formula needed more expansions than its work budget."""


class InvalidConfigError(OntofluxError):
    """A simulation configuration violates its invariants."""


class StaleEventError(OntofluxError):
    """An event was enqueued with a timestamp at or before the last processed tick."""


class NegativeAdjustmentError(OntofluxError):
    """Defensive guard: a sequencing adjustment produced a negative lead time."""


class NonPositiveRateError(OntofluxError, ValueError):
    """A sampling rate that must be strictly positive was not."""


class ProbabilityOutOfRangeError(OntofluxError, ValueError):
    """A probability fell outside [0, 1]."""


class ParseError(OntofluxError):
    """Syntax error in a text document, with exact position information.

    ``column`` is the 1-based offset, in characters, of the first
    character at which no continuation of a valid statement exists;
    ``expected`` lists the token kinds that would have been acceptable
    there.
    """

    def __init__(self, line: int, column: int, expected: tuple[str, ...], found: str = ""):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        self.found = found
        what = found if found else "end of line"
        super().__init__(
            f"line {line}, column {column}: expected {' or '.join(self.expected)}, found {what}"
        )


class UnresolvedNameError(OntofluxError):
    """A document referenced a local class/property name it never declares."""

    def __init__(self, name: str, line: int):
        self.name = name
        self.line = line
        super().__init__(f"line {line}: name '{name}' is never declared in this document")
