"""Exception hierarchy shared across the package."""


class ForecastError(Exception):
    """Base class for every error raised by this package."""


class SchemaError(ForecastError):
    """A document (source map, KB, lexicon, templates) violates its schema.

    `path` names the offending location, e.g. "entries[3].magnitude".
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


class UnknownMethodError(ForecastError):
    """A method id has no accuracy records — usually a mis-keyed source map."""


class TheoryError(ForecastError):
    """A defeasible theory violates a structural invariant."""


class TheoryParseError(TheoryError):
    """Syntax error in the theory text format."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class OpaqueAtomError(ForecastError):
    """The atom is not in the canonical grammar; it stays an uninterpreted symbol."""


class ScenarioError(ForecastError):
    """Reasoner conclusions do not determine a coherent weather scenario."""


class LexiconError(ForecastError):
    """A value cannot be classified, or a lexicon table is malformed."""


class TemplateError(ForecastError):
    """A bulletin template is missing or malformed."""
