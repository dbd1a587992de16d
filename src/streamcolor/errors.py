"""Exception types shared across the package."""

from __future__ import annotations


class ArgumentError(ValueError):
    """A parameter violates an operation's precondition."""


class GenerationError(RuntimeError):
    """Randomized generation failed (e.g. rejection budget exhausted)."""


class FormatError(ValueError):
    """A serialized file is malformed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class StreamValidationError(ValueError):
    """A stream violates the model's invariants (e.g. negative multiplicity):
    the event at `index`, the earliest at fault, breaks `rule`. `read_stream`
    names the rule at the event's line; the message names the event's pair
    after the rule's word "pair"."""

    def __init__(self, rule: str, index: int, pair: tuple[int, int]):
        super().__init__(rule.replace("pair", f"pair {pair}", 1))
        self.rule, self.index = rule, index


class UnsupportedInputError(ValueError):
    """An operation needs metadata the input does not carry."""


class PassLimitError(RuntimeError):
    """A stream source refused another pass."""


class ResourceLimitError(RuntimeError):
    """Requested construction would exceed built-in size guards."""
