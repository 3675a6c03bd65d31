"""Shared exception taxonomy.

Contract violations are caller bugs (bad shapes, invalid arguments),
domain errors are mathematically invalid inputs (log of a negative,
zero-vector normalization), evaluation errors are non-finite results
discovered mid-computation.
"""


class ContractViolation(ValueError):
    """An operation was called outside its documented contract."""


class FieldViolation(ContractViolation):
    """A config dataclass rejected one of its fields; ``field`` names the
    attribute and ``rule`` states what it must satisfy."""

    def __init__(self, field: str, rule: str):
        super().__init__(f"{field}: {rule}")
        self.field = field
        self.rule = rule


def require(condition: bool, field: str, rule: str) -> None:
    """Raise ``FieldViolation(field, rule)`` unless ``condition`` holds."""
    if not condition:
        raise FieldViolation(field, rule)


def require_choice(value, field: str, options: tuple) -> None:
    require(value in options, field, f"must be one of {options}")


class DomainError(ValueError):
    """An input lies outside the mathematical domain of the operation."""


class EvaluationError(RuntimeError):
    """A computation produced a non-finite or otherwise unusable value."""
