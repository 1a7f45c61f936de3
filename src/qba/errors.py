"""Exception hierarchy for the qba package."""


class QbaError(Exception):
    """Base class for all domain errors raised by this package."""


class AlgebraParseError(QbaError):
    """Algebra file is structurally malformed (bad keyword, missing section)."""


class AlgebraSemanticError(QbaError):
    """Algebra file is well formed but inconsistent (unknown name, wrong
    table dimensions, duplicate names)."""


class EquationParseError(QbaError):
    """Equation text does not match the grammar. Carries a position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnboundVariable(QbaError):
    """Term evaluation met a variable missing from the environment."""


class NotAQBAlgebra(QbaError):
    """A result that holds only by the paper's theorems was asked of an
    algebra that fails the axioms. Carries the algebra and its
    validation report."""

    def __init__(self, algebra, report):
        super().__init__(f"not a QB-algebra: {len(report.violations)} "
                         "axiom violation(s)")
        self.algebra = algebra
        self.report = report


class NotACongruence(QbaError):
    """A partition expected to be compatible with the operations is not."""


class InvariantViolation(QbaError):
    """A property that holds by construction failed its check. Signals an
    implementation bug."""


class FlatInput(QbaError):
    """Operation is defined only for non-flat algebras (1 differs from 0)."""


class NotFlat(QbaError):
    """Operation is defined only for flat algebras (1 = 0)."""


class InvalidShape(QbaError):
    """Requested flat-algebra shape violates the pairing parity or range."""


class TooLarge(QbaError):
    """Carrier exceeds the hard guard for an exhaustive operation."""


class NotASubalgebra(QbaError):
    """Index set is not closed under the operations or misses a constant."""


class PreconditionViolated(QbaError):
    """Arguments fall outside the stated hypotheses of a construction."""


class NotStarClosed(QbaError):
    """Block family is not mapped to itself by the star operation."""


class DecompositionConditionError(QbaError):
    """A congruence-decomposition condition failed. Carries the witness."""

    condition = "?"

    def __init__(self, message: str, witness=None):
        super().__init__(f"({self.condition}) {message}")
        self.witness = witness


class ConditionC1Violated(DecompositionConditionError):
    condition = "C1"


class ConditionC2Violated(DecompositionConditionError):
    condition = "C2"


class ConditionC3Violated(DecompositionConditionError):
    condition = "C3"
