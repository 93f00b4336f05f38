"""Typed errors surfaced by the engine.

Anything that could silently produce a wrong answer over Q instead raises
one of these.
"""


class ReplalgError(Exception):
    """Base class for all package errors."""


class EmptyQuiver(ReplalgError):
    """The quiver has no vertices, so its path algebra is zero."""


class CyclicQuiver(ReplalgError):
    """The quiver has an oriented cycle; path algebras here must be finite."""


class DuplicateLabel(ReplalgError):
    """A vertex or arrow name is declared twice."""


class ParseError(ReplalgError):
    """Malformed quiver file; carries line/column when known."""

    def __init__(self, message: str, line: int = -1, column: int = -1):
        super().__init__(message)
        self.line = line
        self.column = column


class CopyOutOfRange(ReplalgError):
    """Embedding copy index outside 0..m."""


class NonSplitSimple(ReplalgError):
    """A corner e_i A e_i is not local with residue field Q, so some
    e_i (A/rad) e_i has dimension > 1 over Q (Q(sqrt 2), or Q x Q with one
    idempotent): the trace-zero hyperplane of the corner fails its
    certificate, and covers and simples would lie."""


class NotBasic(ReplalgError):
    """An algebra is not basic for its idempotents: an off-diagonal product
    e_u A e_v * e_v A e_u leaves the corner radical (M_2(Q) with matrix
    units), or End of a module has two isomorphic summands."""


class NotProjInjective(ReplalgError):
    """A module passed as projective-injective is not."""


class UndecidableDecomposition(ReplalgError):
    """An End residue looks like a division algebra over Q; we refuse to guess."""


class AmbientTooSmall(ReplalgError):
    """A cosyzygy ladder touched the top copy of the ambient truncation."""


class CapTooSmall(ReplalgError):
    """The resolution cap ends before gl.dim A^(m) is determined."""


class InternalCheckFailed(ReplalgError):
    """A result failed the engine's own re-check: a defect of the engine, not
    a false theorem."""
