"""Exception types shared across the toolkit."""


class FoxTorsionError(Exception):
    """Base class for every error this package raises on bad input."""


class ParseError(FoxTorsionError):
    """Malformed word text.  ``position`` is the 0-based offset of the offending token."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class WordSizeError(FoxTorsionError):
    """A word or exponent exceeded the configured expansion limits."""


class InvalidGeneratorName(FoxTorsionError, ValueError):
    """A generator name is not an ASCII identifier ``[A-Za-z][A-Za-z0-9_]*``."""


class DuplicateGenerator(FoxTorsionError, ValueError):
    """A presentation lists the same generator name twice."""


class UnknownGenerator(FoxTorsionError):
    """A word uses a generator that the ambient presentation or map does not know."""


class NontrivialTorsion(FoxTorsionError):
    """The abelianized group has a finite cyclic factor; only free H_1 is supported."""


class InvalidBasis(FoxTorsionError):
    """A user-supplied abelianization basis violates a relator or fails to generate."""


class InexactDivision(FoxTorsionError):
    """Laurent-polynomial division left a nonzero remainder."""


class RankMismatch(FoxTorsionError):
    """Operands live in Laurent rings of different ranks."""


class NotBalanced(FoxTorsionError):
    """Presentation deficiency does not match the number of inclusion words."""


class InternalInexactDivision(FoxTorsionError):
    """A division that must be exact failed: the division of a determinant
    by a column's binomial in `det_cofactor`, or a step of the reference
    Bareiss elimination.

    This signals a defect in that code, never bad user input.
    """


class ZeroTorsion(FoxTorsionError):
    """The zero torsion class has no support."""


class RankUnsupported(FoxTorsionError):
    """Structured hull data is only available in rank at most 2."""


class OddSutureCount(FoxTorsionError):
    """The suture count of a sutured solid torus must be a positive even integer."""


class NonpositiveP(FoxTorsionError):
    """The longitudinal winding number must be a positive integer."""


class InputTooLarge(FoxTorsionError):
    """An input asks for more output than the stated size limits allow."""


class UnsupportedN(FoxTorsionError):
    """The knot-family parameter lies outside the supported range n >= -1."""


class UsageError(FoxTorsionError):
    """The command line does not fit the CLI grammar."""


class InputFileError(FoxTorsionError):
    """A sectioned CLI input file is malformed."""


class InputEncodingError(InputFileError):
    """A CLI input file holds a byte outside ASCII."""
