"""Exception types shared across the package."""

from __future__ import annotations


class InfkerError(Exception):
    """Base class for every error raised by this package."""


class FieldMismatchError(InfkerError, ValueError):
    """Operands live over different primes or different ambient spaces."""


class DimensionMismatchError(InfkerError, ValueError):
    """A vector or matrix has the wrong shape for the requested operation."""


class NotPrimeError(InfkerError, ValueError):
    """The requested modulus is not a prime number."""


class HomogeneityError(InfkerError, ValueError):
    """An operation that needs a homogeneous input received a mixed one."""


class PrimitivityError(InfkerError, ValueError):
    """A ladder seed is not annihilated by the raising operator."""


class ParseError(InfkerError, ValueError):
    """Malformed multivector text.  ``position`` is a 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


#: Most bits of an integer that is printed in full: 14,000 bits are 4,215
#: decimal digits, under the 4,300 that ``str`` converts by default.
PRINTABLE_BITS = 14000

#: Most items that any enumeration lists or scans: subspaces, vectors,
#: group elements and pairs, subset positions, wedge-table entries.
SCAN_LIMIT = 10 ** 6


class CatalogTooLargeError(InfkerError):
    """A computation would exceed its size budget; ``bounded_count`` raises it.

    ``noun`` names what was counted, e.g. "subspaces" or "vectors".  A
    count past PRINTABLE_BITS is stated as the power of two below it, "at
    least 2^b", and a limit past it (a power of two) as 2^b.  There the
    count may be None with only a lower bound ``bits`` on its bit length
    given, so that a count too large to build is never built.
    """

    def __init__(self, count: int | None, limit: int, noun: str, bits: int):
        bits = bits if count is None else count.bit_length()
        shown = count if bits <= PRINTABLE_BITS else f"at least 2^{bits - 1}"
        most = limit if limit.bit_length() <= PRINTABLE_BITS else f"2^{limit.bit_length() - 1}"
        super().__init__(f"refused: {shown} {noun}, more than the supported {most}")
        self.count = count
        self.limit = limit


def bounded_count(build, limit: int, noun: str, bits: int = 0) -> int:
    """The count ``build()``, whose bit length is at least ``bits``, when it
    is at most ``limit``; otherwise CatalogTooLargeError.  The count is
    built only when ``bits`` is at most PRINTABLE_BITS, and the error is
    sized by the built count, or by ``bits`` when none was built."""
    count = build() if bits <= PRINTABLE_BITS else None
    if count is None or count > limit:
        raise CatalogTooLargeError(count, limit, noun, bits)
    return count


class DecompositionDefectError(InfkerError):
    """Primitive-plus-image decomposition failed to be direct or to span.

    Carries the dimension of the overlap between the primitive subspace and
    the image of the lowering operator, and the codimension of their sum.
    """

    def __init__(self, overlap_dim: int, missing_dim: int):
        super().__init__(
            "decomposition is not direct: overlap dimension "
            f"{overlap_dim}, uncovered dimension {missing_dim}"
        )
        self.overlap_dim = overlap_dim
        self.missing_dim = missing_dim


class InvariantError(InfkerError):
    """A mathematical postcondition that must hold was violated."""
