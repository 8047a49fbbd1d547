"""Exception types and the frozen record base shared across the package."""

from __future__ import annotations

from operator import attrgetter


class Record:
    """A frozen value whose fields are the subclass's ``__slots__`` that do
    not start with ``_``.

    A slot with a leading ``_`` holds state, such as a cache: every
    constructor starts it as an empty dict, and it is not compared, hashed,
    printed, pickled or replaced.  The constructor takes the fields
    positionally or by keyword and writes each through its slot's own
    member descriptor, which bypasses ``__setattr__``; a subclass that
    validates, normalises or defaults its arguments writes its own
    ``__init__`` and ends it with ``super().__init__(*fields)``.
    ``_make(*fields)`` builds a value without calling ``__init__``, for
    fields already in canonical form.

    Two records are equal when they are of one class with equal fields; a
    record hashes as the tuple of its fields and prints as
    ``Name(field=value, ...)``.  Assignment and deletion raise
    AttributeError.  Copy, pickle and ``_replace`` (a copy with some fields
    changed) rebuild a value by calling its constructor on its fields, so
    each subclass's fields are its constructor's arguments, in order.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        slots = cls.__slots__
        cls._fields = tuple(name for name in slots if not name.startswith("_"))
        cls._puts = tuple(getattr(cls, name).__set__ for name in cls._fields)
        cls._state = tuple(getattr(cls, name).__set__ for name in slots if name.startswith("_"))
        get = attrgetter(*cls._fields)  # the bare value for one field
        cls._values = property(get if len(cls._fields) > 1 else lambda self: (get(self),))

    def __init__(self, *args, **kwargs):
        puts = self._puts
        if kwargs or len(args) != len(puts):
            args = self._by_keyword(args, kwargs)
        for put, value in zip(puts, args):
            put(self, value)
        for put in self._state:
            put(self, {})

    def _by_keyword(self, args: tuple, kwargs: dict) -> list:
        """The fields in order from ``args`` and then ``kwargs``."""
        names, name = self._fields, type(self).__name__
        if len(args) > len(names):
            raise TypeError(f"{name} takes {len(names)} fields but {len(args)} were given")
        values = list(args)
        for field in names[len(args):]:
            if field not in kwargs:
                raise TypeError(f"{name} is missing the field {field!r}")
            values.append(kwargs.pop(field))
        if kwargs:
            raise TypeError(f"{name} got an unexpected field {next(iter(kwargs))!r}")
        return values

    @classmethod
    def _make(cls, *fields):
        obj = object.__new__(cls)
        for put, value in zip(cls._puts, fields):
            put(obj, value)
        for put in cls._state:
            put(obj, {})
        return obj

    def _replace(self, **changes):
        values = [changes.pop(field, getattr(self, field)) for field in self._fields]
        if changes:
            raise TypeError(f"{type(self).__name__} has no field {next(iter(changes))!r}")
        return type(self)(*values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __reduce__(self):
        return type(self), self._values

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({fields})"


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
