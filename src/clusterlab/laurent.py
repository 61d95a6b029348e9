"""Exact arithmetic for integer-coefficient Laurent polynomials.

A polynomial in n variables is stored sparsely as a map from packed
monomials to nonzero integer coefficients.  A packed monomial is one int
holding the exponent vector (negative entries allowed) in n fixed-width
fields, variable 0 in the most significant field.  Each field stores its
exponent plus a bias, so every field is a nonnegative number below
``2**FIELD_BITS``.  Three things follow:

- multiplying two monomials is one int addition (minus the packed zero
  vector), and hashing a monomial is int hashing;
- int order on packed monomials equals lexicographic order on exponent
  vectors, so sorting packed keys orders terms exactly as sorting exponent
  tuples does;
- all polynomials of one arity share one layout, so two polynomials are
  equal exactly when their term maps are equal.

Exponents are limited to ``MIN_EXPONENT..MAX_EXPONENT``, the range of a
signed ``FIELD_BITS``-bit integer.  The width is fixed rather than fitted
to each polynomial, because a polynomial-specific width would give equal
polynomials different keys and break the shared order.  An exponent
outside the range, given to the constructor or produced by a product or
quotient, raises ExponentOverflow; it never wraps into the neighbouring
field.  Each polynomial carries an upper bound on its largest absolute
exponent, so a product checks the guard with one comparison and computes
exact per-variable exponent ranges only when the bound is exceeded.

Zero coefficients are pruned on construction.  Coefficients are Python
ints and never overflow; a float, a bool or any other coefficient raises
InvalidParameter.  Products, exact division and substitution work on
packed keys only.  Exponent tuples appear at the API boundary (the
constructor, the read-only ``terms`` view, formatting and JSON) and in
``derivative``, ``reduced_form`` and negative ``__pow__``, which unpack.

Terms are ordered lexicographically by exponent vector.  That single
order drives serialization, the deterministic ordering of whole
polynomials (``sort_key``), and the reduction order inside exact
division (a monomial divisor needs one shifting pass, no reduction).
Variable names are not stored per term; they are supplied at formatting
time only.
"""

from __future__ import annotations

import functools
import re
import struct
from collections.abc import Mapping
from itertools import repeat
from math import gcd, prod
from operator import add, mul, sub
from typing import Iterable, Iterator, Optional, Sequence

from .errors import ExactDivisionFailed, ExponentOverflow, InvalidParameter, LimitExceeded
from .quiver import _is_int

Exponents = tuple[int, ...]

FIELD_BITS = 32
_BIAS = 1 << (FIELD_BITS - 1)
_MASK = (1 << FIELD_BITS) - 1
MIN_EXPONENT = -_BIAS
MAX_EXPONENT = _BIAS - 1


class _Layout:
    """How exponent vectors of one arity are packed into ints.

    A field holds its exponent plus the bias ``2**(FIELD_BITS - 1)``, which
    is the exponent's two's complement with the top bit flipped.  So
    flipping the top bit of every field turns a packed monomial into the
    big-endian signed words ``struct`` reads and writes.
    """

    __slots__ = ("arity", "shifts", "zero", "_words", "_width")

    def __init__(self, arity: int):
        self.arity = arity
        self.shifts = tuple(FIELD_BITS * (arity - 1 - i) for i in range(arity))
        self.zero = sum(_BIAS << shift for shift in self.shifts)  # the zero vector
        self._words = struct.Struct(f">{arity}i")
        self._width = self._words.size

    def pack(self, exps: Sequence[int]) -> int:
        try:
            words = self._words.pack(*exps)
        except struct.error:
            raise ExponentOverflow(
                f"{tuple(exps)} is not {self.arity} ints in {MIN_EXPONENT}..{MAX_EXPONENT}"
            ) from None
        return int.from_bytes(words, "big") ^ self.zero

    def unpack(self, key: int) -> Exponents:
        return self._words.unpack((key ^ self.zero).to_bytes(self._width, "big"))


@functools.cache
def _layout(arity: int) -> _Layout:
    return _Layout(arity)


_set = object.__setattr__


class LaurentPoly:
    """Immutable sparse Laurent polynomial with integer coefficients."""

    __slots__ = ("arity", "_layout", "_terms", "_bound", "_key", "_hash")

    def __init__(self, arity: int, terms: Mapping[Exponents, int]):
        if arity < 0:
            raise InvalidParameter("arity must be nonnegative")
        layout = _layout(arity)
        packed = {}
        bound = 0
        for exps, coeff in terms.items():
            if not _is_int(coeff):
                raise InvalidParameter(f"coefficient {coeff!r} is not an int")
            if coeff == 0:
                continue
            exps = tuple(exps)
            if len(exps) != arity:
                raise InvalidParameter(f"exponent vector {exps} does not have arity {arity}")
            packed[layout.pack(exps)] = coeff
            bound = max(bound, max(map(abs, exps), default=0))
        _init(self, layout, packed, bound)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "LaurentPoly":
        return cls(arity, {})

    @classmethod
    def one(cls, arity: int) -> "LaurentPoly":
        return cls(arity, {(0,) * arity: 1})

    @classmethod
    def constant(cls, value: int, arity: int) -> "LaurentPoly":
        return cls(arity, {(0,) * arity: value})

    @classmethod
    def variable(cls, index: int, arity: int) -> "LaurentPoly":
        if not 0 <= index < arity:
            raise InvalidParameter(f"variable index {index} out of range for arity {arity}")
        exps = [0] * arity
        exps[index] = 1
        return cls(arity, {tuple(exps): 1})

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponents, int]:
        """Read-only view of the terms, keyed by exponent tuple."""
        return _TermView(self._layout, self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def min_exponent(self, index: int) -> int:
        """Smallest exponent of variable ``index`` over all terms (poly must be nonzero)."""
        if not self._terms:
            raise InvalidParameter("zero polynomial has no exponents")
        shift = self._layout.shifts[index]
        return min(key >> shift & _MASK for key in self._terms) - _BIAS

    def sort_key(self):
        """Deterministic total-order key: terms sorted lexicographically.

        The key holds packed monomials, whose int order is the
        lexicographic order of their exponent vectors.
        """
        try:
            return self._key
        except AttributeError:
            key = tuple(sorted(self._terms.items()))
            _set(self, "_key", key)
            return key

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> Optional["LaurentPoly"]:
        if isinstance(other, LaurentPoly):
            if other.arity != self.arity:
                raise InvalidParameter(f"arity mismatch: {self.arity} vs {other.arity}")
            return other
        if _is_int(other):
            return LaurentPoly.constant(other, self.arity)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            total = out.get(key, 0) + coeff
            if total:
                out[key] = total
            else:
                out.pop(key, None)
        return _build(self._layout, out, max(self._bound, other._bound))

    __radd__ = __add__

    def __neg__(self):
        return _build(self._layout, {k: -c for k, c in self._terms.items()}, self._bound)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[int, int] = {}
        bound = _mul_into(out, self, other)
        return _build(self._layout, {k: c for k, c in out.items() if c}, bound)

    __rmul__ = __mul__

    def __pow__(self, power: int):
        if power < 0:
            # only monomials with unit coefficient are invertible over Z
            if not self.is_monomial():
                raise InvalidParameter("negative powers require a monomial")
            ((exps, coeff),) = _items(self)
            if coeff not in (1, -1):
                raise InvalidParameter("negative powers require a unit coefficient")
            inv = LaurentPoly(self.arity, {tuple(-e for e in exps): coeff})
            return inv ** (-power)
        if power == 0:
            return LaurentPoly.one(self.arity)
        result = None
        base = self
        while True:
            if power & 1:
                result = base if result is None else result * base
            power >>= 1
            if not power:
                return result
            base = base * base

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.arity == other.arity and self._terms == other._terms

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.arity, self.sort_key()))
            _set(self, "_hash", h)
            return h

    def __lt__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def __le__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.sort_key() <= other.sort_key()

    def __bool__(self):
        return bool(self._terms)

    # -- calculus and normal forms ------------------------------------------

    def derivative(self, index: int) -> "LaurentPoly":
        """Formal partial derivative in variable ``index`` (any integer exponents)."""
        if not 0 <= index < self.arity:
            raise InvalidParameter(f"variable index {index} out of range")
        out: dict[Exponents, int] = {}
        for exps, coeff in _items(self):
            k = exps[index]
            if k == 0:
                continue
            shifted = list(exps)
            shifted[index] = k - 1
            out[tuple(shifted)] = coeff * k
        return LaurentPoly(self.arity, out)

    def reduced_form(self) -> tuple["LaurentPoly", Exponents]:
        """Split into (numerator, denominator exponents).

        The denominator entry for variable i is max(0, -(min exponent of i)),
        so the numerator has nonnegative exponents and self equals
        numerator / prod(x_i ** d_i).
        """
        if not self._terms:
            raise InvalidParameter("zero polynomial has no reduced form")
        denom = tuple(max(0, -self.min_exponent(i)) for i in range(self.arity))
        num = {
            tuple(e + d for e, d in zip(exps, denom)): coeff
            for exps, coeff in _items(self)
        }
        return LaurentPoly(self.arity, num), denom

    def has_positive_coefficients(self) -> bool:
        """True when every stored coefficient is positive (poly must be nonzero).

        Multiplying by a monomial never changes the coefficient multiset, so
        this is also positivity of the reduced numerator.
        """
        if not self._terms:
            raise InvalidParameter("zero polynomial has no coefficient sign")
        return all(c > 0 for c in self._terms.values())

    # -- formatting ----------------------------------------------------------

    def __repr__(self):
        return f"LaurentPoly({format_poly(self)})"

    def __str__(self):
        return format_poly(self)


def _init(poly: LaurentPoly, layout: _Layout, packed: dict[int, int], bound: int) -> None:
    """Fill the slots; ``packed`` holds nonzero coefficients only and
    ``bound`` is at least the largest absolute exponent in it."""
    _set(poly, "arity", layout.arity)
    _set(poly, "_layout", layout)
    _set(poly, "_terms", packed)
    _set(poly, "_bound", bound)


def _build(layout: _Layout, packed: dict[int, int], bound: int) -> LaurentPoly:
    poly = object.__new__(LaurentPoly)
    _init(poly, layout, packed, bound)
    return poly


def _items(a: LaurentPoly) -> Iterator[tuple[Exponents, int]]:
    """(exponent tuple, coefficient) pairs in storage order."""
    unpack = a._layout.unpack
    return ((unpack(key), coeff) for key, coeff in a._terms.items())


def _ranges(a: LaurentPoly) -> list[tuple[int, int]]:
    """Per variable, the smallest and largest exponent from the packed fields (empty for zero)."""
    columns = [[key >> shift & _MASK for key in a._terms] for shift in a._layout.shifts] if a._terms else []
    return [(min(column) - _BIAS, max(column) - _BIAS) for column in columns]


def _mul_into(out: dict[int, int], a: LaurentPoly, b: LaurentPoly) -> int:
    """Add the term-pair products of a and b into ``out`` (zeros kept); return their exponent bound."""
    bound = a._bound + b._bound
    if bound > MAX_EXPONENT:
        bound = _product_bound(a, b)
    # the longer operand in the inner loop, so the outer loop runs least
    outer, inner = a._terms, b._terms
    if len(outer) > len(inner):
        outer, inner = inner, outer
    inner = list(inner.items())
    zero = a._layout.zero
    get = out.get
    for k1, c1 in outer.items():
        k1 -= zero
        for k2, c2 in inner:
            key = k1 + k2
            out[key] = get(key, 0) + c1 * c2
    return bound


def _product_bound(a: LaurentPoly, b: LaurentPoly) -> int:
    """Largest absolute exponent of any term-pair product of ``a`` and ``b``.

    Raises ExponentOverflow when such an exponent leaves the field range, so
    a product never computes a key whose fields would wrap.
    """
    bound = 0
    for (lo_a, hi_a), (lo_b, hi_b) in zip(_ranges(a), _ranges(b)):
        lo, hi = lo_a + lo_b, hi_a + hi_b
        if lo < MIN_EXPONENT or hi > MAX_EXPONENT:
            raise ExponentOverflow(
                f"a product exponent in {lo}..{hi} leaves {MIN_EXPONENT}..{MAX_EXPONENT}"
            )
        bound = max(bound, -lo, hi)
    return bound


def _pivot_lattice(layout: _Layout, groups, spread: int):
    """An echelon basis of the differences within each group of packed keys.

    Returns ``(weights, denom, columns)``: the basis rows r_j, scaled to a
    common pivot entry ``denom`` and zero at every other pivot, as packed
    weights ``K_j = sum(r_j[i] << shifts[i])``; and per group, per pivot
    column p_j, the list of biased fields at p_j.  A point x lies on
    ``x0 + span`` exactly when ``denom * (x - x0) = sum((x - x0)[p_j] * r_j)``,
    which the test checks on packed keys.  The packed form of an integer
    vector whose entries are below ``2**FIELD_BITS`` in absolute value is 0
    only for the zero vector; each entry of that difference is at most
    ``(denom + sum(max|r_j|)) * spread``, with ``spread`` bounding the
    exponent differences.  Returns None when that bound fails, since the
    test could then pass for a point off the lattice; a basis of full rank
    needs no test.

    Elimination is fraction-free, so no rational arithmetic is needed.
    """
    shifts = layout.shifts
    rows: list[list[int]] = []
    pivots: list[int] = []
    denom = 1
    while True:
        weights = [sum(r << shift for r, shift in zip(row, shifts)) for row in rows]
        columns, outside = [], None
        for keys in groups:
            cols = [[key >> shifts[p] & _MASK for key in keys] for p in pivots]
            columns.append(cols)
            if len(rows) == layout.arity:
                continue  # the span is everything
            residue = [denom * key for key in keys] if denom != 1 else keys
            for col, weight in zip(cols, weights):
                residue = list(map(sub, residue, map(mul, col, repeat(weight))))
            if residue.count(residue[0]) != len(residue):
                far = next(i for i, r in enumerate(residue) if r != residue[0])
                outside = list(map(sub, layout.unpack(keys[far]), layout.unpack(keys[0])))
                break
        if outside is None:
            break
        rows, pivots, denom = _extend_basis(rows, pivots, denom, outside)
    if len(rows) < layout.arity and (
        (denom + sum(max(map(abs, row)) for row in rows)) * spread >= 1 << FIELD_BITS
    ):
        return None
    return weights, denom, columns


def _extend_basis(rows, pivots, denom, vector):
    """Add ``vector``, which is outside the span, to a reduced basis.

    Every row of the basis has ``denom`` at its own pivot and 0 at the
    others; the result keeps that form, with the rows and denominator
    divided by their common factor.
    """
    v = [denom * x for x in vector]
    for row, p in zip(rows, pivots):
        if vector[p]:
            v = [x - vector[p] * y for x, y in zip(v, row)]
    pivot = next(i for i, x in enumerate(v) if x)  # v is 0 at the old pivots
    lead = v[pivot]
    rows = [[lead * x - row[pivot] * y for x, y in zip(row, v)] for row in rows]
    rows.append([denom * y for y in v])
    pivots = pivots + [pivot]
    denom *= lead
    common = gcd(denom, *(x for row in rows for x in row))
    if denom < 0:
        common = -common
    return [[x // common for x in row] for row in rows], pivots, denom // common


class _TermView(Mapping):
    """Read-only mapping from exponent tuples to coefficients."""

    __slots__ = ("_layout", "_packed")

    def __init__(self, layout: _Layout, packed: dict[int, int]):
        self._layout = layout
        self._packed = packed

    def __len__(self) -> int:
        return len(self._packed)

    def __iter__(self) -> Iterator[Exponents]:
        return map(self._layout.unpack, self._packed)

    def __getitem__(self, exps) -> int:
        try:
            key = self._layout.pack(exps)
        except ExponentOverflow:  # no term has a key that does not pack
            raise KeyError(exps) from None
        return self._packed[key]


def coordinates(arity: int) -> tuple[LaurentPoly, ...]:
    """The coordinate cluster x_1, ..., x_n."""
    return tuple(LaurentPoly.variable(i, arity) for i in range(arity))


def poly_prod(items: Iterable[LaurentPoly], arity: int) -> LaurentPoly:
    """Product of ``items`` in order, 1 when there are none."""
    total = None
    for item in items:
        total = item if total is None else total * item
    return LaurentPoly.one(arity) if total is None else total


# A support is an int of up to one bit per box slot; 2**28 bits is 32 MiB.
# C(3,3) at K = 3 needs 3.32e8 slots and raises; C(3,3) at K = 4 (8.07e9)
# and C(5,3) at K = 3 (1.61e11) would need 1 to 19 GiB.
SUPPORT_BOX_LIMIT = 1 << 28


class SupportLattice:
    """Supports of products of nonzero factors, as bitsets in one box.

    ``products`` lists the factors of every product that will be formed
    (its partial products included).  One pivot lattice spans the term
    differences of all the factors, and each radix is the widest summed
    pivot range of a product, plus 1, so digits never carry and the pivot
    digits name each product term once.  A support is an int with bit s
    set for each slot s, counted from the product's low corner; the
    support of the empty product is 1.  A box of more than
    SUPPORT_BOX_LIMIT slots raises LimitExceeded.
    """

    __slots__ = ("_factors", "_offsets")

    def __init__(self, products: Sequence[Sequence[LaurentPoly]]):
        # keyed by id: hashing a polynomial sorts its terms
        factors = list({id(f): f for product in products for f in product}.values())
        found = _pivot_lattice(
            factors[0]._layout, [list(f._terms) for f in factors],
            2 * max(f._bound for f in factors),
        )
        if found is None:
            raise ExponentOverflow("exponents too large for an exact support lattice")
        spans = {id(f): [max(col) - min(col) for col in cols] for f, cols in zip(factors, found[2])}
        widths = [map(sum, zip(*(spans[id(f)] for f in product))) for product in products]
        radices = [max(column) + 1 for column in zip(*widths)]
        if prod(radices) > SUPPORT_BOX_LIMIT:
            raise LimitExceeded(f"a support box of {prod(radices):.3g} slots is over {SUPPORT_BOX_LIMIT:.3g}")
        strides = [prod(radices[:j]) for j in range(len(radices))]
        self._factors = factors  # keeps each id in _offsets naming its factor
        self._offsets = {}
        for f, cols in zip(factors, found[2]):
            index = [-sum(min(col) * stride for col, stride in zip(cols, strides))] * len(f._terms)
            for col, stride in zip(cols, strides):
                index = list(map(add, index, map(mul, col, repeat(stride))))
            self._offsets[id(f)] = index

    def plus(self, bits: int, factor: LaurentPoly) -> int:
        """The support of the product with support ``bits`` times ``factor``."""
        out = 0
        for offset in self._offsets[id(factor)]:
            out |= bits << offset
        return out


def try_div_exact(a: LaurentPoly, b: LaurentPoly) -> Optional[LaurentPoly]:
    """Return q with q * b == a over integer coefficients, or None: one
    pass for a monomial b whose exponent bound keeps every field in range,
    the reduction ``_reduce`` for any other b."""
    if a.arity != b.arity:
        raise InvalidParameter("arity mismatch")
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    bound = a._bound + b._bound
    if len(b._terms) > 1 or bound > MAX_EXPONENT:
        return _reduce(a, b)
    ((key_b, coeff_b),) = b._terms.items()
    shift = a._layout.zero - key_b
    quot = {}
    for key, coeff in a._terms.items():
        if coeff % coeff_b:
            return None
        quot[key + shift] = coeff // coeff_b
    return _build(a._layout, quot, bound)


def _reduce(a: LaurentPoly, b: LaurentPoly) -> Optional[LaurentPoly]:
    """try_div_exact of a by a nonzero b, by reduction against the
    lexicographic leading term, on packed keys.

    Minimum and maximum exponents per variable are additive under
    multiplication, so every monomial of a quotient q lies in the box
    [min_a - min_b, max_a - max_b] per variable, and the remainder stays
    inside a's own exponent box.  A nonempty box that leaves the field
    raises ExponentOverflow before any key is formed.  A leading-term
    quotient outside the box proves that no quotient exists; above the
    box's lower corner the remainder lives in a translate of the
    nonnegative orthant, where lexicographic order is a well-order, so the
    reduction terminates.  Each step checks the leading key's fields
    against the box, fails fast on a non-dividing leading coefficient, and
    forms the quotient key as one key difference.
    """
    box = [(lo_a - lo_b, hi_a - hi_b)
           for (lo_a, hi_a), (lo_b, hi_b) in zip(_ranges(a), _ranges(b))]
    if all(lo <= hi for lo, hi in box) and any(lo < MIN_EXPONENT or hi > MAX_EXPONENT for lo, hi in box):
        raise ExponentOverflow(f"the quotient exponents {box} leave {MIN_EXPONENT}..{MAX_EXPONENT}")
    lead_b = max(b._terms)
    lead_b_coeff = b._terms[lead_b]
    # the biased fields of a leading term whose quotient lies in the box
    window = [(shift, lo + (lead_b >> shift & _MASK), hi + (lead_b >> shift & _MASK))
              for shift, (lo, hi) in zip(a._layout.shifts, box)]
    # the leading term cancels itself; the rest of b as offsets from it
    divisor = [(key - lead_b, coeff) for key, coeff in b._terms.items() if key != lead_b]
    offset = a._layout.zero - lead_b

    rem = dict(a._terms)
    quot: dict[int, int] = {}
    while rem:
        lead_r = max(rem)
        coeff_r = rem.pop(lead_r)
        if coeff_r % lead_b_coeff:
            return None
        for shift, lo, hi in window:
            if not lo <= lead_r >> shift & _MASK <= hi:
                return None
        factor = coeff_r // lead_b_coeff
        quot[lead_r + offset] = factor
        for step, coeff in divisor:
            key = lead_r + step
            total = rem.get(key, 0) - factor * coeff
            if total:
                rem[key] = total
            else:
                del rem[key]

    return _build(a._layout, quot, max((max(-lo, hi) for lo, hi in box), default=0))


def div_exact(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact division; raises ExactDivisionFailed when no Laurent quotient exists."""
    quotient = try_div_exact(a, b)
    if quotient is None:
        raise ExactDivisionFailed(f"({format_poly(a)}) is not divisible by ({format_poly(b)})")
    return quotient


def substitute(a: LaurentPoly, images: Sequence[LaurentPoly]) -> Optional[LaurentPoly]:
    """Evaluate ``a`` at the given images of its variables, on packed keys.

    A unit-monomial image +-x^v (the constants +-1 too) is a shift: a term
    with exponent e on its variable moves its key by e * (key(v) - zero)
    and changes sign when the image is -x^v and e is odd.  The terms are
    grouped by their exponents on the other images, and each group is
    multiplied once, into an accumulator, by its product of powers from
    one table.  A group with a negative exponent there is first raised by
    d_j, the largest negative exponent of a on image j, into a second
    accumulator, which one exact division by the product of the
    images_j ** d_j ends.  When a shift might leave the field every image
    is multiplied instead, and the products raise ExponentOverflow.
    Returns None when the result is not a Laurent polynomial in the target
    ring, a meaningful outcome (the value left the Laurent ring), not an
    error.
    """
    if len(images) != a.arity:
        raise InvalidParameter("need one image per variable")
    if a.arity == 0:
        raise InvalidParameter("cannot substitute into an arity-0 polynomial")
    target = images[0].arity
    if any(img.arity != target for img in images):
        raise InvalidParameter("images must share one arity")
    layout = images[0]._layout
    zero = layout.zero
    if not a._terms:
        return _build(layout, {}, 0)

    units = {i: next(iter(image._terms.items())) for i, image in enumerate(images)
             if len(image._terms) == 1 and sum(image._terms.values()) in (1, -1)}
    shifted_bound = a._bound * sum(images[i]._bound for i in units)
    if shifted_bound > MAX_EXPONENT:  # a shift may leave the field; products check their own
        units, shifted_bound = {}, 0
    shifts = a._layout.shifts
    steps = [(shifts[i], key - zero, coeff < 0) for i, (key, coeff) in units.items()]
    general = [(shift, i, max(0, _BIAS - min([key >> shift & _MASK for key in a._terms])))
               for i, shift in enumerate(shifts) if i not in units]

    groups: dict[tuple[int, ...], dict[int, int]] = {}
    for key, coeff in a._terms.items():
        moved = zero
        for shift, step, negative in steps:
            e = (key >> shift & _MASK) - _BIAS
            moved += e * step
            if negative and e & 1:
                coeff = -coeff
        group = groups.setdefault(tuple([key >> shift & _MASK for shift, _, _ in general]), {})
        group[moved] = group.get(moved, 0) + coeff

    powers: dict[tuple[int, int], LaurentPoly] = {}
    one = _build(layout, {zero: 1}, 0)
    sums, bounds = ({}, {}), [0, 0]  # without and with the denominator
    for pattern, group in groups.items():
        raised = any(field < _BIAS for field in pattern)
        factor = one
        for field, (_, i, d) in zip(pattern, general):
            if e := field - _BIAS + (d if raised else 0):
                if (i, e) not in powers:
                    powers[i, e] = images[i] ** e
                factor = powers[i, e] if factor is one else factor * powers[i, e]
        # a group may hold zero sums; they only widen the product's guard
        bounds[raised] = max(bounds[raised], _mul_into(sums[raised], _build(layout, group, shifted_bound), factor))
    whole, fraction = (_build(layout, {k: c for k, c in out.items() if c}, bound) for out, bound in zip(sums, bounds))
    if not sums[1]:
        return whole
    quotient = try_div_exact(fraction, poly_prod((images[i] ** d for _, i, d in general if d), target))
    return quotient if quotient is None or not whole else whole + quotient


def default_names(arity: int, stem: str = "x") -> list[str]:
    return [f"{stem}{i + 1}" for i in range(arity)]


def format_poly(a: LaurentPoly, names: Optional[Sequence[str]] = None) -> str:
    """Human-readable rendering with 1-based default variable names."""
    if names is None:
        names = default_names(a.arity)
    if not a._terms:
        return "0"
    unpack = a._layout.unpack
    pieces = []
    for key, coeff in sorted(a._terms.items(), reverse=True):
        factors = [
            names[i] if e == 1 else f"{names[i]}^{e}"
            for i, e in enumerate(unpack(key))
            if e != 0
        ]
        if not factors:
            body = str(abs(coeff))
        else:
            magnitude = "" if abs(coeff) == 1 else f"{abs(coeff)}*"
            body = magnitude + "*".join(factors)
        sign = "-" if coeff < 0 else "+"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


def poly_to_json(a: LaurentPoly) -> dict:
    """JSON form with lexicographically sorted terms and string coefficients."""
    unpack = a._layout.unpack
    return {
        "arity": a.arity,
        "terms": [
            {"e": list(unpack(key)), "c": str(coeff)}
            for key, coeff in sorted(a._terms.items())
        ],
    }


_DECIMAL = re.compile("-?[0-9]+")  # the coefficient strings poly_to_json writes


def poly_from_json(data: Mapping) -> LaurentPoly:
    """Inverse of poly_to_json.  Exponents and the arity must be ints and a
    coefficient an int or its string in ASCII digits, -?[0-9]+; anything
    else, a repeated exponent vector included, is an InvalidParameter,
    never rounded or reread ("+3", " 7", "1_000" and non-ASCII digits,
    which int() reads, included)."""
    try:
        arity = data["arity"]
        items = [(item["e"], item["c"]) for item in data["terms"]]
    except (KeyError, TypeError) as error:
        raise InvalidParameter(
            f'{data!r}: a polynomial is {{"arity", "terms": [{{"e", "c"}}, ...]}}'
        ) from error
    if not _is_int(arity) or arity < 0:
        raise InvalidParameter(f"arity {arity!r} is not a nonnegative int")
    terms = {}
    for exps, coeff in items:
        if not (isinstance(exps, list) and len(exps) == arity and all(map(_is_int, exps))):
            raise InvalidParameter(f"exponent vector {exps!r} is not {arity} ints")
        if isinstance(coeff, str):
            if not _DECIMAL.fullmatch(coeff):
                raise InvalidParameter(f"coefficient {coeff!r} is not an int in ASCII digits")
            try:
                coeff = int(coeff)
            except ValueError:  # more digits than int() converts
                raise InvalidParameter(f"a coefficient of {len(coeff)} digits is too long") from None
        if tuple(exps) in terms:
            raise InvalidParameter(f"exponent vector {exps} appears twice")
        terms[tuple(exps)] = coeff
    return LaurentPoly(arity, terms)
