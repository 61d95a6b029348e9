import functools
import itertools
import random

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from clusterlab import laurent
from clusterlab.errors import (
    ClusterLabError,
    ExactDivisionFailed,
    ExponentOverflow,
    InvalidParameter,
    LimitExceeded,
)
from clusterlab.laurent import (
    MAX_EXPONENT,
    MIN_EXPONENT,
    LaurentPoly,
    coordinates,
    div_exact,
    format_poly,
    poly_from_json,
    poly_to_json,
    substitute,
    try_div_exact,
)


def poly(arity, terms):
    return LaurentPoly(arity, terms)


@pytest.fixture
def xy():
    return coordinates(2)


class TestAdd:
    def test_coefficient_addition(self, xy):
        x1, _ = xy
        assert x1 + x1 == poly(2, {(1, 0): 2})

    def test_additive_identity(self, xy):
        x1, x2 = xy
        p = x1 * x2 + 3
        assert p + LaurentPoly.zero(2) == p

    def test_cancellation_removes_term(self, xy):
        x1, x2 = xy
        assert (x1 - x2) + x2 == x1

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            LaurentPoly.one(2) + LaurentPoly.one(3)


class TestCoefficientType:
    @pytest.mark.parametrize("coeff", [0.5, 2.0, 0.0, True, False, "1", None])
    def test_constructor_rejects_non_int_coefficients(self, coeff):
        # checked before zeros are pruned, so 0.0 and False are rejected too
        with pytest.raises(InvalidParameter):
            LaurentPoly(1, {(0,): coeff})

    @pytest.mark.parametrize("value", [2.5, 1.0, True])
    def test_constant_rejects_non_int_values(self, value):
        with pytest.raises(InvalidParameter):
            LaurentPoly.constant(value, 1)

    def test_bool_operand_is_not_a_constant(self, xy):
        x1, _ = xy
        with pytest.raises(TypeError):
            x1 + True
        with pytest.raises(TypeError):
            True * x1


_X2 = coordinates(2)


@pytest.mark.parametrize("call,message", [
    (lambda: LaurentPoly(-1, {}), "arity must be nonnegative"),
    (lambda: LaurentPoly(2, {(1,): 1}), "does not have arity 2"),
    (lambda: LaurentPoly.variable(2, 2), "out of range for arity 2"),
    (lambda: LaurentPoly.zero(2).min_exponent(0), "no exponents"),
    (lambda: _X2[0] * LaurentPoly.one(3), "arity mismatch"),
    (lambda: (_X2[0] + 1) ** -1, "require a monomial"),
    (lambda: (2 * _X2[0]) ** -1, "require a unit coefficient"),
    (lambda: _X2[0].derivative(2), "out of range"),
    (lambda: LaurentPoly.zero(2).reduced_form(), "no reduced form"),
    (lambda: LaurentPoly.zero(2).has_positive_coefficients(), "no coefficient sign"),
    (lambda: try_div_exact(_X2[0], LaurentPoly.one(3)), "arity mismatch"),
    (lambda: substitute(_X2[0], _X2[:1]), "one image per variable"),
    (lambda: substitute(LaurentPoly.one(0), []), "arity-0"),
    (lambda: substitute(_X2[0], [_X2[0], LaurentPoly.one(3)]), "share one arity"),
])
def test_bad_arguments_raise_invalid_parameter(call, message):
    # a typed rejection, still a ValueError for callers that catch that
    with pytest.raises(InvalidParameter, match=message):
        call()


class TestMul:
    def test_inverse_monomial(self, xy):
        x1, _ = xy
        assert x1 * poly(2, {(-1, 0): 1}) == LaurentPoly.one(2)

    def test_monomial_distribution(self, xy):
        x1, x2 = xy
        got = (x2 * x2 + 1) * poly(2, {(-1, 0): 1})
        assert got == poly(2, {(-1, 2): 1, (-1, 0): 1})

    def test_binomial_expansion(self, xy):
        x1, x2 = xy
        assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2


class TestDivExact:
    def test_difference_of_squares(self, xy):
        x1, x2 = xy
        assert try_div_exact(x1 * x1 - x2 * x2, x1 - x2) == x1 + x2

    def test_monomial_division_shifts_exponents(self, xy):
        x1, x2 = xy
        got = try_div_exact(x2 * x2 + 1, x1)
        assert got == poly(2, {(-1, 2): 1, (-1, 0): 1})

    def test_no_common_factor(self, xy):
        x1, x2 = xy
        assert try_div_exact(x1 + 1, x2 + 1) is None

    def test_zero_divisor_rejected(self, xy):
        x1, _ = xy
        with pytest.raises(ZeroDivisionError):
            try_div_exact(x1, LaurentPoly.zero(2))

    def test_div_exact_raises(self, xy):
        x1, x2 = xy
        with pytest.raises(ExactDivisionFailed):
            div_exact(x1 + 1, x2 + 1)

    def test_integer_coefficient_obstruction(self, xy):
        x1, _ = xy
        assert try_div_exact(x1 + 1, LaurentPoly.constant(2, 2)) is None


class TestReducedForm:
    def test_single_negative_exponent(self, xy):
        x1, x2 = xy
        value = (x2 * x2 + 1) * poly(2, {(-1, 0): 1})
        numerator, denom = value.reduced_form()
        assert numerator == x2 * x2 + 1
        assert denom == (1, 0)

    def test_already_polynomial(self, xy):
        x1, x2 = xy
        numerator, denom = (x1 * x2).reduced_form()
        assert numerator == x1 * x2
        assert denom == (0, 0)

    def test_shift_by_min_exponents(self, xy):
        x1, x2 = xy
        value = poly(2, {(-2, 1): 1, (-1, 0): 1})
        numerator, denom = value.reduced_form()
        assert numerator == x2 + x1
        assert denom == (2, 0)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            LaurentPoly.zero(2).reduced_form()


class TestPositivity:
    def test_positive(self, xy):
        x1, x2 = xy
        value = try_div_exact(x2 * x2 + 1, x1)
        assert value.has_positive_coefficients()

    def test_negative_coefficient(self, xy):
        x1, x2 = xy
        value = try_div_exact(x1 - x2, x1)
        assert not value.has_positive_coefficients()

    def test_constant(self):
        assert LaurentPoly.one(3).has_positive_coefficients()


class TestDerivative:
    def test_square(self, xy):
        x1, _ = xy
        assert (x1 * x1).derivative(0) == 2 * x1

    def test_negative_exponent(self, xy):
        assert poly(2, {(-1, 0): 1}).derivative(0) == poly(2, {(-2, 0): -1})

    def test_no_dependence(self, xy):
        _, x2 = xy
        assert (x2 * x2 + 1).derivative(0) == LaurentPoly.zero(2)

    def test_index_range(self, xy):
        with pytest.raises(ValueError):
            xy[0].derivative(5)


small_polys = st.builds(
    lambda pairs: LaurentPoly(2, dict(pairs)),
    st.lists(
        st.tuples(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
            st.integers(-5, 5),
        ),
        max_size=4,
    ),
)

small_monomials = st.builds(
    lambda e1, e2: LaurentPoly(2, {(e1, e2): 1}),
    st.integers(-3, 3),
    st.integers(-3, 3),
)


class TestProperties:
    @given(small_polys, small_polys)
    def test_add_commutes(self, a, b):
        assert a + b == b + a

    @given(small_polys, small_polys)
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=50)
    def test_mul_associates(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(small_polys, small_monomials)
    def test_division_roundtrip(self, a, m):
        assert try_div_exact(a * m, m) == a

    @given(small_polys)
    def test_reduced_form_roundtrip(self, a):
        if a.is_zero():
            return
        numerator, denom = a.reduced_form()
        monomial = LaurentPoly(2, {tuple(-d for d in denom): 1})
        assert numerator * monomial == a
        for i in range(2):
            assert denom[i] == max(0, -a.min_exponent(i))

    @given(small_polys, small_polys)
    @settings(max_examples=50)
    def test_leibniz_rule(self, a, b):
        for i in range(2):
            lhs = (a * b).derivative(i)
            rhs = a.derivative(i) * b + a * b.derivative(i)
            assert lhs == rhs

    @given(small_polys, small_polys)
    def test_exact_division_is_conclusive(self, a, b):
        if b.is_zero():
            return
        quotient = try_div_exact(a, b)
        if quotient is not None:
            assert quotient * b == a


class TestSerialization:
    def test_roundtrip(self, xy):
        x1, x2 = xy
        value = 3 * x1 * x1 - x2 + poly(2, {(-2, 5): 12345678901234567890})
        assert poly_from_json(poly_to_json(value)) == value

    @pytest.mark.parametrize("data", [
        {"arity": 2, "terms": [{"e": [1.9, 0], "c": "1"}]},
        {"arity": 2, "terms": [{"e": [1, 0], "c": "x"}]},
        {"arity": 2, "terms": [{"e": [1, 0], "c": 1.5}]},
        {"arity": 2, "terms": [{"e": [1, 0], "c": True}]},
        {"arity": 2, "terms": [{"e": [1], "c": "1"}]},
        {"arity": 2, "terms": [{"e": [1, 0], "c": "1"}, {"e": [1, 0], "c": "2"}]},
        {"arity": 2.0, "terms": []},
        {"arity": 2, "terms": [{"e": [1, 0]}]},
        [1, 2],
        # int() reads each of these coefficient strings; only the form
        # poly_to_json writes, -?[0-9]+, is read
        *({"arity": 1, "terms": [{"e": [1], "c": text}]}
          for text in ("1_000", " 7 ", "+3", "\u0663", "7\n", "-\uff12")),
    ])
    def test_malformed_json_is_rejected(self, data):
        # never truncated, rounded or merged into some other polynomial
        with pytest.raises(InvalidParameter):
            poly_from_json(data)

    def test_terms_sorted_and_stringly(self, xy):
        x1, x2 = xy
        data = poly_to_json(x2 + x1)
        assert data["terms"] == [{"e": [0, 1], "c": "1"}, {"e": [1, 0], "c": "1"}]

    def test_format(self, xy):
        x1, x2 = xy
        assert format_poly(x1 * x1 - 2 * x2) == "x1^2 - 2*x2"


class TestSubstitute:
    def test_coordinates_are_identity(self, xy):
        x1, x2 = xy
        value = x1 * x1 - x2 + 7
        assert substitute(value, [x1, x2]) == value

    def test_negative_exponents_divide_out(self, xy):
        x1, x2 = xy
        value = try_div_exact(x2 * x2 + 1, x1)
        swapped = substitute(value, [x2, x1])
        assert swapped == try_div_exact(x1 * x1 + 1, x2)

    def test_non_laurent_image_is_none(self, xy):
        x1, x2 = xy
        value = try_div_exact(LaurentPoly.one(2), x1)  # 1/x1
        assert substitute(value, [x1 + 1, x2]) is None


class TestOrdering:
    def test_sort_is_deterministic(self, xy):
        x1, x2 = xy
        values = [x2, x1, x1 + x2, LaurentPoly.one(2)]
        assert sorted(values) == sorted(reversed(values))

    def test_negative_power_of_monomial(self, xy):
        x1, _ = xy
        assert x1 ** -2 == poly(2, {(-2, 0): 1})
        with pytest.raises(ValueError):
            (x1 + 1) ** -1


# -- differential tests against sympy ----------------------------------------

SYMBOLS = sympy.symbols("x1:5")

arities = st.integers(1, 4)
small_exponents = st.integers(-3, 3)
# the ends of a field, their neighbours, and the middle
edge_exponents = st.sampled_from(
    [MIN_EXPONENT, MIN_EXPONENT + 1, -1, 0, 1, MAX_EXPONENT - 1, MAX_EXPONENT]
)


def polys(arity, exponents=small_exponents, max_size=4, min_size=0):
    return st.dictionaries(
        st.tuples(*[exponents] * arity), st.integers(-5, 5), min_size=min_size, max_size=max_size
    ).map(lambda terms: LaurentPoly(arity, terms))


def to_sympy(a):
    xs = SYMBOLS[: a.arity]
    return sympy.Add(
        *(c * sympy.Mul(*(x**e for x, e in zip(xs, exps))) for exps, c in a.terms.items())
    )


def expanded(expr, arity):
    """A sum of Laurent monomials read back as a LaurentPoly (any exponents)."""
    terms = {}
    for monomial, coeff in sympy.expand(expr).as_coefficients_dict().items():
        powers = monomial.as_powers_dict()
        exps = tuple(int(powers.get(x, 0)) for x in SYMBOLS[:arity])
        terms[exps] = terms.get(exps, 0) + int(coeff)
    return LaurentPoly(arity, terms)


def laurent_or_none(expr, arity):
    """expr as a Laurent polynomial over Z, or None when it is not one.

    Goes through dense sympy polynomials, so only for small exponents.
    """
    xs = SYMBOLS[:arity]
    numerator, denominator = sympy.fraction(sympy.together(expr))
    if numerator == 0:
        return LaurentPoly.zero(arity)
    unit, num, den = sympy.Poly(numerator, *xs).cancel(sympy.Poly(denominator, *xs), include=False)
    if len(den.terms()) != 1:
        return None
    ((shift, den_coeff),) = den.terms()
    terms = {}
    for exps, c in num.terms():
        coeff = unit * c / den_coeff
        if not coeff.is_integer:
            return None
        terms[tuple(e - s for e, s in zip(exps, shift))] = int(coeff)
    return LaurentPoly(arity, terms)


def product_leaves_field(a, b):
    return any(
        not MIN_EXPONENT <= e + f <= MAX_EXPONENT
        for ea in a.terms
        for eb in b.terms
        for e, f in zip(ea, eb)
    )


class TestAgainstSympy:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_mul(self, data):
        n = data.draw(arities)
        a, b = data.draw(polys(n)), data.draw(polys(n))
        assert a * b == expanded(to_sympy(a) * to_sympy(b), n)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_mul_at_field_edges(self, data):
        n = data.draw(arities)
        a, b = data.draw(polys(n, edge_exponents, 3)), data.draw(polys(n, edge_exponents, 3))
        if product_leaves_field(a, b):
            with pytest.raises(ExponentOverflow):
                a * b
        else:
            assert a * b == expanded(to_sympy(a) * to_sympy(b), n)

    @given(st.data(), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_pow(self, data, power):
        n = data.draw(arities)
        a = data.draw(polys(n, max_size=3))
        assert a**power == expanded(to_sympy(a) ** power, n)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_division_with_quotient(self, data):
        n = data.draw(arities)
        q, b = data.draw(polys(n, max_size=3)), data.draw(polys(n, max_size=3, min_size=1))
        assume(not b.is_zero())
        a = q * b
        assert try_div_exact(a, b) == q
        assert laurent_or_none(to_sympy(a) / to_sympy(b), n) == q

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_division_agrees_on_existence(self, data):
        n = data.draw(arities)
        a, b = data.draw(polys(n)), data.draw(polys(n, max_size=3, min_size=1))
        assume(not b.is_zero())
        assert try_div_exact(a, b) == laurent_or_none(to_sympy(a) / to_sympy(b), n)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_substitute(self, data):
        n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        a = data.draw(polys(n, st.integers(-2, 2), 3))
        images = [data.draw(polys(m, st.integers(-1, 2), 2, min_size=1)) for _ in range(n)]
        assume(all(image for image in images))
        value = to_sympy(a).xreplace(dict(zip(SYMBOLS, map(to_sympy, images))))
        assert substitute(a, images) == laurent_or_none(value, m)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_term_order_is_lexicographic(self, data):
        n = data.draw(arities)
        exponents = st.one_of(small_exponents, edge_exponents)
        values = data.draw(st.lists(polys(n, exponents, 5), max_size=6))
        for a in values:
            assert [tuple(t["e"]) for t in poly_to_json(a)["terms"]] == sorted(a.terms)
        by_tuples = sorted(values, key=lambda a: sorted(a.terms.items()))
        assert sorted(values) == by_tuples


class TestMonomialDivision:
    """The one-pass division by a monomial, pinned to the general reduction
    and to sympy on seeded random inputs."""

    @staticmethod
    def _random_poly(rng, n, size):
        return LaurentPoly(n, {
            tuple(rng.randint(-3, 3) for _ in range(n)): rng.randint(-6, 6) for _ in range(size)
        })

    def test_matches_the_reduction_and_sympy(self):
        rng = random.Random(21)
        divided = refused = 0
        for _ in range(200):
            n = rng.randint(1, 4)
            b = LaurentPoly(n, {tuple(rng.randint(-3, 3) for _ in range(n)): rng.choice((-3, -2, -1, 1, 2, 3))})
            for a in (self._random_poly(rng, n, rng.randint(0, 5)) * b, self._random_poly(rng, n, 4)):
                got = try_div_exact(a, b)
                assert got == laurent._reduce(a, b)
                assert got == laurent_or_none(to_sympy(a) / to_sympy(b), n)
                divided += got is not None
                refused += got is None
        assert divided > 200 and refused > 50

    def test_a_coefficient_that_does_not_divide(self, xy):
        x1, x2 = xy
        a, b = 4 * x1 * x2 + 3 * x2, LaurentPoly(2, {(1, 0): 2})
        assert try_div_exact(a, b) is None
        assert laurent._reduce(a, b) is None
        assert try_div_exact(4 * x1 * x2 + 6 * x2, b) == 2 * x2 + 3 * x1**-1 * x2

    def test_a_zero_dividend(self):
        b = LaurentPoly(3, {(2, -1, 0): -3})
        assert try_div_exact(LaurentPoly.zero(3), b) == LaurentPoly.zero(3)

    @pytest.mark.parametrize("a_exp,b_exp", [
        (MIN_EXPONENT, 1), (MAX_EXPONENT, -1), (MIN_EXPONENT + 1, 1), (MAX_EXPONENT - 1, -1),
        (MAX_EXPONENT, 1), (MIN_EXPONENT, -1), (MAX_EXPONENT, MAX_EXPONENT), (-MAX_EXPONENT, -MAX_EXPONENT),
    ])
    def test_at_the_field_limit_as_the_reduction(self, a_exp, b_exp):
        # the quotient exponent a_exp - b_exp raises ExponentOverflow exactly
        # when it leaves the field, on both paths
        a = LaurentPoly(2, {(a_exp, 0): 3, (0, 1): 6})
        b = LaurentPoly(2, {(b_exp, 0): 3})
        if MIN_EXPONENT <= a_exp - b_exp <= MAX_EXPONENT:
            want = LaurentPoly(2, {(a_exp - b_exp, 0): 1, (-b_exp, 1): 2})
            assert try_div_exact(a, b) == laurent._reduce(a, b) == want
        else:
            for divide in (try_div_exact, laurent._reduce):
                with pytest.raises(ExponentOverflow):
                    divide(a, b)


class TestExponentOverflow:
    def test_is_a_package_error(self):
        assert issubclass(ExponentOverflow, ClusterLabError)

    def test_constructor_rejects_out_of_range(self):
        with pytest.raises(ExponentOverflow):
            LaurentPoly(2, {(MAX_EXPONENT + 1, 0): 1})
        with pytest.raises(ExponentOverflow):
            LaurentPoly(2, {(0, MIN_EXPONENT - 1): 1})

    def test_product_raises_instead_of_wrapping(self):
        # x2^MAX * x2 would carry into x1's field and read as x1 * x2^MIN
        x1, x2 = coordinates(2)
        top = LaurentPoly(2, {(0, MAX_EXPONENT): 1})
        with pytest.raises(ExponentOverflow):
            top * x2
        bottom = LaurentPoly(2, {(0, MIN_EXPONENT): 1})
        with pytest.raises(ExponentOverflow):
            bottom * x2**-1
        with pytest.raises(ExponentOverflow):
            (top + x1) ** 2

    def test_loose_bound_falls_back_to_exact_ranges(self):
        # the bound |e| sum exceeds the field, the exact exponents do not
        top = LaurentPoly(1, {(MAX_EXPONENT,): 1})
        assert top * top**-1 == LaurentPoly.one(1)
        assert (top * top**-1) * top == top

    def test_quotient_outside_field_raises(self):
        top = LaurentPoly(1, {(MAX_EXPONENT,): 1})
        bottom = LaurentPoly(1, {(-MAX_EXPONENT,): 1})
        with pytest.raises(ExponentOverflow):
            try_div_exact(top, bottom)

    def test_field_edges_raise_before_packing(self):
        # 70 x 70 terms, one at the top of x1's field: the product leaves it
        top = {(MAX_EXPONENT, 0): 1, **{(0, e): 1 for e in range(69)}}
        a = LaurentPoly(2, top)
        b = LaurentPoly(2, {(1, e): 1 for e in range(70)})
        with pytest.raises(ExponentOverflow):
            a * b

    def test_field_edges_that_fit_are_exact(self):
        # both supports lie on a line at opposite ends of the field; the
        # term pairs with line parameters summing to s meet in one term
        a = LaurentPoly(2, {(MAX_EXPONENT - 1 - e, e): 1 for e in range(70)})
        b = LaurentPoly(2, {(-e, MIN_EXPONENT + 70 + e): 2 for e in range(70)})
        got = a * b
        assert got == LaurentPoly(2, {
            (MAX_EXPONENT - 1 - s, MIN_EXPONENT + 70 + s): 2 * (min(s, 138 - s) + 1)
            for s in range(139)
        })


# -- support bitsets against the sets of exponent sums -------------------------


def on_lattice(rng, basis, offset, count):
    """A polynomial with ``count`` terms at offset + sum(c_j * basis_j), 0 <= c_j < 12."""
    terms = {}
    while len(terms) < count:
        steps = [rng.randrange(12) for _ in basis]
        exps = tuple(
            o + sum(c * vector[i] for c, vector in zip(steps, basis)) for i, o in enumerate(offset)
        )
        terms[exps] = rng.randrange(-9, 10) or 1
    return LaurentPoly(len(offset), terms)


def sums(factors):
    """The support of the product of nonzero positive factors: every sum of
    one exponent vector per factor."""
    choices = itertools.product(*(f.terms for f in factors))
    return {tuple(map(sum, zip(*choice))) for choice in choices}


def support_counts(products):
    """Each product's term count read off one SupportLattice, one factor at
    a time."""
    lattice = laurent.SupportLattice(products)
    return [functools.reduce(lattice.plus, product, 1).bit_count() for product in products]


class TestSupportLattice:
    def test_common_denominator_above_one(self):
        # the differences span (2, 1, 0) and (0, 2, 1); their reduced echelon
        # rows (4, 0, -1) and (0, 4, 2) share the pivot entry 4
        rng = random.Random(4)
        basis = [(2, 1, 0), (0, 2, 1)]
        a = on_lattice(rng, basis, (1, -1, 0), 70)
        b = on_lattice(rng, basis, (0, 3, -2), 70)
        groups = (list(a._terms), list(b._terms))
        _, denom, _ = laurent._pivot_lattice(a._layout, groups, 2 * max(a._bound, b._bound))
        assert denom > 1
        products = [[a], [a, b], [a, b, a]]
        assert support_counts(products) == [len(sums(p)) for p in products]

    def test_radices_come_from_the_widest_product(self):
        # the earlier product is wider in both pivots than the last one,
        # whose ranges alone would let the first one's digits carry
        square = LaurentPoly(2, {(i, j): 1 for i in range(3) for j in range(3)})
        wide = LaurentPoly(2, {**{(i, 0): 1 for i in range(10)}, **{(0, j): 1 for j in range(10)}})
        narrow = LaurentPoly(2, {(i, j): 1 for i in range(2) for j in range(2)})
        products = [[square, wide], [square, narrow]]
        assert support_counts(products) == [len(sums(p)) for p in products] == [63, 16]

    def test_an_untrusted_lattice_raises(self):
        # exponents this large make the packed lattice test inexact
        a = LaurentPoly(2, {(MAX_EXPONENT - 1 - e, e): 1 for e in range(70)})
        b = LaurentPoly(2, {(-e, MIN_EXPONENT + 70 + e): 2 for e in range(70)})
        with pytest.raises(ExponentOverflow):
            laurent.SupportLattice([[a, b]])

    def test_a_box_over_the_limit_raises(self):
        # a staircase of n consecutive exponents on each of three axes spans
        # n pivot steps per axis, so a product of k of them has a box of
        # (k * (n - 1) + 1) ** 3 slots
        n = 400
        wide = LaurentPoly(3, {tuple(e if j == axis else 0 for j in range(3)): 1
                               for axis in range(3) for e in range(n)})
        assert n ** 3 < laurent.SUPPORT_BOX_LIMIT < (2 * n - 1) ** 3
        assert support_counts([[wide]]) == [3 * (n - 1) + 1]
        with pytest.raises(LimitExceeded):
            laurent.SupportLattice([[wide], [wide, wide]])

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_counts_match_the_exponent_sums(self, data):
        n = data.draw(arities)
        rank = data.draw(st.integers(0, n))
        basis = [data.draw(st.tuples(*[st.integers(-2, 2)] * n)) for _ in range(rank)]

        def factor():
            steps = st.tuples(*[st.integers(0, 3)] * rank)
            picked = data.draw(st.lists(steps, min_size=1, max_size=6, unique=True))
            offset = data.draw(st.tuples(*[small_exponents] * n))
            coeff = data.draw(st.integers(1, 5))
            points = (
                tuple(o + sum(k * v[i] for k, v in zip(c, basis)) for i, o in enumerate(offset))
                for c in picked
            )
            return LaurentPoly(n, dict.fromkeys(points, coeff))

        chain = [factor() for _ in range(data.draw(st.integers(1, 4)))]
        # every prefix of the chain, and the chain with a last factor swapped
        products = [chain[:j] for j in range(1, len(chain) + 1)]
        products.append(chain[:-1] + [factor()])
        assert support_counts(products) == [len(sums(p)) for p in products]
