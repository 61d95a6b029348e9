import collections
import functools
import itertools
import random

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from clusterlab import laurent, verify
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
from clusterlab.verify import report_unistructurality


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
        assert laurent._reduce(LaurentPoly.zero(3), b) == LaurentPoly.zero(3)
        assert laurent._reduce(LaurentPoly.zero(3), b + 1) == LaurentPoly.zero(3)

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


# -- the packed kernels against the tuple-based ones they replaced -------------


def _substitute_by_terms(a, images):
    """substitute as it was before it ran on packed keys: the numerator of
    a's reduced form evaluated term by term, every power multiplied in
    separately and the terms summed one by one, then one exact division by
    the images of the monomial denominator."""
    target = images[0].arity
    if a.is_zero():
        return LaurentPoly.zero(target)
    numerator, denom = a.reduced_form()
    power = functools.cache(lambda i, k: images[i] ** k)
    value = LaurentPoly.zero(target)
    for exps, coeff in numerator.terms.items():
        term = LaurentPoly.constant(coeff, target)
        for i, e in enumerate(exps):
            if e:
                term = term * power(i, e)
        value = value + term
    divisor = LaurentPoly.one(target)
    for i, d in enumerate(denom):
        if d:
            divisor = divisor * power(i, d)
    if divisor == LaurentPoly.one(target):
        return value
    return _reduce_by_unpacking(value, divisor)


def _reduce_by_unpacking(a, b):
    """_reduce as it was before it ran on packed keys: each leading key
    unpacked into an exponent tuple, checked against the quotient box, and
    the quotient key packed from the difference of tuples."""
    layout = a._layout

    def ranges(p):
        return [(min(column), max(column)) for column in zip(*map(layout.unpack, p._terms))]

    box = [(lo_a - lo_b, hi_a - hi_b) for (lo_a, hi_a), (lo_b, hi_b) in zip(ranges(a), ranges(b))]
    lead_b = max(b._terms)
    lead_b_exps = layout.unpack(lead_b)
    rem = dict(a._terms)
    quot = {}
    while rem:
        lead_r = max(rem)
        diff = [e - f for e, f in zip(layout.unpack(lead_r), lead_b_exps)]
        if any(not lo <= d <= hi for d, (lo, hi) in zip(diff, box)):
            return None
        if rem[lead_r] % b._terms[lead_b]:
            return None
        factor = rem[lead_r] // b._terms[lead_b]
        shift = layout.pack(diff)
        quot[shift] = factor
        for key, coeff in b._terms.items():
            target = shift - layout.zero + key
            total = rem.get(target, 0) - factor * coeff
            if total:
                rem[target] = total
            else:
                rem.pop(target, None)
    return LaurentPoly(a.arity, {layout.unpack(key): coeff for key, coeff in quot.items()})


def _outcome(function, *args):
    """The value of ``function(*args)``, or the class of the package error it raises."""
    try:
        return function(*args)
    except ClusterLabError as error:
        return type(error)


def _random_exponents(rng, n, low=-2, high=2):
    return tuple(rng.randint(low, high) for _ in range(n))


def _random_image(rng, m):
    """A unit monomial +-x^v, a constant +-1, a non-unit monomial such as
    2*x1, or a polynomial of two or three terms, in m variables."""
    kind = rng.randrange(5)
    if kind == 0:
        return LaurentPoly(m, {_random_exponents(rng, m): rng.choice((1, -1))})
    if kind == 1:
        return LaurentPoly.constant(rng.choice((1, -1)), m)
    if kind == 2:
        return LaurentPoly(m, {_random_exponents(rng, m): rng.choice((2, -2, 3))})
    terms = {_random_exponents(rng, m): rng.choice((-2, -1, 1, 2)) for _ in range(rng.randint(2, 3))}
    return LaurentPoly(m, terms)


def _sympy_substitute(a, images):
    value = to_sympy(a).xreplace(dict(zip(SYMBOLS, map(to_sympy, images))))
    return laurent_or_none(value, images[0].arity)


class TestPackedKernels:
    """substitute and _reduce on packed keys, pinned to the term-by-term
    substitution and the unpacking reduction they replaced, and to sympy,
    on seeded inputs."""

    def test_substitute_matches_the_term_by_term_oracle(self):
        rng = random.Random(101)
        seen = collections.Counter()
        for case in range(400):
            n, m = rng.randint(1, 3), rng.randint(0, 3)
            terms = {_random_exponents(rng, n): rng.randint(-4, 4) for _ in range(rng.randint(0, 4))}
            a, images = LaurentPoly(n, terms), [_random_image(rng, m) for _ in range(n)]
            got = substitute(a, images)
            assert got == _substitute_by_terms(a, images)
            if m and case % 4 == 0:
                assert got == _sympy_substitute(a, images)
            seen["not Laurent" if got is None else "Laurent"] += 1
            seen["zero dividend"] += a.is_zero()
            seen["arity 0 images"] += m == 0
            for exps in a.terms:
                for e, image in zip(exps, images):
                    unit = image.is_monomial() and set(image.terms.values()) <= {1, -1}
                    seen["odd power of a unit"] += unit and e % 2 == 1
                    seen["negative power of a non-monomial"] += e < 0 and len(image.terms) > 1
        assert min(seen.values()) > 10, seen

    @pytest.mark.parametrize("a, images", [
        # odd and even powers of -x^v, a zero exponent
        ({(3, -1): 1, (2, 0): 2, (0, 1): -1}, [{(1, -1): -1}, {(0, 2): -1}]),
        # the constants -1 and 1 next to a polynomial image
        ({(3, 1): 1, (1, 0): 1, (0, 0): -1}, [{(0, 0): -1}, {(1, 0): 1, (0, 1): 1}]),
        ({(2, -1): 5}, [{(0, 0): 1}, {(0, 0): -1}]),
        # a non-unit monomial image takes the general path
        ({(2, 1): 3, (-1, 1): 4}, [{(1, 0): 2}, {(0, 1): 1}]),
        ({(-1, 0): 1}, [{(1, 0): 2}, {(0, 1): 1}]),
        # negative exponents on a polynomial image divide out
        ({(-2, 2): 1, (-2, 1): 2, (-2, 0): 1, (1, 1): 1}, [{(0, 1): 1, (0, 0): 1}, {(0, 1): 1}]),
        ({(-1, 2): 1, (-1, 0): 1}, [{(-1, 2): 1, (-1, 0): 1}, {(0, 1): 1}]),
        # not Laurent: 1 / (y1 + 1) and (y2^2 + 1) / (y1 + y2)
        ({(-1, 0): 1}, [{(1, 0): 1, (0, 0): 1}, {(0, 1): 1}]),
        ({(-1, 2): 1, (-1, 0): 1}, [{(1, 0): 1, (0, 1): 1}, {(0, 1): 1}]),
        # a zero dividend
        ({}, [{(1, 0): 1, (0, 1): 1}, {(0, 1): -1}]),
    ])
    def test_named_cases(self, a, images):
        a, images = LaurentPoly(2, a), [LaurentPoly(2, image) for image in images]
        got = substitute(a, images)
        assert got == _substitute_by_terms(a, images) == _sympy_substitute(a, images)

    def test_images_of_arity_zero(self):
        a = LaurentPoly(2, {(2, 0): 1, (-1, 1): -3, (0, 0): 2})
        constants = [LaurentPoly.constant(c, 0) for c in (-1, 1)]
        assert substitute(a, constants) == _substitute_by_terms(a, constants) == LaurentPoly.constant(6, 0)
        halves = [LaurentPoly.constant(c, 0) for c in (2, 1)]
        assert substitute(a, halves) is _substitute_by_terms(a, halves) is None  # 4 - 3/2 + 2

    @pytest.mark.parametrize("p,q,depth", [(3, 1, 4), (2, 1, 2)])
    def test_the_unistructurality_substitutions(self, monkeypatch, p, q, depth):
        seen = []

        def recording(variable, images):
            seen.append((variable, list(images)))
            return substitute(variable, images)

        monkeypatch.setattr(verify, "substitute", recording)
        assert report_unistructurality(p, q, depth).passed
        assert seen
        for variable, images in seen:
            assert substitute(variable, images) == _substitute_by_terms(variable, images)

    def test_reduce_matches_the_unpacking_oracle(self):
        rng = random.Random(103)
        seen = collections.Counter()
        for _ in range(300):
            n = rng.randint(0, 4)
            b = LaurentPoly(n, {_random_exponents(rng, n, -3, 3): rng.choice((-3, -1, 1, 2)) for _ in range(3)})
            q = LaurentPoly(n, {_random_exponents(rng, n, -3, 3): rng.randint(-6, 6) for _ in range(4)})
            noise = LaurentPoly(n, {_random_exponents(rng, n, -3, 3): rng.randint(-6, 6) for _ in range(5)})
            for a in (q * b, noise, q * b + noise, LaurentPoly.zero(n)):
                want = _reduce_by_unpacking(a, b)
                assert laurent._reduce(a, b) == want
                assert try_div_exact(a, b) == want
                seen["divided" if want is not None else "refused"] += 1
        assert seen["divided"] > 300 and seen["refused"] > 200, seen

    def test_reduce_at_field_edges_as_the_oracle(self):
        # divisors whose reduction takes few steps: a monomial, or two terms
        # with a quotient or a leading coefficient that does not divide.
        # The packed reduction checks the whole quotient box before its
        # first step, so where no quotient exists it may raise
        # ExponentOverflow where the unpacking one returned None
        rng = random.Random(107)
        edges = [MIN_EXPONENT, MIN_EXPONENT + 1, -1, 0, 1, MAX_EXPONENT - 1, MAX_EXPONENT]
        seen = collections.Counter()
        for _ in range(300):
            n = rng.randint(1, 2)
            q = LaurentPoly(n, {tuple(rng.choice(edges) for _ in range(n)): rng.choice((-2, 1, 3)) for _ in range(2)})
            monomial = LaurentPoly(n, {tuple(rng.choice(edges) for _ in range(n)): rng.choice((-1, 2))})
            binomial = LaurentPoly(n, {_random_exponents(rng, n, -1, 1): rng.choice((-2, 2, 3)) for _ in range(2)})
            cases = [(q + LaurentPoly.one(n), monomial)]
            product = _outcome(q.__mul__, binomial)
            if isinstance(product, LaurentPoly):
                lead = max(product.terms)
                cases += [(product, binomial), (product + LaurentPoly(n, {lead: 1}), binomial)]
            for a, b in cases:
                want, got = _outcome(_reduce_by_unpacking, a, b), _outcome(laurent._reduce, a, b)
                if want is None:
                    assert got in (None, ExponentOverflow)
                else:
                    assert got == want
                seen["divided" if isinstance(want, LaurentPoly) else want] += 1
        assert min(seen.values()) > 10, seen


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

    @pytest.mark.parametrize("edge", [MAX_EXPONENT, MIN_EXPONENT])
    def test_substitution_raises_instead_of_wrapping(self, edge):
        (x1,) = coordinates(1)
        for evaluate in (substitute, _substitute_by_terms):
            with pytest.raises(ExponentOverflow):
                evaluate(x1**2, [x1**edge])

    def test_substitution_at_the_field_edge_is_exact(self):
        # the bound of the shifts leaves the field, the shifted exponents do not
        x1, x2 = coordinates(2)
        (y,) = coordinates(1)
        a = x1**MAX_EXPONENT * x2**-1
        want = LaurentPoly(1, {(MAX_EXPONENT - 1,): 1})
        assert substitute(a, [y, y]) == _substitute_by_terms(a, [y, y]) == want
        assert substitute(a, [y, -y]) == -want

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
