from fractions import Fraction

import pytest

from compsuper.fields import (
    GF,
    QQ,
    DivisionByZero,
    FieldError,
    InfiniteField,
    field_from_string,
)

FINITE = [GF(2), GF(3), GF(4), GF(9), GF(8), GF(16), GF(25), GF(27)]


def test_mod3_addition():
    F = GF(3)
    assert F.add(2, 2) == 1


def test_gf4_defining_relation():
    F = GF(4)
    x = F.parse_elt("x")
    assert F.mul(x, x) == F.parse_elt("x+1")


def test_gf9_inverse_of_x_by_exhaustion():
    F = GF(9)
    x = F.parse_elt("x")
    # independent oracle: scan all nine elements for the inverse
    hits = [y for y in F.elements() if F.mul(x, y) == F.one]
    assert hits == [F.parse_elt("2x")]
    assert F.inv(x) == F.parse_elt("2x")


@pytest.mark.parametrize("F", FINITE, ids=lambda f: f.name)
def test_field_axioms_exhaustive(F):
    elts = list(F.elements())
    assert len(elts) == F.order
    for a in elts:
        for b in elts:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in elts:
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    # nonzero elements form a group under multiplication
    nz = [a for a in elts if a != F.zero]
    for a in nz:
        assert F.mul(a, F.inv(a)) == F.one
        assert sorted(F.mul(a, b) for b in nz) == sorted(nz)


def test_elements_counts():
    assert list(GF(2).elements()) == [0, 1]
    for q in (3, 4, 7, 9):
        assert len(set(GF(q).elements())) == q
    with pytest.raises(InfiniteField):
        QQ.elements()


def test_primitive_cube_root_raw():
    assert GF(4).primitive_cube_root_raw() == GF(4).parse_elt("x")
    assert GF(7).primitive_cube_root_raw() == 2 and pow(2, 3, 7) == 1
    for F in (GF(2), GF(3), GF(9), GF(8), GF(27), QQ):
        assert F.primitive_cube_root_raw() is None
    assert GF(16).primitive_cube_root_raw() is not None


@pytest.mark.parametrize("q", [4, 7, 13])
def test_cube_root_satisfies_quadratic(q):
    F = GF(q)
    w = F.primitive_cube_root_raw()
    if F.char == 3:
        assert w is None
    elif w is not None:
        assert F.add(F.add(F.mul(w, w), w), F.one) == F.zero


def test_inverse_of_zero_raises():
    F = GF(3)
    assert F.add(2, 2) == 1 and F.mul(2, 2) == 1 and F.neg(2) == 1 and F.inv(2) == 2
    with pytest.raises(DivisionByZero):
        F.inv(0)
    with pytest.raises(DivisionByZero):
        QQ.inv(Fraction(0))


@pytest.mark.parametrize("F", [GF(2), GF(3), GF(4), GF(9), QQ], ids=lambda f: f.name)
def test_parse_elt_accepts_only_strings_and_ints(F):
    assert F.parse_elt("1") == F.one and F.parse_elt(1) == F.one
    assert F.parse_elt(-1) == F.parse_elt("-1") == F.neg(F.one)
    assert F.parse_elt(0) == F.zero
    for bad in ([1], ["1"], {"1": 1}, None, 1.5, 1.0, True, False, Fraction(1)):
        with pytest.raises(FieldError):
            F.parse_elt(bad)
    for bad in ("", "one", "1.5.2", "1/0", "1_0", "\u0661", "\uff11", " 1", "1\n", "1.5", "1e3"):
        with pytest.raises(FieldError):
            F.parse_elt(bad)


def test_parse_elt_spellings():
    """The spellings the generator, signs and fractions allow still parse:
    an integer, or in GF(p^k) signed terms [digits]x^e in strictly falling
    degree, with "x" for x^1 and 2 <= e < k, where "x1", "x++1" and
    "x+-1" are refused; the generator is refused in a prime field."""
    F3, F9 = GF(3), GF(9)
    assert F3.parse_elt("+2") == F3.parse_elt("-1") == F3.parse_elt("02") == 2
    assert QQ.parse_elt("-1/2") == Fraction(-1, 2) and QQ.parse_elt("+3/6") == Fraction(1, 2)
    x = F9.parse_elt("x")
    assert F9.parse_elt("2x+1") == F9.add(F9.mul(F9.from_int(2), x), F9.one)
    assert F9.parse_elt("x-1") == F9.sub(x, F9.one)
    two_x = F9.mul(F9.from_int(2), x)
    assert F9.parse_elt("-x") == two_x and F9.parse_elt("+x") == x
    assert F9.parse_elt("-x-1") == F9.add(two_x, F9.from_int(2))
    for F in (GF(2), F3, QQ):
        with pytest.raises(FieldError):
            F.parse_elt("x")
    for bad in ("2x + 1", "1_0x", "x+\u0661", "x1", "x++1", "x+-1", "--x", "x+", "2+x", "x^2"):
        with pytest.raises(FieldError):
            F9.parse_elt(bad)
    F27 = GF(27)
    x2 = F27.mul(F27.parse_elt("x"), F27.parse_elt("x"))
    assert F27.parse_elt("x^2+x+1") == F27.add(x2, F27.parse_elt("x+1"))
    assert F27.parse_elt("-x^2+1") == F27.sub(F27.one, x2)
    for bad in ("x^3", "x+x^2", "x^2+-1", "x^", "x^1"):
        with pytest.raises(FieldError):
            F27.parse_elt(bad)


def test_rational_field():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    assert QQ.char == 0 and QQ.order is None


def test_field_from_string_and_fmt():
    for name in ("Q", "GF(2)", "GF(3)", "GF(4)", "GF(9)", "GF(13)", "GF(1000003)",
                 "GF(2147483647)"):
        assert field_from_string(name).name == name
    for F in (GF(9), GF(8), GF(27)):
        for a in F.elements():
            assert F.parse_elt(F.fmt(a)) == a
    assert [GF(4).fmt(a) for a in GF(4).elements()] == ["0", "1", "x", "x+1"]
    assert [GF(9).fmt(a) for a in GF(9).elements()] == [
        "0", "1", "2", "x", "x+1", "x+2", "2x", "2x+1", "2x+2"]
    assert GF(8).fmt(7) == "x^2+x+1"


@pytest.mark.parametrize("name", [
    "GF(2147483648)", "GF(1000000000000000003)", "GF(1_1)", "GF(\u0663)", "GF( 3)", "GF(+3)",
], ids=["order-2**31", "huge-prime", "underscore", "arabic-indic-digit", "inner-space", "plus"])
def test_field_names_need_ascii_digits_and_an_order_below_2_31(name):
    """The order is refused before the primality test, whose trial division
    would take 10**9 steps on the huge prime; below 2**31 it takes at most
    46,341 steps."""
    with pytest.raises(FieldError):
        field_from_string(name)


@pytest.mark.parametrize("q", [0, 1, 6, 12, 512])
def test_orders_that_are_no_prime_power_or_too_large_for_tables_are_refused(q):
    """GF(q) needs q = p^k, and q <= MAX_TABLE_ORDER when k >= 2."""
    with pytest.raises(FieldError):
        GF(q)


def test_characteristic_reported():
    assert GF(2).char == 2 and GF(4).char == 2
    assert GF(3).char == 3 and GF(9).char == 9 // 3


@pytest.mark.parametrize("F, modulus", [
    (GF(4), [1, 1]), (GF(9), [1, 0]), (GF(25), [2, 0]),
    (GF(8), [1, 1, 0]), (GF(27), [1, 2, 0]), (GF(16), [1, 1, 0, 0]),
], ids=["GF(4)", "GF(9)", "GF(25)", "GF(8)", "GF(27)", "GF(16)"])
def test_modulus_is_the_first_without_a_root(F, modulus):
    """x^k = -(c_0 + c_1 x + ... + c_{k-1} x^(k-1)) in GF(p^k).  The
    modulus has no root in GF(p), which in degree 2 and 3 makes it
    irreducible, while every monic polynomial of degree k with a smaller
    code c_0 + c_1 p + ... has one; the exhaustive axioms above show that
    each modulus gives a field."""
    p, k = F.char, len(modulus)
    x, xk = F.parse_elt("x"), F.one
    for _ in range(k):
        xk = F.mul(xk, x)
    assert [F.neg(xk) // p**i % p for i in range(k)] == modulus

    def has_root(c):
        return any((t**k + sum(ci * t**i for i, ci in enumerate(c))) % p == 0 for t in range(p))

    code = sum(c * p**i for i, c in enumerate(modulus))
    assert not has_root(modulus)
    assert all(has_root([c // p**i % p for i in range(k)]) for c in range(code))


def _kernel_oracle(F, triples):
    """Each row kernel against the scalar loop on the (c, a, b) triples,
    one kernel call per c over all of its (a, b); the kernels take
    tuples and return lists."""
    by_c = {}
    for c, a, b in triples:
        by_c.setdefault(c, []).append((a, b))
    for c, pairs in by_c.items():
        v, w = tuple(a for a, _ in pairs), tuple(b for _, b in pairs)
        assert F.sub_scaled(v, c, w) == [F.sub(a, F.mul(c, b)) for a, b in pairs]
        assert F.add_scaled(v, c, w) == [F.add(a, F.mul(c, b)) for a, b in pairs]
        assert F.scaled(c, w) == [F.mul(c, b) for b in w]
        assert F.sub_scaled((), c, ()) == F.add_scaled((), c, ()) == F.scaled(c, ()) == []


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 16])
def test_row_kernels_match_the_scalar_loop_on_every_triple(q):
    F = GF(q)
    elts = list(F.elements())
    _kernel_oracle(F, [(c, a, b) for c in elts for a in elts for b in elts])


@pytest.mark.parametrize("F", [GF(256), GF(1000003), QQ], ids=lambda f: f.name)
def test_row_kernels_match_the_scalar_loop_on_sampled_triples(F):
    import random

    rng = random.Random(26)
    if F.order is None:
        def draw():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    else:
        def draw():
            return rng.randrange(F.order)
    # every c also meets the zero and one of both sides
    cs = [F.zero, F.one] + [draw() for _ in range(40)]
    _kernel_oracle(F, [(c, a, b) for c in cs
                       for a, b in [(F.zero, F.one), (F.one, F.zero)]
                       + [(draw(), draw()) for _ in range(50)]])
