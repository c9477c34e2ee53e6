"""Unit tests for secp256k1 group arithmetic."""

import pytest

from repro.crypto import secp256k1
from repro.crypto.secp256k1 import (
    GENERATOR,
    INFINITY,
    N,
    P,
    Point,
    generator_multiply,
    is_on_curve,
    lift_x,
    point_add,
    point_multiply,
    point_negate,
    shamir_multiply,
)


def test_generator_is_on_curve():
    assert is_on_curve(GENERATOR.x, GENERATOR.y)


def test_known_generator_multiple_2():
    # 2*G from the SEC2 test vectors.
    doubled = point_multiply(GENERATOR, 2)
    assert doubled.x == 0xC6047F9441ED7D6D3045406E95C07CD85C778E4B8CEF3CA7ABAC09B95C709EE5
    assert doubled.y == 0x1AE168FEA63DC339A3C58419466CEAEEF7F632653266D0E1236431A950CFE52A


def test_known_generator_multiple_7():
    point = point_multiply(GENERATOR, 7)
    assert point.x == 0x5CBDF0646E5DB4EAA398F365F2EA7A0E3D419B7E0330E39CE92BDDEDCAC4F9BC


def test_point_at_infinity_identity():
    assert point_add(GENERATOR, INFINITY) == GENERATOR
    assert point_add(INFINITY, GENERATOR) == GENERATOR


def test_adding_inverse_gives_infinity():
    assert point_add(GENERATOR, point_negate(GENERATOR)).is_infinity()


def test_scalar_multiply_by_group_order_is_infinity():
    assert point_multiply(GENERATOR, N).is_infinity()


def test_scalar_multiply_matches_repeated_addition():
    accumulated = INFINITY
    for _ in range(5):
        accumulated = point_add(accumulated, GENERATOR)
    assert accumulated == point_multiply(GENERATOR, 5)


def test_generator_table_matches_generic_multiplication():
    scalar = 0xDEADBEEFCAFEBABE1234567890ABCDEF
    via_table = generator_multiply(scalar)
    via_generic = secp256k1._from_jacobian(
        secp256k1._jacobian_multiply(secp256k1._to_jacobian(GENERATOR), scalar)
    )
    assert via_table == via_generic


def test_scalar_multiplication_distributes_over_addition():
    a, b = 1234567, 7654321
    lhs = point_multiply(GENERATOR, a + b)
    rhs = point_add(point_multiply(GENERATOR, a), point_multiply(GENERATOR, b))
    assert lhs == rhs


def test_shamir_multiply_matches_separate_computation():
    p = point_multiply(GENERATOR, 987654321)
    combined = shamir_multiply(111, 222, p)
    expected = point_add(generator_multiply(111), point_multiply(p, 222))
    assert combined == expected


def test_lift_x_recovers_both_parities():
    even = lift_x(GENERATOR.x, is_odd=bool(GENERATOR.y & 1))
    assert even == GENERATOR
    other = lift_x(GENERATOR.x, is_odd=not bool(GENERATOR.y & 1))
    assert other == point_negate(GENERATOR)


def test_lift_x_rejects_non_residue():
    # x = 5 is not the abscissa of any secp256k1 point.
    with pytest.raises(ValueError):
        lift_x(5, is_odd=False)


def test_point_constructor_rejects_off_curve_points():
    with pytest.raises(ValueError):
        Point(1, 1)


def test_point_constructor_rejects_unreduced_coordinates_and_half_identities():
    """One point, one encoding: ``x + P`` satisfies the curve equation mod P
    but would be another key with another address."""
    from repro.crypto.keys import PublicKey

    point = lift_x(1, False)  # x = 1 is an abscissa
    assert Point(point.x, point.y) == point
    for x, y in ((point.x + P, point.y), (point.x, point.y + P), (-P + 1, point.y)):
        with pytest.raises(ValueError):
            Point(x, y)
    with pytest.raises(ValueError):
        PublicKey.from_bytes((1 + P).to_bytes(32, "big") + point.y.to_bytes(32, "big"))
    assert PublicKey.from_bytes(PublicKey(point).to_bytes()).address() == PublicKey(point).address()
    for x, y in ((None, 5), (GENERATOR.x, None)):
        with pytest.raises(ValueError):
            Point(x, y)
    assert Point(None, None) == INFINITY


def test_field_and_order_are_prime_sized():
    assert P.bit_length() == 256
    assert N.bit_length() == 256
    assert P != N
