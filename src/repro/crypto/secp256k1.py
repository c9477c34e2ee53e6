"""secp256k1 elliptic-curve group arithmetic.

Ethereum signatures (and therefore SMACS tokens) live on the secp256k1 curve

    y^2 = x^3 + 7  over  F_p,  p = 2^256 - 2^32 - 977

Every fast scalar multiplication here is a *sum of affine table points*, each
filed at the height (the number of doublings) it still needs, built from four
pieces:

* **one recoder** per kind of base.  ``k * G`` is at most 33 points of a
  fixed-base signed-window table, all at height 0
  (:func:`_generator_window_points`).  ``k * Q`` is GLV-split, each half
  wNAF-recoded, and every nonzero digit filed at its height under the base of
  Q's split-exponent table it belongs to (:func:`_digit_events` against
  :func:`prepare_point`: one base for a point seen once, built on the spot;
  four bases for a key known to come back, so its digits need 32 doublings
  instead of 128);
* **one ladder**, :func:`_ladder`: one doubling a height, one mixed addition a
  point.  ``u1*G + u2*Q`` -- verification, recovery, the known-key check --
  is G's window points plus Q's digit events in one call
  (:func:`shamir_multiply`), ``k * G`` is the window points alone
  (:func:`generator_multiply`) and ``k * P`` is Q's events alone;
* **the affine tree** for a block of ``k * G``: the same window points added
  affine as balanced trees in lockstep, one shared field inversion per tree
  level (:func:`generator_multiply_batch`: 6 field multiplications an
  addition instead of 11), plus the Montgomery batch inversion both it and
  the table builders use; and
* **the oracle**: the naive double-and-add :func:`_jacobian_multiply`
  (:func:`point_multiply_reference`), kept deliberately simple so the
  differential tests can check every fast-path result against it.

Intermediate points produced by the fast path skip the curve-membership check
in ``Point.__post_init__`` (group operations are closed, so re-validating
every intermediate result is pure overhead); validation still happens at the
trust boundaries -- ``Point(...)`` called with external coordinates,
:func:`lift_x`, and public-key deserialisation.
"""

from __future__ import annotations

from dataclasses import dataclass

# Curve parameters (SEC 2, secp256k1).
P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
A = 0
B = 7
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8


@dataclass(frozen=True)
class Point:
    """An affine point on secp256k1.  ``Point(None, None)`` is the identity.

    Constructing a ``Point`` directly validates it -- both coordinates
    reduced (``0 <= x, y < P``, so a point has one encoding) and on the
    curve, or exactly ``(None, None)`` -- this is the trust boundary for
    coordinates arriving from outside (deserialised public keys, test
    vectors).  Internal arithmetic uses :func:`_point_unchecked`, which skips
    the check: the group operations are closed and reduce modulo P, so
    results of curve math are valid by construction.
    """

    x: int | None
    y: int | None

    def is_infinity(self) -> bool:
        return self.x is None

    def __post_init__(self) -> None:
        if self.x is None and self.y is None:
            return
        if self.x is None or not is_on_curve(self.x, self.y):
            raise ValueError("point is not on secp256k1")


def _point_unchecked(x: int, y: int) -> Point:
    """Build a ``Point`` without the curve-membership check.

    Only for coordinates produced by the group operations themselves; any
    externally supplied coordinates must go through ``Point(...)``.
    """
    point = object.__new__(Point)
    object.__setattr__(point, "x", x)
    object.__setattr__(point, "y", y)
    return point


def is_on_curve(x: int, y: int | None) -> bool:
    """Return True iff (x, y) are reduced field elements satisfying the
    secp256k1 curve equation."""
    if y is None or not (0 <= x < P and 0 <= y < P):
        return False
    return (y * y - x * x * x - B) % P == 0


INFINITY = Point(None, None)
GENERATOR = Point(GX, GY)


def _inv(value: int, modulus: int) -> int:
    """Modular inverse; relies on Python's built-in extended-gcd pow."""
    return pow(value, -1, modulus)


def batch_inverse(values: list[int], modulus: int = P) -> list[int]:
    """Montgomery's trick: invert ``n`` field elements with one ``pow``.

    Builds the running product, inverts it once, then peels the individual
    inverses off with two multiplications each -- ``3(n-1)`` multiplications
    plus a single modular inversion instead of ``n`` inversions.  All values
    must be nonzero modulo ``modulus``.
    """
    if not values:
        return []
    prefix = []
    acc = 1
    for value in values:
        prefix.append(acc)
        acc = acc * value % modulus
    inv = pow(acc, -1, modulus)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = prefix[i] * inv % modulus
        inv = inv * values[i] % modulus
    return out


# --- Jacobian coordinate arithmetic ---------------------------------------
#
# A Jacobian point (X, Y, Z) represents the affine point (X/Z^2, Y/Z^3).
# The identity is represented as (1, 1, 0).

_J_INFINITY = (1, 1, 0)


def _to_jacobian(point: Point) -> tuple[int, int, int]:
    if point.is_infinity():
        return _J_INFINITY
    return (point.x, point.y, 1)


def _from_jacobian(jac: tuple[int, int, int]) -> Point:
    x, y, z = jac
    if z == 0:
        return INFINITY
    z_inv = _inv(z, P)
    z_inv_sq = z_inv * z_inv % P
    return _point_unchecked(x * z_inv_sq % P, y * z_inv_sq * z_inv % P)


def _from_jacobian_checked(jac: tuple[int, int, int]) -> Point:
    """Affine conversion through the validating constructor.

    Used by the reference path so its cost profile matches the seed
    implementation (which validated every affine result).
    """
    x, y, z = jac
    if z == 0:
        return INFINITY
    z_inv = _inv(z, P)
    z_inv_sq = z_inv * z_inv % P
    return Point(x * z_inv_sq % P, y * z_inv_sq * z_inv % P)


def jacobian_to_affine_batch(jacs: list[tuple[int, int, int]]) -> list[Point]:
    """Convert many Jacobian points to affine sharing one field inversion.

    The per-point cost drops from one modular inversion (hundreds of
    multiplications via extended gcd) to three multiplications.
    """
    z_values = [z for _, _, z in jacs if z != 0]
    inverses = iter(batch_inverse(z_values, P))
    points = []
    for x, y, z in jacs:
        if z == 0:
            points.append(INFINITY)
            continue
        z_inv = next(inverses)
        z_inv_sq = z_inv * z_inv % P
        points.append(_point_unchecked(x * z_inv_sq % P, y * z_inv_sq * z_inv % P))
    return points


def _jacobian_double(jac: tuple[int, int, int]) -> tuple[int, int, int]:
    x, y, z = jac
    if z == 0 or y == 0:
        return _J_INFINITY
    ysq = y * y % P
    s = 4 * x * ysq % P
    m = 3 * x * x % P  # a == 0 so no a*z^4 term
    nx = (m * m - 2 * s) % P
    ny = (m * (s - nx) - 8 * ysq * ysq) % P
    nz = 2 * y * z % P
    return (nx, ny, nz)


def _jacobian_add(
    p: tuple[int, int, int], q: tuple[int, int, int]
) -> tuple[int, int, int]:
    if p[2] == 0:
        return q
    if q[2] == 0:
        return p
    x1, y1, z1 = p
    x2, y2, z2 = q
    z1sq = z1 * z1 % P
    z2sq = z2 * z2 % P
    u1 = x1 * z2sq % P
    u2 = x2 * z1sq % P
    s1 = y1 * z2sq * z2 % P
    s2 = y2 * z1sq * z1 % P
    if u1 == u2:
        if s1 != s2:
            return _J_INFINITY
        return _jacobian_double(p)
    h = (u2 - u1) % P
    r = (s2 - s1) % P
    hsq = h * h % P
    hcu = hsq * h % P
    u1hsq = u1 * hsq % P
    nx = (r * r - hcu - 2 * u1hsq) % P
    ny = (r * (u1hsq - nx) - s1 * hcu) % P
    nz = h * z1 * z2 % P
    return (nx, ny, nz)


def _jacobian_multiply(
    jac: tuple[int, int, int], scalar: int
) -> tuple[int, int, int]:
    """Naive double-and-add scalar multiplication (right-to-left).

    This is the oracle: the ladder below is checked against it by the
    differential test suite.
    """
    scalar %= N
    result = _J_INFINITY
    addend = jac
    while scalar:
        if scalar & 1:
            result = _jacobian_add(result, addend)
        addend = _jacobian_double(addend)
        scalar >>= 1
    return result


def _jacobian_add_mixed(
    p: tuple[int, int, int], q: tuple[int, int]
) -> tuple[int, int, int]:
    """Add an affine point (implicit z = 1) to a Jacobian point.

    With ``z2 == 1`` the ``z2^2``/``z2^3`` scalings of the general formula
    vanish: 11 field multiplications instead of 16.  Every table is affine
    (normalised once, or once per build), so every addition of the ladder
    takes this cheaper path.
    """
    if p[2] == 0:
        return (q[0], q[1], 1)
    x1, y1, z1 = p
    x2, y2 = q
    z1sq = z1 * z1 % P
    u2 = x2 * z1sq % P
    s2 = y2 * z1sq * z1 % P
    if u2 == x1:
        if s2 != y1:
            return _J_INFINITY
        return _jacobian_double(p)
    h = (u2 - x1) % P
    r = (s2 - y1) % P
    hsq = h * h % P
    hcu = hsq * h % P
    u1hsq = x1 * hsq % P
    nx = (r * r - hcu - 2 * u1hsq) % P
    ny = (r * (u1hsq - nx) - y1 * hcu) % P
    nz = h * z1 % P
    return (nx, ny, nz)


# --- One recoder, one ladder ------------------------------------------------
#
# Width-w non-adjacent form rewrites a scalar as a sequence of digits that
# are either zero or odd with |digit| < 2^(w-1); at most one digit in any w
# consecutive positions is nonzero, so an n-bit scalar costs n doublings but
# only ~n/(w+1) additions.  Negative digits are free on an elliptic curve
# (negate the y coordinate), which is where wNAF beats a plain window.  A
# digit d at position i is the table point |d| * B (y flipped when d < 0)
# still owing i doublings; the ladder pays those doublings once for all
# points at the same height.

_WNAF_WIDTH = 5  # 8 odd multiples per table base


def _wnaf(scalar: int, width: int) -> list[int]:
    """Width-``width`` NAF digits of ``scalar``, least significant first.

    Exploits the NAF structure instead of walking bit by bit: emitting the
    centred digit ``d = scalar mod 2^width`` makes the next ``width - 1``
    digits zero by construction (``scalar - d`` is divisible by
    ``2^width``), and runs of zero bits are skipped in one shift.
    """
    digits: list[int] = []
    power = 1 << width
    half = power >> 1
    mask = power - 1
    pad = [0] * (width - 1)
    while scalar:
        if scalar & 1:
            digit = scalar & mask
            if digit >= half:
                digit -= power
            digits.append(digit)
            digits.extend(pad)
            scalar = (scalar - digit) >> width
        else:
            run = (scalar & -scalar).bit_length() - 1
            digits.extend([0] * run)
            scalar >>= run
    while digits and digits[-1] == 0:
        digits.pop()
    return digits


def _build_odd_multiples(
    jac: tuple[int, int, int], count: int
) -> list[tuple[int, int, int]]:
    """``[1P, 3P, 5P, ..., (2*count-1)P]`` in Jacobian coordinates."""
    table = [jac]
    twice = _jacobian_double(jac)
    for _ in range(count - 1):
        table.append(_jacobian_add(table[-1], twice))
    return table


def _ladder(events: list[list[tuple[int, int]]]) -> tuple[int, int, int]:
    """The sum of ``2^h * p`` over every affine point ``p`` in ``events[h]``.

    Top height first: one doubling a height, shared by every point, and one
    mixed addition a point (exceptional pairs included).  ``[points]`` --
    height 0 alone -- is a plain sum that doubles nothing but the identity.
    """
    double, add_mixed = _jacobian_double, _jacobian_add_mixed
    result = _J_INFINITY
    for points in reversed(events):
        result = double(result)
        for point in points:
            result = add_mixed(result, point)
    return result


# --- The GLV endomorphism ---------------------------------------------------
#
# secp256k1 has an efficiently computable endomorphism phi(x, y) = (beta*x, y)
# with phi(Q) = lambda*Q, where lambda^3 = 1 (mod N) and beta^3 = 1 (mod P).
# Splitting a 256-bit scalar k into k1 + k2*lambda with |k1|, |k2| ~ 2^128
# halves the doublings of a scalar multiplication: the two halves ride one
# ladder against a table and its lambda-image.

LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE


def _glv_basis() -> tuple[int, int, int, int, int]:
    """Short lattice basis for {(a, b) : a + b*lambda = 0 (mod N)}.

    Partial extended Euclid on (N, lambda) down to remainders ~ sqrt(N)
    (Guide to ECC, Alg. 3.74); returns (a1, b1, a2, b2, det) with det > 0.
    """
    import math

    sqrt_n = math.isqrt(N)
    rows = [(N, 0), (LAMBDA, 1)]
    while rows[-1][0] >= sqrt_n:
        (r0, t0), (r1, t1) = rows[-2], rows[-1]
        q = r0 // r1
        rows.append((r0 - q * r1, t0 - q * t1))
    (rm, tm), (rm1, tm1) = rows[-2], rows[-1]
    q = rm // rm1
    rm2, tm2 = rm - q * rm1, tm - q * tm1
    a1, b1 = rm1, -tm1
    if rm * rm + tm * tm <= rm2 * rm2 + tm2 * tm2:
        a2, b2 = rm, -tm
    else:
        a2, b2 = rm2, -tm2
    det = a1 * b2 - a2 * b1
    if det < 0:
        a2, b2, det = -a2, -b2, -det
    return a1, b1, a2, b2, det


_GLV_A1, _GLV_B1, _GLV_A2, _GLV_B2, _GLV_DET = _glv_basis()


def _glv_split(scalar: int) -> tuple[int, int]:
    """Split ``scalar`` into (k1, k2) with k1 + k2*lambda = scalar (mod N).

    Both halves are ~128 bits (possibly negative); negation is free on the
    curve, so the recoder flips the table's y coordinates instead.
    """
    c1 = (2 * _GLV_B2 * scalar + _GLV_DET) // (2 * _GLV_DET)
    c2 = (-2 * _GLV_B1 * scalar + _GLV_DET) // (2 * _GLV_DET)
    k1 = scalar - c1 * _GLV_A1 - c2 * _GLV_A2
    k2 = -c1 * _GLV_B1 - c2 * _GLV_B2
    return k1, k2


def apply_endomorphism(table: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Map an affine odd-multiples table of P to the table of lambda*P."""
    return [(BETA * x % P, y) for x, y in table]


# --- Fixed-base precomputation for the generator ---------------------------
#
# Signing computes k * G for a fresh k on every token issuance.  The scalar
# is recoded into signed base-256 digits d_i in [-127, 128] (a digit above 128
# borrows 256 from the next window), and row i of the table holds
# j * 256^i * G for j = 1..128, so k * G is at most 33 points -- 32 windows
# plus the carry out of the top one -- all at height 0: no doublings at all;
# negative digits flip y, which is free.  The 33 x 128 entries are normalised
# to affine once at import, sharing one Montgomery batch inversion.  The
# G-half of every ``u1*G + u2*Q`` is these points too: at most 33 additions
# against ~28 for a GLV-split wNAF of G, but no recoding or split to pay.

_WINDOW_ROWS = 33  # 32 byte windows of a 256-bit scalar + the final carry
_WINDOW_HALF = 128


def _build_generator_windows() -> list[list[tuple[int, int]]]:
    """``j * 256^i * G`` for every row ``i`` and ``j = 1..128``, affine."""
    flat: list[tuple[int, int, int]] = []
    base = (GX, GY)
    for _ in range(_WINDOW_ROWS):
        entry = (base[0], base[1], 1)
        flat.append(entry)
        for _ in range(_WINDOW_HALF - 1):
            entry = _jacobian_add_mixed(entry, base)
            flat.append(entry)
        # 256 * base = 2 * (128 * base); affine, so the next row's 127
        # additions are mixed ones too (one inversion a row, 33 in all).
        next_base = _from_jacobian(_jacobian_double(entry))
        base = (next_base.x, next_base.y)
    affine = [(p.x, p.y) for p in jacobian_to_affine_batch(flat)]
    return [affine[row:row + _WINDOW_HALF] for row in range(0, len(affine), _WINDOW_HALF)]


_G_WINDOWS = _build_generator_windows()

# The (lambda, beta) pairing must match -- lambda*G == (beta*Gx, Gy) -- or the
# GLV split would multiply the wrong point.  Checked once at import.
_lambda_g = _from_jacobian(
    _jacobian_multiply((GX, GY, 1), LAMBDA)
)
assert (_lambda_g.x, _lambda_g.y) == (
    BETA * GX % P,
    GY,
), "GLV endomorphism constants are inconsistent"
del _lambda_g


def _generator_window_points(scalar: int) -> list[tuple[int, int]]:
    """The table points whose sum is ``scalar * G``: one per nonzero digit.

    Signed base-256 recoding against ``_G_WINDOWS`` -- at most 33 points (32
    windows and the carry row), none for a scalar that is 0 modulo N.
    """
    scalar %= N
    points = []
    for row in _G_WINDOWS:
        digit = scalar & 0xFF
        scalar >>= 8
        if digit > _WINDOW_HALF:
            # 256 - digit of this window is subtracted, 256 carried upwards.
            x, y = row[255 - digit]
            points.append((x, P - y))
            scalar += 1
        elif digit:
            points.append(row[digit - 1])
    return points


def generator_multiply(scalar: int) -> Point:
    """``scalar * G``: the window table's points, summed by :func:`_ladder`.

    The path of a lone ``k * G`` (``sign``, key derivation); a block of them
    goes through :func:`generator_multiply_batch`.
    """
    return _from_jacobian(_ladder([_generator_window_points(scalar)]))


# --- Batch sites add affine ---------------------------------------------------
#
# A fixed-base product is a *sum of table points*: no doubling, only the (at
# most) 33 additions above.  A Jacobian mixed addition costs 11 field
# multiplications for one reason -- the affine formula
#
#     lambda = (y2 - y1) / (x2 - x1)
#     x3 = lambda^2 - x1 - x2,    y3 = lambda * (x1 - x3) - y1
#
# needs a field inversion, worth ~45 multiplications here (``pow(x, -1, P)``
# 18-20 us against 0.41 us for ``a * b % P``).  A block of n scalars is n
# *independent* sums, so they can be summed as balanced trees in lockstep:
# at every level all adjacent pairs of all sums put their ``x2 - x1`` into
# one :func:`batch_inverse` (3 multiplications a value), and an addition is
# 3 + 3 = 6 multiplications.  33 points are 6 levels (33 -> 17 -> 9 -> 5 ->
# 3 -> 2 -> 1, an odd element rides up unchanged), so a call makes at most 6
# inversions whatever n.  Nothing is built or kept: the points are the ones
# ``_G_WINDOWS`` already holds.
#
# ``k * G`` per scalar, us, one pinned CPU, every point compared with
# :func:`generator_multiply`:
#
#     n                                   1     2     4     8    16    32    64
#     Jacobian sum, one shared to-affine 184   176   177   178   177   178   178
#     affine tree, one inversion a level 206   157   143   133   126   123   120
#     ratio                             0.89  1.12  1.24  1.34  1.41  1.45  1.48
#
# A lone sum pays its six inversions alone and loses (0.89x); two already
# share them and win, so the crossover below is 2 and a lone ``k * G`` stays
# on :func:`generator_multiply`.
#
# The exceptional pair.  The affine formula divides by ``x2 - x1``: it cannot
# add P to P or to -P.  Honest window sums never meet one (sibling partial
# sums cover disjoint digit ranges), but the tree takes arbitrary lists, and a
# zero in the running product would poison every sum of the level.  So a zero
# difference is looked for *before* a list's denominators join the level's;
# that list alone leaves the tree and is summed by :func:`_ladder`, whose
# mixed addition knows both cases.

#: scalars from which :func:`generator_multiply_batch` beats a loop of
#: :func:`generator_multiply` (the n-table above)
GENERATOR_BATCH_CROSSOVER = 2


def affine_sum_batch(point_lists: "list[list[tuple[int, int]]]") -> list[Point]:
    """The sum of each list of affine points: balanced trees, one shared
    inversion a level.

    Points are ``(x, y)`` with reduced coordinates, as the tables hold them;
    an empty list sums to infinity.  A list that meets an exceptional pair
    (``P + P`` or ``P + (-P)``) is finished in Jacobian coordinates, the
    others unaffected.
    """
    sums = list(point_lists)  # lists are replaced level by level, never mutated
    active = [index for index, points in enumerate(sums) if len(points) > 1]
    while active:
        denominators: list[int] = []
        level = []
        for index in active:
            points = sums[index]
            differences = [b[0] - a[0] for a, b in zip(points[::2], points[1::2])]
            if 0 in differences:
                total = _from_jacobian(_ladder([points]))
                sums[index] = [] if total.is_infinity() else [(total.x, total.y)]
                continue
            denominators += differences
            level.append(index)
        inverses = iter(batch_inverse(denominators))
        active = []
        for index in level:
            points = sums[index]
            merged = []
            for (x1, y1), (x2, y2), inverse in zip(points[::2], points[1::2], inverses):
                slope = (y2 - y1) * inverse % P
                x3 = (slope * slope - x1 - x2) % P
                merged.append((x3, (slope * (x1 - x3) - y1) % P))
            if len(points) & 1:
                merged.append(points[-1])
            sums[index] = merged
            if len(merged) > 1:
                active.append(index)
    return [_point_unchecked(*points[0]) if points else INFINITY for points in sums]


def generator_multiply_batch(scalars: "list[int]") -> list[Point]:
    """``[generator_multiply(k) for k in scalars]`` through the affine tree."""
    return affine_sum_batch([_generator_window_points(k) for k in scalars])


def point_add(p: Point, q: Point) -> Point:
    """Affine point addition."""
    return _from_jacobian(_jacobian_add(_to_jacobian(p), _to_jacobian(q)))


def point_multiply(point: Point, scalar: int) -> Point:
    """Affine scalar multiplication ``scalar * point``: the ladder, no G half."""
    return shamir_multiply(0, scalar, point)


def point_multiply_reference(point: Point, scalar: int) -> Point:
    """Naive double-and-add scalar multiplication.

    Mirrors the seed implementation (including the validated affine
    conversion); kept as the reference against which the ladder is
    differentially tested and benchmarked.
    """
    return _from_jacobian_checked(_jacobian_multiply(_to_jacobian(point), scalar))


def point_negate(point: Point) -> Point:
    if point.is_infinity():
        return point
    return _point_unchecked(point.x, (-point.y) % P)


# --- Split-exponent tables: every Q is a table, a key seen twice a wide one ---
#
# Q's table is built the way ``_G_WINDOWS`` is for G, trading memory for
# doublings: bases ``B_j = 2^(chunk*j) * Q`` for ``j < bases`` (``chunk =
# 128 / bases``), each with its width-``_WNAF_WIDTH`` odd multiples and their
# lambda-images, all affine.  A ~128-bit GLV half written in wNAF then reads
# as ``bases`` digit streams of ``chunk`` positions each -- digit ``i``
# belongs to base ``i // chunk`` at height ``i % chunk`` -- so the ladder
# runs ``chunk`` doublings.  A point seen once (a recovery's R, a first-sight
# key) gets one base, built on the spot; a *known* point (a returning
# sender's key, a service's own key) gets ``_PREPARED_SPLIT``, built once.
#
# Choosing the split (one pinned CPU, us per call; ``recover`` 1,207,
# ``verify`` 1,076, ``lift_x`` alone 138 on the same host).  The 1-base row
# is what a point seen once pays, build and ladder, on every call:
#
#     split  width   build   u1*G + u2*Q check   table
#       1      5      107          951           16 points   <- first sight
#       2      5      430          730           32
#       4      5      745          627           64          <- known key
#       8      5    1,201          565          128
#       4      6    1,148          590          128
#      16      6    3,628          507          512
#
# Past four bases each doubling of the table buys under a tenth of the check
# (what is left is the ~43 + 33 mixed additions no table removes), and four
# is the last row where build + one check (1,372) stays within a quarter of
# the one plain recovery it replaces -- so a key that returns exactly once
# costs next to nothing extra -- and where a key fits 12 KB.

_PREPARED_SPLIT = 4

#: the table of a prepared point: one odd-multiples table per base, then
#: their lambda-images; empty for the point at infinity
PreparedPoint = tuple[list[tuple[int, int]], ...]


def prepare_point(point: Point, bases: int = _PREPARED_SPLIT) -> PreparedPoint:
    """Split-exponent table for ``point``: ``bases`` of its powers of two.

    ``128 - chunk`` doublings walk the bases, every base gets its odd
    multiples (:func:`_build_odd_multiples`), one Montgomery inversion
    normalises all of them, and the lambda-images cost one multiplication
    each: 64 affine points, under 12 KB, for a known key's four bases; 16
    for the one base :func:`shamir_multiply` builds for a point seen once.
    """
    if point.is_infinity():
        return ()
    count = 1 << (_WNAF_WIDTH - 2)
    base = (point.x, point.y, 1)
    flat = _build_odd_multiples(base, count)
    for _ in range(bases - 1):
        for _ in range(128 // bases):
            base = _jacobian_double(base)
        flat.extend(_build_odd_multiples(base, count))
    affine = [(p.x, p.y) for p in jacobian_to_affine_batch(flat)]
    tables = [affine[start:start + count] for start in range(0, len(affine), count)]
    return tuple(tables + [apply_endomorphism(table) for table in tables])


def _digit_events(scalar: int, table: PreparedPoint) -> list[list[tuple[int, int]]]:
    """``scalar * Q``'s table points by height, for ``table = prepare_point(Q, bases)``.

    The scalar is GLV-split and each half recoded once; digit ``i`` is filed
    under base ``i // chunk`` at height ``i % chunk``, except that the top
    base keeps whatever a half carries past 128 bits.  A negative half
    negates its digits, not its table: ``-d * B`` is the table point for
    ``|d|`` with y flipped.
    """
    bases = len(table) // 2
    chunk = 128 // bases
    top = bases - 1
    halves = [(half, _wnaf(abs(half), _WNAF_WIDTH)) for half in _glv_split(scalar % N)]
    events: list[list[tuple[int, int]]] = [
        [] for _ in range(max(chunk, max(len(naf) for _, naf in halves) - top * chunk))
    ]
    for (half, naf), tables in zip(halves, (table[:bases], table[bases:])):
        for i, digit in enumerate(naf):
            if digit:
                base = min(i // chunk, top)
                x, y = tables[base][abs(digit) >> 1]
                events[i - base * chunk].append((x, y) if (digit > 0) == (half > 0) else (x, P - y))
    return events


def shamir_multiply(u1: int, u2: int, key: "Point | PreparedPoint") -> Point:
    """``u1 * G + u2 * Q``, with ``Q`` a point or its :func:`prepare_point` table.

    What verification, recovery and the known-key check run.  A bare point
    is seen once: its one-base table is built here (eight odd multiples and
    their lambda-images behind one inversion) and Q's digits ride ~128
    doublings; a known key's four bases need 32.  G's window points join at
    height 0, so both halves are one :func:`_ladder` call and one inversion.
    """
    table = prepare_point(key, 1) if isinstance(key, Point) else key
    events = _digit_events(u2, table) if table else [[]]
    events[0] += _generator_window_points(u1)
    return _from_jacobian(_ladder(events))


def lift_x(x: int, is_odd: bool) -> Point:
    """Recover the point with the given x coordinate and y parity.

    Raises :class:`ValueError` when ``x`` is not the abscissa of a curve
    point (needed by ``ecrecover``).
    """
    if not 0 <= x < P:
        raise ValueError("x out of field range")
    y_sq = (pow(x, 3, P) + B) % P
    y = pow(y_sq, (P + 1) // 4, P)
    if y * y % P != y_sq:
        raise ValueError("x is not on the curve")
    if (y % 2 == 1) != is_odd:
        y = P - y
    return _point_unchecked(x, y)
