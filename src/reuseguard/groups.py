"""Prime-order groups used by the encryption layer.

Two families are provided behind one duck-typed interface:

* ``EllipticCurveGroup`` — the four standardized short-Weierstrass curves
  (secp160r1, secp192r1, secp224r1, secp256r1), all with cofactor 1, so the
  group is exactly the set of curve points plus the point at infinity.
  Elements are affine ``(x, y)`` tuples of ints; the identity is ``None``.
  Group "multiplication" is point addition and "exponentiation" is scalar
  multiplication, performed internally in Jacobian coordinates.

* ``EnumerableGroup`` — the additive group Z_r for a small prime r, generator 1.
  Elements are plain ints.  It exists so that statistical and exhaustive
  brute-force checks can enumerate the whole group.

Compressed wire format for an element: one parity byte (0x02 for even y,
0x03 for odd y, 0x00 for the identity) followed by the big-endian
x-coordinate padded to the field size.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, Tuple

from .errors import NotOnCurveError, UnsupportedGroupError

Point = Optional[Tuple[int, int]]

_SYSTEM_RNG = random.SystemRandom()

PARITY_INFINITY = 0x00
PARITY_EVEN = 0x02
PARITY_ODD = 0x03


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for the sizes used here."""
    if n < 2:
        return False
    small = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sqrt_mod_prime(value: int, p: int) -> int:
    """Square root of ``value`` modulo an odd prime ``p``.

    Uses the single-exponentiation shortcut when p = 3 (mod 4) and
    Tonelli-Shanks otherwise (secp224r1 has p = 1 (mod 4)).  Raises
    ``NotOnCurveError`` when ``value`` is a quadratic non-residue.
    """
    value %= p
    if value == 0:
        return 0
    if p % 4 == 3:
        root = pow(value, (p + 1) // 4, p)
        if root * root % p != value:
            raise NotOnCurveError("no square root exists")
        return root
    if pow(value, (p - 1) // 2, p) != 1:
        raise NotOnCurveError("no square root exists")
    # Tonelli-Shanks: write p - 1 = q * 2^s with q odd.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c = s, pow(z, q, p)
    t, root = pow(value, q, p), pow(value, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        root = root * b % p
    return root


# Jacobian-coordinate primitives.  A point is (X, Y, Z) with affine
# x = X/Z^2, y = Y/Z^3; the identity has Z = 0.

_JAC_INFINITY = (1, 1, 0)


def _jac_double(P, p, a):
    X1, Y1, Z1 = P
    if Z1 == 0 or Y1 == 0:
        return _JAC_INFINITY
    YY = Y1 * Y1 % p
    S = 4 * X1 * YY % p
    ZZ = Z1 * Z1 % p
    M = (3 * X1 * X1 + a * ZZ % p * ZZ) % p
    X3 = (M * M - 2 * S) % p
    Y3 = (M * (S - X3) - 8 * YY * YY) % p
    Z3 = 2 * Y1 * Z1 % p
    return (X3, Y3, Z3)


def _jac_add_affine(P, q, p, a):
    """Mixed addition of a Jacobian point and an affine point."""
    if q is None:
        return P
    X1, Y1, Z1 = P
    x2, y2 = q
    if Z1 == 0:
        return (x2, y2, 1)
    Z1Z1 = Z1 * Z1 % p
    U2 = x2 * Z1Z1 % p
    S2 = y2 * Z1 % p * Z1Z1 % p
    if U2 == X1:
        if S2 != Y1:
            return _JAC_INFINITY
        return _jac_double(P, p, a)
    H = (U2 - X1) % p
    HH = H * H % p
    HHH = H * HH % p
    r = (S2 - Y1) % p
    V = X1 * HH % p
    X3 = (r * r - HHH - 2 * V) % p
    Y3 = (r * (V - X3) - Y1 * HHH) % p
    Z3 = Z1 * H % p
    return (X3, Y3, Z3)


def _batch_to_affine(points, p) -> list:
    """Normalize many Jacobian points with a single field inversion."""
    zs = [P[2] for P in points]
    prefix = [1] * (len(zs) + 1)
    for i, z in enumerate(zs):
        prefix[i + 1] = prefix[i] * z % p if z else prefix[i]
    inv_all = pow(prefix[-1], -1, p)
    out = [None] * len(points)
    for i in range(len(points) - 1, -1, -1):
        X, Y, Z = points[i]
        if Z == 0:
            continue
        zi = inv_all * prefix[i] % p
        inv_all = inv_all * Z % p
        zi2 = zi * zi % p
        out[i] = (X * zi2 % p, Y * zi2 % p * zi % p)
    return out


class FixedBaseTable:
    """Comb table for fast scalar multiplication of one fixed base point.

    Stores d * (2^(bits*i)) * B in affine form for every window position i
    and digit d < 2^bits, so a multiplication costs one mixed addition per
    ``bits``-bit window.
    """

    __slots__ = ("group", "bits", "rows")

    def __init__(self, group: "EllipticCurveGroup", base: Point, bits: int = 4):
        p, a = group.p, group.a
        size = 1 << bits
        windows = -(-group.order.bit_length() // bits)
        jac_points = []
        row_base = base
        for _ in range(windows):
            acc = _JAC_INFINITY
            jac_points.append(acc)
            for _ in range(size - 1):
                acc = _jac_add_affine(acc, row_base, p, a)
                jac_points.append(acc)
            row_base = _batch_to_affine([_jac_add_affine(acc, row_base, p, a)], p)[0]
        flat = _batch_to_affine(jac_points, p)
        self.group = group
        self.bits = bits
        self.rows = [flat[i * size:(i + 1) * size] for i in range(windows)]

    def mul(self, k: int) -> Point:
        """k * B, accumulated in Jacobian form and normalized once."""
        p, a = self.group.p, self.group.a
        bits, mask = self.bits, (1 << self.bits) - 1
        k %= self.group.order
        acc = _JAC_INFINITY
        for row in self.rows:
            if not k:
                break
            d = k & mask
            if d:
                acc = _jac_add_affine(acc, row[d], p, a)
            k >>= bits
        return _batch_to_affine([acc], p)[0]


# Smallest batch that exp_generator_many runs through the 8-bit comb.  The
# 8-bit table costs 255 additions per window to build and saves about one
# addition per window on every multiply, so a batch this large repays it.
COMB8_MIN_BATCH = 256


class Comb:
    """A batch of generator multiplications that runs one comb window at a
    time, so a caller can stop it between windows and resume it later.

    ``windows`` is a generator that yields after each window and returns
    the points.
    """

    __slots__ = ("_windows", "_points")

    def __init__(self, windows):
        self._windows = windows
        self._points = None

    def step(self) -> bool:
        """Run the next window; False, with no work done, once none is left."""
        if self._points is not None:
            return False
        try:
            next(self._windows)
        except StopIteration as done:
            self._points = done.value
            return False
        return True

    def finish(self) -> list:
        """Run every window left and return the points."""
        while self.step():
            pass
        return self._points


class EllipticCurveGroup:
    """Short-Weierstrass curve y^2 = x^3 + ax + b over F_p, cofactor 1."""

    def __init__(self, name, p, a, b, gx, gy, order):
        self.name = name
        self.p = p
        self.a = a
        self.b = b
        self.generator: Point = (gx, gy)
        self.order = order
        self.field_bytes = (p.bit_length() + 7) // 8
        self.identity: Point = None
        if not _is_prime(p) or not _is_prime(order):
            raise UnsupportedGroupError(f"{name}: field or order not prime")
        if (gy * gy - (gx * gx * gx + a * gx + b)) % p != 0:
            raise UnsupportedGroupError(f"{name}: generator not on curve")
        self._gen_tables: dict = {}  # comb width in bits -> FixedBaseTable

    def __repr__(self):
        return f"EllipticCurveGroup({self.name})"

    def contains(self, element: Point) -> bool:
        if element is None:
            return True
        if not (isinstance(element, tuple) and len(element) == 2):
            return False
        x, y = element
        if not (isinstance(x, int) and isinstance(y, int)):
            return False
        if not (0 <= x < self.p and 0 <= y < self.p):
            return False
        return (y * y - (x * x * x + self.a * x + self.b)) % self.p == 0

    def mul(self, e1: Point, e2: Point) -> Point:
        if e1 is None:
            return e2
        if e2 is None:
            return e1
        return _batch_to_affine(
            [_jac_add_affine((e1[0], e1[1], 1), e2, self.p, self.a)], self.p)[0]

    def inv(self, e: Point) -> Point:
        if e is None:
            return None
        x, y = e
        return (x, (-y) % self.p)

    def exp(self, e: Point, z: int) -> Point:
        """Scalar multiple z*e via a 4-bit fixed window over an affine table."""
        z %= self.order
        if e is None or z == 0:
            return None
        p, a = self.p, self.a
        multiples = [(e[0], e[1], 1)]
        for _ in range(14):
            multiples.append(_jac_add_affine(multiples[-1], e, p, a))
        table = [None] + _batch_to_affine(multiples, p)  # table[d] = d*e
        acc = _JAC_INFINITY
        for shift in range(4 * ((z.bit_length() + 3) // 4) - 4, -1, -4):
            if acc[2] != 0:
                acc = _jac_double(acc, p, a)
                acc = _jac_double(acc, p, a)
                acc = _jac_double(acc, p, a)
                acc = _jac_double(acc, p, a)
            d = (z >> shift) & 15
            if d:
                acc = _jac_add_affine(acc, table[d], p, a)
        return _batch_to_affine([acc], p)[0]

    def product(self, elements: Sequence[Point]) -> Point:
        """Group product of a sequence, accumulated without normalizing."""
        acc = _JAC_INFINITY
        p, a = self.p, self.a
        for e in elements:
            acc = _jac_add_affine(acc, e, p, a)
        return _batch_to_affine([acc], p)[0]

    def generator_table(self, bits: int = 4) -> FixedBaseTable:
        """The generator's comb, built once per width per process."""
        table = self._gen_tables.get(bits)
        if table is None:
            table = self._gen_tables[bits] = FixedBaseTable(self, self.generator, bits)
        return table

    def exp_generator(self, z: int) -> Point:
        return self.generator_table().mul(z)

    def exp_generator_many(self, scalars: Sequence[int]) -> list:
        """``[exp_generator(z) for z in scalars]`` by a lockstep affine comb.

        The whole batch walks the comb one window at a time.  In each window
        every accumulator with a nonzero digit d adds ``row[d]`` as an affine
        point, and all of the window's slope denominators share one field
        inversion through prefix products (Montgomery's trick), so an
        addition costs about six multiplications.  Batches of at least
        ``COMB8_MIN_BATCH`` scalars use the 8-bit comb, smaller ones the
        4-bit comb.
        """
        return self.exp_generator_comb(scalars).finish()

    def exp_generator_comb(self, scalars: Sequence[int]) -> Comb:
        """``exp_generator_many(scalars)`` as a ``Comb`` that runs one
        window per ``step()``."""
        return Comb(self._comb_windows(list(scalars)))

    def _comb_windows(self, scalars: list):
        table = self.generator_table(8 if len(scalars) >= COMB8_MIN_BATCH else 4)
        p, bits, mask = self.p, table.bits, (1 << table.bits) - 1
        shifts = range(0, bits * len(table.rows), bits)
        digit_columns = zip(*[[(z >> s) & mask for s in shifts]
                              for z in [z % self.order for z in scalars]])
        accs = [None] * len(scalars)
        for row, digits in zip(table.rows, digit_columns):
            pending = []  # (index, acc, addend, product of earlier x-differences)
            product = 1
            for i, d in enumerate(digits):
                if d:
                    acc = accs[i]
                    if acc is None:
                        accs[i] = row[d]
                    else:
                        q = row[d]
                        pending.append((i, acc, q, product))
                        product = product * (q[0] - acc[0]) % p
            # Before window w an accumulator holds k_low*G with
            # 0 < k_low < 2^(bits*w), and row[d] is d*2^(bits*w)*G.  As the
            # scalar k < r, k_low + d*2^(bits*w) <= k never reaches r, so the
            # two points are never equal or opposite and no x-difference is
            # 0.  Were one 0, pow would raise rather than return a wrong point.
            inv = pow(product, -1, p)
            for i, (x1, y1), (x2, y2), before in reversed(pending):
                slope = (y2 - y1) * inv * before % p
                inv = inv * (x2 - x1) % p
                x3 = (slope * slope - x1 - x2) % p
                accs[i] = (x3, (slope * (x1 - x3) - y1) % p)
            yield
        return accs

    def random_scalar(self, rng=None) -> int:
        return (rng or _SYSTEM_RNG).randrange(self.order)

    def random_element(self, rng=None) -> Point:
        return self.generator_table().mul(self.random_scalar(rng))

    def compress(self, element: Point) -> bytes:
        if element is None:
            return bytes([PARITY_INFINITY]) + b"\x00" * self.field_bytes
        x, y = element
        parity = PARITY_ODD if y & 1 else PARITY_EVEN
        return bytes([parity]) + x.to_bytes(self.field_bytes, "big")

    def decompress(self, data: bytes) -> Point:
        if len(data) != self.field_bytes + 1:
            raise NotOnCurveError("wrong compressed-point length")
        parity, xbytes = data[0], data[1:]
        if parity == PARITY_INFINITY:
            if any(xbytes):
                raise NotOnCurveError("nonzero x for the identity encoding")
            return None
        if parity not in (PARITY_EVEN, PARITY_ODD):
            raise NotOnCurveError(f"bad parity byte {parity:#x}")
        x = int.from_bytes(xbytes, "big")
        if x >= self.p:
            raise NotOnCurveError("x out of field range")
        rhs = (x * x * x + self.a * x + self.b) % self.p
        y = sqrt_mod_prime(rhs, self.p)
        if (y & 1) != (parity == PARITY_ODD):
            y = self.p - y
        return (x, y)


class EnumerableGroup:
    """Additive group Z_r (prime r), written multiplicatively elsewhere.

    Generator 1, identity 0, "exponentiation" is scalar multiplication.
    Small enough orders allow exhaustive enumeration in tests.
    """

    def __init__(self, order: int):
        if not _is_prime(order):
            raise UnsupportedGroupError(f"test group order {order} is not prime")
        self.name = f"TEST({order})"
        self.order = order
        self.generator = 1
        self.identity = 0
        self.field_bytes = (order.bit_length() + 7) // 8

    def __repr__(self):
        return f"EnumerableGroup({self.order})"

    def contains(self, element) -> bool:
        return isinstance(element, int) and 0 <= element < self.order

    def mul(self, e1: int, e2: int) -> int:
        return (e1 + e2) % self.order

    def inv(self, e: int) -> int:
        return (-e) % self.order

    def exp(self, e: int, z: int) -> int:
        return e * z % self.order

    def exp_generator(self, z: int) -> int:
        return z % self.order

    def exp_generator_many(self, scalars: Sequence[int]) -> list:
        return self.exp_generator_comb(scalars).finish()

    def exp_generator_comb(self, scalars: Sequence[int]) -> Comb:
        """Every multiple in one window."""
        def one_window():
            points = [z % self.order for z in scalars]
            yield
            return points
        return Comb(one_window())

    def product(self, elements: Sequence[int]) -> int:
        return sum(elements) % self.order

    def random_scalar(self, rng=None) -> int:
        return (rng or _SYSTEM_RNG).randrange(self.order)

    def random_element(self, rng=None) -> int:
        return self.random_scalar(rng)

    def compress(self, element: int) -> bytes:
        return bytes([PARITY_EVEN]) + element.to_bytes(self.field_bytes, "big")

    def decompress(self, data: bytes) -> int:
        if len(data) != self.field_bytes + 1 or data[0] != PARITY_EVEN:
            raise NotOnCurveError("malformed test-group element")
        value = int.from_bytes(data[1:], "big")
        if value >= self.order:
            raise NotOnCurveError("value out of group range")
        return value


# SEC2 / FIPS 186-4 domain parameters, all with cofactor 1.
P160 = EllipticCurveGroup(
    "P160",
    p=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF7FFFFFFF,
    a=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF7FFFFFFC,
    b=0x1C97BEFC54BD7A8B65ACF89F81D4D4ADC565FA45,
    gx=0x4A96B5688EF573284664698968C38BB913CBFC82,
    gy=0x23A628553168947D59DCC912042351377AC5FB32,
    order=0x0100000000000000000001F4C8F927AED3CA752257,
)
P192 = EllipticCurveGroup(
    "P192",
    p=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFFFFFFFFFFFF,
    a=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFFFFFFFFFFFC,
    b=0x64210519E59C80E70FA7E9AB72243049FEB8DEECC146B9B1,
    gx=0x188DA80EB03090F67CBF20EB43A18800F4FF0AFD82FF1012,
    gy=0x07192B95FFC8DA78631011ED6B24CDD573F977A11E794811,
    order=0xFFFFFFFFFFFFFFFFFFFFFFFF99DEF836146BC9B1B4D22831,
)
P224 = EllipticCurveGroup(
    "P224",
    p=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF000000000000000000000001,
    a=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFFFFFFFFFFFFFFFFFFFE,
    b=0xB4050A850C04B3ABF54132565044B0B7D7BFD8BA270B39432355FFB4,
    gx=0xB70E0CBD6BB4BF7F321390B94A03C1D356C21122343280D6115C1D21,
    gy=0xBD376388B5F723FB4C22DFE6CD4375A05A07476444D5819985007E34,
    order=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFF16A2E0B8F03E13DD29455C5C2A3D,
)
P256 = EllipticCurveGroup(
    "P256",
    p=0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF,
    a=0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFC,
    b=0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B,
    gx=0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296,
    gy=0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5,
    order=0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551,
)

CURVES = {"P160": P160, "P192": P192, "P224": P224, "P256": P256}

_enumerable_groups: dict = {}


def enumerable_group(order: int) -> EnumerableGroup:
    """Shared EnumerableGroup instance for a given prime order."""
    if order not in _enumerable_groups:
        _enumerable_groups[order] = EnumerableGroup(order)
    return _enumerable_groups[order]

