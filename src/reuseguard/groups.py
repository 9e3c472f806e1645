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
# x = X/Z^2, y = Y/Z^3; the identity has Z = 0.  Every curve here has
# a = -3 (checked in ``EllipticCurveGroup``), which doubling relies on.

_JAC_INFINITY = (1, 1, 0)


def _jac_double(P, p):
    """2P for a = -3 (dbl-2001-b)."""
    X1, Y1, Z1 = P
    if Z1 == 0 or Y1 == 0:
        return _JAC_INFINITY
    delta = Z1 * Z1 % p
    gamma = Y1 * Y1 % p
    beta = X1 * gamma % p
    alpha = 3 * (X1 - delta) * (X1 + delta) % p
    X3 = (alpha * alpha - 8 * beta) % p
    Y3 = (alpha * (4 * beta - X3) - 8 * gamma * gamma) % p
    Z3 = 2 * Y1 * Z1 % p
    return (X3, Y3, Z3)


def _jac_add_affine(P, q, p):
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
        return _jac_double(P, p)
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


def _add_affine_into(accs, addends, p) -> None:
    """accs[i] += q in affine form for every (i, q) in addends, the slopes
    sharing one field inversion (Montgomery's trick).  No q may equal
    accs[i] or its opposite: pow would raise on the zero x-difference."""
    before = []  # product of the earlier x-differences
    product = 1
    for i, (x2, _) in addends:
        before.append(product)
        product = product * (x2 - accs[i][0]) % p
    inv = pow(product, -1, p)
    for (i, (x2, y2)), b in zip(reversed(addends), reversed(before)):
        x1, y1 = accs[i]
        slope = (y2 - y1) * inv * b % p
        inv = inv * (x2 - x1) % p
        x3 = (slope * slope - x1 - x2) % p
        accs[i] = (x3, (slope * (x1 - x3) - y1) % p)


COMB_BITS = 8  # scalar bits per window of the generator comb


class FixedBaseTable:
    """Lim-Lee comb of one fixed base point B: row i holds d * 2^(8i) * B
    in affine form for every digit d < 256, so a multiplication costs one
    mixed addition per 8-bit window.

    One doubling chain gives every row's 1 and 2 entries.  Then at each
    step d every row adds its 1 entry to its d - 1 entry (never equal or
    opposite, as r > 256), all rows sharing one inversion.
    """

    __slots__ = ("group", "rows")

    def __init__(self, group: "EllipticCurveGroup", base: Point):
        p = group.p
        windows = -(-group.order.bit_length() // COMB_BITS)
        chain = [(base[0], base[1], 1)]
        for _ in range(COMB_BITS * (windows - 1) + 1):
            chain.append(_jac_double(chain[-1], p))
        chain = _batch_to_affine(chain, p)  # chain[j] = 2^j * B
        rows = [[None, chain[j], chain[j + 1]]
                for j in range(0, COMB_BITS * windows, COMB_BITS)]
        last = [row[2] for row in rows]
        bases = [(i, row[1]) for i, row in enumerate(rows)]
        for _ in range(3, 1 << COMB_BITS):
            _add_affine_into(last, bases, p)
            for row, point in zip(rows, last):
                row.append(point)
        self.group = group
        self.rows = rows

    def mul(self, k: int) -> Point:
        """k * B, accumulated in Jacobian form and normalized once."""
        p, mask = self.group.p, (1 << COMB_BITS) - 1
        k %= self.group.order
        acc = _JAC_INFINITY
        for row in self.rows:
            if not k:
                break
            d = k & mask
            if d:
                acc = _jac_add_affine(acc, row[d], p)
            k >>= COMB_BITS
        return _batch_to_affine([acc], p)[0]


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
        if a != p - 3:
            raise UnsupportedGroupError(f"{name}: doubling needs a = -3")
        if (gy * gy - (gx * gx * gx + a * gx + b)) % p != 0:
            raise UnsupportedGroupError(f"{name}: generator not on curve")
        self._gen_table: Optional[FixedBaseTable] = None

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
        return self.product([e1, e2])

    def inv(self, e: Point) -> Point:
        if e is None:
            return None
        x, y = e
        return (x, (-y) % self.p)

    def exp(self, e: Point, z: int) -> Point:
        """Scalar multiple z*e: ``multi_exp`` with one term."""
        return self.multi_exp([(e, z)])

    def multi_exp(self, terms: Sequence[Tuple[Point, int]]) -> Point:
        """The sum of z*e over the (e, z) terms on one doubling chain with
        4-bit windows (Straus), every base's multiples 1..15 normalized
        with one shared inversion."""
        p, order = self.p, self.order
        terms = [(e, z % order) for e, z in terms if e is not None and z % order]
        if not terms:
            return None
        multiples = []
        for e, _ in terms:
            multiples.append((e[0], e[1], 1))
            for _ in range(14):
                multiples.append(_jac_add_affine(multiples[-1], e, p))
        flat = _batch_to_affine(multiples, p)
        tables = [[None] + flat[i:i + 15] for i in range(0, len(flat), 15)]
        top = max(z.bit_length() for _, z in terms)
        acc = _JAC_INFINITY
        for shift in range(4 * ((top + 3) // 4) - 4, -1, -4):
            for _ in range(4):
                acc = _jac_double(acc, p)
            for (_, z), table in zip(terms, tables):
                d = (z >> shift) & 15
                if d:
                    acc = _jac_add_affine(acc, table[d], p)
        return _batch_to_affine([acc], p)[0]

    def product(self, elements: Sequence[Point]) -> Point:
        """Group product of a sequence, accumulated without normalizing."""
        acc = self.sum_start
        for e in elements:
            acc = self.sum_add(acc, e)
        return self.sum_finish([acc])[0]

    sum_start = _JAC_INFINITY  # running products are Jacobian, normalized at the end

    def sum_add(self, acc, e: Point):
        return _jac_add_affine(acc, e, self.p)

    def sum_finish(self, accs) -> list:
        return _batch_to_affine(accs, self.p)

    def generator_table(self) -> FixedBaseTable:
        """The generator's comb, built once per process."""
        if self._gen_table is None:
            self._gen_table = FixedBaseTable(self, self.generator)
        return self._gen_table

    def exp_generator(self, z: int) -> Point:
        return self.generator_table().mul(z)

    def exp_generator_many(self, scalars: Sequence[int]) -> list:
        """``[exp_generator(z) for z in scalars]`` by a lockstep affine comb.

        The whole batch walks the generator's comb one window at a time.
        In each window every accumulator with a nonzero digit d adds
        ``row[d]`` as an affine point, and all of the window's additions
        share one field inversion (``_add_affine_into``).
        """
        return self.exp_generator_comb(scalars).finish()

    def exp_generator_comb(self, scalars: Sequence[int]) -> Comb:
        """``exp_generator_many(scalars)`` as a ``Comb`` that runs one
        window per ``step()``."""
        return Comb(self._comb_windows(list(scalars)))

    def _comb_windows(self, scalars: list):
        table = self.generator_table()
        p, mask = self.p, (1 << COMB_BITS) - 1
        shifts = range(0, COMB_BITS * len(table.rows), COMB_BITS)
        digit_columns = zip(*[[(z >> s) & mask for s in shifts]
                              for z in [z % self.order for z in scalars]])
        accs = [None] * len(scalars)
        for row, digits in zip(table.rows, digit_columns):
            # An accumulator holds k_low*G, 0 < k_low < 2^(8w), and k < r, so
            # k_low + d*2^(8w) <= k: it is never equal or opposite to row[d].
            addends = []
            for i, d in enumerate(digits):
                if d:
                    if accs[i] is None:
                        accs[i] = row[d]
                    else:
                        addends.append((i, row[d]))
            _add_affine_into(accs, addends, p)
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

    def multi_exp(self, terms: Sequence[Tuple[int, int]]) -> int:
        return sum(e * z for e, z in terms) % self.order

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

    sum_start, sum_add, sum_finish = 0, mul, staticmethod(list)  # nothing to normalize

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

