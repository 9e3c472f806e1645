"""Multiplicatively homomorphic ElGamal over a prime-order group.

The scheme is the usual tuple of algorithms: key generation, randomized
encryption, decryption that rejects anything outside the ciphertext space,
and a rerandomizing homomorphic multiplication.  ``hexp`` raises a
ciphertext to a scalar power; it exponentiates the two components directly
and applies a single fresh rerandomization at the end, which yields the
same output distribution as rerandomizing every step at a fraction of the
group operations.

Precomputed pairs (encryptions of the identity, i.e. Diffie-Hellman
triples with the public key) let a caller turn plaintexts into ciphertexts
with at most one group multiplication each.  ``PairPool`` maintains such
pairs with a background producer thread and a non-blocking ``take``.
"""

from __future__ import annotations

import random
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional

from .groups import FixedBaseTable

_SYSTEM_RNG = random.SystemRandom()


class _Bottom:
    """Sentinel for the reject outcome; distinct from every group element."""

    def __repr__(self):
        return "BOTTOM"

    def __bool__(self):
        return False


BOTTOM = _Bottom()


class Ciphertext(NamedTuple):
    ephemeral: object  # X = g^x
    body: object       # Y = m * U^x


class PrecomputedPair(NamedTuple):
    ephemeral: object
    unit_body: object  # U^x, i.e. the body of an encryption of the identity


@dataclass(frozen=True)
class PublicKey:
    group: object
    point: object  # U = g^u

    _tables: dict = field(default_factory=dict, repr=False, compare=False)

    def exp_generator(self, z: int):
        return self.group.exp_generator(z)

    def exp_point(self, z: int):
        """U^z, via a cached fixed-base table on curves."""
        group = self.group
        if not group.is_elliptic:
            return group.exp(self.point, z)
        if self.point is None:  # identity key point (u = 0): U^z = identity
            return None
        table = self._tables.get("U")
        if table is None:
            table = FixedBaseTable(group, self.point)
            self._tables["U"] = table
        return table.mul(z)


@dataclass(frozen=True)
class SecretKey:
    group: object
    scalar: int  # u


@dataclass(frozen=True)
class KeyPair:
    sk: SecretKey
    pk: PublicKey

    @property
    def group(self):
        return self.pk.group


def gen(group, rng=None) -> KeyPair:
    """Fresh key pair: private u uniform in Z_r, public U = g^u."""
    rng = rng or _SYSTEM_RNG
    u = rng.randrange(group.order)
    pk = PublicKey(group, group.exp_generator(u))
    return KeyPair(SecretKey(group, u), pk)


def encrypt_with_randomness(pk: PublicKey, m, x: int) -> Ciphertext:
    """Deterministic encryption with caller-supplied ephemeral scalar x."""
    group = pk.group
    return Ciphertext(pk.exp_generator(x), group.mul(m, pk.exp_point(x)))


def encrypt(pk: PublicKey, m, rng=None) -> Ciphertext:
    if not pk.group.contains(m):
        raise ValueError("plaintext is not a group element")
    x = (rng or _SYSTEM_RNG).randrange(pk.group.order)
    return encrypt_with_randomness(pk, m, x)


def validate_ciphertext(pk: PublicKey, c) -> bool:
    """True iff both components are elements of the plaintext group."""
    if not isinstance(c, Ciphertext):
        if not (isinstance(c, tuple) and len(c) == 2):
            return False
        c = Ciphertext(*c)
    group = pk.group
    return group.contains(c.ephemeral) and group.contains(c.body)


def decrypt(sk: SecretKey, c: Ciphertext):
    """Plaintext of c, or BOTTOM when either component is not in the group."""
    group = sk.group
    if not (group.contains(c.ephemeral) and group.contains(c.body)):
        return BOTTOM
    shared = group.exp(c.ephemeral, sk.scalar)
    return group.mul(c.body, group.inv(shared))


def rerandomize(pk: PublicKey, c: Ciphertext, rng=None) -> Ciphertext:
    # One U^y per key: a plain exponentiation, not a fixed-base table.
    y = (rng or _SYSTEM_RNG).randrange(pk.group.order)
    group = pk.group
    return Ciphertext(
        group.mul(c.ephemeral, pk.exp_generator(y)),
        group.mul(c.body, group.exp(pk.point, y)),
    )


def hmul(pk: PublicKey, c1: Ciphertext, c2: Ciphertext, rng=None) -> Optional[Ciphertext]:
    """Homomorphic product, uniform in the class of the plaintext product.

    Returns (X1 X2 g^y, Y1 Y2 U^y) for fresh y, or None when either input
    fails validation.
    """
    if not (validate_ciphertext(pk, c1) and validate_ciphertext(pk, c2)):
        return None
    group = pk.group
    raw = Ciphertext(
        group.mul(c1.ephemeral, c2.ephemeral), group.mul(c1.body, c2.body)
    )
    return rerandomize(pk, raw, rng)


def hexp(pk: PublicKey, c: Ciphertext, z: int, rng=None) -> Optional[Ciphertext]:
    """Homomorphic exponentiation: a uniform ciphertext of m^z.

    Component-wise square-and-multiply followed by one rerandomization.
    Returns None when the input ciphertext fails validation.
    """
    if not validate_ciphertext(pk, c):
        return None
    group = pk.group
    z %= group.order
    raw = Ciphertext(group.exp(c.ephemeral, z), group.exp(c.body, z))
    return rerandomize(pk, raw, rng)


def random_element(group, rng=None):
    """Uniform group element (the $(G) sampler)."""
    return group.random_element(rng)


def precompute_pairs(pk: PublicKey, count: int, rng=None) -> List[PrecomputedPair]:
    """count Diffie-Hellman triples (U, g^x, U^x): encryptions of identity."""
    rng = rng or _SYSTEM_RNG
    out = []
    for _ in range(count):
        x = rng.randrange(pk.group.order)
        out.append(PrecomputedPair(pk.exp_generator(x), pk.exp_point(x)))
    return out


def encrypt_with_pair(pk: PublicKey, pair: PrecomputedPair, m) -> Ciphertext:
    """Encryption of m using one precomputed pair: one multiplication."""
    if m == pk.group.identity:
        return Ciphertext(pair.ephemeral, pair.unit_body)
    return Ciphertext(pair.ephemeral, pk.group.mul(m, pair.unit_body))


class PairPool:
    """Bounded pool of precomputed pairs for one precomputed key pair.

    Mirrors the off-critical-path precomputation a requester performs
    while the user is still typing: the key pair itself plus identity
    encryptions for every filter slot.  One background producer refills
    the pool; any number of consumers may call ``take``, which never
    blocks and returns None when the pool is empty (callers then encrypt
    inline).
    """

    def __init__(self, keypair: KeyPair, target: int, rng=None):
        self.keypair = keypair
        self.pk = keypair.pk
        self.target = target
        self._rng = rng or _SYSTEM_RNG
        self._pairs: deque = deque()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def fill(self) -> None:
        """Produce synchronously until the pool holds ``target`` pairs."""
        while len(self._pairs) < self.target:
            self._pairs.extend(precompute_pairs(self.pk, 1, self._rng))

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(target=self._produce, daemon=True)
        self._thread.start()

    def _produce(self) -> None:
        while not self._stop.is_set():
            if len(self._pairs) >= self.target:
                self._stop.wait(0.005)
                continue
            self._pairs.extend(precompute_pairs(self.pk, 1, self._rng))

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __len__(self) -> int:
        return len(self._pairs)

    def take(self) -> Optional[PrecomputedPair]:
        try:
            return self._pairs.popleft()
        except IndexError:
            return None

    def encrypt(self, m, rng=None) -> Ciphertext:
        pair = self.take()
        if pair is None:
            return encrypt(self.pk, m, rng or self._rng)
        return encrypt_with_pair(self.pk, pair, m)
