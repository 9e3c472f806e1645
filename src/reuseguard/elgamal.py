"""Multiplicatively homomorphic ElGamal over a prime-order group.

The scheme is the usual tuple of algorithms: key generation, randomized
encryption, and decryption that rejects anything outside the ciphertext
space.  ``hexp`` raises a ciphertext to a scalar power; it exponentiates
the two components directly and applies a single fresh rerandomization at
the end, which yields the same output distribution as rerandomizing every
step at a fraction of the group operations.

The holder of the secret key u can encrypt without the public key's
powers: the encryption of g^r under randomness x is (g^x, g^r * U^x) =
(g^x, g^(u*x + r)).  ``encrypt_powers`` builds a whole query that way, so
every point is one generator multiplication and the batch is normalized
with a single field inversion.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Optional, Tuple

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


@dataclass(frozen=True)
class PublicKey:
    group: object
    point: object  # U = g^u


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
    return Ciphertext(group.exp_generator(x), group.mul(m, group.exp(pk.point, x)))


def encrypt(pk: PublicKey, m, rng=None) -> Ciphertext:
    if not pk.group.contains(m):
        raise ValueError("plaintext is not a group element")
    x = (rng or _SYSTEM_RNG).randrange(pk.group.order)
    return encrypt_with_randomness(pk, m, x)


def encrypt_powers(sk: SecretKey, slots: Iterable[Tuple[int, int]]) -> List[Ciphertext]:
    """Encryptions of g^r with randomness x for each ``(r, x)`` in slots.

    Equal to ``encrypt_with_randomness(pk, g^r, x)`` under the matching
    public key, computed by the key's holder as (g^x, g^(u*x + r)).
    """
    return power_ciphertexts(sk.group.exp_generator_many(power_scalars(sk, slots)))


def power_scalars(sk: SecretKey, slots: Iterable[Tuple[int, int]]) -> List[int]:
    """The generator exponents behind ``encrypt_powers(sk, slots)``: x and
    u*x + r for each ``(r, x)``, in order."""
    u, order = sk.scalar, sk.group.order
    scalars = []
    for r, x in slots:
        scalars += (x, (u * x + r) % order)
    return scalars


def power_ciphertexts(points: List) -> List[Ciphertext]:
    """The ciphertexts whose components are the generator powers of
    ``power_scalars``, taken in pairs."""
    return [Ciphertext(points[i], points[i + 1]) for i in range(0, len(points), 2)]


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
        group.mul(c.ephemeral, group.exp_generator(y)),
        group.mul(c.body, group.exp(pk.point, y)),
    )


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

