"""Private set-membership-test protocol: requester and responder sides.

One run answers a single question — is the candidate password similar to
one already set elsewhere for the same account — while the querying side
learns nothing else about the responder's set and the responder learns
nothing about the candidate.  The requester encodes its Bloom index set as
a vector of ciphertexts (random plaintext on its own indices, identity
elsewhere); the responder homomorphically multiplies the ciphertexts
outside its own index set and blinds the product with a fresh exponent, so
the result decrypts to the identity exactly when the requester's indices
are covered (up to Bloom false positives).

Everything here is transport-free; wire encoding lives in ``wire``.
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import comb
from typing import Callable, FrozenSet, Iterable, Sequence, Tuple

from . import bloom, elgamal, similarity
from .errors import InvalidCiphertextError
from .groups import P192, enumerable_group

_SYSTEM_RNG = random.SystemRandom()

DEFAULT_GROUP = P192


@dataclass(frozen=True)
class QueryMessage:
    """Message sent to each responder (relayed by the directory)."""

    account_id: str
    pk: elgamal.PublicKey
    bloom: bloom.BloomParams
    ciphertexts: Tuple[elgamal.Ciphertext, ...]


@dataclass(frozen=True)
class ResponseMessage:
    result_ciphertext: elgamal.Ciphertext


@dataclass(frozen=True)
class RequesterSession:
    """Requester-side secrets for one run; never serialized."""

    keypair: elgamal.KeyPair
    bloom: bloom.BloomParams
    requester_index_set: FrozenSet[int]


def build_query(account_id: str, password: str, n_target: int, *,
                group=DEFAULT_GROUP, k: int = bloom.DEFAULT_NUM_HASHES,
                hash_params: similarity.SlowHashParams = similarity.DEFAULT_HASH_PARAMS,
                rng=None) -> Tuple[QueryMessage, RequesterSession]:
    """Build the query for a candidate password.

    The filter is sized for ``n_target`` entries per responder under ``k``
    hash functions with a fresh seed, under a fresh key pair.  Slot j
    carries an encryption of a fresh random element g^r when j is one of
    the candidate's indices and of the identity (r = 0) otherwise.

    The password's slow hash runs on a short-lived worker thread (scrypt
    releases the interpreter lock) while this thread encrypts every slot
    as the identity in one ``elgamal.encrypt_powers`` batch of (g^x, g^(u·x)).
    Once the hash is in, each of the candidate's k slots gets its body
    g^(u·x + r) from one small ``exp_generator_many`` batch.  All draws
    come from ``rng`` on the calling thread, in this order: the filter
    seed, the key, every slot's x, then r for each index in ascending order.
    """
    if n_target < 1:
        raise ValueError("n_target must be at least 1")
    with ThreadPoolExecutor(max_workers=1) as worker:
        hashing = worker.submit(similarity.bloom_item, password, account_id, hash_params)
        return _build(account_id, n_target, group, k, rng or _SYSTEM_RNG, hashing.result)


def build_decoy_query(account_id: str, n_target: int, *,
                      group=DEFAULT_GROUP, k: int = bloom.DEFAULT_NUM_HASHES,
                      rng=None) -> Tuple[QueryMessage, RequesterSession]:
    """Build a decoy run's query: ``build_query`` with a Bloom item drawn
    from ``rng`` (after every slot's x) instead of a password's slow hash.

    A uniform 32-byte item indexes the filter as the digest of a fresh
    random password does, and every slot is an ElGamal ciphertext under a
    fresh key, so the query's layout, size and distribution are a real
    run's; nothing is hashed.
    """
    rng = rng or _SYSTEM_RNG
    return _build(account_id, n_target, group, k, rng,
                  lambda: rng.randbytes(similarity.DIGEST_BYTES))


def _build(account_id: str, n_target: int, group, k: int, rng,
           item: Callable[[], bytes]) -> Tuple[QueryMessage, RequesterSession]:
    """The query for the Bloom item ``item()``, which is called once every
    slot is encrypted as the identity."""
    params = bloom.BloomParams(
        bloom.length_for(n_target, k), k, rng.randbytes(bloom.SEED_BYTES)
    )
    keypair = elgamal.gen(group, rng)
    order = group.order
    xs = [rng.randrange(order) for _ in range(params.length_ell)]
    slots = elgamal.encrypt_powers(keypair.sk, [(0, x) for x in xs])
    j_r = bloom.indices(params, item())
    members = sorted(j_r)
    u = keypair.sk.scalar
    bodies = group.exp_generator_many(
        [(u * xs[j] + rng.randrange(order)) % order for j in members])
    for j, body in zip(members, bodies):
        slots[j] = slots[j]._replace(body=body)
    query = QueryMessage(account_id, keypair.pk, params, tuple(slots))
    return query, RequesterSession(keypair, params, j_r)


def validate_query(query: QueryMessage) -> None:
    """The responder's inbound check: abort on any invalid ciphertext."""
    pk = query.pk
    if not pk.group.contains(pk.point):
        raise InvalidCiphertextError("public key point not in the group")
    if len(query.ciphertexts) != query.bloom.length_ell:
        raise InvalidCiphertextError("ciphertext count does not match filter length")
    for c in query.ciphertexts:
        if not elgamal.validate_ciphertext(pk, c):
            raise InvalidCiphertextError("ciphertext component not in the group")


def blinded_complement_product(query: QueryMessage,
                               responder_indices: Iterable[int],
                               rng=None) -> ResponseMessage:
    """Blinded product of the slots outside the responder's index set.

    The homomorphic product over the complement is accumulated
    component-wise and then raised to a fresh exponent from Z*_r with one
    final rerandomization, leaving the result uniform within its
    ciphertext class.  An empty complement degenerates to a fresh
    encryption of the identity.

    Every slot is added into one of two products, inside J_S or outside
    it, so the responder does ℓ additions per component whatever |J_S| is
    and their count does not time its set.  Only the product outside J_S
    is used.
    """
    rng = rng or _SYSTEM_RNG
    pk = query.pk
    group = pk.group
    j_s = set(responder_indices)
    outside, inside = [], []
    for j, c in enumerate(query.ciphertexts):
        (inside if j in j_s else outside).append(c)
    product, _ = [elgamal.Ciphertext(group.product([c.ephemeral for c in side]),
                                     group.product([c.body for c in side]))
                  for side in (outside, inside)]
    nu = rng.randrange(1, group.order)  # Z*_r: zero excluded
    result = elgamal.hexp(pk, product, nu, rng)
    return ResponseMessage(result)


def respond(query: QueryMessage, similar: similarity.SimilarSet,
            rng=None) -> ResponseMessage:
    """Responder side of one run; tolerates adversarial queries.

    Raises InvalidCiphertextError when any inbound ciphertext fails
    validation.  The similar set is truncated to the filter's capacity in
    stored (priority) order before its index set is formed.
    """
    validate_query(query)
    cap = bloom.capacity(query.bloom.length_ell, query.bloom.num_hashes_k)
    entries = similar.entries[:cap]
    j_s = bloom.index_union(query.bloom, entries)
    return blinded_complement_product(query, j_s, rng)


def decode_result(session: RequesterSession, response: ResponseMessage) -> bool:
    """True iff the blinded product decrypts to the identity; a component
    outside the group (``elgamal.decrypt``'s check) raises
    InvalidCiphertextError."""
    keypair = session.keypair
    plaintext = elgamal.decrypt(keypair.sk, response.result_ciphertext)
    if plaintext is elgamal.BOTTOM:
        raise InvalidCiphertextError("response ciphertext not in the group")
    return plaintext == keypair.group.identity


def membership_oracle(password: str, similar_plaintexts: Sequence[str],
                      params: bloom.BloomParams, account_id: str,
                      hash_params: similarity.SlowHashParams = similarity.DEFAULT_HASH_PARAMS
                      ) -> bool:
    """Reference Bloom test the protocol must agree with."""
    item, *members = similarity.bloom_items([password, *similar_plaintexts],
                                             account_id, hash_params)
    return bloom.indices(params, item) <= bloom.index_union(params, members)


def generic_bound_adversary(ell: int, k: int, trials: int, *,
                            group=None, rng=None) -> float:
    """Success rate of the best known probing responder strategy.

    Simulates the hidden-index-set experiment: the requester samples a
    uniform k-subset of [ell] and encrypts accordingly; the adversary
    returns slot 0 as its response, learns only whether that slot
    encrypts the identity, and guesses a uniform k-subset that contains 0
    exactly when it does not.  The success rate approaches
    2 / C(ell, k), which no passive strategy exceeds.
    """
    if not (1 <= k <= ell):
        raise ValueError("need 1 <= k <= ell")
    group = group or enumerable_group(101)
    rng = rng or _SYSTEM_RNG
    population = list(range(ell))
    rest = list(range(1, ell))
    hits = 0
    for _ in range(trials):
        keypair = elgamal.gen(group, rng)
        j_r = frozenset(rng.sample(population, k))
        if 0 in j_r:
            c0 = elgamal.encrypt(keypair.pk, group.random_element(rng), rng)
        else:
            c0 = elgamal.encrypt(keypair.pk, group.identity, rng)
        oracle_says_identity = elgamal.decrypt(keypair.sk, c0) == group.identity
        if oracle_says_identity and k <= len(rest):
            guess = frozenset(rng.sample(rest, k))
        elif oracle_says_identity:
            guess = frozenset(population)  # no k-subset avoids slot 0
        else:
            guess = frozenset([0] + rng.sample(rest, k - 1))
        if guess == j_r:
            hits += 1
    return hits / trials


def generic_bound(ell: int, k: int) -> float:
    """The proven ceiling 2 / C(ell, k) for the probing adversary."""
    return 2.0 / comb(ell, k)
