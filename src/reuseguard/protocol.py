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

import os
import random
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import comb
from typing import FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple

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
                rng=None, fill_spare: bool = False) -> Tuple[QueryMessage, RequesterSession]:
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

    ``fill_spare`` is for a flow that may run decoys.  If the hash is still
    running once the identity batch is done, this thread spends the wait
    on the process's spare decoy run (see ``build_decoy_query``), one comb
    window at a time, so the query leaves at most one window of a batch
    the size of its own identity batch after the hash returns.  The spare
    draws from the system CSPRNG, never from ``rng``, so how far it gets
    changes no byte of this query.
    """
    if n_target < 1:
        raise ValueError("n_target must be at least 1")
    rng = rng or _SYSTEM_RNG
    ell = bloom.length_for(n_target, k)
    with ThreadPoolExecutor(max_workers=1) as worker:
        hashing = worker.submit(similarity.bloom_item, password, account_id, hash_params)
        offline = _draw_offline(group, ell, k, rng)
        slots = elgamal.encrypt_powers(offline.keypair.sk, [(0, x) for x in offline.xs])
        if fill_spare:
            _fill_spare(group, ell, k, hashing)
        return _online(account_id, offline, slots, hashing.result(), rng)


def build_decoy_query(account_id: str, n_target: int, *,
                      group=DEFAULT_GROUP, k: int = bloom.DEFAULT_NUM_HASHES,
                      rng=None) -> Tuple[QueryMessage, RequesterSession]:
    """Build a decoy run's query: a real run's query for a Bloom item
    drawn from ``rng`` instead of a password's slow hash.

    The part no password enters (a fresh seed and key pair, every slot
    encrypted as the identity) is the process's spare when it has this
    shape and no run has taken it: it is taken, so it serves this run
    alone, and finished here if half-built.  Otherwise that part is built
    inline the same way.  Either way it draws from the system CSPRNG.
    Only the 32-byte item and then r for each of its slots draw from
    ``rng``: one small comb batch.  So with a spare that earlier scrypt
    waits filled, the decoy leaves about one small batch after the
    previous verdict rather than one whole build.

    A uniform item indexes the filter as the digest of a fresh random
    password does, and every slot is an ElGamal ciphertext under a fresh
    key, so the query's layout, size and distribution are a real run's;
    nothing is hashed.
    """
    rng = rng or _SYSTEM_RNG
    shape = (group, bloom.length_for(n_target, k), k)
    spare = _spare
    taken = spare.take() if spare is not None and spare.shape == shape else None
    offline, slots = taken or _Spare(*shape).take()
    return _online(account_id, offline, slots, rng.randbytes(similarity.DIGEST_BYTES), rng)


class _Offline(NamedTuple):
    """The part of a run that no password enters: Bloom parameters with a
    fresh seed, a fresh key pair, and every slot's encryption randomness x."""

    params: bloom.BloomParams
    keypair: elgamal.KeyPair
    xs: List[int]


def _draw_offline(group, ell: int, k: int, rng) -> _Offline:
    params = bloom.BloomParams(ell, k, rng.randbytes(bloom.SEED_BYTES))
    keypair = elgamal.gen(group, rng)
    return _Offline(params, keypair, [rng.randrange(group.order) for _ in range(ell)])


def _online(account_id: str, offline: _Offline, slots: List[elgamal.Ciphertext],
            item: bytes, rng) -> Tuple[QueryMessage, RequesterSession]:
    """The query for Bloom item ``item``, from a run's offline part and its
    slots encrypted as the identity (which this replaces in place)."""
    params, keypair, xs = offline
    order = keypair.group.order
    j_r = bloom.indices(params, item)
    members = sorted(j_r)
    u = keypair.sk.scalar
    bodies = keypair.group.exp_generator_many(
        [(u * xs[j] + rng.randrange(order)) % order for j in members])
    for j, body in zip(members, bodies):
        slots[j] = slots[j]._replace(body=body)
    query = QueryMessage(account_id, keypair.pk, params, tuple(slots))
    return query, RequesterSession(keypair, params, j_r)


class _Spare:
    """One decoy run's offline part for ``shape`` = (group, ell, k), drawn
    from the system CSPRNG, with the comb that encrypts its slots as the
    identity one window per ``step()``.  ``take()`` hands it to one run."""

    def __init__(self, group, ell: int, k: int):
        self.shape = (group, ell, k)
        self.offline = _draw_offline(group, ell, k, _SYSTEM_RNG)
        self.comb = group.exp_generator_comb(elgamal.power_scalars(
            self.offline.keypair.sk, [(0, x) for x in self.offline.xs]))
        self.taken = False
        self._lock = threading.Lock()

    def step(self) -> bool:
        """Run the next window; False, with no work done, once the spare is
        complete or taken."""
        with self._lock:
            return not self.taken and self.comb.step()

    def take(self) -> Optional[Tuple[_Offline, List[elgamal.Ciphertext]]]:
        """The offline part and its identity slots, finished here, or None
        if a run has taken them already."""
        with self._lock:
            if self.taken:
                return None
            self.taken = True
            return self.offline, elgamal.power_ciphertexts(self.comb.finish())


# The process's spare: filled by any flow's scrypt wait and taken by the
# next decoy of its shape.  Two flows filling at once may replace each
# other's half-built spare; a taken spare is never used again.
_spare: Optional[_Spare] = None


def _fill_spare(group, ell: int, k: int, hashing) -> None:
    """Step the process's spare until ``hashing`` is done or the spare is
    complete, first drawing a fresh one unless it is untaken and of this
    shape."""
    global _spare
    while not hashing.done():
        spare = _spare
        if spare is None or spare.taken or spare.shape != (group, ell, k):
            _spare = _Spare(group, ell, k)
        elif not spare.step():
            return


def _forget_spare() -> None:
    """Drop the spare.  Runs in every forked child, since the parent may
    still send the spare's key."""
    global _spare
    _spare = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_spare)


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
