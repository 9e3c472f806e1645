"""Similar-password sets: transform derivatives, honeywords, slow hashing.

A responder never stores the passwords it tests against.  For an account
it keeps digests of (a) derivatives of the real password produced by a
fixed transform cascade and (b) derivatives of d decoy ("honey")
passwords, interleaved round-robin so decoy cover survives truncation.
Digests use scrypt (memory-hard, tunable cost) with a salt derived from
the canonical account identifier, so the querying side can derive the
identical digest for a candidate password on its own.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import random
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from typing import List, Sequence, Tuple

from .errors import StateError

DIGEST_BYTES = 32

_STORE_MAGIC = b"RGSS"
_STORE_VERSION = 1


@dataclass(frozen=True)
class SlowHashParams:
    """Cost parameters for the similar-set hash H (scrypt, parallelism 1)."""

    log2_n: int = 15
    r: int = 8

    @property
    def maxmem(self) -> int:
        return 128 * self.r * ((1 << self.log2_n) + 2) + 16384


DEFAULT_HASH_PARAMS = SlowHashParams()

# Fast profile for tests and benchmarks where hash hardness is irrelevant.
CHEAP_HASH_PARAMS = SlowHashParams(log2_n=4, r=1)


def _account_salt(account_id: str) -> bytes:
    return hashlib.sha256(b"reuseguard/similar-hash|" + account_id.encode()).digest()


def bloom_item(password: str, account_id: str,
               params: SlowHashParams = DEFAULT_HASH_PARAMS) -> bytes:
    """The 32-byte digest under which a password enters the Bloom filter.

    Raises ``ValueError`` for a cost scrypt cannot run.
    """
    try:
        return hashlib.scrypt(
            password.encode(),
            salt=_account_salt(account_id),
            n=1 << params.log2_n,
            r=params.r,
            p=1,
            maxmem=params.maxmem,
            dklen=DIGEST_BYTES,
        )
    except OverflowError as exc:  # a cost too large for a C long
        raise ValueError(f"scrypt cannot run at log2 cost {params.log2_n}: {exc}") from exc


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def bloom_items(passwords: Sequence[str], account_id: str,
                params: SlowHashParams = DEFAULT_HASH_PARAMS) -> List[bytes]:
    """``bloom_item`` of each password, in input order, hashed at once on
    one thread per usable CPU (at most one per password); scrypt releases
    the GIL.  Peak memory is at most that many times ``params.maxmem``:
    32 MiB per thread at the default cost.

    A cost scrypt cannot run raises its ``ValueError`` unwrapped, and the
    hashes still queued are cancelled.
    """
    pool = ThreadPoolExecutor(max(1, min(_usable_cpus(), len(passwords))))
    try:
        return list(pool.map(bloom_item, passwords, repeat(account_id), repeat(params)))
    finally:
        pool.shutdown(cancel_futures=True)


def _case_toggles(pw: str) -> List[str]:
    return [pw.capitalize(), pw.upper(), pw.lower(), pw.swapcase()]


def _digit_step(pw: str) -> List[str]:
    i = len(pw)
    while i > 0 and pw[i - 1].isdigit():
        i -= 1
    if i == len(pw):
        return []
    head, digits = pw[:i], pw[i:]
    value = int(digits)
    out = [head + str(value + 1)]
    if value > 0:
        out.append(head + str(value - 1))
    return out


_SUFFIXES = ["1", "!", "123", "2024", "2023", "2022"]


def _suffix_ops(pw: str) -> List[str]:
    out = [pw + s for s in _SUFFIXES]
    for s in _SUFFIXES:
        if pw.endswith(s) and len(pw) > len(s):
            out.append(pw[: -len(s)])
    return out


_LEET = [("a", "@"), ("a", "4"), ("e", "3"), ("i", "1"), ("o", "0"),
         ("s", "$"), ("s", "5"), ("t", "7")]


def _leet(pw: str) -> List[str]:
    out = []
    low = pw.lower()
    for ch, sub in _LEET:
        if ch in low:
            out.append(pw.replace(ch, sub).replace(ch.upper(), sub))
        if sub in pw:
            out.append(pw.replace(sub, ch))
    return out


_QWERTY_ROWS = ["`1234567890-=", "qwertyuiop[]", "asdfghjkl;'", "zxcvbnm,./"]
_SHIFT_RIGHT = {}
_SHIFT_LEFT = {}
for _row in _QWERTY_ROWS:
    for _j, _ch in enumerate(_row):
        if _j + 1 < len(_row):
            _SHIFT_RIGHT[_ch] = _row[_j + 1]
        if _j > 0:
            _SHIFT_LEFT[_ch] = _row[_j - 1]


def _keyboard_shift(pw: str) -> List[str]:
    def shift(table):
        chars = []
        for ch in pw:
            base = ch.lower()
            if base not in table:
                return None
            chars.append(table[base].upper() if ch.isupper() else table[base])
        return "".join(chars)

    return [v for v in (shift(_SHIFT_RIGHT), shift(_SHIFT_LEFT)) if v]


def _truncate(pw: str) -> List[str]:
    out = []
    if len(pw) > 4:
        out.append(pw[:-1])
        out.append(pw[1:])
    return out


# Cascade ordered by how often each transform shows up in observed reuse:
# capitalization first, then digit suffix steps, suffix edits, leet,
# keyboard shifts, truncation.
DEFAULT_RULES = (_case_toggles, _digit_step, _suffix_ops, _leet,
                 _keyboard_shift, _truncate)


def generate_similar(password: str, budget: int) -> List[str]:
    """Up to ``budget`` deterministic variants, the password itself first."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    out = [password]
    seen = {password}
    frontier = [password]
    # One expansion pass over derivatives is enough for realistic budgets;
    # deeper cascades recurse on first-generation variants.
    while len(out) < budget and frontier:
        next_frontier = []
        for base in frontier:
            for rule in DEFAULT_RULES:
                for variant in rule(base):
                    if variant and variant not in seen:
                        seen.add(variant)
                        out.append(variant)
                        next_frontier.append(variant)
                        if len(out) >= budget:
                            return out
        frontier = next_frontier
    return out[:budget]


# Weighted vocabulary for honeyword bases, highest-frequency first.
_HONEY_VOCAB: List[Tuple[str, int]] = [
    ("password", 95), ("welcome", 60), ("monkey", 58), ("dragon", 57),
    ("sunshine", 54), ("princess", 52), ("football", 50), ("charlie", 48),
    ("shadow", 47), ("michael", 45), ("jessica", 44), ("freedom", 42),
    ("whatever", 40), ("trustno", 38), ("jordan", 37), ("hunter", 36),
    ("ranger", 35), ("buster", 34), ("thomas", 33), ("robert", 32),
    ("soccer", 31), ("batman", 30), ("master", 29), ("killer", 28),
    ("pepper", 27), ("daniel", 26), ("hannah", 25), ("summer", 24),
    ("ashley", 23), ("bailey", 22), ("passw0rd", 21), ("superman", 20),
    ("qwerty", 19), ("flower", 18), ("purple", 17), ("banana", 16),
    ("cheese", 15), ("butterfly", 14), ("chocolate", 13), ("computer", 12),
    ("starwars", 11), ("liverpool", 10), ("basketball", 9), ("baseball", 8),
    ("october", 7), ("november", 6), ("anthony", 5), ("matthew", 4),
    ("midnight", 3), ("tinkerbell", 2),
]

_CONSONANTS = "bcdfghjklmnpqrstvwz"
_VOWELS = "aeiou"
_COMMON_SYMBOLS = "!@#$%&*?."


def _letter_run(length: int, rng: random.Random) -> str:
    candidates = [w for w, _ in _HONEY_VOCAB if len(w) == length]
    if candidates:
        weights = [f for w, f in _HONEY_VOCAB if len(w) == length]
        return rng.choices(candidates, weights=weights)[0]
    word = ""
    while len(word) < length:
        word += rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
    return word[:length]


def _mimic(password: str, rng: random.Random) -> str:
    """A decoy with the same length and character-class layout.

    The trailing run of digits/symbols is kept verbatim: decoys must share
    the user's suffix habits, or the transform cascade would expand real
    and decoy seeds differently and the two halves of the stored set would
    become statistically separable.
    """
    tail_start = len(password)
    while tail_start > 0 and not password[tail_start - 1].isalpha():
        tail_start -= 1
    head, tail = password[:tail_start], password[tail_start:]
    return _mimic_head(head, rng) + tail


def _mimic_head(password: str, rng: random.Random) -> str:
    out = []
    i = 0
    while i < len(password):
        ch = password[i]
        if ch.isalpha():
            j = i
            while j < len(password) and password[j].isalpha():
                j += 1
            word = _letter_run(j - i, rng)
            styled = []
            for k, c in enumerate(word):
                styled.append(c.upper() if password[i + k].isupper() else c)
            out.append("".join(styled))
            i = j
        elif ch.isdigit():
            out.append(str(rng.randrange(10)))
            i += 1
        else:
            out.append(rng.choice(_COMMON_SYMBOLS))
            i += 1
    return "".join(out)


def generate_honey(password: str, d: int, rng_seed: int) -> List[str]:
    """d distinct decoy passwords shaped like the real one."""
    if d < 0:
        raise ValueError("d must be non-negative")
    rng = random.Random(rng_seed)
    out: List[str] = []
    seen = {password}
    while len(out) < d:
        candidate = _mimic(password, rng)
        if candidate not in seen:
            seen.add(candidate)
            out.append(candidate)
    return out


@dataclass(frozen=True)
class SimilarSet:
    """Digest set S_a one responder holds for one account."""

    account_id: str
    entries: Tuple[bytes, ...]
    d: int
    capacity: int


def build_similar_set(account_id: str, password: str, d: int, capacity: int,
                      hash_params: SlowHashParams = DEFAULT_HASH_PARAMS,
                      rng_seed: int = 0) -> SimilarSet:
    """Derivatives of the real password and d honeywords, hashed with H.

    The per-seed variant budget is capacity // (d + 1); variants from the
    d + 1 seeds are interleaved round-robin before hashing so that a
    shorter prefix of the entries still covers every seed.  The variants
    hash at once (``bloom_items``); a digest two variants share keeps the
    earlier one's place.
    """
    if capacity < d + 1:
        raise ValueError("capacity too small to cover all seeds")
    budget = capacity // (d + 1)
    seeds = [password] + generate_honey(password, d, rng_seed)
    variant_lists = [generate_similar(seed, budget) for seed in seeds]
    interleaved: List[str] = []
    for rank in range(budget):
        for variants in variant_lists:
            if rank < len(variants):
                interleaved.append(variants[rank])
    entries = dict.fromkeys(bloom_items(interleaved, account_id, hash_params))
    return SimilarSet(account_id, tuple(entries), d, capacity)


def replace_file(path: str, data: bytes) -> None:
    """Write ``data`` to a tmp file, fsync it and swap it in for ``path``,
    so a crash leaves either the old file or the new one, never half.  A
    failed write, fsync or replace removes the tmp file and re-raises."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):  # open itself may have failed
            os.unlink(tmp)
        raise


def save_similar_set(sset: SimilarSet, path: str) -> None:
    """Flat record: header (account, d, capacity, count) + digest array."""
    account = sset.account_id.encode()
    replace_file(path, b"".join([
        _STORE_MAGIC,
        struct.pack(">BH", _STORE_VERSION, len(account)),
        account,
        struct.pack(">HII", sset.d, sset.capacity, len(sset.entries)),
        *sset.entries,
    ]))


def load_similar_set(path: str) -> SimilarSet:
    """Read a ``save_similar_set`` file; anything else raises ``StateError``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        if data[:4] != _STORE_MAGIC:
            raise ValueError("not a similar-set store")
        version, alen = struct.unpack_from(">BH", data, 4)
        if version != _STORE_VERSION:
            raise ValueError(f"unsupported store version {version}")
        off = 7 + alen
        account = data[7:off].decode()
        d, cap, count = struct.unpack_from(">HII", data, off)
        off += 10
        if len(data) != off + count * DIGEST_BYTES:
            raise ValueError(f"{len(data)} bytes where the header implies "
                             f"{off + count * DIGEST_BYTES}")
    except (ValueError, struct.error) as exc:  # UnicodeDecodeError is a ValueError
        raise StateError(f"{path}: {exc}") from exc
    entries = tuple(data[i:i + DIGEST_BYTES] for i in range(off, len(data), DIGEST_BYTES))
    return SimilarSet(account, entries, d, cap)
