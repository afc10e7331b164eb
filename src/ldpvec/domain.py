"""Domain model for sparse ternary vectors and per-user hash seeds.

A user's datum is a d-dimensional vector in {-1, 0, +1} with exactly s
non-zero entries.  Each non-zero entry is identified with one of 2d
*events*: dimension j carries the event ``j_minus`` (value -1) or
``j_plus`` (value +1).  Events are encoded as integers in 1..2d.

Each user's hash functions are a keyed 64-bit pseudorandom function
(splitmix64 finaliser) of one uint64 seed, so every experiment is
bit-reproducible from a single master seed.  Two evaluation layouts exist:

  * ``single``: one hash H mapping event codes into buckets 1..t.
  * ``paired``: a dimension hash H1 into half-buckets 1..t/2 plus a sign
    hash H2 into {-1, +1}; together they orient each dimension's two
    events onto the bucket pair (k, k + t/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB

# Stream constants separate the independent hash roles derived from one seed.
_STREAM_USER = 0x8AE6_55D1_1D90_2A31
_STREAM_SINGLE = 0x243F_6A88_85A3_08D3
_STREAM_H1 = 0x1319_8A2E_0370_7344
_STREAM_H2 = 0xA409_3822_299F_31D0


def _mix64_np(x: np.ndarray) -> np.ndarray:
    """splitmix64 finaliser vectorised over uint64 arrays."""
    with np.errstate(over="ignore"):
        x = x + np.uint64(_GOLDEN)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(_MUL1)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(_MUL2)
        return x ^ (x >> np.uint64(31))


class EventId(NamedTuple):
    """A sign-specific presence event: dimension ``index`` took ``sign``."""

    index: int
    sign: int

    @property
    def code(self) -> int:
        """Integer encoding: (j, -1) -> 2j-1, (j, +1) -> 2j."""
        return event_code(self.index, self.sign)

    @classmethod
    def from_code(cls, code: int) -> "EventId":
        if code < 1:
            raise ValueError(f"event code must be >= 1, got {code}")
        index = (code + 1) // 2
        sign = 1 if code % 2 == 0 else -1
        return cls(index, sign)


def event_code(index: int, sign: int) -> int:
    return 2 * index - 1 + (1 if sign > 0 else 0)


@dataclass(frozen=True)
class TernaryVector:
    """A d-dimensional vector in {-1,0,+1}^d with non-zero support.

    ``support`` lists (index, sign) pairs with strictly increasing
    1-based indices; its length is the sparsity s.
    """

    d: int
    support: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be positive")
        s = len(self.support)
        if not 1 <= s <= self.d:
            raise ValueError(f"support size {s} outside 1..d={self.d}")
        prev = 0
        for index, sign in self.support:
            if not 1 <= index <= self.d:
                raise ValueError(f"index {index} outside 1..{self.d}")
            if index <= prev:
                raise ValueError("support indices must be strictly increasing")
            if sign not in (-1, 1):
                raise ValueError(f"sign must be -1 or +1, got {sign}")
            prev = index

    @property
    def s(self) -> int:
        return len(self.support)

    def event_set(self) -> frozenset[EventId]:
        return frozenset(EventId(j, b) for j, b in self.support)

    def event_codes(self) -> tuple[int, ...]:
        return tuple(event_code(j, b) for j, b in self.support)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.d, dtype=np.int8)
        for j, b in self.support:
            dense[j - 1] = b
        return dense

    @classmethod
    def from_dense(cls, values: Sequence[int]) -> "TernaryVector":
        support = []
        for i, v in enumerate(values):
            if v == 0:
                continue
            if v not in (-1, 1):
                raise ValueError(f"entries must be ternary, got {v}")
            support.append((i + 1, int(v)))
        return cls(d=len(values), support=tuple(support))


@dataclass(frozen=True)
class MechanismParams:
    """Shared mechanism parameters (d, s, epsilon, t).

    Mechanism-specific constraints (t > s for the single-hash randomizer,
    even t >= 2s+2 for the paired one) are checked by the mechanisms.
    """

    d: int
    s: int
    epsilon: float
    t: int

    def __post_init__(self):
        if self.d < 1 or self.s < 1 or self.s > self.d:
            raise ValueError(f"need 1 <= s <= d, got s={self.s}, d={self.d}")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        exp_budget(self.epsilon, self.s)
        if not 1 <= self.t < 2**63:  # buckets are returned as int64
            raise ValueError(f"t must be an integer in 1..2^63-1, got {self.t}")


def exp_budget(epsilon: float, scale: float = 1.0) -> float:
    """scale * e^epsilon, with a budget too large for a float as a ValueError."""
    try:
        value = scale * math.exp(epsilon)
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise ValueError(f"epsilon={epsilon} is too large: e^epsilon overflows float arithmetic")
    return value


def check_integer(**arrays) -> None:
    """Reject, by dtype alone, any named array that does not hold integers."""
    for name, values in arrays.items():
        dtype = np.asarray(values).dtype
        if not np.issubdtype(dtype, np.integer):
            raise ValueError(f"{name} must be an integer array, got dtype {dtype}")


def check_batch(supports: np.ndarray, signs: np.ndarray, params) -> None:
    """Reject a malformed batch of (n, s) supports and signs in O(n*s)."""
    check_integer(supports=supports, signs=signs)
    if supports.ndim != 2 or supports.shape[1] != params.s:
        raise ValueError(f"supports must have shape (n, {params.s}), got {supports.shape}")
    if signs.shape != supports.shape:
        raise ValueError(f"signs shape {signs.shape} differs from supports shape {supports.shape}")
    if supports.size and (supports.min() < 1 or supports.max() > params.d):
        raise ValueError(f"support dimensions must lie in 1..{params.d}")
    if (supports[:, 1:] <= supports[:, :-1]).any():
        raise ValueError("support dimensions must be strictly ascending in every row")
    if not (np.abs(signs) == 1).all():
        raise ValueError("signs must be -1 or +1")


def user_hash_seeds(master_seed: int, n: int) -> np.ndarray:
    """Hash seeds of users 0..n-1, derived from one master seed."""
    idx = np.arange(n, dtype=np.uint64) ^ np.uint64(_STREAM_USER)
    base = _mix64_np(np.array(master_seed & _MASK64, dtype=np.uint64))
    return _mix64_np(base ^ _mix64_np(idx))


def hash_buckets(seeds: np.ndarray, codes: np.ndarray, t: int) -> np.ndarray:
    """Single-layout hash of event ``codes`` under each of ``seeds``.

    Broadcasts seeds against codes; returns buckets in 1..t as int64.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    mixed = _mix64_np(np.asarray(codes, dtype=np.uint64) ^ np.uint64(_STREAM_SINGLE & _MASK64))
    vals = _mix64_np(seeds ^ mixed)
    return (vals % np.uint64(t)).astype(np.int64) + 1


def pair_slots(seeds: np.ndarray, dims: np.ndarray, t: int) -> np.ndarray:
    """Paired-layout H1 of ``dims`` (1-based) under each seed; in 1..t/2."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    mixed = _mix64_np(np.asarray(dims, dtype=np.uint64) ^ np.uint64(_STREAM_H1 & _MASK64))
    vals = _mix64_np(seeds ^ mixed)
    return (vals % np.uint64(t // 2)).astype(np.int64) + 1


def pair_signs(seeds: np.ndarray, dims: np.ndarray) -> np.ndarray:
    """Paired-layout H2(j_plus) of ``dims`` under each seed; in {-1,+1}."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    mixed = _mix64_np(np.asarray(dims, dtype=np.uint64) ^ np.uint64(_STREAM_H2 & _MASK64))
    vals = _mix64_np(seeds ^ mixed)
    return np.where(vals & np.uint64(1), 1, -1).astype(np.int64, copy=False)


def discretize_ternary(values: Sequence[float], rng: np.random.Generator) -> TernaryVector:
    """Max-min normalise real values into [-1, 1], then round stochastically.

    Each normalised v becomes sign(v) with probability |v| and 0 otherwise,
    so expectations are preserved.  The realised sparsity is random; raises
    if every entry rounds to zero (the domain requires s >= 1).
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("values must be a non-empty 1-d sequence")
    lo, hi = arr.min(), arr.max()
    if hi > lo:
        norm = 2.0 * (arr - lo) / (hi - lo) - 1.0
    else:
        norm = np.zeros_like(arr)
    keep = rng.random(arr.size) < np.abs(norm)
    dense = np.where(keep, np.sign(norm), 0.0).astype(int)
    if not dense.any():
        raise ValueError("all entries rounded to zero; no valid sparse vector")
    return TernaryVector.from_dense(dense)
