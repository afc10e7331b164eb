"""Domain model for sparse ternary vectors and per-user hash seeds.

A user's datum is a d-dimensional vector in {-1, 0, +1} with exactly s
non-zero entries.  Each non-zero entry is identified with one of 2d
*events*: dimension j carries the event ``j_minus`` (value -1) or
``j_plus`` (value +1).  Events are encoded as integers in 1..2d.

Each user's hash functions are a keyed 64-bit pseudorandom function
(splitmix64 finaliser) of one uint64 seed, so every experiment is
bit-reproducible from a single master seed: H(v) = mix(seed ^ key(v)), key(v) =
mix(v ^ stream) (``keyed_hashes``, ``stream_keys``), with one stream constant per
hash role.  Every H mod t is H - (H // t) * t (``remainder_inplace``): numpy's ``//``
by a scalar multiplies and shifts, its ``%`` divides per element.  One hash serves two layouts:

  * ``single``: H maps each event code onto its bucket in 1..t.
  * ``paired`` (even t): H maps dimension j onto j_plus's bucket in 1..t, and j_minus
    takes the other member of its bucket pair (k, k + t/2) (``pair_partner``).

Both randomizers call one function (``randomize_layout``): it turns a batch's hashed points into a weighted
layout with a fixed normaliser Omega and emits one bucket by inversion of its CDF (``sample_layout``; Devroye
1986, ch. 2), which fixes its law (``layout_law``): each distinct occupied position holds one bucket per layer
at that layer's weight, and every other bucket an even share of the rest of Omega (``free_weight``).  The
sampler takes a row's entries in any order: it sorts the positions once, runs its passes entries-major over
all rows at once, and resolves the leader (the highest write rank) of the one drawn position only.  The
server's one per-user step is the count of the views whose hash sends each event onto their symbol
(``event_hit_counts``), over cache-sized chunks on a thread pool.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent import futures  # ThreadPoolExecutor loads on first use, not at import
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)

# Stream constants separate the independent hash roles derived from one seed.
_STREAM_USER = 0x8AE6_55D1_1D90_2A31
STREAM_SINGLE = 0x243F_6A88_85A3_08D3
STREAM_H1 = 0x1319_8A2E_0370_7344

FLOAT_MAX = float(np.finfo(float).max)  # the largest float; a Python float compares with an int of any size


def _mix64_inplace(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """splitmix64 finaliser over the uint64 array ``x``, in place; ``tmp`` is scratch of x's shape."""
    np.add(x, _GOLDEN, out=x)
    for shift, mul in ((30, _MUL1), (27, _MUL2)):
        np.right_shift(x, shift, out=tmp)
        np.bitwise_xor(x, tmp, out=x)
        np.multiply(x, mul, out=x)
    np.right_shift(x, 31, out=tmp)
    return np.bitwise_xor(x, tmp, out=x)


class EventId(NamedTuple):
    """A sign-specific presence event: dimension ``index`` took ``sign``."""

    index: int
    sign: int

    @property
    def code(self) -> int:
        return event_code(self.index, self.sign)

    @classmethod
    def from_code(cls, code: int) -> "EventId":
        check_size("code", code)
        return cls((code + 1) // 2, 1 if code % 2 == 0 else -1)


def event_code(index, sign):
    """(j, -1) -> 2j-1, (j, +1) -> 2j, for ints or elementwise over integer arrays."""
    return 2 * index - 1 + (sign > 0)


def is_integer(value) -> bool:
    """Whether ``value`` is an int or a numpy integer scalar; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether ``value`` is a real number (``numbers.Real``, numpy's too); a bool is not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_size(name: str, value, low: int = 1) -> None:
    """Reject a size ``name`` that is not an integer (``is_integer``) >= ``low``."""
    if not is_integer(value):
        raise ValueError(f"{name} must be an integer, got {name}={value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {name}={value}")


def check_budget(epsilon) -> None:
    """Reject a privacy budget that is not a real number > 0; a bool is not one, and nan is not > 0."""
    if not is_real(epsilon):
        raise ValueError(f"epsilon must be a real number, got epsilon={epsilon!r}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got epsilon={epsilon}")


def check_delta(delta) -> None:
    """Reject a failure probability that is not a real number in (0, 1); a bool is not one, and nan is not in it."""
    if not is_real(delta) or not 0 < delta < 1:
        raise ValueError("delta must lie in (0,1)")


def check_sparsity(d, s) -> None:
    """Reject a dimension d and sparsity s that are not integers with 1 <= s <= d."""
    if not (is_integer(d) and is_integer(s)):
        raise ValueError(f"d and s must be integers, got d={d!r}, s={s!r}")
    if not 1 <= s <= d:
        raise ValueError(f"need 1 <= s <= d, got s={s}, d={d}")


def check_master_seed(master_seed) -> None:
    """Reject a master seed that is not an integer in 0..2^64-1: every random stream is keyed by the whole seed."""
    if not is_integer(master_seed):
        raise ValueError(f"master_seed must be an integer, got master_seed={master_seed!r}")
    if not 0 <= master_seed < 1 << 64:
        raise ValueError(f"master_seed must lie in 0..2**64-1, got {master_seed}")


@dataclass(frozen=True)
class TernaryVector:
    """A d-dimensional vector in {-1,0,+1}^d with non-zero support.

    ``support`` lists (index, sign) pairs with strictly increasing 1-based indices; its length is the sparsity s,
    checked with d by ``check_sparsity``.  It is read as one (s, 2) object array, each column a batch row for
    ``read_batch``.
    """

    d: int
    support: tuple[tuple[int, int], ...]

    def __post_init__(self):
        support = np.array(self.support, dtype=object)
        if support.ndim != 2 or support.shape[1] != 2:
            raise ValueError(f"support must be non-empty (index, sign) pairs, got {self.support!r}")
        check_sparsity(self.d, len(support))
        read_batch(support[None, :, 0], support[None, :, 1], self.d, len(support))

    def event_set(self) -> frozenset[EventId]:
        return frozenset(EventId(j, b) for j, b in self.support)


@dataclass(frozen=True)
class MechanismParams:
    """Shared mechanism parameters (d, s, epsilon, t), t the report alphabet's size: an integer, not a bool or a float.

    Mechanism-specific constraints (t > s for the single-hash randomizer,
    even t >= 2s+2 for the paired one) are checked by the mechanisms.
    """

    d: int
    s: int
    epsilon: float
    t: int

    def __post_init__(self):
        check_sparsity(self.d, self.s)
        check_budget(self.epsilon)
        if self.d >= 2**62:
            raise ValueError(f"d must be < 2**62, since event codes 1..2d are int64, got d={self.d}")
        exp_budget(self.epsilon, self.s)
        if not (is_integer(self.t) and 1 <= self.t < 2**63):  # buckets are int64; a huge epsilon's t has ~300 digits
            got = f"about 2^{math.log2(self.t):.1f}" if is_integer(self.t) and self.t >= 2**63 else self.t
            raise ValueError(f"t must be an integer in 1..2^63-1, got {got}")


def exp_budget(epsilon: float, scale: float = 1.0) -> float:
    """scale * e^epsilon, with a budget too large for a float as a ValueError."""
    try:
        value = scale * math.exp(epsilon)
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise ValueError(f"epsilon={epsilon} is too large: e^epsilon overflows float arithmetic")
    return value


def debias_denominator(value: float, message: str) -> float:
    """``value``, or a ValueError with ``message`` when it is too close to 0 to divide by."""
    if abs(value) < 1e-15:
        raise ValueError(message)
    return value


def read_view(name: str, values, low: int, high: int, *, ndim: int) -> np.ndarray:
    """An integer array ``name`` from outside the library (a view, a batch, a randomizer's seeds): non-empty, of ``ndim``
    axes, in low..high, as int64 (uint64 from high >= 2^63).  An ndarray is read by its dtype, anything else (and an
    object array) value by value over ``.flat``, so that numpy's common type neither passes a bool as 1 nor turns
    integers from 2^63 on into floats.  The range is checked on the values as given, before the cast.
    """
    array = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    if array.ndim != ndim:
        raise ValueError(f"{name} must be a {ndim}-d array, got shape {array.shape}")
    if not array.size:
        raise ValueError(f"{name} must be non-empty, got shape {array.shape}")
    if array.dtype == object:
        bad = next((f"value {v!r}" for v in array.flat if not is_integer(v)), None)
    else:
        bad = None if np.issubdtype(array.dtype, np.integer) else f"dtype {array.dtype}"
    if bad:
        raise ValueError(f"{name} must be an integer array, got {bad}")
    lo, hi = array.min(), array.max()
    if lo < low or hi > high:
        raise ValueError(f"{name} must lie in {low}..{'2**64-1' if high == 2**64 - 1 else high}, got values in {lo}..{hi}")
    return array.astype(np.uint64 if high >= 2**63 else np.int64, copy=False)


def read_batch(supports, signs, d: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """A batch of (n, s) supports over dimensions 1..d and their signs -1 or +1, each read by ``read_view``, in O(n*s)."""
    supports, signs = read_view("supports", supports, 1, d, ndim=2), read_view("signs", signs, -1, 1, ndim=2)
    if supports.shape[1] != s:
        raise ValueError(f"supports must have shape (n, {s}), got {supports.shape}")
    if signs.shape != supports.shape:
        raise ValueError(f"signs shape {signs.shape} differs from supports shape {supports.shape}")
    if (supports[:, 1:] <= supports[:, :-1]).any():
        raise ValueError("support dimensions must be strictly ascending in every row")
    if not signs.all():
        raise ValueError("signs must be -1 or +1")
    return supports, signs


# (row x support entry) cells per row chunk of a batch randomizer: a desk-scale batch (n*s = 8e4) is one chunk.
ROW_CHUNK_CELLS = 1 << 17
# (user x hash point) cells per chunk of the hit count, so that each worker's two uint64 buffers for one chunk, 1 MiB
# together, stay in the L2 cache of the core it runs on, for collision's 2d events and CoCo's d dims alike.
HIT_CHUNK_CELLS = 1 << 16


def pool_workers() -> int:
    """The number of CPUs this process may run on: its affinity mask where the OS has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def deal_chunks(work: Callable[[Sequence], object], chunks: Sequence) -> list:
    """``work`` over consecutive runs of ``chunks``, one run per thread (one per CPU the process may use, at most one
    per chunk), as a list in run order; a single run runs on the caller's thread.  A worker's exception reaches the caller.
    """
    workers = min(pool_workers(), len(chunks))
    if workers <= 1:
        return [work(chunks)]
    cuts = [len(chunks) * w // workers for w in range(workers + 1)]
    with futures.ThreadPoolExecutor(workers) as pool:
        return list(pool.map(work, (chunks[lo:hi] for lo, hi in zip(cuts, cuts[1:]))))


def map_rows(rows: Callable[[slice], np.ndarray], n: int, s: int) -> np.ndarray:
    """A pure row function ``rows(slice)`` over chunks of ``ROW_CHUNK_CELLS // s`` of n rows, concatenated in order."""
    step = max(1, ROW_CHUNK_CELLS // s)
    runs = deal_chunks(lambda mine: [rows(slice(lo, lo + step)) for lo in mine], range(0, n, step))
    parts = [part for run in runs for part in run]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)  # copying a lone chunk cost a desk batch ~30%


def user_hash_seeds(master_seed: int, n: int) -> np.ndarray:
    """Hash seeds of users 0..n-1, derived from one master seed (whose key under stream 0 is mix(master))."""
    check_size("n", n, low=0)
    check_master_seed(master_seed)
    return keyed_hashes(stream_keys(master_seed, 0), stream_keys(np.arange(n), _STREAM_USER))


def stream_keys(values, stream: int) -> np.ndarray:
    """Per-value keys mix(value ^ stream) of one hash role, so that H(value) = mix(seed ^ key)."""
    x = np.array(values, dtype=np.uint64)
    return _mix64_inplace(np.bitwise_xor(x, np.uint64(stream), out=x), np.empty_like(x))


def keyed_hashes(seeds, keys: np.ndarray, out=None, tmp=None) -> np.ndarray:
    """mix(seed ^ key) over broadcast seeds and ``keys``, in ``out`` with ``tmp`` as scratch of its shape if given."""
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(seeds), keys.shape), dtype=np.uint64)
        tmp = np.empty_like(out)
    return _mix64_inplace(np.bitwise_xor(np.asarray(seeds, dtype=np.uint64), keys, out=out), tmp)


def remainder_inplace(h: np.ndarray, t: np.uint64, tmp: np.ndarray) -> np.ndarray:
    """h mod t over uint64 ``h`` in place, exact for every t >= 1: (h // t) * t <= h never wraps."""
    return np.subtract(h, np.multiply(np.floor_divide(h, t, out=tmp), t, out=tmp), out=h)


def hash_buckets(seeds: np.ndarray, points: np.ndarray, t: int, stream: int = STREAM_SINGLE) -> np.ndarray:
    """The hash of ``points`` (event codes, or dims under ``STREAM_H1``) under each of ``seeds``.

    Broadcasts seeds against points; returns buckets in 1..t as int64.
    """
    vals = keyed_hashes(seeds, stream_keys(points, stream))
    return remainder_inplace(vals, np.uint64(t), np.empty_like(vals)).astype(np.int64) + 1


def pair_partner(bucket, t: int):
    """The other member of ``bucket``'s pair (k, k + t/2) for even t, for ints or elementwise; never past t."""
    return bucket - t // 2 + t * (bucket <= t // 2)


def event_hit_counts(seeds: np.ndarray, z: np.ndarray, d: int, t: int, paired: bool) -> np.ndarray:
    """Per event code c = 1..2d, the number of views (uint64 ``seeds``, int64 ``z`` in 1..t) whose hash sends c onto z.

    The hash points are event codes 1..2d, or dims 1..d of a ``paired`` layout under ``STREAM_H1``.  Chunks of
    ``HIT_CHUNK_CELLS // points`` users run on a pool started for the call (``deal_chunks``); each worker makes one
    chunk's buffers once and sums its chunks' counts.  Buckets are compared 0-based in uint64, H - 1 = mix(seed ^ key)
    mod t against z - 1; a paired layout also compares with z's partner - 1, for j_minus.  Counts are integers, so
    neither the chunking nor the thread count can change the result.
    """
    keys = stream_keys(np.arange(1, d + 1), STREAM_H1) if paired else stream_keys(np.arange(1, 2 * d + 1), STREAM_SINGLE)
    chunk = max(1, HIT_CHUNK_CELLS // len(keys))

    def count(mine: range) -> np.ndarray:
        vals, tmp = np.empty((2, min(chunk, len(seeds)), len(keys)), dtype=np.uint64)
        hit, counts = np.empty(vals.shape, dtype=bool), np.zeros(2 * d, dtype=np.int64)
        for lo in mine:
            chunk_seeds, chunk_z = seeds[lo : lo + chunk], z[lo : lo + chunk]
            m = len(chunk_seeds)
            v = remainder_inplace(keyed_hashes(chunk_seeds[:, None], keys, vals[:m], tmp[:m]), np.uint64(t), tmp[:m])
            hits = lambda b: np.add.reduce(  # column sums in the smallest type holding m: exact, cheaper than int64
                np.equal(v, (b - 1).astype(np.uint64)[:, None], out=hit[:m]).view(np.uint8), 0, np.min_scalar_type(m))
            if paired:  # (j_minus, j_plus) of each dim
                counts[0::2] += hits(pair_partner(chunk_z, t))
                counts[1::2] += hits(chunk_z)
            else:
                counts += hits(chunk_z)
        return counts

    return sum(deal_chunks(count, range(0, len(seeds), chunk)))


def free_weight(omega: float, layers, m, space: int, s: int):
    """Each free bucket's weight, the rest of Omega, (Omega - m W) / (len(layers) (space - m)) at m occupied positions
    (an int or array m) of rows of s < space points, W the layers' weight sum.  Both mechanisms' Omega make it fall to
    exactly 1 at m = s; one that rounds below 1 there (e^eps absorbing t - s) is a ValueError, whatever m rows hold."""
    if s >= space:
        raise ValueError(f"a layout of {s} points needs more than {s} positions, got {space}")
    total = sum(weight for _, weight in layers)
    if (omega - s * total) / (len(layers) * (space - s)) < 1.0 - 1e-12:
        raise ValueError("weights must lie in [1, e^eps]")
    return (omega - m * total) / (len(layers) * (space - m))


def sample_layout(u: np.ndarray, pos: np.ndarray, layers, omega: float, space: int, write=None) -> np.ndarray:
    """One bucket per row, the inverse CDF of its layout at ``u``, uniform on [0, Omega).

    ``pos`` (n, s) holds each row's occupied positions in 1..``space``, entries in any order; a row has m distinct
    positions.  Each layer (buckets, weight) gives every distinct position the bucket ``buckets`` holds at the entry
    that leads it: the one of highest ``write`` (n, s), the first on a tie, or with no ``write`` the first.  The CDF
    runs through the layers in order, a band of m * weight each, where the idx-th distinct position in ascending order
    takes [idx * weight, (idx + 1) * weight) of the band.  The len(layers) * (space - m) free buckets follow at
    ``free_weight``: free bucket r is free position r mod (space - m), counted past the occupied positions, plus
    r // (space - m) * space.  Entries are sorted by position alone; only the drawn position's leader is looked for.
    """
    srt = np.ascontiguousarray(np.sort(pos.T, axis=0))  # (s, n): row i holds every pos row's i-th smallest entry
    lead = np.ones(srt.shape, dtype=bool)  # an entry that differs from the one before it starts a distinct position
    np.not_equal(srt[1:], srt[:-1], out=lead[1:])
    m = lead.sum(axis=0)
    edges, idx, offset, end = [], None, u, 0.0  # offset: u less the ends of the bands before
    for _, weight in layers:
        band = (offset / weight).astype(np.int64)
        idx = band if idx is None else np.where(u < edges[-1], idx, band)
        end += weight
        edges.append(m * end)
        offset = u - edges[-1]

    free = space - m
    r = (offset / free_weight(omega, layers, m, space, pos.shape[1])).astype(np.int64)
    copy, r = np.divmod(np.maximum(np.minimum(r, len(layers) * free - 1), 0), free)
    z, rank, at, target = r + 1, np.zeros_like(m), np.zeros_like(m), np.minimum(idx, m - 1) + 1
    for row, first in zip(srt, lead):  # positions ascending: the idx-th distinct one, and z past the occupied ones
        rank += first
        np.copyto(at, row, where=first & (rank == target))
        z += first & (row <= z)
    z += copy * space
    hit = pos.T == at
    leader = (hit if write is None else np.where(hit, write.T, -np.inf)).argmax(axis=0)  # the first maximum
    flat = np.arange(len(u)) * pos.shape[1] + leader
    for (buckets, _), edge in zip(layers[::-1], edges[::-1]):
        z = np.where(u < edge, buckets.ravel()[flat], z)
    return z


def randomize_layout(layout: Callable, paired: bool, supports, signs, seeds, params: MechanismParams,
                     rng: np.random.Generator) -> np.ndarray:
    """One symbol per row of a batch, the inverse CDF (``sample_layout``) of the (positions, layers, Omega, space) that
    ``layout(buckets, signs, params)`` builds from the buckets of the rows' event codes, or of their dims under
    ``STREAM_H1`` if ``paired``.  A paired layout's write ranks are drawn before u; the highest, a shared position's
    last writer, leads it.  All draws are made on the calling thread: chunking changes no symbol or generator state."""
    supports, signs = read_batch(supports, signs, params.d, params.s)
    seeds = read_view("seeds", seeds, 0, 2**64 - 1, ndim=1)
    if len(seeds) != len(supports):
        raise ValueError(f"seeds and supports differ in length: {len(seeds)} vs {len(supports)}")
    write, u = rng.random(supports.shape) if paired else None, rng.random(len(supports))

    def rows(r: slice) -> np.ndarray:
        pos, layers, omega, space = layout(hash_buckets(
            seeds[r, None], supports[r] if paired else event_code(supports[r], signs[r]), params.t,
            STREAM_H1 if paired else STREAM_SINGLE), signs[r], params)
        return sample_layout(u[r] * omega, pos, layers, omega, space, None if write is None else write[r])

    return map_rows(rows, *supports.shape)


def layout_law(pos: np.ndarray, layers, omega: float, space: int) -> np.ndarray:
    """``sample_layout``'s law over its len(layers) * space buckets, on a new last axis, with the entry leading each
    position uniform over its g entries.  ``pos`` and the layers' buckets share one shape, entries on the last axis in
    any order and rows (tables, inputs) on the leading ones, each row in the one-row call's float operations.  A bucket
    takes the sum over layers of the weight times its entries there, over g, and a free one ``free_weight``.  Every
    row's weights must sum to Omega."""
    *shape, s = pos.shape
    rows = np.arange(math.prod(shape))[:, None]
    count = lambda keys, size: np.bincount(  # each row's entries on each of 1..size
        (rows * size + keys.reshape(-1, s) - 1).ravel(), minlength=len(rows) * size).reshape(*shape, size)
    g = count(pos, space)
    free = free_weight(omega, layers, (g > 0).sum(axis=-1), space, s)[..., None]
    g = np.tile(g, len(layers))  # per bucket, the entries at its position
    weight = sum(w * count(buckets, len(layers) * space) for buckets, w in layers)
    law = np.where(g > 0, weight / np.maximum(g, 1), free)
    total = law.sum(axis=-1)
    if np.any(abs(total - omega) > 1e-9 * max(1.0, omega)):
        raise ValueError(f"weights sum to {total.flat[np.argmax(abs(total - omega))]}, expected omega={omega}")
    return law / omega
