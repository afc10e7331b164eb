"""The law of the shipped hash samplers, read from their breakpoints.

Both hash randomizers draw their symbol by inversion of a CDF (``domain.sample_layout``): for one user, one hash
seed and, for CoCo, one write order, the symbol z is a step function of the uniform u in [0, 1), so its law is the
total length of the u on which it takes each value (L. Devroye, *Non-Uniform Random Variate Generation*, 1986,
ch. 2).  ``sampler_law`` runs the shipped batch randomizer on ``ChosenDraws``, a stand-in generator that returns
chosen u (and CoCo's write ranks), one row per u.  It scans u on a grid, bisects each switch of z between two grid
points down to adjacent floats, and sums the lengths of the pieces; for CoCo it averages over all s! write orders,
which the registered law takes as uniform.  Each symbol sits in one band of the CDF, one interval of u, so a piece
that falls between two grid points lies between two different symbols and the bisection finds it.  The sampler and
the registered law read one layout builder per mechanism (``domain.sample_layout`` and ``domain.layout_law``), so
this checks the inversion against the law; ``exact_reference`` states both laws without ``ldpvec``.
"""

from __future__ import annotations

import itertools

import numpy as np

from ldpvec.coco import coco_randomize_batch
from ldpvec.collision import collision_randomize_batch

GRID = 2**14


class ChosenDraws:
    """Stands in for a ``numpy.random.Generator``: each ``random(size)`` call returns the next chosen array."""

    def __init__(self, *draws: np.ndarray):
        self.draws = list(draws)

    def random(self, size) -> np.ndarray:
        draw = self.draws.pop(0)
        if draw.shape != np.empty(size, dtype=bool).shape:
            raise AssertionError(f"the randomizer drew shape {size}, the chosen draw has shape {draw.shape}")
        return draw


def breakpoint_laws(symbols, samplers: int, t: int, grid: int = GRID) -> np.ndarray:
    """The (samplers, t) laws over z = 1..t of step functions of u on [0, 1); ``symbols(k, u)`` is the symbol of
    sampler k[i] at u[i].  Every breakpoint is the first float at which the new symbol is drawn."""
    k, u = np.repeat(np.arange(samplers), grid), np.tile(np.arange(grid) / grid, samplers)
    z = symbols(k, u)
    starts = [(k[u == 0], u[u == 0], z[u == 0])]  # (sampler, start, symbol) of each piece
    switch = (k[:-1] == k[1:]) & (z[:-1] != z[1:])
    pairs = tuple(a[switch] for a in (k[:-1], u[:-1], u[1:], z[:-1], z[1:]))  # (sampler, lo, hi, z at lo, z at hi)
    while len(pairs[0]):
        kk, lo, hi, zlo, zhi = pairs
        done = np.nextafter(lo, 1.0) >= hi
        starts.append((kk[done], hi[done], zhi[done]))
        kk, lo, hi, zlo, zhi = (a[~done] for a in pairs)
        if not len(lo):
            break
        mid = np.clip(lo + (hi - lo) / 2, np.nextafter(lo, 1.0), np.nextafter(hi, 0.0))
        zm = symbols(kk, mid)
        below, above = zm != zlo, zm != zhi  # a switch in (lo, mid], in (mid, hi]; both for a third symbol
        pairs = tuple(np.concatenate(halves) for halves in zip(
            (kk[below], lo[below], mid[below], zlo[below], zm[below]),
            (kk[above], mid[above], hi[above], zm[above], zhi[above]),
        ))
    ks, bs, zs = (np.concatenate(column) for column in zip(*starts))
    order = np.lexsort((bs, ks))
    ks, bs, zs = ks[order], bs[order], zs[order]
    ends = np.append(np.where(ks[1:] == ks[:-1], bs[1:], 1.0), 1.0)
    laws = np.zeros((samplers, t))
    np.add.at(laws, (ks, zs - 1), ends - bs)
    return laws


def sampler_law(mechanism: str, support, signs, seed: int, params, grid: int = GRID) -> np.ndarray:
    """P[z] over z = 1..t of the shipped ``mechanism`` randomizer for one user, x's ascending ``support`` dims and
    their ``signs``, under one hash seed; CoCo's is the mean over all s! write orders."""
    s = len(support)
    orders = np.array(list(itertools.permutations(range(s))), dtype=float)  # write ranks, the last write highest

    def symbols(k: np.ndarray, u: np.ndarray) -> np.ndarray:
        n = len(u)
        batch = np.broadcast_to(support, (n, s)), np.broadcast_to(signs, (n, s)), np.full(n, seed, dtype=np.uint64)
        if mechanism == "collision":
            return collision_randomize_batch(*batch, params, ChosenDraws(u))
        return coco_randomize_batch(*batch, params, ChosenDraws(orders[k], u))

    return breakpoint_laws(symbols, 1 if mechanism == "collision" else len(orders), params.t, grid).mean(axis=0)
