"""Arc-endpoint scoring for the cyclic chain-fan family.

:class:`~repro.adversaries.zeiner.CyclicFamilyAdversary` scores every
candidate of its pool under the quadratic potential each round.  Composing
each candidate against the state costs ``O(n²)`` per candidate; this module
gets the same numbers for the *whole* pool in ``O(n²)`` per round, as long
as every reach set is a cyclic interval (an *arc*), which the adversary's
own play maintains.

**The pool as metadata.**  A candidate is ``(backward, s, m, tail)``: the
chain ``s, s±1, …, s±m`` rooted at ``s``, every other node hung off the
root (``tail=False``) or off the chain's last node (``tail=True``); the
rotated cyclic path is ``m = n − 1``.  :class:`ChainFanPool` lists them in
the historical deduplicated generation order; the parent arrays are only
built on demand (:meth:`ChainFanPool.parents`,
:meth:`ChainFanPool.parent_matrix`).

**The piece table.**  Rotate so the chain starts at 0 and runs upward (a
backward candidate is the mirror ``x → −x``, which maps arc ``[a, b]`` to
``[−b, −a]``).  A non-full arc then has an unwrapped start ``a ∈ [1, n]``
(an arc starting at 0 is written as starting at ``n``) and end
``e = a + L − 1``; it holds node 0 iff ``e ≥ n``, in which case it is
``[0, p] ∪ [q, n − 1]`` with ``p = e − n`` and ``q = a``.  Its size after
the move is a step function of the chain length ``m`` with at most three
pieces (:func:`_pieces`):

=============  =================================  ==============================
arc            root anchor                        tail anchor
=============  =================================  ==============================
``0 ∉ R``      ``L`` for ``m ≤ e``, then ``L+1``  ``L`` for ``m < a``,
                                                  ``n−a`` for ``a ≤ m ≤ e``,
                                                  then ``L+1``
``0 ∈ R``      ``n`` for ``m ≤ p+1``,             ``n`` for ``m ≤ p``,
               ``e+1−m`` for ``p+1 < m < q``,     then ``L+1``
               then ``L+1``
=============  =================================  ==============================

The path grows every arc by one unless its end is ``n − 1``; full rows stay
``n``.  Difference arrays over ``m`` then give every candidate's
broadcaster count and ``Σ size²`` at once (:func:`score_arcs`); the third
score component, the largest reach set, is only a tie-break and is
evaluated for the candidates tied on the first two (:func:`select`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

#: Elements per ``(direction, start, row)`` block; bounds the scorer's
#: working set so large ``n`` is scored in slices of starts (1 << 15 was
#: fastest of 1 << 13 .. 1 << 17 at n = 64 and 256 on x86_64).
_BLOCK_ELEMS = 1 << 15

#: The ``backward`` axis, broadcast against ``(start, row)`` arrays.
_BACKWARD = np.array([False, True])[:, None, None]


@dataclass(frozen=True)
class ChainFanPool:
    """The cyclic chain-fan family as candidate metadata.

    Every start ``s`` contributes the same ``k``-entry template
    (``backward``/``length``/``tail``, each ``(k,)``), so candidate ``i``
    is template entry ``i % k`` at start ``i // k``.  The template is in
    the historical deduplicated generation order: forward then backward,
    the cyclic path (``length = n − 1``) followed by the chain-fans of
    every strided chain length, root anchor before tail anchor.  Two rules
    remove exactly the duplicates: the tail-anchored fan with
    ``m = n − 2`` *is* the same-direction path, and the root-anchored
    ``m = 1`` fan is the star at ``s`` in both directions (the backward
    copy is dropped; at ``n = 2`` the backward path is).
    """

    n: int
    m_stride: int
    backward: np.ndarray
    length: np.ndarray
    tail: np.ndarray

    @classmethod
    def build(cls, n: int, m_stride: int) -> "ChainFanPool":
        """The family over ``n`` nodes with chain lengths ``1, 1 + m_stride, …``."""
        template = []
        for backward in (False, True):
            if not (backward and n == 2):
                template.append((backward, n - 1, False))
            for m in range(1, n - 1, m_stride):
                for tail in (False, True):
                    if tail and m == n - 2:
                        continue  # the same-direction cyclic path
                    if backward and not tail and m == 1:
                        continue  # the star at s, already listed forward
                    template.append((backward, m, tail))
        backward, length, tail = (np.array(col) for col in zip(*template))
        return cls(n, m_stride, backward, length.astype(np.int64), tail)

    def __len__(self) -> int:
        return self.n * len(self.length)

    def candidates(self, index: np.ndarray):
        """``(backward, start, length, tail)`` arrays of the candidates ``index``."""
        start, j = np.divmod(np.asarray(index, dtype=np.int64), len(self.length))
        return self.backward[j], start, self.length[j], self.tail[j]

    def parent_matrix(self, index: Optional[np.ndarray] = None) -> np.ndarray:
        """Parent arrays of the candidates ``index`` (all by default), ``(k, n)``."""
        if index is None:
            index = np.arange(len(self))
        backward, start, m, tail = (x[:, None] for x in self.candidates(index))
        n = self.n
        step = np.where(backward, -1, 1)
        j = np.arange(n, dtype=np.int64)[None, :]
        rotated = np.where(j <= m, np.maximum(j - 1, 0), np.where(tail, m, 0))
        out = np.empty((start.shape[0], n), dtype=np.int64)
        np.put_along_axis(
            out, (start + step * j) % n, (start + step * rotated) % n, axis=1
        )
        return out

    def parents(self, i: int) -> np.ndarray:
        """The ``(n,)`` parent array of candidate ``i``."""
        return self.parent_matrix(np.array([i]))[0]


def row_arcs(reach: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``(start, length)`` of every row as a cyclic interval.

    Full rows report start 0.  Returns ``None`` if some row is not a
    cyclic interval (or is empty), in which case the arc scorer does not
    apply.
    """
    reach = np.asarray(reach, dtype=bool)
    n = reach.shape[1]
    lengths = reach.sum(axis=1)
    heads = reach & ~np.roll(reach, 1, axis=1)
    full = lengths == n
    if not np.all(full | (heads.sum(axis=1) == 1)):
        return None
    return np.where(full, 0, heads.argmax(axis=1)), lengths


def _rotated(n: int, backward, start, arc_start, arc_len):
    """Unwrapped ``(a, e)`` of non-full arcs in each candidate's frame.

    All inputs broadcast together; ``a ∈ [1, n]`` and ``e = a + L − 1``.
    """
    a = np.where(
        backward, (start - (arc_start + arc_len - 1)) % n, (arc_start - start) % n
    )
    a = np.where(a == 0, n, a)
    return a, a + arc_len - 1


def _pieces(n: int, a, e, L, tail):
    """The step function ``m → new size`` of non-full arcs.

    Returns ``(x1, x2, v1, v2, k, v3)``: the size is ``v1`` for ``m < x1``,
    ``v2 − k·m`` for ``x1 ≤ m < x2`` and ``v3`` from ``x2`` on (``k`` is 1
    only on the root anchor's linear piece).  ``tail`` broadcasts.
    """
    inside = e >= n
    p1 = e - n + 1
    x1 = np.where(tail, np.where(inside, p1, a), np.where(inside, p1 + 1, e + 1))
    x2 = np.where(inside, np.where(tail, p1, a), e + 1)
    v2 = np.where(tail, n - a, np.where(inside, e + 1, L))
    return x1, x2, np.where(inside, n, L), v2, inside & ~tail, L + 1


def _sizes(n: int, m, tail, a, e, L):
    """New sizes of non-full arcs after the candidates ``(m, tail)``."""
    x1, x2, v1, v2, k, v3 = _pieces(n, a, e, L, tail)
    chain_fan = np.where(m < x1, v1, np.where(m < x2, v2 - k * m, v3))
    return np.where(m == n - 1, L + (e != n - 1), chain_fan)


def _block_tables(n: int, a: np.ndarray, e: np.ndarray, L: np.ndarray):
    """``(counts, sumsq)`` over ``(tail, backward, start, m)`` for a block.

    ``a``/``e`` are ``(2, block, r)`` over ``(backward, start, row)``.
    Each arc's size is the piece table's step function of ``m``: its value
    at ``m = 0`` is summed directly and every later change enters as a
    jump at a piece boundary, so one cumulative sum over ``m`` yields
    every chain length at once.  Slot ``m = n − 1`` holds the path.
    """
    cells = a.shape[0] * a.shape[1]
    base = (np.arange(cells, dtype=np.int64) * n).reshape(a.shape[0], -1, 1)
    m = np.arange(n, dtype=np.float64)
    counts, sumsq = [], []
    for tail in (False, True):
        x1, x2, v1, v2, k, v3 = _pieces(n, a, e, L, tail)
        at1, at2 = ((base + np.minimum(x, n - 1)).ravel() for x in (x1, x2))

        def cumulative(w1, w2, w3):
            """``Σ rows`` of ``w1`` below ``x1``, ``w2`` up to ``x2``, then ``w3``."""
            # bincount sums in float64: exact, as every partial sum is an
            # integer of magnitude below 8n³, far under 2**53.
            acc = np.zeros(cells * n)
            for at, jump in ((at1, w2 - w1), (at2, w3 - w2)):
                acc += np.bincount(
                    at, weights=np.broadcast_to(jump, a.shape).ravel(), minlength=cells * n
                )
            acc = acc.reshape(a.shape[0], -1, n)
            np.cumsum(acc, axis=-1, out=acc)
            return acc + np.broadcast_to(w1, a.shape).sum(axis=-1)[..., None]

        # No middle piece reaches n; squares of the linear one expand as
        # (v2 − m)² = v2² − 2m·v2 + m², so it also needs Σv2 and its rows.
        counts.append(cumulative(v1 == n, 0, v3 == n))
        sq = cumulative(v1 * v1, v2 * v2, v3 * v3)
        if not tail:
            sq -= 2 * m * cumulative(0, k * v2, 0)
            sq += m * m * cumulative(0, k, 0)
        sumsq.append(sq)
    counts, sumsq = np.stack(counts), np.stack(sumsq)
    path = L + (e != n - 1)
    counts[0, :, :, n - 1] = (path == n).sum(axis=-1)
    sumsq[0, :, :, n - 1] = (path * path).sum(axis=-1)
    return counts.astype(np.int64), sumsq.astype(np.int64)


def score_arcs(
    pool: ChainFanPool, arc_start: np.ndarray, arc_len: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Broadcaster count and ``Σ size²`` after every candidate, ``(C,)`` each.

    Equal to the first two components of
    :func:`repro.engine.batch.score_parents_quadratic` on the state whose
    rows are the given arcs.
    """
    n = pool.n
    full = arc_len == n
    base_count = int(full.sum())
    L = arc_len[~full][None, None, :]
    rows = arc_start[~full][None, None, :]
    cell = (pool.tail.astype(np.int64), pool.backward.astype(np.int64))
    k = len(pool.length)
    counts = np.empty((n, k), dtype=np.int64)
    sumsq = np.empty((n, k), dtype=np.int64)
    block = max(1, _BLOCK_ELEMS // (2 * max(1, L.shape[-1])))
    for lo in range(0, n, block):
        starts = np.arange(lo, min(n, lo + block), dtype=np.int64)
        a, e = _rotated(n, _BACKWARD, starts[None, :, None], rows, L)
        c, q = _block_tables(n, a, e, L)
        counts[lo : lo + len(starts)] = c[cell + (slice(None), pool.length)].T
        sumsq[lo : lo + len(starts)] = q[cell + (slice(None), pool.length)].T
    return counts.ravel() + base_count, sumsq.ravel() + base_count * n * n


def _candidate_max(
    pool: ChainFanPool,
    index: np.ndarray,
    arc_start: np.ndarray,
    arc_len: np.ndarray,
) -> np.ndarray:
    """Largest reach set after each candidate in ``index``, ``(k,)``.

    Composing the tied candidates with
    :func:`~repro.engine.batch.score_parents_quadratic` would pick the
    same one, but ties are common late in a run and at its symmetric
    start.  On the bitset backend (2-CPU x86_64) tie-breaking that way
    cost 26–32% of the arc scorer's decision time over whole runs at
    n = 40..56 against 15–17% here, and 15% against 1.4% over the first
    16 rounds at n = 1024, whose first round ties 2048 candidates.
    """
    n = pool.n
    if np.any(arc_len == n):
        return np.full(len(index), n, dtype=np.int64)
    block = max(1, _BLOCK_ELEMS // n)
    out = []
    for lo in range(0, len(index), block):
        backward, start, m, tail = (
            x[:, None] for x in pool.candidates(index[lo : lo + block])
        )
        a, e = _rotated(n, backward, start, arc_start[None, :], arc_len[None, :])
        out.append(_sizes(n, m, tail, a, e, arc_len[None, :]).max(axis=1))
    return np.concatenate(out)


def select(pool: ChainFanPool, arc_start: np.ndarray, arc_len: np.ndarray) -> int:
    """Index of the first candidate minimizing the quadratic-potential score.

    Lexicographic on ``(broadcasters, Σ size², max size)``, ties broken to
    the earliest candidate in pool order -- the same choice as
    ``min(range(C), key=scores.__getitem__)`` over
    :func:`repro.engine.batch.score_parents_quadratic`.
    """
    counts, sumsq = score_arcs(pool, arc_start, arc_len)
    best = counts == counts.min()
    best &= sumsq == sumsq[best].min()
    tied = np.flatnonzero(best)
    if len(tied) == 1:
        return int(tied[0])
    return int(tied[np.argmin(_candidate_max(pool, tied, arc_start, arc_len))])


__all__ = ["ChainFanPool", "row_arcs", "score_arcs", "select"]
