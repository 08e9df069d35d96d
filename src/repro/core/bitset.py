"""Word-packed bitset backend: 64 matrix entries per ``uint64`` word.

Layout
------
The dense model matrix ``R`` has ``R[x, y] = 1`` iff ``x`` has reached
``y``.  The bitset handle stores the *transpose*, packed: row ``y`` of the
handle is the heard-of set of ``y`` -- a bitset over sources ``x`` -- laid
out little-endian in ``words = ceil(n / 64)`` ``uint64`` words, so a
handle is a ``(n, words)`` ``uint64`` array.  Bits ``n .. 64*words-1``
(the padding) are kept zero by every kernel.

Why the transpose?  Composing with a round tree is, column-wise,
``R'[:, y] = R[:, y] | R[:, parent[y]]`` -- in heard-of space that is
``heard'[y] = heard[y] | heard[parent[y]]``, a *whole-word* OR of two
packed rows selected by a parent gather:

    ``packed | packed[parent]``

one vectorized numpy expression touching ``n * words`` words instead of
``n * n`` bools -- the 64x memory-traffic reduction this backend exists
for.  The broadcast-complete check is equally word-parallel: node ``x``
is a broadcaster iff bit ``x`` survives an AND-reduction of all packed
rows (``x`` is in everyone's heard-of set).

Quantities that genuinely need per-source counts (reach sizes) unpack to
bytes first; they stay vectorized but are O(n^2 / 8) -- still well ahead
of dense, and off the critical path of a plain broadcast run.

The platform is assumed little-endian (x86-64, arm64) so that a
``uint64`` view of ``np.packbits(..., bitorder="little")`` output keeps
bit ``x`` at word ``x // 64``, position ``x % 64``.
"""

from __future__ import annotations

import sys
from typing import Tuple

import numpy as np

from repro.core.backend import MatrixBackend, register_backend

#: Bits per storage word.
WORD_BITS = 64

# np.bitwise_count is numpy >= 2.0; fall back to a byte LUT otherwise.
if hasattr(np, "bitwise_count"):
    def _popcount(words: np.ndarray) -> np.ndarray:
        return np.bitwise_count(words)
else:  # pragma: no cover - exercised only on numpy < 2.0
    _POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

    def _popcount(words: np.ndarray) -> np.ndarray:
        by = words.view(np.uint8).reshape(words.shape + (8,))
        return _POP8[by].sum(axis=-1, dtype=np.uint64)


def words_for(n: int) -> int:
    """Number of ``uint64`` words needed to hold ``n`` bits."""
    return (n + WORD_BITS - 1) // WORD_BITS


def _unpack_bits(packed: np.ndarray, n: int) -> np.ndarray:
    """Unpack the trailing word axis to ``n`` bits (uint8 0/1).

    ``packed`` is ``(..., words)`` uint64; the result is ``(..., n)``.
    """
    contiguous = np.ascontiguousarray(packed)
    by = contiguous.view(np.uint8).reshape(contiguous.shape[:-1] + (-1,))
    return np.unpackbits(by, axis=-1, count=n, bitorder="little")


class BitsetBackend(MatrixBackend):
    """Matrix backend over ``(n, words)`` ``uint64`` packed heard-of sets."""

    name = "bitset"

    # -- construction / conversion ------------------------------------

    def identity(self, n: int) -> np.ndarray:
        mat = np.zeros((n, words_for(n)), dtype=np.uint64)
        idx = np.arange(n)
        mat[idx, idx // WORD_BITS] = np.left_shift(
            np.uint64(1), (idx % WORD_BITS).astype(np.uint64)
        )
        return mat

    def from_dense(self, dense: np.ndarray) -> np.ndarray:
        dense = np.asarray(dense, dtype=np.bool_)
        n = dense.shape[0]
        heard = dense.T  # row y = heard-of set of y, bits over x
        pad = words_for(n) * WORD_BITS - n
        if pad:
            heard = np.concatenate(
                [heard, np.zeros((n, pad), dtype=np.bool_)], axis=1
            )
        packed = np.packbits(heard, axis=1, bitorder="little")
        return np.ascontiguousarray(packed).view(np.uint64)

    def to_dense(self, mat: np.ndarray) -> np.ndarray:
        n = mat.shape[0]
        return _unpack_bits(mat, n).T.astype(np.bool_)

    # -- single-run kernels -------------------------------------------

    def compose_with_tree(self, mat: np.ndarray, parent: np.ndarray) -> np.ndarray:
        return mat | mat[parent]

    def compose_with_tree_inplace(self, mat: np.ndarray, parent: np.ndarray) -> np.ndarray:
        # mat[parent] is a fancy-indexed copy, so writing into mat is safe.
        np.bitwise_or(mat, mat[parent], out=mat)
        return mat

    def or_gather(
        self, mat: np.ndarray, other: np.ndarray, parents: np.ndarray
    ) -> np.ndarray:
        return mat | other[parents]

    def _full_row_words(self, mat: np.ndarray) -> np.ndarray:
        """AND over all heard-of sets: bit ``x`` set iff row ``x`` is full."""
        return np.bitwise_and.reduce(mat, axis=0)

    def reach_sizes(self, mat: np.ndarray) -> np.ndarray:
        n = mat.shape[0]
        return _unpack_bits(mat, n).sum(axis=0, dtype=np.int64)

    def heard_of_sizes(self, mat: np.ndarray) -> np.ndarray:
        return _popcount(mat).sum(axis=1, dtype=np.int64)

    def full_rows(self, mat: np.ndarray) -> np.ndarray:
        n = mat.shape[0]
        return _unpack_bits(self._full_row_words(mat), n).astype(np.bool_)

    def has_broadcaster(self, mat: np.ndarray) -> bool:
        return bool(self._full_row_words(mat).any())

    def broadcasters(self, mat: np.ndarray) -> Tuple[int, ...]:
        return tuple(int(v) for v in np.nonzero(self.full_rows(mat))[0])

    def edge_count(self, mat: np.ndarray) -> int:
        return int(_popcount(mat).sum())

    def row(self, mat: np.ndarray, x: int) -> np.ndarray:
        word, bit = divmod(x, WORD_BITS)
        return ((mat[:, word] >> np.uint64(bit)) & np.uint64(1)).astype(np.bool_)

    def col(self, mat: np.ndarray, y: int) -> np.ndarray:
        n = mat.shape[0]
        return _unpack_bits(mat[y], n).astype(np.bool_)

    def gains_under(self, mat: np.ndarray, parent: np.ndarray) -> np.ndarray:
        n = mat.shape[0]
        new_bits = mat[parent] & ~mat
        return _unpack_bits(new_bits, n).sum(axis=0, dtype=np.int64)

    # -- batched kernels ----------------------------------------------

    def batch_compose_inplace(self, bmat: np.ndarray, parents: np.ndarray) -> np.ndarray:
        # One row gather over the flattened (B*n, words) view: run b's
        # parent rows sit at offset b*n.  The reshape is only read (it
        # copies when bmat is not contiguous); the OR writes into bmat.
        batch, n, words = bmat.shape
        flat = (parents + (np.arange(batch, dtype=np.int64) * n)[:, None]).ravel()
        gathered = np.take(bmat.reshape(batch * n, words), flat, axis=0)
        np.bitwise_or(bmat, gathered.reshape(bmat.shape), out=bmat)
        return bmat

    def batch_compose_from(self, mat: np.ndarray, parents: np.ndarray) -> np.ndarray:
        # mat[parents] is (C, n, words): run c's gather of parent rows.
        return mat[None, :, :] | mat[parents]

    def batch_reach_sizes(self, bmat: np.ndarray) -> np.ndarray:
        n = bmat.shape[1]
        bits = _unpack_bits(bmat, n)
        if n < (1 << 16):
            # Row counts are <= n, so a uint16 accumulator is exact and
            # halves the hot loop's write traffic vs int64.
            return bits.sum(axis=1, dtype=np.uint16).astype(np.int64)
        return bits.sum(axis=1, dtype=np.int64)

    def batch_full_rows(self, bmat: np.ndarray) -> np.ndarray:
        n = bmat.shape[1]
        acc = np.bitwise_and.reduce(bmat, axis=1)
        return _unpack_bits(acc, n).astype(np.bool_)

    def batch_has_broadcaster(self, bmat: np.ndarray) -> np.ndarray:
        return np.bitwise_and.reduce(bmat, axis=1).any(axis=1)

    def batch_edge_count(self, bmat: np.ndarray) -> np.ndarray:
        return _popcount(bmat).sum(axis=(1, 2), dtype=np.int64)


# On a big-endian host the uint64 view of packbits(bitorder="little")
# output would scramble bit positions and silently compute wrong results;
# leave the backend unregistered there so requesting it fails loudly.
if sys.byteorder == "little":
    register_backend(BitsetBackend())

__all__ = [
    "WORD_BITS",
    "BitsetBackend",
    "words_for",
]
