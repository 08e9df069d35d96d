"""Pluggable matrix backends for the product-graph kernels.

Every hot operation of the model -- composing the product graph with a
round tree, counting reach sets, detecting broadcasters -- runs through a
:class:`MatrixBackend`.  Two implementations ship with the library:

* ``dense`` (:class:`DenseBackend`, this module) -- the original
  ``np.bool_`` ``(n, n)`` matrices, delegating to :mod:`repro.core.matrix`;
* ``bitset`` (:class:`~repro.core.bitset.BitsetBackend`) -- rows packed
  64-to-a-word into ``uint64`` so the same kernels run word-parallel,
  roughly ``64x`` less memory traffic per round.

Backends operate on *opaque matrix handles*: a dense handle is a boolean
``(n, n)`` array, a bitset handle is a ``(n, words)`` ``uint64`` array.
Callers that need a plain boolean matrix convert explicitly via
:meth:`MatrixBackend.to_dense`.  Batched variants of the kernels stack a
leading run axis (``(B, n, n)`` / ``(B, n, words)``) and advance ``B``
independent runs in one vectorized step; :class:`repro.engine.batch.BatchRunner`
builds on them.

Selection
---------
The process-wide default comes from, in priority order:

1. :func:`set_default_backend` / the :func:`use_backend` context manager;
2. the ``REPRO_BACKEND`` environment variable (``dense`` or ``bitset``);
3. ``dense``.

APIs that create state (:class:`~repro.core.state.BroadcastState`,
:func:`~repro.core.broadcast.run_sequence`, ...) also accept an explicit
``backend=`` argument (a name or a backend instance).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.errors import BackendError, DimensionMismatchError

#: Environment variable consulted when no default backend was set in-process.
ENV_VAR = "REPRO_BACKEND"


class MatrixBackend:
    """Abstract interface every matrix backend implements.

    A *handle* (``mat``) is whatever array layout the backend uses for one
    reflexive boolean matrix over ``n`` nodes; a *batch handle* (``bmat``)
    stacks ``B`` of them along a leading axis.  Handles must always be
    obtained from this interface (``identity`` / ``from_dense`` / ``copy`` /
    the compose kernels) and are only meaningful to the backend that made
    them.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    # -- construction / conversion ------------------------------------

    def identity(self, n: int) -> np.ndarray:
        """Handle for the identity matrix (``G(0)``)."""
        raise NotImplementedError

    def from_dense(self, dense: np.ndarray) -> np.ndarray:
        """Handle holding a copy of a boolean ``(n, n)`` matrix."""
        raise NotImplementedError

    def to_dense(self, mat: np.ndarray) -> np.ndarray:
        """Fresh boolean ``(n, n)`` matrix with the handle's contents."""
        raise NotImplementedError

    def copy(self, mat: np.ndarray) -> np.ndarray:
        """Independent copy of a handle."""
        return mat.copy()

    def dense_view(self, mat: np.ndarray) -> np.ndarray:
        """Dense boolean matrix for read paths; MAY share storage.

        The dense backend returns a live view; packed backends fall back
        to a fresh conversion.  Callers must not mutate the result.
        """
        return self.to_dense(mat)

    # -- single-run kernels -------------------------------------------

    def compose_with_tree(self, mat: np.ndarray, parent: np.ndarray) -> np.ndarray:
        """New handle for ``R ∘ (tree + self-loops)`` (Definition 2.1)."""
        raise NotImplementedError

    def compose_with_tree_inplace(self, mat: np.ndarray, parent: np.ndarray) -> np.ndarray:
        """In-place variant of :meth:`compose_with_tree`; returns ``mat``."""
        raise NotImplementedError

    def compose_with_graph(self, mat: np.ndarray, dense_graph: np.ndarray) -> np.ndarray:
        """Compose with an arbitrary dense round graph (``A ∘ G``).

        Only the nonsplit experiments take this path, so every backend
        shares one implementation: a float32 matmul of the dense matrix
        with ``G``, thresholded at ``> 0``.  Entry ``(x, y)`` counts the
        ``z`` with ``A[x, z]`` and ``G[z, y]``, at most ``n < 2^24``, so
        float32 is exact and the result equals the int32
        :func:`repro.core.matrix.bool_product` reference, which is
        10-40x slower at ``n >= 64``.
        """
        from repro.core import matrix as M

        g = M.validate_adjacency(dense_graph)
        if g.shape[0] != mat.shape[0]:
            raise DimensionMismatchError(
                f"cannot compose graphs over {mat.shape[0]} and {g.shape[0]} nodes"
            )
        product = self.to_dense(mat).astype(np.float32) @ g.astype(np.float32)
        return self.from_dense(product > 0)

    def or_gather(
        self, mat: np.ndarray, other: np.ndarray, parents: np.ndarray
    ) -> np.ndarray:
        """New handle ``A | (B ∘ J)`` for the jump-pointer squaring ladder.

        ``parents`` is an ``(n,)`` int64 jump array; in heard-of terms the
        result is ``heard'[y] = heard_A[y] | heard_B[parents[y]]``.  With
        ``other is mat`` and ``parents`` a tree's parent row this equals
        :meth:`compose_with_tree`; :func:`repro.core.kernels.static_completion_search`
        uses the two-operand form to combine precomputed tree powers.
        The default routes through dense; both shipped backends override
        with a one-expression gather + OR.
        """
        a = self.to_dense(mat)
        b = self.to_dense(other)
        return self.from_dense(a | b[:, parents])

    def reach_sizes(self, mat: np.ndarray) -> np.ndarray:
        """Row sums: how many nodes each process has reached."""
        raise NotImplementedError

    def heard_of_sizes(self, mat: np.ndarray) -> np.ndarray:
        """Column sums: how many processes reached each node."""
        raise NotImplementedError

    def full_rows(self, mat: np.ndarray) -> np.ndarray:
        """Boolean ``(n,)`` vector marking rows that are all-ones."""
        raise NotImplementedError

    def has_broadcaster(self, mat: np.ndarray) -> bool:
        """True iff some row is all-ones (Definition 2.2's event)."""
        return bool(self.full_rows(mat).any())

    def broadcasters(self, mat: np.ndarray) -> Tuple[int, ...]:
        """All full-row nodes, ascending."""
        return tuple(int(v) for v in np.nonzero(self.full_rows(mat))[0])

    def edge_count(self, mat: np.ndarray) -> int:
        """Total number of edges, self-loops included."""
        raise NotImplementedError

    def row(self, mat: np.ndarray, x: int) -> np.ndarray:
        """Row ``x`` (the reach set of ``x``) as a boolean vector."""
        raise NotImplementedError

    def col(self, mat: np.ndarray, y: int) -> np.ndarray:
        """Column ``y`` (the heard-of set of ``y``) as a boolean vector."""
        raise NotImplementedError

    def gains_under(self, mat: np.ndarray, parent: np.ndarray) -> np.ndarray:
        """Per-node count of new nodes gained if the tree were played."""
        raise NotImplementedError

    def equal(self, a: np.ndarray, b: np.ndarray) -> bool:
        """True iff two handles hold the same matrix."""
        return a.shape == b.shape and bool((a == b).all())

    def matrix_key(self, mat: np.ndarray) -> bytes:
        """Hashable key; identical across backends for the same matrix."""
        from repro.core import matrix as M

        return M.matrix_key(self.to_dense(mat))

    # -- batched kernels (leading run axis) ---------------------------

    def identity_batch(self, batch: int, n: int) -> np.ndarray:
        """Batch handle: ``batch`` copies of the identity."""
        return np.repeat(self.identity(n)[None, ...], batch, axis=0)

    def stack(self, mats: List[np.ndarray]) -> np.ndarray:
        """Batch handle from a list of single-run handles (copies)."""
        return np.stack(mats, axis=0)

    def batch_compose_inplace(self, bmat: np.ndarray, parents: np.ndarray) -> np.ndarray:
        """Advance run ``b`` by the tree ``parents[b]``, for all ``b`` at once.

        ``parents`` is ``(B, n)`` int64; ``parents[b, y] == y`` everywhere
        encodes "no tree this round" (composing with self-loops only is a
        no-op), which is how ragged batches are padded.
        """
        raise NotImplementedError

    def batch_compose_from(self, mat: np.ndarray, parents: np.ndarray) -> np.ndarray:
        """Successors of ONE state under ``C`` candidate trees at once.

        Returns a ``(C, ...)`` batch handle; ``parents`` is ``(C, n)``.
        This is the kernel behind batched greedy/beam scoring.
        """
        raise NotImplementedError

    def batch_reach_sizes(self, bmat: np.ndarray) -> np.ndarray:
        """``(B, n)`` row sums for every run."""
        raise NotImplementedError

    def batch_full_rows(self, bmat: np.ndarray) -> np.ndarray:
        """``(B, n)`` boolean: full rows per run."""
        raise NotImplementedError

    def batch_has_broadcaster(self, bmat: np.ndarray) -> np.ndarray:
        """``(B,)`` boolean: which runs have completed broadcast."""
        return self.batch_full_rows(bmat).any(axis=1)

    def batch_edge_count(self, bmat: np.ndarray) -> np.ndarray:
        """``(B,)`` int64 edge counts."""
        raise NotImplementedError

    def slice_run(self, bmat: np.ndarray, b: int) -> np.ndarray:
        """Single-run handle for run ``b`` -- a VIEW into the batch."""
        return bmat[b]


class DenseBackend(MatrixBackend):
    """The original representation: boolean ``(n, n)`` numpy matrices."""

    name = "dense"

    def identity(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=np.bool_)

    def from_dense(self, dense: np.ndarray) -> np.ndarray:
        return np.array(dense, dtype=np.bool_)

    def to_dense(self, mat: np.ndarray) -> np.ndarray:
        return mat.copy()

    def dense_view(self, mat: np.ndarray) -> np.ndarray:
        return mat.view()

    # Column gathers use np.take: 2-3x faster than fancy indexing
    # ``mat[:, parent]`` from n = 256 on (77 vs 175 us at n = 256).

    def compose_with_tree(self, mat: np.ndarray, parent: np.ndarray) -> np.ndarray:
        return mat | np.take(mat, parent, axis=1)

    def or_gather(
        self, mat: np.ndarray, other: np.ndarray, parents: np.ndarray
    ) -> np.ndarray:
        return mat | np.take(other, parents, axis=1)

    def compose_with_tree_inplace(self, mat: np.ndarray, parent: np.ndarray) -> np.ndarray:
        # np.take returns a copy, so writing into mat is safe.
        np.logical_or(mat, np.take(mat, parent, axis=1), out=mat)
        return mat

    def reach_sizes(self, mat: np.ndarray) -> np.ndarray:
        return mat.sum(axis=1, dtype=np.int64)

    def heard_of_sizes(self, mat: np.ndarray) -> np.ndarray:
        return mat.sum(axis=0, dtype=np.int64)

    def full_rows(self, mat: np.ndarray) -> np.ndarray:
        return mat.all(axis=1)

    def edge_count(self, mat: np.ndarray) -> int:
        return int(mat.sum())

    def row(self, mat: np.ndarray, x: int) -> np.ndarray:
        return mat[x].copy()

    def col(self, mat: np.ndarray, y: int) -> np.ndarray:
        return mat[:, y].copy()

    def gains_under(self, mat: np.ndarray, parent: np.ndarray) -> np.ndarray:
        gains = np.take(mat, parent, axis=1) & ~mat
        return gains.sum(axis=1, dtype=np.int64)

    def batch_compose_inplace(self, bmat: np.ndarray, parents: np.ndarray) -> np.ndarray:
        # One column gather per run: a single gather driven by a
        # broadcast (B, n, n) index measured 5.7x slower at B = 7, n = 256.
        for b in range(bmat.shape[0]):
            self.compose_with_tree_inplace(bmat[b], parents[b])
        return bmat

    def batch_compose_from(self, mat: np.ndarray, parents: np.ndarray) -> np.ndarray:
        # mat[:, parents] is (n, C, n) with [x, c, y] = mat[x, parents[c, y]].
        return mat[None, :, :] | mat[:, parents].transpose(1, 0, 2)

    def batch_reach_sizes(self, bmat: np.ndarray) -> np.ndarray:
        return bmat.sum(axis=2, dtype=np.int64)

    def batch_full_rows(self, bmat: np.ndarray) -> np.ndarray:
        return bmat.all(axis=2)

    def batch_edge_count(self, bmat: np.ndarray) -> np.ndarray:
        return bmat.sum(axis=(1, 2), dtype=np.int64)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

BackendLike = Union[str, MatrixBackend, None]

_REGISTRY: Dict[str, MatrixBackend] = {}
_default_name: Optional[str] = None


def register_backend(backend: MatrixBackend) -> MatrixBackend:
    """Add a backend instance to the registry (keyed by ``backend.name``)."""
    _REGISTRY[backend.name] = backend
    return backend


def available_backends() -> Tuple[str, ...]:
    """Names of all registered backends, sorted."""
    return tuple(sorted(_REGISTRY))


def default_backend_name() -> str:
    """The name the next :func:`get_backend` call would resolve to."""
    if _default_name is not None:
        return _default_name
    return os.environ.get(ENV_VAR, "dense")


def set_default_backend(name: Optional[str]) -> None:
    """Set the process-wide default backend (``None`` re-enables the env var)."""
    if name is not None and name not in _REGISTRY:
        raise BackendError(
            f"unknown backend {name!r}; available: {available_backends()}"
        )
    global _default_name
    _default_name = name


def get_backend(spec: BackendLike = None) -> MatrixBackend:
    """Resolve a backend from a name, an instance, or the default chain."""
    if isinstance(spec, MatrixBackend):
        return spec
    name = spec if spec is not None else default_backend_name()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise BackendError(
            f"unknown backend {name!r}; available: {available_backends()}"
        ) from None


@contextmanager
def use_backend(spec: BackendLike) -> Iterator[MatrixBackend]:
    """Temporarily make ``spec`` the default backend (for tests and sweeps)."""
    backend = get_backend(spec)
    global _default_name
    saved = _default_name
    _default_name = backend.name
    try:
        yield backend
    finally:
        _default_name = saved


register_backend(DenseBackend())

# The bitset backend registers itself on import; importing it here keeps a
# single registry entry point without a circular import (bitset only needs
# MatrixBackend and numpy).
from repro.core import bitset as _bitset  # noqa: E402  (registry side effect)

__all__ = [
    "ENV_VAR",
    "MatrixBackend",
    "DenseBackend",
    "register_backend",
    "available_backends",
    "default_backend_name",
    "set_default_backend",
    "get_backend",
    "use_backend",
]
