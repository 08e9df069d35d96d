"""``compose_with_graph`` against the ``bool_product`` reference.

Every backend composes with a general round graph through one shared
implementation, :meth:`repro.core.backend.MatrixBackend.compose_with_graph`
(a float32 matmul, exact because every count is <= n < 2^24).  These
tests pin exact agreement with the int32
:func:`repro.core.matrix.bool_product` reference on both backends across
word boundaries and graph shapes, on 100+ randomized 0/1 matrices up to
n = 256 for the packed layout, plus padding bits, validation behaviour,
and the E6 nonsplit integration under ``REPRO_BACKEND=bitset``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversaries.nonsplit import cyclic_nonsplit_graph
from repro.core import matrix as M
from repro.core.backend import get_backend, use_backend
from repro.errors import DimensionMismatchError, InvalidGraphError

BITSET = get_backend("bitset")


def _random_reflexive(n: int, density: float, rng: np.random.Generator):
    a = rng.random((n, n)) < density
    np.fill_diagonal(a, True)
    return a


def _assert_products_agree(a: np.ndarray, g: np.ndarray) -> None:
    want = M.bool_product(a, g)
    got = BITSET.to_dense(BITSET.compose_with_graph(BITSET.from_dense(a), g))
    np.testing.assert_array_equal(got, want)


class TestRandomizedEquivalence:
    # 3 densities x 34 seeds = 102 randomized cases, n drawn up to 256.
    @pytest.mark.parametrize("density", [0.05, 0.3, 0.8])
    @pytest.mark.parametrize("seed", range(34))
    def test_matches_dense_matmul(self, density, seed):
        rng = np.random.default_rng(10_000 * seed + int(density * 100))
        n = int(rng.integers(1, 257))
        a = rng.random((n, n)) < density
        g = rng.random((n, n)) < density
        _assert_products_agree(a, g)

    @pytest.mark.parametrize(
        "n",
        [1, 2, 63, 64, 65, 127, 128, 129, 255, 256],
        ids=lambda n: f"n{n}",
    )
    def test_word_boundaries(self, n):
        """Sizes straddling the 64-bit word packing boundaries."""
        rng = np.random.default_rng(n)
        _assert_products_agree(
            _random_reflexive(n, 0.4, rng), _random_reflexive(n, 0.4, rng)
        )

    def test_identity_is_neutral(self):
        rng = np.random.default_rng(0)
        a = _random_reflexive(100, 0.3, rng)
        eye = np.eye(100, dtype=np.bool_)
        _assert_products_agree(a, eye)
        np.testing.assert_array_equal(
            BITSET.to_dense(
                BITSET.compose_with_graph(BITSET.from_dense(eye), a)
            ),
            a,
        )

    def test_all_ones_absorbs(self):
        n = 70
        ones = np.ones((n, n), dtype=np.bool_)
        a = _random_reflexive(n, 0.2, np.random.default_rng(1))
        _assert_products_agree(a, ones)
        _assert_products_agree(ones, a)

    def test_empty_graph_composes_to_empty(self):
        # No self-loops in g: x reaches y in R∘G only through g-edges.
        n = 50
        a = _random_reflexive(n, 0.5, np.random.default_rng(2))
        g = np.zeros((n, n), dtype=np.bool_)
        _assert_products_agree(a, g)


def _round_graph(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "cyclic-nonsplit":
        return cyclic_nonsplit_graph(n)
    if kind == "random":
        return _random_reflexive(n, 0.3, rng)
    return np.eye(n, dtype=np.bool_)


class TestComposeWithGraph:
    @pytest.mark.parametrize("backend", ["dense", "bitset"])
    @pytest.mark.parametrize("kind", ["cyclic-nonsplit", "random", "identity"])
    @pytest.mark.parametrize("n", [1, 17, 33, 63, 64, 65, 67, 96, 128, 129])
    def test_matches_bool_product(self, backend, kind, n):
        rng = np.random.default_rng(7000 + n)
        a = _random_reflexive(n, 0.4, rng)
        g = _round_graph(kind, n, rng)
        bk = get_backend(backend)
        got = bk.to_dense(bk.compose_with_graph(bk.from_dense(a), g))
        np.testing.assert_array_equal(got, M.bool_product(a, g))

    def test_padding_bits_stay_zero(self):
        """Composes must never set bits beyond n in the packed words."""
        rng = np.random.default_rng(4)
        n = 67  # 2 words, 61 padding bits
        out = BITSET.compose_with_graph(
            BITSET.from_dense(_random_reflexive(n, 0.5, rng)),
            _random_reflexive(n, 0.5, rng),
        )
        pad_mask = np.uint64((1 << 64) - (1 << (n % 64)))
        assert (out[:, -1] & pad_mask).max() == 0


class TestValidation:
    def test_rejects_non_01_graph(self):
        a = BITSET.identity(4)
        with pytest.raises(InvalidGraphError):
            BITSET.compose_with_graph(a, np.full((4, 4), 2))

    def test_rejects_shape_mismatch(self):
        a = BITSET.identity(4)
        with pytest.raises(DimensionMismatchError):
            BITSET.compose_with_graph(a, np.eye(5, dtype=np.bool_))


class TestNonsplitIntegration:
    def test_apply_graph_cross_backend(self):
        from repro.core.state import BroadcastState

        for n in (5, 33, 64, 90):
            g = cyclic_nonsplit_graph(n)
            dense = BroadcastState.initial(n, backend="dense").apply_graph(g)
            packed = BroadcastState.initial(n, backend="bitset").apply_graph(g)
            np.testing.assert_array_equal(
                dense.reach_matrix, packed.reach_matrix
            )

    def test_e6_experiment_under_bitset(self):
        """The whole nonsplit experiment passes on the packed backend."""
        from repro.experiments import get_experiment

        with use_backend("bitset"):
            table = get_experiment("E6").run()
        assert table.checks_passed
