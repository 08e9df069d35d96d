"""Every bound in Figure 1 and Theorem 3.1, as executable formulas.

The figure's columns, left to right, with the paper's attributions:

=================  =============================  ==========================
Name               Formula                        Source
=================  =============================  ==========================
trivial            ``n²``                         Section 2 (one new edge
                                                  per round)
nlogn              ``n · log₂ n``                 [14] / [2]+[1]
loglog             ``2·n·log₂log₂ n + O(n)``      Függer-Nowak-Winkler [9]
new (this paper)   ``⌈(1+√2)·n − 1⌉``             Theorem 3.1 upper bound
k leaves           ``O(k·n)``                     [14], restricted adversary
k inner nodes      ``O(k·n)``                     [14], restricted adversary
lower bound        ``⌈(3n−1)/2⌉ − 2``             [14], Theorem 3.1 lower
static path        ``n − 1``                      Section 2 example
=================  =============================  ==========================

Asymptotic bounds (``O(...)``) carry explicit constants here so they can be
plotted/tabulated; the chosen constants are documented per function and the
benchmark output prints them alongside the exact formulas.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from repro.types import validate_node_count

#: The paper's headline constant ``1 + √2``.
LINEAR_CONSTANT = 1.0 + math.sqrt(2.0)


def lower_bound(n: int) -> int:
    """Zeiner-Schwarz-Schmid lower bound ``⌈(3n−1)/2⌉ − 2`` (Theorem 3.1).

    For very small ``n`` the formula can dip below the trivial facts that
    broadcast takes at least one round for ``n >= 2`` (and zero rounds for
    ``n = 1``, where the sole process has trivially reached everyone);
    we clamp accordingly so the function is usable as a true lower bound
    over the whole range.
    """
    validate_node_count(n)
    if n == 1:
        return 0
    raw = math.ceil((3 * n - 1) / 2) - 2
    return max(raw, 1)


def upper_bound(n: int) -> int:
    """This paper's upper bound ``⌈(1+√2)·n − 1⌉`` (Theorem 3.1)."""
    validate_node_count(n)
    return math.ceil(LINEAR_CONSTANT * n - 1)


def trivial_upper_bound(n: int) -> int:
    """``n²``: at least one new product-graph edge appears per round.

    The product graph starts with ``n`` self-loops and completes no later
    than when all ``n²`` entries are present; ``n²`` is the paper's quoted
    safe cap (Section 2).
    """
    validate_node_count(n)
    return n * n


def resolve_round_cap(n: int, max_rounds: Optional[int] = None) -> Tuple[int, bool]:
    """The one round-cap policy every run driver shares.

    Returns ``(cap, explicit)``:

    * no ``max_rounds`` -- the cap is the trivial ``n²`` bound and
      ``explicit`` is False: any legal adversary must finish by then, so a
      driver hitting this cap should *raise* (the adversary produced
      illegal round graphs);
    * explicit ``max_rounds`` -- the cap is exactly that and ``explicit``
      is True: hitting it truncates the run quietly (``t_star=None``),
      never raises.

    Sourced from :class:`repro.engine.executor.RunSpec` by every executor,
    so the sequential, instrumented, batched, and sharded paths cannot
    drift apart.
    """
    if max_rounds is None:
        return trivial_upper_bound(n), False
    validate_node_count(n)
    return int(max_rounds), True


def static_path_time(n: int) -> int:
    """``n − 1``: broadcast time when the adversary repeats one path."""
    validate_node_count(n)
    return n - 1


def nlogn_upper_bound(n: int) -> int:
    """The ``n·log n`` bound implied by [2] + [1] and shown in [14].

    We use ``⌈n·log₂(n)⌉`` (base 2, the usual convention in this line of
    work); for ``n = 1`` the bound is 0.
    """
    validate_node_count(n)
    if n == 1:
        return 0
    return math.ceil(n * math.log2(n))


def fugger_nowak_winkler_upper_bound(n: int, additive_constant: float = 2.0) -> int:
    """The ``2·n·log₂ log₂ n + O(n)`` bound of [9].

    The ``O(n)`` term's constant is not pinned down in the brief
    announcement; we expose it as ``additive_constant`` (default 2, so the
    bound reads ``2n·log₂log₂n + 2n``) and the benchmark table prints the
    convention.  For ``n <= 2`` (where ``log₂ log₂ n`` is degenerate) the
    trivial ``n²`` bound is returned.
    """
    validate_node_count(n)
    if n <= 2:
        return trivial_upper_bound(n)
    loglog = math.log2(math.log2(n))
    return math.ceil(2 * n * max(loglog, 0.0) + additive_constant * n)


def k_leaves_upper_bound(n: int, k: int, constant: float = 2.0) -> int:
    """``O(k·n)`` bound of [14] for adversaries limited to k-leaf trees.

    Reported as ``constant · k · n`` with an explicit constant (default 2);
    the reproduced claim is the *linearity in n for fixed k*, which the
    restricted-adversary benchmark measures directly.
    """
    validate_node_count(n)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return math.ceil(constant * k * n)


def k_inner_upper_bound(n: int, k: int, constant: float = 2.0) -> int:
    """``O(k·n)`` bound of [14] for adversaries limited to k inner nodes."""
    validate_node_count(n)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return math.ceil(constant * k * n)


def all_bounds(n: int, k: int = 3) -> Dict[str, int]:
    """Every Figure 1 row (plus the lower bound) evaluated at ``n``.

    ``k`` parameterizes the two restricted-adversary rows.
    """
    return {
        "trivial_n_squared": trivial_upper_bound(n),
        "nlogn_zeiner": nlogn_upper_bound(n),
        "loglog_fnw": fugger_nowak_winkler_upper_bound(n),
        "new_linear": upper_bound(n),
        f"k_leaves_k={k}": k_leaves_upper_bound(n, k),
        f"k_inner_k={k}": k_inner_upper_bound(n, k),
        "lower_bound": lower_bound(n),
        "static_path": static_path_time(n),
    }


def crossover_nlogn_vs_linear() -> int:
    """Smallest ``n`` where the new linear bound beats the old ``n log n``.

    The figure's story: the new bound wins asymptotically; this pins down
    where.  ``n log₂ n > (1+√2)n − 1 ⟺ log₂ n > (1+√2) − 1/n``, so the
    crossover is at ``n`` around ``2^2.41 ≈ 5.3``.
    """
    n = 2
    while nlogn_upper_bound(n) <= upper_bound(n):
        n += 1
    return n


def crossover_loglog_vs_linear(additive_constant: float = 2.0) -> int:
    """Smallest ``n`` where the new linear bound beats [9]'s bound.

    ``2n·log₂log₂n + c·n > (1+√2)n − 1`` once ``log₂log₂ n`` exceeds
    roughly ``(1+√2−c)/2``; with the default ``c = 2`` that happens just
    above ``n = 2^(2^0.207) ≈ 2.3``.  The function searches directly so the
    convention stays honest whatever ``c`` is.
    """
    n = 3
    while fugger_nowak_winkler_upper_bound(
        n, additive_constant
    ) <= upper_bound(n):
        n += 1
        if n > 10**7:
            raise RuntimeError(
                "no crossover below 10^7; additive constant makes [9] dominate"
            )
    return n
