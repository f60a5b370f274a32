"""Independent reference computations the benchmark checks outputs against.

The numeric oracles work on plain floats and numpy arrays and share no code
with ifvkit: the similarity of the building-materials example and of the
generated classification requests, and the closed forms of the weighted
aggregators.  The order checks use the library's comparator, because that
comparator defines the orders being checked.
"""

from __future__ import annotations

import math

import numpy as np

# ifvkit's default comparison tolerance (NumericPolicy.eps_order).
EPS_ORDER = 1e-9
# Agreement required between a library value and its closed form.
VALUE_TOL = 1e-9
# The tolerances ifvkit's own round-trip tests use: tight in the interior,
# loose in the sliver next to the top and bottom corners where the order
# isomorphism's derivative blows up.
ROUND_TRIP_TOL = 1e-9
CORNER_TOL = 1e-5
CORNER_BAND = 1e-6


def rho_matrix(u_mu, u_nu, p_mu, p_nu, eps: float = EPS_ORDER) -> np.ndarray:
    """Pointwise distance of one unknown (shape (n,)) to every pattern
    (shape (k, n)): accuracy gap / 3 on equal scores, else (1 + score gap) / 3."""
    s_gap = np.abs((p_mu - p_nu) - (u_mu - u_nu))
    h_gap = np.abs((p_mu + p_nu) - (u_mu + u_nu))
    return np.where(s_gap <= eps, h_gap / 3.0, (1.0 + s_gap) / 3.0)


def similarities(u_mu, u_nu, p_mu, p_nu, weights, eps: float = EPS_ORDER) -> np.ndarray:
    """Weighted similarity 1 - sum_j w_j rho_j of the unknown to each pattern."""
    return 1.0 - rho_matrix(
        np.asarray(u_mu), np.asarray(u_nu), np.asarray(p_mu), np.asarray(p_nu), eps
    ) @ np.asarray(weights)


def ranking(labels, sims) -> list[tuple[str, float]]:
    """Labels by descending similarity, ties by ascending label."""
    return sorted(zip(labels, (float(s) for s in sims)), key=lambda t: (-t[1], t[0]))


def check_classification(labels, sims, ranked) -> str | None:
    """Compare a library ranking ``[(label, similarity), ...]`` with the
    oracle similarities; return a reason on mismatch."""
    expected = dict(zip(labels, (float(s) for s in sims)))
    got = dict(ranked)
    if len(ranked) != len(expected) or set(got) != set(expected):
        return "ranking does not list every pattern exactly once"
    for label, sim in ranked:
        if abs(sim - expected[label]) > VALUE_TOL:
            return f"similarity of {label} is {sim!r}, oracle {expected[label]!r}"
    for (la, sa), (lb, sb) in zip(ranked, ranked[1:]):
        if sa < sb or (sa == sb and la > lb):
            return f"ranking out of order at {la}, {lb}"
    best = ranking(labels, sims)
    contenders = {l for l, s in best if best[0][1] - s <= VALUE_TOL}
    if ranked[0][0] not in contenders:
        return f"winner {ranked[0][0]}, oracle {best[0][0]}"
    return None


def _weighted_product(factors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    return np.prod(np.power(factors, weights), axis=-1)


def ifwa_closed(mu, nu, weights) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise <1 - prod (1 - mu)^w, prod nu^w> for matrices (alternatives x criteria)."""
    mu, nu, w = np.asarray(mu), np.asarray(nu), np.asarray(weights)
    return 1.0 - _weighted_product(1.0 - mu, w), _weighted_product(nu, w)


def ifwg_closed(mu, nu, weights) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise <prod mu^w, 1 - prod (1 - nu)^w>."""
    mu, nu, w = np.asarray(mu), np.asarray(nu), np.asarray(weights)
    return _weighted_product(mu, w), 1.0 - _weighted_product(1.0 - nu, w)


def near_corner(mu: float, nu: float) -> bool:
    return 0.0 < 1.0 - mu < CORNER_BAND or 0.0 < 1.0 - nu < CORNER_BAND


def round_trip_tol(mu: float, nu: float) -> float:
    return CORNER_TOL if near_corner(mu, nu) else ROUND_TRIP_TOL


def close(a, b, tol: float) -> bool:
    """Componentwise agreement of two pairs within ``tol``."""
    return math.isclose(a.mu, b.mu, abs_tol=tol) and math.isclose(a.nu, b.nu, abs_tol=tol)


def first_out_of_order(seq, compare, greater) -> int | None:
    """Index i of the first adjacent pair with compare(seq[i], seq[i+1]) ==
    greater, or None when the sequence is ascending."""
    for i in range(len(seq) - 1):
        if compare(seq[i], seq[i + 1]) is greater:
            return i
    return None
