import math

import numpy as np
from hypothesis import strategies as st

from ifvkit import Ifv, Qrofn, make_ifv, make_qrofn


@st.composite
def ifvs(draw) -> Ifv:
    """Arbitrary valid IFV, biased toward the interior of the simplex."""
    mu = draw(st.floats(0.0, 1.0, allow_nan=False))
    nu = draw(st.floats(0.0, 1.0, allow_nan=False))
    if mu + nu > 1.0:
        # Fold the offending point back inside instead of rejecting.
        mu, nu = 1.0 - nu, 1.0 - mu
    return make_ifv(mu, nu)


@st.composite
def qrofns(draw, q: float) -> Qrofn:
    mu = draw(st.floats(0.0, 1.0, allow_nan=False))
    nu = draw(st.floats(0.0, 1.0, allow_nan=False))
    if mu**q + nu**q > 1.0:
        scale = (mu**q + nu**q) ** (1.0 / q)
        mu, nu = min(1.0, mu / scale), min(1.0, nu / scale)
    return make_qrofn(mu, nu, q)


@st.composite
def near_ties(draw, a: Ifv, eps: float) -> Ifv:
    """An IFV one order key of which differs from a's by 0.5, 1 or 2 eps.

    Each move shifts one key (score, L or accuracy) by the drawn gap and keeps
    another fixed, so the pair lands inside, on or just outside the band in
    which cmp calls keys tied.  Moves off the domain are clipped back.
    """
    d = draw(st.sampled_from([0.5, 1.0, 2.0])) * eps * draw(st.sampled_from([-1.0, 1.0]))
    room = 2.0 - a.mu - a.nu
    mu, nu = {
        "score": (a.mu + d / 2, a.nu - d / 2),  # accuracy kept
        "accuracy": (a.mu + d / 2, a.nu + d / 2),  # score kept
        "l": (a.mu + d * room, a.nu - d * room),  # accuracy kept
        "accuracy at equal l": (a.mu + d * (1.0 - a.mu) / room, a.nu + d * (1.0 - a.nu) / room),
    }[draw(st.sampled_from(["score", "accuracy", "l", "accuracy at equal l"]))]
    mu = min(1.0, max(0.0, mu))
    return make_ifv(mu, min(1.0 - mu, max(0.0, nu)))


def random_ifvs(rng: np.random.Generator, n: int) -> list[Ifv]:
    """n uniform IFVs on the triangle mu + nu <= 1."""
    u = rng.random(n)
    v = rng.random(n)
    flip = u + v > 1.0
    u[flip], v[flip] = 1.0 - v[flip], 1.0 - u[flip]
    return [make_ifv(mu, nu) for mu, nu in zip(u, v)]


def random_qrofns(rng: np.random.Generator, n: int, q: float) -> list[Qrofn]:
    """n q-ROFNs at rung q, uniform on the powered triangle after transport."""
    return [
        make_qrofn(a.mu ** (1.0 / q), a.nu ** (1.0 / q), q)
        for a in random_ifvs(rng, n)
    ]


def well_separated(values, tol: float = 1e-7) -> bool:
    """True when no two order keys differ by a nonzero amount below tol.

    Comparator equality is tolerance-based, so pairs straddling the eps_order
    band are legitimately resolved either way; property tests skip that
    adversarial sliver and assert tight bounds everywhere else.
    """
    from ifvkit import accuracy, score, similarity_l

    for key in (score, accuracy, similarity_l):
        ks = [key(v) for v in values]
        for i, x in enumerate(ks):
            for y in ks[i + 1 :]:
                if 0.0 < abs(x - y) < tol:
                    return False
    return True


def near_corner(a, band: float = 1e-6) -> bool:
    """True in the sliver just inside the top/bottom corners but outside the
    endpoint branch bands, where the order bridge's derivative blows up and
    tight componentwise tolerances cannot hold."""
    return (0.0 < 1.0 - a.mu < band) or (0.0 < 1.0 - a.nu < band)


def components_close(a, b, tol: float) -> bool:
    return math.isclose(a.mu, b.mu, abs_tol=tol) and math.isclose(a.nu, b.nu, abs_tol=tol)
