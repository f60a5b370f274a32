import math

import numpy as np
from hypothesis import strategies as st

from ifvkit import BOTTOM, TOP, Ifv, NumericPolicy, Qrofn, make_ifv, make_qrofn, xy_to_zx, zx_to_xy


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

    Each move shifts one key (score, the ZX key or accuracy) by the drawn gap
    and keeps another fixed, so the pair lands inside, on or just outside the
    band in which cmp calls keys tied.  The ZX key is the score of the
    zx_to_xy image, and the isomorphism keeps accuracy, so that move shifts
    the image's score and maps back.  Moves off the domain are clipped back.
    """
    d = draw(st.sampled_from([0.5, 1.0, 2.0])) * eps * draw(st.sampled_from([-1.0, 1.0]))
    move = draw(st.sampled_from(["score", "accuracy", "zx key", "accuracy at equal zx key"]))
    if move == "zx key":
        img = zx_to_xy(a)
        mu, nu = img.mu + d / 2, img.nu - d / 2
    else:
        room = 2.0 - a.mu - a.nu
        mu, nu = {
            "score": (a.mu + d / 2, a.nu - d / 2),  # accuracy kept
            "accuracy": (a.mu + d / 2, a.nu + d / 2),  # score kept
            "accuracy at equal zx key": (a.mu + d * (1.0 - a.mu) / room, a.nu + d * (1.0 - a.nu) / room),
        }[move]
    mu = min(1.0, max(0.0, mu))
    b = make_ifv(mu, min(1.0 - mu, max(0.0, nu)))
    return xy_to_zx(b) if move == "zx key" else b


# The corners, the centre and the top of the balanced line, and values one or
# two ulps inside the corners or past the simplex edge, which make_ifv snaps.
CORNERS = [
    BOTTOM,
    TOP,
    make_ifv(0.0, 0.0),
    make_ifv(0.5, 0.5),
    make_ifv(0.9999999999999998, 0.0),
    make_ifv(0.0, 0.9999999999999998),
    make_ifv(1e-300, 1.0),
    make_ifv(1.0, 1e-300),
]

# Any JSON value, small.  Text may hold lone surrogates, which st.text()
# leaves out by default.
json_text = st.text(st.characters() | st.characters(categories=["Cs"]), max_size=4)
any_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | json_text,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(json_text, kids, max_size=3),
    max_leaves=8,
)

# The default comparison tolerance and a wide one.
POLICIES = st.sampled_from([NumericPolicy(), NumericPolicy(eps_order=1e-6)])


@st.composite
def edge_ifvs(draw) -> Ifv:
    """An IFV from ifvs(), CORNERS or the balanced line, or a near tie of one.

    The near ties sit 0.5, 1 or 2 times 1e-9 or 1e-6 from the drawn value, so
    they fall inside, on and just past either tolerance of POLICIES: where the
    maps and negations switch branch and snapping leaves its fast path.
    """
    a = draw(ifvs() | st.sampled_from(CORNERS) | st.floats(0.0, 0.5).map(lambda t: make_ifv(t, t)))
    if draw(st.booleans()):
        return a
    return draw(near_ties(a, draw(st.sampled_from([1e-9, 1e-6]))))


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
