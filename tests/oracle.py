"""Brute-force enumeration oracle used to cross-check the package.

Everything here is computed from first principles with raw Fractions and
dicts. Nothing imports the package under test, so agreement between these
functions and the real implementation is meaningful evidence rather than
a tautology.

Conventions: an atom is a tuple (d, dec, box) where d indexes the prior
support, dec is 1 for taking only the opaque box, and box is 1 when the
opaque box was filled. The predictor fills the box with probability
omega_d, and the subject's own choice is an independent flip of the same
coin.
"""

from __future__ import annotations

from fractions import Fraction


def normalize(pairs):
    """Raw nonnegative weights as {outcome: probability}, in first-occurrence
    order. Duplicates merge and zero-weight outcomes drop."""
    merged = {}
    for outcome, w in pairs:
        merged[outcome] = merged.get(outcome, Fraction(0)) + Fraction(w)
    total = sum(merged.values(), Fraction(0))
    return {x: w / total for x, w in merged.items() if w}


def condition(dist, pred):
    """{outcome: probability} restricted to pred and rescaled to mass 1."""
    mass = event_prob(dist, pred)
    return {x: w / mass for x, w in dist.items() if pred(x)}


def pushforward(dist, f):
    image = {}
    for x, w in dist.items():
        image[f(x)] = image.get(f(x), Fraction(0)) + w
    return image


def expectation(dist, f):
    return sum((w * f(x) for x, w in dist.items()), Fraction(0))


def enumerate_joint(support):
    """Weight of every (d, dec, box) atom, as a dict. Zero atoms omitted.

    support: iterable of (omega, weight) pairs with positive weights
    summing to 1.
    """
    atoms = {}
    for d, (omega, q) in enumerate(support):
        for dec in (0, 1):
            p_dec = omega if dec else 1 - omega
            for box in (0, 1):
                p_box = omega if box else 1 - omega
                w = q * p_dec * p_box
                if w:
                    key = (d, dec, box)
                    atoms[key] = atoms.get(key, Fraction(0)) + w
    return atoms


def event_prob(atoms, pred):
    return sum((w for a, w in atoms.items() if pred(a)), Fraction(0))


def conditional_prob(atoms, given, target):
    """P(target | given) by direct ratio of atom masses."""
    denom = event_prob(atoms, given)
    if denom == 0:
        raise ZeroDivisionError("conditioning event has zero mass")
    numer = sum(
        (w for a, w in atoms.items() if given(a) and target(a)), Fraction(0)
    )
    return numer / denom


def prior_mean(support):
    return sum((q * omega for omega, q in support), Fraction(0))


def prior_variance(support):
    m = prior_mean(support)
    m2 = sum((q * omega * omega for omega, q in support), Fraction(0))
    return m2 - m * m


def posterior_full(support, dec):
    """P(box full | subject's decision), from the enumerated joint."""
    atoms = enumerate_joint(support)
    return conditional_prob(atoms, lambda a: a[1] == dec, lambda a: a[2] == 1)


def expected_reward(support, dec, small, large):
    """E[payout | decision]. dec=1 takes only the opaque box."""
    full = posterior_full(support, dec)
    if dec:
        return large * full
    return large * full + small


def preferred(support, small, large):
    """'onebox', 'twobox', or 'indifferent' by comparing expectations."""
    one = expected_reward(support, 1, small, large)
    two = expected_reward(support, 0, small, large)
    if one > two:
        return "onebox"
    if two > one:
        return "twobox"
    return "indifferent"


def authority(support, omega_value):
    """P(dec = onebox | omega = omega_value) from the joint."""
    atoms = enumerate_joint(support)
    idx = [d for d, (omega, _) in enumerate(support) if omega == omega_value]
    if not idx:
        raise KeyError(omega_value)
    which = set(idx)
    return conditional_prob(atoms, lambda a: a[0] in which, lambda a: a[1] == 1)


def coarsen_support(support, blocks):
    """Merge fine support blocks into the induced coarse support.

    blocks: iterable of lists of 0-based fine indices, a partition of
    range(len(support)). Returns (omega, weight) pairs, one per block,
    with equal block means merged.
    """
    merged = {}
    for block in blocks:
        w = sum((support[i][1] for i in block), Fraction(0))
        mean = sum((support[i][1] * support[i][0] for i in block), Fraction(0)) / w
        merged[mean] = merged.get(mean, Fraction(0)) + w
    return sorted(merged.items())


def expected_conditional_variance(support, blocks):
    total = Fraction(0)
    for block in blocks:
        w = sum((support[i][1] for i in block), Fraction(0))
        sub = [(support[i][0], support[i][1] / w) for i in block]
        total += w * prior_variance(sub)
    return total


def omniscience_bound(support, delta):
    p = prior_mean(support)
    return (1 - delta) ** 2 * (p - delta) - p * p


def is_delta_omniscient(support, delta):
    return all(not (delta < omega < 1 - delta) for omega, _ in support)


def adversarial_target(beliefs):
    """0-based index of the first belief <= 1/n. Raises if none exists."""
    n = len(beliefs)
    for i, pi in enumerate(beliefs):
        if pi <= Fraction(1, n):
            return i
    raise AssertionError("pigeonhole violated: no belief <= 1/n")


def count_cells_loop(u, cum, omega, counts):
    """Plain-loop tally, the reference for kernels.count_cells_numpy.

    Same arguments and in-place accumulation: u is a (3, m) block of
    uniforms, cum the cumulative weights, omega the support, counts an
    (n, 2, 2) tensor. The binary search reproduces
    searchsorted(side="right") exactly.
    """
    n = len(cum)
    for j in range(len(u[0])):
        x = u[0][j]
        lo, hi = 0, n
        while lo < hi:
            mid = (lo + hi) // 2
            if cum[mid] > x:
                hi = mid
            else:
                lo = mid + 1
        om = omega[lo]
        dec = 1 if u[1][j] < om else 0
        box = 1 if u[2][j] < om else 0
        counts[lo][dec][box] += 1
