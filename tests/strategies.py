"""Hypothesis strategies for valid engine inputs."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from newcomb import NewcombScenario, PredictionModel, RefinementModel

unit_fractions = st.fractions(
    min_value=0, max_value=1, max_denominator=12
)

positive_rewards = st.fractions(
    min_value=Fraction(1, 100), max_value=Fraction(10**7), max_denominator=100
)


@st.composite
def prediction_models(draw, max_support: int = 5, require_imperfect: bool = True):
    size = draw(st.integers(min_value=1, max_value=max_support))
    omegas = draw(
        st.sets(unit_fractions, min_size=size, max_size=size)
    )
    weights = draw(
        st.lists(
            st.integers(min_value=1, max_value=20),
            min_size=size,
            max_size=size,
        )
    )
    model = PredictionModel.from_weights(zip(sorted(omegas), weights))
    if require_imperfect and not model.is_imperfect:
        # only all-zero or all-one supports land here; nudge them
        model = PredictionModel.from_weights(
            [(Fraction(1, 2), 1)] + list(model.support)
        )
    return model


# the primes from 29 to 400: below 23 * 23, trial division up to 19 will do
PRIMES = [n for n in range(29, 400) if all(n % d for d in range(2, 20))]


@st.composite
def many_prime_priors(draw, max_support: int = 12):
    """A prior whose omegas and weights carry many distinct prime denominators.

    omega_i = k_i/p_i and weight_i = j_i/q_i for distinct primes p_i, q_i;
    the last weight takes the rest of the mass, so its denominator is
    the product of all the q_i. Each j_i/q_i is at most 1/max_support,
    so the other weights leave it positive.
    """
    size = draw(st.integers(min_value=2, max_value=max_support))
    primes = draw(
        st.lists(
            st.sampled_from(PRIMES),
            min_size=2 * size - 1,
            max_size=2 * size - 1,
            unique=True,
        )
    )
    omegas = [Fraction(draw(st.integers(1, p - 1)), p) for p in primes[:size]]
    weights = [
        Fraction(draw(st.integers(1, q // max_support)), q) for q in primes[size:]
    ]
    weights.append(1 - sum(weights))
    return PredictionModel(tuple(zip(omegas, weights)))


@st.composite
def scenarios(draw, require_imperfect: bool = True):
    return NewcombScenario(
        prediction=draw(prediction_models(require_imperfect=require_imperfect)),
        small_reward=draw(positive_rewards),
        large_reward=draw(positive_rewards),
    )


@st.composite
def refinement_models(draw, max_support: int = 6):
    model = draw(
        prediction_models(max_support=max_support, require_imperfect=False)
    )
    n = len(model.support)
    order = draw(st.permutations(range(n)))
    n_blocks = draw(st.integers(min_value=1, max_value=n))
    if n_blocks > 1:
        cuts = sorted(
            draw(
                st.sets(
                    st.integers(min_value=1, max_value=n - 1),
                    min_size=n_blocks - 1,
                    max_size=n_blocks - 1,
                )
            )
        )
    else:
        cuts = []
    blocks = []
    prev = 0
    for cut in cuts + [n]:
        blocks.append(tuple(order[prev:cut]))
        prev = cut
    return RefinementModel(fine=model, blocks=tuple(blocks))


@st.composite
def belief_vectors(draw, max_boxes: int = 8):
    n = draw(st.integers(min_value=2, max_value=max_boxes))
    raw = draw(
        st.lists(
            st.integers(min_value=1, max_value=30), min_size=n, max_size=n
        )
    )
    total = sum(raw)
    return tuple(Fraction(x, total) for x in raw)
