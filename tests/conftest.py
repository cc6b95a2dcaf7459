"""Shared hypothesis strategies and helpers for the test-suite.

All randomness is derandomized (hypothesis) or driven by the fixed harness
seed, so runs are reproducible; set CIFORGE_SEED to explore other streams.
"""

import random

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from ciforge.concepts import (
    And,
    Atom,
    BOTTOM,
    Exists,
    TOP,
    make_interpretation,
)

from oracles import harness_seed

settings.register_profile(
    "ciforge",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ciforge")

ATOM_NAMES = ("A", "B")
ROLE_NAMES = ("r", "s")


def concepts(max_depth=3):
    """Arbitrary (possibly non-canonical) concept trees."""
    leaf = st.one_of(
        st.just(TOP),
        st.just(BOTTOM),
        st.sampled_from([Atom(a) for a in ATOM_NAMES]),
    )

    def extend(children):
        return st.one_of(
            st.builds(
                Exists, st.sampled_from(ROLE_NAMES), children
            ),
            st.lists(children, min_size=1, max_size=3).map(
                lambda parts: And(tuple(parts))
            ),
        )

    return st.recursive(leaf, extend, max_leaves=8)


@st.composite
def interpretations(draw, max_elements=5):
    n = draw(st.integers(min_value=1, max_value=max_elements))
    domain = [f"e{k}" for k in range(n)]
    concept_ext = {
        a: draw(st.sets(st.sampled_from(domain))) for a in ATOM_NAMES
    }
    pair = st.tuples(st.sampled_from(domain), st.sampled_from(domain))
    role_ext = {
        r: draw(st.sets(pair, max_size=2 * n)) for r in ROLE_NAMES
    }
    return make_interpretation(domain, concept_ext, role_ext)


@pytest.fixture
def rng():
    return random.Random(harness_seed())
