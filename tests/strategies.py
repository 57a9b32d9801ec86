"""Hypothesis strategies shared by the property tests."""

import numpy as np
from conftest import make_graph
from hypothesis import strategies as st


@st.composite
def split_random_graphs(draw, max_n: int = 30):
    """Uniform weights at a drawn density, with no weight between up to three
    parts and some nodes isolated, so binarized graphs have several components."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(1, max_n + 1))  # uniform: st.integers would favour the smallest graphs
    w = np.triu(rng.uniform(0.0, 1.0, size=(n, n)), 1)
    w *= rng.uniform(size=(n, n)) < draw(st.sampled_from([0.1, 0.3, 0.7, 1.0]))
    part = rng.integers(0, draw(st.integers(1, 3)), size=n)
    w *= part[:, None] == part
    isolated = rng.uniform(size=n) < 0.15
    w[isolated, :] = 0.0
    w[:, isolated] = 0.0
    return make_graph(w + w.T)
