"""Hypothesis strategies shared by the property tests."""
from hypothesis import strategies as st

from lpgst.graphs import Graph


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 10) -> Graph:
    """Simple graphs on 1..n, every edge set equally likely to be drawn."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph(n, frozenset(edges))


@st.composite
def graphs_with_pairs(draw, min_n: int = 2, max_n: int = 8):
    """A graph with two vertex pairs (each of two distinct vertices)."""
    g = draw(graphs(min_n, max_n))
    vertex = st.integers(1, g.n)
    pair = st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1])
    return g, draw(pair), draw(pair)
