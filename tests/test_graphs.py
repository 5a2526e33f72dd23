import io

import numpy as np
import pytest
from _strategies import graphs
from hypothesis import given, settings

from lpgst.graphs import (Graph, GraphParseError, laplacian, make_path,
                          parse_graph, serialize_graph)


def test_make_path_smallest():
    g = make_path(2)
    assert g.n == 2
    assert g.edges == frozenset({(1, 2)})


def test_make_path_four():
    assert make_path(4).edges == frozenset({(1, 2), (2, 3), (3, 4)})


def test_make_path_nine_degrees():
    g = make_path(9)
    assert len(g.edges) == 8
    assert g.degree_sequence == [1, 2, 2, 2, 2, 2, 2, 2, 1]


def test_make_path_connected():
    for n in (2, 3, 8, 20):
        g = make_path(n)
        assert len(g.edges) == n - 1
        reached = {1}
        frontier = [1]
        while frontier:
            v = frontier.pop()
            for x, y in g.edges:
                for u in ((y,) if x == v else (x,) if y == v else ()):
                    if u not in reached:
                        reached.add(u)
                        frontier.append(u)
        assert reached == set(range(1, n + 1))


@pytest.mark.parametrize("n", [0, 1, -3])
def test_make_path_too_small(n):
    with pytest.raises(ValueError):
        make_path(n)


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, frozenset({(2, 2)}))


def test_graph_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        Graph(3, frozenset({(1, 4)}))


def test_graph_rejects_no_vertices():
    with pytest.raises(ValueError, match="vertex count must be positive, got 0"):
        Graph(0)


def test_laplacian_single_edge():
    assert np.array_equal(laplacian(make_path(2)), [[1, -1], [-1, 1]])


def test_laplacian_path_three():
    lap = laplacian(make_path(3))
    assert np.array_equal(np.diag(lap), [1, 2, 1])
    assert np.array_equal(lap, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])


def test_laplacian_empty_graph():
    assert np.array_equal(laplacian(Graph(3)), np.zeros((3, 3)))


def test_laplacian_row_sums_exactly_zero():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        edges = {(i, j) for i in range(1, n) for j in range(i + 1, n + 1)
                 if rng.random() < 0.4}
        lap = laplacian(Graph(n, frozenset(edges)))
        assert lap.dtype == np.int64
        assert np.array_equal(lap.sum(axis=1), np.zeros(n))
        assert np.array_equal(lap, lap.T)


def test_parse_graph_basic():
    assert parse_graph("n 3\ne 1 2\ne 2 3") == make_path(3)


def test_parse_graph_comments_and_blanks():
    text = "# header comment\n\nn 4\ne 1 2\n# middle\ne 3 4\n"
    g = parse_graph(text)
    assert g.n == 4
    assert g.edges == frozenset({(1, 2), (3, 4)})


def test_parse_graph_label_out_of_range():
    with pytest.raises(GraphParseError, match="line 2.*out of range"):
        parse_graph("n 2\ne 1 3")


def test_parse_graph_duplicate_edge():
    with pytest.raises(GraphParseError, match="line 3.*duplicate"):
        parse_graph("n 4\ne 1 2\ne 1 2")
    with pytest.raises(GraphParseError, match="duplicate"):
        parse_graph("n 4\ne 1 2\ne 2 1")


def test_parse_graph_missing_header():
    with pytest.raises(GraphParseError, match="header"):
        parse_graph("e 1 2")
    with pytest.raises(GraphParseError):
        parse_graph("# only comments\n")


def test_parse_graph_bad_tokens():
    with pytest.raises(GraphParseError, match="not an integer"):
        parse_graph("n x")
    with pytest.raises(GraphParseError, match="non-integer"):
        parse_graph("n 3\ne 1 two")
    with pytest.raises(GraphParseError, match="self-loop"):
        parse_graph("n 3\ne 2 2")
    with pytest.raises(GraphParseError,
                       match="line 1: vertex count must be positive, got 0"):
        parse_graph("n 0\n")
    with pytest.raises(GraphParseError, match="line 2: expected 'e <u> <v>'"):
        parse_graph("n 3\nx 1 2\n")


def test_parse_graph_reads_no_line_past_a_refused_header():
    def lines():
        yield "# more vertices than a spectrum is built for\n"
        yield "n 3000\n"
        raise AssertionError("a line past the header was read")
    with pytest.raises(ValueError, match="n must be at most 1024"):
        parse_graph(lines())


def test_parse_graph_splits_file_lines_as_text():
    # a form feed ends a line for str.splitlines but not for file iteration
    text = "n 4\n# comment\ne 1 2\x0ce 2 3\n\ne 3 4\n"
    assert parse_graph(io.StringIO(text)) == parse_graph(text) == make_path(4)
    bad = "n 4\ne 1 2\x0ce 2 2\n"
    for source in (bad, io.StringIO(bad)):
        with pytest.raises(GraphParseError, match="line 3: self-loop"):
            parse_graph(source)


@settings(max_examples=200, deadline=None)
@given(graphs(1, 12))
def test_parse_is_left_inverse_of_serialize(g):
    assert parse_graph(serialize_graph(g)) == g
