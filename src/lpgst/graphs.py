"""Undirected simple graphs, path construction, and Laplacian assembly.

Vertex labels are 1-based everywhere at the interface; the Laplacian is
built with exact integer entries and only widened to float by callers
that need spectra.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .spectra import check_vertex_count


class GraphParseError(ValueError):
    """Raised on malformed edge-list input; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 1..n."""

    n: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"vertex count must be positive, got {self.n}")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u < v <= self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")

    @property
    def degree_sequence(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u - 1] += 1
            deg[v - 1] += 1
        return deg


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def make_path(n: int) -> Graph:
    """Path graph on n >= 2 vertices with consecutive labels adjacent."""
    if n < 2:
        raise ValueError(f"path needs at least 2 vertices, got {n}")
    return Graph(n, frozenset((k, k + 1) for k in range(1, n)))


def laplacian(g: Graph) -> np.ndarray:
    """Integer Laplacian L = D - A of g (dtype int64, rows sum to zero)."""
    lap = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v in g.edges:
        i, j = u - 1, v - 1
        lap[i, j] = -1
        lap[j, i] = -1
        lap[i, i] += 1
        lap[j, j] += 1
    return lap


def parse_graph(source: str | Iterable[str]) -> Graph:
    """Parse the edge-list format: "n <count>" then "e <u> <v>" lines.

    source is the whole text or its lines, such as an open text file, which
    is read one line at a time. Either way lines are split as
    str.splitlines splits them. Lines starting with "#" are comments; blank
    lines are skipped. Raises GraphParseError with the offending line
    number, and the ValueError of spectra.check_vertex_count as soon as the
    header asks for more vertices than a spectrum is built for, before any
    line after it is read.
    """
    if isinstance(source, str):
        source = [source]
    lines = (line for chunk in source for line in chunk.splitlines())
    n = None
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if n is None:
            if fields[0] != "n" or len(fields) != 2:
                raise GraphParseError(
                    f"expected 'n <count>' header, got {line!r}", lineno)
            try:
                n = int(fields[1])
            except ValueError:
                raise GraphParseError(
                    f"vertex count {fields[1]!r} is not an integer", lineno) from None
            if n < 1:
                raise GraphParseError(f"vertex count must be positive, got {n}", lineno)
            check_vertex_count(n)
            continue
        if fields[0] != "e" or len(fields) != 3:
            raise GraphParseError(f"expected 'e <u> <v>', got {line!r}", lineno)
        try:
            u, v = int(fields[1]), int(fields[2])
        except ValueError:
            raise GraphParseError(f"non-integer vertex label in {line!r}", lineno) from None
        if u == v:
            raise GraphParseError(f"self-loop at vertex {u}", lineno)
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphParseError(f"label out of range 1..{n} in edge ({u},{v})", lineno)
        edge = _normalize_edge(u, v)
        if edge in edges:
            raise GraphParseError(f"duplicate edge ({edge[0]},{edge[1]})", lineno)
        edges.add(edge)
    if n is None:
        raise GraphParseError("missing 'n <count>' header", 1)
    return Graph(n, frozenset(edges))


def serialize_graph(g: Graph) -> str:
    """Canonical edge-list text: header then edges in sorted order."""
    lines = [f"n {g.n}"]
    lines.extend(f"e {u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"
