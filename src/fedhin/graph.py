"""Heterogeneous graph data model and meta-path adjacency computation.

A heterogeneous graph carries typed nodes and typed directed edges,
validated against a declared schema of (source type, relation,
destination type) triples.  A meta path is a sequence of node types;
its adjacency matrix counts the typed walks connecting each node pair
along that sequence and is the structural feature consumed by the
embedding model.

Graphs and adjacencies are immutable after construction and safe to
share read-only across concurrent workers.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

Triple = tuple[str, str, str]

DEFAULT_TYPE_ALPHABET: Mapping[str, str] = {
    "A": "author",
    "P": "paper",
    "V": "venue",
    "T": "term",
}


class GraphError(Exception):
    """Base class for graph construction and validation failures."""


class ParseError(GraphError):
    """Malformed tabular input row.  Carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(GraphError):
    """Structurally well-formed input that violates a graph invariant."""


class SchemaViolation(ValidationError):
    """An edge whose endpoint types match no schema triple."""


class EmptyTypeError(GraphError):
    """A meta path references a node type with no nodes in the graph."""


@dataclass(frozen=True)
class MetaPathSpec:
    """A declared sequence of node types, e.g. author-paper-author."""

    name: str
    type_sequence: tuple[str, ...]

    def __post_init__(self):
        if len(self.type_sequence) < 2:
            raise ValidationError(f"meta path {self.name!r} needs at least two types")

    @classmethod
    def from_string(cls, code: str, alphabet: Mapping[str, str] | None = None) -> "MetaPathSpec":
        """Resolve a string of type initials ("APA") against a type alphabet."""
        alphabet = dict(alphabet) if alphabet is not None else dict(DEFAULT_TYPE_ALPHABET)
        try:
            seq = tuple(alphabet[ch] for ch in code)
        except KeyError as exc:
            raise ValidationError(
                f"meta path {code!r}: initial {exc.args[0]!r} not in type alphabet "
                f"{sorted(alphabet)}"
            ) from None
        return cls(name=code, type_sequence=seq)

    def validate_against(self, graph: "HeterogeneousGraph") -> None:
        """Check every type exists in the graph and every hop has a schema relation."""
        for t in self.type_sequence:
            if graph.type_count(t) == 0:
                raise EmptyTypeError(f"meta path {self.name!r}: no nodes of type {t!r}")
        for a, b in zip(self.type_sequence, self.type_sequence[1:]):
            if not graph.schema_has_pair(a, b):
                raise SchemaViolation(
                    f"meta path {self.name!r}: schema has no relation from {a!r} to {b!r}"
                )

    def validate_for_target(self, target_type: str) -> None:
        """Paths used for target-node embeddings must start and end at the target type."""
        if self.type_sequence[0] != target_type or self.type_sequence[-1] != target_type:
            raise ValidationError(
                f"meta path {self.name!r} must start and end at target type "
                f"{target_type!r}, got {self.type_sequence[0]!r}..{self.type_sequence[-1]!r}"
            )


class HeterogeneousGraph:
    """Typed nodes, typed directed edges, and the schema they must satisfy.

    Node ids are dense integers 0..N-1.  Labels (class indices >= 0) may
    appear only on nodes of ``target_type``; unlabeled nodes carry -1.
    """

    def __init__(
        self,
        nodes: Sequence[tuple[int, str, int | None]],
        edges: Sequence[tuple[int, int, str]],
        schema: Iterable[Triple],
        target_type: str = "author",
    ):
        self.schema: frozenset[Triple] = frozenset(tuple(t) for t in schema)
        self.target_type = target_type

        n = len(nodes)
        node_type: list[str] = [""] * n
        labels = np.full(n, -1, dtype=np.int64)
        seen = np.zeros(n, dtype=bool)
        for nid, ntype, label in nodes:
            if not 0 <= nid < n or seen[nid]:
                raise ValidationError(
                    f"node ids must be dense 0..{n - 1} without repeats, got {nid}"
                )
            seen[nid] = True
            node_type[nid] = ntype
            if label is not None and label >= 0:
                if ntype != target_type:
                    raise ValidationError(
                        f"node {nid} of type {ntype!r} carries a label; labels are "
                        f"restricted to target type {target_type!r}"
                    )
                labels[nid] = label
        self.node_type = node_type
        self.labels = labels
        self.labels.setflags(write=False)

        self._pair_relations: set[tuple[str, str]] = {(s, d) for s, _, d in self.schema}
        self.edges: list[tuple[int, int, str]] = []
        for src, dst, rel in edges:
            if not (0 <= src < n and 0 <= dst < n):
                raise ValidationError(f"edge ({src}, {dst}, {rel!r}) references unknown node id")
            triple = (node_type[src], rel, node_type[dst])
            if triple not in self.schema:
                raise SchemaViolation(
                    f"edge ({src}, {dst}, {rel!r}) with endpoint types "
                    f"({triple[0]!r}, {triple[2]!r}) matches no schema triple"
                )
            self.edges.append((src, dst, rel))

        self._nodes_of_type: dict[str, np.ndarray] = {}
        for t in set(node_type):
            ids = np.flatnonzero(np.array([nt == t for nt in node_type]))
            ids.setflags(write=False)
            self._nodes_of_type[t] = ids
        self._local_index: dict[str, dict[int, int]] = {
            t: {int(g): i for i, g in enumerate(ids)} for t, ids in self._nodes_of_type.items()
        }
        self._biadjacency_cache: dict[tuple[str, str], sp.csr_matrix] = {}

    # -- basic accessors -------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.node_type)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def nodes_of_type(self, t: str) -> np.ndarray:
        """Global ids of all nodes with type ``t``, sorted ascending."""
        return self._nodes_of_type.get(t, np.empty(0, dtype=np.int64))

    def type_count(self, t: str) -> int:
        return len(self.nodes_of_type(t))

    def schema_has_pair(self, src_type: str, dst_type: str) -> bool:
        return (src_type, dst_type) in self._pair_relations

    def labeled_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.labels >= 0)

    @property
    def num_labels(self) -> int:
        labeled = self.labels[self.labels >= 0]
        return int(labeled.max()) + 1 if labeled.size else 0

    # -- adjacency construction ------------------------------------------

    def relation_adjacency(self, relation: str) -> sp.csr_matrix:
        """N x N binary matrix with a 1 exactly where a ``relation`` edge exists."""
        rows = [s for s, _, r in self.edges if r == relation]
        cols = [d for _, d, r in self.edges if r == relation]
        data = np.ones(len(rows), dtype=np.int64)
        mat = sp.coo_matrix((data, (rows, cols)), shape=(self.num_nodes, self.num_nodes))
        mat = mat.tocsr()
        mat.data[:] = 1  # collapse parallel edges
        return mat

    def biadjacency(self, src_type: str, dst_type: str) -> sp.csr_matrix:
        """|src_type| x |dst_type| indicator of any edge between the two types.

        Parallel edges and multiple relations between the same node pair
        collapse to a single 1; walks are counted over node adjacency.
        """
        key = (src_type, dst_type)
        cached = self._biadjacency_cache.get(key)
        if cached is not None:
            return cached
        src_index = self._local_index.get(src_type, {})
        dst_index = self._local_index.get(dst_type, {})
        pairs = {
            (src_index[s], dst_index[d])
            for s, d, _ in self.edges
            if s in src_index and d in dst_index
        }
        shape = (self.type_count(src_type), self.type_count(dst_type))
        if pairs:
            rows, cols = zip(*sorted(pairs))
            mat = sp.coo_matrix(
                (np.ones(len(pairs), dtype=np.int64), (rows, cols)), shape=shape
            ).tocsr()
        else:
            mat = sp.csr_matrix(shape, dtype=np.int64)
        self._biadjacency_cache[key] = mat
        return mat


@dataclass(frozen=True)
class MetaPathAdjacency:
    """Walk-count (or indicator) matrix between endpoints of a meta path.

    ``matrix`` is |first type| x |last type|; entry (i, j) counts the typed
    walks from the i-th node of the first type to the j-th node of the last
    type.  When the endpoint types coincide the diagonal is zeroed: a node
    is not its own meta-path neighbor, its own structural feature enters
    the model separately.  ``node_ids`` maps local row indices back to
    global node ids.
    """

    metapath: MetaPathSpec
    matrix: sp.csr_matrix
    mode: str
    node_ids: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def metapath_adjacency(
    graph: HeterogeneousGraph, spec: MetaPathSpec, mode: str = "counts"
) -> MetaPathAdjacency:
    """Compute the meta-path adjacency as an ordered product of typed biadjacencies.

    ``mode="counts"`` keeps walk multiplicities; ``mode="binary"`` reduces to
    the 0/1 indicator.  The result is deterministic.
    """
    if mode not in ("counts", "binary"):
        raise ValueError(f"mode must be 'counts' or 'binary', got {mode!r}")
    spec.validate_against(graph)
    seq = spec.type_sequence
    mats = [graph.biadjacency(a, b) for a, b in zip(seq, seq[1:])]
    product = reduce(lambda x, y: (x @ y).tocsr(), mats)
    product = sp.csr_matrix(product, dtype=np.int64)
    if seq[0] == seq[-1]:
        product.setdiag(0)
        product.eliminate_zeros()
    if mode == "binary":
        product.data[:] = 1
    product.sort_indices()
    return MetaPathAdjacency(
        metapath=spec, matrix=product, mode=mode, node_ids=graph.nodes_of_type(seq[0])
    )


def neighbors_along(adj: MetaPathAdjacency, i: int) -> set[int]:
    """Local indices j with at least one path instance from i to j."""
    if not 0 <= i < adj.n:
        raise IndexError(f"node index {i} out of range 0..{adj.n - 1}")
    row = adj.matrix.getrow(i)
    return {int(j) for j in row.indices[row.data > 0]}


# -- tabular loading -----------------------------------------------------

NODE_HEADER = ["id", "type", "label"]
EDGE_HEADER = ["src", "dst", "relation"]


def _read_rows(path, expected_header: list[str]) -> list[tuple[int, list[str]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [(lineno, row) for lineno, row in enumerate(reader, start=1) if row]
    if not rows:
        raise ParseError(f"{path}: empty table", line=1)
    first_line, header = rows[0]
    if [h.strip() for h in header] != expected_header:
        raise ParseError(
            f"expected header {','.join(expected_header)!r}, got {','.join(header)!r}",
            line=first_line,
        )
    return rows[1:]


def load_graph(
    nodes_path,
    edges_path,
    schema: Iterable[Triple],
    target_type: str = "author",
    add_reverse: Sequence[str] = (),
) -> HeterogeneousGraph:
    """Load a graph from delimited node/edge tables.

    The node table has columns ``id,type,label`` (label empty for
    non-target types); the edge table has ``src,dst,relation``.  Relations
    listed in ``add_reverse`` additionally emit the reversed edge under
    ``<relation>_rev`` (with the reversed schema triple added), so that
    inherently symmetric relations such as co-authorship behave
    undirectedly in meta-path products.
    """
    nodes: list[tuple[int, str, int | None]] = []
    for lineno, row in _read_rows(nodes_path, NODE_HEADER):
        if len(row) != 3:
            raise ParseError(f"expected 3 columns, got {len(row)}", line=lineno)
        raw_id, ntype, raw_label = (c.strip() for c in row)
        try:
            nid = int(raw_id)
        except ValueError:
            raise ParseError(f"node id {raw_id!r} is not an integer", line=lineno) from None
        label: int | None = None
        if raw_label != "":
            try:
                label = int(raw_label)
            except ValueError:
                raise ParseError(f"label {raw_label!r} is not an integer", line=lineno) from None
        nodes.append((nid, ntype, label))

    known_ids = {nid for nid, _, _ in nodes}
    edges: list[tuple[int, int, str]] = []
    for lineno, row in _read_rows(edges_path, EDGE_HEADER):
        if len(row) != 3:
            raise ParseError(f"expected 3 columns, got {len(row)}", line=lineno)
        raw_src, raw_dst, rel = (c.strip() for c in row)
        try:
            src, dst = int(raw_src), int(raw_dst)
        except ValueError:
            raise ParseError(f"edge endpoints {raw_src!r},{raw_dst!r} must be integers", line=lineno) from None
        for nid in (src, dst):
            if nid not in known_ids:
                raise ValidationError(
                    f"line {lineno}: edge ({src}, {dst}, {rel!r}) references unknown node id {nid}"
                )
        edges.append((src, dst, rel))

    schema = {tuple(t) for t in schema}
    if add_reverse:
        type_of = {nid: ntype for nid, ntype, _ in nodes}
        reversed_edges = []
        for src, dst, rel in edges:
            if rel in add_reverse:
                reversed_edges.append((dst, src, f"{rel}_rev"))
                schema.add((type_of[dst], f"{rel}_rev", type_of[src]))
        edges.extend(reversed_edges)

    return HeterogeneousGraph(nodes, edges, schema, target_type=target_type)


def write_graph(nodes_path, edges_path, graph: HeterogeneousGraph) -> None:
    """Write a graph back to the tabular format accepted by :func:`load_graph`."""
    with open(nodes_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(NODE_HEADER)
        for nid in range(graph.num_nodes):
            label = graph.labels[nid]
            writer.writerow([nid, graph.node_type[nid], "" if label < 0 else int(label)])
    with open(edges_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EDGE_HEADER)
        for src, dst, rel in graph.edges:
            writer.writerow([src, dst, rel])
