"""Heterogeneous graph data model and meta-path adjacency computation.

A heterogeneous graph carries typed nodes and typed directed edges,
validated against a declared schema of (source type, relation,
destination type) triples.  A meta path is a sequence of node types;
its adjacency matrix counts the typed walks connecting each node pair
along that sequence and is the structural feature consumed by the
embedding model.

A graph is held in arrays.  Node i has the type ``types[type_code[i]]``
and the label ``labels[i]`` (-1 when unlabeled); edge e runs from
``src[e]`` to ``dst[e]`` under the relation ``relations[rel[e]]``.  The
schema check is one lookup per edge into a boolean (type, relation, type)
table, and a typed biadjacency is a mask over the edges plus one sparse
COO build over per-type local indices (``local_index``).  ``load_graph``
reads the node and edge tables into these arrays, keeping the edges in
input order.

Graphs and adjacencies are immutable after construction, so every client
of an experiment reads the same ones.
"""

from __future__ import annotations

import csv
import io
from array import array
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Iterator, Mapping, Sequence

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
        pairs = {(s, d) for s, _, d in graph.schema}
        for a, b in zip(self.type_sequence, self.type_sequence[1:]):
            if (a, b) not in pairs:
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

    Node ids are dense integers 0..N-1.  ``types`` names the node types and
    ``type_code[i]`` is the index into it of node i's type; ``relations``
    names the relations and edge e runs from ``src[e]`` to ``dst[e]`` under
    relation ``relations[rel[e]]``.  Labels (class indices >= 0) may appear
    only on nodes of ``target_type``; unlabeled nodes carry -1.  The graph
    takes the arrays it is given and makes them read-only.
    """

    def __init__(
        self,
        types: Sequence[str],
        type_code: np.ndarray,
        labels: np.ndarray,
        relations: Sequence[str],
        src: np.ndarray,
        dst: np.ndarray,
        rel: np.ndarray,
        schema: Iterable[Triple],
        target_type: str = "author",
    ):
        self.schema: frozenset[Triple] = frozenset(tuple(t) for t in schema)
        self.target_type = target_type
        self.types: tuple[str, ...] = tuple(types)
        self.relations: tuple[str, ...] = tuple(relations)
        for kind, names in (("node type", self.types), ("relation", self.relations)):
            if len(set(names)) != len(names):
                raise ValidationError(f"{kind} names must be distinct, got {names}")
        self._type_index = {t: i for i, t in enumerate(self.types)}

        self.type_code = _read_only(type_code)
        self.labels = _read_only(np.where(np.asarray(labels) >= 0, labels, -1))
        n = self.type_code.size
        if self.type_code.shape != (n,) or self.labels.shape != (n,):
            raise ValidationError("type codes and labels must be one value per node")
        _check_codes("node type", self.type_code, len(self.types))
        target = self._type_index.get(target_type, -1)
        stray = np.flatnonzero((self.labels >= 0) & (self.type_code != target))
        if stray.size:
            nid = int(stray[0])
            raise ValidationError(
                f"node {nid} of type {self.types[self.type_code[nid]]!r} carries a label; "
                f"labels are restricted to target type {target_type!r}"
            )

        self.src, self.dst, self.rel = (_read_only(a) for a in (src, dst, rel))
        m = self.src.size
        if not self.src.shape == self.dst.shape == self.rel.shape == (m,):
            raise ValidationError("src, dst and rel must be one value per edge")
        _check_codes("relation", self.rel, len(self.relations))
        # allowed[s, r, d]: the schema has the triple (types[s], relations[r], types[d])
        allowed = np.zeros((len(self.types), len(self.relations), len(self.types)), dtype=bool)
        rel_index = {r: i for i, r in enumerate(self.relations)}
        for s, r, d in self.schema:
            if s in self._type_index and r in rel_index and d in self._type_index:
                allowed[self._type_index[s], rel_index[r], self._type_index[d]] = True
        known = (self.src >= 0) & (self.src < n) & (self.dst >= 0) & (self.dst < n)
        # an unknown endpoint reads a clipped type here and fails on ``known``
        ok = known & allowed[
            self.type_code.take(self.src, mode="clip"),
            self.rel,
            self.type_code.take(self.dst, mode="clip"),
        ] if n else known
        bad = np.flatnonzero(~ok)
        if bad.size:
            e = int(bad[0])
            edge = f"edge ({self.src[e]}, {self.dst[e]}, {self.relations[self.rel[e]]!r})"
            if not known[e]:
                raise ValidationError(f"{edge} references unknown node id")
            raise SchemaViolation(
                f"{edge} with endpoint types ({self.types[self.type_code[self.src[e]]]!r}, "
                f"{self.types[self.type_code[self.dst[e]]]!r}) matches no schema triple"
            )

        self._nodes_of_type = {
            t: _read_only(np.flatnonzero(self.type_code == i)) for i, t in enumerate(self.types)
        }
        # position of each node among the nodes of its type
        local = np.empty(n, dtype=np.int64)
        for ids in self._nodes_of_type.values():
            local[ids] = np.arange(ids.size)
        self.local_index = _read_only(local)
        self._biadjacency_cache: dict[tuple[str, str], sp.csr_matrix] = {}

    # -- basic accessors -------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self.type_code.size

    @property
    def num_edges(self) -> int:
        return self.src.size

    def nodes_of_type(self, t: str) -> np.ndarray:
        """Global ids of all nodes with type ``t``, sorted ascending."""
        return self._nodes_of_type.get(t, np.empty(0, dtype=np.int64))

    def type_count(self, t: str) -> int:
        return len(self.nodes_of_type(t))

    def labeled_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.labels >= 0)

    @property
    def num_labels(self) -> int:
        labeled = self.labels[self.labels >= 0]
        return int(labeled.max()) + 1 if labeled.size else 0

    # -- adjacency construction ------------------------------------------

    def biadjacency(self, src_type: str, dst_type: str) -> sp.csr_matrix:
        """|src_type| x |dst_type| indicator of any edge between the two types.

        Parallel edges and multiple relations between the same node pair
        collapse to a single 1; walks are counted over node adjacency.
        """
        key = (src_type, dst_type)
        cached = self._biadjacency_cache.get(key)
        if cached is not None:
            return cached
        keep = (self.type_code[self.src] == self._type_index.get(src_type, -1)) & (
            self.type_code[self.dst] == self._type_index.get(dst_type, -1)
        )
        rows = self.local_index[self.src[keep]]
        cols = self.local_index[self.dst[keep]]
        shape = (self.type_count(src_type), self.type_count(dst_type))
        mat = sp.coo_matrix((np.ones(rows.size, dtype=np.int64), (rows, cols)), shape=shape)
        mat = mat.tocsr()
        mat.sum_duplicates()
        mat.data[:] = 1
        self._biadjacency_cache[key] = mat
        return mat


def _read_only(values) -> np.ndarray:
    """``values`` as a read-only int64 array, without a copy when it already is one."""
    out = np.asarray(values, dtype=np.int64)
    out.setflags(write=False)
    return out


def _check_codes(kind: str, codes: np.ndarray, count: int) -> None:
    bad = np.flatnonzero((codes < 0) | (codes >= count))
    if bad.size:
        raise ValidationError(
            f"{kind} code {codes[bad[0]]} at position {bad[0]} is outside 0..{count - 1}"
        )


@dataclass(frozen=True)
class MetaPathAdjacency:
    """Walk-count matrix between endpoints of a meta path.

    ``matrix`` is |first type| x |last type|; entry (i, j) counts the typed
    walks from the i-th node of the first type to the j-th node of the last
    type.  When the endpoint types coincide the diagonal is zeroed: a node
    is not its own meta-path neighbor, its own structural feature enters
    the model separately.  Row and column i are the i-th node of their
    type in global id order, as ``HeterogeneousGraph.nodes_of_type`` lists
    them.
    """

    matrix: sp.csr_matrix

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def metapath_adjacency(graph: HeterogeneousGraph, spec: MetaPathSpec) -> MetaPathAdjacency:
    """Compute the meta-path adjacency, its walk counts, as an ordered product
    of typed biadjacencies.  The result is deterministic; ``matrix > 0`` is
    its 0/1 indicator.
    """
    spec.validate_against(graph)
    seq = spec.type_sequence
    mats = [graph.biadjacency(a, b) for a, b in zip(seq, seq[1:])]
    product = reduce(lambda x, y: (x @ y).tocsr(), mats)
    product = sp.csr_matrix(product, dtype=np.int64)
    if seq[0] == seq[-1]:
        product.setdiag(0)
        product.eliminate_zeros()
    product.sort_indices()
    return MetaPathAdjacency(product)


# -- tabular loading -----------------------------------------------------

NODE_HEADER = ["id", "type", "label"]
EDGE_HEADER = ["src", "dst", "relation"]
_WRITE_BLOCK = 1 << 16  # table rows per write call
_INT64_MAX = np.iinfo(np.int64).max


def _read_rows(path, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """The physical line on which each non-blank row after the header of
    the table at ``path`` ends (1-based; a quoted line break in a field
    counts) and the row's stripped fields, checked as ``csv.reader``
    yields it: the header must be ``header`` and each row three columns."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = ((reader.line_num, row) for row in reader if row)
        try:
            lineno, first = next(rows, (1, None))
            if first is None:
                raise ParseError(f"{path}: empty table", line=lineno)
            if [h.strip() for h in first] != header:
                raise ParseError(
                    f"expected header {','.join(header)!r}, got {','.join(first)!r}", line=lineno
                )
            for lineno, row in rows:
                if len(row) != 3:
                    raise ParseError(f"expected 3 columns, got {len(row)}", line=lineno)
                yield lineno, [field.strip() for field in row]
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


def load_graph(
    nodes_path, edges_path, schema: Iterable[Triple], target_type: str = "author"
) -> HeterogeneousGraph:
    """Load a graph from delimited node/edge tables.

    The node table has columns ``id,type,label`` (label empty for
    non-target types); the edge table has ``src,dst,relation``.  Node ids
    must be dense 0..N-1 in any order.  Each row is checked as it is read
    and appended to int64 columns; type and relation codes follow the order
    in which the rows first name them.
    """
    ids, codes, labels = array("q"), array("q"), array("q")
    types: dict[str, int] = {}
    for lineno, (raw_id, ntype, raw_label) in _read_rows(nodes_path, NODE_HEADER):
        try:
            ids.append(int(raw_id))
        except ValueError:
            raise ParseError(f"node id {raw_id!r} is not an integer", line=lineno) from None
        except OverflowError:  # from the append: the column holds int64
            raise ParseError(
                f"node id {raw_id!r} is outside the int64 range", line=lineno
            ) from None
        label = -1
        if raw_label != "":
            try:
                label = int(raw_label)
            except ValueError:
                raise ParseError(f"label {raw_label!r} is not an integer", line=lineno) from None
            if not 0 <= label <= _INT64_MAX:
                raise ParseError(f"label {raw_label!r} is outside 0..{_INT64_MAX}", line=lineno)
        labels.append(label)
        codes.append(types.setdefault(ntype, len(types)))

    node_ids = np.frombuffer(ids, dtype=np.int64)
    n = node_ids.size
    # the first id, in input order, that is out of range or repeats an earlier one
    first = np.zeros(n, dtype=bool)
    first[np.unique(node_ids, return_index=True)[1]] = True
    bad = np.flatnonzero(~first | (node_ids < 0) | (node_ids >= n))
    if bad.size:
        raise ValidationError(
            f"node ids must be dense 0..{n - 1} without repeats, got {node_ids[bad[0]]}"
        )
    type_code, node_labels = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    type_code[node_ids] = np.frombuffer(codes, dtype=np.int64)
    node_labels[node_ids] = np.frombuffer(labels, dtype=np.int64)

    src, dst, rel = array("q"), array("q"), array("q")
    relations: dict[str, int] = {}
    for lineno, (raw_src, raw_dst, relation) in _read_rows(edges_path, EDGE_HEADER):
        try:
            s, d = int(raw_src), int(raw_dst)
        except ValueError:
            raise ParseError(f"edge endpoints {raw_src!r},{raw_dst!r} must be integers", line=lineno) from None
        if not (0 <= s < n and 0 <= d < n):
            raise ValidationError(
                f"line {lineno}: edge ({s}, {d}, {relation!r}) references unknown node id "
                f"{d if 0 <= s < n else s}"
            )
        src.append(s)
        dst.append(d)
        rel.append(relations.setdefault(relation, len(relations)))

    return HeterogeneousGraph(
        types=list(types),
        type_code=type_code,
        labels=node_labels,
        relations=list(relations),
        src=np.frombuffer(src, dtype=np.int64),
        dst=np.frombuffer(dst, dtype=np.int64),
        rel=np.frombuffer(rel, dtype=np.int64),
        schema=schema,
        target_type=target_type,
    )


def _csv_field(name: str) -> str:
    """``name`` as ``csv.writer`` writes it inside a row of several fields (a
    row of one empty field is quoted differently, hence the second field)."""
    out = io.StringIO()
    csv.writer(out).writerow([name, ""])
    return out.getvalue()[: -len(",\r\n")]


def write_graph(nodes_path, edges_path, graph: HeterogeneousGraph) -> None:
    """Write a graph back to the tabular format accepted by :func:`load_graph`.

    The bytes are ``csv.writer``'s: each type and relation name is quoted once
    by the ``csv`` module, and the rows are formatted around it a block at a
    time, so no Python list spans the table.  A failed open, write or close
    is a ``GraphError`` naming the file."""
    types = [_csv_field(name) for name in graph.types]
    relations = [_csv_field(name) for name in graph.relations]

    def node_lines(lo: int, hi: int) -> list[str]:
        codes, labels = graph.type_code[lo:hi].tolist(), graph.labels[lo:hi].tolist()
        return [
            f"{nid},{types[code]},{'' if label < 0 else label}\r\n"
            for nid, code, label in zip(range(lo, hi), codes, labels)
        ]

    def edge_lines(lo: int, hi: int) -> list[str]:
        src, dst, rel = (a[lo:hi].tolist() for a in (graph.src, graph.dst, graph.rel))
        return [f"{s},{d},{relations[r]}\r\n" for s, d, r in zip(src, dst, rel)]

    for path, header, count, lines in (
        (nodes_path, NODE_HEADER, graph.num_nodes, node_lines),
        (edges_path, EDGE_HEADER, graph.num_edges, edge_lines),
    ):
        try:
            with open(path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerow(header)
                for lo in range(0, count, _WRITE_BLOCK):
                    fh.write("".join(lines(lo, min(lo + _WRITE_BLOCK, count))))
        except OSError as exc:
            raise GraphError(f"cannot write {path}: {exc}") from None
