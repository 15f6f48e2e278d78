"""Independent reference implementations used to check the library.

Everything here is deliberately written the slow, obvious way (plain
Python loops, recursion, no shared code with the package) so each test
has a second route to the expected value.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np
import scipy.sparse as sp

from fedhin.graph import HeterogeneousGraph, MetaPathAdjacency, MetaPathSpec, metapath_adjacency


def enumerate_typed_walks(graph: HeterogeneousGraph, type_sequence) -> np.ndarray:
    """Count walks following the type sequence by depth-first enumeration.

    Two nodes are adjacent when at least one edge connects them (parallel
    edges collapse).  Returns a |first type| x |last type| integer matrix
    over local per-type indices, diagonal included.
    """
    out_neighbors: dict[int, set[int]] = defaultdict(set)
    for src, dst, _rel in graph.edges:
        out_neighbors[src].add(dst)

    first_ids = [int(g) for g in graph.nodes_of_type(type_sequence[0])]
    last_ids = [int(g) for g in graph.nodes_of_type(type_sequence[-1])]
    last_index = {g: i for i, g in enumerate(last_ids)}
    counts = np.zeros((len(first_ids), len(last_ids)), dtype=np.int64)

    def walk(node: int, depth: int, row: int):
        if depth == len(type_sequence) - 1:
            counts[row, last_index[node]] += 1
            return
        want = type_sequence[depth + 1]
        for nxt in out_neighbors[node]:
            if graph.node_type[nxt] == want:
                walk(nxt, depth + 1, row)

    for row, start in enumerate(first_ids):
        walk(start, 0, row)
    return counts


def random_hin(rng: np.random.Generator, max_nodes: int = 40) -> HeterogeneousGraph:
    """A random small academic-flavored graph for exercising walk counting."""
    n_authors = int(rng.integers(2, max(3, max_nodes // 3)))
    n_papers = int(rng.integers(2, max(3, max_nodes // 2)))
    n_venues = int(rng.integers(1, 5))
    total = n_authors + n_papers + n_venues
    assert total <= max_nodes + 10

    nodes = [(i, "author", None) for i in range(n_authors)]
    nodes += [(n_authors + i, "paper", None) for i in range(n_papers)]
    nodes += [(n_authors + n_papers + i, "venue", None) for i in range(n_venues)]

    schema = [
        ("author", "writes", "paper"),
        ("paper", "written_by", "author"),
        ("paper", "cites", "paper"),
        ("paper", "published_in", "venue"),
        ("venue", "publishes", "paper"),
    ]
    edges = []
    for a in range(n_authors):
        for p in range(n_papers):
            if rng.random() < 0.25:
                edges.append((a, n_authors + p, "writes"))
            if rng.random() < 0.25:
                edges.append((n_authors + p, a, "written_by"))
    for p in range(n_papers):
        for q in range(n_papers):
            if p != q and rng.random() < 0.15:
                edges.append((n_authors + p, n_authors + q, "cites"))
        for v in range(n_venues):
            if rng.random() < 0.3:
                edges.append((n_authors + p, n_authors + n_papers + v, "published_in"))
            if rng.random() < 0.3:
                edges.append((n_authors + n_papers + v, n_authors + p, "publishes"))
    return HeterogeneousGraph(nodes, edges, schema, target_type="author")


def matvec_loops(matrix, vector):
    """Matrix-vector product by explicit scalar loops."""
    rows = len(matrix)
    cols = len(matrix[0])
    out = [0.0] * rows
    for r in range(rows):
        acc = 0.0
        for c in range(cols):
            acc += matrix[r][c] * vector[c]
        out[r] = acc
    return out


def softmax_loops(values):
    """Softmax by scalar math.exp, shifted for stability."""
    m = max(values)
    exps = [math.exp(v - m) for v in values]
    total = sum(exps)
    return [e / total for e in exps]


def cosine_loops(a, b):
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    return dot / (na * nb)


def finite_difference(loss_fn, tensor: np.ndarray, flat_index: int, h: float = 1e-5) -> float:
    """Central finite difference of ``loss_fn()`` w.r.t. one tensor coordinate."""
    flat = tensor.ravel()
    original = flat[flat_index]
    flat[flat_index] = original + h
    plus = loss_fn()
    flat[flat_index] = original - h
    minus = loss_fn()
    flat[flat_index] = original
    return (plus - minus) / (2.0 * h)


def relative_error(a: float, b: float, floor: float = 1e-8) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def f1_by_confusion(predictions, truths, n_labels) -> tuple[float, float]:
    """Micro/macro F1 from an explicitly assembled confusion matrix."""
    confusion = [[0] * n_labels for _ in range(n_labels)]
    for p, t in zip(predictions, truths):
        confusion[t][p] += 1

    per_class = []
    tp_total = fp_total = fn_total = 0
    for c in range(n_labels):
        tp = confusion[c][c]
        fp = sum(confusion[t][c] for t in range(n_labels) if t != c)
        fn = sum(confusion[c][p] for p in range(n_labels) if p != c)
        tp_total += tp
        fp_total += fp
        fn_total += fn
        denom = 2 * tp + fp + fn
        per_class.append(2 * tp / denom if denom else 0.0)

    micro_denom = 2 * tp_total + fp_total + fn_total
    micro = 2 * tp_total / micro_denom if micro_denom else 0.0
    return micro, sum(per_class) / n_labels


# -- per-node reference of the attention model ----------------------------------
#
# One target node and one meta path at a time, straight from the dense
# adjacency row.  Only the model's structure (adjacencies, dimensions,
# activation, sample size) and the parameter tensors are read from the
# package.


def _activate(name, x):
    if name == "relu":
        return np.maximum(x, 0.0)
    if name == "elu":
        return np.where(x > 0, x, np.expm1(x))
    return x


def _softmax(values):
    values = np.asarray(values, dtype=np.float64)
    e = np.exp(values - values.max())
    return e / e.sum()


def adjacency_row(adjacency, i: int) -> np.ndarray:
    """Dense float64 adjacency vector of node ``i`` (local index)."""
    return np.asarray(adjacency.matrix.getrow(i).todense(), dtype=np.float64).ravel()


def neighbors(model, path: int, i: int) -> np.ndarray:
    """Meta-path neighbors of ``i`` in ascending id order."""
    return np.flatnonzero(adjacency_row(model.adjacencies[path], i))


def cosine(a, b) -> tuple[float, bool]:
    """Cosine similarity; returns (value, degenerate) with 0 for zero-norm inputs."""
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0, True
    return float(np.dot(a, b) / (na * nb)), False


def transform_features(model, params, path: int, i: int) -> np.ndarray:
    """Transformed structural feature: wt[path] @ adjacency_row(i)."""
    return params.wt[path] @ adjacency_row(model.adjacencies[path], i)


def node_similarity(model, params, path: int, i: int, j: int) -> float:
    """Cosine similarity of the transformed features of nodes i and j."""
    value, _ = cosine(
        transform_features(model, params, path, i), transform_features(model, params, path, j)
    )
    return value


def node_attention(model, params, path: int, i: int, ids=None) -> dict[int, float]:
    """Softmax over cosine similarities to the neighbors ``ids`` of i (default: all)."""
    ids = neighbors(model, path, i) if ids is None else ids
    if len(ids) == 0:
        return {}
    sims = [node_similarity(model, params, path, i, int(j)) for j in ids]
    return {int(j): float(c) for j, c in zip(ids, _softmax(sims))}


def aggregate_neighbors(model, params, path: int, i: int, coeffs, sample_size=None, rng=None):
    """Activation of the coefficient-weighted sum of sampled neighbor features.

    Coefficients are renormalized over the uniform sample so they stay on
    the simplex; with no neighbors the result is activation(0).
    """
    ids = np.array(sorted(coeffs), dtype=np.int64)
    if ids.size and sample_size is not None and rng is not None and ids.size > sample_size:
        ids = np.sort(rng.choice(ids, size=sample_size, replace=False))
    if ids.size == 0:
        return _activate(model.activation, np.zeros(model.dims.embedding_dim))
    weights = np.array([coeffs[int(j)] for j in ids])
    weights = weights / weights.sum()
    feats = np.stack([transform_features(model, params, path, int(j)) for j in ids])
    return _activate(model.activation, weights @ feats)


def metapath_embedding(model, params, path: int, i: int, aggregated) -> np.ndarray:
    """Recombination wc[path] @ concat(aggregated, self feature)."""
    self_feat = transform_features(model, params, path, i)
    return params.wc[path] @ np.concatenate([aggregated, self_feat])


def metapath_attention(params, i: int, embeddings) -> np.ndarray:
    """Softmax over cosines between node i's preference vector and the
    projected per-path embeddings."""
    return _softmax([cosine(params.pref[i], params.wp @ e)[0] for e in embeddings])


def fuse(embeddings, coeffs) -> np.ndarray:
    """Convex combination of per-path embeddings with simplex coefficients."""
    emb = np.stack(embeddings)
    c = np.asarray(coeffs, dtype=np.float64)
    if emb.shape[0] != c.size:
        raise ValueError(f"{emb.shape[0]} embeddings but {c.size} coefficients")
    return c @ emb


def reference_forward(model, params, batch, labels=None, rng=None) -> list[dict]:
    """The whole two-level pass, composed node by node from the ops above.

    Sampling draws one ``rng.choice`` per neighbor list longer than the
    model's sample size, node-major and path-minor.  Returns one dict per
    batch node with its sampled neighbors, sims, coeffs, path coeffs,
    fused embedding, probabilities, loss and count of degenerate cosines.
    """
    sample_size = model.sample_size if rng is not None else None
    out = []
    for i in batch:
        i = int(i)
        node = {"samples": [], "sims": [], "coeffs": [], "embeddings": [], "zero_norm_events": 0}
        for p in range(model.dims.n_paths):
            ids = neighbors(model, p, i)
            if sample_size is not None and ids.size > sample_size:
                ids = np.sort(rng.choice(ids, size=sample_size, replace=False))
            coeffs = node_attention(model, params, p, i, ids)
            own = transform_features(model, params, p, i)
            sims = [cosine(own, transform_features(model, params, p, int(j))) for j in ids]
            node["zero_norm_events"] += sum(degenerate for _, degenerate in sims)
            node["samples"].append(ids)
            node["sims"].append(np.array([value for value, _ in sims]))
            node["coeffs"].append(np.array([coeffs[int(j)] for j in ids]))
            aggregated = aggregate_neighbors(model, params, p, i, coeffs)
            node["embeddings"].append(metapath_embedding(model, params, p, i, aggregated))
        node["path_coeffs"] = metapath_attention(params, i, node["embeddings"])
        node["zero_norm_events"] += sum(
            cosine(params.pref[i], params.wp @ e)[1] for e in node["embeddings"]
        )
        node["fused"] = fuse(node["embeddings"], node["path_coeffs"])
        node["probs"] = _softmax(params.wo @ node["fused"])
        node["loss"] = 0.0 if labels is None else -math.log(node["probs"][labels[i]])
        out.append(node)
    return out


def edge_case_adjacencies(rng: np.random.Generator, codes=("APA", "APPA")) -> list:
    """Meta-path adjacencies of a random graph with every awkward case planted.

    In each path: author 0 is isolated (empty neighbor list, zero
    feature); author 1 has no neighbors of its own but is a neighbor of
    author 2, so 2 sees a zero-norm neighbor; author 3 is its own
    neighbor (a self loop, which ``metapath_adjacency`` never emits).
    """
    while True:
        graph = random_hin(rng)
        if len(graph.nodes_of_type("author")) >= 6:
            break
    out = []
    for code in codes:
        adj = metapath_adjacency(graph, MetaPathSpec.from_string(code))
        dense = adj.matrix.toarray()
        dense[0, :] = dense[:, 0] = 0
        dense[1, :] = 0
        dense[2, 1] = 1
        dense[3, 3] = 2
        out.append(
            MetaPathAdjacency(
                metapath=adj.metapath, matrix=sp.csr_matrix(dense), mode=adj.mode,
                node_ids=adj.node_ids,
            )
        )
    return out
