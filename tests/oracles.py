"""Independent reference implementations used to check the library.

Everything here is deliberately written the slow, obvious way (plain
Python loops, recursion, no shared code with the package) so each test
has a second route to the expected value.  The exception is ``load_rows``,
which builds the small graphs the tests write by hand through the
package's own loader, so the loader is the only way from rows to a graph.
``per_node`` and ``assert_edges`` compute nothing: they only lay out what
the package returned for comparison.
"""

from __future__ import annotations

import csv
import math
import tempfile
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from fedhin.graph import (
    HeterogeneousGraph,
    MetaPathAdjacency,
    MetaPathSpec,
    load_graph,
    metapath_adjacency,
)


def load_rows(nodes, edges, schema, target_type: str = "author") -> HeterogeneousGraph:
    """The graph ``load_graph`` reads from ``(id, type, label)`` node rows
    (label ``None`` when unlabeled) and ``(src, dst, relation)`` edge rows,
    written with ``csv.writer`` to a temporary directory."""
    node_rows = [(nid, ntype, "" if label is None else label) for nid, ntype, label in nodes]
    with tempfile.TemporaryDirectory() as tmp:
        paths = Path(tmp, "nodes.csv"), Path(tmp, "edges.csv")
        for path, header, rows in zip(
            paths, (["id", "type", "label"], ["src", "dst", "relation"]), (node_rows, edges)
        ):
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)
        return load_graph(*paths, schema, target_type=target_type)


def assert_edges(graph: HeterogeneousGraph, rows) -> None:
    """Assert that the ``src``, ``dst`` and ``rel`` arrays of ``graph`` hold
    the ``(src, dst, relation name)`` rows, in order."""
    rows = list(rows)
    assert graph.src.tolist() == [src for src, _, _ in rows]
    assert graph.dst.tolist() == [dst for _, dst, _ in rows]
    assert [graph.relations[r] for r in graph.rel.tolist()] == [name for _, _, name in rows]


def enumerate_typed_walks(graph: HeterogeneousGraph, type_sequence) -> np.ndarray:
    """Count walks following the type sequence by depth-first enumeration.

    Two nodes are adjacent when at least one edge connects them (parallel
    edges collapse).  Returns a |first type| x |last type| integer matrix
    over local per-type indices, diagonal included.
    """
    out_neighbors: dict[int, set[int]] = defaultdict(set)
    for src, dst in zip(graph.src.tolist(), graph.dst.tolist()):
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
            if graph.types[graph.type_code[nxt]] == want:
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
    return load_rows(nodes, edges, schema)


def synthetic_hin_loops(
    n_authors, n_papers, n_venues, classes, p_in, p_out, seed
) -> tuple[list[tuple[int, str, int | None]], list[tuple[int, int, str]]]:
    """The synthetic academic graph as node and edge records, drawn one pool
    at a time with ``rng.choice`` over every author pair at once.  Its draws
    are the ones ``synthetic_hin`` documents, so the two must agree record
    for record; this form costs time quadratic in the paper count."""
    rng = np.random.default_rng(seed)
    sizes = np.full(classes, n_authors // classes)
    sizes[: n_authors % classes] += 1
    author_class = np.repeat(np.arange(classes), sizes)

    paper_authors: list[tuple[int, ...]] = []
    iu, ju = np.triu_indices(n_authors, k=1)
    probs = np.where(author_class[iu] == author_class[ju], p_in, p_out)
    hits = rng.random(iu.size) < probs
    for a, b in zip(iu[hits], ju[hits]):
        paper_authors.append((int(a), int(b)))
    within_bias = p_in / (p_in + p_out) if (p_in + p_out) > 0 else 0.5
    if p_in > 0:
        covered = {a for authors in paper_authors for a in authors}
        for a in range(n_authors):
            if a in covered:
                continue
            own_group = np.flatnonzero(author_class == author_class[a])
            own_group = own_group[own_group != a]
            other_groups = np.flatnonzero(author_class != author_class[a])
            pool = (
                own_group
                if (rng.random() < within_bias or other_groups.size == 0)
                else other_groups
            )
            if p_out == 0.0:
                pool = own_group
            if pool.size:
                paper_authors.append((a, int(rng.choice(pool))))
    while len(paper_authors) < n_papers:
        paper_authors.append((int(rng.integers(0, n_authors)),))

    n_paper_nodes = len(paper_authors)
    paper_class = np.array([author_class[authors[0]] for authors in paper_authors])
    cite_pairs: set[tuple[int, int]] = set()
    for p in range(n_paper_nodes):
        cls = paper_class[p]
        for _ in range(2):
            if rng.random() < within_bias:
                pool = np.flatnonzero(paper_class == cls)
            else:
                pool = np.flatnonzero(paper_class != cls)
            if pool.size == 0 or (pool.size == 1 and pool[0] == p):
                continue
            q = int(rng.choice(pool))
            while q == p:
                q = int(rng.choice(pool))
            cite_pairs.add((p, q))

    venue_class = np.arange(n_venues) % classes if n_venues else np.empty(0, dtype=int)
    paper_venue = np.full(n_paper_nodes, -1)
    if n_venues:
        for p in range(n_paper_nodes):
            own = np.flatnonzero(venue_class == paper_class[p])
            other = np.flatnonzero(venue_class != paper_class[p])
            if own.size and (not other.size or rng.random() < within_bias):
                paper_venue[p] = int(rng.choice(own))
            elif other.size:
                paper_venue[p] = int(rng.choice(other))

    return _synthetic_records(author_class, paper_authors, cite_pairs, paper_venue, n_venues)


def synthetic_hin_scalar(
    n_authors, n_papers, n_venues, classes, p_in, p_out, seed
) -> tuple[list[tuple[int, str, int | None]], list[tuple[int, int, str]]]:
    """The records of ``synthetic_hin_loops``, drawn one scalar
    ``rng.random()`` or ``pool[rng.integers(0, pool.size)]`` at a time in
    the same order, with every pool built once per class: the generator's
    scalar draw loops without any replay.  Time is linear in the author pairs
    and in the papers times the classes."""
    rng = np.random.default_rng(seed)
    sizes = np.full(classes, n_authors // classes)
    sizes[: n_authors % classes] += 1
    author_class = np.repeat(np.arange(classes), sizes)

    paper_authors: list[tuple[int, ...]] = []
    for a in range(n_authors):
        later = np.arange(a + 1, n_authors)
        probs = np.where(author_class[later] == author_class[a], p_in, p_out)
        paper_authors.extend((a, int(b)) for b in later[rng.random(later.size) < probs])
    within_bias = p_in / (p_in + p_out) if (p_in + p_out) > 0 else 0.5
    if p_in > 0:
        covered = {a for authors in paper_authors for a in authors}
        for a in range(n_authors):
            if a in covered:
                continue
            own_group = np.flatnonzero(author_class == author_class[a])
            own_group = own_group[own_group != a]
            other_groups = np.flatnonzero(author_class != author_class[a])
            own = rng.random() < within_bias or other_groups.size == 0
            pool = own_group if (own or p_out == 0.0) else other_groups
            if pool.size:
                paper_authors.append((a, int(pool[rng.integers(0, pool.size)])))
    while len(paper_authors) < n_papers:
        paper_authors.append((int(rng.integers(0, n_authors)),))

    n_paper_nodes = len(paper_authors)
    paper_class = np.array([author_class[authors[0]] for authors in paper_authors], dtype=int)
    members = [np.flatnonzero(paper_class == c) for c in range(classes)]
    outside = [np.flatnonzero(paper_class != c) for c in range(classes)]
    cite_pairs: set[tuple[int, int]] = set()
    for p, cls in enumerate(paper_class.tolist()):
        for _ in range(2):
            if rng.random() < within_bias:
                pool = members[cls]
                if pool.size == 1:
                    continue
                q = int(pool[rng.integers(0, pool.size)])
                while q == p:
                    q = int(pool[rng.integers(0, pool.size)])
            else:
                pool = outside[cls]
                if pool.size == 0:
                    continue
                q = int(pool[rng.integers(0, pool.size)])
            cite_pairs.add((p, q))

    venue_class = np.arange(n_venues) % classes
    own_venues = [np.flatnonzero(venue_class == c) for c in range(classes)]
    other_venues = [np.flatnonzero(venue_class != c) for c in range(classes)]
    paper_venue = np.full(n_paper_nodes, -1)
    if n_venues:
        for p, cls in enumerate(paper_class.tolist()):
            own, other = own_venues[cls], other_venues[cls]
            if own.size and (not other.size or rng.random() < within_bias):
                paper_venue[p] = own[rng.integers(0, own.size)]
            else:
                paper_venue[p] = other[rng.integers(0, other.size)]
    return _synthetic_records(author_class, paper_authors, cite_pairs, paper_venue, n_venues)


def _synthetic_records(author_class, paper_authors, cite_pairs, paper_venue, n_venues):
    """Node and edge records of a synthetic graph, in ``synthetic_hin``'s order."""
    n_authors, n_paper_nodes = author_class.size, len(paper_authors)
    paper_base = n_authors
    venue_base = n_authors + n_paper_nodes
    nodes = [(a, "author", int(author_class[a])) for a in range(n_authors)]
    nodes += [(paper_base + p, "paper", None) for p in range(n_paper_nodes)]
    nodes += [(venue_base + v, "venue", None) for v in range(n_venues)]
    edges: list[tuple[int, int, str]] = []
    for p, authors in enumerate(paper_authors):
        for a in authors:
            edges.append((a, paper_base + p, "writes"))
            edges.append((paper_base + p, a, "written_by"))
    for p, q in sorted(cite_pairs):
        edges.append((paper_base + p, paper_base + q, "cites"))
        edges.append((paper_base + q, paper_base + p, "cited_by"))
    for p in range(n_paper_nodes):
        if paper_venue[p] >= 0:
            vid = venue_base + int(paper_venue[p])
            edges.append((paper_base + p, vid, "published_in"))
            edges.append((vid, paper_base + p, "publishes"))
    return nodes, edges


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


def reference_f1_scores(predictions, truths, n_labels) -> tuple[float, float]:
    """Micro/macro F1 from three passes over the predictions per class, in
    float64 with ``np.mean`` over the per-class scores: the arithmetic
    ``f1_scores`` must reproduce bit for bit, so recorded metrics streams
    stay byte-identical."""
    pred = np.asarray(predictions, dtype=np.int64)
    true = np.asarray(truths, dtype=np.int64)
    tp = np.zeros(n_labels)
    fp = np.zeros(n_labels)
    fn = np.zeros(n_labels)
    for cls in range(n_labels):
        tp[cls] = np.sum((pred == cls) & (true == cls))
        fp[cls] = np.sum((pred == cls) & (true != cls))
        fn[cls] = np.sum((pred != cls) & (true == cls))

    def f1(tp_, fp_, fn_):
        denom = 2 * tp_ + fp_ + fn_
        return 2 * tp_ / denom if denom > 0 else 0.0

    micro = f1(tp.sum(), fp.sum(), fn.sum())
    macro = float(np.mean([f1(tp[c], fp[c], fn[c]) for c in range(n_labels)]))
    return float(micro), macro


# -- per-node reference of the attention model ----------------------------------
#
# One target node and one meta path at a time, straight from the dense
# adjacency row.  Only the model's structure (its block-diagonal adjacency
# ``matrix``, dimensions and sample size) and the parameter tensors are
# read from the package.


def _activate(x):
    """The model's activation, ELU."""
    return np.where(x > 0, x, np.expm1(x))


def _softmax(values):
    values = np.asarray(values, dtype=np.float64)
    e = np.exp(values - values.max())
    return e / e.sum()


def path_block(model, path: int) -> sp.csr_matrix:
    """Diagonal block ``path`` of the model's block-diagonal matrix: that
    meta path's adjacency, node by node."""
    n = model.dims.n_targets
    return model.matrix[path * n : (path + 1) * n, path * n : (path + 1) * n]


def adjacency_row(model, path: int, i: int) -> np.ndarray:
    """Dense float64 adjacency vector of node ``i`` (local index) in ``path``."""
    n = model.dims.n_targets
    row = model.matrix[path * n + i].toarray().ravel()
    return np.asarray(row[path * n : (path + 1) * n], dtype=np.float64)


def neighbors(model, path: int, i: int) -> np.ndarray:
    """Meta-path neighbors of ``i`` in ascending id order."""
    return np.flatnonzero(adjacency_row(model, path, i))


def cosine(a, b) -> tuple[float, bool]:
    """Cosine similarity; returns (value, degenerate) with 0 for zero-norm inputs."""
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0, True
    return float(np.dot(a, b) / (na * nb)), False


def transform_features(model, params, path: int, i: int) -> np.ndarray:
    """Transformed structural feature: wt[path].T @ adjacency_row(i), with
    ``wt[path]`` node-major (N x d)."""
    return params.wt[path].T @ adjacency_row(model, path, i)


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
    """ELU of the coefficient-weighted sum of sampled neighbor features.

    Coefficients are renormalized over the uniform sample so they stay on
    the simplex; with no neighbors the result is ELU(0) = 0.
    """
    ids = np.array(sorted(coeffs), dtype=np.int64)
    if ids.size and sample_size is not None and rng is not None and ids.size > sample_size:
        ids = np.sort(rng.choice(ids, size=sample_size, replace=False))
    if ids.size == 0:
        return _activate(np.zeros(model.dims.embedding_dim))
    weights = np.array([coeffs[int(j)] for j in ids])
    weights = weights / weights.sum()
    feats = np.stack([transform_features(model, params, path, int(j)) for j in ids])
    return _activate(weights @ feats)


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


def reference_forward(model, params, batch, labels=None, samples=None) -> list[dict]:
    """The whole two-level pass, composed node by node from the ops above.

    ``samples`` gives, per batch node, the neighbor ids each meta path
    attends over (a sampled pass's ``[node.samples for node in
    per_node(trace)]``); by default every neighbor takes part.  Returns one
    dict per batch node with its neighbors, sims, coeffs, path coeffs,
    fused embedding, probabilities, loss and count of degenerate cosines.
    """
    out = []
    for b, i in enumerate(batch):
        i = int(i)
        node = {"samples": [], "sims": [], "coeffs": [], "embeddings": [], "zero_norm_events": 0}
        for p in range(model.dims.n_paths):
            ids = neighbors(model, p, i) if samples is None else np.asarray(samples[b][p])
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


def per_node(trace) -> list[SimpleNamespace]:
    """A batched ``ForwardTrace`` node by node, in batch order: each node's
    index, label, loss and rows of the (B, ...) arrays, and per meta path
    (segment ``p * B + b``) its neighbor ids, cosines, their validity and
    its coefficients."""
    n_batch, n_paths = trace.path_embed.shape[:2]
    n = trace.params.dims.n_targets
    seg = trace.segments
    nodes = []
    for b, i in enumerate(trace.batch):
        spans = [
            (p, slice(seg.indptr[p * n_batch + b], seg.indptr[p * n_batch + b + 1]))
            for p in range(n_paths)
        ]
        nodes.append(
            SimpleNamespace(
                index=int(i),
                label=int(trace.labels[b]),
                loss=float(trace.losses[b]),
                samples=[trace.rows[seg.idx[s]] - p * n for p, s in spans],
                sims=[trace.sims[s] for _, s in spans],
                sim_valid=[trace.sim_valid[s] for _, s in spans],
                coeffs=[trace.coeffs[s] for _, s in spans],
                path_embed=trace.path_embed[b],
                raw_path_scores=trace.raw_path_scores[b],
                path_coeffs=trace.path_coeffs[b],
                fused=trace.fused[b],
                probs=trace.probs[b],
            )
        )
    return nodes


def reference_neighbor_segments(model, batch, rng) -> list[SimpleNamespace]:
    """Per meta path, the batch's neighbor lists as ``idx``, ``indptr`` and
    ``owner``, sampled when ``rng`` and the model's ``sample_size`` are set:
    the sampler as one loop over the paths, each drawing its own
    ``rng.random`` keys in path order."""
    sampling = rng is not None and model.sample_size is not None
    layouts = []
    for mat in (path_block(model, p) for p in range(model.dims.n_paths)):
        start = mat.indptr[batch]
        degree = mat.indptr[batch + 1] - start
        indptr = np.zeros(batch.size + 1, dtype=mat.indices.dtype)
        np.cumsum(degree, out=indptr[1:])
        owner = np.repeat(np.arange(batch.size), degree)
        offsets = start[owner] + np.arange(indptr[-1]) - indptr[owner]
        if sampling:
            order = np.argsort(2 * owner + rng.random(owner.size))
            keep = np.zeros(owner.size, dtype=bool)
            keep[order[np.arange(owner.size) - indptr[owner] < model.sample_size]] = True
            offsets, owner = offsets[keep], owner[keep]
            np.cumsum(np.minimum(degree, model.sample_size), out=indptr[1:])
        layouts.append(SimpleNamespace(idx=mat.indices[offsets], indptr=indptr, owner=owner))
    return layouts


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
        out.append(MetaPathAdjacency(sp.csr_matrix(dense)))
    return out


def reference_adam_step(
    tensors: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    m: dict[str, np.ndarray],
    v: dict[str, np.ndarray],
    step: int,
    learning_rate: float = 0.001,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Adam step number ``step`` (from 1) over dicts of named tensors, in place.

    One tensor at a time with separate moment dicts: the update the
    parameter buffer's ``adam_step`` must reproduce bit for bit.
    """
    correction1 = 1.0 - beta1**step
    correction2 = 1.0 - beta2**step
    for name, tensor in tensors.items():
        g = grads[name]
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * np.square(g)
        m_hat = m[name] / correction1
        v_hat = v[name] / correction2
        tensor -= learning_rate * m_hat / (np.sqrt(v_hat) + eps)


def reference_staleness_aggregate(
    records: dict[int, tuple[np.ndarray, int]], exponent: float
) -> np.ndarray:
    """Staleness-weighted mean of ``{client: (vector, version)}``, one client
    at a time in id order: the loop the server's coefficient-vector-times-table
    product must match to rounding."""
    latest = max(version for _, version in records.values())
    raw = {cid: float(latest - version + 1) ** (-exponent) for cid, (_, version) in records.items()}
    total = sum(raw.values())
    out = np.zeros_like(next(iter(records.values()))[0], dtype=np.float64)
    for cid in sorted(records):
        out += (raw[cid] / total) * records[cid][0]
    return out
