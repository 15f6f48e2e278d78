"""Two-level attention embedding network over meta-path adjacency features.

Per meta path, a node's raw feature is its adjacency vector (walk counts
to every other target node).  A linear transform maps it to a d-vector;
node-level attention weights each meta-path neighbor by the softmax of
cosine similarities between transformed features; the weighted neighbor
sum passes through an ELU and is concatenated with the node's own
transformed feature, then projected back to d dimensions.  Meta-path-
level attention scores each per-path embedding by the cosine between a
learned per-node preference vector and a shared projection of the
embedding, softmaxes across paths, and fuses.  A linear classifier head
with summed cross-entropy closes the objective.

The M meta paths are one block-diagonal (M N x M N) CSR matrix: row
``p * N + i`` is node i's adjacency row in path p, its columns offset by
``p * N``, and ``wt`` read as one (M N, d) block holds the transforms in
the same order.  So the node level runs once for all paths: a batch of B
nodes becomes the M B stacked rows ``p * N + batch``, and row or segment
``p * B + b`` of every node-level array is batch node b in path p.  The
meta-path level is (B, M, .) array algebra.

The stacked rows' neighbor lists (sampled or whole) are laid end to end
in one flat ``idx`` array: segment s owns ``idx[indptr[s]:indptr[s + 1]]``
and ``owner`` names the segment of every entry.  To sample, every entry
draws a uniform key from one ``rng.random(E)``, one ``argsort`` orders the
keys within each segment, and each segment keeps its ``sample_size``
smallest: a uniform sample without replacement, in ascending order.

The pass works on the R rows it touches, the stacked batch and its
neighbors, sliced out of the matrix when few enough are touched and the
whole matrix otherwise.  ``H = A[rows] @ wt`` is their (R, d) transform.
Node-level attention is a segment softmax, the neighbor aggregate is
``C @ H`` with ``C`` the sparse (M B, R) matrix of attention
coefficients, and each cosine numerator is its own entry's dot product,
so a node's node-level values are the same bits in any batch.

``backward`` mirrors the forward pass with scatters that stay correct
when a neighbor or a batch node repeats, and adds ``A[rows].T @ dH``
straight into the gradient buffer.  Its gradients are hand-derived and
checked against central finite differences in the test suite, as is the
forward pass against a per-node reference.  Every per-batch sparse-dense
product calls scipy's compiled ``csr_matvecs`` (or ``csc_matvecs`` for a
transpose: a CSR matrix's arrays read as CSC are its transpose), the
kernels ``csr_matrix.__matmul__`` calls, so the sums are scipy's bit for
bit and no sparse matrix object is built per batch.

All arithmetic is float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .graph import MetaPathAdjacency


class ModelError(Exception):
    """Shape or contract violation in the embedding model."""


# -- activation --------------------------------------------------------------


def _elu(x):
    return np.where(x > 0, x, np.expm1(x))


def _elu_grad(x):
    return np.where(x > 0, 1.0, np.exp(x))


def softmax(x: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


# -- parameters ------------------------------------------------------------


@dataclass(frozen=True)
class ModelDims:
    """Shape bookkeeping for one model instance."""

    n_targets: int
    n_paths: int
    embedding_dim: int
    preference_dim: int
    n_labels: int


def _layout(dims: ModelDims) -> list[tuple[str, tuple[int, int]]]:
    """Tensor names and shapes in buffer order: the shared tensors, then ``pref``."""
    d, m = dims.embedding_dim, dims.n_paths
    return (
        [(f"wt_{p}", (dims.n_targets, d)) for p in range(m)]
        + [(f"wc_{p}", (d, 2 * d)) for p in range(m)]
        + [("wp", (dims.preference_dim, d)), ("wo", (dims.n_labels, d))]
        + [("pref", (dims.n_targets, dims.preference_dim))]
    )


def _manifest(dims: ModelDims) -> list[dict]:
    manifest = [{"name": name, "shape": list(shape)} for name, shape in _layout(dims)[:-1]]
    # the key tells the node-major transforms from the (d, N) transforms of
    # older checkpoints, whose shapes are the same when d == N
    for entry in manifest[: dims.n_paths]:
        entry["layout"] = "node-major"
    return manifest


def _zeros(*shape: int) -> np.ndarray:
    try:
        return np.zeros(shape)
    except (MemoryError, ValueError) as exc:  # ValueError: beyond numpy's size limit
        values = " x ".join(map(str, shape))
        raise ModelError(f"cannot allocate the model's float64 parameters ({values}): {exc}") from None


class ModelParams:
    """All learnable tensors, as named views into one contiguous float64 buffer.

    ``wt[p]`` (N x d) transforms adjacency vectors of meta path p, stored
    node-major so that ``A @ wt[p]`` reads it as it lies;
    ``wc[p]`` (d x 2d) recombines the aggregated-neighbor / self
    concatenation; ``wp`` (k x d) projects per-path embeddings into the
    preference space; ``wo`` (L x d) is the classifier head; ``pref``
    (N x k) holds one preference vector per target node.  ``buffer``
    holds them in the order wt_0..wt_{M-1}, wc_0..wc_{M-1}, wp, wo, pref.
    Its first ``n_shared`` values are the tensors shared across federated
    clients; ``pref`` is never uploaded.

    ``wt`` and ``wc`` are (M, ., .) views, so ``params.wt[p] = values``
    writes into the buffer.  A new instance is all zeros.  Fields cannot
    be rebound, so a tensor never detaches from the buffer: write through
    the views instead, e.g. ``params.wo[...] = values``.  ``rows`` builds
    many instances whose buffers are the rows of one table.
    """

    __slots__ = ("dims", "buffer", "n_shared", "wt", "wc", "wp", "wo", "pref", "_items")

    def __init__(self, dims: ModelDims, _row: np.ndarray | None = None):
        layout = _layout(dims)
        sizes = [rows * cols for _, (rows, cols) in layout]
        buffer = _zeros(sum(sizes)) if _row is None else _row
        bounds = np.cumsum([0] + sizes).tolist()
        views = [buffer[a:b].reshape(shape) for (_, shape), a, b in zip(layout, bounds, bounds[1:])]
        d, m = dims.embedding_dim, dims.n_paths
        fields = dict(
            dims=dims, buffer=buffer, n_shared=bounds[-2],
            wt=buffer[: bounds[m]].reshape(m, dims.n_targets, d),
            wc=buffer[bounds[m] : bounds[2 * m]].reshape(m, d, 2 * d),
            wp=views[-3], wo=views[-2], pref=views[-1],
            _items=tuple((name, view) for (name, _), view in zip(layout, views)),
        )
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        # augmented assignment (params.wo -= x) updates the view in place and
        # then rebinds the name to that same view, which changes nothing
        if value is not getattr(self, name, None):
            raise AttributeError(
                f"cannot rebind ModelParams.{name}: its tensors are views into one buffer; "
                "write through them instead"
            )

    @classmethod
    def rows(cls, dims: ModelDims, n: int) -> list["ModelParams"]:
        """``n`` zeroed instances whose buffers are the rows, in order, of one
        C-contiguous (n, size) table, which is each buffer's ``base``."""
        size = sum(rows * cols for _, (rows, cols) in _layout(dims))
        return [cls(dims, row) for row in _zeros(n, size)]

    def tensor_items(self) -> list[tuple[str, np.ndarray]]:
        """Named tensor views in buffer order (shared tensors first, then pref)."""
        return list(self._items)

    def copy(self) -> "ModelParams":
        out = ModelParams(self.dims)
        out.buffer[...] = self.buffer
        return out

    def zeros_like(self) -> "ModelParams":
        return ModelParams(self.dims)


def init_params(dims: ModelDims, rng: np.random.Generator) -> ModelParams:
    """Random initialization: uniform +-1/sqrt(fan_in) for matrices, unit-norm
    Gaussian rows for preference vectors.  Each transform is drawn as its
    (d, N) transpose, with fan-in N."""
    params = ModelParams(dims)
    for w in [*(wt.T for wt in params.wt), *params.wc, params.wp, params.wo]:
        bound = 1.0 / math.sqrt(w.shape[1])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    params.pref[...] = rng.standard_normal(params.pref.shape) / math.sqrt(dims.preference_dim)
    params.pref /= np.linalg.norm(params.pref, axis=1, keepdims=True)
    return params


def shape_manifest(params: ModelParams) -> list[dict]:
    """Ordered name/shape listing of the shared (federated) tensors."""
    return _manifest(params.dims)


def dims_from_manifest(manifest: list[dict]) -> ModelDims:
    """The dims whose shared tensors ``manifest`` lists, the inverse of
    ``shape_manifest``; ``ModelError`` when it is no model's layout."""
    try:
        (n, d), (k, _), (n_labels, _) = (manifest[i]["shape"] for i in (0, -2, -1))
        # n_targets, n_paths, embedding_dim, preference_dim, n_labels
        dims = ModelDims(n, (len(manifest) - 2) // 2, d, k, n_labels)
        if min(d, n, k, n_labels) >= 1 and _manifest(dims) == manifest:
            return dims
    except (IndexError, KeyError, TypeError, ValueError):
        pass
    raise ModelError(f"manifest lists no model parameter layout: {manifest!r}")


def pack_shared(params: ModelParams) -> np.ndarray:
    """A copy of the shared tensors as one float64 vector in manifest order."""
    return params.buffer[: params.n_shared].copy()


def unpack_shared(flat: np.ndarray, params: ModelParams) -> ModelParams:
    """Write a flat vector back into the shared tensors of ``params`` (in place)."""
    flat = np.asarray(flat, dtype=np.float64)
    if flat.size < params.n_shared:
        raise ModelError(f"flat vector too short: need {params.n_shared}, got {flat.size}")
    if flat.size > params.n_shared:
        raise ModelError(f"flat vector too long: expected {params.n_shared}, got {flat.size}")
    params.buffer[: params.n_shared] = flat
    return params


# -- sparse products -----------------------------------------------------------

# A CSR matrix as its arrays (indptr, indices, data).
CsrArrays = tuple[np.ndarray, np.ndarray, np.ndarray]


def _check_operands(indptr: np.ndarray, indices: np.ndarray, x: np.ndarray) -> None:
    # the kernels take x as a flat C-order buffer: a strided x would be
    # copied by ravel() and another dtype converted on every call
    if x.dtype != np.float64 or not x.flags.c_contiguous or indptr.dtype != indices.dtype:
        raise ModelError(
            "sparse products need a C-contiguous float64 operand and one CSR index dtype"
        )


def _csr_matmul(
    indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """``M @ x`` for the CSR matrix M held as ``(indptr, indices, data)``,
    with ``x.shape[0]`` columns; ``x`` is a C-contiguous float64 (n, k) array."""
    _check_operands(indptr, indices, x)
    n_rows, (n_cols, k) = indptr.size - 1, x.shape
    out = np.zeros((n_rows, k))
    _sparsetools.csr_matvecs(n_rows, n_cols, k, indptr, indices, data, x.ravel(), out.ravel())
    return out


def _csr_matmul_t(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    x: np.ndarray,
    n_cols: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``M.T @ x`` for the CSR matrix M (n_cols columns) held as
    ``(indptr, indices, data)``: its arrays read as CSC are M.T.  Given
    ``out``, a C-contiguous float64 (n_cols, k) array, the product is added
    into it and ``out`` is returned."""
    _check_operands(indptr, indices, x)
    n_rows, k = indptr.size - 1, x.shape[1]
    if x.shape[0] != n_rows:
        raise ModelError(f"M.T @ x needs {n_rows} rows in x, got {x.shape[0]}")
    if out is None:
        out = np.zeros((n_cols, k))
    elif out.shape != (n_cols, k) or out.dtype != np.float64 or not out.flags.c_contiguous:
        # ravel() would copy such an array, and the product would be lost
        raise ModelError(
            f"M.T @ x adds into a C-contiguous float64 array of shape {(n_cols, k)}, "
            f"got {out.dtype} of shape {out.shape}"
        )
    _sparsetools.csc_matvecs(n_cols, n_rows, k, indptr, indices, data, x.ravel(), out.ravel())
    return out


# -- neighbor segments -------------------------------------------------------

# Gathered values per operand in one chunk of per-entry dots (256 KB): a
# full-neighbor pass over thousands of nodes has millions of entries, whose
# whole (entries x d) gathers would take gigabytes.
_DOT_VALUES = 1 << 15


@dataclass(frozen=True)
class NeighborSegments:
    """The stacked batch rows' neighbor lists, laid end to end.

    Segment s owns ``idx[indptr[s]:indptr[s + 1]]``; ``owner[e]`` is the
    segment of entry e.  A segment never repeats a neighbor and lists its
    neighbors in ascending order.  ``indptr`` and ``idx`` share the CSR
    index dtype, so with a value per entry they are the CSR arrays of a
    sparse (M B, .) matrix S holding the values at (owner, idx).  Each
    method computes a segment's values from its own entries alone.
    """

    idx: np.ndarray     # (E,) neighbor rows, or their positions in the touched rows
    indptr: np.ndarray  # (M B + 1,) segment offsets
    owner: np.ndarray   # (E,) segment of each entry

    @property
    def n_rows(self) -> int:
        return self.indptr.size - 1

    def matmul(self, values: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``S @ x`` for S holding ``values`` at (owner, idx)."""
        return _csr_matmul(self.indptr, self.idx, values, x)

    def matmul_t(self, values: np.ndarray, x: np.ndarray, n_cols: int) -> np.ndarray:
        """``S.T @ x``, an (n_cols, .) array, for S holding ``values`` at (owner, idx)."""
        return _csr_matmul_t(self.indptr, self.idx, values, x, n_cols)

    def sums(self, values: np.ndarray) -> np.ndarray:
        """Per-segment sums of an (E,) array; 0 for empty segments."""
        return np.bincount(self.owner, weights=values, minlength=self.n_rows)

    def softmax(self, x: np.ndarray) -> np.ndarray:
        """Softmax within every segment, shifted by the segment's max."""
        nonempty = self.indptr[:-1] < self.indptr[1:]
        peak = np.zeros(self.n_rows)
        # reduceat reads an empty segment as the single element at its offset
        peak[nonempty] = np.maximum.reduceat(x, self.indptr[:-1][nonempty])
        e = np.exp(x - peak[self.owner])
        return e / self.sums(e)[self.owner]

    def dots(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """``(left @ right.T)[owner, idx]``, one dot product per entry, over
        chunks of entries whose gathered rows hold ``_DOT_VALUES`` values."""
        out = np.empty(self.idx.size)
        step = max(1, _DOT_VALUES // left.shape[1])
        for lo in range(0, out.size, step):
            hi = lo + step
            np.einsum("ij,ij->i", left[self.owner[lo:hi]], right[self.idx[lo:hi]], out=out[lo:hi])
        return out


def _touched_rows(
    mat: sp.csr_matrix, batch: np.ndarray, seg: NeighborSegments, width: int
) -> tuple[np.ndarray, CsrArrays, np.ndarray, NeighborSegments]:
    """The rows the pass reads, sliced out when that pays: ``rows``, the
    sorted union of the batch rows and their neighbors; their adjacency
    rows as CSR arrays; and the batch and the segments renumbered to
    positions in ``rows``.
    When slicing does not pay, ``rows`` is every row and nothing changes."""
    n = mat.shape[0]
    mask = np.zeros(n, dtype=bool)
    mask[batch] = True
    mask[seg.idx] = True
    # the slice copies the touched rows' entries; the transform and its
    # backward then skip ``width`` multiply-adds per entry of the other rows.
    # Timed on the 400-author benchmark graphs (2-core x86, one BLAS
    # thread), that pays while fewer than about width / (width + 24) of the
    # rows are touched (0.57 at width 32, 0.84 at 128).
    if np.count_nonzero(mask) * (width + 24) > n * width:
        return np.arange(n), (mat.indptr, mat.indices, mat.data), batch, seg
    rows = np.flatnonzero(mask)
    local = np.cumsum(mask, dtype=mat.indices.dtype) - 1
    degree = np.diff(mat.indptr)
    entries = np.repeat(mask, degree)  # the CSR entries of the touched rows
    indptr = np.zeros(rows.size + 1, dtype=mat.indices.dtype)
    np.cumsum(degree[rows], out=indptr[1:])
    block = (indptr, mat.indices[entries], mat.data[entries])
    return rows, block, local[batch], replace(seg, idx=local[seg.idx])


# -- forward trace ---------------------------------------------------------


@dataclass
class ForwardTrace:
    """Batch forward record: everything ``backward`` needs, as batched arrays.

    The node-level fields stack the meta paths: their row (or segment)
    ``p * B + b`` is batch node b in path p, and ``rows`` are rows of the
    block-diagonal matrix.
    """

    params: ModelParams
    batch: np.ndarray                  # (B,) target node indices
    labels: np.ndarray                 # (B,) labels, -1 for an unlabeled pass
    rows: np.ndarray                   # (R,) the stacked batch and its neighbors, or all M N rows
    adjacency: CsrArrays               # (R, M N) their adjacency rows A[rows]
    transformed: np.ndarray            # (R, d) transformed features H = A[rows] @ wt
    norms: np.ndarray                  # (R,) row norms of H
    own: np.ndarray                    # (M B,) each stacked batch row's position in rows
    segments: NeighborSegments         # sampled neighbor lists, as positions in rows
    sims: np.ndarray                   # (E,) cosine similarities, 0 where degenerate
    sim_valid: np.ndarray              # (E,) False where a norm was zero
    coeffs: np.ndarray                 # (E,) node-level attention, a simplex per segment
    preact: np.ndarray                 # (M B, d) coefficient-weighted neighbor sums u
    combined: np.ndarray               # (M, B, 2d) concat(elu(u), H[own]) per path
    path_embed: np.ndarray             # (B, M, d)
    projected: np.ndarray              # (B, M, k)
    raw_path_scores: np.ndarray        # (B, M)
    path_score_valid: np.ndarray       # (B, M)
    path_coeffs: np.ndarray            # (B, M)
    fused: np.ndarray                  # (B, d)
    probs: np.ndarray                  # (B, L)
    losses: np.ndarray                 # (B,) per-node cross-entropy, 0 if unlabeled
    total_loss: float
    zero_norm_events: int = 0


# -- the model ---------------------------------------------------------------


class AttentionModel:
    """Embedding network bound to a fixed set of meta-path adjacencies.

    The model object holds graph-derived structure only: ``matrix`` is
    the float64 CSR block-diagonal matrix whose block p is meta path p's
    adjacency, and the adjacencies it was built from are not kept.
    Parameters travel separately so that snapshots can be copied between
    federated workers.  ``forward`` and ``backward`` keep no per-call state
    on the instance, so workers may share one model.
    """

    def __init__(
        self,
        adjacencies: Sequence[MetaPathAdjacency],
        n_labels: int,
        embedding_dim: int,
        preference_dim: int,
        sample_size: int | None = 16,
    ):
        if not adjacencies:
            raise ModelError("at least one meta-path adjacency is required")
        n = adjacencies[0].n
        for adj in adjacencies:
            if adj.matrix.shape != (n, n):
                raise ModelError("all meta-path adjacencies must be square with equal size")
        if n_labels < 1:
            raise ModelError("n_labels must be >= 1")
        # block p is path p's CSR arrays, columns and row offsets shifted;
        # sp.block_diag would build COO row and column arrays for every entry
        mats = [adj.matrix.tocsr() for adj in adjacencies]
        first = np.cumsum([0] + [mat.nnz for mat in mats])
        self.matrix = sp.csr_matrix(
            (
                np.concatenate([mat.data for mat in mats]).astype(np.float64),
                np.concatenate([mat.indices + np.int64(p * n) for p, mat in enumerate(mats)]),
                np.concatenate([[0]] + [mat.indptr[1:] + f for mat, f in zip(mats, first)]),
            ),
            shape=(len(mats) * n, len(mats) * n),
        )
        self.dims = ModelDims(
            n_targets=n,
            n_paths=len(adjacencies),
            embedding_dim=embedding_dim,
            preference_dim=preference_dim,
            n_labels=n_labels,
        )
        # no list is longer than N, and a cap past the index dtype overflows it
        self.sample_size = sample_size if sample_size is None else min(sample_size, n)

    def _neighbor_segments(
        self, stacked: np.ndarray, rng: np.random.Generator | None
    ) -> NeighborSegments:
        """The neighbor lists of the stacked batch rows; lists longer than
        ``sample_size`` are replaced by a sorted uniform sample."""
        mat = self.matrix
        start = mat.indptr[stacked]
        degree = mat.indptr[stacked + 1] - start
        # segment offsets share the CSR index dtype, as the sparse products require
        indptr = np.zeros(stacked.size + 1, dtype=mat.indices.dtype)
        np.cumsum(degree, out=indptr[1:])
        owner = np.repeat(np.arange(stacked.size), degree)
        offsets = start[owner] + np.arange(indptr[-1]) - indptr[owner]
        if rng is not None and self.sample_size is not None:
            # each entry draws a uniform key and each segment keeps its
            # sample_size smallest keys, so a sample is uniform without
            # replacement; 2 * owner keeps segments apart where owner + key
            # would round up to owner + 1
            order = np.argsort(2 * owner + rng.random(owner.size))
            keep = np.zeros(owner.size, dtype=bool)
            keep[order[np.arange(owner.size) - indptr[owner] < self.sample_size]] = True
            offsets, owner = offsets[keep], owner[keep]
            np.cumsum(np.minimum(degree, self.sample_size), out=indptr[1:])
        return NeighborSegments(idx=mat.indices[offsets], indptr=indptr, owner=owner)

    def forward(
        self,
        params: ModelParams,
        batch: Sequence[int],
        labels: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
    ) -> ForwardTrace:
        """Run the full two-level attention pass for a batch of target nodes.

        Neighbor sampling happens only when both ``rng`` and the model's
        ``sample_size`` are set; otherwise all neighbors participate and
        the pass is deterministic in (params, graph).
        """
        dims = self.dims
        n, n_paths, d = dims.n_targets, dims.n_paths, dims.embedding_dim
        batch = np.asarray(batch, dtype=np.int64)
        outside = np.flatnonzero((batch < 0) | (batch >= n))
        if outside.size:
            raise ModelError(f"batch id {batch[outside[0]]} is outside 0..{n - 1}")
        n_batch = batch.size
        node_labels = np.full(n_batch, -1, dtype=np.int64)
        if labels is not None:
            node_labels = np.asarray(labels, dtype=np.int64)[batch]
            missing = np.flatnonzero(node_labels < 0)
            if missing.size:
                raise ModelError(
                    f"node {batch[missing[0]]} has no label; cannot contribute to the loss"
                )

        # node level, all meta paths at once, over the rows the batch touches
        stacked = (n * np.arange(n_paths)[:, None] + batch).ravel()
        seg = self._neighbor_segments(stacked, rng)
        rows, adjacency, own, seg = _touched_rows(self.matrix, stacked, seg, d)
        # (R, d); row r = A[rows[r]] @ wt
        h = _csr_matmul(*adjacency, params.wt.reshape(-1, d))
        norm = np.linalg.norm(h, axis=1)
        hb = h[own]
        denom = norm[own][seg.owner] * norm[seg.idx]
        valid = denom > 0.0
        sims = np.zeros(seg.idx.size)
        sims[valid] = seg.dots(hb, h)[valid] / denom[valid]
        zero_events = int((~valid).sum())
        coeffs = seg.softmax(sims)
        u = seg.matmul(coeffs, h)
        a = _elu(u)
        combined = np.concatenate([a, hb], axis=1).reshape(n_paths, n_batch, 2 * d)
        path_embed = np.ascontiguousarray(
            (combined @ params.wc.transpose(0, 2, 1)).transpose(1, 0, 2)
        )

        # meta-path level: cosine against the node's preference vector
        projected = (path_embed.reshape(-1, d) @ params.wp.T).reshape(
            n_batch, n_paths, dims.preference_dim
        )
        pref = params.pref[batch]
        pref_norm = np.linalg.norm(pref, axis=1)
        proj_norms = np.linalg.norm(projected, axis=2)
        score_valid = (proj_norms > 0.0) & (pref_norm[:, None] > 0.0)
        raw_scores = np.zeros((n_batch, n_paths))
        dots = np.einsum("bmk,bk->bm", projected, pref)
        raw_scores[score_valid] = dots[score_valid] / (pref_norm[:, None] * proj_norms)[score_valid]
        zero_events += int((~score_valid).sum())
        path_coeffs = softmax(raw_scores)
        fused = np.einsum("bm,bmd->bd", path_coeffs, path_embed)
        probs = softmax(fused @ params.wo.T)

        losses = np.zeros(n_batch)
        total = 0.0
        if labels is not None:
            picked = probs[np.arange(n_batch), node_labels]
            losses = -np.log(np.maximum(picked, np.finfo(np.float64).tiny))
            total = math.fsum(losses)

        return ForwardTrace(
            params=params, batch=batch, labels=node_labels, rows=rows,
            adjacency=adjacency, transformed=h, norms=norm, own=own, segments=seg, sims=sims,
            sim_valid=valid, coeffs=coeffs, preact=u, combined=combined, path_embed=path_embed,
            projected=projected, raw_path_scores=raw_scores, path_score_valid=score_valid,
            path_coeffs=path_coeffs, fused=fused, probs=probs, losses=losses,
            total_loss=total, zero_norm_events=zero_events,
        )

    def backward(self, trace: ForwardTrace) -> ModelParams:
        """Exact gradients of the traced batch loss w.r.t. every parameter tensor."""
        params = trace.params
        dims = self.dims
        d, k = dims.embedding_dim, dims.preference_dim
        batch = trace.batch
        grads = params.zeros_like()

        # classifier head: d loss / d logits = probs - onehot (0 when unlabeled)
        labeled = np.flatnonzero(trace.labels >= 0)
        dlogits = np.zeros_like(trace.probs)
        dlogits[labeled] = trace.probs[labeled]
        dlogits[labeled, trace.labels[labeled]] -= 1.0
        grads.wo[...] = dlogits.T @ trace.fused
        dfused = dlogits @ params.wo                                       # (B, d)

        # fuse: e = sum_p delta_p e_p
        pc = trace.path_coeffs
        dpath_coeffs = np.einsum("bmd,bd->bm", trace.path_embed, dfused)  # (B, M)
        dpath_embed = pc[:, :, None] * dfused[:, None, :]                  # (B, M, d)

        # softmax across meta paths; degenerate cosines are constants
        draw = pc * (dpath_coeffs - (pc * dpath_coeffs).sum(axis=1, keepdims=True))
        valid = trace.path_score_valid
        draw = np.where(valid, draw, 0.0)

        # cosine(pref_i, f_p) with f_p = wp @ e_p
        pref = params.pref[batch]
        f = trace.projected
        cos = trace.raw_path_scores
        pref_norm = np.linalg.norm(pref, axis=1)
        pref_norm = np.where(pref_norm > 0.0, pref_norm, 1.0)[:, None]    # (B, 1)
        f_norm = np.where(valid, np.linalg.norm(f, axis=2), 1.0)           # (B, M)
        w = draw / (pref_norm * f_norm)
        dpref = np.einsum("bm,bmk->bk", w, f)
        dpref -= (draw * cos).sum(axis=1)[:, None] * pref / pref_norm**2
        np.add.at(grads.pref, batch, dpref)
        dprojected = w[:, :, None] * pref[:, None, :] - (draw * cos / f_norm**2)[:, :, None] * f
        grads.wp[...] = dprojected.reshape(-1, k).T @ trace.path_embed.reshape(-1, d)
        dpath_embed += dprojected @ params.wp

        # node level, all meta paths at once, rows in the forward's stacked order
        seg, h, norm, own = trace.segments, trace.transformed, trace.norms, trace.own
        r, hb = trace.rows.size, h[own]
        de = dpath_embed.transpose(1, 0, 2)                                # (M, B, d)
        # e_p = wc_p @ concat(a, hi)
        np.matmul(de.transpose(0, 2, 1), trace.combined, out=grads.wc)
        dstacked = (de @ params.wc).reshape(-1, 2 * d)
        dhb = dstacked[:, d:]
        # a = elu(u), u = C @ H
        du = dstacked[:, :d] * _elu_grad(trace.preact)

        # coeffs = segment softmax(sims)
        dcoeffs = seg.dots(du, h)
        dsims = trace.coeffs * (dcoeffs - seg.sums(trace.coeffs * dcoeffs)[seg.owner])
        dsims = np.where(trace.sim_valid, dsims, 0.0)

        # d cos(hi, hj) / d hi and / d hj; degenerate cosines are constants
        nb = norm[own]
        nn = np.where(trace.sim_valid, norm[seg.idx], 1.0)
        wvals = dsims / np.where(trace.sim_valid, nb[seg.owner] * nn, 1.0)
        nb = np.where(nb > 0.0, nb, 1.0)
        dhb = dhb + seg.matmul(wvals, h) - (seg.sums(dsims * trace.sims) / nb**2)[:, None] * hb
        dh = seg.matmul_t(trace.coeffs, du, r)  # (R, d)
        dh += seg.matmul_t(wvals, hb, r)
        dh -= np.bincount(seg.idx, weights=dsims * trace.sims / nn**2, minlength=r)[:, None] * h
        np.add.at(dh, own, dhb)

        # h = A[rows] @ wt, so d wt = A[rows].T @ dH, added into the zeros
        _csr_matmul_t(*trace.adjacency, dh, self.matrix.shape[0], out=grads.wt.reshape(-1, d))
        return grads
