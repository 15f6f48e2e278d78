"""Two-level attention embedding network over meta-path adjacency features.

Per meta path, a node's raw feature is its adjacency vector (walk counts
to every other target node).  A linear transform maps it to a d-vector;
node-level attention weights each meta-path neighbor by the softmax of
cosine similarities between transformed features; the weighted neighbor
sum passes through an activation and is concatenated with the node's own
transformed feature, then projected back to d dimensions.  Meta-path-
level attention scores each per-path embedding by the cosine between a
learned per-node preference vector and a shared projection of the
embedding, softmaxes across paths, and fuses.  A linear classifier head
with summed cross-entropy closes the objective.

A batch of B target nodes is computed at once.  Per meta path, the
batch's neighbor lists (sampled or whole) are laid end to end in one
flat ``idx`` array of neighbor ids: batch row b owns
``idx[indptr[b]:indptr[b + 1]]``, and ``owner`` names the batch row of
every entry.  Whole lists are sliced straight from the adjacency's CSR
``indptr``/``indices``.  Node-level attention is then a segment softmax
(the per-segment max from ``np.maximum.reduceat`` over the non-empty
segments, the sums from ``np.bincount``), and the neighbor aggregate is
``C @ H`` with ``C`` the sparse (B, N) matrix of attention coefficients.
Cosine numerators are read from the (B, N) block ``H[batch] @ H.T``,
computed a fixed number of rows at a time, so no (entries x d) gather
over the neighbor lists is ever built.  The meta-path level is
(B, M, .) array algebra.

``backward`` mirrors the forward pass with scatters that stay correct
when a neighbor or a batch node repeats: the sparse transposes
``C.T @ dU`` and ``W.T @ H[batch]``, ``np.bincount`` over neighbor ids
and ``np.add.at`` over batch rows, then ``dH.T @ A`` for the transform
weights.  It returns exact reverse-mode gradients of the batch loss with
respect to every parameter tensor; they are hand-derived for this fixed
architecture and checked against central finite differences in the test
suite, as is the forward pass against a per-node reference.

All arithmetic is float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .graph import MetaPathAdjacency


class ModelError(Exception):
    """Shape or contract violation in the embedding model."""


# -- activations -----------------------------------------------------------


def _elu(x):
    return np.where(x > 0, x, np.expm1(x))


def _elu_grad(x):
    return np.where(x > 0, 1.0, np.exp(x))


def _relu(x):
    return np.maximum(x, 0.0)


def _relu_grad(x):
    return (x > 0).astype(np.float64)


ACTIVATIONS = {
    "identity": (lambda x: x, lambda x: np.ones_like(x)),
    "relu": (_relu, _relu_grad),
    "elu": (_elu, _elu_grad),
}


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


@dataclass
class ModelParams:
    """All learnable tensors.

    ``wt[p]`` (d x N) transforms adjacency vectors of meta path p;
    ``wc[p]`` (d x 2d) recombines the aggregated-neighbor / self
    concatenation; ``wp`` (k x d) projects per-path embeddings into the
    preference space; ``wo`` (L x d) is the classifier head; ``pref``
    (N x k) holds one preference vector per target node.  The first four
    are shared across federated clients; ``pref`` stays client-local.
    """

    wt: list[np.ndarray]
    wc: list[np.ndarray]
    wp: np.ndarray
    wo: np.ndarray
    pref: np.ndarray

    @property
    def n_paths(self) -> int:
        return len(self.wt)

    def tensor_items(self) -> list[tuple[str, np.ndarray]]:
        """Named tensors in canonical order (shared tensors first, then pref)."""
        items = [(f"wt_{p}", self.wt[p]) for p in range(self.n_paths)]
        items += [(f"wc_{p}", self.wc[p]) for p in range(self.n_paths)]
        items += [("wp", self.wp), ("wo", self.wo), ("pref", self.pref)]
        return items

    def shared_items(self) -> list[tuple[str, np.ndarray]]:
        return [(n, t) for n, t in self.tensor_items() if n != "pref"]

    def copy(self) -> "ModelParams":
        return ModelParams(
            wt=[w.copy() for w in self.wt],
            wc=[w.copy() for w in self.wc],
            wp=self.wp.copy(),
            wo=self.wo.copy(),
            pref=self.pref.copy(),
        )

    def zeros_like(self) -> "ModelParams":
        return ModelParams(
            wt=[np.zeros_like(w) for w in self.wt],
            wc=[np.zeros_like(w) for w in self.wc],
            wp=np.zeros_like(self.wp),
            wo=np.zeros_like(self.wo),
            pref=np.zeros_like(self.pref),
        )


def init_params(dims: ModelDims, rng: np.random.Generator) -> ModelParams:
    """Random initialization: uniform +-1/sqrt(fan_in) for matrices, unit-norm
    Gaussian rows for preference vectors."""
    d, k, n, m, nl = (
        dims.embedding_dim,
        dims.preference_dim,
        dims.n_targets,
        dims.n_paths,
        dims.n_labels,
    )

    def uniform(rows, cols):
        bound = 1.0 / math.sqrt(cols)
        return rng.uniform(-bound, bound, size=(rows, cols))

    wt = [uniform(d, n) for _ in range(m)]
    wc = [uniform(d, 2 * d) for _ in range(m)]
    wp = uniform(k, d)
    wo = uniform(nl, d)
    pref = rng.standard_normal((n, k)) / math.sqrt(k)
    pref /= np.linalg.norm(pref, axis=1, keepdims=True)
    return ModelParams(wt=wt, wc=wc, wp=wp, wo=wo, pref=pref)


def shape_manifest(params: ModelParams) -> list[dict]:
    """Ordered name/shape listing of the shared (federated) tensors."""
    return [{"name": n, "shape": list(t.shape)} for n, t in params.shared_items()]


def pack_shared(params: ModelParams) -> np.ndarray:
    """Flatten the shared tensors into one float64 vector in manifest order."""
    return np.concatenate([t.ravel() for _, t in params.shared_items()])


def unpack_shared(flat: np.ndarray, params: ModelParams) -> ModelParams:
    """Write a flat vector back into the shared tensors of ``params`` (in place)."""
    flat = np.asarray(flat, dtype=np.float64)
    offset = 0
    for _, tensor in params.shared_items():
        size = tensor.size
        if offset + size > flat.size:
            raise ModelError(
                f"flat vector too short: need at least {offset + size}, got {flat.size}"
            )
        tensor[...] = flat[offset : offset + size].reshape(tensor.shape)
        offset += size
    if offset != flat.size:
        raise ModelError(f"flat vector too long: expected {offset}, got {flat.size}")
    return params


# -- neighbor segments -------------------------------------------------------

# Batch rows per (rows x N) similarity block: bounds the block's memory for
# any batch size, N and embedding width.
_BLOCK_ROWS = 256


@dataclass(frozen=True)
class NeighborSegments:
    """One meta path's neighbor lists for a batch, laid end to end.

    Batch row b owns ``idx[indptr[b]:indptr[b + 1]]``; ``owner[e]`` is the
    batch row of entry e.  A segment never repeats a neighbor id.
    """

    idx: np.ndarray     # (E,) neighbor ids
    indptr: np.ndarray  # (B + 1,) segment offsets
    owner: np.ndarray   # (E,) batch row of each entry

    @property
    def n_rows(self) -> int:
        return self.indptr.size - 1

    def matrix(self, values: np.ndarray, n_cols: int) -> sp.csr_matrix:
        """The sparse (B, n_cols) matrix holding ``values`` at (owner, idx)."""
        return sp.csr_matrix((values, self.idx, self.indptr), shape=(self.n_rows, n_cols))

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

    def gather(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """``(left @ right.T)[owner, idx]``, one block of ``_BLOCK_ROWS`` rows at a time."""
        out = np.empty(self.idx.size)
        for start in range(0, self.n_rows, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, self.n_rows)
            lo, hi = self.indptr[start], self.indptr[stop]
            block = left[start:stop] @ right.T
            out[lo:hi] = block[self.owner[lo:hi] - start, self.idx[lo:hi]]
        return out


# -- forward trace ---------------------------------------------------------


@dataclass(frozen=True)
class PathTrace:
    """One meta path's part of a batch forward pass."""

    segments: NeighborSegments  # sampled neighbor lists
    sims: np.ndarray            # (E,) cosine similarities, 0 where degenerate
    sim_valid: np.ndarray       # (E,) False where a norm was zero
    coeffs: np.ndarray          # (E,) node-level attention, a simplex per segment
    preact: np.ndarray          # (B, d) coefficient-weighted neighbor sums u
    aggregated: np.ndarray      # (B, d) act(u)


@dataclass(frozen=True)
class NodeTrace:
    """Read-only per-node view of a batch forward pass."""

    index: int
    label: int
    samples: list[np.ndarray]          # per path: sampled neighbor indices
    sims: list[np.ndarray]             # per path: cosine similarities s
    sim_valid: list[np.ndarray]        # per path: mask, False where cosine degenerated
    coeffs: list[np.ndarray]           # per path: attention coefficients c
    preact: list[np.ndarray]           # per path: pre-activation neighbor sum u
    aggregated: list[np.ndarray]       # per path: activated neighbor embedding
    path_embed: np.ndarray             # (M, d) per-path embeddings e^pi
    projected: np.ndarray              # (M, k) preference-space projections
    raw_path_scores: np.ndarray        # (M,) cosines against the preference vector
    path_score_valid: np.ndarray       # (M,) mask for degenerate cosines
    path_coeffs: np.ndarray            # (M,) softmaxed meta-path attention
    fused: np.ndarray                  # (d,)
    probs: np.ndarray                  # (L,)
    loss: float


def _readonly(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


@dataclass
class ForwardTrace:
    """Batch forward record: everything ``backward`` needs, as batched arrays."""

    params: ModelParams
    batch: np.ndarray                  # (B,) target node indices
    labels: np.ndarray                 # (B,) labels, -1 for an unlabeled pass
    transformed: list[np.ndarray]      # per path: (N, d) transformed features H
    norms: list[np.ndarray]            # per path: (N,) row norms of H
    paths: list[PathTrace]
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

    @cached_property
    def nodes(self) -> tuple[NodeTrace, ...]:
        """Per-node read-only slices of the batched arrays, in batch order."""
        views = []
        for b, i in enumerate(self.batch):
            spans = [
                (pt, slice(pt.segments.indptr[b], pt.segments.indptr[b + 1])) for pt in self.paths
            ]
            views.append(
                NodeTrace(
                    index=int(i),
                    label=int(self.labels[b]),
                    samples=[_readonly(pt.segments.idx[s]) for pt, s in spans],
                    sims=[_readonly(pt.sims[s]) for pt, s in spans],
                    sim_valid=[_readonly(pt.sim_valid[s]) for pt, s in spans],
                    coeffs=[_readonly(pt.coeffs[s]) for pt, s in spans],
                    preact=[_readonly(pt.preact[b]) for pt in self.paths],
                    aggregated=[_readonly(pt.aggregated[b]) for pt in self.paths],
                    path_embed=_readonly(self.path_embed[b]),
                    projected=_readonly(self.projected[b]),
                    raw_path_scores=_readonly(self.raw_path_scores[b]),
                    path_score_valid=_readonly(self.path_score_valid[b]),
                    path_coeffs=_readonly(self.path_coeffs[b]),
                    fused=_readonly(self.fused[b]),
                    probs=_readonly(self.probs[b]),
                    loss=float(self.losses[b]),
                )
            )
        return tuple(views)


# -- the model ---------------------------------------------------------------


class AttentionModel:
    """Embedding network bound to a fixed set of meta-path adjacencies.

    The model object holds graph-derived structure only (the adjacency
    matrices); parameters travel separately so that snapshots can be
    copied between federated workers.  ``forward`` and ``backward`` keep
    no per-call state on the instance, so workers may share one model.
    """

    def __init__(
        self,
        adjacencies: Sequence[MetaPathAdjacency],
        n_labels: int,
        embedding_dim: int = 128,
        preference_dim: int = 16,
        activation: str = "elu",
        sample_size: int | None = 16,
    ):
        if not adjacencies:
            raise ModelError("at least one meta-path adjacency is required")
        n = adjacencies[0].n
        for adj in adjacencies:
            if adj.matrix.shape != (n, n):
                raise ModelError("all meta-path adjacencies must be square with equal size")
        if activation not in ACTIVATIONS:
            raise ModelError(f"unknown activation {activation!r}; choose {sorted(ACTIVATIONS)}")
        if n_labels < 1:
            raise ModelError("n_labels must be >= 1")
        self.adjacencies = list(adjacencies)
        self.matrices = [
            adj.matrix.astype(np.float64).tocsr() for adj in adjacencies
        ]
        self.dims = ModelDims(
            n_targets=n,
            n_paths=len(adjacencies),
            embedding_dim=embedding_dim,
            preference_dim=preference_dim,
            n_labels=n_labels,
        )
        self.activation = activation
        self._act, self._act_grad = ACTIVATIONS[activation]
        self.sample_size = sample_size

    def _transformed_all(self, params: ModelParams) -> tuple[list[np.ndarray], list[np.ndarray]]:
        transformed, norms = [], []
        for p, mat in enumerate(self.matrices):
            h = mat @ params.wt[p].T  # (N, d); row i = wt @ adjacency_row(i)
            transformed.append(np.asarray(h))
            norms.append(np.linalg.norm(h, axis=1))
        return transformed, norms

    def _neighbor_segments(
        self, batch: np.ndarray, rng: np.random.Generator | None
    ) -> list[NeighborSegments]:
        """Per path, the batch's neighbor lists; lists longer than
        ``sample_size`` are replaced by a sorted uniform sample."""
        sampling = rng is not None and self.sample_size is not None
        layouts, starts, degrees = [], [], []
        for mat in self.matrices:
            start = mat.indptr[batch]
            degree = mat.indptr[batch + 1] - start
            counts = np.minimum(degree, self.sample_size) if sampling else degree
            # segment offsets share the CSR index dtype, so sparse matrices
            # over the layout are built without conversion
            indptr = np.zeros(batch.size + 1, dtype=mat.indices.dtype)
            np.cumsum(counts, out=indptr[1:])
            owner = np.repeat(np.arange(batch.size), counts)
            # a sampled segment starts as the head of its list and is overwritten below
            offsets = start[owner] + np.arange(indptr[-1]) - indptr[owner]
            idx = mat.indices[offsets]
            layouts.append(NeighborSegments(idx=idx, indptr=indptr, owner=owner))
            starts.append(start)
            degrees.append(degree)
        if sampling:
            # one draw per oversized list, node-major and path-minor: the
            # order of a node-by-node pass, so seeded runs draw the same
            # samples.  choice(n) picks the positions choice(list) picks for a
            # list of length n.
            size = self.sample_size
            oversized = np.argwhere(np.stack(degrees, axis=1) > size)
            n_listed = [degree.tolist() for degree in degrees]
            picks = [
                rng.choice(n_listed[p][b], size=size, replace=False)
                for b, p in oversized.tolist()
            ]
            if picks:
                picks = np.array(picks)
                for p, (mat, seg) in enumerate(zip(self.matrices, layouts)):
                    mine = oversized[:, 1] == p
                    rows = oversized[mine, 0]
                    sample = mat.indices[starts[p][rows][:, None] + picks[mine]]
                    seg.idx[seg.indptr[rows][:, None] + np.arange(size)] = np.sort(sample, axis=1)
        return layouts

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
        batch = np.asarray(batch, dtype=np.int64)
        n_batch, n_paths = batch.size, dims.n_paths
        node_labels = np.full(n_batch, -1, dtype=np.int64)
        if labels is not None:
            node_labels = np.asarray(labels, dtype=np.int64)[batch]
            missing = np.flatnonzero(node_labels < 0)
            if missing.size:
                raise ModelError(
                    f"node {batch[missing[0]]} has no label; cannot contribute to the loss"
                )

        transformed, norms = self._transformed_all(params)
        segments = self._neighbor_segments(batch, rng)
        zero_events = 0

        # node level, one meta path at a time
        paths = []
        path_embed = np.empty((n_batch, n_paths, dims.embedding_dim))
        for p, seg in enumerate(segments):
            h, norm = transformed[p], norms[p]
            hb = h[batch]
            denom = norm[batch][seg.owner] * norm[seg.idx]
            valid = denom > 0.0
            sims = np.zeros(seg.idx.size)
            sims[valid] = seg.gather(hb, h)[valid] / denom[valid]
            zero_events += int((~valid).sum())
            coeffs = seg.softmax(sims)
            u = seg.matrix(coeffs, dims.n_targets) @ h
            a = self._act(u)
            path_embed[:, p] = np.concatenate([a, hb], axis=1) @ params.wc[p].T
            paths.append(
                PathTrace(segments=seg, sims=sims, sim_valid=valid, coeffs=coeffs,
                          preact=u, aggregated=a)
            )

        # meta-path level: cosine against the node's preference vector
        projected = (path_embed.reshape(-1, dims.embedding_dim) @ params.wp.T).reshape(
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
            params=params,
            batch=batch,
            labels=node_labels,
            transformed=transformed,
            norms=norms,
            paths=paths,
            path_embed=path_embed,
            projected=projected,
            raw_path_scores=raw_scores,
            path_score_valid=score_valid,
            path_coeffs=path_coeffs,
            fused=fused,
            probs=probs,
            losses=losses,
            total_loss=total,
            zero_norm_events=zero_events,
        )

    def loss(
        self,
        params: ModelParams,
        batch: Sequence[int],
        labels: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> tuple[float, ForwardTrace]:
        """Summed cross-entropy over the batch, with the trace kept for backward."""
        trace = self.forward(params, batch, labels=labels, rng=rng)
        return trace.total_loss, trace

    def backward(self, trace: ForwardTrace) -> ModelParams:
        """Exact gradients of the traced batch loss w.r.t. every parameter tensor."""
        params = trace.params
        dims = self.dims
        d, k, n = dims.embedding_dim, dims.preference_dim, dims.n_targets
        batch = trace.batch
        grads = params.zeros_like()

        # classifier head: d loss / d logits = probs - onehot (0 when unlabeled)
        labeled = np.flatnonzero(trace.labels >= 0)
        dlogits = np.zeros_like(trace.probs)
        dlogits[labeled] = trace.probs[labeled]
        dlogits[labeled, trace.labels[labeled]] -= 1.0
        grads.wo = dlogits.T @ trace.fused
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
        grads.wp = dprojected.reshape(-1, k).T @ trace.path_embed.reshape(-1, d)
        dpath_embed += dprojected @ params.wp

        for p, pt in enumerate(trace.paths):
            seg = pt.segments
            h, norm = trace.transformed[p], trace.norms[p]
            hb = h[batch]
            de = dpath_embed[:, p]
            # e_p = wc @ concat(a, hi)
            grads.wc[p] = de.T @ np.concatenate([pt.aggregated, hb], axis=1)
            dstacked = de @ params.wc[p]
            dhb = dstacked[:, d:]
            # a = act(u), u = C @ H
            du = dstacked[:, :d] * self._act_grad(pt.preact)
            dh = np.asarray(seg.matrix(pt.coeffs, n).T @ du)

            # coeffs = segment softmax(sims)
            dcoeffs = seg.gather(du, h)
            dsims = pt.coeffs * (dcoeffs - seg.sums(pt.coeffs * dcoeffs)[seg.owner])
            dsims = np.where(pt.sim_valid, dsims, 0.0)

            # d cos(hi, hj) / d hi and / d hj; degenerate cosines are constants
            nb = norm[batch]
            nn = np.where(pt.sim_valid, norm[seg.idx], 1.0)
            wmat = seg.matrix(dsims / np.where(pt.sim_valid, nb[seg.owner] * nn, 1.0), n)
            nb = np.where(nb > 0.0, nb, 1.0)
            dhb = dhb + wmat @ h - (seg.sums(dsims * pt.sims) / nb**2)[:, None] * hb
            dh += wmat.T @ hb
            dh -= np.bincount(seg.idx, weights=dsims * pt.sims / nn**2, minlength=n)[:, None] * h
            np.add.at(dh, batch, dhb)

            # h = A @ wt.T, so d wt = dH.T @ A
            grads.wt[p] = np.asarray((self.matrices[p].T @ dh).T)
        return grads

    # -- inference helpers ----------------------------------------------------

    def embed(self, params: ModelParams, nodes: Sequence[int] | None = None) -> np.ndarray:
        """Fused embeddings (deterministic, no sampling) for the given nodes."""
        if nodes is None:
            nodes = np.arange(self.dims.n_targets)
        return self.forward(params, nodes, labels=None, rng=None).fused

    def predict_proba(self, params: ModelParams, nodes: Sequence[int]) -> np.ndarray:
        """Class probabilities for the given nodes (deterministic pass)."""
        return self.forward(params, nodes, labels=None, rng=None).probs
