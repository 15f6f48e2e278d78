"""Experiment orchestration: partitioning, synthetic graphs, round scheduling.

The deterministic scheduler advances virtual time in ticks.  On each tick
every client whose speed multiplier divides the tick trains locally and
uploads; with ``granularity="round"`` all uploads of a tick are recorded
before any aggregation, so with equal speeds every aggregation sees equal
versions, and with ``granularity="batch"`` each upload after a local batch
is aggregated on arrival.  A client with multiplier ``s`` therefore trains
once per ``s`` ticks, which is what makes version gaps (and the staleness
discount) actually occur.

A free-running concurrent mode drives the same server from one thread
per client, honouring ``granularity`` too; arrival order is then real, so
runs are reproducible only in expectation.

Every mode shares one client round and one delivery rule (``Delivery``).
After the server handles an upload, each uploader installs the aggregate
at once and loses any download still pending for it; after a broadcast
every other client gets the aggregate in a pending slot, where the latest
broadcast wins, and installs it when its next round starts.  A client
whose training goes non-finite aborts the run with ``TrainingDiverged``;
any other failure of a client thread reaches the caller as
``SimulationError``.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .config import ExperimentConfig
from .evaluation import EvalSplit, evaluate, make_split
from .federation import ClientUpdate, FederatedClient, ParameterServer
from .graph import HeterogeneousGraph, MetaPathSpec, metapath_adjacency
from .model import AttentionModel, ModelParams, init_params, pack_shared, unpack_shared
from .optim import NonFiniteGradient


class SimulationError(Exception):
    pass


class TrainingDiverged(SimulationError):
    """A client produced a non-finite loss or gradient; carries a diagnostic
    checkpoint path."""

    def __init__(self, message: str, checkpoint_path=None):
        super().__init__(message)
        self.checkpoint_path = checkpoint_path


def _diverged(
    message: str, client: FederatedClient, round_: int, diagnostics_dir
) -> TrainingDiverged:
    """The abort error for a diverged client; when ``diagnostics_dir`` is
    set, the client's parameters are checkpointed there first."""
    checkpoint_path = None
    if diagnostics_dir is not None:
        from .storage import save_checkpoint

        checkpoint_path = Path(diagnostics_dir) / f"diverged_round{round_}.npz"
        save_checkpoint(checkpoint_path, client.params, allow_non_finite=True)
        message = f"{message}; parameters saved to {checkpoint_path}"
    return TrainingDiverged(message, checkpoint_path=checkpoint_path)


# -- partitioning -------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """Disjoint per-client subsets of the labeled target nodes.

    Graph structure and node ids are shared by every client; only label
    ownership is private, so model shapes agree across the federation.
    """

    client_nodes: tuple[np.ndarray, ...]

    @property
    def n_clients(self) -> int:
        return len(self.client_nodes)


def partition(
    graph: HeterogeneousGraph,
    n_clients: int,
    strategy: str = "uniform",
    seed: int = 0,
    dirichlet_alpha: float = 1.0,
) -> Partition:
    """Split the labeled nodes across clients, disjointly and exhaustively.

    ``uniform`` deals a random permutation into near-equal parts;
    ``label_skew`` draws per-class client proportions from a Dirichlet so
    client label histograms diverge from the global one.
    """
    labeled = graph.labeled_nodes()
    if n_clients < 1:
        raise SimulationError("need at least one client")
    if n_clients > labeled.size:
        raise SimulationError(
            f"cannot split {labeled.size} labeled nodes across {n_clients} clients"
        )
    rng = np.random.default_rng(seed)
    if strategy == "uniform":
        parts = [np.sort(p) for p in np.array_split(rng.permutation(labeled), n_clients)]
    elif strategy == "label_skew":
        buckets: list[list[int]] = [[] for _ in range(n_clients)]
        labels = graph.labels
        for cls in np.unique(labels[labeled]):
            members = rng.permutation(labeled[labels[labeled] == cls])
            proportions = rng.dirichlet(np.full(n_clients, dirichlet_alpha))
            counts = np.floor(proportions * members.size).astype(int)
            # distribute the rounding remainder to the largest shares
            remainder = members.size - counts.sum()
            for idx in np.argsort(-proportions)[:remainder]:
                counts[idx] += 1
            offset = 0
            for c in range(n_clients):
                buckets[c].extend(members[offset : offset + counts[c]])
                offset += counts[c]
        # no client may end up empty: steal one node from the largest bucket
        for c in range(n_clients):
            if not buckets[c]:
                donor = max(range(n_clients), key=lambda b: len(buckets[b]))
                buckets[c].append(buckets[donor].pop())
        parts = [np.sort(np.array(b, dtype=np.int64)) for b in buckets]
    else:
        raise SimulationError(f"unknown partition strategy {strategy!r}")
    return Partition(client_nodes=tuple(parts))


# -- synthetic academic graph --------------------------------------------------

SYNTHETIC_SCHEMA = (
    ("author", "writes", "paper"),
    ("paper", "written_by", "author"),
    ("paper", "cites", "paper"),
    ("paper", "cited_by", "paper"),
    ("paper", "published_in", "venue"),
    ("venue", "publishes", "paper"),
)
# relation codes of the synthetic graph: each relation is followed by its reverse
_WRITES, _CITES, _PUBLISHED_IN = 0, 2, 4

# author pairs drawn per ``rng.random`` call; bounds the pair arrays in memory
_PAIR_BLOCK = 1 << 18


def synthetic_hin(
    n_authors: int = 400,
    n_papers: int = 1500,
    n_venues: int = 20,
    classes: int = 4,
    p_in: float = 0.05,
    p_out: float = 0.005,
    seed: int = 0,
) -> HeterogeneousGraph:
    """Planted-community academic graph: authors, papers, venues.

    Authors are split into ``classes`` near-equal groups.  Each same-group
    author pair co-writes a paper with probability ``p_in``, each
    cross-group pair with ``p_out``; solo papers pad the paper count up to
    ``n_papers`` when co-writes fall short.  Every paper cites two others
    and appears in one venue, both biased toward its own group by the
    ratio ``p_in / (p_in + p_out)``.  All relations are emitted in both
    directions so meta-path products behave undirectedly.  Deterministic
    given the seed.  Time grows linearly with the number of author pairs
    and of papers; memory with the number of papers.
    """
    if not (0.0 <= p_out <= p_in <= 1.0):
        raise SimulationError(
            f"need 0 <= p_out <= p_in <= 1, got p_in={p_in}, p_out={p_out}"
        )
    if classes < 1 or n_authors < classes:
        raise SimulationError("need at least one author per class")
    rng = np.random.default_rng(seed)
    sizes = np.full(classes, n_authors // classes)
    sizes[: n_authors % classes] += 1
    author_class = np.repeat(np.arange(classes), sizes)
    class_start = np.cumsum(sizes) - sizes

    # co-write events: one paper per successful pair draw
    first, second = _coauthor_pairs(rng, author_class, p_in, p_out)
    # Every later draw is a scalar ``random()`` or ``integers(0, size)`` in a
    # fixed order, replayed from the generator's raw words (``_RawReplay``):
    # the lonely-author loop one draw at a time, the per-paper loops in
    # vectorized runs wherever their use of raw words is known before
    # drawing.  A draw from a pool keeps its index and is mapped to a node id
    # afterwards in one array pass; ``pool[rng.integers(0, pool.size)]`` is
    # the same draw as ``rng.choice(pool)`` (tests/test_simulation.py checks
    # it, and the loops as they were drawn are in tests/oracles.py).
    replay = _RawReplay(rng.bit_generator)
    random, integers = replay.random, replay.integers
    within_bias = p_in / (p_in + p_out) if (p_in + p_out) > 0 else 0.5
    # guarantee one co-authored paper per author (class-biased like regular
    # co-writes) so no node is featureless; then pad the paper count with
    # solo papers
    lonely: list[int] = []
    partners: list[int] = []
    if p_in > 0:
        covered = np.zeros(n_authors, dtype=bool)
        covered[first] = covered[second] = True
        for a in np.flatnonzero(~covered).tolist():
            start, size = int(class_start[author_class[a]]), int(sizes[author_class[a]])
            # the own pool is the class without ``a``, the other pool every
            # author outside it, each in ascending id order
            own = random() < within_bias or size == n_authors
            if p_out == 0.0:
                own = True
            pool_size = size - 1 if own else n_authors - size
            if pool_size:
                k = integers(pool_size)
                lonely.append(a)
                if own:
                    partners.append(start + k + (start + k >= a))
                else:
                    partners.append(k if k < start else k + size)
    first = np.concatenate([first, np.array(lonely, dtype=np.int64)])
    second = np.concatenate([second, np.array(partners, dtype=np.int64)])

    def solo_plan(lo: int, hi: int):
        bound = np.full(hi - lo, n_authors)
        return np.zeros(hi - lo, dtype=bool), bound, bound, np.full(hi - lo, -1)

    _, solo = _replay_draws(replay, max(n_papers - first.size, 0), solo_plan, within_bias)

    n_paper_nodes = first.size + solo.size
    paper_class = author_class[np.concatenate([first, solo])]
    class_papers = np.bincount(paper_class, minlength=classes)
    by_class = np.argsort(paper_class, kind="stable")
    class_offset = np.cumsum(class_papers) - class_papers
    rank = np.empty(n_paper_nodes, dtype=np.int64)  # a paper's place within its class
    rank[by_class] = np.arange(n_paper_nodes) - class_offset[paper_class[by_class]]

    # citations: 2 per paper, class-biased, no self-citations, deduplicated.
    # Draw 2p + t is paper p's t-th: a double, then an index into its own
    # class (none when the paper is alone there, and never its own rank) or
    # into the papers outside it (none when there are none).
    own_size = class_papers[paper_class]

    def cite_plan(lo: int, hi: int):
        p = np.arange(lo, hi) >> 1
        size = own_size[p]
        own = np.where(size > 1, size, 0)
        return np.ones(hi - lo, dtype=bool), own, n_paper_nodes - size, rank[p]

    own, k = _replay_draws(replay, 2 * n_paper_nodes, cite_plan, within_bias)
    drawn = k >= 0
    own_draw, other_draw = np.flatnonzero(own & drawn), np.flatnonzero(~own & drawn)
    cite_src = np.concatenate([own_draw, other_draw]) >> 1
    n_own = own_draw.size
    cite_dst = np.concatenate([
        by_class[class_offset[paper_class[cite_src[:n_own]]] + k[own_draw]],
        _kth_outside_class(paper_class, paper_class[cite_src[n_own:]], k[other_draw], classes),
    ])
    # sorted and deduplicated; a sort and a mask are many times faster than
    # ``np.unique`` on numpy 2.4
    key = np.sort(cite_src * n_paper_nodes + cite_dst)
    first_of_key = np.ones(key.size, dtype=bool)
    first_of_key[1:] = key[1:] != key[:-1]
    cite_src, cite_dst = np.divmod(key[first_of_key], n_paper_nodes)

    # venues: one per paper, drawn from its class's venues or from the others;
    # the double is drawn only when the paper has venues of both kinds
    paper_venue = np.empty(n_paper_nodes, dtype=np.int64)
    if n_venues:
        venue_class = np.arange(n_venues) % classes
        class_venues = np.bincount(venue_class, minlength=classes)

        def venue_plan(lo: int, hi: int):
            own = class_venues[paper_class[lo:hi]]
            other = n_venues - own
            double = (own > 0) & (other > 0)
            single = np.where(own > 0, own, other)
            return double, single, np.where(double, other, single), np.full(hi - lo, -1)

        own_pick, picks = _replay_draws(replay, n_paper_nodes, venue_plan, within_bias)
        own_pick &= class_venues[paper_class] > 0
        # the venues of class c are c, c + classes, c + 2 * classes, ...
        paper_venue[own_pick] = paper_class[own_pick] + picks[own_pick] * classes
        paper_venue[~own_pick] = _kth_outside_class(
            venue_class, paper_class[~own_pick], picks[~own_pick], classes
        )

    paper_base = n_authors
    venue_base = n_authors + n_paper_nodes
    papers = paper_base + np.arange(n_paper_nodes)
    n_pairs = second.size
    edges = [
        _both_ways(
            np.concatenate([np.stack([first, second], axis=1).ravel(), solo]),
            np.concatenate([np.repeat(papers[:n_pairs], 2), papers[n_pairs:]]),
            _WRITES,
        ),
        _both_ways(paper_base + cite_src, paper_base + cite_dst, _CITES),
    ]
    if n_venues:
        edges.append(_both_ways(papers, venue_base + paper_venue, _PUBLISHED_IN))
    src, dst, rel = (np.concatenate(column) for column in zip(*edges))
    del edges  # the per-relation blocks; the graph checks the whole arrays next
    return HeterogeneousGraph(
        types=("author", "paper", "venue"),
        type_code=np.repeat(np.arange(3), [n_authors, n_paper_nodes, n_venues]),
        labels=np.concatenate([author_class, np.full(n_paper_nodes + n_venues, -1)]),
        relations=[relation for _, relation, _ in SYNTHETIC_SCHEMA],
        src=src,
        dst=dst,
        rel=rel,
        schema=SYNTHETIC_SCHEMA,
        target_type="author",
    )


def _coauthor_pairs(
    rng: np.random.Generator, author_class: np.ndarray, p_in: float, p_out: float
) -> tuple[np.ndarray, np.ndarray]:
    """The author pairs i < j that co-write, in row-major order of the upper
    triangle: one uniform draw per pair, below ``p_in`` for a same-class pair
    and below ``p_out`` for a cross-class one.  The draws come a block of rows
    at a time, which gives the same doubles as one ``rng.random`` call over
    all pairs (tests/test_simulation.py checks it) without holding them all."""
    n = author_class.size
    rows_per_block = max(1, _PAIR_BLOCK // max(n - 1, 1))
    firsts, seconds = [], []
    for r0 in range(0, n, rows_per_block):
        counts = n - 1 - np.arange(r0, min(r0 + rows_per_block, n))
        row_start = np.cumsum(counts) - counts
        u = rng.random(int(row_start[-1] + counts[-1]))
        # only a draw below p_in can be a hit, since p_out <= p_in; map those
        # draws back to their pairs
        drawn = np.flatnonzero(u < p_in)
        row = np.searchsorted(row_start, drawn, side="right") - 1
        i = r0 + row
        j = i + 1 + drawn - row_start[row]
        hit = u[drawn] < np.where(author_class[i] == author_class[j], p_in, p_out)
        firsts.append(i[hit])
        seconds.append(j[hit])
    return np.concatenate(firsts), np.concatenate(seconds)


def _kth_outside_class(class_of: np.ndarray, cls: np.ndarray, k, n_classes: int) -> np.ndarray:
    """For each query i, the ``k[i]``-th index (from 0, ascending) whose class
    ``class_of`` differs from ``cls[i]``; ``k[i]`` must be below their count."""
    k = np.asarray(k, dtype=np.int64)
    counts = np.bincount(class_of, minlength=n_classes)
    offset = np.cumsum(counts) - counts
    order = np.argsort(class_of, kind="stable")
    # members of each class in ascending order; before[i] counts the indices
    # outside the class that precede member i
    sorted_class = class_of[order]
    before = order - (np.arange(order.size) - offset[sorted_class])
    span = class_of.size + 1
    members_at_or_before = (
        np.searchsorted(sorted_class * span + before, cls * span + k, side="right") - offset[cls]
    )
    return k + members_at_or_before


def _both_ways(a: np.ndarray, b: np.ndarray, relation: int) -> tuple[np.ndarray, ...]:
    """Edges a[i] -> b[i] under ``relation`` and b[i] -> a[i] under the code
    after it, interleaved pair by pair."""
    src = np.stack([a, b], axis=1).ravel()
    dst = np.stack([b, a], axis=1).ravel()
    rel = np.tile(np.array([relation, relation + 1], dtype=np.int64), a.size)
    return src, dst, rel


# -- the generator's scalar draws, replayed from raw words ---------------------

_MASK32 = np.uint64(0xFFFFFFFF)
# raw words fetched from the bit generator at least at a time
_RAW_BLOCK = 1 << 14
# loop iterations planned at a time; bounds the plan arrays in memory
_DRAW_BLOCK = 1 << 15
# the shortest regular stretch worth a vectorized run; after a run that
# commits fewer iterations, the loop stays on the scalar path for a while
_MIN_RUN = 64


class _RawReplay:
    """numpy's scalar ``random()`` and ``integers(0, n)`` of a PCG64
    ``Generator``, computed from its ``random_raw`` words fetched in bulk.

    ``random()`` is ``(word >> 11) * 2**-53``.  ``integers(0, n)`` takes one
    32-bit half through the bit generator's half-word buffer (the low half of
    a fresh word, then its high half on the next 32-bit draw), scales it by
    Lemire's method, and draws again on rejection; ``n == 1`` draws nothing
    and ``n > 2**32`` scales whole words.  The buffer starts from the bit
    generator's state; once words are fetched, the generator itself must not
    be drawn from again."""

    def __init__(self, bit_generator: np.random.BitGenerator):
        state = bit_generator.state
        self._bit_generator = bit_generator
        self.words = np.empty(0, dtype=np.uint64)
        self._word_list: list[int] = []
        self.pos = 0  # the next unread word
        self.half = int(state["uinteger"]) if state["has_uint32"] else None

    def reserve(self, count: int) -> None:
        """Make at least ``count`` unread words available from ``pos``."""
        if self.pos + count > self.words.size:
            fresh = self._bit_generator.random_raw(max(count, _RAW_BLOCK))
            self.words = np.concatenate([self.words[self.pos :], fresh])
            self._word_list = self.words.tolist()
            self.pos = 0

    def _word(self) -> int:
        try:
            word = self._word_list[self.pos]
        except IndexError:
            self.reserve(1)
            word = self._word_list[self.pos]
        self.pos += 1
        return word

    def _half32(self) -> int:
        half = self.half
        if half is None:
            word = self._word()
            self.half = word >> 32
            return word & 0xFFFFFFFF
        self.half = None
        return half

    def random(self) -> float:
        return (self._word() >> 11) * 2.0**-53

    def integers(self, n: int) -> int:
        """``integers(0, n)`` for ``1 <= n < 2**63``."""
        if n == 1:
            return 0
        if n > 1 << 32:
            threshold = (1 << 64) % n
            while True:
                m = self._word() * n
                if (m & 0xFFFFFFFFFFFFFFFF) >= threshold:
                    return m >> 64
        threshold = (1 << 32) % n
        while True:
            m = self._half32() * n
            if (m & 0xFFFFFFFF) >= threshold:
                return m >> 32

    def run(
        self, double: np.ndarray, a: np.ndarray, b: np.ndarray, avoid: np.ndarray,
        within_bias: float,
    ) -> tuple[int, np.ndarray, np.ndarray]:
        """Replay iterations of ``_replay_draws``'s loop in closed form and
        commit the longest prefix free of a rejection or a redraw.

        Every iteration must be regular: both branches draw a half, or neither
        does, and no bound exceeds ``2**32``.  Then the words each draw reads
        follow from the counts of doubles and halves before it.  Returns the
        number of committed iterations and their branches and values."""
        length = double.size
        half = a > 1
        drawn = np.flatnonzero(half)
        n_half, buffered = drawn.size, int(self.half is not None)
        doubles_through = np.cumsum(double)
        doubles_before = doubles_through - double
        self.reserve(int(doubles_through[-1]) + (max(n_half - buffered, 0) + 1) // 2)
        # a double reads the word after the doubles before it and the fresh
        # words the halves before it opened (a buffered half opens none)
        halves_before = np.cumsum(half)[double] - half[double]
        at = doubles_before[double] + (np.maximum(halves_before - buffered, 0) + 1) // 2
        u = (self.words[self.pos + at] >> np.uint64(11)).astype(np.float64) * 2.0**-53
        take = np.ones(length, dtype=bool)
        take[double] = u < within_bias
        # the j-th fresh half opens a word when j is even and reads the high
        # half of the word its predecessor opened when j is odd
        opens = drawn[buffered:]
        at = doubles_through[opens] + (np.arange(opens.size) >> 1)
        at[1::2] = at[0::2][: at[1::2].size]
        words = self.words[self.pos + at]
        halves = np.empty(n_half, dtype=np.uint64)
        if buffered and n_half:
            halves[0] = self.half
        halves[buffered::2] = words[0::2] & _MASK32
        halves[buffered + 1 :: 2] = words[1::2] >> np.uint64(32)
        bound = np.where(take, a, b)
        scale = bound[drawn].astype(np.uint64)
        m = halves * scale
        values = (m >> np.uint64(32)).astype(np.int64)
        rejected = (m & _MASK32) < np.uint64(1 << 32) % scale
        irregular = np.flatnonzero(rejected | (take[drawn] & (values == avoid[drawn])))
        used = int(irregular[0]) if irregular.size else n_half
        committed = int(drawn[used]) if used < n_half else length
        # advance past the committed draws
        if used:
            low = (used - buffered) % 2 == 1  # the last half read was a low half
            self.half = int(words[used - 1 - buffered] >> np.uint64(32)) if low else None
        self.pos += int(doubles_through[committed - 1]) if committed else 0
        self.pos += (max(used - buffered, 0) + 1) // 2
        value = np.where(bound[:committed] > 0, 0, -1)
        value[drawn[:used]] = values[:used]
        return committed, take[:committed], value


def _replay_draws(
    replay: _RawReplay, count: int, plan, within_bias: float
) -> tuple[np.ndarray, np.ndarray]:
    """Run ``count`` iterations of this loop on ``replay``:

        take = not double[i] or random() < within_bias
        n = a[i] if take else b[i]
        value[i] = integers(0, n) if n else -1, drawn again while take and
                   the value equals avoid[i]

    ``plan(lo, hi)`` returns ``(double, a, b, avoid)`` for iterations lo..hi-1.
    An iteration whose branches differ in whether they draw, or whose bound
    needs whole words, runs on the scalar path.  Stretches of other
    iterations run vectorized (``_RawReplay.run``) up to the first rejection
    or redraw, which runs on the scalar path; the next run is twice as long
    as the last committed prefix.  After a prefix shorter than ``_MIN_RUN``
    the loop stays scalar, for twice as long after each such prefix.
    Returns ``take`` and ``value`` per iteration."""
    take = np.empty(count, dtype=bool)
    value = np.empty(count, dtype=np.int64)
    length, backoff, scalar_until = _DRAW_BLOCK, _MIN_RUN, 0
    for lo in range(0, count, _DRAW_BLOCK):
        hi = min(lo + _DRAW_BLOCK, count)
        double, a, b, avoid = plan(lo, hi)
        n = hi - lo
        irregular = double & ((a > 1) != (b > 1)) | (a > 1 << 32) | (b > 1 << 32)
        # the first irregular iteration at or after each one, and the first
        # that starts a regular stretch of at least _MIN_RUN iterations
        next_irregular = _first_at_or_after(irregular)
        next_start = _first_at_or_after(next_irregular - np.arange(n) >= _MIN_RUN)
        i = 0
        while i < n:
            if next_start[i] == i and lo + i >= scalar_until:
                j = min(int(next_irregular[i]), i + length)
                t, run_take, run_value = replay.run(
                    double[i:j], a[i:j], b[i:j], avoid[i:j], within_bias
                )
                take[lo + i : lo + i + t], value[lo + i : lo + i + t] = run_take, run_value
                i += t
                if i == j:
                    length = min(2 * length, _DRAW_BLOCK)
                    continue
                length = max(2 * t, _MIN_RUN)
                if t < _MIN_RUN:
                    scalar_until, backoff = lo + i + backoff, min(2 * backoff, _DRAW_BLOCK)
                else:
                    backoff = _MIN_RUN
            resume = max(i + 1, scalar_until - lo)
            stop = int(next_start[resume]) if resume < n else n
            take[lo + i : lo + stop], value[lo + i : lo + stop] = _scalar_draws(
                replay, double[i:stop], a[i:stop], b[i:stop], avoid[i:stop], within_bias
            )
            i = stop
    return take, value


def _first_at_or_after(mask: np.ndarray) -> np.ndarray:
    """For each index i, the smallest j >= i with ``mask[j]``, or the size
    of ``mask`` when there is none."""
    index = np.where(mask, np.arange(mask.size), mask.size)
    return np.minimum.accumulate(index[::-1])[::-1]


def _scalar_draws(replay: _RawReplay, double, a, b, avoid, within_bias: float):
    """``_replay_draws``'s loop one draw at a time."""
    random, integers = replay.random, replay.integers
    takes, values = [], []
    for d, na, nb, skip in zip(double.tolist(), a.tolist(), b.tolist(), avoid.tolist()):
        take = not d or random() < within_bias
        n = na if take else nb
        k = -1
        if n:
            k = integers(n)
            while take and k == skip:
                k = integers(n)
        takes.append(take)
        values.append(k)
    return takes, values


# -- round metrics --------------------------------------------------------------


@dataclass
class RoundMetrics:
    """One communication round's worth of observable state."""

    round: int
    aggregator: str
    loss: float | None
    micro_f1: float
    macro_f1: float
    max_version_gap: int
    elapsed: float

    def to_json_obj(self) -> dict:
        return {
            "round": self.round,
            "aggregator": self.aggregator,
            "loss": self.loss,
            "micro_f1": self.micro_f1,
            "macro_f1": self.macro_f1,
            "max_version_gap": self.max_version_gap,
            "elapsed": self.elapsed,
        }


# -- experiment assembly ----------------------------------------------------------


@dataclass
class ExperimentSetup:
    """Everything run_experiment builds before the first tick."""

    model: AttentionModel
    initial_params: ModelParams
    clients: list[FederatedClient]
    server: ParameterServer
    split: EvalSplit
    part: Partition
    labels: np.ndarray


def build_experiment(config: ExperimentConfig, graph: HeterogeneousGraph) -> ExperimentSetup:
    """Resolve meta paths, split, partition, and construct clients + server."""
    seeds = np.random.SeedSequence(config.seed).spawn(3 + config.clients)
    init_rng = np.random.default_rng(seeds[0])
    split_seed = int(np.random.default_rng(seeds[1]).integers(0, 2**31 - 1))
    part_seed = int(np.random.default_rng(seeds[2]).integers(0, 2**31 - 1))

    specs = [
        MetaPathSpec.from_string(code, config.type_alphabet) for code in config.metapaths
    ]
    for spec in specs:
        spec.validate_for_target(config.target_type)
    adjacencies = [metapath_adjacency(graph, spec, config.adjacency_mode) for spec in specs]

    n_labels = graph.num_labels
    if n_labels < 2:
        raise SimulationError("need at least two label classes to train a classifier")
    model = AttentionModel(
        adjacencies,
        n_labels=n_labels,
        embedding_dim=config.embedding_dim,
        preference_dim=config.preference_dim,
        activation=config.activation,
        sample_size=config.neighbor_sample_size,
    )

    local_labels = graph.labels[graph.nodes_of_type(config.target_type)]

    split = make_split(local_labels, fraction=config.train_fraction, seed=split_seed)
    part = partition(
        graph,
        config.clients,
        strategy=config.partition_strategy,
        seed=part_seed,
        dirichlet_alpha=config.dirichlet_alpha,
    )

    params0 = init_params(model.dims, init_rng)
    is_train = np.zeros(local_labels.size, dtype=bool)
    is_train[split.train_nodes] = True
    clients = []
    for cid in range(config.clients):
        # labeled nodes are target nodes, so their local index is a target index
        local_nodes = np.sort(graph.local_index[part.client_nodes[cid]])
        local_nodes = local_nodes[is_train[local_nodes]]
        clients.append(
            FederatedClient(
                client_id=cid,
                model=model,
                params=params0.copy(),
                train_nodes=local_nodes,
                labels=local_labels,
                learning_rate=config.learning_rate,
                rng=np.random.default_rng(seeds[3 + cid]),
            )
        )

    server = ParameterServer(
        client_ids=range(config.clients),
        aggregator=config.aggregator,
        staleness_exponent=config.staleness_exponent,
        gap_threshold=config.gap_threshold,
        ema_beta=config.ema_beta,
        initial_weights=pack_shared(params0),
    )
    return ExperimentSetup(
        model=model,
        initial_params=params0,
        clients=clients,
        server=server,
        split=split,
        part=part,
        labels=local_labels,
    )


def _evaluated_record(
    config: ExperimentConfig, setup: ExperimentSetup, round_: int, loss, elapsed: float
) -> RoundMetrics:
    """A round's record: test scores of the server's current aggregate."""
    params = setup.initial_params.copy()
    unpack_shared(setup.server.current_aggregate(), params)
    micro, macro = evaluate(setup.model, params, setup.labels, setup.split)
    return RoundMetrics(
        round=round_,
        aggregator=config.aggregator,
        loss=loss,
        micro_f1=micro,
        macro_f1=macro,
        max_version_gap=setup.server.max_version_gap(),
        elapsed=elapsed,
    )


def _untrained_record(config: ExperimentConfig, setup: ExperimentSetup) -> RoundMetrics:
    """Round 0: test scores and mean training loss of the initial parameters."""
    nodes = setup.split.train_nodes
    loss, _ = setup.model.loss(setup.initial_params, nodes, setup.labels, rng=None)
    return _evaluated_record(config, setup, 0, loss / nodes.size, 0.0)


class Delivery:
    """The delivery rule of the module docstring.  Pending slots are read and
    written under ``lock``, so client threads may share one ``Delivery``."""

    def __init__(self, server: ParameterServer, clients: list[FederatedClient]):
        self.server, self.clients = server, clients
        self.pending: dict[int, np.ndarray] = {}
        self.lock = threading.Lock()

    def deliver(self, updates: list[ClientUpdate], tick: int | None = None) -> None:
        """Hand ``updates`` to the server; uploaders install its aggregate now,
        and after a broadcast every other client finds it in its pending slot.
        An empty call is skipped."""
        if not updates:
            return
        with self.lock:
            aggregate, mode = self.server.handle(updates, tick=tick)
            uploaders = {int(update.client_id) for update in updates}
            for cid in uploaders:
                self.pending.pop(cid, None)
                self.clients[cid].install(aggregate)
            if mode == "broadcast":
                for client in self.clients:
                    if client.client_id not in uploaders:
                        self.pending[client.client_id] = aggregate

    def download(self, client: FederatedClient) -> None:
        """Install the client's pending broadcast, if one is waiting."""
        with self.lock:
            aggregate = self.pending.pop(client.client_id, None)
        if aggregate is not None:
            client.install(aggregate)


def _client_round(
    client: FederatedClient, config: ExperimentConfig, round_: int, delivery: Delivery,
    submit, diagnostics_dir,
) -> None:
    """One local round: download, train, and upload through ``submit`` after
    every batch (``granularity="batch"``) or once at the end.  A non-finite
    gradient or loss raises ``TrainingDiverged`` with this client's checkpoint."""
    delivery.download(client)
    per_batch = config.granularity == "batch"
    try:
        update = client.run_round(
            config.local_epochs, config.batch_size, submit=submit if per_batch else None
        )
    except NonFiniteGradient as exc:
        raise _diverged(
            f"client {client.client_id}: {exc} at round {round_}", client, round_, diagnostics_dir
        ) from exc
    if not math.isfinite(client.last_loss_sum):
        raise _diverged(
            f"client {client.client_id}: non-finite training loss at round {round_}",
            client, round_, diagnostics_dir,
        )
    if not per_batch:
        submit(update)


def run_experiment(
    config: ExperimentConfig,
    graph: HeterogeneousGraph,
    setup: ExperimentSetup | None = None,
    diagnostics_dir=None,
) -> Iterator[RoundMetrics]:
    """Stream one RoundMetrics per communication round.

    Round 0 is the untrained evaluation; with a round budget of zero the
    stream contains only that record.  In deterministic scheduling mode
    ``elapsed`` is the virtual tick count, so identical configs and seeds
    produce byte-identical streams; the concurrent mode reports wall time.
    A non-finite training loss aborts the run; when ``diagnostics_dir`` is
    set, the offending client's parameters are checkpointed there first.
    """
    if setup is None:
        setup = build_experiment(config, graph)
    if config.scheduling == "concurrent":
        yield from _run_concurrent(config, setup, diagnostics_dir)
        return

    delivery = Delivery(setup.server, setup.clients)
    yield _untrained_record(config, setup)
    speeds = config.speeds()
    for tick in range(1, config.rounds + 1):
        # round granularity delivers the tick's uploads together at its end
        updates: list[ClientUpdate] = []

        def submit(update: ClientUpdate) -> None:
            if config.granularity == "batch":
                delivery.deliver([update], tick)
            else:
                updates.append(update)

        loss_sum, examples = 0.0, 0
        for client in setup.clients:
            if tick % speeds[client.client_id] == 0:
                _client_round(client, config, tick, delivery, submit, diagnostics_dir)
                loss_sum += client.last_loss_sum
                examples += client.last_examples
        delivery.deliver(updates, tick)
        loss = (loss_sum / examples) if examples else None
        yield _evaluated_record(config, setup, tick, loss, float(tick))


def run_experiment_list(
    config: ExperimentConfig, graph: HeterogeneousGraph, setup: ExperimentSetup | None = None
) -> list[RoundMetrics]:
    return list(run_experiment(config, graph, setup=setup))


def _run_concurrent(
    config: ExperimentConfig, setup: ExperimentSetup, diagnostics_dir=None
) -> Iterator[RoundMetrics]:
    """Free-running mode: one thread per client, honouring ``granularity``.

    Each upload goes alone through the shared ``Delivery``: the uploader
    installs the answer at once, and a broadcast reaches another client
    when that client's next round starts, so no thread writes parameters
    another thread trains on.  The first failure of a client thread stops
    the others before their next round and is raised here once all threads
    have ended.  The final record is numbered ``config.rounds``, like the
    deterministic stream's last; a budget of 0 yields round 0 alone.
    """
    delivery = Delivery(setup.server, setup.clients)
    failures: list[tuple[FederatedClient, Exception]] = []
    stop = threading.Event()
    start = time.perf_counter()
    speeds = config.speeds()

    def client_loop(client: FederatedClient):
        try:
            for round_ in range(1, config.rounds // speeds[client.client_id] + 1):
                if stop.is_set():
                    return
                _client_round(
                    client, config, round_, delivery, lambda u: delivery.deliver([u]),
                    diagnostics_dir,
                )
        except Exception as exc:  # handed to the caller after join
            with delivery.lock:
                failures.append((client, exc))
            stop.set()

    yield _untrained_record(config, setup)
    if config.rounds == 0:
        return
    threads = [threading.Thread(target=client_loop, args=(c,)) for c in setup.clients]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        client, exc = failures[0]
        if isinstance(exc, TrainingDiverged):
            raise exc
        raise SimulationError(f"client {client.client_id} failed: {exc!r}") from exc

    losses = [c.mean_round_loss for c in setup.clients if c.last_examples]
    loss = float(np.mean(losses)) if losses else None
    yield _evaluated_record(config, setup, config.rounds, loss, time.perf_counter() - start)


# -- experiment presets ------------------------------------------------------------


def preset_synthetic_config(**overrides) -> ExperimentConfig:
    """Desk-scale defaults used by the convergence and comparison studies."""
    base = dict(
        clients=3,
        rounds=60,
        local_epochs=1,
        batch_size=256,
        embedding_dim=32,
        preference_dim=16,
        metapaths=("APA", "APPA"),
        seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def preset_client_computation_grid(
    epochs=(1, 3, 5), batch_sizes=(64, 128, 256), **overrides
) -> list[ExperimentConfig]:
    """The local-computation sweep: every (e, B) combination."""
    return [
        preset_synthetic_config(local_epochs=e, batch_size=b, **overrides)
        for e in epochs
        for b in batch_sizes
    ]


def preset_aggregator_comparison(**overrides) -> list[ExperimentConfig]:
    """Aggregation-rule comparison under skewed client speeds."""
    configs = []
    for aggregator in ("staleness", "fedavg", "ema"):
        configs.append(
            preset_synthetic_config(
                aggregator=aggregator, speed_multipliers=(1, 1, 3), **overrides
            )
        )
    return configs
