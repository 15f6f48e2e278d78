"""The synthetic academic graph: planted-community authors, papers, venues.

``synthetic_hin`` builds the graph in time linear in the number of author
pairs and of papers.  Its co-write draws are one ``rng.random`` stream
over the author pairs, taken a block of rows at a time.  Every later draw
is numpy's scalar ``random()`` or ``integers(0, n)`` in a fixed order
(``_replay_draws``): the ``Generator``'s own calls where the words a draw
reads depend on earlier draws, and closed-form vectorized runs over its
raw PCG64 words (``_run``) wherever they are known before drawing.  The
graph is byte-identical to the one the same draws give through the
``Generator`` one call at a time; ``tests/oracles.py`` holds those loops,
and the tests compare the two.

Invalid arguments raise ``SimulationError``.
"""

from __future__ import annotations

import numpy as np

from .graph import HeterogeneousGraph
from .simulation import SimulationError

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
    and of papers; memory with the number of papers.  Counts too large to
    allocate raise ``SimulationError``.
    """
    if not (0.0 <= p_out <= p_in <= 1.0):
        raise SimulationError(
            f"need 0 <= p_out <= p_in <= 1, got p_in={p_in}, p_out={p_out}"
        )
    if classes < 1 or n_authors < classes:
        raise SimulationError("need at least one author per class")
    if n_papers < 0 or n_venues < 0:
        raise SimulationError(
            f"need n_papers >= 0 and n_venues >= 0, got {n_papers} and {n_venues}"
        )
    if seed < 0:
        raise SimulationError(f"seed must be a non-negative integer, got {seed}")
    try:
        return _synthetic_graph(n_authors, n_papers, n_venues, classes, p_in, p_out, seed)
    except (MemoryError, ValueError) as exc:  # ValueError: beyond numpy's size limit
        raise SimulationError(
            f"cannot allocate a graph of {n_authors} authors, {n_papers} papers and "
            f"{n_venues} venues: {exc}"
        ) from None


def _synthetic_graph(n_authors, n_papers, n_venues, classes, p_in, p_out, seed):
    """``synthetic_hin`` on arguments it has checked."""
    rng = np.random.default_rng(seed)
    sizes = np.full(classes, n_authors // classes)
    sizes[: n_authors % classes] += 1
    author_class = np.repeat(np.arange(classes), sizes)
    class_start = np.cumsum(sizes) - sizes

    # co-write events: one paper per successful pair draw
    first, second = _coauthor_pairs(rng, author_class, p_in, p_out)
    # Every later draw is a scalar ``random()`` or ``integers(0, size)`` in a
    # fixed order, run by ``_replay_draws``.  A draw from a pool keeps its
    # index and is mapped to a node id afterwards in one array pass;
    # ``pool[rng.integers(0, pool.size)]`` is the same draw as
    # ``rng.choice(pool)`` (tests/test_synthetic.py checks it, and the loops
    # as they were drawn are in tests/oracles.py).
    within_bias = p_in / (p_in + p_out) if (p_in + p_out) > 0 else 0.5
    # guarantee one co-authored paper per author (class-biased like regular
    # co-writes) so no node is featureless; then pad the paper count with
    # solo papers.  An uncovered author draws a double, then an index into
    # its own pool (its class without it) or, unless the own pool is forced
    # (one class, or p_out = 0), into the authors outside its class; each
    # pool is in ascending id order, and an empty one draws no index
    covered = np.zeros(n_authors, dtype=bool)
    covered[first] = covered[second] = True
    lonely = np.flatnonzero(~covered) if p_in > 0 else np.zeros(0, dtype=np.int64)
    lonely_size = sizes[author_class[lonely]]
    forced = (lonely_size == n_authors) | (p_out == 0.0)

    def lonely_plan(lo: int, hi: int):
        size = lonely_size[lo:hi]
        other = np.where(forced[lo:hi], size - 1, n_authors - size)
        return np.ones(hi - lo, dtype=bool), size - 1, other, np.full(hi - lo, -1)

    take, k = _replay_draws(rng, lonely.size, lonely_plan, within_bias)
    start, own, drawn = class_start[author_class[lonely]], take | forced, k >= 0
    partners = np.where(own, start + k + (start + k >= lonely), k + lonely_size * (k >= start))
    first = np.concatenate([first, lonely[drawn]])
    second = np.concatenate([second, partners[drawn]])

    def solo_plan(lo: int, hi: int):
        bound = np.full(hi - lo, n_authors)
        return np.zeros(hi - lo, dtype=bool), bound, bound, np.full(hi - lo, -1)

    _, solo = _replay_draws(rng, max(n_papers - first.size, 0), solo_plan, within_bias)

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

    own, k = _replay_draws(rng, 2 * n_paper_nodes, cite_plan, within_bias)
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

        own_pick, picks = _replay_draws(rng, n_paper_nodes, venue_plan, within_bias)
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
    all pairs (tests/test_synthetic.py checks it) without holding them all."""
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


# -- the generator's scalar draws, in closed-form runs where they can be -------

_MASK32 = np.uint64(0xFFFFFFFF)
# loop iterations planned at a time; bounds the plan arrays in memory
_DRAW_BLOCK = 1 << 15
# the shortest regular stretch worth a vectorized run; after a run that
# commits fewer iterations, the loop stays on the scalar path for this many
_MIN_RUN = 64


def _run(
    rng: np.random.Generator, double: np.ndarray, a: np.ndarray, b: np.ndarray,
    avoid: np.ndarray, within_bias: float,
) -> tuple[int, np.ndarray, np.ndarray]:
    """Run iterations of ``_replay_draws``'s loop in closed form from the
    generator's raw PCG64 words and commit the longest prefix free of a
    rejection or a redraw.

    numpy's scalar ``random()`` is ``(word >> 11) * 2**-53``.  Its
    ``integers(0, n)`` for ``1 < n <= 2**32`` takes one 32-bit half through
    the bit generator's half-word buffer (the low half of a fresh word, then
    its high half on the next 32-bit draw) and scales it by Lemire's method,
    drawing again on rejection; ``n == 1`` draws nothing.  Every iteration
    must be regular: both branches draw a half, or neither does, and no
    bound exceeds ``2**32``.  Then the words each draw reads follow from the
    counts of doubles and halves before it.  The generator is left just
    past the committed draws.  Returns the number of committed iterations
    and their branches and values."""
    bit_generator = rng.bit_generator
    saved = bit_generator.state
    buffered = saved["has_uint32"]
    length = double.size
    half = a > 1
    drawn = np.flatnonzero(half)
    n_half = drawn.size
    doubles_through = np.cumsum(double)
    doubles_before = doubles_through - double
    fetched = int(doubles_through[-1]) + (max(n_half - buffered, 0) + 1) // 2
    raw = bit_generator.random_raw(fetched)
    # a double reads the word after the doubles before it and the fresh
    # words the halves before it opened (a buffered half opens none)
    halves_before = np.cumsum(half)[double] - half[double]
    at = doubles_before[double] + (np.maximum(halves_before - buffered, 0) + 1) // 2
    u = (raw[at] >> np.uint64(11)).astype(np.float64) * 2.0**-53
    take = np.ones(length, dtype=bool)
    take[double] = u < within_bias
    # the j-th fresh half opens a word when j is even and reads the high
    # half of the word its predecessor opened when j is odd
    opens = drawn[buffered:]
    at = doubles_through[opens] + (np.arange(opens.size) >> 1)
    at[1::2] = at[0::2][: at[1::2].size]
    words = raw[at]
    halves = np.empty(n_half, dtype=np.uint64)
    if buffered and n_half:
        halves[0] = saved["uinteger"]
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
    # leave the generator just past the committed draws: redraw only the
    # words they read, then set the half-word buffer, which random_raw
    # leaves alone
    consumed = int(doubles_through[committed - 1]) if committed else 0
    consumed += (max(used - buffered, 0) + 1) // 2
    if consumed < fetched:
        bit_generator.state = saved
        bit_generator.random_raw(consumed)
    if used:
        state = bit_generator.state
        low = (used - buffered) % 2 == 1  # the last half read was a low half
        state["has_uint32"] = int(low)
        if low:
            state["uinteger"] = int(words[used - 1 - buffered] >> np.uint64(32))
        bit_generator.state = state
    value = np.where(bound[:committed] > 0, 0, -1)
    value[drawn[:used]] = values[:used]
    return committed, take[:committed], value


def _replay_draws(
    rng: np.random.Generator, count: int, plan, within_bias: float
) -> tuple[np.ndarray, np.ndarray]:
    """Run ``count`` iterations of this loop on ``rng``:

        take = not double[i] or random() < within_bias
        n = a[i] if take else b[i]
        value[i] = integers(0, n) if n else -1, drawn again while take and
                   the value equals avoid[i]

    ``plan(lo, hi)`` returns ``(double, a, b, avoid)`` for iterations lo..hi-1.
    An iteration whose branches differ in whether they draw, or whose bound
    needs whole words, runs on the scalar path.  Stretches of other
    iterations run vectorized (``_run``) up to the first rejection
    or redraw, which runs on the scalar path; the next run is twice as long
    as the last committed prefix.  After a prefix shorter than ``_MIN_RUN``
    the loop stays scalar for the next ``_MIN_RUN`` iterations.
    Returns ``take`` and ``value`` per iteration."""
    take = np.empty(count, dtype=bool)
    value = np.empty(count, dtype=np.int64)
    length, scalar_until = _DRAW_BLOCK, 0
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
                t, run_take, run_value = _run(
                    rng, double[i:j], a[i:j], b[i:j], avoid[i:j], within_bias
                )
                take[lo + i : lo + i + t], value[lo + i : lo + i + t] = run_take, run_value
                i += t
                if i == j:
                    length = min(2 * length, _DRAW_BLOCK)
                    continue
                length = max(2 * t, _MIN_RUN)
                if t < _MIN_RUN:
                    scalar_until = lo + i + _MIN_RUN
            resume = max(i + 1, scalar_until - lo)
            stop = int(next_start[resume]) if resume < n else n
            take[lo + i : lo + stop], value[lo + i : lo + stop] = _scalar_draws(
                rng, double[i:stop], a[i:stop], b[i:stop], avoid[i:stop], within_bias
            )
            i = stop
    return take, value


def _first_at_or_after(mask: np.ndarray) -> np.ndarray:
    """For each index i, the smallest j >= i with ``mask[j]``, or the size
    of ``mask`` when there is none."""
    index = np.where(mask, np.arange(mask.size), mask.size)
    return np.minimum.accumulate(index[::-1])[::-1]


def _scalar_draws(rng: np.random.Generator, double, a, b, avoid, within_bias: float):
    """``_replay_draws``'s loop one draw at a time, through the generator."""
    random, integers = rng.random, rng.integers
    takes, values = [], []
    for d, na, nb, skip in zip(double.tolist(), a.tolist(), b.tolist(), avoid.tolist()):
        take = not d or random() < within_bias
        n = na if take else nb
        k = -1
        if n:
            k = integers(0, n)
            while take and k == skip:
                k = integers(0, n)
        takes.append(take)
        values.append(k)
    return takes, values
