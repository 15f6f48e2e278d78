"""The synthetic generator, and the random-stream identities its replay rests on."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedhin import MetaPathSpec, metapath_adjacency, synthetic, synthetic_hin
from fedhin.graph import write_graph
from fedhin.simulation import SimulationError
from fedhin.synthetic import _replay_draws, _scalar_draws

from oracles import assert_edges, enumerate_typed_walks, synthetic_hin_loops, synthetic_hin_scalar

# sha256 of write_graph's nodes.csv bytes followed by its edges.csv bytes,
# computed with the generator as it stood before the graph was held in arrays
# (one rng.choice per draw over pools rebuilt per draw, all author pairs at once)
GOLDEN_GRAPHS = [
    (dict(n_authors=120, n_papers=300, n_venues=8, classes=3, seed=1),
     "d3429a90776cb432923c8d58ba8de6c6d59882ffec8518b925957be3ea6c1add"),
    (dict(n_authors=400, seed=3),
     "7e2406b7db587b81bdaf74016d0ec33e71a488836e1ea54df31b2060f4461116"),
    (dict(n_authors=1000, n_papers=2000, n_venues=30, classes=5, seed=7),
     "358b7efbcc172664ab66312889921027d4f36f08d3b592f82754e13c0bab1e45"),
    (dict(n_authors=200, n_papers=400, n_venues=10, classes=4, p_in=0.06, p_out=0.0, seed=2),
     "bf424e8b634978eaa8d4f87377f39f99f87e12f093d359eeb943a5a8116fce4f"),
    (dict(n_authors=150, n_papers=300, n_venues=0, classes=3, seed=4),
     "5d406705337392423b887379b4c7be42b101fb221cb390185151ab92eb0920c4"),
    (dict(n_authors=60, n_papers=100, n_venues=5, classes=1, seed=6),
     "c11fac7ae6aa35e1f101a2ebb294873936ee57b72c3214fe67524e247c69cda8"),
    (dict(n_authors=50, n_papers=80, n_venues=4, classes=2, p_in=0.0, p_out=0.0, seed=8),
     "fd43aaa8ea8277f064c2541c621fd5fd4221bdf299f8b79a976790db835f39b9"),
    (dict(n_authors=30, n_papers=10, n_venues=3, classes=3, p_in=1.0, p_out=1.0, seed=9),
     "5ee670c9f5654fe7c0686c8f7ad11df0f9ac401a1fbc176095d84a5fd2d532ff"),
]


class TestSyntheticHin:
    def test_deterministic_given_seed(self):
        a = synthetic_hin(seed=5)
        b = synthetic_hin(seed=5)
        assert a.relations == b.relations
        for column in ("src", "dst", "rel"):
            assert np.array_equal(getattr(a, column), getattr(b, column))
        assert np.array_equal(a.labels, b.labels)

    def test_no_cross_class_paths_when_p_out_zero(self):
        g = synthetic_hin(n_authors=120, n_papers=300, n_venues=8, classes=3, p_in=0.08, p_out=0.0, seed=1)
        adj = metapath_adjacency(g, MetaPathSpec.from_string("APA"))
        cls = g.labels[g.nodes_of_type("author")]
        coo = adj.matrix.tocoo()
        assert coo.nnz > 0
        assert all(cls[i] == cls[j] for i, j in zip(coo.row, coo.col))

    def test_default_preset_is_class_assortative(self):
        # pairwise co-writes with p_in/p_out = 10 over 4 balanced classes give
        # an expected within-class fraction of 0.767; measured 0.758 at seed 0
        g = synthetic_hin(seed=0)
        adj = metapath_adjacency(g, MetaPathSpec.from_string("APA"))
        cls = g.labels[g.nodes_of_type("author")]
        coo = adj.matrix.tocoo()
        within = sum(1 for i, j in zip(coo.row, coo.col) if cls[i] == cls[j])
        assert 0.70 < within / coo.nnz < 0.85

    def test_every_author_has_a_coauthor(self):
        for seed in range(3):
            g = synthetic_hin(seed=seed)
            adj = metapath_adjacency(g, MetaPathSpec.from_string("APA"))
            degrees = np.diff(adj.matrix.indptr)
            assert degrees.min() >= 1

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(SimulationError):
            synthetic_hin(p_in=0.01, p_out=0.5)

    @pytest.mark.parametrize("counts", [dict(n_venues=-1), dict(n_papers=-1)])
    def test_negative_counts_rejected_before_any_draw(self, counts, monkeypatch):
        # the check must precede the draws: with a negative venue count the
        # venue draw loop would redraw for ever
        def first_draw(*args):
            raise AssertionError("drew from the generator")

        monkeypatch.setattr(synthetic, "_coauthor_pairs", first_draw)
        with pytest.raises(SimulationError, match="n_papers >= 0 and n_venues >= 0"):
            synthetic_hin(n_authors=40, **counts)

    def test_metapaths_match_walk_oracle(self):
        g = synthetic_hin(n_authors=12, n_papers=30, n_venues=3, classes=3,
                          p_in=0.4, p_out=0.1, seed=7)
        for code in ("APA", "APPA", "APVPA"):
            spec = MetaPathSpec.from_string(code)
            adj = metapath_adjacency(g, spec)
            expected = enumerate_typed_walks(g, spec.type_sequence)
            np.fill_diagonal(expected, 0)
            assert np.array_equal(adj.matrix.toarray(), expected)

    @pytest.mark.parametrize("kwargs, digest", GOLDEN_GRAPHS, ids=[
        "-".join(f"{k}={v}" for k, v in kwargs.items()) for kwargs, _ in GOLDEN_GRAPHS])
    def test_written_tables_match_golden_hashes(self, tmp_path, kwargs, digest):
        nodes, edges = tmp_path / "nodes.csv", tmp_path / "edges.csv"
        write_graph(nodes, edges, synthetic_hin(**kwargs))
        assert hashlib.sha256(nodes.read_bytes() + edges.read_bytes()).hexdigest() == digest

    @given(
        n_authors=st.integers(1, 40),
        n_papers=st.integers(0, 60),
        n_venues=st.integers(0, 7),
        classes=st.integers(1, 6),
        p=st.sampled_from([(0.0, 0.0), (0.2, 0.0), (0.3, 0.05), (0.1, 0.1), (1.0, 1.0), (1.0, 0.0)]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_loop_reference(self, n_authors, n_papers, n_venues, classes, p, seed):
        classes = min(classes, n_authors)
        args = (n_authors, n_papers, n_venues, classes, p[0], p[1], seed)
        g = synthetic_hin(*args)
        nodes, edges = synthetic_hin_loops(*args)
        assert_edges(g, edges)
        assert [(nid, g.types[g.type_code[nid]], None if g.labels[nid] < 0 else g.labels[nid])
                for nid in range(g.num_nodes)] == nodes

    @pytest.mark.parametrize("n_venues, classes", [(20, 4), (4, 4), (1, 1), (2, 4)])
    def test_matches_scalar_oracle_at_scale(self, n_venues, classes):
        # (4, 4) gives every class one venue, so no venue draw is laid out in
        # closed form; (1, 1) does the same to every citation; (2, 4) leaves
        # two classes without a venue of their own
        args = (2000, 1500, n_venues, classes, 0.05, 0.005, 11)
        g = synthetic_hin(*args)
        nodes, edges = synthetic_hin_scalar(*args)
        n_papers = g.nodes_of_type("paper").size
        assert 2 * n_papers > synthetic._DRAW_BLOCK  # the citation loop spans blocks
        assert_edges(g, edges)
        assert [(nid, g.types[g.type_code[nid]], None if g.labels[nid] < 0 else g.labels[nid])
                for nid in range(g.num_nodes)] == nodes


def _generator_pair(seed: int, buffered: bool):
    """Two equal generators; with ``buffered`` both hold a half-word."""
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:
        assert a.integers(0, 7) == b.integers(0, 7)
        assert b.bit_generator.state["has_uint32"]
    return a, b


class TestRandomStreamIdentities:
    """Identities of numpy's PCG64 ``Generator`` that keep ``synthetic_hin``
    equal to its loop references and its golden hashes: ``rng.choice`` is an
    ``integers`` draw, chunked doubles are one call's, and the vectorized
    runs over raw words are the generator's scalar ``random()`` and
    ``integers(0, n)``."""

    @given(
        seed=st.integers(0, 2**63 - 1),
        size=st.one_of(st.integers(1, 1000), st.integers(1, 2**31)),
        draws=st.integers(1, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_choice_is_an_integers_draw(self, seed, size, draws):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(draws):
            # interleaved with doubles, as the generator's draws are
            assert a.random() == b.random()
            assert a.choice(size) == b.integers(0, size)
        pool = np.arange(7, 7 + 3 * min(size, 1000), 3)
        assert a.choice(pool) == pool[b.integers(0, pool.size)]

    @given(
        seed=st.integers(0, 2**63 - 1),
        chunks=st.lists(st.integers(0, 300), min_size=1, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_chunked_random_equals_one_call(self, seed, chunks):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        pieces = np.concatenate([a.random(n) for n in chunks])
        assert np.array_equal(pieces, b.random(sum(chunks)))
        assert a.random() == b.random()  # and both streams stand at the same place

    @given(
        seed=st.integers(0, 2**63 - 1),
        buffered=st.booleans(),
        # stretches of equal iterations: (double, bound a, bound b, avoided value)
        stretches=st.lists(
            st.tuples(
                st.tuples(
                    st.booleans(),
                    st.sampled_from([0, 1, 2, 3, 7, 300, 2**31 + 1, 2**32, 2**40]),
                    st.sampled_from([0, 1, 2, 5, 300, 2**31 + 1, 2**32]),
                    st.sampled_from([-1, 0, 1, 2]),
                ),
                st.integers(1, 120),
            ),
            min_size=1,
            max_size=6,
        ),
        within_bias=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
        min_run=st.sampled_from([1, 8, 64]),
    )
    @settings(max_examples=200, deadline=None)
    def test_vectorized_runs_equal_the_generator(
        self, seed, buffered, stretches, within_bias, min_run
    ):
        # forced branches (no double), bound-1 and bound-0 branches, branches
        # that differ in whether they draw, rejections and redraws
        iterations, lengths = zip(*stretches)
        double, a, b, avoid = (np.repeat(np.array(column), lengths) for column in zip(*iterations))
        avoid = np.where(a > 1, avoid, -1)  # a redraw needs a bound above 1
        count = double.size

        def plan(lo, hi):
            return double[lo:hi], a[lo:hi], b[lo:hi], avoid[lo:hi]

        replayed, reference = _generator_pair(seed, buffered)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(synthetic, "_MIN_RUN", min_run)
            patch.setattr(synthetic, "_DRAW_BLOCK", 50)  # runs cross blocks
            take, value = _replay_draws(replayed, count, plan, within_bias)
        expected_take, expected_value = _scalar_draws(reference, *plan(0, count), within_bias)
        assert take.tolist() == expected_take
        assert value.tolist() == expected_value
        # and both generators stand at the same place, half-word buffer included
        state, expected = replayed.bit_generator.state, reference.bit_generator.state
        assert state["state"] == expected["state"]
        assert state["has_uint32"] == expected["has_uint32"]
        if expected["has_uint32"]:
            assert state["uinteger"] == expected["uinteger"]
