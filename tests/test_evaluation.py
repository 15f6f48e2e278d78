"""F1 scoring, splits, and evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedhin import (
    AttentionModel,
    MetaPathSpec,
    evaluate,
    f1_scores,
    init_params,
    make_split,
    metapath_adjacency,
    synthetic_hin,
)
from fedhin.evaluation import EvaluationError

from oracles import f1_by_confusion, reference_f1_scores


class TestF1Scores:
    def test_perfect_predictions(self):
        micro, macro = f1_scores([0, 1, 2, 3], [0, 1, 2, 3], 4)
        assert micro == 1.0
        assert macro == 1.0

    def test_binary_hand_computation(self):
        # class 1: precision 1, recall 1/2 -> 2/3; class 0: 2/3, 1 -> 4/5
        micro, macro = f1_scores([1, 0, 0, 0], [1, 1, 0, 0], 2)
        assert micro == pytest.approx(0.75, abs=1e-12)
        assert macro == pytest.approx((2 / 3 + 4 / 5) / 2, abs=1e-12)

    def test_single_class_prediction_on_balanced_truths(self):
        truths = [0, 1, 2, 3] * 5
        micro, _ = f1_scores([0] * 20, truths, 4)
        assert micro == pytest.approx(0.25, abs=1e-12)

    def test_empty_input_rejected(self):
        with pytest.raises(EvaluationError):
            f1_scores([], [], 4)

    def test_out_of_range_labels_rejected(self):
        with pytest.raises(EvaluationError):
            f1_scores([0, 5], [0, 1], 4)

    def test_absent_class_counts_as_zero_f1(self):
        # class 3 never appears: macro averages over all 4 classes anyway
        micro, macro = f1_scores([0, 1, 2], [0, 1, 2], 4)
        assert micro == 1.0
        assert macro == pytest.approx(3 / 4, abs=1e-12)

    def test_matches_confusion_matrix_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n_labels = int(rng.integers(2, 6))
            size = int(rng.integers(1, 60))
            pred = rng.integers(0, n_labels, size=size)
            true = rng.integers(0, n_labels, size=size)
            got = f1_scores(pred, true, n_labels)
            expected = f1_by_confusion(pred.tolist(), true.tolist(), n_labels)
            np.testing.assert_allclose(got, expected, atol=1e-12)

    @given(data=st.data(), n_labels=st.integers(1, 300), size=st.integers(1, 80))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_per_class_loop_bit_for_bit(self, data, n_labels, size):
        # few labels in use among many ids, as when graph.num_labels is large
        in_use = data.draw(st.lists(st.integers(0, n_labels - 1), min_size=1, max_size=5))
        labels = st.lists(st.sampled_from(in_use), min_size=size, max_size=size)
        pred, true = data.draw(labels), data.draw(labels)
        assert f1_scores(pred, true, n_labels) == reference_f1_scores(pred, true, n_labels)

    def test_micro_equals_accuracy(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            pred = rng.integers(0, 4, size=40)
            true = rng.integers(0, 4, size=40)
            micro, _ = f1_scores(pred, true, 4)
            assert micro == pytest.approx(np.mean(pred == true), abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        pred = rng.integers(0, 3, size=30)
        true = rng.integers(0, 3, size=30)
        perm = rng.permutation(30)
        assert f1_scores(pred, true, 3) == f1_scores(pred[perm], true[perm], 3)


class TestMakeSplit:
    def test_disjoint_and_exhaustive_stratified(self):
        labels = np.array([0] * 50 + [1] * 30 + [2] * 20 + [-1] * 10)
        split = make_split(labels, fraction=0.8, seed=3)
        train, test = set(split.train_nodes), set(split.test_nodes)
        assert train.isdisjoint(test)
        assert train | test == set(np.flatnonzero(labels >= 0))
        for cls, total in ((0, 50), (1, 30), (2, 20)):
            n_train = sum(1 for i in split.train_nodes if labels[i] == cls)
            assert n_train == int(np.ceil(0.8 * total))

    def test_deterministic_given_seed(self):
        labels = np.array([0, 0, 0, 1, 1, 1, 1])
        a = make_split(labels, seed=9)
        b = make_split(labels, seed=9)
        np.testing.assert_array_equal(a.train_nodes, b.train_nodes)
        np.testing.assert_array_equal(a.test_nodes, b.test_nodes)

    def test_bad_fraction_rejected(self):
        with pytest.raises(EvaluationError):
            make_split(np.array([0, 1]), fraction=1.0)


@pytest.fixture(scope="module")
def eval_setup():
    graph = synthetic_hin(n_authors=80, n_papers=200, n_venues=8, classes=4, seed=1)
    adjs = [metapath_adjacency(graph, MetaPathSpec.from_string(c)) for c in ("APA", "APPA")]
    model = AttentionModel(adjs, n_labels=4, embedding_dim=8, preference_dim=4, sample_size=None)
    labels = graph.labels[graph.nodes_of_type("author")]
    split = make_split(labels, fraction=0.8, seed=0)
    return model, labels, split


class TestEvaluate:
    def test_untrained_model_near_chance(self, eval_setup):
        model, labels, split = eval_setup
        micros = []
        for seed in range(5):
            params = init_params(model.dims, np.random.default_rng(seed))
            micro, _ = evaluate(model, params, labels, split)
            micros.append(micro)
        assert 0.25 - 0.15 <= np.mean(micros) <= 0.25 + 0.15

    def test_deterministic(self, eval_setup):
        model, labels, split = eval_setup
        params = init_params(model.dims, np.random.default_rng(0))
        assert evaluate(model, params, labels, split) == evaluate(model, params, labels, split)

    def test_unlabeled_test_node_rejected(self, eval_setup):
        model, labels, split = eval_setup
        params = init_params(model.dims, np.random.default_rng(0))
        broken = labels.copy()
        broken[split.test_nodes[0]] = -1
        with pytest.raises(EvaluationError, match="without labels"):
            evaluate(model, params, broken, split)

