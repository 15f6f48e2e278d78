import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fedhin import AttentionModel, MetaPathSpec, init_params, metapath_adjacency
from fedhin.graph import HeterogeneousGraph
from oracles import load_rows

COAUTHOR_SCHEMA = [
    ("author", "writes", "paper"),
    ("paper", "written_by", "author"),
    ("paper", "cites", "paper"),
    ("paper", "published_in", "venue"),
    ("venue", "publishes", "paper"),
]


def toy_coauthor_graph() -> HeterogeneousGraph:
    """Two authors co-writing one paper; author 2 writes its own paper."""
    nodes = [
        (0, "author", 0),
        (1, "author", 1),
        (2, "author", 0),
        (3, "paper", None),
        (4, "paper", None),
    ]
    edges = [
        (0, 3, "writes"),
        (1, 3, "writes"),
        (3, 0, "written_by"),
        (3, 1, "written_by"),
        (2, 4, "writes"),
        (4, 2, "written_by"),
    ]
    return load_rows(nodes, edges, COAUTHOR_SCHEMA)


@pytest.fixture
def toy_graph():
    return toy_coauthor_graph()


@pytest.fixture
def small_model():
    """A compact trained-shape model over a random dense-ish graph."""
    from oracles import random_hin

    rng = np.random.default_rng(11)
    graph = random_hin(rng)
    specs = [MetaPathSpec.from_string(code) for code in ("APA", "APPA")]
    adjs = [metapath_adjacency(graph, s) for s in specs]
    model = AttentionModel(
        adjs, n_labels=3, embedding_dim=5, preference_dim=4, sample_size=None
    )
    params = init_params(model.dims, np.random.default_rng(7))
    n = model.dims.n_targets
    labels = np.random.default_rng(13).integers(0, 3, size=n)
    return graph, model, params, labels
