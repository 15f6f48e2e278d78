"""The model's sparse-dense products against scipy's sparse matrices.

``_csr_matmul`` and ``_csr_matmul_t`` call scipy's compiled CSR kernels
by their private names, so these tests pin them bit for bit against
``csr_matrix @ x`` and ``csr_matrix.T @ x``: a scipy release that changes
or drops the kernels fails here rather than in a training run.
"""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedhin import MetaPathSpec, metapath_adjacency, synthetic_hin
from fedhin.model import AttentionModel, ModelError, _csr_matmul, _csr_matmul_t, init_params

FINITE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def csr_operands(draw):
    """CSR arrays of a random (n_rows, n_cols) matrix, possibly with empty rows
    and unused columns, plus dense right operands for ``M @ x`` and ``M.T @ x``."""
    n_rows = draw(st.integers(1, 6))
    n_cols = draw(st.integers(1, 7))
    k = draw(st.integers(1, 4))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    rows = [sorted(draw(st.sets(st.integers(0, n_cols - 1), max_size=n_cols))) for _ in range(n_rows)]
    indptr = np.cumsum([0] + [len(r) for r in rows]).astype(dtype)
    indices = np.array([c for r in rows for c in r], dtype=dtype)
    data = np.array(draw(st.lists(FINITE, min_size=indices.size, max_size=indices.size)))
    x = np.array(draw(st.lists(FINITE, min_size=n_cols * k, max_size=n_cols * k))).reshape(n_cols, k)
    xt = np.array(draw(st.lists(FINITE, min_size=n_rows * k, max_size=n_rows * k))).reshape(n_rows, k)
    return indptr, indices, data, n_cols, x, xt


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# one row whose last column no entry uses, and an empty row among full ones
@example((np.array([0, 2], np.int32), np.array([0, 1], np.int32), np.array([1.5, -2.0]), 3,
          np.arange(6.0).reshape(3, 2), np.ones((1, 2))))
@example((np.array([0, 1, 1, 3], np.int64), np.array([2, 0, 2], np.int64), np.array([0.1, 0.2, 0.3]),
          3, np.arange(3.0).reshape(3, 1), np.arange(3.0).reshape(3, 1)))
@given(csr_operands())
@settings(max_examples=200, deadline=None)
def test_products_match_scipy_bit_for_bit(operands):
    indptr, indices, data, n_cols, x, xt = operands
    matrix = sp.csr_matrix((data, indices, indptr), shape=(indptr.size - 1, n_cols))
    assert same_bits(_csr_matmul(indptr, indices, data, x), np.asarray(matrix @ x))
    assert same_bits(_csr_matmul_t(indptr, indices, data, xt, n_cols), np.asarray(matrix.T @ xt))


@given(csr_operands())
@settings(max_examples=100, deadline=None)
def test_product_added_into_zeros_matches_a_new_product(operands):
    """Backward adds the transform gradient straight into the zeroed
    gradient buffer; that must give the bits of a freshly allocated product."""
    indptr, indices, data, n_cols, _, xt = operands
    out = np.zeros((n_cols, xt.shape[1]))
    assert _csr_matmul_t(indptr, indices, data, xt, n_cols, out=out) is out
    assert same_bits(out, _csr_matmul_t(indptr, indices, data, xt, n_cols))


def test_products_refuse_operands_the_kernels_would_copy():
    indptr, indices, data = np.array([0, 1]), np.array([0]), np.array([2.0])
    x = np.ones((2, 3))
    with pytest.raises(ModelError, match="C-contiguous float64"):
        _csr_matmul(indptr, indices, data, np.ones((3, 2)).T)
    with pytest.raises(ModelError, match="C-contiguous float64"):
        _csr_matmul(indptr, indices, data, x.astype(np.float32))
    with pytest.raises(ModelError, match="index dtype"):
        _csr_matmul(indptr, indices.astype(np.int32), data, x)
    with pytest.raises(ModelError, match="needs 1 rows"):
        _csr_matmul_t(indptr, indices, data, x, n_cols=2)


@pytest.mark.parametrize(
    "out",
    [np.zeros((3, 2)).T, np.zeros((2, 3), np.float32), np.zeros((2, 4)), np.zeros((2, 6))[:, ::2]],
    ids=["fortran-order", "float32", "wrong-shape", "strided"],
)
def test_product_refuses_an_out_it_would_copy(out):
    # ravel() copies such an array, so the product would never reach it
    indptr, indices, data = np.array([0, 1]), np.array([0]), np.array([2.0])
    with pytest.raises(ModelError, match="C-contiguous float64 array of shape"):
        _csr_matmul_t(indptr, indices, data, np.ones((1, 3)), n_cols=2, out=out)
    assert not out.any()


@pytest.mark.parametrize("width, batch_size", [(32, 107), (128, 16)])
def test_no_sparse_matrix_is_built_per_batch(width, batch_size):
    """Forward and backward build no scipy sparse matrix, whether the pass
    slices the touched rows (a small batch at a wide width) or not."""
    graph = synthetic_hin(n_authors=120, n_papers=400, n_venues=8, classes=3, seed=2)
    adjs = [metapath_adjacency(graph, MetaPathSpec.from_string(c)) for c in ("APA", "APPA")]
    model = AttentionModel(adjs, n_labels=3, embedding_dim=width, preference_dim=4)
    params = init_params(model.dims, np.random.default_rng(0))
    labels = np.random.default_rng(1).integers(0, 3, size=model.dims.n_targets)
    batch = np.random.default_rng(2).choice(model.dims.n_targets, batch_size, replace=False)
    built = mock.Mock(side_effect=AssertionError("sparse matrix built"))
    with mock.patch.object(sp._compressed._cs_matrix, "__init__", built):
        trace = model.forward(params, batch, labels=labels, rng=np.random.default_rng(3))
        model.backward(trace)
    assert built.call_count == 0
