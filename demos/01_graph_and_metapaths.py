"""Build a small academic graph and inspect its meta-path structure.

A heterogeneous graph mixes node types (authors, papers, venues) and
typed relations.  A meta path such as author-paper-author ("APA") turns
that structure into an author-by-author matrix whose entries count the
walks connecting two authors through the intermediate types: co-author
links for APA, citation bridges for APPA, shared venues for APVPA.
"""

from fedhin import MetaPathSpec, metapath_adjacency, synthetic_hin

# A tiny planted-community graph: 24 authors in 3 groups.  Same-group
# authors co-write far more often than cross-group ones.
graph = synthetic_hin(
    n_authors=24, n_papers=60, n_venues=4, classes=3, p_in=0.35, p_out=0.04, seed=7
)
print(f"graph: {graph.num_nodes} nodes, {graph.num_edges} edges")
print(f"schema: {sorted(graph.schema)}")
print(f"author labels: {graph.labels[graph.nodes_of_type('author')].tolist()}")

for code in ("APA", "APPA", "APVPA"):
    spec = MetaPathSpec.from_string(code)
    adj = metapath_adjacency(graph, spec)
    dense = adj.matrix.toarray()
    print(f"\nmeta path {code}: type sequence {' -> '.join(spec.type_sequence)}")
    print(f"  nonzero entries: {adj.matrix.nnz}, max walk count: {dense.max()}")
    # row 0's stored columns: the authors with at least one walk from author 0
    print(f"  neighbors of author 0: {adj.matrix[0].indices.tolist()}")

# The counts are class-assortative: most APA mass sits inside the groups.
spec = MetaPathSpec.from_string("APA")
adj = metapath_adjacency(graph, spec)
labels = graph.labels[graph.nodes_of_type("author")]
coo = adj.matrix.tocoo()
within = sum(v for i, j, v in zip(coo.row, coo.col, coo.data) if labels[i] == labels[j])
print(f"\nAPA walk mass within groups: {within / coo.data.sum():.2%}")

# The model reads walk counts; their indicator, ``matrix > 0``, keeps only
# which pairs are linked and drops how many walks link them.
apvpa = metapath_adjacency(graph, MetaPathSpec.from_string("APVPA")).matrix
indicator = apvpa > 0
print(f"APVPA: {indicator.nnz} linked author pairs, {apvpa.sum()} walks between them")
