"""Graph model, loaders, and meta-path adjacency against the walk oracle."""

import csv
import io
import re

import numpy as np
import pytest

from fedhin.graph import (
    EmptyTypeError,
    HeterogeneousGraph,
    MetaPathSpec,
    ParseError,
    SchemaViolation,
    ValidationError,
    load_graph,
    metapath_adjacency,
    write_graph,
)

from conftest import COAUTHOR_SCHEMA, toy_coauthor_graph
from oracles import assert_edges, enumerate_typed_walks, load_rows, random_hin


def load_text(tmp_path, nodes_text, edges_text, schema=COAUTHOR_SCHEMA):
    """``load_graph`` on the node and edge tables given as CSV text."""
    return load_graph(*TestLoader._write(tmp_path, nodes_text, edges_text), schema)


class TestGraphConstruction:
    def test_minimal_valid_graph(self, tmp_path):
        g = load_text(
            tmp_path,
            "id,type,label\n0,author,0\n1,author,1\n2,author,0\n3,paper,\n",
            "src,dst,relation\n0,3,writes\n1,3,writes\n2,3,writes\n",
            [("author", "writes", "paper")],
        )
        assert g.num_nodes == 4
        assert g.num_edges == 3
        assert g.schema == frozenset({("author", "writes", "paper")})

    def test_schema_violating_edge_rejected(self, tmp_path):
        with pytest.raises(SchemaViolation, match=r"\(0, 1, 'writes'\)"):
            load_text(
                tmp_path,
                "id,type,label\n0,venue,\n1,author,0\n",
                "src,dst,relation\n0,1,writes\n",
                [("author", "writes", "paper")],
            )

    def test_ids_must_be_dense(self, tmp_path):
        # reported before the edge table is read, so its unknown id 5 is not
        nodes = "id,type,label\n0,author,0\n2,author,1\n"
        with pytest.raises(ValidationError, match=r"dense 0\.\.1 without repeats, got 2$"):
            load_text(tmp_path, nodes, "src,dst,relation\n0,5,writes\n")
        with pytest.raises(ValidationError, match="got -1$"):
            load_text(tmp_path, "id,type,label\n-1,author,0\n0,author,1\n", "src,dst,relation\n")

    def test_duplicate_ids_rejected(self, tmp_path):
        # the repeat is named, not the id 3 it leaves out of 0..3
        nodes = "id,type,label\n1,author,0\n0,author,1\n1,author,1\n2,author,0\n"
        with pytest.raises(ValidationError, match=r"dense 0\.\.3 without repeats, got 1$"):
            load_text(tmp_path, nodes, "src,dst,relation\n")

    def test_label_on_non_target_type_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="node 0 of type 'paper' carries a label"):
            load_text(tmp_path, "id,type,label\n0,paper,2\n", "src,dst,relation\n")

    def test_edge_arrays_hold_relation_codes(self, toy_graph):
        writes = toy_graph.rel == toy_graph.relations.index("writes")
        expected = {(0, 3), (1, 3), (2, 4)}
        assert set(zip(toy_graph.src[writes].tolist(), toy_graph.dst[writes].tolist())) == expected
        assert toy_graph.src[:2].tolist() == [0, 1] and toy_graph.dst[:2].tolist() == [3, 3]
        assert toy_graph.rel[:2].tolist() == [toy_graph.relations.index("writes")] * 2
        assert [toy_graph.types[c] for c in toy_graph.type_code] == ["author"] * 3 + ["paper"] * 2
        assert not toy_graph.src.flags.writeable and not toy_graph.type_code.flags.writeable

    def test_array_constructor_checks_codes_and_names(self):
        def build(types=("author", "paper"), type_code=(0, 1), relations=("writes",), rel=(0,)):
            return HeterogeneousGraph(
                types=types, type_code=np.array(type_code), labels=np.array([0, -1]),
                relations=relations, src=np.array([0]), dst=np.array([1]), rel=np.array(rel),
                schema=[("author", "writes", "paper")],
            )

        assert_edges(build(), [(0, 1, "writes")])
        with pytest.raises(ValidationError, match="node type code 2"):
            build(type_code=(0, 2))
        with pytest.raises(ValidationError, match="relation code -1"):
            build(rel=(-1,))
        with pytest.raises(ValidationError, match="distinct"):
            build(types=("author", "author"))

    def test_biadjacency_is_indicator(self, tmp_path):
        # a parallel edge and a second relation between one pair collapse to one 1
        g = load_text(
            tmp_path,
            "id,type,label\n0,author,0\n1,paper,\n2,paper,\n",
            "src,dst,relation\n0,1,writes\n0,1,writes\n0,1,reviews\n0,2,reviews\n",
            [("author", "writes", "paper"), ("author", "reviews", "paper")],
        )
        mat = g.biadjacency("author", "paper")
        coo = mat.tocoo()
        assert {(int(r), int(c)) for r, c in zip(coo.row, coo.col)} == {(0, 0), (0, 1)}
        assert set(coo.data) == {1}

    def test_schema_error_names_the_first_bad_edge_in_input_order(self, tmp_path):
        with pytest.raises(SchemaViolation, match=r"\(2, 1, 'writes'\)"):
            load_text(
                tmp_path,
                "id,type,label\n0,venue,\n1,author,0\n2,paper,\n",
                "src,dst,relation\n1,2,writes\n2,1,writes\n0,1,writes\n",
                [("author", "writes", "paper")],
            )

    def test_unknown_node_id_rejected(self, tmp_path):
        nodes = "id,type,label\n0,author,0\n1,paper,\n"
        with pytest.raises(ValidationError, match=r"\(0, 7, 'writes'\) references unknown node id 7"):
            load_text(tmp_path, nodes, "src,dst,relation\n0,1,writes\n0,7,writes\n")
        with pytest.raises(ValidationError, match=r"\(0, 0, 'writes'\) references unknown node id 0"):
            load_text(tmp_path, "id,type,label\n", "src,dst,relation\n0,0,writes\n")

    def test_biadjacency_matches_walk_enumeration_for_every_type_pair(self):
        for seed in range(4):
            g = random_hin(np.random.default_rng(seed))
            for a in g.types:
                for b in g.types:
                    expected = enumerate_typed_walks(g, (a, b))
                    assert np.array_equal(g.biadjacency(a, b).toarray(), expected)


class TestLoader:
    @staticmethod
    def _write(tmp_path, nodes_text, edges_text):
        np_, ep = tmp_path / "nodes.csv", tmp_path / "edges.csv"
        np_.write_text(nodes_text)
        ep.write_text(edges_text)
        return np_, ep

    def test_roundtrip_through_files(self, tmp_path, toy_graph):
        np_, ep = tmp_path / "n.csv", tmp_path / "e.csv"
        write_graph(np_, ep, toy_graph)
        loaded = load_graph(np_, ep, COAUTHOR_SCHEMA)
        assert loaded.num_nodes == toy_graph.num_nodes
        assert loaded.num_edges == toy_graph.num_edges
        assert loaded.relations == toy_graph.relations
        for column in ("src", "dst", "rel"):
            np.testing.assert_array_equal(getattr(loaded, column), getattr(toy_graph, column))
        assert np.array_equal(loaded.labels, toy_graph.labels)

    def test_awkward_names_are_written_as_csv_writer_writes_them(self, tmp_path):
        # a comma, a double quote, line breaks, and an empty name, which
        # csv.writer quotes when it is a row's only field but not inside a row
        author, paper, venue = "au,thor", 'pa"per', "ve\r\nnue"
        schema = [(author, 'wr"ites,', paper), (paper, "pub\nlished", venue), (paper, "", venue)]
        nodes = [(0, author, 1), (1, paper, None), (2, venue, None), (3, author, 0)]
        edges = [(0, 1, 'wr"ites,'), (3, 1, 'wr"ites,'), (1, 2, "pub\nlished"), (1, 2, "")]
        graph = load_rows(nodes, edges, schema, target_type=author)
        nodes_path, edges_path = tmp_path / "n.csv", tmp_path / "e.csv"
        write_graph(nodes_path, edges_path, graph)
        node_rows = [(i, t, "" if y is None else y) for i, t, y in nodes]
        for path, header, rows in (
            (nodes_path, ["id", "type", "label"], node_rows),
            (edges_path, ["src", "dst", "relation"], edges),
        ):
            expected = io.StringIO(newline="")
            writer = csv.writer(expected)
            writer.writerow(header)
            writer.writerows(rows)
            assert path.read_bytes() == expected.getvalue().encode()
        loaded = load_graph(nodes_path, edges_path, schema, target_type=author)
        assert_edges(loaded, edges)
        assert [loaded.types[c] for c in loaded.type_code] == [t for _, t, _ in nodes]
        assert np.array_equal(loaded.labels, graph.labels)

    def test_malformed_row_reports_line(self, tmp_path):
        np_, ep = self._write(
            tmp_path,
            "id,type,label\n0,author,0\nnotanint,author,1\n",
            "src,dst,relation\n",
        )
        with pytest.raises(ParseError, match="line 3"):
            load_graph(np_, ep, COAUTHOR_SCHEMA)

    def test_line_numbers_are_physical_lines(self, tmp_path):
        # each quoted line break in a name takes its row over one more line
        np_, ep = self._write(
            tmp_path,
            'id,type,label\n0,"au\r\nthor",0\nbad,"au\r\nthor",1\n',
            "src,dst,relation\n",
        )
        with pytest.raises(ParseError, match="^line 5: node id 'bad' is not an integer"):
            load_graph(np_, ep, COAUTHOR_SCHEMA)

    def test_schema_violation_names_edge(self, tmp_path):
        np_, ep = self._write(
            tmp_path,
            "id,type,label\n0,venue,\n1,author,0\n",
            "src,dst,relation\n0,1,writes\n",
        )
        with pytest.raises(SchemaViolation, match=r"\(0, 1, 'writes'\)"):
            load_graph(np_, ep, COAUTHOR_SCHEMA)

    def test_unknown_node_id_rejected(self, tmp_path):
        np_, ep = self._write(
            tmp_path,
            "id,type,label\n0,author,0\n",
            "src,dst,relation\n0,9,writes\n",
        )
        with pytest.raises(ValidationError, match="unknown node id 9"):
            load_graph(np_, ep, COAUTHOR_SCHEMA)

    def test_unknown_node_id_line_counts_blank_lines(self, tmp_path):
        np_, ep = self._write(
            tmp_path,
            "id,type,label\n0,author,0\n1,paper,\n",
            "src,dst,relation\n\n0,1,writes\n\n\n1,2,written_by\n",
        )
        with pytest.raises(ValidationError, match=r"^line 6: edge \(1, 2, 'written_by'\) references"):
            load_graph(np_, ep, COAUTHOR_SCHEMA)

    @pytest.mark.parametrize(
        "nodes_text, edges_text, error, message",
        [
            pytest.param("0,author,100000000000000000000\n", "", ParseError,
                         "line 2: label '100000000000000000000' is outside 0..",
                         id="label-beyond-int64"),
            pytest.param("0,author,-3\n", "", ParseError,
                         "line 2: label '-3' is outside 0..", id="negative-label"),
            pytest.param("0,author,0\n9223372036854775808,paper,\n", "", ParseError,
                         "line 3: node id '9223372036854775808' is outside the int64 range",
                         id="node-id-beyond-int64"),
            pytest.param("0,author,0\n1,paper,\n", "0,-9223372036854775809,writes\n",
                         ValidationError, "references unknown node id -9223372036854775809",
                         id="endpoint-beyond-int64"),
        ],
    )
    def test_integer_fields_outside_their_range(
        self, tmp_path, nodes_text, edges_text, error, message
    ):
        np_, ep = self._write(
            tmp_path, "id,type,label\n" + nodes_text, "src,dst,relation\n" + edges_text
        )
        with pytest.raises(error, match=re.escape(message)):
            load_graph(np_, ep, COAUTHOR_SCHEMA)

    def test_dblp_scale_counts(self, tmp_path):
        # node/edge totals mirror the DBLP row used for sizing: 10650 / 39888
        n_authors, n_papers = 4000, 6650
        rng = np.random.default_rng(0)
        lines = ["id,type,label"]
        for i in range(n_authors):
            lines.append(f"{i},author,{i % 4}")
        for i in range(n_papers):
            lines.append(f"{n_authors + i},paper,")
        elines = ["src,dst,relation"]
        seen = set()
        while len(seen) < 39888 // 2:
            a = int(rng.integers(0, n_authors))
            p = int(rng.integers(0, n_papers))
            seen.add((a, n_authors + p))
        for a, p in sorted(seen):
            elines.append(f"{a},{p},writes")
            elines.append(f"{p},{a},written_by")
        np_, ep = self._write(tmp_path, "\n".join(lines) + "\n", "\n".join(elines) + "\n")
        g = load_graph(np_, ep, COAUTHOR_SCHEMA)
        assert g.num_nodes == 10650
        assert g.num_edges == 39888
        assert g.num_labels == 4


class TestMetaPathSpec:
    def test_from_string_resolves_alphabet(self):
        spec = MetaPathSpec.from_string("APVPA")
        assert spec.type_sequence == ("author", "paper", "venue", "paper", "author")

    def test_unknown_initial_rejected(self):
        with pytest.raises(ValidationError, match="'X'"):
            MetaPathSpec.from_string("AXA")

    def test_target_endpoint_check(self):
        spec = MetaPathSpec.from_string("APV")
        with pytest.raises(ValidationError, match="start and end"):
            spec.validate_for_target("author")

    def test_missing_schema_hop_rejected(self):
        nodes = [(0, "author", 0), (1, "paper", None), (2, "venue", None)]
        edges = [(1, 2, "published_in")]
        g = load_rows(nodes, edges, COAUTHOR_SCHEMA)
        spec = MetaPathSpec(name="AVA", type_sequence=("author", "venue", "author"))
        with pytest.raises(SchemaViolation, match="no relation from 'author' to 'venue'"):
            metapath_adjacency(g, spec)


class TestMetaPathAdjacency:
    def test_toy_coauthors(self, toy_graph):
        adj = metapath_adjacency(toy_graph, MetaPathSpec.from_string("APA"))
        dense = adj.matrix.toarray()
        # authors 0 and 1 share paper 3; author 2 is alone on paper 4
        expected = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        assert np.array_equal(dense, expected)
        assert adj.matrix[0].indices.tolist() == [1]

    def test_no_paper_nodes_means_empty_type(self):
        g = load_rows([(0, "author", 0), (1, "author", 1)], [], COAUTHOR_SCHEMA)
        with pytest.raises(EmptyTypeError):
            metapath_adjacency(g, MetaPathSpec.from_string("APA"))

    def test_matches_walk_enumeration_on_random_graph(self):
        rng = np.random.default_rng(5)
        g = random_hin(rng)
        spec = MetaPathSpec.from_string("APVPA")
        adj = metapath_adjacency(g, spec)
        expected = enumerate_typed_walks(g, spec.type_sequence)
        np.fill_diagonal(expected, 0)
        assert np.array_equal(adj.matrix.toarray(), expected)

    def test_counts_vs_binary(self):
        rng = np.random.default_rng(8)
        g = random_hin(rng)
        spec = MetaPathSpec.from_string("APPA")
        counts = metapath_adjacency(g, spec, mode="counts").matrix.toarray()
        binary = metapath_adjacency(g, spec, mode="binary").matrix.toarray()
        assert np.all(counts >= binary)
        assert np.array_equal(binary, (counts > 0).astype(np.int64))

    def test_unknown_mode_is_a_validation_error(self, toy_graph):
        with pytest.raises(ValidationError, match="'counts' or 'binary', got 'bogus'"):
            metapath_adjacency(toy_graph, MetaPathSpec.from_string("APA"), mode="bogus")

    def test_length_two_path_equals_biadjacency(self):
        rng = np.random.default_rng(9)
        g = random_hin(rng)
        spec = MetaPathSpec(name="AP", type_sequence=("author", "paper"))
        adj = metapath_adjacency(g, spec)
        assert np.array_equal(adj.matrix.toarray(), g.biadjacency("author", "paper").toarray())

    def test_palindromic_path_symmetric_when_relations_are_mirrored(self):
        rng = np.random.default_rng(3)
        # emit every author-paper edge in both directions
        n_a, n_p = 6, 8
        nodes = [(i, "author", None) for i in range(n_a)]
        nodes += [(n_a + i, "paper", None) for i in range(n_p)]
        edges = []
        for a in range(n_a):
            for p in range(n_p):
                if rng.random() < 0.4:
                    edges.append((a, n_a + p, "writes"))
                    edges.append((n_a + p, a, "written_by"))
        g = load_rows(nodes, edges, COAUTHOR_SCHEMA)
        adj = metapath_adjacency(g, MetaPathSpec.from_string("APA"))
        dense = adj.matrix.toarray()
        assert np.array_equal(dense, dense.T)

    def test_diagonal_zeroed_for_same_type_endpoints(self):
        g = toy_coauthor_graph()
        adj = metapath_adjacency(g, MetaPathSpec.from_string("APA"))
        assert np.all(adj.matrix.diagonal() == 0)


class TestNeighborsAlong:
    """A row's stored columns are the node's neighbors along the meta path:
    the model reads its neighbor lists from them."""

    def test_support_of_row(self, toy_graph):
        adj = metapath_adjacency(toy_graph, MetaPathSpec.from_string("APA"))
        # the zeroed diagonal is not stored, and neither is any other zero
        assert [adj.matrix[i].indices.tolist() for i in range(3)] == [[1], [0], []]
        assert np.all(adj.matrix.data > 0)
