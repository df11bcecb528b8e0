import json
import random
import time

import pytest

from edgepow import (
    GraphError,
    cycle,
    delete_vertex,
    forked_path,
    from_spec,
    graph_from_edges,
    independence_number,
    induced_subgraph,
    is_triangle_free,
    load_graph,
    parse_graph_json,
    path,
    star,
    star_whisker,
    structure_probe,
    template,
)
from edgepow import corpus
from edgepow import graph as graph_mod
from edgepow.graph import MAX_FAMILY_SIZE, MAX_GRAPH_FILE_BYTES, peel_leaves
from helpers import random_connected_graph, reference_peel_order, reference_unique_cycle


def test_rejects_loops_duplicates_isolated():
    with pytest.raises(GraphError, match=r"edges\[1\]: loop"):
        graph_from_edges(3, [(1, 2), (3, 3)])
    with pytest.raises(GraphError, match=r"edges\[2\]: duplicate"):
        graph_from_edges(3, [(1, 2), (2, 3), (2, 1)])
    with pytest.raises(GraphError, match="isolated"):
        graph_from_edges(4, [(1, 2), (2, 3)])
    with pytest.raises(GraphError, match="out of range"):
        graph_from_edges(3, [(1, 2), (2, 4)])


def test_cycle_smallest():
    g = cycle(3)
    assert g.edges == frozenset({(1, 2), (2, 3), (1, 3)})
    with pytest.raises(GraphError):
        cycle(2)


@pytest.mark.parametrize("n", range(3, 12))
def test_cycle_edges_and_degrees(n):
    g = cycle(n)
    assert len(g.edges) == n
    assert all(d == 2 for d in g.degrees)


@pytest.mark.parametrize("n", range(2, 12))
def test_path_is_tree(n):
    probe = structure_probe(path(n))
    assert probe.is_tree and not probe.is_unicyclic


def test_star_whisker_layout():
    g = star_whisker(3, 2)
    assert g.n == 6
    center = 6
    assert g.neighbors(center) == frozenset({1, 2, 3})
    assert (1, 4) in g.edges and (2, 5) in g.edges


def test_template_c3pathpend_edge_list():
    g = template("c3pathpend")
    assert g.n == 7
    assert g.edges == frozenset(
        {(1, 2), (1, 3), (2, 3), (1, 4), (4, 5), (5, 6), (2, 7)}
    )


def test_from_spec_roundtrip():
    assert from_spec("cycle:5").edges == cycle(5).edges
    assert from_spec("template:c5star").n == 8
    assert from_spec("star:4").n == 5
    with pytest.raises(GraphError):
        from_spec("blob:7")
    with pytest.raises(GraphError):
        from_spec("cycle:x")


def test_independence_number_known():
    assert independence_number(cycle(5)) == 2
    assert independence_number(path(2)) == 1
    assert independence_number(template("c3fork")) == 3


def _independence_brute(g):
    from itertools import combinations

    best = 1
    verts = range(1, g.n + 1)
    for k in range(2, g.n + 1):
        for sub in combinations(verts, k):
            if all(not g.has_edge(u, v) for u, v in combinations(sub, 2)):
                best = k
                break
        else:
            break
    return best


def test_independence_number_vs_subset_enumeration():
    rng = random.Random(7)
    for _ in range(40):
        g = random_connected_graph(rng, n_max=9)
        assert independence_number(g) == _independence_brute(g)
    # larger spot checks, still within the subset-enumeration oracle's reach
    g = random_connected_graph(random.Random(11), n_min=12, n_max=12, extra_max=8)
    assert independence_number(g) == _independence_brute(g)
    g = random_connected_graph(random.Random(13), n_min=14, n_max=14, extra_max=24)
    assert independence_number(g) == _independence_brute(g)


def test_independence_number_size_limit():
    edges = [(i, i + 1) for i in range(1, 40)]
    g = graph_from_edges(40, edges)
    with pytest.raises(GraphError, match="limited"):
        independence_number(g)


def test_triangle_free():
    assert is_triangle_free(cycle(4))
    assert not is_triangle_free(cycle(3))
    assert not is_triangle_free(template("c3fork"))


def test_structure_probe_unicyclic():
    g = graph_from_edges(8, list(cycle(7).edges) + [(1, 8)])
    probe = structure_probe(g)
    assert probe.is_unicyclic and probe.cycle_length == 7
    assert probe.cycle == (1, 2, 3, 4, 5, 6, 7)
    assert probe.leaves == (8,)


def test_structure_probe_disconnected():
    g = graph_from_edges(4, [(1, 2), (3, 4)])
    probe = structure_probe(g)
    assert not probe.connected and not probe.is_tree
    assert probe.components == ((1, 2), (3, 4))


def test_unique_cycle_matches_reference_dfs():
    rng = random.Random(11)
    graphs = corpus.unicyclic_up_to(8)
    assert len(graphs) == 143
    for g in graphs:
        for _ in range(3):
            perm = list(range(1, g.n + 1))
            rng.shuffle(perm)
            h = graph_from_edges(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])
            assert structure_probe(h).cycle == reference_unique_cycle(h)


def test_peel_leaves_matches_reference_order():
    rng = random.Random(5)
    stuck = 0
    for _ in range(600):
        g = random_connected_graph(rng, n_min=2, n_max=9, extra_max=rng.randint(0, 3))
        keep = set(rng.sample(range(1, g.n + 1), rng.randint(0, g.n)))
        want = reference_peel_order(g, keep)
        order, left = peel_leaves(g, keep)
        assert left >= keep
        if want is None:
            stuck += 1
            assert left != keep
        else:
            assert (order, left) == (want, keep)
    assert stuck >= 100


def test_peel_leaves_of_a_tree_leaves_one_vertex():
    order, left = peel_leaves(path(4))
    assert order == [(1, 2), (2, 3), (3, 4)] and left == {4}
    order, left = peel_leaves(graph_from_edges(2, [(1, 2)]))
    assert order == [(1, 2)] and left == {2}


def test_delete_leaf_of_template():
    g = template("c3pathpend")
    h, mapping = delete_vertex(g, 7)
    assert h.n == 6
    assert mapping == {v: v for v in range(1, 7)}
    assert h.edges == template("c3path3").edges


def test_delete_path_endpoint():
    h, _ = delete_vertex(path(5), 5)
    assert h.edges == path(4).edges


def test_delete_renumbers_with_mapping():
    h, mapping = delete_vertex(path(3), 1)
    assert mapping == {2: 1, 3: 2}
    assert h.edges == frozenset({(1, 2)})


def test_from_spec_has_no_fixture_family():
    # registered fixtures are resolved by the CLI, not by the spec parser
    with pytest.raises(GraphError, match="unknown graph family 'fixture'"):
        from_spec("fixture:cyc8")


@pytest.mark.parametrize(
    "spec",
    [
        "cycle:500000",
        f"path:{MAX_FAMILY_SIZE + 1}",
        f"star:{MAX_FAMILY_SIZE}",
        "star_whisker:150000,60000",
        "forkedpath:1000000",
        "multipartite:1000,1000",
    ],
)
def test_over_limit_spec_is_refused_before_building(spec):
    start = time.perf_counter()
    with pytest.raises(GraphError, match="limit") as info:
        from_spec(spec)
    assert time.perf_counter() - start < 0.1
    assert "\n" not in str(info.value) and len(str(info.value)) < 120


def test_from_spec_multipartite():
    g = from_spec("multipartite:2,2")
    assert len(g.edges) == 4
    g = from_spec("multipartite:2,2;1-3,2-4")
    assert len(g.edges) == 2


def test_delete_interior_creates_isolated():
    with pytest.raises(GraphError, match="isolated"):
        delete_vertex(path(4), 2)


def test_delete_leaf_from_tree_keeps_tree():
    rng = random.Random(3)
    for _ in range(20):
        g = random_connected_graph(rng, n_min=3, extra_max=0)
        leaf = structure_probe(g).leaves[0]
        h, _ = delete_vertex(g, leaf)
        assert structure_probe(h).is_tree


def test_induced_subgraph_mapping():
    g = template("c5star")
    h, mapping = induced_subgraph(g, [1, 2, 3, 4, 5])
    assert h.edges == cycle(5).edges
    assert mapping == {1: 1, 2: 2, 3: 3, 4: 4, 5: 5}


def test_forked_path_shape():
    g = forked_path(2)
    assert g.n == 6
    assert g.edges == frozenset({(1, 2), (1, 3), (1, 4), (2, 5), (2, 6)})


def test_json_roundtrip(tmp_path):
    g = template("c4star")
    p = tmp_path / "g.json"
    p.write_text(json.dumps(g.to_json()))
    assert load_graph(str(p)).edges == g.edges


def test_json_errors():
    with pytest.raises(GraphError, match="keys 'n' and 'edges'"):
        parse_graph_json({"n": 3})
    with pytest.raises(GraphError, match=r"edges\[0\]"):
        parse_graph_json({"n": 3, "edges": [[1, 1], [1, 2]]})
    with pytest.raises(GraphError, match="must be an integer"):
        parse_graph_json({"n": "3", "edges": []})


def test_isolated_vertex_error_is_bounded():
    # A huge vertex count with one edge names the first few uncovered
    # vertices and the total, not all two million of them.  (A graph file
    # that size is refused earlier, by the size limit.)
    with pytest.raises(GraphError, match="isolated vertices not allowed") as exc:
        graph_from_edges(2_000_000, [(1, 2)])
    text = str(exc.value)
    assert len(text) < 200
    assert "[3, 4, 5, 6, 7, 8, 9, 10, 11, 12]" in text and "1999998" in text
    with pytest.raises(GraphError, match=r"not allowed: \[3, 4\]$"):
        graph_from_edges(4, [(1, 2)])


@pytest.mark.parametrize(
    "n,edges",
    [
        (MAX_FAMILY_SIZE + 1, [[1, 2]]),
        (4, [[1, 2]] * (MAX_FAMILY_SIZE + 1)),
    ],
)
def test_over_limit_graph_file_is_refused_before_building(n, edges):
    start = time.perf_counter()
    with pytest.raises(GraphError, match="limit is 200000") as info:
        parse_graph_json({"n": n, "edges": edges})
    assert time.perf_counter() - start < 0.1
    assert str(info.value) == (
        f"graph would have {n} vertices and {len(edges)} edges; "
        f"the limit is {MAX_FAMILY_SIZE} of each"
    )
    assert parse_graph_json({"n": 4, "edges": [[1, 2], [3, 4]]}).n == 4


def test_graph_file_byte_limit_fits_every_graph_inside_the_limits():
    # json.dump(..., indent=4) of the largest labels: the bytes one more edge
    # adds, times the edge limit, plus the rest of the object
    top = MAX_FAMILY_SIZE
    for newline in ("\n", "\r\n"):
        sizes = [
            len(json.dumps({"n": top, "edges": [[top - 1, top]] * k}, indent=4)
            .replace("\n", newline))
            for k in (1, 2)
        ]
        per_edge = sizes[1] - sizes[0]
        assert sizes[0] + (MAX_FAMILY_SIZE - 1) * per_edge <= MAX_GRAPH_FILE_BYTES


def test_graph_file_over_byte_limit_is_refused_before_reading(tmp_path, monkeypatch):
    g = template("c4star")
    p = tmp_path / "g.json"
    with open(p, "w") as fh:
        json.dump(g.to_json(), fh, indent=4)
    size = p.stat().st_size
    monkeypatch.setattr(graph_mod, "MAX_GRAPH_FILE_BYTES", size)
    assert load_graph(str(p)).edges == g.edges
    monkeypatch.setattr(graph_mod, "MAX_GRAPH_FILE_BYTES", size - 1)

    def unread(*args, **kwargs):
        raise AssertionError("an over-limit graph file was parsed")

    monkeypatch.setattr(graph_mod.json, "load", unread)
    with pytest.raises(GraphError) as info:
        load_graph(str(p))
    assert str(info.value) == (
        f"{p}: graph file has {size} bytes; the limit is {size - 1} bytes"
    )


def test_star_center_labeling():
    g = star(4)
    assert g.neighbors(5) == frozenset({1, 2, 3, 4})
    assert all(g.degree(i) == 1 for i in range(1, 5))
