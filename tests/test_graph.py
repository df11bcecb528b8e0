import hashlib
import json
import random
import re
import time

import pytest

from edgepow import (
    Graph,
    GraphError,
    complete_multipartite,
    cycle,
    forked_path,
    from_spec,
    graph_from_edges,
    induced_subgraph,
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
from edgepow.classify import ClassificationVerdict, CrossValidation
from edgepow.exchange import ExchangeReport, ExchangeWitness, VeroneseDecomposition
from edgepow.graph import (
    MAX_FAMILY_SIZE,
    MAX_GRAPH_FILE_BYTES,
    StructureReport,
    automorphisms,
    peel_leaves,
    template_names,
)
from edgepow.powers import GeneratorSet
from edgepow.toric import (
    ConnectivityReport,
    Fiber,
    FiberCheck,
    ScanInstance,
    ScanReport,
    SymExchangeBinomial,
)
from helpers import (
    delete_vertex,
    group_order,
    networkx_automorphism_count,
    independence_number,
    is_triangle_free,
    random_connected_graph,
    random_disconnected_graph,
    reference_peel_order,
    reference_structure_probe,
    reference_unique_cycle,
    shuffled,
)


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
    # a bare template name needs no family tag
    assert from_spec("c5star") == template("c5star")


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
    assert probe.order == ((8, 1),)


def test_structure_probe_disconnected():
    g = graph_from_edges(4, [(1, 2), (3, 4)])
    probe = structure_probe(g)
    assert not probe.is_tree and not probe.is_unicyclic
    assert probe.cycle is None and probe.cycle_length == 0


def _assert_probe_matches_reference(g):
    probe = structure_probe(g)
    want = reference_structure_probe(g)
    got = (probe.is_tree, probe.is_unicyclic, probe.cycle, probe.cycle_length)
    assert got == (want.is_tree, want.is_unicyclic, want.cycle, want.cycle_length), g


@pytest.mark.parametrize(
    "n, edges",
    [
        (5, [(1, 2), (2, 3), (1, 3), (4, 5)]),  # triangle plus an edge: m = n - 1
        (6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]),  # two triangles: m = n
        # a path on 3 vertices plus K4 minus an edge (bicyclic): m = n
        (7, [(1, 2), (2, 3), (4, 5), (4, 6), (4, 7), (5, 6), (6, 7)]),
    ],
)
def test_structure_probe_disconnected_shapes_are_neither(n, edges):
    g = graph_from_edges(n, edges)
    assert len(g.edges) - n in (-1, 0)
    probe = structure_probe(g)
    assert not probe.is_tree and not probe.is_unicyclic and probe.cycle is None
    _assert_probe_matches_reference(g)


def test_structure_probe_matches_reference():
    rng = random.Random(17)
    for g in corpus.trees_up_to(10) + corpus.unicyclic_up_to(9):
        _assert_probe_matches_reference(g)
        _assert_probe_matches_reference(shuffled(rng, g))
    near = 0  # disconnected graphs whose edge count a tree or unicyclic graph has
    for _ in range(3000):
        g = random_connected_graph(rng, n_min=2, n_max=10, extra_max=rng.randint(0, 3))
        _assert_probe_matches_reference(shuffled(rng, g))
        h = random_disconnected_graph(rng)
        _assert_probe_matches_reference(h)
        near += len(h.edges) - h.n in (-1, 0)
    assert near >= 1000


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
    # the reference keeps what peel_leaves left and must peel the rest in
    # the same order; the same reference replays the lifts in helpers.py
    rng = random.Random(5)
    cores = 0
    for _ in range(600):
        g = random_connected_graph(rng, n_min=2, n_max=9, extra_max=rng.randint(0, 3))
        order, left = peel_leaves(g)
        assert order == reference_peel_order(g, left)
        assert len(order) + len(left) == g.n
        cores += len(left) > 1
    assert cores >= 100


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
        leaf = g.degrees.index(1) + 1
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


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Graph(1, frozenset()), "vertex count must be an integer >= 2, got 1"),
        (lambda: Graph(3, frozenset({(1, 2, 3)})), "edges[0]: (1, 2, 3) is not a pair"),
        (lambda: Graph(3, frozenset({(2, 4)})), "edges[0]: [2, 4] out of range 1..3"),
        (lambda: path(1), "path needs >= 2 vertices, got 1"),
        (lambda: star(0), "star needs >= 1 leaf, got 0"),
        (lambda: forked_path(1), "forked_path needs a path on >= 2 vertices, got 1"),
        (lambda: star_whisker(0, 0), "star_whisker needs >= 1 leaf, got 0"),
        (lambda: star_whisker(2, 3), "whisker count must be between 0 and 2, got 3"),
        (lambda: complete_multipartite([3]), "need >= 2 parts, each of size >= 1, got (3,)"),
        (
            lambda: complete_multipartite([2, 2], [(1, 2)]),
            "matching[0]: [1, 2] is not a cross-part edge",
        ),
        (
            lambda: complete_multipartite([2, 2], [(1, 3), (1, 4)]),
            "matching[1]: [1, 4] reuses a matched vertex",
        ),
        (lambda: template("c9"), f"unknown template 'c9'; known: {list(template_names())}"),
        (lambda: from_spec("c9"), "bad graph spec 'c9'; expected 'family:params'"),
        (lambda: induced_subgraph(path(3), [2]), "induced subgraph needs at least 2 vertices"),
        (lambda: parse_graph_json([3, [[1, 2]]]), "graph JSON must be an object, got list"),
        (lambda: parse_graph_json({"n": 2, "edges": "1-2"}), "'edges' must be a list of pairs"),
    ],
)
def test_invalid_graph_input_is_refused_with_its_message(build, message):
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        build()


def test_graph_file_with_invalid_json_is_refused(tmp_path):
    p = tmp_path / "g.json"
    p.write_text('{"n": 2,')
    with pytest.raises(GraphError, match=f"^{re.escape(str(p))}: invalid JSON \\(.+\\)$"):
        load_graph(str(p))


def test_json_errors():
    with pytest.raises(GraphError, match="keys 'n' and 'edges'"):
        parse_graph_json({"n": 3})
    with pytest.raises(GraphError, match=r"edges\[0\]"):
        parse_graph_json({"n": 3, "edges": [[1, 1], [1, 2]]})
    with pytest.raises(GraphError, match="must be an integer"):
        parse_graph_json({"n": "3", "edges": []})



def test_boolean_vertex_labels_are_refused():
    # True is an int in Python, and it would write back as true
    with pytest.raises(GraphError, match=r"^edges\[0\]: non-integer endpoints in \(True, 2\)$"):
        graph_from_edges(3, [(True, 2), (2, 3)])
    with pytest.raises(GraphError, match=r"^edges\[1\]: non-integer endpoints in \[2, False\]$"):
        parse_graph_json({"n": 3, "edges": [[1, 2], [2, False]]})
    with pytest.raises(GraphError, match=r"^edges\[1\]: non-integer endpoints in \(True, 2\)$"):
        Graph(3, frozenset({(True, 2), (2, 3)}))
    with pytest.raises(GraphError, match="^vertex True out of range 1..3$"):
        path(3).neighbors(True)
    with pytest.raises(GraphError, match="^vertex True out of range 1..3$"):
        induced_subgraph(path(3), [True, 2])

def test_graph_from_any_iterable_of_pairs_equals_the_frozenset_graph():
    # Graph runs the pair rule itself and stores canonical (u, v), u < v
    want = Graph(4, frozenset({(1, 2), (2, 3), (3, 4)}))
    pairs = [(1, 2), (2, 3), (3, 4)]
    for edges in (pairs, tuple(pairs), (e for e in pairs), [(2, 1), (3, 2), (4, 3)]):
        g = Graph(4, edges)
        assert g == want and hash(g) == hash(want)
        assert type(g.edges) is frozenset and g.edges == want.edges
    assert graph_from_edges(4, [(4, 3), (1, 2), (3, 2)]) == want


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


def test_automorphisms_preserve_edges_and_generate_the_whole_group():
    graphs = corpus.trees_up_to(9) + corpus.unicyclic_up_to(8)
    graphs += tuple(from_spec(s) for s in ("multipartite:3,3,3", "star:9", "cycle:30"))
    for g in graphs:
        found = automorphisms(g)
        for sigma in found:
            assert sorted(sigma) == list(range(1, g.n + 1)) and sigma != tuple(sorted(sigma))
            image = {tuple(sorted((sigma[u - 1], sigma[v - 1]))) for u, v in g.edges}
            assert image == g.edges, (g, sigma)
        assert group_order(found, g.n) == networkx_automorphism_count(g), g
        assert automorphisms(g) == found


def test_asymmetric_graph_has_no_automorphism():
    # the smallest asymmetric tree: legs of lengths 1, 2 and 3 from one hub
    spider = graph_from_edges(7, [(1, 2), (1, 3), (3, 4), (1, 5), (5, 6), (6, 7)])
    for g in (spider, template("c3pathpend"), template("c4pendpath")):
        assert networkx_automorphism_count(g) == 1
        assert automorphisms(g) == ()


def test_automorphisms_refuse_what_the_engine_refuses(monkeypatch):
    assert automorphisms(path(32)) == (tuple(range(32, 0, -1)),)

    def refuse(*args):
        raise AssertionError("colours or automorphisms computed")

    monkeypatch.setattr(graph_mod, "_colours", refuse)
    monkeypatch.setattr(graph_mod, "_automorphisms", refuse)
    for g in (path(33), star(100)):
        with pytest.raises(ValueError, match=f"^enumeration is limited to 32 vertices, got {g.n}$"):
            automorphisms(g)


def test_automorphism_step_bound_leaves_a_subset(monkeypatch):
    g = from_spec("multipartite:3,3,3")
    full = set(automorphisms(g))
    monkeypatch.setattr(graph_mod, "_AUTOMORPHISM_STEPS", 1)
    bounded = automorphisms(g)
    assert set(bounded) < full


def test_automorphisms_found_are_pinned(monkeypatch):
    # sigma decides which cells cap_grid computes and which the scan
    # replays, so pin which automorphisms are found, not only the group
    # they generate, at step bounds that cut the searches at every depth
    named = tuple(from_spec(s) for s in ("multipartite:3,3,3", "star:9", "cycle:30"))
    trees, unicyclic = corpus.trees_up_to(9), corpus.unicyclic_up_to(8)
    rng = random.Random(25)
    relabelled = tuple(
        shuffled(rng, g) for g in named + trees[-8:] + unicyclic[-8:] for _ in range(2)
    )
    graphs = trees + unicyclic + named + relabelled
    assert len(graphs) == 278
    for steps, digest in (
        (1, "db0c87220ca533ecb59c416e07e71ef6d612a87b"),
        (3, "dd49387392f7945077e7cc5534ac3f271687ca5d"),
        (7, "2f69e1ed76f9ca96e41f3a4fe6fcf886d9e68aac"),
        (30, "d0a80ff6063a8825d67eb6257883890d9af510f0"),
        (1_000, "d01e0898d6d14111519a7f61dc82c43bc71c4908"),
    ):
        monkeypatch.setattr(graph_mod, "_AUTOMORPHISM_STEPS", steps)
        found = repr([automorphisms(g) for g in graphs])
        assert hashlib.sha1(found.encode()).hexdigest() == digest, steps


_WITNESS = ExchangeWitness((2, 0), (0, 2), 1, 2, (1, 1))
_FAILURE = (2, (1, 1, 2), (1, 2), (3, 3))
# (record, every field by keyword in order, the fields left to their defaults, repr)
RECORDS = [
    (
        Graph,
        {"n": 3, "edges": frozenset({(1, 2), (2, 3)})},
        {},
        "Graph(n=3, edges=[(1, 2), (2, 3)])",
    ),
    (
        StructureReport,
        {
            "is_tree": True,
            "is_unicyclic": False,
            "cycle": None,
            "cycle_length": 0,
            "order": ((1, 2),),
        },
        {},
        "StructureReport(is_tree=True, is_unicyclic=False, cycle=None, cycle_length=0, "
        "order=((1, 2),))",
    ),
    (
        GeneratorSet,
        {"graph": Graph(2, [(1, 2)]), "caps": (1, 1), "delta": 1, "members": frozenset({(1, 1)})},
        {},
        "GeneratorSet(graph=Graph(n=2, edges=[(1, 2)]), caps=(1, 1), delta=1, "
        "members=frozenset({(1, 1)}))",
    ),
    (
        ExchangeWitness,
        {"u": (2, 0), "v": (0, 2), "xi": 1, "rho": 2, "missing": (1, 1)},
        {},
        "ExchangeWitness(u=(2, 0), v=(0, 2), xi=1, rho=2, missing=(1, 1))",
    ),
    (
        ExchangeReport,
        {"prop": "strong", "ok": False, "witness": _WITNESS},
        {"witness": None},
        "ExchangeReport(prop='strong', ok=False, witness=ExchangeWitness(u=(2, 0), v=(0, 2), "
        "xi=1, rho=2, missing=(1, 1)))",
    ),
    (
        VeroneseDecomposition,
        {"base": (0, 0), "degree": 2, "support": (1, 2), "bounds": (2, 2)},
        {},
        "VeroneseDecomposition(base=(0, 0), degree=2, support=(1, 2), bounds=(2, 2))",
    ),
    (
        ClassificationVerdict,
        {"sep": True, "rule": "cycle(3..7)", "detail": {"n": 5}},
        {"detail": {}},
        "ClassificationVerdict(sep=True, rule='cycle(3..7)', detail={'n': 5})",
    ),
    (
        CrossValidation,
        {
            "verdict": ClassificationVerdict(False, "cycle(>=8)", {"n": 8}),
            "consistent": True,
            "evidence": "closed-form",
            "caps": (1, 2),
            "report": ExchangeReport("strong", False),
        },
        {"caps": None, "report": None},
        "CrossValidation(verdict=ClassificationVerdict(sep=False, rule='cycle(>=8)', "
        "detail={'n': 8}), consistent=True, evidence='closed-form', caps=(1, 2), "
        "report=ExchangeReport(prop='strong', ok=False, witness=None))",
    ),
    (
        SymExchangeBinomial,
        {"i": 1, "j": 4, "i0": 2, "j0": 3},
        {},
        "SymExchangeBinomial(i=1, j=4, i0=2, j0=3)",
    ),
    (
        Fiber,
        {"degree": 2, "product": (1, 2, 1), "nodes": ((1, 3), (2, 2))},
        {},
        "Fiber(degree=2, product=(1, 2, 1), nodes=((1, 3), (2, 2)))",
    ),
    (
        FiberCheck,
        {"degree": 2, "fiber_count": 6, "nontrivial_count": 1, "connected": True},
        {},
        "FiberCheck(degree=2, fiber_count=6, nontrivial_count=1, connected=True)",
    ),
    (
        ConnectivityReport,
        {
            "ok": False,
            "m_max": 3,
            "degrees": (FiberCheck(2, 6, 1, False),),
            "binomial_count": 1,
            "failure": _FAILURE,
        },
        {"failure": None},
        "ConnectivityReport(ok=False, m_max=3, degrees=(FiberCheck(degree=2, fiber_count=6, "
        "nontrivial_count=1, connected=False),), binomial_count=1, "
        "failure=(2, (1, 1, 2), (1, 2), (3, 3)))",
    ),
    (
        ScanInstance,
        {
            "graph_index": 0,
            "n": 3,
            "edges": ((1, 2), (1, 3), (2, 3)),
            "caps": (1, 1, 2),
            "members": 3,
            "status": "violation",
            "failure": _FAILURE,
        },
        {"failure": None},
        "ScanInstance(graph_index=0, n=3, edges=((1, 2), (1, 3), (2, 3)), caps=(1, 1, 2), "
        "members=3, status='violation', failure=(2, (1, 1, 2), (1, 2), (3, 3)))",
    ),
    (
        ScanReport,
        {
            "cap_max": 2,
            "m_max": 3,
            "instances": 10,
            "violations": (),
            "budget_skips": (),
            "strong_pass": 7,
            "strong_fail": 3,
        },
        {"strong_pass": 0, "strong_fail": 0},
        "ScanReport(cap_max=2, m_max=3, instances=10, violations=(), budget_skips=(), "
        "strong_pass=7, strong_fail=3)",
    ),
]


@pytest.mark.parametrize(
    "cls, fields, defaults, text", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_records_are_frozen_values(cls, fields, defaults, text):
    # what callers of every value record get: frozen fields, equality and
    # hash by the fields of one record type, the dataclass-style repr, the
    # constructor's positional order, keywords and defaults
    values = tuple(fields.values())
    a, b = cls(*values), cls(**fields)
    assert tuple(getattr(a, name) for name in fields) == values
    assert a == b and not a != b
    assert repr(a) == text
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    with pytest.raises(AttributeError):
        delattr(a, next(iter(fields)))
    assert tuple(getattr(a, name) for name in fields) == values
    try:
        expected = hash(values)
    except TypeError:  # a dict field, so the record is unhashable too
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == expected
    other = type("Other", (cls,), {})(*values)
    assert a != other and other != a
    assert a.__eq__(values) is NotImplemented and a != values
    given = {name: value for name, value in fields.items() if name not in defaults}
    c, d = cls(**given), cls(**given)
    for name, value in defaults.items():
        assert getattr(c, name) == value
        if isinstance(value, dict):
            assert getattr(c, name) is not getattr(d, name)  # fresh per instance
    if cls is SymExchangeBinomial:
        quads = [(1, 4, 2, 3), (1, 2, 1, 3), (1, 4, 1, 5), (1, 2, 2, 2), (1, 2, 1, 3)]
        assert sorted(cls(*q) for q in quads) == [cls(*q) for q in sorted(quads)]
        assert cls(1, 2, 1, 3) <= cls(1, 2, 1, 3) < cls(1, 2, 2, 2) and a > cls(1, 4, 1, 5)
