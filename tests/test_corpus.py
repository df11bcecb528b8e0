import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import edgepow
from edgepow import BudgetError, cycle, graph_from_edges, structure_probe, template
from edgepow import corpus, toric
from helpers import is_isomorphic, reference_trees, reference_unicyclic


def test_tree_counts_match_known_enumeration():
    # numbers of trees on 2..8 vertices up to isomorphism
    expected = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23}
    for n, count in expected.items():
        assert len(corpus.all_trees(n)) == count


def test_unicyclic_counts_match_known_enumeration():
    # numbers of connected unicyclic graphs on 3..8 vertices up to isomorphism
    expected = {3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89}
    for n, count in expected.items():
        graphs = corpus.all_unicyclic(n)
        assert len(graphs) == count
        for g in graphs:
            assert structure_probe(g).is_unicyclic


def test_unicyclic_count_table_matches_the_corpus():
    assert sorted(corpus.UNICYCLIC_COUNTS) == list(range(3, 19))
    for n in range(3, 11):
        assert len(corpus.all_unicyclic(n)) == corpus.UNICYCLIC_COUNTS[n]


def test_scan_bound_accepts_scans_within_the_limit():
    # cap vectors over the corpus: 823,688, 666,981 and the criterion-11 5,256;
    # at cap 1, 61,131 graphs, the largest corpus under the limit 100,000
    for max_n, cap_max in ((10, 2), (8, 3), (7, 2), (14, 1)):
        toric.check_unicyclic_scan(max_n, cap_max, 3)


def test_unicyclic_corpus_past_the_limit_is_refused_before_building(monkeypatch):
    # 61,131 graphs on 3..14 vertices pass; 15 vertices alone hold 110,381
    all_unicyclic = corpus.all_unicyclic

    def unbuilt(n):
        raise AssertionError("graphs built for a refused corpus")

    monkeypatch.setattr(corpus, "all_unicyclic", unbuilt)
    monkeypatch.setattr(corpus, "all_trees", unbuilt)
    corpus.check_unicyclic_count(3, 14)
    for call, n, message in (
        (corpus.unicyclic_up_to, 15, "171512 unicyclic graphs on 3..15 vertices"),
        (all_unicyclic, 15, "110381 unicyclic graphs on 15 vertices"),
        # past the table of counts, each size alone is past the limit
        (corpus.unicyclic_up_to, 19, "unicyclic graphs on 3..19 vertices"),
        (all_unicyclic, 10 ** 9, "unicyclic graphs on 1000000000 vertices"),
    ):
        start = time.perf_counter()
        with pytest.raises(BudgetError) as refused:
            call(n)
        assert time.perf_counter() - start < 0.1
        assert str(refused.value) == f"{message} exceed the limit 100000"
    assert toric.CORPUS_LIMIT is corpus.CORPUS_LIMIT


def test_corpora_have_no_isomorphic_duplicates():
    graphs = corpus.all_unicyclic(6)
    for i in range(len(graphs)):
        for j in range(i + 1, len(graphs)):
            assert not is_isomorphic(graphs[i], graphs[j])


def test_find_isomorphism_returns_valid_mapping():
    a = template("c4star")
    # relabeled copy
    b = graph_from_edges(7, [(7, 6), (6, 5), (5, 4), (4, 7), (3, 7), (2, 3), (1, 3)])
    mapping = corpus.find_isomorphism(a, b)
    assert mapping is not None
    for u, v in a.edges:
        assert b.has_edge(mapping[u], mapping[v])
    assert corpus.find_isomorphism(a, cycle(7)) is None


def test_trees_and_unicyclic_bounds():
    with pytest.raises(ValueError):
        corpus.all_trees(1)
    with pytest.raises(ValueError):
        corpus.all_unicyclic(2)
    assert len(corpus.trees_up_to(4)) == 4
    assert len(corpus.unicyclic_up_to(4)) == 3


def test_trees_match_networkx_in_order():
    for n in range(2, 13):
        assert corpus.all_trees(n) == reference_trees(n), n


def test_unicyclic_match_reference_in_order():
    for n in range(3, 10):
        assert corpus.all_unicyclic(n) == reference_unicyclic(n), n


def _relabel(g, rng):
    perm = list(range(1, g.n + 1))
    rng.shuffle(perm)
    return graph_from_edges(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.sorted_edges])


def test_unicyclic_key_ignores_labels_and_separates_classes():
    rng = random.Random(7)
    for g in corpus.unicyclic_up_to(8):
        key = corpus._unicyclic_key(g)
        for _ in range(3):
            assert corpus._unicyclic_key(_relabel(g, rng)) == key, g
    graphs = corpus.unicyclic_up_to(9)
    assert len({corpus._unicyclic_key(g) for g in graphs}) == len(graphs) == 383


def test_corpus_does_not_load_networkx():
    code = (
        "import sys, edgepow, edgepow.cli; "
        "from edgepow import corpus, template, graph_from_edges; "
        "corpus.unicyclic_up_to(7); "
        "print('networkx' in sys.modules); "
        "b = graph_from_edges(7, [(7, 6), (6, 5), (5, 4), (4, 7), (3, 7), (2, 3), (1, 3)]); "
        "m = corpus.find_isomorphism(template('c4star'), b); "
        "print(all(b.has_edge(m[u], m[v]) for u, v in template('c4star').edges)); "
        "print('networkx' in sys.modules)"
    )
    src = str(Path(edgepow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "True", "True"]
