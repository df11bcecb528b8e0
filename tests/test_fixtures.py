import dataclasses
import hashlib

from edgepow import fixtures
from edgepow.cli import main


def test_registry_size_and_names_unique():
    names = fixtures.names()
    assert len(names) == len(set(names))
    assert len([f for f in fixtures.REGISTRY if f.strong == "fail"]) >= 20
    assert len([f for f in fixtures.REGISTRY if f.strong == "pass"]) >= 5


def test_get_and_graph_of():
    f = fixtures.get("c4twopath")
    g = fixtures.graph_of(f)
    assert g.n == 8 and (7, 8) in g.edges


def test_every_fixture_passes():
    for fixture in fixtures.REGISTRY:
        result = fixtures.run_fixture(fixture)
        failed = [(l, i) for l, ok, i in result.checks if not ok]
        assert result.ok, (fixture.name, failed)


def test_swap_fits_its_instance():
    # u and v are degree-delta products of edges on the fixture's n vertices
    for fixture in fixtures.REGISTRY:
        sw = fixture.swap
        if sw is None:
            continue
        n = len(fixture.caps)
        for vec in (sw.u, sw.v):
            assert len(vec) == n and sum(vec) == 2 * fixture.delta, fixture.name
        assert 1 <= sw.xi <= n and 1 <= sw.rho <= n, fixture.name
        assert len(sw.divisor) == n, fixture.name


def test_derived_facts_are_not_stored():
    fields = {f.name for f in dataclasses.fields(fixtures.Fixture)}
    assert not fields & {"members", "veronese"}


def test_repro_all_json_is_pinned(capsys):
    assert main(["repro", "--all", "--json"]) == 0
    out = capsys.readouterr().out
    digest = hashlib.sha1(out.encode()).hexdigest()
    assert digest == "ed119269a70810aaaf0e82690f9aa67611faec8d"
