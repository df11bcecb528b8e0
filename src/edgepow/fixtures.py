"""Curated regression instances with frozen expected outcomes.

Each fixture pins a small graph and cap vector to machine-checkable facts:
the top degree, sample generators and non-generators, a strong-exchange
verdict, and for failing instances an explicit swap (u, v, xi, rho) whose
moved monomial leaves the generator set and is divisible by a stated
witness monomial.  A few fixtures additionally freeze the entire generator
set, the quadratic exchange relations, and fiber connectivity bounds.

The registry is declarative data; ``run_fixture`` evaluates every
expectation through the public library operations.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import toric
from .exchange import check_strong_exchange, detect_veronese
from .graph import Graph, from_spec
from .powers import DEFAULT_NODE_BUDGET, PowerEngine, member


@dataclass(frozen=True)
class Swap:
    """A single-variable exchange that must leave the generator set.

    ``missing = u - e_xi + e_rho`` must not be a generator and must be
    divisible by ``divisor`` (1-based variable indexing).
    """

    u: tuple
    v: tuple
    xi: int
    rho: int
    divisor: tuple


@dataclass(frozen=True)
class Fixture:
    name: str
    graph: str  # family spec string, see graph.from_spec
    caps: tuple
    delta: int
    strong: str  # "pass" | "fail"
    members: tuple = ()
    non_members: tuple = ()
    swap: Swap | None = None
    veronese: bool | None = None
    size: int | None = None
    exact_members: tuple | None = None
    binomials: tuple | None = None  # canonical (i, j, i0, j0) quadruples
    fiber_m: int = 0


REGISTRY = (
    # Cycles of length >= 8 with caps 2 at positions 1, 3, 7.
    Fixture(
        name="cyc8",
        graph="cycle:8",
        caps=(2, 1, 2, 1, 1, 1, 2, 1),
        delta=4,
        strong="fail",
        members=((2, 1, 1, 1, 1, 1, 0, 1), (0, 1, 2, 1, 0, 1, 2, 1)),
        swap=Swap(
            u=(2, 1, 1, 1, 1, 1, 0, 1),
            v=(0, 1, 2, 1, 0, 1, 2, 1),
            xi=5,
            rho=3,
            divisor=(2, 1, 2, 0, 0, 0, 0, 0),
        ),
        veronese=False,
    ),
    Fixture(
        name="cyc9",
        graph="cycle:9",
        caps=(2, 1, 2, 1, 1, 1, 2, 1, 1),
        delta=5,
        strong="fail",
        members=((2, 1, 1, 1, 1, 1, 1, 1, 1), (1, 1, 2, 1, 0, 1, 2, 1, 1)),
        swap=Swap(
            u=(2, 1, 1, 1, 1, 1, 1, 1, 1),
            v=(1, 1, 2, 1, 0, 1, 2, 1, 1),
            xi=5,
            rho=3,
            divisor=(2, 1, 2, 0, 0, 0, 0, 0, 0),
        ),
        veronese=False,
    ),
    # Paths of length >= 7 with caps 2 at positions 3 and 7.
    Fixture(
        name="path7",
        graph="path:7",
        caps=(1, 1, 2, 1, 1, 1, 2),
        delta=3,
        strong="fail",
        members=((1, 1, 1, 1, 1, 1, 0), (0, 1, 2, 1, 0, 1, 1)),
        swap=Swap(
            u=(1, 1, 1, 1, 1, 1, 0),
            v=(0, 1, 2, 1, 0, 1, 1),
            xi=5,
            rho=3,
            divisor=(1, 1, 2, 0, 0, 0, 0),
        ),
        veronese=False,
    ),
    Fixture(
        name="path8",
        graph="path:8",
        caps=(1, 1, 2, 1, 1, 1, 2, 1),
        delta=4,
        strong="fail",
        members=((1, 1, 1, 1, 1, 1, 1, 1), (0, 1, 2, 1, 0, 1, 2, 1)),
        swap=Swap(
            u=(1, 1, 1, 1, 1, 1, 1, 1),
            v=(0, 1, 2, 1, 0, 1, 2, 1),
            xi=5,
            rho=3,
            divisor=(1, 1, 2, 0, 0, 0, 0, 0),
        ),
        veronese=False,
    ),
    # Triangle with a fork: has a triangle, independence number 3, fails.
    Fixture(
        name="c3fork",
        graph="template:c3fork",
        caps=(1, 1, 1, 1, 1, 1),
        delta=2,
        strong="fail",
        members=((1, 0, 1, 1, 1, 0), (0, 1, 1, 1, 0, 1)),
        non_members=((0, 0, 1, 1, 1, 1),),
        swap=Swap(
            u=(1, 0, 1, 1, 1, 0),
            v=(0, 1, 1, 1, 0, 1),
            xi=1,
            rho=6,
            divisor=(0, 0, 1, 1, 1, 1),
        ),
        veronese=False,
    ),
    # Paths with two pendant edges on each endpoint, all caps 1.
    Fixture(
        name="forkedpath2",
        graph="forkedpath:2",
        caps=(1, 1, 1, 1, 1, 1),
        delta=2,
        strong="fail",
        members=((1, 1, 1, 0, 1, 0), (1, 1, 0, 1, 0, 1)),
        swap=Swap(
            u=(1, 1, 1, 0, 1, 0),
            v=(1, 1, 0, 1, 0, 1),
            xi=5,
            rho=4,
            divisor=(1, 0, 1, 1, 0, 0),
        ),
        veronese=False,
    ),
    Fixture(
        name="forkedpath3",
        graph="forkedpath:3",
        caps=(1, 1, 1, 1, 1, 1, 1),
        delta=2,
        strong="fail",
        members=((1, 0, 1, 1, 0, 1, 0), (1, 0, 1, 0, 1, 0, 1)),
        swap=Swap(
            u=(1, 0, 1, 1, 0, 1, 0),
            v=(1, 0, 1, 0, 1, 0, 1),
            xi=6,
            rho=5,
            divisor=(1, 0, 0, 1, 1, 0, 0),
        ),
        veronese=False,
    ),
    Fixture(
        name="forkedpath4",
        graph="forkedpath:4",
        caps=(1, 1, 1, 1, 1, 1, 1, 1),
        delta=3,
        strong="fail",
        members=((1, 1, 1, 1, 1, 0, 1, 0), (1, 1, 1, 1, 0, 1, 0, 1)),
        swap=Swap(
            u=(1, 1, 1, 1, 1, 0, 1, 0),
            v=(1, 1, 1, 1, 0, 1, 0, 1),
            xi=7,
            rho=6,
            divisor=(1, 0, 0, 0, 1, 1, 0, 0),
        ),
        veronese=False,
    ),
    # Spider with legs 1, 1, 3: the forbidden induced subtree.
    Fixture(
        name="spider113",
        graph="template:spider113",
        caps=(1, 1, 1, 1, 1, 1),
        delta=2,
        strong="fail",
        members=((1, 1, 0, 0, 1, 1), (0, 1, 1, 1, 1, 0)),
        swap=Swap(
            u=(1, 1, 0, 0, 1, 1),
            v=(0, 1, 1, 1, 1, 0),
            xi=6,
            rho=3,
            divisor=(1, 1, 1, 0, 0, 0),
        ),
        veronese=False,
    ),
    # Unicyclic counterexamples, cycle length 7 down to 3.
    Fixture(
        name="c7pend",
        graph="template:c7pend",
        caps=(2, 3, 1, 1, 2, 1, 1, 2),
        delta=5,
        strong="fail",
        members=((2, 1, 1, 1, 2, 1, 0, 2), (2, 3, 1, 1, 1, 1, 1, 0)),
        swap=Swap(
            u=(2, 1, 1, 1, 2, 1, 0, 2),
            v=(2, 3, 1, 1, 1, 1, 1, 0),
            xi=5,
            rho=2,
            divisor=(2, 2, 0, 0, 0, 0, 0, 2),
        ),
        veronese=False,
    ),
    Fixture(
        name="c6pend",
        graph="template:c6pend",
        caps=(1, 2, 1, 1, 1, 1, 1),
        delta=3,
        strong="fail",
        members=((1, 1, 1, 1, 1, 0, 1), (1, 2, 1, 0, 1, 1, 0)),
        swap=Swap(
            u=(1, 1, 1, 1, 1, 0, 1),
            v=(1, 2, 1, 0, 1, 1, 0),
            xi=4,
            rho=2,
            divisor=(1, 2, 0, 0, 0, 0, 1),
        ),
        veronese=False,
    ),
    Fixture(
        name="c5pendad",
        graph="template:c5pendad",
        caps=(1, 2, 1, 1, 1, 1, 1),
        delta=3,
        strong="fail",
        members=((1, 1, 1, 0, 1, 1, 1), (1, 2, 1, 1, 1, 0, 0)),
        swap=Swap(
            u=(1, 1, 1, 0, 1, 1, 1),
            v=(1, 2, 1, 1, 1, 0, 0),
            xi=7,
            rho=2,
            divisor=(1, 2, 0, 0, 0, 1, 0),
        ),
        veronese=False,
    ),
    Fixture(
        name="c5pendnoad",
        graph="template:c5pendnoad",
        caps=(1, 2, 1, 1, 1, 1, 1),
        delta=3,
        strong="fail",
        members=((1, 1, 1, 1, 0, 1, 1), (1, 2, 1, 1, 1, 0, 0)),
        swap=Swap(
            u=(1, 1, 1, 1, 0, 1, 1),
            v=(1, 2, 1, 1, 1, 0, 0),
            xi=7,
            rho=2,
            divisor=(1, 2, 0, 0, 0, 1, 0),
        ),
        veronese=False,
    ),
    Fixture(
        name="c5twopend",
        graph="template:c5twopend",
        caps=(1, 1, 2, 1, 1, 1, 1),
        delta=3,
        strong="fail",
        members=((1, 1, 2, 1, 0, 1, 0), (1, 1, 1, 1, 1, 0, 1)),
        swap=Swap(
            u=(1, 1, 2, 1, 0, 1, 0),
            v=(1, 1, 1, 1, 1, 0, 1),
            xi=3,
            rho=7,
            divisor=(1, 0, 0, 0, 0, 1, 1),
        ),
        veronese=False,
    ),
    Fixture(
        name="c5path",
        graph="template:c5path",
        caps=(1, 1, 1, 2, 1, 2, 1, 1),
        delta=4,
        strong="fail",
        members=((1, 0, 1, 2, 1, 1, 1, 1), (1, 1, 1, 1, 1, 2, 1, 0)),
        swap=Swap(
            u=(1, 0, 1, 2, 1, 1, 1, 1),
            v=(1, 1, 1, 1, 1, 2, 1, 0),
            xi=4,
            rho=6,
            divisor=(0, 0, 0, 0, 0, 2, 1, 1),
        ),
        veronese=False,
    ),
    Fixture(
        name="c5star",
        graph="template:c5star",
        caps=(1, 1, 1, 1, 1, 1, 1, 1),
        delta=3,
        strong="fail",
        members=((1, 1, 1, 1, 0, 1, 1, 0), (1, 1, 0, 1, 1, 1, 0, 1)),
        swap=Swap(
            u=(1, 1, 1, 1, 0, 1, 1, 0),
            v=(1, 1, 0, 1, 1, 1, 0, 1),
            xi=3,
            rho=8,
            divisor=(0, 0, 0, 0, 0, 1, 1, 1),
        ),
        veronese=False,
    ),
    Fixture(
        name="c4twopend",
        graph="template:c4twopend",
        caps=(1, 1, 1, 1, 1, 1),
        delta=2,
        strong="fail",
        members=((1, 1, 1, 0, 1, 0), (1, 0, 1, 1, 0, 1)),
        swap=Swap(
            u=(1, 1, 1, 0, 1, 0),
            v=(1, 0, 1, 1, 0, 1),
            xi=2,
            rho=6,
            divisor=(1, 0, 0, 0, 1, 1),
        ),
        veronese=False,
    ),
    Fixture(
        name="c4pendpath",
        graph="template:c4pendpath",
        caps=(1, 1, 2, 1, 1, 1, 1),
        delta=3,
        strong="fail",
        members=((0, 1, 1, 1, 1, 1, 1), (1, 1, 2, 1, 1, 0, 0)),
        swap=Swap(
            u=(0, 1, 1, 1, 1, 1, 1),
            v=(1, 1, 2, 1, 1, 0, 0),
            xi=6,
            rho=3,
            divisor=(0, 0, 2, 1, 0, 0, 1),
        ),
        veronese=False,
    ),
    Fixture(
        name="c4twopath",
        graph="template:c4twopath",
        caps=(3, 1, 3, 1, 3, 3, 3, 3),
        delta=8,
        strong="fail",
        members=((2, 1, 3, 1, 3, 3, 3, 0), (3, 1, 2, 1, 3, 0, 3, 3)),
        swap=Swap(
            u=(2, 1, 3, 1, 3, 3, 3, 0),
            v=(3, 1, 2, 1, 3, 0, 3, 3),
            xi=3,
            rho=1,
            divisor=(3, 0, 0, 0, 3, 3, 0, 0),
        ),
        veronese=False,
    ),
    Fixture(
        name="c4star",
        graph="template:c4star",
        caps=(1, 2, 1, 1, 1, 1, 1),
        delta=3,
        strong="fail",
        members=((1, 2, 1, 0, 1, 1, 0), (1, 1, 1, 1, 1, 0, 1)),
        swap=Swap(
            u=(1, 2, 1, 0, 1, 1, 0),
            v=(1, 1, 1, 1, 1, 0, 1),
            xi=2,
            rho=7,
            divisor=(0, 0, 0, 0, 1, 1, 1),
        ),
        veronese=False,
    ),
    Fixture(
        name="c4tpathlong",
        graph="template:c4tpathlong",
        caps=(1, 1, 1, 1, 2, 1, 1),
        delta=3,
        strong="fail",
        members=((1, 0, 1, 1, 1, 1, 1), (1, 1, 1, 0, 2, 1, 0)),
        swap=Swap(
            u=(1, 0, 1, 1, 1, 1, 1),
            v=(1, 1, 1, 0, 2, 1, 0),
            xi=4,
            rho=5,
            divisor=(0, 0, 0, 0, 2, 1, 1),
        ),
        veronese=False,
    ),
    Fixture(
        name="c3threepend",
        graph="template:c3threepend",
        caps=(1, 1, 1, 1, 1, 1),
        delta=2,
        strong="fail",
        members=((1, 1, 0, 1, 0, 1), (1, 1, 1, 0, 1, 0)),
        swap=Swap(
            u=(1, 1, 0, 1, 0, 1),
            v=(1, 1, 1, 0, 1, 0),
            xi=6,
            rho=5,
            divisor=(1, 0, 0, 1, 1, 0),
        ),
        veronese=False,
    ),
    Fixture(
        name="c3pathpend",
        graph="template:c3pathpend",
        caps=(1, 1, 1, 2, 1, 1, 1),
        delta=3,
        strong="fail",
        members=((1, 1, 0, 1, 1, 1, 1), (1, 1, 1, 2, 1, 0, 0)),
        swap=Swap(
            u=(1, 1, 0, 1, 1, 1, 1),
            v=(1, 1, 1, 2, 1, 0, 0),
            xi=7,
            rho=4,
            divisor=(0, 0, 0, 2, 1, 1, 0),
        ),
        veronese=False,
    ),
    Fixture(
        name="c3pathstar",
        graph="template:c3pathstar",
        caps=(2, 1, 1, 1, 1, 1, 1),
        delta=3,
        strong="fail",
        members=((2, 1, 0, 1, 1, 1, 0), (1, 1, 1, 1, 1, 0, 1)),
        swap=Swap(
            u=(2, 1, 0, 1, 1, 1, 0),
            v=(1, 1, 1, 1, 1, 0, 1),
            xi=1,
            rho=7,
            divisor=(0, 0, 0, 0, 1, 1, 1),
        ),
        veronese=False,
    ),
    Fixture(
        name="c3path4",
        graph="template:c3path4",
        caps=(1, 1, 1, 1, 2, 1, 1),
        delta=3,
        strong="fail",
        members=((1, 1, 0, 1, 1, 1, 1), (1, 0, 1, 1, 2, 1, 0)),
        swap=Swap(
            u=(1, 1, 0, 1, 1, 1, 1),
            v=(1, 0, 1, 1, 2, 1, 0),
            xi=2,
            rho=5,
            divisor=(0, 0, 0, 0, 2, 1, 1),
        ),
        veronese=False,
    ),
    Fixture(
        name="c3path3pend",
        graph="template:c3path3pend",
        caps=(1, 1, 2, 1, 1, 1, 1),
        delta=3,
        strong="fail",
        members=((1, 1, 1, 0, 1, 1, 1), (1, 1, 2, 1, 1, 0, 0)),
        swap=Swap(
            u=(1, 1, 1, 0, 1, 1, 1),
            v=(1, 1, 2, 1, 1, 0, 0),
            xi=6,
            rho=3,
            divisor=(1, 0, 2, 0, 0, 0, 1),
        ),
        veronese=False,
    ),
    # The fully worked toric instance: exact generators, exact quadrics,
    # fibers connected through degree 3.
    Fixture(
        name="final-example",
        graph="template:c3pathpend",
        caps=(1, 1, 1, 2, 1, 1, 1),
        delta=3,
        strong="fail",
        size=6,
        exact_members=(
            (1, 1, 1, 2, 1, 0, 0),
            (1, 1, 1, 1, 1, 1, 0),
            (1, 1, 1, 1, 1, 0, 1),
            (1, 1, 1, 0, 1, 1, 1),
            (1, 1, 0, 2, 1, 0, 1),
            (1, 1, 0, 1, 1, 1, 1),
        ),
        non_members=((1, 1, 0, 2, 1, 1, 0), (2, 1, 1, 1, 1, 0, 0), (0, 0, 0, 0, 0, 0, 0)),
        binomials=((1, 4, 2, 3), (1, 6, 2, 5), (3, 6, 4, 5)),
        fiber_m=3,
        veronese=False,
    ),
    # Instances that keep the strong exchange property.
    Fixture(
        name="cyc5",
        graph="cycle:5",
        caps=(1, 1, 1, 1, 1),
        delta=2,
        strong="pass",
        size=5,
        veronese=True,
        fiber_m=3,
    ),
    Fixture(
        name="c4pendall",
        graph="template:c4pendall",
        caps=(2, 1, 2, 1, 1, 1, 2, 1),
        delta=5,
        strong="pass",
        size=3,
        veronese=True,
        fiber_m=3,
    ),
    Fixture(
        name="c4pathpendad",
        graph="template:c4pathpendad",
        caps=(1, 2, 2, 2, 2, 1, 2),
        delta=4,
        strong="pass",
        size=13,
        veronese=True,
        fiber_m=3,
    ),
    Fixture(
        name="c3path2each",
        graph="template:c3path2each",
        caps=(1, 1, 1, 1, 1, 1, 1, 1, 1),
        delta=4,
        strong="pass",
        size=6,
        veronese=True,
        fiber_m=3,
    ),
    Fixture(
        name="c3path3",
        graph="template:c3path3",
        caps=(2, 1, 1, 2, 2, 1),
        delta=4,
        strong="pass",
        size=6,
        veronese=True,
        fiber_m=3,
    ),
    Fixture(
        name="starveronese",
        graph="star:3",
        caps=(1, 2, 1, 3),
        delta=3,
        strong="pass",
        size=3,
        exact_members=((1, 2, 0, 3), (1, 1, 1, 3), (0, 2, 1, 3)),
        veronese=True,
        fiber_m=3,
    ),
    Fixture(
        name="starwhisker32",
        graph="star_whisker:3,2",
        caps=(2, 2, 2, 1, 1, 2),
        delta=4,
        strong="pass",
        size=4,
        veronese=True,
        fiber_m=3,
    ),
)

_BY_NAME = {f.name: f for f in REGISTRY}


def names() -> tuple:
    return tuple(f.name for f in REGISTRY)


def get(name: str) -> Fixture:
    if name not in _BY_NAME:
        raise KeyError(f"unknown fixture {name!r}; known: {list(names())}")
    return _BY_NAME[name]


def graph_of(fixture: Fixture) -> Graph:
    return from_spec(fixture.graph)


def failing_instances() -> tuple:
    """(graph, caps) pairs of every fixture with a strong-exchange failure."""
    return tuple(
        (graph_of(f), f.caps) for f in REGISTRY if f.strong == "fail"
    )


@dataclass
class FixtureResult:
    fixture: Fixture
    checks: list = field(default_factory=list)

    def add(self, label: str, ok: bool, info: str = ""):
        self.checks.append((label, bool(ok), info))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def run_fixture(fixture: Fixture, node_budget: int = DEFAULT_NODE_BUDGET) -> FixtureResult:
    """Evaluate every expectation of one fixture; nothing is cached."""
    res = FixtureResult(fixture)
    g = graph_of(fixture)
    engine = PowerEngine(g, node_budget)
    gens = engine.generators(fixture.caps)
    res.add("delta", gens.delta == fixture.delta, f"got {gens.delta}, want {fixture.delta}")
    for vec in fixture.members:
        res.add("member", member(gens, vec), str(vec))
    for vec in fixture.non_members:
        res.add("non-member", not member(gens, vec), str(vec))
    if fixture.size is not None:
        res.add("size", len(gens) == fixture.size, f"got {len(gens)}, want {fixture.size}")
    if fixture.exact_members is not None:
        res.add(
            "exact-members",
            gens.members == frozenset(fixture.exact_members),
            f"{len(gens)} members",
        )
    sw = fixture.swap
    if sw is not None:
        res.add("swap-u", member(gens, sw.u), str(sw.u))
        res.add("swap-v", member(gens, sw.v), str(sw.v))
        res.add("swap-up", sw.u[sw.xi - 1] > sw.v[sw.xi - 1], f"xi={sw.xi}")
        res.add("swap-down", sw.u[sw.rho - 1] < sw.v[sw.rho - 1], f"rho={sw.rho}")
        moved = list(sw.u)
        moved[sw.xi - 1] -= 1
        moved[sw.rho - 1] += 1
        moved = tuple(moved)
        res.add("swap-missing", not member(gens, moved), str(moved))
        res.add(
            "swap-divisor",
            all(m >= d for m, d in zip(moved, sw.divisor)),
            str(sw.divisor),
        )
    strong = check_strong_exchange(gens)
    want_pass = fixture.strong == "pass"
    res.add("strong", strong.ok == want_pass, strong.to_json()["verdict"])
    if fixture.veronese is not None:
        decomp = detect_veronese(gens)
        res.add("veronese", (decomp is not None) == fixture.veronese, str(decomp))
        if decomp is not None and fixture.veronese:
            res.add("veronese-expand", decomp.expand() == gens.members)
    if fixture.binomials is not None:
        got = {
            (b.i, b.j, b.i0, b.j0) for b in toric.sym_exchange_binomials(gens)
        }
        res.add(
            "binomials",
            got == set(fixture.binomials),
            f"got {sorted(got)}",
        )
    if fixture.fiber_m >= 2:
        report = toric.check_fiber_connectivity(gens, fixture.fiber_m)
        res.add("fibers", report.ok, f"through degree {fixture.fiber_m}")
    return res
