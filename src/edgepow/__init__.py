"""Bounded top powers of edge ideals and their exchange properties."""

from .graph import (
    Graph,
    GraphError,
    cycle,
    path,
    star,
    star_whisker,
    forked_path,
    complete_multipartite,
    template,
    template_names,
    from_spec,
    graph_from_edges,
    load_graph,
    parse_graph_json,
    structure_probe,
    induced_subgraph,
)
from .powers import (
    BudgetError,
    GeneratorSet,
    PowerEngine,
    delta,
    enumerate_generators,
    format_monomial,
    member,
    normalize_caps,
    parse_caps,
)
from .exchange import (
    ExchangeReport,
    ExchangeWitness,
    VeroneseDecomposition,
    check_exchange,
    check_strong_exchange,
    check_symmetric_exchange,
    detect_veronese,
    search_sep_counterexample,
)
# classify and toric, and corpus through them, load on first use (PEP 562),
# so that a process compiles only the modules it calls: each name maps to the
# submodule that holds it, and a submodule's name to itself
_LAZY = {
    "classify": "classify",
    "corpus": "corpus",
    "toric": "toric",
    **dict.fromkeys(
        (
            "ClassificationVerdict",
            "CrossValidation",
            "classify_complete_multipartite_minus_matching",
            "classify_cycle",
            "classify_graph",
            "classify_path",
            "classify_tree",
            "classify_unicyclic",
            "cross_validate",
        ),
        "classify",
    ),
    **dict.fromkeys(
        (
            "ConnectivityReport",
            "Fiber",
            "ScanReport",
            "SymExchangeBinomial",
            "check_fiber_connectivity",
            "conjecture_scan",
            "fibers",
            "sym_exchange_binomials",
        ),
        "toric",
    ),
}
__all__ = [name for name in globals() if not name.startswith("_")] + list(_LAZY)


def __getattr__(name):
    """Load a lazy name's module, and keep the name in the package."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _LAZY[name]
    # the builtin import, unlike importlib's, shows in -X importtime; it binds
    # the submodule in this package
    __import__(f"{__name__}.{module}")
    value = globals()[module]
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())


__version__ = "0.1.0"
