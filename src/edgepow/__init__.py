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
from .classify import (
    ClassificationVerdict,
    CrossValidation,
    classify_complete_multipartite_minus_matching,
    classify_cycle,
    classify_graph,
    classify_path,
    classify_tree,
    classify_unicyclic,
    cross_validate,
)
from .toric import (
    ConnectivityReport,
    Fiber,
    ScanReport,
    SymExchangeBinomial,
    check_fiber_connectivity,
    conjecture_scan,
    fibers,
    sym_exchange_binomials,
)

__version__ = "0.1.0"
