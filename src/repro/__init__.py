"""repro -- Conjunctive Queries over Trees, reproduced as an executable library.

This package reproduces Gottlob, Koch & Schulz, "Conjunctive Queries over
Trees" (PODS 2004 / JACM 2006) as a working system:

* :mod:`repro.trees`        -- unranked ordered labelled trees, axes, orders,
  generators, XML import/export;
* :mod:`repro.queries`      -- conjunctive queries, query graphs, APQs,
  parsing, the XPath fragment;
* :mod:`repro.evaluation`   -- arc consistency (the ``fixpoint`` engine,
  whose one fixpoint decides X-property and acyclic queries), the
  backtracking search of the NP side, and the dichotomy table that routes
  every other head to :mod:`repro.decomposition`'s join trees;
* :mod:`repro.xproperty`    -- the X-property framework and the tractability
  classifier behind Table I;
* :mod:`repro.hardness`     -- 1-in-3 3SAT, the Theorem 5.1 reduction and
  hard-instance generators;
* :mod:`repro.rewriting`    -- join lifters and the CQ -> APQ rewriting of
  Section 6;
* :mod:`repro.succinctness` -- diamond queries and scattered path structures
  (Section 7);
* :mod:`repro.workloads`    -- XML, linguistics and dominance-constraint
  workloads;
* :mod:`repro.experiments`  -- programs regenerating every table and figure.

Quickstart::

    from repro import parse_query, from_nested, evaluate_on_tree

    tree = from_nested(("S", [("NP", []), ("VP", [("V", []), ("NP", [])])]))
    query = parse_query("Q(z) <- S(x), Child(x, y), NP(y), Following(y, z), NP(z)")
    print(evaluate_on_tree(query, tree))
"""

from .evaluation import (
    Engine,
    check_answer,
    evaluate,
    evaluate_on_tree,
    evaluate_union,
    is_satisfied,
)
from .queries import (
    ConjunctiveQuery,
    QueryBuilder,
    UnionQuery,
    cq_to_xpath,
    parse_query,
    xpath_to_cq,
)
from .rewriting import to_apq
from .trees import (
    Axis,
    Node,
    Order,
    Signature,
    Tree,
    TreeStructure,
    from_nested,
    from_xml,
    parse_sexpr,
    random_tree,
)
from .xproperty import Complexity, classify, has_x_property, is_tractable, order_for

__version__ = "1.0.0"

__all__ = [
    "Axis",
    "Complexity",
    "ConjunctiveQuery",
    "Engine",
    "Node",
    "Order",
    "QueryBuilder",
    "Signature",
    "Tree",
    "TreeStructure",
    "UnionQuery",
    "check_answer",
    "classify",
    "cq_to_xpath",
    "evaluate",
    "evaluate_on_tree",
    "evaluate_union",
    "from_nested",
    "from_xml",
    "has_x_property",
    "is_satisfied",
    "is_tractable",
    "order_for",
    "parse_query",
    "parse_sexpr",
    "random_tree",
    "to_apq",
    "xpath_to_cq",
    "__version__",
]
