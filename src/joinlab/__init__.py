"""Desk-scale laboratory for distributed set-join protocols.

Packed F2/Boolean linear algebra, exact simulation of distributed
Grover-style search, the output-sensitive Boolean and F2 matrix product
protocols, embedding constructions, and a communication-cost ledger.
"""

from joinlab.f2core import (
    BitMatrix,
    BitVector,
    DimensionError,
    InstanceError,
    JoinInstance,
    bool_product,
    f2_product,
    gen_promise_instance,
)
from joinlab.ledger import CommLedger
from joinlab.qsim import (
    BipartiteGraph,
    CostModel,
    GroverPlan,
    disj,
    graph_collision,
    graph_collision_all,
    grover_search,
    instance_search,
)
from joinlab.joins import (
    BmmTrace,
    SensingSketch,
    bmm_cost_model,
    bmm_with_trace,
    gen_hard_instance,
    mm_f2,
)
from joinlab.reductions import (
    Embedding,
    embed_disj_family,
    embed_inner_product,
    embed_ip_f2,
    embed_or_blocks,
)

__all__ = [
    "BitMatrix",
    "BitVector",
    "BipartiteGraph",
    "BmmTrace",
    "CommLedger",
    "CostModel",
    "DimensionError",
    "Embedding",
    "GroverPlan",
    "InstanceError",
    "JoinInstance",
    "SensingSketch",
    "bmm_cost_model",
    "bmm_with_trace",
    "bool_product",
    "disj",
    "embed_disj_family",
    "embed_inner_product",
    "embed_ip_f2",
    "embed_or_blocks",
    "f2_product",
    "gen_hard_instance",
    "gen_promise_instance",
    "graph_collision",
    "graph_collision_all",
    "grover_search",
    "instance_search",
    "mm_f2",
]

__version__ = "0.1.0"
