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
    validate_promise,
)
from joinlab.ledger import CommLedger, InertLedger, MessageRecord
from joinlab.qsim import (
    BipartiteGraph,
    CostModel,
    GroverPlan,
    disj,
    disj_all,
    graph_collision,
    graph_collision_all,
    grover_search,
    instance_search,
)
from joinlab.joins import (
    BmmTrace,
    SensingSketch,
    bmm,
    bmm_cost_model,
    freivalds_columns,
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
    "InertLedger",
    "InstanceError",
    "JoinInstance",
    "MessageRecord",
    "SensingSketch",
    "bmm",
    "bmm_cost_model",
    "bool_product",
    "disj",
    "disj_all",
    "embed_disj_family",
    "embed_inner_product",
    "embed_ip_f2",
    "embed_or_blocks",
    "f2_product",
    "freivalds_columns",
    "gen_hard_instance",
    "gen_promise_instance",
    "graph_collision",
    "graph_collision_all",
    "grover_search",
    "instance_search",
    "mm_f2",
    "validate_promise",
]

__version__ = "0.1.0"
