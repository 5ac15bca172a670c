"""Well-founded relation combinators with executable evidence.

Build orders from a handful of primitives (``nat_less``, ``empty_relation``,
the subtree order on trees) and transformers (subrelation, inverse image,
transitive closure, disjoint sum, lexicographic families, descending-list
exponentiation, multisets), then define total functions against them with
``wfrec``.  ``ordinal`` adds Cantor-normal-form notations below epsilon-0
with a nested-multiset cross-check, and ``cli`` exposes the lot on the
command line.
"""

from .core import (
    DescentBudgetError,
    EQUAL,
    EqualWitness,
    EvidenceError,
    IncomparableError,
    NatLessEvidence,
    RecursionBudgetError,
    UndecidableError,
    WFRelation,
    WellFoundedError,
    check_recursion_equation,
    check_unique_solution,
    empty_relation,
    fuzz_descent,
    nat_less,
    nat_less_decide,
    nat_wfrec,
    validated_evidence,
    wfrec,
    with_enumerated_predecessors,
)
from .combinators import (
    ChainEvidence,
    Inl,
    Inr,
    LexEvidence,
    SumEvidence,
    disjoint_sum,
    finite_power_decide,
    inverse_image,
    lex_family,
    lex_first,
    lex_product,
    lex_second,
    refl_trans_reachable,
    single_step,
    subrelation,
    transitive_closure,
    validate_chain,
)
from .power import (
    DescendingList,
    DescentCert,
    LexListEvidence,
    descending,
    is_descending,
    list_lex_decide,
    pow_nat_rank,
    pow_relation,
)
from .wtree import (
    WTree,
    check_tree_embedding,
    decode_nat,
    encode_nat,
    leaf,
    predecessor_tree,
    render,
    root_label,
    subtree_decide,
    tree_fold,
    wtree_relation,
)
from .derived import (
    FiniteFunction,
    Multiset,
    NestedMultiset,
    SteppedTuple,
    dm_oracle,
    finfun_exp,
    finite_function,
    multiset_of,
    multiset_relation,
    nested_multiset_relation,
    nm_atom,
    nm_empty,
    nm_singleton,
    nm_union,
    stepped,
    stepped_lex,
    unification_ordering,
)
from .ordinal import (
    OMEGA,
    Ordering,
    OrdinalNotation,
    ParseError,
    ZERO_ORD,
    compare,
    format_ordinal,
    from_nested,
    parse_ordinal,
    to_nested,
)
from .demos import (
    App,
    Var,
    ackermann,
    expr_substructure,
    expr_vars,
    fib,
    quicksort,
)
