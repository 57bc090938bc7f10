"""Desk-scale workbench for second-order logic over finite structures:
prenex machinery, ultraproducts with Henkin semantics over decomposable
relations, formula-space metrics, and type-omission checkers."""

from .errors import (
    ArityBoundError,
    BudgetExceededError,
    ParseError,
    SoLabError,
    ValidationError,
)
from .formulas import (
    And,
    Atom,
    Eq,
    ExistsFO,
    ExistsSO,
    ForallFO,
    ForallSO,
    Formula,
    HierarchyLabel,
    Iff,
    Implies,
    Not,
    Or,
    classify,
    parse,
    prenex_so,
    print_formula,
    universal_closure,
)
from .structures import (
    Assignment,
    FiniteStructure,
    Signature,
    all_relations,
    canonical_key,
    eval_fo,
    eval_so_full,
    find_isomorphism,
    models_up_to,
)
from .ultra import (
    DecomposableHenkinModel,
    Decomposition,
    LosReport,
    Ultrachain,
    Ultrafilter,
    UltraproductResult,
    build_ultrachain,
    check_fubini,
    check_los,
    full_henkin_model,
    henkin_eval,
    henkin_model,
    is_decomposable,
    product_member_definitional,
    product_ultrafilter,
    recompose,
    ultraproduct,
)
from .formula_space import (
    Fragment,
    TheoryVector,
    VectorSet,
    boolean_closure,
    find_separating_formula,
    set_distance,
    theory_vector,
    ultrametric,
    vector_set,
)
from .types_omitting import (
    TwoType,
    TypeContext,
    check_omission_axiomatization,
    omits,
    omitted_by_all,
    property_A_check,
    realized_types,
)
from .workbench import (
    NamedFormula,
    builtin,
    colorable_oracle,
    cycle_graph,
    demo,
    double_cycle,
    graph_structure,
    hamiltonian_oracle,
    principal_insep_search,
)

__version__ = "0.1.0"
