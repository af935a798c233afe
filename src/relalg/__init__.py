"""Workbench for multisorted algebras of finitary relations.

Sorts are arities: sort n carries the n-ary relations over a finite universe.
The package evaluates formulas as operations on relations, checks the axiom
schemas (0)-(13) on finite algebras, computes prime-filter duality for each
sort, and constructively builds verified embeddings into concrete algebras.
"""

from .errors import (
    ArityError,
    ElementCapExceededError,
    FormatError,
    FragmentError,
    IllDefinedMapError,
    InsufficientSortsError,
    ObstructionError,
    PreconditionError,
    RelAlgError,
    UniverseMismatchError,
)
from .fragments import FO, PE, PQF, QF, Fragment, parse_fragment
from .relations import (
    Relation,
    Substitution,
    Universe,
    all_substitutions,
    assoc_cylindrification,
    delta,
    exists_last,
    partitioning,
    rel_apply,
    relation_literal,
)
from .formulas import (
    FOFormula,
    Signature,
    Structure,
    compile_fo,
    eval_fo_naive,
    eval_term,
    parse_fo,
    parse_term,
    print_term,
    random_formula,
    random_structure,
)
from .algebras import (
    FiniteAlgebra,
    TableAlgebra,
    as_table_algebra,
    concrete,
    generated_subalgebra,
    is_injective,
    kernel,
    operations,
    product,
    verify_morphism,
)
from .filters import (
    PrimeFilter,
    SortLattice,
    extend_to_prime,
    is_prime_filter,
    prime_filters,
    pullback,
    sort_lattice,
    sum_filters,
    witness_filter,
)
from .axioms import (
    Bounds,
    CheckReport,
    SchemaInstance,
    applicable_axioms,
    check_axiom,
    check_fragment,
    gallery_diamond,
    gallery_pe_theory,
    replay_instance,
)
from .representation import (
    EmbeddingCertificate,
    FilterModel,
    embed,
    filter_to_morphism,
    find_obligations,
    master_filter_model,
    saturate,
    witness_stage,
)
