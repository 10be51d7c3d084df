"""Preference models over weighted knowledge bases, fuzzy interpretations,
and multilayer perceptrons.

The package builds concept-wise preferential models from weighted
defeasible knowledge bases (crisp and fuzzy readings), model-checks
typicality and graded axioms against them, reads trained networks as
fuzzy interpretations whose induced preferences it can verify for
coherence, and assigns probabilities to fuzzy events.
"""

from types import ModuleType as _ModuleType

from .concepts import (
    And,
    Assertion,
    Bottom,
    BOTTOM,
    Concept,
    ConditionalConstraint,
    DefeasibleInclusion,
    Exists,
    Forall,
    FuzzyAssertion,
    FuzzyInclusion,
    Name,
    Nominal,
    Not,
    Or,
    ProbAssertion,
    RoleAssertion,
    Signature,
    StrictInclusion,
    Top,
    TOP,
    Typ,
    axiom_to_text,
    concept_names_in,
    concept_to_text,
    is_el_concept,
    is_rolefree_concept,
    parse_concept,
    parse_query_axiom,
)
from .errors import (
    ActivationPreconditionError,
    EnumerationLimitError,
    EvaluationError,
    FragmentError,
    InputError,
    NonConvergenceError,
    ParseError,
    PrefnetError,
    UndefinedConditionalError,
    UndefinedSubsethoodError,
    UnknownNameError,
    UnsupportedAxiomError,
)
from .fuzzy import (
    EPS_CMP,
    FAMILIES,
    GOEDEL,
    LUKASIEWICZ,
    PRODUCT,
    ZADEH,
    FuzzyInterpretation,
    LogicFamily,
    check_axiom,
    compare,
    degrees,
    eval_concept,
    eval_inclusion,
    interpretation_from_json,
    interpretation_to_json,
    load_interpretation,
)
from .kb import (
    WeightedKB,
    load_kb,
    parse_kb,
    serialize_kb,
    validate_kb,
)
from .mlp import (
    ACTIVATIONS,
    Network,
    StimulusSet,
    Unit,
    build_cwm_interp,
    build_fuzzy_interp,
    extract_kb,
    forward,
    get_activation,
    load_network,
    load_stimuli,
    network_from_json,
    stimuli_from_json,
    verify_strict_coherence,
    verify_weak_coherence,
)
from .preferences import (
    ENUMERATION_LIMIT,
    NEG_INF,
    build_preferences,
    check_typicality_axiom,
    coherence_report,
    consistent_valuations,
    counter_model,
    crisp_weight,
    entails_rolefree,
    fuzzy_weight,
    is_crisp_model,
    is_fuzzy_model,
    typicality_global,
    typicality_induced,
)
from .probability import (
    Distribution,
    FuzzyProbInterp,
    check_conditional,
    conditional_prob,
    fuzzy_cardinality,
    fuzzy_event_prob,
    load_distribution,
    nominal_conditional,
    subsethood,
)

__version__ = "0.1.0"

# The names imported above, without the submodules the imports bind.
__all__ = sorted(
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
