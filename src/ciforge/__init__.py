"""Mining and verifying EL⊥ concept-inclusion bases from finite interpretations."""

from .concepts import (
    And,
    Atom,
    BOTTOM,
    Bottom,
    Concept,
    ConceptInclusion,
    Exists,
    Interpretation,
    Signature,
    TOP,
    Top,
    active_signature,
    canonicalize,
    exists_chain,
    make_interpretation,
    parse_concept,
    render_concept,
    role_depth,
)
from .errors import CiforgeError, ConceptSyntaxError, ResourceCapError, ValidationError
from .fixtures import FIXTURE_NAMES, builtin_fixture
from .graphs import (
    DescriptionGraph,
    DescriptionTree,
    concept_of_tree,
    graph_of_interpretation,
    product_reachable,
    tree_of_concept,
    unravel,
)
from .miner import (
    AttributeSet,
    MiningReport,
    attribute_set,
    build_base,
    check_base_complete,
    check_base_sound,
    enumerate_intents,
    intent_closure,
)
from .mmsc import (
    DepthReport,
    adaptable_depth,
    bounded_walks,
    lower_approximation,
    mmsc_adaptive,
    mmsc_at_depth,
)
from .mvf import mmvf
from .reasoner import Reasoner, entails
from .simulation import semantic_extension, subsumed_empty
from .storage import load_interpretation, load_tbox, save_interpretation, save_tbox

__all__ = [name for name in dir() if not name.startswith("_")]
