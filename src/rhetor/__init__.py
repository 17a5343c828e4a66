"""Rhetorical-mode toolkit: registry, duality operators, capacity and
entropy metrics, three-layer mapping, and annotated-document analysis.

Public names load their submodule on first access (PEP 562), so a caller
pays only for the modules it uses.
"""

import importlib

# Eager, because importing the submodule rhetor.capacity sets the package
# attribute ``capacity`` to the module; binding the function afterwards keeps
# ``rhetor.capacity`` the function.
from .capacity import capacity

__version__ = "0.1.0"

_SUBMODULE = {name: module for module, names in {
    "capacity": """MAX_WIDTH MRB CapacityReport CoverageReport GrowthParams
        capacity capacity_ratio capacity_table coverage coverage_band growth""",
    "documents": """AnnotatedDocument IntervalRate LayerTrace RriEstimate Segment
        StageMapping StageTrace analyze_coverage estimate_rri load_stage_map
        parse_document serialize_document trace_layers""",
    "entropy": """MAX_ENTROPY_WIDTH EntropyReport LayeredEntropyReport
        asymptotic_subset_entropy entropy_flat entropy_layered entropy_subset_sizes
        subset_entropy_exact subset_entropy_logspace uniform""",
    "errors": """BadCapacity BadComposition BadConstituent BadCount BadDistribution
        BadEdge BadIndex BadRuleSet BadSchedule DuplicateMode EmptySegment NoDual
        NotAtomic NotDiatomic NotEnoughStages OutOfRange ParseError RhetorError
        SelfUnite UnknownMode UnknownNode UnknownProfile UnmappedStage""",
    "operators": """OPERATOR_KINDS Derivation DualityRuleSet closure default_rules
        expand forward_backward load_rules orthogonal reduce serialize_rules split
        unite""",
    "pyramid": """ACADEMIC_PROFILE DEFAULT_PROFILE AcademicFunction BranchingStats
        LayerNode PyramidGraph academic_function_examples branching_stats
        compose_academic compose_re load_pyramid serialize_pyramid""",
    "registry": """Mode Origin Registry base_atoms canon
        default_registry load_registry serialize_registry""",
    "schedule": """ConeRow StageSchedule StageStep cone default_schedule
        load_schedule serialize_schedule""",
}.items() for name in names.split()}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        from .errors import shown
        raise AttributeError(f"module {shown(__name__)} has no attribute {shown(name)}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SUBMODULE))
