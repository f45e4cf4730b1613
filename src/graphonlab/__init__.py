"""graphonlab: numerical lab for graphon sampling, products, and norms."""

from .algebra import (
    ProductGraphon,
    QuadratureResult,
    QuadratureSpec,
    discretize,
    integrate2d,
    power,
    product,
    validate_graphon,
)
from .core import (
    GraphonSpec,
    LatentPoints,
    SimpleGraph,
    StepGraphon,
    builtin,
    builtin_names,
    canonical_graphon,
    constant,
    evaluate,
)
from .errors import (
    DomainError,
    EnumerationBudgetError,
    GraphonLabError,
    QuadratureError,
    ValidationError,
)
from .experiments import (
    ConvergenceReport,
    SweepRow,
    emit_report,
    load_report,
    run_counterexample_sweep,
    run_theorem_sweep,
)
from .expr import from_expression, parse, unparse
from .norms import (
    CutNormInterval,
    CutNormResult,
    cut_distance_upper_via_discretization,
    cut_norm_auto,
    cut_norm_exact,
    cut_norm_lower_bound,
    l1_distance,
)
from .sampling import (
    McEstimate,
    SamplerConfig,
    draw_seed,
    expected_graphon,
    mc_expected_graphon,
    sample_graph,
    sample_latents,
    sample_latents_iid,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
