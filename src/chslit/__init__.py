"""chslit: consistent-histories analysis of multi-slit experiments.

Build a scenario from slit amplitudes, realize it as a small Hilbert-space
model, evaluate the decoherence functional over coarse-grainings of the
paths, enumerate the consistent frameworks, and query path probabilities
subject to the single-framework rule.  Verdicts come from a closed form;
the dense model in ``chslit.reference`` is the oracle it is tested against.
"""

from .core import (
    Partition,
    Path,
    Slit,
    SlitPart,
    SlitScenario,
    counting_rate,
    format_partition,
    format_scenario_partition,
    group_amplitude,
    parse_partition,
    parse_scenario_partition,
    partition_on_paths,
)
from .engine import (
    BRANCHES,
    DETECTED,
    UNDETECTED,
    DEFAULT_TOLERANCE,
    ConsistencyReport,
    ExperimentModel,
    Framework,
    build_experiment,
    check_consistency,
    group_decoherence_closed_form,
)
from .errors import (
    AlreadyRefined,
    BadIndex,
    ChslitError,
    ConditionUnsatisfied,
    DegenerateDetector,
    InconsistentSet,
    MeaninglessCombination,
    NoOpenPaths,
    NotInFramework,
    ParseError,
    PartSumMismatch,
    SchemaError,
    TooLarge,
    UnknownScenario,
    UnknownSlit,
)
from .frameworks import (
    DEFAULT_MAX_PATHS,
    ContradictionRecord,
    build_framework,
    combine_queries,
    conditional_probability,
    enumerate_consistent_frameworks,
    enumerate_partitions,
    find_contradictions,
    query_event,
)
from .scenarios import (
    BUILTIN_SCENARIOS,
    builtin_scenario,
    load_scenario,
    refine_slit,
    save_scenario,
)

__version__ = "0.1.0"
