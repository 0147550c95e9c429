"""Lockdown visit scheduling: simulation and evolutionary optimisation.

The package models a short lockdown week in which residents request visits
to shops, parks and surgeries.  Two infection models score how a given
time-slot allocation spreads disease, round-robin baselines and an
evolutionary search produce allocations, and the experiment layer writes
reproducible reports.
"""

from .allocation import (
    AllocationPlan,
    decode,
    round_robin,
    write_plan_csv,
)
from .dataset import (
    AGE_GROUPS,
    Dataset,
    DatasetFormatError,
    Person,
    VisitRequest,
    generate_dataset,
    load_dataset,
    mark_apriori_infection,
    parse_dataset,
    parse_priors,
    save_dataset,
    serialize_dataset,
)
from .experiment import ExperimentSpec, compare, run_experiment, run_from_manifest
from .full_infection import (
    PnTable,
    Status,
    analytic_pn,
    build_pn_table,
    transmit,
)
from .gp_engine import (
    Archive,
    GpConfig,
    SolutionRecord,
    evolve_pir,
    run_pirs,
)
from .gp_tree import eval_tree
from .partial_infection import EncounterGroup, encounter_pressure, g_factor
from .simulator import (
    MODEL_FULL,
    MODEL_PARTIAL,
    SimOutcome,
    fitness_value,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "AGE_GROUPS",
    "AllocationPlan",
    "Archive",
    "Dataset",
    "DatasetFormatError",
    "EncounterGroup",
    "ExperimentSpec",
    "GpConfig",
    "MODEL_FULL",
    "MODEL_PARTIAL",
    "Person",
    "PnTable",
    "SimOutcome",
    "SolutionRecord",
    "Status",
    "VisitRequest",
    "analytic_pn",
    "build_pn_table",
    "compare",
    "decode",
    "encounter_pressure",
    "eval_tree",
    "evolve_pir",
    "fitness_value",
    "g_factor",
    "generate_dataset",
    "load_dataset",
    "mark_apriori_infection",
    "parse_dataset",
    "parse_priors",
    "round_robin",
    "run_experiment",
    "run_from_manifest",
    "run_pirs",
    "save_dataset",
    "serialize_dataset",
    "simulate",
    "transmit",
    "write_plan_csv",
]
