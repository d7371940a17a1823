"""surgfed: deterministic federated learning with class-heterogeneous
clients and selective per-class head aggregation.

Clients that annotate different (possibly overlapping) subsets of a
global class list train local models; the server averages the shared
feature extractor across everyone and merges the classification head
column by column over exactly the clients that hold each class.  The
package ships the numeric kernel, synthetic scenarios, five baselines,
evaluation and a CLI, all bit-reproducible from seeds.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .aggregation import (
    STRATEGIES,
    collect_bn_stats,
    mean_arrays,
    server_update,
    surgical_head_update,
)
from .data import (
    CLIENT_LADDER,
    SHARED_LADDER,
    ClientData,
    LabeledSet,
    ScenarioData,
    ScenarioSpec,
    effect_of_clients_scenarios,
    effect_of_shared_classes_scenarios,
    generate_synthetic,
    resolve_assignment,
    scatter_restricted,
    stats_split,
)
from .errors import ConfigError, ContractViolation, NumericError
from .metrics import (
    EvalResult,
    TTestResult,
    TestPlan,
    auroc,
    evaluate,
    paired_ttest,
    significance_stars,
)
from .model import (
    ClientState,
    head_warmup,
    init_model,
    load_checkpoint,
    local_train,
    save_checkpoint,
    validation_loss,
)
from .nn import (
    Architecture,
    ParamSet,
    backward,
    build_architecture,
    forward,
    masked_bce_loss,
    params_equal,
    sgd_step,
)
from .registry import (
    ClassRegistry,
    SharingProfile,
    clients_with_class,
    sharing_profile,
)
from .simulator import (
    METHODS,
    ExperimentConfig,
    RoundReport,
    RunResult,
    SeedBundle,
    SuiteResult,
    default_seeds,
    run_experiment,
    run_suite,
)
