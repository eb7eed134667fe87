"""Experiment harness: one module per paper table/figure.

Every computed section declares its simulations once, as a grid of
:class:`~repro.experiments.runner.Job` values (the ``*_grid``
functions); its ``compute_*`` function runs that grid through an
:class:`~repro.experiments.executor.Executor`, which deduplicates
overlapping configurations, fans them out across worker processes, and
persists results in an on-disk :class:`ResultStore`; every ``format_*``
function renders the same rows/series the paper reports as ASCII.

Unlike the other subpackages, this one re-exports: ``repro.cli``'s
``SECTIONS`` binds the ``compute_*``/``format_*`` names from here at
import, and perfbench's traced run wraps them through ``__all__``
before it imports the CLI.
"""

from repro.experiments.executor import (
    Executor,
    ResultStore,
    STORE_SCHEMA_VERSION,
    default_store_dir,
)
from repro.experiments.runner import (
    Job,
    grid_jobs,
    run_grid,
    run_key,
)
from repro.experiments.ablations import (
    compute_placement_ablation,
    compute_relocation_ablation,
    compute_replacement_ablation,
    format_ablation,
    placement_ablation_grid,
    relocation_ablation_grid,
    replacement_ablation_grid,
)
from repro.experiments.extension_scaling import (
    compute_scaling,
    format_scaling,
    scaling_grid,
)
from repro.experiments.topology_scaling import (
    compute_directory_scaling,
    compute_topology_scaling,
    directory_scaling_grid,
    format_directory_scaling,
    format_topology_scaling,
    topology_scaling_grid,
)
from repro.experiments.figure5 import compute_figure5, figure5_grid, format_figure5
from repro.experiments.figure6 import compute_figure6, figure6_grid, format_figure6
from repro.experiments.figure7 import compute_figure7, figure7_grid, format_figure7
from repro.experiments.figure8 import compute_figure8, figure8_grid, format_figure8
from repro.experiments.figure9 import compute_figure9, figure9_grid, format_figure9
from repro.experiments.table4 import compute_table4, format_table4, table4_grid
from repro.experiments.tables import (
    format_table1,
    format_table2,
    format_table3,
)

__all__ = [
    "Executor",
    "Job",
    "ResultStore",
    "STORE_SCHEMA_VERSION",
    "compute_directory_scaling",
    "compute_figure5",
    "compute_placement_ablation",
    "compute_relocation_ablation",
    "compute_replacement_ablation",
    "compute_scaling",
    "compute_topology_scaling",
    "default_store_dir",
    "directory_scaling_grid",
    "format_ablation",
    "format_directory_scaling",
    "format_scaling",
    "format_topology_scaling",
    "compute_figure6",
    "compute_figure7",
    "compute_figure8",
    "compute_figure9",
    "compute_table4",
    "figure5_grid",
    "figure6_grid",
    "figure7_grid",
    "figure8_grid",
    "figure9_grid",
    "format_figure5",
    "format_figure6",
    "format_figure7",
    "format_figure8",
    "format_figure9",
    "format_table1",
    "format_table2",
    "format_table3",
    "format_table4",
    "grid_jobs",
    "placement_ablation_grid",
    "relocation_ablation_grid",
    "replacement_ablation_grid",
    "run_grid",
    "run_key",
    "scaling_grid",
    "table4_grid",
    "topology_scaling_grid",
]
