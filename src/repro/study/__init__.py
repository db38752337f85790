"""The study harness: the paper's section 4 methodology, end to end.

Four passes over nine targets (seven applications plus the PARSEC and
NAS suites):

1. **source code analysis** -- static symbol inventory (Figure 8);
2. **aggregate-mode tracing** -- event sets at ~zero overhead (Figs 9, 10);
3. **individual-mode tracing with filtering** -- every faulting
   instruction except Inexact (Figures 11, 12, 13);
4. **individual-mode tracing with 5% Poisson sampling** -- everything,
   including Inexact (Figures 14, 15, 16, 17, 18, 19).

Each figure has one producer.  The ``figures`` builtin campaign runs
every pass, and the analytics registry's ``paper`` group
(:mod:`repro.analytics.figures_paper`) renders Figures 7-9, 11, 14, 15
and 17-19 from it.  :mod:`repro.study.figures` holds the five figures
no campaign carries the inputs for (6, 10, 12, 13, 16); they read live
:func:`run_pass` results or dedicated runs.
"""

from repro.study.targets import (
    RunResult,
    StudyTarget,
    make_targets,
    TARGET_NAMES,
)
from repro.study.passes import (
    StudyPass,
    PassResult,
    run_pass,
    STUDY_SEED,
    FILTER_NO_INEXACT,
    POISSON_5PCT,
)

__all__ = [
    "RunResult",
    "StudyTarget",
    "make_targets",
    "TARGET_NAMES",
    "StudyPass",
    "PassResult",
    "run_pass",
    "STUDY_SEED",
    "FILTER_NO_INEXACT",
    "POISSON_5PCT",
]
