"""``repro.campaign``: the parallel campaign runner.

FPSpy's evaluation is a *campaign*: dozens of independent spy runs
(seven apps, the PARSEC/NAS suites, aggregate/individual modes,
sampling configurations) whose only shared state is the final report.
This package runs such campaigns on a stdlib process pool (one
spawn-context :class:`~concurrent.futures.ProcessPoolExecutor` per
campaign, one submitted task per run) with a deterministic spec-order
merge -- the merged report is byte-identical for any ``--workers`` and
``--execution`` value.  Like FPSpy's own runs, campaign runs keep no
state from one invocation to the next.  An amortization-aware planner
(:mod:`repro.campaign.planner`) degrades to in-process execution when
the host cannot win.

Entry points: ``python -m repro.study campaign run/status`` on the
command line, :func:`run_campaign` / :class:`CampaignRunner` from code,
and :func:`~repro.campaign.worker.execute_run` for single in-process
runs (tests, notebooks).
"""

from repro.campaign.artifacts import (
    write_bytes_atomic,
    write_json_atomic,
    write_text_atomic,
)
from repro.campaign.planner import ExecutionPlan, plan_execution
from repro.campaign.report import (
    CampaignResult,
    ResultAccumulator,
    merge_outcomes,
    render_report,
)
from repro.campaign.runner import CampaignRunner, run_campaign
from repro.campaign.spec import (
    BUILTIN_CAMPAIGNS,
    CampaignSpec,
    RunSpec,
    build_campaign,
    figbench_campaign,
    figures_campaign,
    smoke_campaign,
)
from repro.campaign.worker import RunOutcome, execute_run

__all__ = [
    "BUILTIN_CAMPAIGNS",
    "CampaignResult",
    "CampaignRunner",
    "CampaignSpec",
    "ExecutionPlan",
    "ResultAccumulator",
    "RunOutcome",
    "RunSpec",
    "build_campaign",
    "execute_run",
    "figbench_campaign",
    "figures_campaign",
    "merge_outcomes",
    "plan_execution",
    "render_report",
    "run_campaign",
    "smoke_campaign",
    "write_bytes_atomic",
    "write_json_atomic",
    "write_text_atomic",
]
