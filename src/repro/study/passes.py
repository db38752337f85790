"""The study passes (paper section 4): FPSpy environments and a runner."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fpspy import fpspy_env
from repro.study.targets import RunResult, StudyTarget, TARGET_NAMES, make_targets

#: FPE_EXCEPT_LIST for the individual-mode-with-filtering pass:
#: "every instruction ... that produces a floating point event other
#: than Inexact" (section 4).
FILTER_NO_INEXACT = "DivideByZero,Invalid,Denorm,Underflow,Overflow"

#: The 5% Poisson sampler configuration: "5000 us mean on time and
#: 100000 us mean off time using virtual timer" (Figure 14 caption).
#: Virtual-timer units are guest instructions in the simulation.
POISSON_5PCT = "5000:100000"

#: The deterministic sampler seed of the reported study run.  The paper
#: reports one run; this seed is ours.
STUDY_SEED = 15

#: Per-pass problem-variant overrides: the paper's passes were separate
#: runs, occasionally at different problem configurations (the Figure 10
#: caption and the Figure 9 vs 11 discrepancies record this).
_VARIANTS = {
    "aggregate": {"PARSEC 3.0": "native"},
    "filtered": {"Miniaero": "filtered", "LAGHOS": "filtered",
                 "PARSEC 3.0": "native"},
    "sampled": {"PARSEC 3.0": "native"},
    "baseline": {},
}


@dataclass(frozen=True)
class StudyPass:
    """One methodology pass: a name and the FPSpy environment it uses."""

    name: str
    env: dict[str, str]


def pass_variant(pass_name: str, target: str) -> str:
    """The problem variant this pass runs ``target`` at (default otherwise).

    Public so the campaign runner's specs can mirror the study's
    per-pass problem configurations exactly.
    """
    return _VARIANTS[pass_name].get(target, "default")


def pass_env(name: str) -> dict[str, str]:
    if name == "baseline":
        return {}
    if name == "aggregate":
        return fpspy_env("aggregate")
    if name == "filtered":
        return fpspy_env("individual", except_list=FILTER_NO_INEXACT)
    if name == "sampled":
        return fpspy_env(
            "individual", poisson=POISSON_5PCT, timer="virtual",
            seed=STUDY_SEED,
        )
    raise ValueError(f"unknown pass {name!r}")


@dataclass
class PassResult:
    """All nine targets' results for one pass."""

    name: str
    results: dict[str, RunResult] = field(default_factory=dict)

    def __getitem__(self, target: str) -> RunResult:
        return self.results[target]

    def items(self):
        return self.results.items()


def run_pass(
    name: str,
    scale: float = 1.0,
    seed: int = 1234,
    targets: dict[str, StudyTarget] | None = None,
    only: tuple[str, ...] | None = None,
) -> PassResult:
    """Run one study pass over all (or ``only`` selected) targets."""
    targets = targets or make_targets()
    env = pass_env(name)
    variants = _VARIANTS[name]
    out = PassResult(name=name)
    for display in TARGET_NAMES:
        if only is not None and display not in only:
            continue
        target = targets[display]
        variant = variants.get(display, "default")
        out.results[display] = target.run(
            env, scale=scale, variant=variant, seed=seed
        )
    return out
