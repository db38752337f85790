"""Exact fast-path engagement counts on the nine study targets.

Byte-identity oracles prove a batched path is *correct*; they cannot
tell whether it still *engages*, because a batch that never forms is
trivially identical to precise stepping.  The counts below are
deterministic -- they move only when code moves a batch boundary -- so
they are pinned exactly: the quiescent arm's chunks, the groups they
retired and the precise block sub-steps, and the FPSpy individual-mode
arm's ``storm_stats``.  Each mode runs the nine targets at a small scale
untraced at the default rung, summed over the targets' kernels.

A change that moves one of these on purpose re-records it here and says
why; an unintended move is a regression in batching even when every
output byte is unchanged.
"""

import pytest

from repro.fpspy import fpspy_env
from repro.kernel.kernel import Kernel
from repro.study.passes import pass_variant
from repro.study.targets import TARGET_NAMES, make_targets

SCALE = 0.3
SEED = 1234
ENVS = {
    "aggregate": fpspy_env("aggregate"),
    "individual": fpspy_env("individual"),
    "poisson": fpspy_env(
        "individual", poisson="50000:100000", timer="virtual", seed=SEED),
}

#: ``(blk_chunks, blk_groups, blk_substeps)`` and ``storm_stats`` per
#: mode.
EXPECTED = {
    "aggregate": (
        (6111, 38227, 96),
        {"batches": 0, "groups": 0, "quiet": 0, "records": 0,
         "windows": 0, "bailouts": {}},
    ),
    "individual": (
        (15, 69, 1370),
        {"batches": 6277, "groups": 37724, "quiet": 10234,
         "records": 27490, "windows": 5683, "bailouts": {"short": 481}},
    ),
    "poisson": (
        (4953, 26149, 4542),
        {"batches": 2687, "groups": 11814, "quiet": 3131, "records": 8683,
         "windows": 2357, "bailouts": {"short": 159}},
    ),
}


def _counts(mode):
    targets = make_targets()
    blk = [0, 0, 0]
    storm = {"batches": 0, "groups": 0, "quiet": 0, "records": 0,
             "windows": 0, "bailouts": {}}
    for name in TARGET_NAMES:
        kernel = Kernel()
        targets[name].launch(kernel, ENVS[mode], SCALE,
                             pass_variant("aggregate", name), SEED)
        kernel.run()
        cpu = kernel.cpu
        for i, n in enumerate(
                (cpu.blk_chunks, cpu.blk_groups, cpu.blk_substeps)):
            blk[i] += n
        for key, n in cpu.storm_stats.items():
            if key == "bailouts":
                for reason, m in n.items():
                    storm[key][reason] = storm[key].get(reason, 0) + m
            else:
                storm[key] += n
    return tuple(blk), storm


@pytest.mark.parametrize("mode", sorted(ENVS))
def test_engagement_counts_are_pinned(mode):
    assert _counts(mode) == EXPECTED[mode]
