"""Storm on/off byte-identity on application traffic.

The property tests drive the storm batch driver (DESIGN.md #11) with
synthetic streams.  Here the nine study targets run directly, at a small
scale, in individual mode, in the study's filtered pass (every event but
Inexact, so masked Inexact status rides the batches) and under a Poisson
sampler on the virtual timer, once at the ``"storm"`` rung of
``KernelConfig.fastpaths`` and once at ``"blockexec"``, the rung below.
Every target must end on the same cycle with the same guest-visible
files, and the driver must actually batch in every mode, so the oracle
cannot pass by never engaging.  Untraced, every form
batches, so no attempt bails out as ``uncovered``.
"""

import hashlib

import pytest

from repro.fpspy import fpspy_env
from repro.kernel.kernel import Kernel, KernelConfig
from repro.study.passes import FILTER_NO_INEXACT, pass_variant
from repro.study.targets import TARGET_NAMES, make_targets

SCALE = 0.1
SEED = 1234
#: Mode -> (study pass whose problem variants it runs, FPSpy environment).
MODES = {
    "individual": ("aggregate", fpspy_env("individual")),
    "filtered": ("filtered", fpspy_env(
        "individual", except_list=FILTER_NO_INEXACT)),
    "poisson": ("aggregate", fpspy_env(
        "individual", poisson="50000:100000", timer="virtual", seed=SEED)),
}


def _run_targets(mode, fastpaths):
    pass_name, env = MODES[mode]
    targets = make_targets()
    out = {}
    batches = 0
    bailouts = {}
    for name in TARGET_NAMES:
        kernel = Kernel(KernelConfig(fastpaths=fastpaths))
        targets[name].launch(
            kernel, env, SCALE, pass_variant(pass_name, name), SEED)
        kernel.run()
        files = []
        for path in kernel.vfs.listdir(""):
            if not path.startswith("/proc"):
                data = kernel.vfs.read(path)
                files.append(
                    (path, len(data), hashlib.sha256(data).hexdigest()))
        out[name] = (kernel.cycles, sorted(files))
        batches += kernel.cpu.storm_stats["batches"]
        for reason, n in kernel.cpu.storm_stats["bailouts"].items():
            bailouts[reason] = bailouts.get(reason, 0) + n
    return out, batches, bailouts


@pytest.mark.parametrize("mode", sorted(MODES))
def test_storm_on_matches_off_on_study_targets(mode):
    on, batches, bailouts = _run_targets(mode, "storm")
    off, _, _ = _run_targets(mode, "blockexec")
    assert batches > 0, "the storm driver never engaged"
    assert "uncovered" not in bailouts, bailouts
    for name in TARGET_NAMES:
        assert on[name][0] == off[name][0], f"{name}: cycles diverged"
        assert on[name][1] == off[name][1], f"{name}: files diverged"
