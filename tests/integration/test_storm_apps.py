"""Storm on/off byte-identity on application traffic.

The property tests drive the storm batch driver (DESIGN.md #11) with
synthetic streams.  Here the nine study targets run directly, at a small
scale, in individual mode and under a Poisson sampler on the virtual
timer, once with ``KernelConfig.stormbatch`` on and once off.  Every
target must end on the same cycle with the same guest-visible files, and
the driver must actually batch in both modes, so the oracle cannot pass
by never engaging.
"""

import hashlib

import pytest

from repro.fpspy import fpspy_env
from repro.kernel.kernel import Kernel, KernelConfig
from repro.study.passes import pass_variant
from repro.study.targets import TARGET_NAMES, make_targets

SCALE = 0.1
SEED = 1234
MODES = {
    "individual": fpspy_env("individual"),
    "poisson": fpspy_env("individual", poisson="50000:100000",
                         timer="virtual", seed=SEED),
}


def _run_targets(env, stormbatch):
    targets = make_targets()
    out = {}
    batches = 0
    for name in TARGET_NAMES:
        kernel = Kernel(KernelConfig(stormbatch=stormbatch))
        targets[name].launch(
            kernel, env, SCALE, pass_variant("aggregate", name), SEED)
        kernel.run()
        files = []
        for path in kernel.vfs.listdir(""):
            if not path.startswith("/proc"):
                data = kernel.vfs.read(path)
                files.append(
                    (path, len(data), hashlib.sha256(data).hexdigest()))
        out[name] = (kernel.cycles, sorted(files))
        batches += kernel.cpu.storm_stats["batches"]
    return out, batches


@pytest.mark.parametrize("mode", sorted(MODES))
def test_storm_on_matches_off_on_study_targets(mode):
    on, batches = _run_targets(MODES[mode], True)
    off, _ = _run_targets(MODES[mode], False)
    assert batches > 0, "the storm driver never engaged"
    for name in TARGET_NAMES:
        assert on[name][0] == off[name][0], f"{name}: cycles diverged"
        assert on[name][1] == off[name][1], f"{name}: files diverged"
