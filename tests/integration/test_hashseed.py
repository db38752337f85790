"""Cross-process determinism: a campaign's guest behaviour must not
depend on the interpreter's string-hash salt.

Every campaign worker is a fresh interpreter with its own
``PYTHONHASHSEED``.  If anything on the guest path derived state from
builtin ``hash()`` of a string (app RNG seeding is the classic case),
the same spec would yield different operand streams, cycle counts and
trace bytes per process -- while the merged report could still look
plausible.  This runs one small campaign in two interpreters with
different salts and compares every run's cycles and trace digest.
The runs are ones whose cycles or trace bytes move with the operand
values: a salted seed changes the filtered LAGHOS trace and the sampled
NAS and PARSEC cycle counts, while most other runs' outputs do not
depend on the exact operands.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import json
from repro.campaign import CampaignSpec, RunSpec, run_campaign

spec = CampaignSpec(name="hashseed", runs=tuple(
    RunSpec(app=app, mode=mode, scale=0.1)
    for app, mode in (("LAGHOS", "filtered"), ("NAS 3.0", "sampled"),
                      ("PARSEC 3.0", "sampled"))))
result = run_campaign(spec, workers=1, execution="inprocess")
print(json.dumps({
    "runs": [[o.label, o.status, o.cycles, [list(t) for t in o.trace_digest]]
             for o in result.outcomes],
    "report": result.report_text,
}))
"""


def _run_with_hashseed(seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True,
        text=True, timeout=300, check=True)
    return json.loads(proc.stdout)


def test_campaign_runs_identical_across_hash_seeds():
    a = _run_with_hashseed("1")
    b = _run_with_hashseed("2")
    assert all(status == "ok" for _, status, _, _ in a["runs"])
    assert all(digest for _, _, _, digest in a["runs"])
    for run_a, run_b in zip(a["runs"], b["runs"], strict=True):
        label, _, cycles_a, digest_a = run_a
        _, _, cycles_b, digest_b = run_b
        assert cycles_a == cycles_b, f"{label}: cycles differ across salts"
        assert digest_a == digest_b, f"{label}: trace bytes differ"
    assert a["report"] == b["report"]
