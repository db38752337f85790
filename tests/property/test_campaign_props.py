"""Property: the merged campaign report is byte-identical regardless of
worker count and completion order.

The real coordinator and these tests share one merge path
(:class:`ResultAccumulator`), so the property is exercised in-process:
executed outcomes are computed once per module, then every Hypothesis
example replays them through the accumulator in a randomized
worker-sharding and completion order and asserts the rendered bytes
never move.  (The actual multiprocessing path is covered by
``tests/unit/test_campaign.py`` and the scaling benchmark.)
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (
    CampaignSpec,
    ResultAccumulator,
    RunSpec,
    execute_run,
)

CAMPAIGN = CampaignSpec(
    name="prop",
    runs=(
        RunSpec(app="Miniaero", mode="aggregate", scale=0.1),
        RunSpec(app="Miniaero", mode="filtered", scale=0.1),
        RunSpec(app="WRF", mode="sampled", scale=0.1),
        RunSpec(app="GROMACS", mode="aggregate", scale=0.1),
    ),
)


@functools.cache
def _outcomes():
    return tuple(
        execute_run(i, spec) for i, spec in enumerate(CAMPAIGN.runs))


@functools.cache
def _baseline_report() -> str:
    acc = ResultAccumulator(CAMPAIGN)
    for outcome in _outcomes():
        acc.add(outcome)
    return acc.merge().report_text


def _shard(n_runs: int, workers: int) -> list[list[int]]:
    """Round-robin assignment of runs to workers' FIFO streams."""
    queues: list[list[int]] = [[] for _ in range(workers)]
    for i in range(n_runs):
        queues[i % workers].append(i)
    return queues


@settings(deadline=None, max_examples=60)
@given(
    workers=st.sampled_from([1, 2, 4]),
    data=st.data(),
)
def test_report_bytes_invariant_under_sharding_and_completion_order(
    workers, data
):
    queues = _shard(len(CAMPAIGN.runs), workers)
    # Interleave the per-worker queues in an arbitrary completion order:
    # each draw picks which worker's stream delivers its next result.
    order: list[int] = []
    cursors = [0] * len(queues)
    while len(order) < len(CAMPAIGN.runs):
        ready = [
            w for w, q in enumerate(queues) if cursors[w] < len(q)]
        w = data.draw(st.sampled_from(ready), label="next worker")
        order.append(queues[w][cursors[w]])
        cursors[w] += 1

    outcomes = _outcomes()
    acc = ResultAccumulator(CAMPAIGN)
    for index in order:
        acc.add(outcomes[index])
    result = acc.merge()
    assert result.report_text == _baseline_report()
    assert [o.index for o in result.outcomes] == list(
        range(len(CAMPAIGN.runs)))


@settings(deadline=None, max_examples=25)
@given(order=st.permutations(list(range(len(CAMPAIGN.runs)))))
def test_deterministic_dict_invariant_under_any_permutation(order):
    outcomes = _outcomes()
    acc = ResultAccumulator(CAMPAIGN)
    for index in order:
        acc.add(outcomes[index])
    baseline = ResultAccumulator(CAMPAIGN)
    for outcome in outcomes:
        baseline.add(outcome)
    assert acc.merge().deterministic == baseline.merge().deterministic
