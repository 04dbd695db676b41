"""Micro-benchmarks of the fault-tolerant runtime (repro.runtime).

Pins the costs the robustness layer adds to the hot paths it wraps:

* supervised parallel sampling vs the same sampling under an injected
  worker crash — recovery should cost one pool restart plus one chunk
  re-execution, not a rebuild;
* the disarmed fault-injection check, which sits on every chunk and append
  stage and must stay a near-free env lookup;
* the sphere-family sweep written into the index store in batches vs a
  plain in-memory sweep, and the resume path that finds every sphere
  already committed and computes nothing.
"""

import pytest

from repro.cascades.index import CascadeIndex
from repro.core.typical_cascade import TypicalCascadeComputer
from repro.graph.generators import powerlaw_outdegree_digraph
from repro.problearn.assign import assign_fixed
from repro.runtime.faults import FaultPlan, FaultSpec, fault_scope, maybe_fire
from repro.runtime.supervisor import SupervisorConfig
from repro.store import read_index, write_family
from repro.store.build import FAULT_SITE_CHUNK, sampled_condensations

FAST_RETRY = SupervisorConfig(backoff_base=0.01, backoff_max=0.05)


@pytest.fixture(scope="module")
def graph():
    base = powerlaw_outdegree_digraph(300, mean_degree=6.0, seed=1)
    return assign_fixed(base, 0.1)


@pytest.fixture(scope="module")
def computer(graph):
    return TypicalCascadeComputer(CascadeIndex.build(graph, 16, seed=2))


def test_bench_supervised_parallel_sampling(benchmark, graph):
    conds = benchmark.pedantic(
        lambda: sampled_condensations(
            graph, 16, entropy=3, n_jobs=2, supervisor=FAST_RETRY
        ),
        rounds=3,
        iterations=1,
    )
    assert len(conds) == 16


def test_bench_sampling_with_injected_crash_recovery(benchmark, graph):
    plan = FaultPlan.of(FaultSpec(site=FAULT_SITE_CHUNK, kind="crash", key=0))

    def crashed_build():
        with fault_scope(plan):
            return sampled_condensations(
                graph, 16, entropy=3, n_jobs=2, supervisor=FAST_RETRY
            )

    conds = benchmark.pedantic(crashed_build, rounds=3, iterations=1)
    assert len(conds) == 16


def test_bench_disarmed_fault_check(benchmark):
    def disarmed_sweep(calls: int = 1000) -> int:
        for i in range(calls):
            maybe_fire("bench.site", key=i)
        return calls

    assert benchmark.pedantic(disarmed_sweep, rounds=5, iterations=1) == 1000


def test_bench_plain_sphere_sweep(benchmark, computer):
    store = benchmark.pedantic(
        lambda: computer.compute_store(), rounds=3, iterations=1
    )
    assert len(store) == computer.index.num_nodes


def test_bench_checkpointed_sphere_sweep(benchmark, computer, tmp_path_factory):
    counter = [0]

    def checkpointed():
        counter[0] += 1
        out = tmp_path_factory.mktemp("family") / f"run-{counter[0]}"
        computer.index.save(out)
        write_family(out, checkpoint_every=64)
        return read_index(out).sphere_family

    store = benchmark.pedantic(checkpointed, rounds=3, iterations=1)
    assert len(store) == computer.index.num_nodes


def test_bench_resume_from_full_checkpoint(benchmark, computer, tmp_path_factory):
    out = tmp_path_factory.mktemp("family") / "full"
    computer.index.save(out)
    write_family(out, checkpoint_every=64)

    def resume():
        write_family(out, checkpoint_every=64, resume=True)
        return read_index(out).sphere_family

    store = benchmark.pedantic(resume, rounds=3, iterations=1)
    assert len(store) == computer.index.num_nodes
