"""Spec → engine wiring for the job service.

Each job model selects with one of the stepwise engines of
:mod:`repro.influence` — :class:`~repro.influence.maxcover.StepwiseMaxCover`,
:class:`~repro.influence.maxcover.StepwiseBudgetedCover` or
:class:`~repro.influence.celfpp.StepwiseCelfpp` — the same engines the
offline functions run to completion.  Their three-call contract and the
resume purity contract that makes crash-resume bit-identical are
documented in :mod:`repro.influence.maxcover`.
"""

from __future__ import annotations

from repro.cascades.index import CascadeIndex
from repro.influence.celfpp import StepwiseCelfpp
from repro.influence.greedy_tc import sphere_family
from repro.influence.maxcover import StepwiseBudgetedCover, StepwiseMaxCover
from repro.influence.ris import rr_family
from repro.jobs.spec import JobSpec


def build_selection(spec: JobSpec, index: CascadeIndex):
    """The stepwise engine for ``spec`` over ``index``.

    Pure: the same (spec, index) always yields an engine producing the
    same selection sequence — the premise of crash-resume bit parity.
    """
    n = index.num_nodes
    if spec.model == "celfpp":
        return StepwiseCelfpp(index, spec.k)
    if spec.model == "ris":
        family = rr_family(index.graph, spec.num_rr_sets, spec.rr_seed)
        return StepwiseMaxCover(
            family,
            spec.k,
            spec.num_rr_sets,
            estimate_scale=n / spec.num_rr_sets,
        )
    family = sphere_family(index)
    if spec.model == "cost_aware":
        return StepwiseBudgetedCover(
            family,
            spec.k,
            spec.budget,
            n,
            dict(spec.node_costs),
            max_cost=spec.max_cost,
        )
    mean_sizes = index.all_cascade_sizes().mean(axis=1)
    if spec.model == "greedy_tc":
        # InfMax_TC tie-break: prefer genuinely influential nodes.
        priorities = {v: float(mean_sizes[v]) for v in family}
    elif spec.model == "stability":
        # Stability-aware variant (He & Kempe's concern): break coverage
        # ties toward nodes whose sampled cascade size is *reliable* —
        # risk-adjusted priority mean - std over the index's worlds.
        std_sizes = index.all_cascade_sizes().std(axis=1)
        priorities = {
            v: float(mean_sizes[v] - std_sizes[v]) for v in family
        }
    else:  # pragma: no cover - spec validation forbids this
        raise ValueError(f"unknown job model {spec.model!r}")
    return StepwiseMaxCover(family, spec.k, n, priorities=priorities)


def run_to_completion(spec: JobSpec, index: CascadeIndex) -> dict:
    """Uninterrupted serial reference: the exact result a durable job must
    reproduce through any number of crashes and resumes."""
    selection = build_selection(spec, index)
    while selection.step() is not None:
        pass
    return selection.finalize()
