"""Validated description of one seed-selection job.

A :class:`JobSpec` is the *pure input* of a job: together with the served
index's content digest it fully determines the selection sequence (the
resume purity contract — see :mod:`repro.influence.maxcover`).  Everything a
client can pass is validated here into clean
:class:`~repro.serve.errors.BadRequest` refusals, so no malformed payload
reaches a worker, and the canonical JSON form feeds both the journal's
``submit`` record and the idempotency digest.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

from repro.serve.errors import BadRequest
from repro.store.fingerprint import digest_text

#: Job types the service runs, and the selection engine behind each.
MODELS = ("greedy_tc", "celfpp", "ris", "cost_aware", "stability")

#: Hard cap on the requested seed-set size (also bounds journal growth).
MAX_K = 4096

#: Hard cap on the RIS sample budget a job may request.
MAX_RR_SETS = 200_000

#: Idempotency keys: printable, bounded, no whitespace or control bytes.
IDEMPOTENCY_KEY_PATTERN = re.compile(r"^[A-Za-z0-9._:-]{1,128}$")


def check_idempotency_key(raw: object) -> str | None:
    """Validate a client idempotency key (``None`` passes through)."""
    if raw is None:
        return None
    if not isinstance(raw, str) or not IDEMPOTENCY_KEY_PATTERN.match(raw):
        raise BadRequest(
            "idempotency key must be 1-128 characters from [A-Za-z0-9._:-], "
            f"got {raw!r}"
        )
    return raw


def _require_int(payload: dict, name: str, *, lo: int, hi: int) -> int:
    raw = payload[name]
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise BadRequest(f"'{name}' must be an integer, got {raw!r}")
    if raw < lo:
        raise BadRequest(f"'{name}' must be >= {lo}, got {raw}")
    if raw > hi:
        raise BadRequest(f"'{name}' must be <= {hi}, got {raw}")
    return raw


def _optional_positive_float(payload: dict, name: str) -> float | None:
    raw = payload.get(name)
    if raw is None:
        return None
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise BadRequest(f"'{name}' must be a number, got {raw!r}")
    value = float(raw)
    if not math.isfinite(value) or value <= 0:
        raise BadRequest(f"'{name}' must be a positive finite number, got {raw}")
    return value


def _node_costs(payload: dict, num_nodes: int) -> tuple[tuple[int, float], ...]:
    raw = payload.get("node_costs")
    if raw is None:
        return ()
    if not isinstance(raw, dict):
        raise BadRequest(
            "'node_costs' must be a JSON object mapping node id to cost, "
            'e.g. {"0": 1.5}'
        )
    costs: dict[int, float] = {}
    for key, value in raw.items():
        try:
            node = int(key)
        except (TypeError, ValueError):
            raise BadRequest(
                f"node-cost keys must be integer node ids, got {key!r}"
            ) from None
        if not 0 <= node < num_nodes:
            raise BadRequest(
                f"node-cost key {node} is outside the served universe "
                f"0..{num_nodes - 1}"
            )
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise BadRequest(f"cost of node {node} must be a number, got {value!r}")
        cost = float(value)
        if not math.isfinite(cost) or cost <= 0:
            raise BadRequest(
                f"cost of node {node} must be a positive finite number, got {value}"
            )
        costs[node] = cost
    return tuple(sorted(costs.items()))


@dataclass(frozen=True)
class JobSpec:
    """One validated seed-selection request.

    ``deadline`` is a wall-clock budget in seconds measured from
    submission; it only ever *aborts* a job (``failed-permanent``), never
    alters which seeds are selected, so it is deliberately not part of the
    purity contract's inputs.  Every other field is.
    """

    model: str
    k: int
    budget: float | None = None
    node_costs: tuple[tuple[int, float], ...] = ()
    deadline: float | None = None
    num_rr_sets: int = 2000
    rr_seed: int = 20160626
    max_cost: float | None = None

    @classmethod
    def from_payload(cls, payload: object, num_nodes: int) -> "JobSpec":
        """Validate a client JSON body into a spec (or raise BadRequest)."""
        if not isinstance(payload, dict):
            raise BadRequest(
                'job body must be a JSON object, e.g. {"model": "greedy_tc", "k": 10}'
            )
        unknown = sorted(
            set(payload)
            - {
                "model", "k", "budget", "node_costs", "deadline",
                "num_rr_sets", "rr_seed", "max_cost", "idempotency_key",
            }
        )
        if unknown:
            raise BadRequest(f"unknown job field(s): {', '.join(unknown)}")
        model = payload.get("model")
        if model not in MODELS:
            raise BadRequest(
                f"'model' must be one of {', '.join(MODELS)}, got {model!r}"
            )
        if "k" not in payload:
            raise BadRequest("'k' is required")
        k = _require_int(payload, "k", lo=1, hi=MAX_K)
        if k > num_nodes:
            raise BadRequest(
                f"k={k} exceeds the number of served nodes ({num_nodes})"
            )
        budget = _optional_positive_float(payload, "budget")
        if model == "cost_aware" and budget is None:
            raise BadRequest("the cost_aware model requires a positive 'budget'")
        deadline = _optional_positive_float(payload, "deadline")
        max_cost_raw = payload.get("max_cost")
        max_cost: float | None = None
        if max_cost_raw is not None:
            if isinstance(max_cost_raw, bool) or not isinstance(
                max_cost_raw, (int, float)
            ):
                raise BadRequest(f"'max_cost' must be a number, got {max_cost_raw!r}")
            max_cost = float(max_cost_raw)
            if not math.isfinite(max_cost) or max_cost < 0:
                raise BadRequest(
                    f"'max_cost' must be a non-negative finite number, got {max_cost_raw}"
                )
        num_rr_sets = 2000
        if "num_rr_sets" in payload:
            num_rr_sets = _require_int(payload, "num_rr_sets", lo=1, hi=MAX_RR_SETS)
        rr_seed = 20160626
        if "rr_seed" in payload:
            rr_seed = _require_int(payload, "rr_seed", lo=0, hi=2**63 - 1)
        return cls(
            model=str(model),
            k=k,
            budget=budget,
            node_costs=_node_costs(payload, num_nodes),
            deadline=deadline,
            num_rr_sets=num_rr_sets,
            rr_seed=rr_seed,
            max_cost=max_cost,
        )

    def to_payload(self) -> dict:
        """The spec as a plain JSON-serialisable mapping (journal form)."""
        return {
            "model": self.model,
            "k": self.k,
            "budget": self.budget,
            "node_costs": {str(node): cost for node, cost in self.node_costs},
            "deadline": self.deadline,
            "num_rr_sets": self.num_rr_sets,
            "rr_seed": self.rr_seed,
            "max_cost": self.max_cost,
        }

    @classmethod
    def from_mapping(cls, raw: dict) -> "JobSpec":
        """Rehydrate a spec from its journal form (trusted, checksummed)."""
        return cls(
            model=str(raw["model"]),
            k=int(raw["k"]),
            budget=None if raw.get("budget") is None else float(raw["budget"]),
            node_costs=tuple(
                sorted((int(k), float(v)) for k, v in raw.get("node_costs", {}).items())
            ),
            deadline=(
                None if raw.get("deadline") is None else float(raw["deadline"])
            ),
            num_rr_sets=int(raw.get("num_rr_sets", 2000)),
            rr_seed=int(raw.get("rr_seed", 20160626)),
            max_cost=(
                None if raw.get("max_cost") is None else float(raw["max_cost"])
            ),
        )

    def digest(self) -> str:
        """Content digest of the spec — the idempotency comparison key."""
        return digest_text(
            json.dumps(self.to_payload(), sort_keys=True, separators=(",", ":"))
        )
