"""Instance and solution files, plus seeded random instance generation.

Files are JSON with an explicit schema tag and integer ticks everywhere,
serialized canonically (sorted keys, two-space indent, trailing newline)
so identical inputs produce byte-identical files.  The travel section is
either an explicit matrix or a grid section (integer coordinates with a
Manhattan metric scaled by ``ticks_per_unit``).

The four key tuples ``_PLAN_KEYS``, ``_VEHICLE_KEYS``, ``_REQUEST_KEYS``
and ``_STOP_KEYS`` are the file schema of the records: each names a
record's fields in its constructor's order.  The writers, the instance
readers and both seeded generators build or read every record through them.
"""

from __future__ import annotations

import json
import random
from dataclasses import astuple, dataclass, field
from fractions import Fraction
from pathlib import Path

from .errors import InputError
from .model import (
    ChainingInstance,
    CostPolicy,
    FleetSize,
    Plan,
    TravelCost,
    TravelCostWaitCapped,
    TravelCostWaitPenalized,
    TravelMatrix,
    Vehicle,
)
from .darp import AUTO_FLEET, AutoFleet, DarpInstance, DarpSolution, Metrics, Request
from .chainsolve import ChainSolution

CHAIN_INSTANCE_SCHEMA = "planchain.chain-instance.v1"
DARP_INSTANCE_SCHEMA = "planchain.darp-instance.v1"
CHAIN_SOLUTION_SCHEMA = "planchain.chain-solution.v1"
DARP_SOLUTION_SCHEMA = "planchain.darp-solution.v1"


def canonical_json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8")


def save_json(path, obj) -> None:
    try:
        Path(path).write_bytes(canonical_json_bytes(obj))
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def load_json(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise InputError(f"{path}: an integer has too many digits to parse") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: nested too deeply to parse") from exc


def _require(data, key, context):
    if not isinstance(data, dict):
        raise InputError(f"{context} must be an object, got {type(data).__name__}")
    if key not in data:
        raise InputError(f"{context}: missing field '{key}'")
    return data[key]


def _list_field(data, key, context):
    value = _require(data, key, context)
    if not isinstance(value, list):
        raise InputError(f"{context}: field '{key}' must be a list, got {type(value).__name__}")
    return value


def _int_rows(data, key, context):
    """A list of lists of integers (range checks are left to ``TravelMatrix``)."""
    rows = _list_field(data, key, context)
    if not all(isinstance(row, list) and all(type(x) is int for x in row) for row in rows):
        raise InputError(f"{context}: field '{key}' must be a list of lists of integers")
    return rows


def _int_field(data, key, context):
    value = _require(data, key, context)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{context}: field '{key}' must be an integer, got {value!r}")
    return value


def _int_fields(data, keys, context) -> tuple[int, ...]:
    return tuple(_int_field(data, key, context) for key in keys)


def _record(cls, data, context, keys):
    """``cls`` of an object's integer fields ``keys``, the first of them its id, which names the rest.

    A dict whose fields are all present and plain ints is read in one pass;
    any other object goes through the field-by-field checks, which name the
    first field that fails.
    """
    if type(data) is dict:
        values = [data.get(key) for key in keys]
        if all(type(value) is int for value in values):
            return cls(*values)
    rid = _int_field(data, keys[0], context)
    return cls(rid, *_int_fields(data, keys[1:], f"{context} {rid}"))


def _doc(keys, values) -> dict:
    """A record's file object: ``values`` in its constructor's order, under its ``keys``."""
    return dict(zip(keys, values, strict=True))


# the file keys of each record kind, in its constructor's argument order
_PLAN_KEYS = ("id", "origin", "destination", "t_or", "t_de", "d_max")
_VEHICLE_KEYS = ("id", "location", "t_st")
_REQUEST_KEYS = ("id", "origin", "destination", "t_r", "max_delay")
_STOP_KEYS = ("request", "kind", "location", "time")


# -- cost policies ----------------------------------------------------------

def policy_to_dict(policy: CostPolicy) -> dict:
    if isinstance(policy, FleetSize):
        return {"kind": "fleet"}
    if isinstance(policy, TravelCost):
        return {"kind": "cost"}
    if isinstance(policy, TravelCostWaitCapped):
        return {"kind": "cost-waitcap", "delta": policy.delta}
    if isinstance(policy, TravelCostWaitPenalized):
        return {"kind": "cost-waitpen", "alpha": str(policy.alpha)}
    raise InputError(f"unknown policy {policy!r}")


_MAX_PENALTY_EXPONENT = 100  # Fraction("1e10000000") takes seconds to build its power of ten


def _wait_penalty(text: str) -> TravelCostWaitPenalized:
    """The wait penalty written as ``text``, a fraction or a decimal.

    Raises ``ValueError`` or ``ZeroDivisionError`` on malformed text or an
    exponent beyond ``_MAX_PENALTY_EXPONENT``, before ``Fraction`` parses it.
    """
    _, exp_mark, exponent = text.lower().partition("e")
    if exp_mark and abs(int(exponent)) > _MAX_PENALTY_EXPONENT:
        raise ValueError(f"decimal exponent beyond {_MAX_PENALTY_EXPONENT}")
    return TravelCostWaitPenalized(Fraction(text))


def policy_from_dict(data) -> CostPolicy:
    kind = _require(data, "kind", "policy")
    if kind == "fleet":
        return FleetSize()
    if kind == "cost":
        return TravelCost()
    if kind == "cost-waitcap":
        return TravelCostWaitCapped(_int_field(data, "delta", "policy"))
    if kind == "cost-waitpen":
        raw = _require(data, "alpha", "policy")
        if type(raw) is int:  # str() and repr() refuse an integer of over 4300 digits
            return TravelCostWaitPenalized(raw)
        try:
            return _wait_penalty(str(raw))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"policy: bad wait penalty {raw!r}") from exc
    raise InputError(f"policy: unknown kind {kind!r}")


def policy_from_cli(text: str) -> CostPolicy:
    """Parse the CLI policy syntax: fleet | cost | cost-waitcap:D | cost-waitpen:A."""
    if text == "fleet":
        return FleetSize()
    if text == "cost":
        return TravelCost()
    if text.startswith("cost-waitcap:"):
        try:
            return TravelCostWaitCapped(int(text.split(":", 1)[1]))
        except ValueError as exc:
            raise InputError(f"bad wait cap in {text!r}") from exc
    if text.startswith("cost-waitpen:"):
        try:
            return _wait_penalty(text.split(":", 1)[1])
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad wait penalty in {text!r}") from exc
    raise InputError(f"unknown policy {text!r} (expected fleet | cost | cost-waitcap:D | cost-waitpen:A)")


# -- travel sections --------------------------------------------------------

def _travel_to_dict(travel: TravelMatrix) -> dict:
    return {"matrix": travel.array.tolist()}


def _travel_from_dict(data, count: int) -> TravelMatrix:
    if not isinstance(data, dict) or ("matrix" in data) == ("grid" in data):
        raise InputError("travel: must be an object with exactly one of 'matrix' or 'grid'")
    if "matrix" in data:
        rows = _int_rows(data, "matrix", "travel")
        if len(rows) != count or any(len(r) != count for r in rows):
            raise InputError(f"travel: matrix must be {count}x{count}")
        return TravelMatrix(rows)
    grid = data["grid"]
    coords = _int_rows(grid, "coordinates", "travel.grid")
    if len(coords) != count:
        raise InputError(f"travel.grid: expected {count} coordinates, got {len(coords)}")
    ticks = _int_field(grid, "ticks_per_unit", "travel.grid") if "ticks_per_unit" in grid else 1
    return TravelMatrix.from_coordinates(coords, ticks_per_unit=ticks)


# -- chaining instances -----------------------------------------------------

def chain_instance_to_dict(instance: ChainingInstance) -> dict:
    return {
        "schema": CHAIN_INSTANCE_SCHEMA,
        "locations": {"count": instance.travel.size},
        "travel": _travel_to_dict(instance.travel),
        "plans": [_doc(_PLAN_KEYS, astuple(p)) for p in instance.plans],
        "vehicles": [_doc(_VEHICLE_KEYS, astuple(v)) for v in instance.vehicles],
        "policy": policy_to_dict(instance.policy),
    }


def chain_instance_from_dict(data) -> ChainingInstance:
    if _require(data, "schema", "instance") != CHAIN_INSTANCE_SCHEMA:
        raise InputError(f"expected schema {CHAIN_INSTANCE_SCHEMA}, got {data['schema']!r}")
    count = _int_field(_require(data, "locations", "instance"), "count", "locations")
    travel = _travel_from_dict(_require(data, "travel", "instance"), count)
    plans = tuple(_record(Plan, p, "plan", _PLAN_KEYS) for p in _list_field(data, "plans", "instance"))
    vehicles = tuple(_record(Vehicle, v, "vehicle", _VEHICLE_KEYS) for v in _list_field(data, "vehicles", "instance"))
    policy = policy_from_dict(data.get("policy", {"kind": "cost"}))
    return ChainingInstance(plans, vehicles, travel, policy)


# -- DARP instances ---------------------------------------------------------

def darp_instance_to_dict(instance: DarpInstance) -> dict:
    if isinstance(instance.fleet, AutoFleet):
        fleet = {"mode": "auto"}
    else:
        fleet = {"mode": "explicit", "vehicles": [_doc(_VEHICLE_KEYS, astuple(v)) for v in instance.fleet]}
    return {
        "schema": DARP_INSTANCE_SCHEMA,
        "locations": {"count": instance.travel.size},
        "travel": _travel_to_dict(instance.travel),
        "requests": [_doc(_REQUEST_KEYS, astuple(r)) for r in instance.requests],
        "capacity": instance.capacity,
        "fleet": fleet,
    }


def darp_instance_from_dict(data) -> DarpInstance:
    if _require(data, "schema", "instance") != DARP_INSTANCE_SCHEMA:
        raise InputError(f"expected schema {DARP_INSTANCE_SCHEMA}, got {data['schema']!r}")
    count = _int_field(_require(data, "locations", "instance"), "count", "locations")
    travel = _travel_from_dict(_require(data, "travel", "instance"), count)
    requests = tuple(_record(Request, r, "request", _REQUEST_KEYS) for r in _list_field(data, "requests", "instance"))
    fleet_data = _require(data, "fleet", "instance")
    mode = _require(fleet_data, "mode", "fleet")
    if mode == "auto":
        fleet: tuple[Vehicle, ...] | AutoFleet = AUTO_FLEET
    elif mode == "explicit":
        vehicles = _list_field(fleet_data, "vehicles", "fleet")
        fleet = tuple(_record(Vehicle, v, "vehicle", _VEHICLE_KEYS) for v in vehicles)
    else:
        raise InputError(f"fleet: unknown mode {mode!r}")
    return DarpInstance(requests, travel, _int_field(data, "capacity", "instance"), fleet)


def load_instance(path) -> ChainingInstance | DarpInstance:
    """Load either instance kind, fully validated."""
    data = load_json(path)
    if not isinstance(data, dict):
        raise InputError(f"{path}: top level must be an object")
    if "plans" in data and "requests" in data:
        raise InputError(f"{path}: exactly one of 'plans' or 'requests' may be present")
    schema = data.get("schema")
    if schema == CHAIN_INSTANCE_SCHEMA:
        return chain_instance_from_dict(data)
    if schema == DARP_INSTANCE_SCHEMA:
        return darp_instance_from_dict(data)
    raise InputError(f"{path}: unknown schema {schema!r}")


# -- solutions --------------------------------------------------------------

def chain_solution_to_dict(solution: ChainSolution, policy: CostPolicy) -> dict:
    return {
        "schema": CHAIN_SOLUTION_SCHEMA,
        "policy": policy_to_dict(policy),
        "objective": solution.objective,
        "chains": [
            {
                "vehicle": chain.vehicle.id,
                "plans": [
                    {"plan": ref.plan_id, "delay": ref.delay, "cost": cost, "wait": wait}
                    for ref, cost, wait in zip(chain.elements, chain.link_costs, chain.link_waits)
                ],
            }
            for chain in solution.chains
        ],
        "stats": {
            "nodes_explored": solution.stats.nodes_explored,
            "relaxations_solved": solution.stats.relaxations_solved,
        },
    }


def chain_solution_chains_from_dict(data) -> list[tuple[int, list[tuple[int, int]]]]:
    """Extract (vehicle id, [(plan, delay), ...]) pairs for revalidation."""
    if _require(data, "schema", "solution") != CHAIN_SOLUTION_SCHEMA:
        raise InputError(f"expected schema {CHAIN_SOLUTION_SCHEMA}, got {data['schema']!r}")
    chains = []
    for c in _list_field(data, "chains", "solution"):
        links = [_int_fields(e, ("plan", "delay"), "chain link") for e in _list_field(c, "plans", "chain")]
        chains.append((_int_field(c, "vehicle", "chain"), links))
    return chains


def darp_solution_to_dict(solution: DarpSolution) -> dict:
    return {
        "schema": DARP_SOLUTION_SCHEMA,
        "method": solution.method,
        "batch_len": solution.batch_len,
        "objective": solution.objective,
        "routes": [
            {
                "vehicle": _doc(_VEHICLE_KEYS, astuple(v)),
                "stops": [_doc(_STOP_KEYS, astuple(s)) for s in plan.stops],
            }
            for v, plan in solution.routes
        ],
        "request_delays": [[rid, delay] for rid, delay in solution.request_delays],
    }


# -- metric CSVs ------------------------------------------------------------

def metrics_csv_text(rows) -> str:
    """rows: (method, batch_len, total_cost, used_vehicles, comp_time_ms)."""
    lines = ["method,batch_len,total_cost,used_vehicles,comp_time_ms"]
    for method, batch_len, total_cost, used, comp_ms in rows:
        lines.append(f"{method},{'' if batch_len is None else batch_len},{total_cost},{used},{comp_ms}")
    return "\n".join(lines) + "\n"


def histogram_csv_text(pairs) -> str:
    lines = ["bucket,mass"]
    for bucket, mass in pairs:
        lines.append(f"{bucket},{mass}")
    return "\n".join(lines) + "\n"


def write_metrics_files(directory, solution: DarpSolution, metrics: Metrics, comp_time_ms: int) -> None:
    directory = Path(directory)
    row = (solution.method, solution.batch_len, metrics.total_cost, metrics.used_vehicles, comp_time_ms)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "metrics.csv").write_text(metrics_csv_text([row]), encoding="utf-8")
        (directory / "occupancy.csv").write_text(histogram_csv_text(metrics.occupancy), encoding="utf-8")
        (directory / "delay.csv").write_text(histogram_csv_text(metrics.delays), encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write metrics to {directory}: {exc}") from exc


# -- seeded random generation ------------------------------------------------

@dataclass(frozen=True)
class ChainGenParams:
    """Knobs for random chaining instances; same params + seed = same bytes."""

    seed: int
    plans: int = 5
    vehicles: int = 2
    locations: int = 6
    horizon: int = 60
    t_or_min: int = 0
    d_max_range: tuple[int, int] = (0, 10)
    extra_duration_range: tuple[int, int] = (0, 6)
    grid_size: int = 12
    t_st_max: int = 10
    fleet: str = "counted"  # counted | dedicated
    policy: CostPolicy = field(default_factory=TravelCost)

    def __post_init__(self) -> None:
        if min(self.plans, self.vehicles, self.locations, self.horizon) < 0:
            raise InputError("generator counts must be non-negative")
        if self.locations == 0 and (self.plans or self.vehicles):
            raise InputError("cannot place plans or vehicles without locations")
        if self.fleet not in ("counted", "dedicated"):
            raise InputError(f"unknown fleet mode {self.fleet!r}")
        if self.locations and self.grid_size < 1 or self.t_st_max < 0:
            raise InputError("the grid size must be positive and t_st_max non-negative")
        _check_ranges(self, "d_max_range", "extra_duration_range")


def _check_ranges(params, *names: str) -> None:
    """Refuse a (lo, hi) range field of ``params`` with lo > hi, which no draw can satisfy."""
    for name in names:
        lo, hi = getattr(params, name)
        if lo > hi:
            raise InputError(f"{name} ({lo}, {hi}) is empty")


def generate_chain_instance(params: ChainGenParams) -> dict:
    """Random chaining instance as a schema dict, deterministic in the seed."""
    rng = random.Random(params.seed)
    coords = [(rng.randrange(params.grid_size), rng.randrange(params.grid_size)) for _ in range(params.locations)]
    travel = TravelMatrix.from_coordinates(coords)
    plans = []
    for i in range(1, params.plans + 1):
        origin = rng.randrange(params.locations)
        dest = rng.randrange(params.locations)
        t_or = rng.randint(min(params.t_or_min, params.horizon), params.horizon)
        t_de = t_or + travel.duration(origin, dest) + rng.randint(*params.extra_duration_range)
        plans.append((i, origin, dest, t_or, t_de, rng.randint(*params.d_max_range)))
    if params.fleet == "dedicated":
        vehicles = [(pid, origin, 0) for pid, origin, *_ in plans]
    else:
        vehicles = [
            (i, rng.randrange(params.locations), rng.randrange(params.t_st_max + 1))
            for i in range(1, params.vehicles + 1)
        ]
    return {
        "schema": CHAIN_INSTANCE_SCHEMA,
        "locations": {"count": params.locations},
        "travel": {"grid": {"coordinates": [list(c) for c in coords], "ticks_per_unit": 1}},
        "plans": [_doc(_PLAN_KEYS, p) for p in plans],
        "vehicles": [_doc(_VEHICLE_KEYS, v) for v in vehicles],
        "policy": policy_to_dict(params.policy),
    }


def chain_instance_from_params(params: ChainGenParams) -> ChainingInstance:
    return chain_instance_from_dict(generate_chain_instance(params))


@dataclass(frozen=True)
class DarpGenParams:
    """Knobs for random DARP instances; same params + seed = same bytes."""

    seed: int
    requests: int = 8
    locations: int = 8
    horizon: int = 40
    delay_range: tuple[int, int] = (0, 15)
    capacity: int = 4
    fleet_size: int | None = None  # None selects the auto fleet

    def __post_init__(self) -> None:
        if min(self.requests, self.locations, self.horizon, self.fleet_size or 0) < 0 or self.capacity < 1:
            raise InputError("generator counts must be non-negative and capacity positive")
        if self.locations == 0 and self.requests:
            raise InputError("cannot place requests without locations")
        _check_ranges(self, "delay_range")


def generate_darp_instance(params: DarpGenParams) -> dict:
    """A random DARP instance document; its locations lie on a 10 x 10 Manhattan grid."""
    rng = random.Random(params.seed)
    coords = [(rng.randrange(10), rng.randrange(10)) for _ in range(params.locations)]
    requests = []
    for i in range(1, params.requests + 1):
        origin = rng.randrange(params.locations)
        dest = rng.randrange(params.locations)
        if params.locations > 1:
            while dest == origin:
                dest = rng.randrange(params.locations)
        requests.append((i, origin, dest, rng.randrange(params.horizon + 1), rng.randint(*params.delay_range)))
    if params.fleet_size is None:
        fleet = {"mode": "auto"}
    else:
        # vehicles idle where demand appears: one per request origin, extras random
        origins = [origin for _, origin, *_ in requests]
        vehicles = [
            (i, origins[i - 1] if i <= len(origins) else rng.randrange(params.locations), 0)
            for i in range(1, params.fleet_size + 1)
        ]
        fleet = {"mode": "explicit", "vehicles": [_doc(_VEHICLE_KEYS, v) for v in vehicles]}
    return {
        "schema": DARP_INSTANCE_SCHEMA,
        "locations": {"count": params.locations},
        "travel": {"grid": {"coordinates": [list(c) for c in coords], "ticks_per_unit": 1}},
        "requests": [_doc(_REQUEST_KEYS, r) for r in requests],
        "capacity": params.capacity,
        "fleet": fleet,
    }


def darp_instance_from_params(params: DarpGenParams) -> DarpInstance:
    return darp_instance_from_dict(generate_darp_instance(params))
