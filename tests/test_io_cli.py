import copy
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planchain
from planchain import cli
from planchain import instances as io
from planchain.cli import main
from planchain.chainsolve import solve_chaining
from planchain.darp import AUTO_FLEET, DarpInstance, DarpSolution, Request, RoutePlan, Stop
from planchain.errors import InputError
from planchain.model import TravelCostWaitCapped, TravelCostWaitPenalized, TravelMatrix, Vehicle

from conftest import fractional_penalty_gap_instance, make_e1, waitcap_gap_instance
from scalar_twins import full_variant_optimal

DATA = Path(__file__).parent / "data"


def test_e1_golden_file_round_trip():
    loaded = io.load_instance(DATA / "e1.chain.json")
    assert loaded == make_e1()
    assert io.canonical_json_bytes(io.chain_instance_to_dict(loaded)) == (DATA / "e1.chain.json").read_bytes()


# the DARP golden files: every field of a record differs from the others,
# so a file key that moves to another field changes what loads; the
# solution is the insertion heuristic's on the explicit fleet, and only
# written (no reader takes DARP solution files)
D1_FLEET = (Vehicle(1, 0, 2), Vehicle(2, 1, 3))
D1_IH_SOLUTION = DarpSolution(
    "ih",
    None,
    ((D1_FLEET[0], RoutePlan((
        Stop(1, "pickup", 0, 3), Stop(1, "dropoff", 2, 7), Stop(2, "pickup", 1, 9), Stop(2, "dropoff", 0, 11)
    ))),),
    8,
    ((1, 0), (2, 2)),
)


def make_d1(fleet):
    travel = TravelMatrix([[0, 2, 4], [2, 0, 2], [4, 2, 0]])
    return DarpInstance((Request(1, 0, 2, 3, 5), Request(2, 1, 0, 7, 4)), travel, 2, fleet)


@pytest.mark.parametrize(
    "name, expected, load, dump",
    [
        ("d1.darp.json", make_d1(D1_FLEET), io.load_instance, io.darp_instance_to_dict),
        ("d1-auto.darp.json", make_d1(AUTO_FLEET), io.load_instance, io.darp_instance_to_dict),
        ("d1-ih.solution.json", D1_IH_SOLUTION, None, io.darp_solution_to_dict),
    ],
)
def test_darp_golden_files_round_trip(name, expected, load, dump):
    if load is not None:
        assert load(DATA / name) == expected
    assert io.canonical_json_bytes(dump(expected)) == (DATA / name).read_bytes()


# a change to a generator's draw order changes these bytes
@pytest.mark.parametrize(
    "argv, digest",
    [
        (["gen", "chain", "--seed", "9"], "47d5814040539783c028565a7683a295b28d01f60f1b95d79dc117c90bd53268"),
        (
            ["gen", "darp", "--seed", "4", "--fleet-size", "6"],
            "cd0ed6bfe42f7be82cd8d5761e8043ea0582ae70738cdc0cedbe6dfddd80dcad",
        ),
    ],
)
def test_cli_gen_output_is_pinned(tmp_path, argv, digest):
    out = tmp_path / "gen.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_instance_save_load_identity(tmp_path):
    inst = io.chain_instance_from_params(io.ChainGenParams(seed=11, plans=6, vehicles=3))
    path = tmp_path / "inst.json"
    io.save_json(path, io.chain_instance_to_dict(inst))
    assert io.load_instance(path) == inst
    dinst = io.darp_instance_from_params(io.DarpGenParams(seed=4, requests=6, fleet_size=6))
    dpath = tmp_path / "darp.json"
    io.save_json(dpath, io.darp_instance_to_dict(dinst))
    assert io.load_instance(dpath) == dinst
    auto = io.darp_instance_from_params(io.DarpGenParams(seed=4, requests=6))
    io.save_json(dpath, io.darp_instance_to_dict(auto))
    assert io.load_instance(dpath) == auto


def test_solution_save_load_identity(tmp_path):
    inst = make_e1()
    solution = solve_chaining(inst)
    d = io.chain_solution_to_dict(solution, inst.policy)
    path = tmp_path / "sol.json"
    io.save_json(path, d)
    assert io.load_json(path) == d
    chains = io.chain_solution_chains_from_dict(io.load_json(path))
    assert chains == [(1, [(1, 0), (2, 1)])]


def test_semantic_errors_name_the_culprit(tmp_path):
    data = io.chain_instance_to_dict(make_e1())
    data["plans"][0]["t_or"] = 99
    path = tmp_path / "bad.json"
    io.save_json(path, data)
    with pytest.raises(InputError) as err:
        io.load_instance(path)
    assert "plan 1" in str(err.value)

    data = io.chain_instance_to_dict(make_e1())
    data["travel"]["matrix"][0][1] = -2
    io.save_json(path, data)
    with pytest.raises(InputError) as err:
        io.load_instance(path)
    assert "non-negative" in str(err.value)

    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(InputError) as err:
        io.load_instance(path)
    assert "line 1" in str(err.value)


def _instance_doc(kind, travel):
    if kind == "chain":
        doc = io.chain_instance_to_dict(make_e1())
    else:
        params = io.DarpGenParams(seed=4, requests=3, locations=3, fleet_size=2)
        doc = io.darp_instance_to_dict(io.darp_instance_from_params(params))
    if travel == "grid":
        doc["travel"] = {"grid": {"coordinates": [[0, 0], [2, 0], [4, 0]], "ticks_per_unit": 1}}
    return doc


# the list sections each schema names by these placeholders
SECTIONS = {
    "chain": {"ITEMS": ("plans",), "VEHICLES": ("vehicles",)},
    "darp": {"ITEMS": ("requests",), "VEHICLES": ("fleet", "vehicles")},
}
# mutation -> (travel section, [(path, value), ...])
MALFORMED = {
    "items-object": ("matrix", [(("ITEMS",), {"id": 1})]),
    "items-number": ("matrix", [(("ITEMS",), 3)]),
    "item-not-object": ("matrix", [(("ITEMS", 0), 7)]),
    "vehicles-object": ("matrix", [(("VEHICLES",), {})]),
    "vehicles-string": ("matrix", [(("VEHICLES",), "v1")]),
    "locations-number": ("matrix", [(("locations",), 3)]),
    "travel-list": ("matrix", [(("travel",), [[0]])]),
    "matrix-number": ("matrix", [(("travel", "matrix"), 5)]),
    "matrix-flat": ("matrix", [(("travel", "matrix"), [0, 1, 2])]),
    "matrix-float": ("matrix", [(("travel", "matrix", 0, 1), 1.5)]),
    "matrix-string": ("matrix", [(("travel", "matrix", 0, 1), "2")]),
    "matrix-null": ("matrix", [(("travel", "matrix", 0, 1), None)]),
    "matrix-beyond-int64": ("matrix", [(("travel", "matrix", 0, 1), 2**63)]),
    "matrix-below-int64": ("matrix", [(("travel", "matrix", 0, 1), -(2**63) - 1)]),
    "coordinates-number": ("grid", [(("travel", "grid", "coordinates"), 5)]),
    "coordinate-number": ("grid", [(("travel", "grid", "coordinates", 0), 3)]),
    "coordinate-float": ("grid", [(("travel", "grid", "coordinates", 0, 0), 0.5)]),
    "coordinate-beyond-int64": ("grid", [(("travel", "grid", "coordinates", 0, 0), 2**70)]),
    "coordinate-ragged": ("grid", [(("travel", "grid", "coordinates", 0), [0])]),
    "distance-beyond-int64": (
        "grid",
        [(("travel", "grid", "coordinates", 0, 0), 2**62), (("travel", "grid", "coordinates", 1, 0), -(2**62))],
    ),
    "ticks-string": ("grid", [(("travel", "grid", "ticks_per_unit"), "2")]),
    "ticks-float": ("grid", [(("travel", "grid", "ticks_per_unit"), 1.5)]),
    "ticks-beyond-int64": ("grid", [(("travel", "grid", "ticks_per_unit"), 2**70)]),
}


DELETE = object()  # an edit value that removes the field
# solution loaders: mutation -> [(path, value), ...], applied to a solved document
SOLUTION_MALFORMED = {
    "chain-solution": {
        "top-level-list": [((), ["chains"])],
        "chains-missing": [(("chains",), DELETE)],
        "chains-object": [(("chains",), {})],
        "vehicle-missing": [(("chains", 0, "vehicle"), DELETE)],
        "vehicle-string": [(("chains", 0, "vehicle"), "1")],
        "plans-number": [(("chains", 0, "plans"), 2)],
        "link-not-object": [(("chains", 0, "plans", 0), [1, 0])],
        "plan-float": [(("chains", 0, "plans", 0, "plan"), 2.7)],
        "plan-bool": [(("chains", 0, "plans", 0, "plan"), True)],
        "delay-string": [(("chains", 0, "plans", 1, "delay"), "3")],
    },
}
MALFORMED_CASES = [(m, kind) for m in sorted(MALFORMED) for kind in ("chain", "darp")] + [
    (m, kind) for kind, cases in SOLUTION_MALFORMED.items() for m in sorted(cases)
]


def _solution_doc():
    return io.chain_solution_to_dict(solve_chaining(make_e1()), make_e1().policy)


@pytest.mark.parametrize("mutation, kind", MALFORMED_CASES)
def test_loaders_reject_malformed_sections(kind, mutation):
    # an empty path replaces the whole document
    if kind in SOLUTION_MALFORMED:
        doc, edits = _solution_doc(), SOLUTION_MALFORMED[kind][mutation]
        load = io.chain_solution_chains_from_dict
    else:
        travel, edits = MALFORMED[mutation]
        doc = _instance_doc(kind, travel)
        edits = [([k for key in path for k in SECTIONS[kind].get(key, (key,))], value) for path, value in edits]
        load = io.chain_instance_from_dict if kind == "chain" else io.darp_instance_from_dict
    for path, value in edits:
        doc = _edited(doc, path, value)
    with pytest.raises(InputError):
        load(doc)


def _edited(doc, path, value):
    """``doc`` with the field at ``path`` set to ``value`` or deleted; an empty path replaces ``doc``.

    The value is copied in, so that later edits inside it leave the shared one alone.
    """
    if not path:
        return copy.deepcopy(value)
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = copy.deepcopy(value)
    return doc


def _field_paths(doc, prefix=()):
    """The path of ``doc`` itself and of every field and list item inside it."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _field_paths(value, prefix + (key,))


FUZZ_LOADERS = {
    "chain-matrix": (lambda: _instance_doc("chain", "matrix"), io.chain_instance_from_dict),
    "chain-grid": (lambda: _instance_doc("chain", "grid"), io.chain_instance_from_dict),
    "darp-matrix": (lambda: _instance_doc("darp", "matrix"), io.darp_instance_from_dict),
    "darp-grid": (lambda: _instance_doc("darp", "grid"), io.darp_instance_from_dict),
    "chain-solution": (_solution_doc, io.chain_solution_chains_from_dict),
}
FUZZ_DOCS = {kind: make() for kind, (make, _) in FUZZ_LOADERS.items()}
# values of the wrong type or out of range for any field
FUZZ_VALUES = (
    None, True, -1, 0, 2**60, 2**63, -(2**63) - 1, 2**70, 1.5, float("nan"), "", "7", "cost", [], [[]], [0], {}, {"kind": 3}
)


@settings(derandomize=True, max_examples=1500, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(FUZZ_LOADERS)), mutations=st.integers(1, 4))
def test_loaders_raise_only_input_error_when_fields_change(data, kind, mutations):
    # 1-4 fields (or list items, or the whole document) replaced or deleted in turn
    doc = copy.deepcopy(FUZZ_DOCS[kind])
    for _ in range(mutations):
        path = data.draw(st.sampled_from(list(_field_paths(doc))))
        value = data.draw(st.sampled_from((DELETE,) + FUZZ_VALUES) if path else st.sampled_from(FUZZ_VALUES))
        doc = _edited(doc, path, value)
    try:
        FUZZ_LOADERS[kind][1](doc)
    except InputError:
        pass


def test_cli_rejects_malformed_instance(tmp_path, capsys):
    doc = _instance_doc("chain", "matrix")
    doc["travel"]["matrix"][0][1] = 2**63
    path = tmp_path / "overflow.json"
    io.save_json(path, doc)
    assert main(["chain", "solve", "--instance", str(path), "--out", str(tmp_path / "x.json")]) == 2
    assert capsys.readouterr().err.startswith("input error: ")
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("section, field", [("plans", "t_de"), ("vehicles", "t_st")])
def test_cli_rejects_ticks_beyond_the_limit(tmp_path, capsys, section, field):
    doc = _instance_doc("chain", "matrix")
    doc[section][-1][field] = 2**70
    path = tmp_path / "ticks.json"
    io.save_json(path, doc)
    assert main(["chain", "solve", "--instance", str(path), "--out", str(tmp_path / "x.json")]) == 2
    assert capsys.readouterr().err.startswith("input error: ")


def test_cli_fences_the_wait_penalty(tmp_path, capsys):
    out = tmp_path / "x.json"
    for alpha in ("1000000000000000000", "4611686018427387904"):
        args = ["chain", "solve", "--instance", str(DATA / "e1.chain.json"), "--policy", f"cost-waitpen:{alpha}"]
        assert main(args + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "validation:" not in err
        assert not out.exists()
    args = ["chain", "solve", "--instance", str(DATA / "e1.chain.json"), "--policy", "cost-waitpen:2"]
    assert main(args + ["--out", str(out)]) == 0
    assert json.loads(out.read_text())["objective"] == 12


def test_cli_fences_the_wait_penalty_on_the_exhaustive_path(tmp_path, capsys):
    # the penalty is about 1 per tick, but 2 * p * wait leaves int64; a
    # fractional penalty sends the solve to exhaustive variants
    alpha = f"{2**62 + 1}/{2**62}"
    out = tmp_path / "x.json"
    args = ["chain", "solve", "--instance", str(DATA / "e1.chain.json"), "--policy", f"cost-waitpen:{alpha}"]
    assert main(args + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("input error: wait penalty")
    assert not out.exists()
    instance = io.load_instance(DATA / "e1.chain.json").with_policy(io.policy_from_cli(f"cost-waitpen:{alpha}"))
    with pytest.raises(InputError, match="wait penalty"):
        full_variant_optimal(instance)


def test_policy_round_trip_and_cli_syntax():
    for policy in (
        io.policy_from_cli("fleet"),
        io.policy_from_cli("cost"),
        io.policy_from_cli("cost-waitcap:7"),
        io.policy_from_cli("cost-waitpen:1/2"),
        io.policy_from_cli("cost-waitpen:2"),
    ):
        assert io.policy_from_dict(io.policy_to_dict(policy)) == policy
    assert io.policy_from_cli("cost-waitcap:7") == TravelCostWaitCapped(7)
    assert io.policy_from_cli("cost-waitpen:1/2") == TravelCostWaitPenalized(Fraction(1, 2))
    with pytest.raises(InputError):
        io.policy_from_cli("nonsense")


def test_generator_determinism():
    params = io.ChainGenParams(seed=42, plans=7, vehicles=3)
    a = io.canonical_json_bytes(io.generate_chain_instance(params))
    b = io.canonical_json_bytes(io.generate_chain_instance(params))
    assert a == b
    dparams = io.DarpGenParams(seed=42, requests=9, fleet_size=9)
    assert io.canonical_json_bytes(io.generate_darp_instance(dparams)) == io.canonical_json_bytes(
        io.generate_darp_instance(dparams)
    )


def test_generator_boundary_params():
    empty = io.chain_instance_from_params(io.ChainGenParams(seed=1, plans=0, vehicles=0, locations=1))
    assert empty.plans == () and empty.vehicles == ()
    zero_delay = io.chain_instance_from_params(io.ChainGenParams(seed=1, plans=5, d_max_range=(0, 0)))
    assert all(p.d_max == 0 for p in zero_delay.plans)
    nowhere = io.chain_instance_from_params(io.ChainGenParams(seed=1, plans=0, vehicles=0, locations=0, grid_size=0))
    assert nowhere.plans == () and nowhere.vehicles == ()
    dedicated = io.chain_instance_from_params(io.ChainGenParams(seed=1, plans=4, fleet="dedicated"))
    assert len(dedicated.vehicles) == 4
    origins = {p.origin_location for p in dedicated.plans}
    assert {v.start_location for v in dedicated.vehicles} == origins


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: io.ChainGenParams(seed=1, d_max_range=(5, 2)), "d_max_range (5, 2) is empty"),
        (lambda: io.ChainGenParams(seed=1, extra_duration_range=(3, 1)), "extra_duration_range (3, 1) is empty"),
        (lambda: io.ChainGenParams(seed=1, grid_size=0), "the grid size must be positive and t_st_max non-negative"),
        (lambda: io.ChainGenParams(seed=1, t_st_max=-1), "the grid size must be positive and t_st_max non-negative"),
        (lambda: io.DarpGenParams(seed=1, delay_range=(9, 0)), "delay_range (9, 0) is empty"),
    ],
)
def test_generator_params_that_no_draw_satisfies_are_input_errors(make, message):
    # each once reached ``random`` and raised its ValueError from inside generation
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        make()


def test_cli_chain_solve_e1(tmp_path, capsys):
    out = tmp_path / "solution.json"
    code = main(["chain", "solve", "--instance", str(DATA / "e1.chain.json"), "--policy", "cost", "--out", str(out)])
    assert code == 0
    assert re.fullmatch(r"solved in \d+ ms\n", capsys.readouterr().err)
    data = json.loads(out.read_text())
    assert data["objective"] == 2
    assert data["chains"] == [
        {"vehicle": 1, "plans": [
            {"plan": 1, "delay": 0, "cost": 0, "wait": 5},
            {"plan": 2, "delay": 1, "cost": 2, "wait": 0},
        ]}
    ]


def test_cli_chain_solve_infeasible(tmp_path):
    data = io.chain_instance_to_dict(make_e1())
    data["vehicles"] = []
    inst_path = tmp_path / "noveh.json"
    io.save_json(inst_path, data)
    code = main(["chain", "solve", "--instance", str(inst_path), "--out", str(tmp_path / "x.json")])
    assert code == 1


@pytest.mark.parametrize("make", [waitcap_gap_instance, fractional_penalty_gap_instance])
def test_cli_solves_the_variant_gap_instances_exactly(tmp_path, make):
    # minimal variants miss the optimum 1 on both; the CLI has no way to ask for them
    path, out = tmp_path / "gap.json", tmp_path / "x.json"
    io.save_json(path, io.chain_instance_to_dict(make()))
    args = ["chain", "solve", "--instance", str(path), "--out", str(out)]
    assert main(args) == 0
    assert json.loads(out.read_text())["objective"] == 1
    with pytest.raises(SystemExit) as exited:
        main(args + ["--variants", "minimal"])
    assert exited.value.code == 2


def test_cli_exit_codes(tmp_path):
    missing = main(["chain", "solve", "--instance", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x.json")])
    assert missing == 2
    # oracle guard: more than nine plans
    gen = main([
        "gen", "chain", "--seed", "1", "--plans", "10", "--vehicles", "3",
        "--out", str(tmp_path / "big.json"),
    ])
    assert gen == 0
    assert main(["chain", "oracle", "--instance", str(tmp_path / "big.json")]) == 3


@pytest.mark.parametrize(
    "kind, range_flag, message",
    [("chain", "--d-max-range=-5:-1", "plan 1: negative delay budget"),
     ("darp", "--delay-range=-3:-1", "request 1: negative delay budget"),
     ("chain", "--d-max-range=a:b", "bad range 'a:b', expected lo:hi"),
     ("darp", "--delay-range=5:1", "bad range '5:1': lo > hi"),
     ("darp", "--fleet-size=-3", "generator counts must be non-negative and capacity positive")],
)
def test_cli_gen_writes_no_document_the_loader_rejects(tmp_path, capsys, kind, range_flag, message):
    out = tmp_path / "x.json"
    assert main(["gen", kind, "--seed", "1", range_flag, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not out.exists()


# case -> (instance kind, instance edits, command line, message); "{path}"
# stands for the edited instance's file
CLI_INPUT_ERRORS = {
    "bad-wait-cap": ("chain", [], ["chain", "solve", "--policy", "cost-waitcap:x"], "bad wait cap in 'cost-waitcap:x'"),
    "bad-wait-penalty": (
        "chain", [], ["chain", "solve", "--policy", "cost-waitpen:1/0"], "bad wait penalty in 'cost-waitpen:1/0'"
    ),
    "policy-bad-wait-penalty": (
        "chain", [(("policy",), {"kind": "cost-waitpen", "alpha": "1/0"})], ["chain", "solve"],
        "policy: bad wait penalty '1/0'",
    ),
    "policy-unknown-kind": (
        "chain", [(("policy",), {"kind": "speed"})], ["chain", "solve"], "policy: unknown kind 'speed'"
    ),
    "fleet-unknown-mode": (
        "darp", [(("fleet", "mode"), "fixed")], ["darp", "run", "--method", "ih"], "fleet: unknown mode 'fixed'"
    ),
    "top-level-list": ("chain", [((), [])], ["chain", "solve"], "{path}: top level must be an object"),
    "plans-and-requests": (
        "chain", [(("requests",), [])], ["chain", "solve"], "{path}: exactly one of 'plans' or 'requests' may be present"
    ),
    "unknown-schema": ("chain", [(("schema",), "other")], ["chain", "solve"], "{path}: unknown schema 'other'"),
    "duplicate-request-id": (
        "darp", [(("requests", 1, "id"), 1)], ["darp", "run", "--method", "ih"], "duplicate request id 1"
    ),
    "duplicate-vehicle-id": (
        "darp", [(("fleet", "vehicles", 1, "id"), 1)], ["darp", "run", "--method", "ih"], "duplicate vehicle id 1"
    ),
    "duplicate-plan-id": ("chain", [(("plans", 1, "id"), 1)], ["chain", "solve"], "duplicate plan id 1"),
    "duplicate-chain-vehicle-id": (
        "chain", [(("vehicles",), [{"id": 1, "location": 0, "t_st": 0}, {"id": 1, "location": 1, "t_st": 4}])],
        ["chain", "solve"], "duplicate vehicle id 1",
    ),
    "plan-location-outside": (
        "chain", [(("plans", 1, "destination"), 3)], ["chain", "solve"], "plan 2: location 3 outside travel matrix"
    ),
    "chain-vehicle-location-outside": (
        "chain", [(("vehicles", 0, "location"), -1)], ["chain", "solve"],
        "vehicle 1: location -1 outside travel matrix",
    ),
    "request-location-outside": (
        "darp", [(("requests", 2, "origin"), 3)], ["darp", "run", "--method", "ih"],
        "request 3: location 3 outside travel matrix",
    ),
    "fleet-vehicle-location-outside": (
        "darp", [(("fleet", "vehicles", 1, "location"), -1)], ["darp", "run", "--method", "ih"],
        "vehicle 2: location -1 outside travel matrix",
    ),
    # a decimal exponent this large took seconds, or never ended, in ``Fraction``
    "huge-exponent-wait-penalty": (
        "chain", [], ["chain", "solve", "--policy", "cost-waitpen:1e5000"], "bad wait penalty in 'cost-waitpen:1e5000'"
    ),
    "policy-huge-exponent-wait-penalty": (
        "chain", [(("policy",), {"kind": "cost-waitpen", "alpha": "1e5000"})], ["chain", "solve"],
        "policy: bad wait penalty '1e5000'",
    ),
    "huger-exponent-wait-penalty": (
        "chain", [], ["chain", "solve", "--policy", "cost-waitpen:1e10000000"],
        "bad wait penalty in 'cost-waitpen:1e10000000'",
    ),
    "policy-negative-huger-exponent-wait-penalty": (
        "chain", [(("policy",), {"kind": "cost-waitpen", "alpha": "1e-10000000"})], ["chain", "solve"],
        "policy: bad wait penalty '1e-10000000'",
    ),
    "zero-batch-length": (
        "darp", [], ["darp", "run", "--method", "proposed", "--batch-secs", "0"], "batch length must be at least one tick"
    ),
    "negative-time-limit": (
        "darp", [], ["darp", "run", "--method", "proposed", "--batch-secs", "10", "--time-limit-ms", "-5"],
        "time limit must be non-negative, got -5 ms",
    ),
    "negative-time-limit-single-batch": (
        "darp", [], ["darp", "run", "--method", "single-batch", "--time-limit-ms", "-5"],
        "time limit must be non-negative, got -5 ms",
    ),
    # a limit past the float range once made the deadline an OverflowError traceback
    "huge-time-limit": (
        "darp", [], ["darp", "run", "--method", "proposed", "--batch-secs", "10", "--time-limit-ms", "9" * 400],
        "time limit must be below 2^63 ms",
    ),
    "huge-time-limit-single-batch": (
        "darp", [], ["darp", "run", "--method", "single-batch", "--time-limit-ms", str(2**63)],
        "time limit must be below 2^63 ms",
    ),
    # a cap past int64 once made variant generation an OverflowError traceback
    "huge-wait-cap": (
        "chain", [], ["chain", "solve", "--policy", "cost-waitcap:99999999999999999999"], "wait cap must be below 2^60"
    ),
    "policy-huge-wait-cap": (
        "chain", [(("policy",), {"kind": "cost-waitcap", "delta": 2**60})], ["chain", "solve"],
        "wait cap must be below 2^60",
    ),
    "darp-huge-wait-cap": (
        "darp", [], ["darp", "run", "--method", "proposed", "--batch-secs", "10", "--wait-cap", "99999999999999999999"],
        "wait cap must be below 2^60",
    ),
}


@pytest.mark.parametrize("case", sorted(CLI_INPUT_ERRORS))
def test_cli_reports_input_errors_by_message(tmp_path, capsys, case):
    kind, edits, command, message = CLI_INPUT_ERRORS[case]
    doc, path, out = _instance_doc(kind, "matrix"), tmp_path / "instance.json", tmp_path / "x.json"
    for field, value in edits:
        doc = _edited(doc, field, value)
    io.save_json(path, doc)
    assert main(command + ["--instance", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"input error: {message.format(path=path)}\n"
    assert not out.exists()


@pytest.mark.parametrize("case", [case for case in sorted(CLI_INPUT_ERRORS) if "exponent" in case])
def test_cli_refuses_a_huge_penalty_exponent_within_a_second(tmp_path, capsys, case):
    started = time.perf_counter()
    test_cli_reports_input_errors_by_message(tmp_path, capsys, case)
    assert time.perf_counter() - started < 1


@pytest.mark.parametrize("alpha", [Fraction(2**63), Fraction(1, 2**63), Fraction(10**5000 + 1, 10**5000)])
def test_wait_penalty_beyond_int64_is_an_input_error_without_digits(alpha):
    with pytest.raises(InputError, match="^wait penalty numerator or denominator outside the int64 range$"):
        TravelCostWaitPenalized(alpha)


def test_integer_wait_penalty_past_the_digit_limit_is_an_input_error_without_digits():
    # the penalty's own error message must not spell the integer out
    for alpha, message in ((10**5000, "numerator or denominator outside the int64 range"), (-(10**5000), "must be non-negative")):
        with pytest.raises(InputError, match=f"^wait penalty {message}$"):
            io.policy_from_dict({"kind": "cost-waitpen", "alpha": alpha})
    assert io.policy_from_dict({"kind": "cost-waitpen", "alpha": 3}) == TravelCostWaitPenalized(Fraction(3))


def test_grid_points_without_coordinates_are_all_at_distance_zero():
    # k points of dimension 0 give the k x k zero matrix; only no points give 0 x 0
    doc = _instance_doc("chain", "grid")
    doc["travel"]["grid"]["coordinates"] = [[], [], []]
    inst = io.chain_instance_from_dict(doc)
    assert inst.travel.array.tolist() == [[0] * 3] * 3
    assert solve_chaining(inst).objective == 0
    assert TravelMatrix.from_coordinates([]).size == 0


def test_cli_rejects_an_integer_past_the_digit_limit(tmp_path, capsys):
    text = (DATA / "e1.chain.json").read_text(encoding="utf-8").replace('"t_st": 0', '"t_st": 1' + "0" * 5000)
    path = tmp_path / "digits.json"
    path.write_text(text, encoding="utf-8")
    assert main(["chain", "solve", "--instance", str(path), "--out", str(tmp_path / "x.json")]) == 2
    assert capsys.readouterr().err == f"input error: {path}: an integer has too many digits to parse\n"


def test_cli_oracle_on_e1(capsys):
    assert main(["chain", "oracle", "--instance", str(DATA / "e1.chain.json")]) == 0
    assert "optimal objective 2" in capsys.readouterr().out


def test_cli_gen_and_darp_run(tmp_path):
    inst_path = tmp_path / "darp.json"
    assert main(["gen", "darp", "--seed", "5", "--requests", "6", "--fleet-size", "6", "--out", str(inst_path)]) == 0
    out = tmp_path / "sol.json"
    metrics_dir = tmp_path / "metrics"
    code = main([
        "darp", "run", "--instance", str(inst_path), "--method", "proposed",
        "--batch-secs", "10", "--out", str(out), "--metrics-dir", str(metrics_dir),
    ])
    assert code == 0
    assert (metrics_dir / "metrics.csv").exists()
    header, row = (metrics_dir / "metrics.csv").read_text().strip().splitlines()
    assert header == "method,batch_len,total_cost,used_vehicles,comp_time_ms"
    used = int(row.split(",")[3])
    assert used >= 1
    for name in ("occupancy.csv", "delay.csv"):
        lines = (metrics_dir / name).read_text().strip().splitlines()
        assert lines[0] == "bucket,mass"

    for method in ("ih", "single-batch"):
        assert main(["darp", "run", "--instance", str(inst_path), "--method", method, "--out", str(out)]) == 0

    assert main(["darp", "run", "--instance", str(inst_path), "--method", "proposed", "--out", str(out)]) == 2


def test_cli_rejects_a_non_utf8_instance(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"schema": "caf\xe9"}')
    assert main(["chain", "solve", "--instance", str(path), "--out", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and str(path) in err


def test_cli_rejects_a_deeply_nested_instance(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    assert main(["chain", "solve", "--instance", str(path), "--out", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and str(path) in err


def test_cli_rejects_outputs_in_a_missing_directory(tmp_path, capsys, monkeypatch):
    # the output paths are checked before the instance is loaded or solved
    inst_path = tmp_path / "darp.json"
    assert main(["gen", "darp", "--seed", "5", "--requests", "6", "--fleet-size", "6", "--out", str(inst_path)]) == 0
    capsys.readouterr()

    def never(*args, **kwargs):
        raise AssertionError("solver called")

    for name in ("solve_chaining", "insertion_heuristic", "run_proposed", "run_single_batch"):
        monkeypatch.setattr(cli, name, never)
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        assert main(["chain", "solve", "--instance", str(DATA / "e1.chain.json"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and str(out) in err
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    args = ["darp", "run", "--instance", str(inst_path), "--out", str(tmp_path / "s.json")]
    for method in ("ih", "proposed", "single-batch"):
        assert main(args + ["--method", method, "--batch-secs", "5", "--metrics-dir", str(blocker / "metrics")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and str(blocker / "metrics") in err
    assert not (tmp_path / "s.json").exists()
    out = blocker / "s.json"
    assert main(["darp", "run", "--instance", str(inst_path), "--method", "ih", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and str(out) in err


def _readme_cli_commands():
    """The ``planchain ...`` lines of the README's CLI block, continuations joined."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line.split("#", 1)[0])[1:] for line in lines if line.startswith("planchain ")]


def test_readme_cli_quick_start_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _readme_cli_commands()
    assert len(commands) >= 7
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)


def test_cli_wrong_instance_kind(tmp_path):
    code = main(["darp", "run", "--instance", str(DATA / "e1.chain.json"), "--method", "ih", "--out", str(tmp_path / "x.json")])
    assert code == 2


def test_cli_solution_files_are_deterministic(tmp_path):
    inst_path = tmp_path / "inst.json"
    main(["gen", "chain", "--seed", "9", "--plans", "6", "--vehicles", "3", "--out", str(inst_path)])
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["chain", "solve", "--instance", str(inst_path), "--out", str(out1)]) in (0, 1)
    assert main(["chain", "solve", "--instance", str(inst_path), "--out", str(out2)]) in (0, 1)
    if out1.exists():
        assert out1.read_bytes() == out2.read_bytes()


SOLVE_EVERY_PATH = """
import sys
from fractions import Fraction
import planchain as pc
from planchain.chainsolve import policy_needs_exhaustive_variants
from planchain.instances import ChainGenParams, DarpGenParams, chain_instance_from_params, darp_instance_from_params
print('scipy' in sys.modules)
exhaustive, nodes = set(), 0
policies = (pc.TravelCost(), pc.FleetSize(), pc.TravelCostWaitCapped(40), pc.TravelCostWaitPenalized(Fraction(2, 3)))
for policy in policies:
    inst = chain_instance_from_params(ChainGenParams(seed=9, plans=8, vehicles=4, horizon=150, policy=policy))
    solution = pc.solve_chaining(inst)
    assert pc.validate_chains(inst, solution.chains, solution.objective).ok
    exhaustive.add(policy_needs_exhaustive_variants(policy))
    nodes = max(nodes, solution.stats.nodes_explored)
darp = darp_instance_from_params(DarpGenParams(seed=4, requests=8, fleet_size=8))
for solution in (pc.run_proposed(darp, 10), pc.run_single_batch(darp), pc.insertion_heuristic(darp)):
    assert pc.validate_darp_solution(darp, solution) == []
print(sorted(exhaustive), nodes > 1, 'scipy' in sys.modules)
"""


def test_package_import_leaves_scipy_out():
    # scipy would add about 0.45 s to every fresh interpreter's set-up and
    # about 45 MB to its peak memory, so neither the import nor any solve
    # path may load it: minimal and exhaustive chaining with branching,
    # the three DARP methods and both validators
    src = str(Path(planchain.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", SOLVE_EVERY_PATH], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert done.stdout.split("\n")[:2] == ["False", "[False, True] True False"]
