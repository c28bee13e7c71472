import importlib
import importlib.util
import json
import math
import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torwave import (CSV_SCHEMAS, CoefficientTree, ContractError, DyadicCube,
                     ExperimentConfig, ExperimentReport, FileFormatError, Gate,
                     TorwaveError, UsageError, bilinear_decomposition, build_basis,
                     emit_report, grand_maximal, hardy_norm, lp_norm, lusin_area,
                     parse_operator, parse_report, read_hlf,
                     run_suite, sup_norm, synthesize, weak_lp_quasinorm, write_hlf)
from torwave.cli import main as cli_main
from torwave.samples import derive_rng, random_bmo, random_function, random_h1_tree
import torwave
import torwave.harness as harness


def _strip_wall_time(text: str) -> str:
    return re.sub(r'"wall_time": [^,\n]*', '"wall_time": 0', text)


def test_unknown_suite_lists_valid_names():
    with pytest.raises(UsageError, match="reconstruction"):
        ExperimentConfig(suite="nonsense").validate()


def test_config_validation():
    with pytest.raises(UsageError, match="powers of two"):
        ExperimentConfig(suite="reconstruction", resolutions=[100]).validate()
    with pytest.raises(UsageError):
        ExperimentConfig(suite="reconstruction", sample_count=0).validate()
    with pytest.raises(UsageError, match="unknown config fields"):
        ExperimentConfig.from_dict({"suite": "reconstruction", "bogus": 1})


def test_unknown_tolerance_name_is_a_usage_error(tmp_path, capsys):
    # a misspelled name must not leave the suite running at the default tolerance
    with pytest.raises(UsageError, match=r"unknown tolerance names \['identiy_rel'\]"):
        ExperimentConfig.from_dict({"suite": "product_identity",
                                    "tolerances": {"identiy_rel": 1e-3}})
    assert cli_main(["run", "--config", _write_config(
        tmp_path, tolerances={"identiy_rel": 1e-30})]) == 2
    assert "identity_rel" in capsys.readouterr().err


@pytest.mark.parametrize("value", [math.nan, -1.0, math.inf, 10 ** 400],
                         ids=["nan", "negative", "inf", "beyond-float"])
def test_tolerance_is_a_finite_number_at_least_zero(tmp_path, capsys, value):
    # NaN and a negative bound fail every case, inf switches the gate off, and
    # an integer beyond the float range cannot be read as a bound at all
    with pytest.raises(UsageError, match="bad config value tolerances"):
        ExperimentConfig.from_dict({"suite": "product_identity",
                                    "tolerances": {"identity_rel": value}})
    assert cli_main(["run", "--config", _write_config(
        tmp_path, tolerances={"identity_rel": value})]) == 2
    assert capsys.readouterr().err.startswith("error: bad config value tolerances")


@pytest.mark.parametrize("fields", [
    {"resolutions": "abc"}, {"resolutions": [256.0]}, {"resolutions": 256},
    {"resolutions": [True]}, {"sample_count": "3"}, {"sample_count": 2.5},
    {"root_seed": None}, {"root_seed": -1}, {"basis_family": 4}, {"dim": 3}, {"dim": 0},
    {"dim": 1.0}, {"dim": "2"}, {"coarse_level": "2"}, {"operator": 5}, {"tolerances": []},
    {"tolerances": {"identity_rel": "x"}}, {"output_path": 7},
], ids=lambda fields: json.dumps(fields))
def test_badly_typed_config_is_a_usage_error(fields):
    with pytest.raises(UsageError, match="bad config value"):
        ExperimentConfig.from_dict({"suite": "reconstruction", **fields})


@pytest.mark.parametrize("fields", [
    {"basis": "daubechies"}, {"basis": ["daubechies"]}, {"basis": ["daubechies", 4, 1]},
    {"basis": ["daubechies", "4"]},
], ids=lambda fields: json.dumps(fields))
def test_basis_is_no_config_field(fields):
    # the basis is named by basis_family and basis_order only
    with pytest.raises(UsageError, match="unknown config fields"):
        ExperimentConfig.from_dict({"suite": "reconstruction", **fields})


_JSON_LEAVES = st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70) \
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8) \
    | st.sampled_from(["reconstruction", "daubechies", "haar", "hilbert", "riesz1"]) \
    | st.sampled_from([0, 1, 2, 4, 256, 512])
_VALUES = st.recursive(_JSON_LEAVES, lambda inner: st.lists(inner, max_size=4)
                       | st.dictionaries(st.text(max_size=6) | st.integers(), inner,
                                         max_size=3), max_leaves=8)
_KEYS = st.sampled_from(["suite", "resolutions", "basis", "basis_family", "basis_order",
                         "sample_count", "root_seed", "tolerances", "output_path", "dim",
                         "coarse_level", "operator"]) | st.text(max_size=6) | st.integers()


@settings(max_examples=300, deadline=None)
@given(d=st.dictionaries(_KEYS, _VALUES, max_size=8),
       suite=st.none() | st.sampled_from(harness.SUITES))
def test_from_dict_yields_a_config_or_a_typed_error(d, suite):
    """Any dict becomes a validated config or a TorwaveError, never another
    exception."""
    if suite is not None:
        d = dict(d, suite=suite)
    try:
        cfg = ExperimentConfig.from_dict(d)
    except TorwaveError:
        return
    assert cfg.validate() is cfg


def test_config_must_be_an_object():
    with pytest.raises(UsageError, match="JSON object"):
        ExperimentConfig.from_dict([{"suite": "reconstruction"}])


@pytest.mark.parametrize("spec,dim", [
    ("identity", 1), ("identity", 2), ("hilbert", 1), ("riesz1", 1), ("riesz1", 2),
    ("riesz2", 2), ("ifrac:0.5", 1), ("ifrac:1.5", 2),
])
def test_parse_operator_linear_specs(spec, dim):
    T = parse_operator(spec, dim, 64)
    assert T.is_linear and T.dim == dim and T.name == spec


def test_parse_operator_sublinear_specs():
    assert parse_operator("maximal", 2, 32) is grand_maximal(2, 32)
    assert parse_operator("lusin", 1, 64) is lusin_area(1, 64)


@pytest.mark.parametrize("spec,dim", [
    ("rieszx", 2), ("riesz0", 2), ("riesz3", 2), ("riesz2", 1), ("riesz", 2),
    ("riesz-1", 2), ("ifrac:abc", 1), ("ifrac:", 1), ("ifrac:0.5:1", 1),
    ("ifrac:1.5", 1), ("ifrac:nan", 1), ("hilbert", 2), ("Hilbert", 1), ("", 1),
    ("maximal ", 1), ("frac:0.5", 1),
])
def test_parse_operator_rejects_other_specs(spec, dim):
    with pytest.raises(TorwaveError):
        parse_operator(spec, dim, 64)


@pytest.mark.parametrize("suite,operator", [
    ("commutator_identity", "rieszx"), ("commutator_identity", "riesz0"),
    ("commutator_identity", "ifrac:abc"), ("commutator_identity", "maximal"),
    ("commutator_identity", "riesz2"), ("sandwich", "hilbert"), ("sandwich", "max"),
])
def test_suites_reject_unusable_operators(suite, operator):
    cfg = ExperimentConfig(suite=suite, resolutions=[64], sample_count=1,
                           operator=operator)
    with pytest.raises((UsageError, ContractError)):
        run_suite(cfg)


OPERATOR_SPECS = ["identity", "hilbert", "riesz1", "riesz2", "ifrac:0.5", "maximal", "lusin"]


@pytest.mark.parametrize("N", [2, 4, 8, 16, 32])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("suite", harness.SUITES)
def test_every_suite_at_small_resolutions_reports_or_raises_a_typed_error(suite, dim, N):
    specs = OPERATOR_SPECS if suite in ("commutator_identity", "sandwich") else [None]
    for spec in specs:
        operator = {} if spec is None else {"operator": spec}
        cfg = ExperimentConfig(suite=suite, resolutions=[N], sample_count=2, dim=dim,
                               **operator)
        try:
            report = run_suite(cfg)
        except TorwaveError:
            continue
        assert isinstance(report, ExperimentReport) and isinstance(report.passed, bool)


def test_commutator_identity_runs_riesz1_in_the_config_dim():
    # in one dimension the first Riesz transform is the Hilbert transform
    def residuals(operator):
        report = run_suite(ExperimentConfig(suite="commutator_identity", resolutions=[64, 128],
                                            sample_count=3, root_seed=5, operator=operator))
        return [case["residual_rel"] for case in report.cases]

    assert residuals("riesz1") == residuals("hilbert")


def _perfbench_module(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_traced_names_resolve(monkeypatch):
    # perfbench/tracer.py rebinds these by name: a rename must fail here, not there
    tracer = _perfbench_module("tracer")
    assert tracer.FUNCTIONS and tracer.METHODS
    for module, name in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"torwave.{module}"), name))
    for module, cls, name in tracer.METHODS:
        owner = getattr(importlib.import_module(f"torwave.{module}"), cls)
        assert callable(getattr(owner, name))
    assert set(tracer.SUITES) <= set(harness.SUITES)
    # the set-up probe builds each workload's cached objects through the public API
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    setup_time = _perfbench_module("setup_time")
    for workload in setup_time.WORKLOADS:
        setup_time.construct(torwave, workload)


def test_deterministic_records():
    cfg = ExperimentConfig(suite="product_identity", resolutions=[128],
                           sample_count=3)
    r1 = run_suite(cfg)
    r2 = run_suite(cfg)
    assert r1.cases == r2.cases
    assert r1.summary == r2.summary
    assert _strip_wall_time(emit_report(r1)) == _strip_wall_time(emit_report(r2))


@pytest.mark.parametrize("operator", ["maximal", "lusin"])
def test_sandwich_2d(operator):
    # the two-sided envelope holds pointwise in n = 2 within the default slack
    cfg = ExperimentConfig(suite="sandwich", resolutions=[32, 64], dim=2,
                           operator=operator, sample_count=3, root_seed=204)
    rep = run_suite(cfg)
    assert len(rep.cases) == 6
    assert rep.passed, rep.summary


@pytest.mark.parametrize("dim, p", [(1, 2.0), (2, 4.0 / 3.0)])
def test_fractional_records_replay_through_the_library(dim, p):
    # case 0 of the stacked suite equals the one-case composition of the library,
    # with both quasinorms at the critical exponent n / (n - alpha), alpha = 1/2
    cfg = ExperimentConfig(suite="fractional", resolutions=[32], basis_order=2, dim=dim,
                           sample_count=2, root_seed=3)
    case = run_suite(cfg).cases[0]
    basis = cfg.basis()
    j0 = cfg.j0(basis)
    rng = derive_rng(3, 0, 0)
    f = synthesize(random_h1_tree(rng, dim, j0, 5), basis)
    b = random_bmo(rng, dim, 32)
    dec = bilinear_decomposition(b, parse_operator("ifrac:0.5", dim, 32), f, basis, j0)
    assert case["residual_rel"] == dec.residual_inf / (1.0 + sup_norm(dec.commutator))
    assert case["weak_quasinorm"] == weak_lp_quasinorm(dec.commutator, p)
    assert case["remainder_ratio"] == \
        lp_norm(dec.R_part, p) / hardy_norm(f, "H1_square", basis, j0)


def test_resolution_too_small_for_basis_propagates():
    from torwave import ResolutionError
    cfg = ExperimentConfig(suite="reconstruction", resolutions=[4], sample_count=1)
    with pytest.raises(ResolutionError):
        run_suite(cfg)


def test_cli_seed_override(tmp_path):
    cfg = _write_config(tmp_path)
    out1, out2, out3 = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    cli_main(["run", "--config", cfg, "--out", str(out1)])
    cli_main(["run", "--config", cfg, "--seed", "99", "--out", str(out2)])
    cli_main(["run", "--config", cfg, "--seed", "5", "--out", str(out3)])
    assert parse_report(str(out1)).cases != parse_report(str(out2)).cases
    assert parse_report(str(out1)).cases == parse_report(str(out3)).cases


def test_vacuous_suite_fails(monkeypatch):
    monkeypatch.setitem(harness._SUITE_FUNCS, "reconstruction",
                        lambda cfg: ([], {}, []))
    rep = run_suite(ExperimentConfig(suite="reconstruction"))
    assert not rep.passed
    assert "vacuous" in rep.summary


@pytest.mark.parametrize("gate, holds, margin", [
    (Gate("g", math.nan, 1.0, "<="), False, None),  # NaN never holds
    (Gate("g", math.inf, 1.0, "<"), False, 0.0),
    (Gate("g", 0.0, 1e-14, "<="), True, None),  # exact: bound / 0 is no number
    (Gate("g", 0.5, 2.0, "<"), True, 4.0),
    (Gate("g", 2.0, 2.0, "<"), False, 1.0),
    (Gate("g", 2.0, 2.0, "<="), True, 1.0),
    (Gate("g", 1.25, 1.0, ">"), True, 1.25),  # growth: measured / bound
    (Gate("g", 1.0, 1.0, ">"), False, 1.0),
    (Gate("g", 0.5, 1.0, ">"), False, 0.5),
    (Gate("g", math.nan, 1.0, ">"), False, None),
])
def test_gate_verdict_and_margin(gate, holds, margin):
    assert gate.holds() is holds
    assert gate.margin() == margin


def test_nan_case_fails_the_suite(monkeypatch):
    # a NaN residual must not vanish into a running max and leave the suite passing
    synthesize = harness.synthesize
    monkeypatch.setattr(harness, "synthesize",
                        lambda *args: synthesize(*args) * np.nan)
    rep = run_suite(ExperimentConfig(suite="reconstruction", resolutions=[64],
                                     sample_count=2))
    assert not rep.passed
    assert not any(case["ok"] for case in rep.cases)
    assert math.isnan(rep.summary["max_residual_rel"])
    assert rep.summary["margins"] == {"max_residual_rel": None}
    back = parse_report(emit_report(rep))
    assert math.isnan(back.summary["max_residual_rel"]) and not back.passed


def test_margins_are_recorded_and_printed(tmp_path, capsys):
    rep = run_suite(ExperimentConfig(suite="unboundedness_probe", resolutions=[256],
                                     sample_count=1))
    ratios = [case["ratio"] for case in rep.cases]
    assert rep.summary["margins"] == {
        "min_step_ratio": min(r1 / r0 for r0, r1 in zip(ratios, ratios[1:]))}
    assert cli_main(["run", "--config", _write_config(tmp_path)]) == 0
    verdict = capsys.readouterr().out.splitlines()[0]
    assert verdict.startswith("[PASS] suite=product_identity cases=2 min_margin=")
    assert "(worst_residual_over_bound)" in verdict


def test_empty_report_is_valid_json():
    rep = ExperimentReport(suite="reconstruction", config={}, cases=[],
                           summary={}, passed=False, wall_time=0.0)
    data = json.loads(emit_report(rep))
    assert data["cases"] == []


def test_json_round_trip_of_reports():
    reports = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        cases = [{"resolution": 128, "case": i,
                  "value": float(rng.standard_normal()),
                  "ok": bool(rng.random() < 0.5)} for i in range(4)]
        reports.append(ExperimentReport(
            suite="reconstruction", config={"root_seed": seed}, cases=cases,
            summary={"max": float(rng.standard_normal()), "n": int(seed)},
            passed=True, wall_time=float(rng.random())))
    # non-finite values are written as the NaN / Infinity tokens json.loads reads
    reports.append(ExperimentReport(
        suite="molecule", config={}, cases=[{"value": math.inf}, {"value": -math.inf}],
        summary={"max": math.inf, "margins": {"g": None}}, passed=False, wall_time=0.0))
    for rep in reports:
        back = parse_report(emit_report(rep))
        assert back.cases == rep.cases
        assert back.summary == rep.summary
        assert back.config == rep.config
        assert back.passed == rep.passed
        assert back.wall_time == rep.wall_time


_REPORT = '"config": {}, "summary": {}, "passed": true, "wall_time": 0'


@pytest.mark.parametrize("text", ['{"suite": "x"}', "not json", "[1, 2]", '"report"',
                                  '{"suite": "x", "bogus": 1}',
                                  '{"suite": "x", "cases": 5, %s}' % _REPORT,
                                  '{"suite": "x", "cases": [1], %s}' % _REPORT])
def test_malformed_report_is_a_usage_error(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(UsageError, match=re.escape(str(path))):
        parse_report(str(path))
    assert cli_main(["report", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_canonical_json_is_sorted_and_fixed_format():
    rep = ExperimentReport(suite="molecule", config={"b": 1, "a": 2},
                           cases=[{"z": 0.1, "a": 2.0}], summary={},
                           passed=True, wall_time=0.5)
    text = emit_report(rep)
    assert text.index('"a"') < text.index('"b"')
    assert "2.0" in text  # floats keep a decimal point


def test_csv_schema_and_row_count():
    cfg = ExperimentConfig(suite="boundedness_sweep", resolutions=[128, 256],
                           sample_count=4)
    rep = run_suite(cfg)
    csv = emit_report(rep, "csv")
    lines = csv.strip().splitlines()
    assert lines[0].startswith("# schema_version=1")
    assert lines[1] == ",".join(CSV_SCHEMAS["boundedness_sweep"])
    assert len(lines) - 2 == cfg.sample_count * len(cfg.resolutions)


def test_report_written_atomically(tmp_path, rng, monkeypatch):
    cfg = ExperimentConfig(suite="reconstruction", resolutions=[128],
                           sample_count=2)
    rep = run_suite(cfg)
    out = tmp_path / "rep.json"
    emit_report(rep, "json", str(out))
    assert parse_report(str(out)).suite == "reconstruction"
    hlf = tmp_path / "f.hlf1"
    write_hlf(str(hlf), random_function(rng, 1, 64))
    assert not list(tmp_path.glob("*.tmp"))
    mask = os.umask(0)
    os.umask(mask)
    for path in (out, hlf):  # the mode of a plain open(), not mkstemp's 0600
        assert path.stat().st_mode & 0o777 == 0o666 & ~mask

    # a write that fails at the final rename leaves the old file and no temp file
    old = {path: path.read_bytes() for path in (out, hlf)}

    def no_replace(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", no_replace)
    with pytest.raises(OSError, match="rename refused"):
        emit_report(rep, "csv", str(out))
    with pytest.raises(OSError, match="rename refused"):
        write_hlf(str(hlf), random_function(rng, 1, 128))
    assert {path: path.read_bytes() for path in old} == old
    assert not list(tmp_path.glob("*.tmp"))


def test_cli_norms_and_decompose_write_out_atomically(tmp_path, rng, monkeypatch, capsys):
    hlf = tmp_path / "f.hlf1"
    write_hlf(str(hlf), random_function(rng, 1, 64))
    outs = {cmd: tmp_path / f"{cmd}.out" for cmd in ("norms", "decompose")}
    for path in outs.values():
        path.write_text("old content\n")

    def no_replace(src, dst):
        raise OSError("rename refused")

    # a bare open() truncated the old file before writing the new one
    monkeypatch.setattr(os, "replace", no_replace)
    assert cli_main(["norms", "--input", str(hlf), "--space", "Lp:2",
                     "--out", str(outs["norms"])]) == 2
    assert cli_main(["decompose", "--input", str(hlf), "--out", str(outs["decompose"])]) == 2
    assert "rename refused" in capsys.readouterr().err
    assert all(path.read_text() == "old content\n" for path in outs.values())
    assert not list(tmp_path.glob("*.tmp"))


# -- sampled-function files -------------------------------------------------------

def test_hlf_round_trip(tmp_path, rng):
    for dim, N in [(1, 128), (2, 32)]:
        f = random_function(rng, dim, N)
        path = tmp_path / f"f{dim}.hlf1"
        write_hlf(str(path), f)
        g = read_hlf(str(path))
        np.testing.assert_array_equal(f.values, g.values)
        assert path.stat().st_size == 32 + 8 * N ** dim


def test_hlf_bad_magic(tmp_path):
    path = tmp_path / "bad.hlf1"
    path.write_bytes(b"NOPE" + b"\0" * 60)
    with pytest.raises(FileFormatError, match="magic"):
        read_hlf(str(path))


@pytest.mark.parametrize("dim,level,payload,match", [
    (1, 40, 64, r"needs 2\^40 samples"),  # 8 TiB if the reader trusted the header
    (2, 20, 0, r"needs 2\^40 samples"),
    (1, 4, 8 * 15, r"needs 2\^4 samples, the file holds 15"),
    (1, 4, 8 * 16 + 3, "3 trailing bytes"),
    (2, 2, 8 * 17, "8 trailing bytes"),
])
def test_hlf_size_checked_against_header(tmp_path, dim, level, payload, match):
    path = tmp_path / "bad.hlf1"
    path.write_bytes(struct.pack("<4sII20s", b"HLF1", dim, level, b"\0" * 20)
                     + b"\0" * payload)
    with pytest.raises(FileFormatError, match=match):
        read_hlf(str(path))
    assert cli_main(["norms", "--input", str(path), "--space", "BMO"]) == 2


# -- command line -------------------------------------------------------------------

def _write_config(tmp_path, **kw):
    cfg = {"suite": "product_identity", "resolutions": [128],
           "sample_count": 2, "root_seed": 5}
    cfg.update(kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cli_run_pass_and_report(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "report.json"
    code = cli_main(["run", "--config", cfg, "--out", str(out)])
    assert code == 0
    assert parse_report(str(out)).passed
    assert "[PASS]" in capsys.readouterr().out


def test_cli_run_failure_exit_code(tmp_path):
    cfg = _write_config(tmp_path, tolerances={"identity_rel": 1e-30})
    assert cli_main(["run", "--config", cfg]) == 1


def test_cli_run_unknown_suite_is_usage_error(tmp_path):
    cfg = _write_config(tmp_path)
    assert cli_main(["run", "--config", cfg, "--suite", "bogus"]) == 2


@pytest.mark.parametrize("text", [
    '{"suite": "reconstruction",', "", "[1, 2]",
    '{"suite": "reconstruction", "resolutions": "abc"}',
    '{"suite": "commutator_identity", "resolutions": [64], "operator": "riesz0"}',
])
def test_cli_run_bad_config_exits_2(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert cli_main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_run_h1b_equivalence_without_cube_levels_exits_2(tmp_path, capsys):
    # at N = 8 the random cubes would need a level from j0 = 2 up to J - 2 = 1
    cfg = _write_config(tmp_path, suite="h1b_equivalence", resolutions=[8], sample_count=1)
    assert cli_main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err and "up to 1" in err


def test_cli_decompose_underflow_exits_2(tmp_path, capsys):
    tree = CoefficientTree.unit_detail(DyadicCube(1, 4, (3,)), (1,), 2, 8) * 1e-200
    path = tmp_path / "tiny.hlf1"
    write_hlf(str(path), synthesize(tree, build_basis("daubechies", 4)))
    assert cli_main(["decompose", "--input", str(path)]) == 2
    assert "underflows" in capsys.readouterr().err


def test_cli_norms_and_decompose(tmp_path, rng, capsys):
    f = random_function(rng, 1, 256)
    path = tmp_path / "f.hlf1"
    write_hlf(str(path), f)
    code = cli_main(["norms", "--input", str(path), "--space", "Lp:2",
                     "--space", "BMO", "--space", "H1_square"])
    assert code == 0
    assert "Lp:2" in capsys.readouterr().out

    out = tmp_path / "atoms.txt"
    code = cli_main(["decompose", "--input", str(path), "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("# atom 0 lambda=")


@pytest.mark.parametrize("argv", [
    ["atoms", "--kind", "psi", "--seed", "-1"],
    ["atoms", "--kind", "qb", "--b-file", "{b}", "--seed", "-1"],
    ["atoms", "--kind", "psi", "--offset", "a,b"],
    ["atoms", "--kind", "psi", "--resolution", "100"],
    ["atoms", "--kind", "psi", "--resolution", "4"],  # no level below the coarse one
    ["atoms", "--kind", "psi", "--coarse-level", "0"],  # db4 wraps at level 0
    ["atoms", "--kind", "psi", "--basis", "daubechies:x"],
    ["atoms", "--kind", "psi", "--level", "5", "--offset", "3", "--resolution", "256"],
    ["atoms", "--kind", "psi", "--level", "3"],
    ["atoms", "--kind", "psi", "--offset", "0,1"],
    ["norms", "--input", "{b}", "--space", "Lp:2", "--basis", "daubechies:x"],
    ["norms", "--input", "{b}", "--space", "Lp:abc"],
    ["norms", "--input", "{b}", "--space", "weakLp:nan"],
    ["decompose", "--input", "{b}", "--basis", "daubechies:x"],
], ids=["psi-seed", "qb-seed", "offset", "resolution", "coarse-resolution",
        "coarse-level-0", "atoms-basis", "psi-level-offset", "psi-level", "psi-offset",
        "norms-basis", "norms-exponent", "norms-nan", "decompose-basis"])
def test_cli_bad_arguments_exit_2(tmp_path, rng, capsys, argv):
    b = tmp_path / "b.hlf1"
    write_hlf(str(b), random_function(rng, 1, 256))
    out = tmp_path / "out.hlf1"
    code = cli_main([a.format(b=b) for a in argv] + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_cli_psi_atom_takes_the_default_coarse_level_of_its_basis(tmp_path):
    # db8's 16 taps wrap on a step from level 2; its default coarse level is 3
    out = tmp_path / "psi.hlf1"
    assert cli_main(["atoms", "--kind", "psi", "--basis", "daubechies:8",
                     "--resolution", "256", "--out", str(out)]) == 0
    assert read_hlf(str(out)).resolution == 256


def test_cli_atoms_and_report_roundtrip(tmp_path, rng, capsys):
    b = random_function(rng, 1, 256)
    bpath = tmp_path / "b.hlf1"
    write_hlf(str(bpath), b)
    apath = tmp_path / "atom.hlf1"
    code = cli_main(["atoms", "--kind", "qb", "--level", "3", "--offset", "2",
                     "--b-file", str(bpath), "--seed", "4", "--out", str(apath)])
    assert code == 0
    atom = read_hlf(str(apath))
    assert abs(atom.integral()) < 1e-10
    assert abs((atom * b).integral()) < 1e-10

    cfg = _write_config(tmp_path)
    rep_path = tmp_path / "r.json"
    cli_main(["run", "--config", cfg, "--out", str(rep_path)])
    csv_path = tmp_path / "r.csv"
    code = cli_main(["report", "--input", str(rep_path), "--format", "csv",
                     "--out", str(csv_path)])
    assert code == 0
    header = csv_path.read_text().splitlines()[1]
    assert header == ",".join(CSV_SCHEMAS["product_identity"])


# -- batching independence -------------------------------------------------------
#
# The batched suites push every case of one resolution through each layer as
# one stack.  A case's record must not depend on how many cases share its
# stack: case 0 of a 20-case run equals the record of a one-case run.

BATCHED = {
    "reconstruction": dict(resolutions=[64, 128], basis_family="haar", basis_order=1),
    "product_identity": dict(resolutions=[64, 128]),
    "commutator_identity": dict(resolutions=[64, 128], operator="ifrac:0.5"),
    "commutator_identity-riesz1": dict(suite="commutator_identity", resolutions=[16, 32],
                                       operator="riesz1", dim=2, basis_order=2),
    "boundedness_sweep": dict(resolutions=[64, 128]),
    "sandwich": dict(resolutions=[64], operator="maximal"),
    "fractional": dict(resolutions=[64, 128]),
}


@pytest.mark.parametrize("name", BATCHED)
def test_case_records_do_not_depend_on_the_batch(name):
    fields = dict({"suite": name}, root_seed=17, **BATCHED[name])

    def first_cases(count):
        report = run_suite(ExperimentConfig.from_dict(dict(fields, sample_count=count)))
        # json.dumps writes floats by repr, so -0.0 and 0.0 stay apart
        return json.dumps([case for case in report.cases if case["case"] == 0])

    assert first_cases(20) == first_cases(1)
