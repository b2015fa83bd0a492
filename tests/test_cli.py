"""Command line surface: subcommands, exit codes, report shape."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from orthofold import actions, cli, strata
from orthofold.errors import ClassificationError, CorrespondenceError, InputError


def _run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def _parse_report(text):
    body, sha_line = text.rsplit("report-sha256:", 1)
    doc = json.loads(body)
    return doc, sha_line.strip()


def test_catalog_lists_all_actions(capsys):
    code, out = _run(capsys, "catalog")
    assert code == 0
    for name in ("s2xs2-so3", "rp2-so2", "cp2-so3", "cp2-u1", "s2-zn(5)", "cn-tn(2)"):
        assert name in out


def test_classify_fixed_point(capsys):
    code, out = _run(capsys, "classify", "rp2-so2", "k", "--seed", "0")
    assert code == 0
    doc, sha = _parse_report(out)
    payload = doc["payload"]
    assert payload["stabilizer"] == "SO2"
    assert payload["quotient_dim"] == 2
    assert payload["singularity"] == "OrthofoldPoint"
    assert len(sha) == 64


def test_classify_toric_coordinate_point(capsys):
    code, out = _run(capsys, "classify", "cn-tn(2)", "(0,1)", "--seed", "0")
    assert code == 0
    payload = _parse_report(out)[0]["payload"]
    assert payload["quotient_dim"] == 3


def test_classify_alias_names(capsys):
    code, out = _run(capsys, "classify", "s2-zn(5)", "north", "--seed", "0")
    assert code == 0
    payload = _parse_report(out)[0]["payload"]
    assert payload["stabilizer"] == "Zn(5)"
    assert payload["singularity"] == "OrbifoldPoint(5)"


def test_unknown_action_exit_code(capsys):
    code, _ = _run(capsys, "classify", "s7-g2", "0,0,1")
    assert code == 2


def test_malformed_point_exit_code(capsys):
    code, _ = _run(capsys, "classify", "s2-zn(5)", "one,two")
    assert code == 2
    code, _ = _run(capsys, "classify", "s2-zn(5)", "1,2")
    assert code == 2


def test_analyze_payload_shape(capsys):
    code, out = _run(capsys, "analyze", "s2-zn(5)", "--samples", "25", "--seed", "3")
    assert code == 0
    doc, _ = _parse_report(out)
    assert doc["schema_version"] == "1"
    payload = doc["payload"]
    assert payload["action"] == "s2-zn(5)"
    assert payload["samples"] == 25
    assert payload["seed"] == 3
    parts = payload["partitions"]
    assert set(parts) == {"orbit_type", "isostabilizer", "klein"}
    assert payload["orbifold_criterion"] is True
    assert payload["interval_model"] is None


def test_analyze_interval_action_has_model(capsys):
    code, out = _run(capsys, "analyze", "rp2-so2", "--samples", "40", "--seed", "0")
    assert code == 0
    payload = _parse_report(out)[0]["payload"]
    model = payload["interval_model"]
    assert model["endpoints"] == [0.0, 1.0]
    pieces = [tuple(p) for s in model["strata"] for p in s]
    assert ("point", 0.0) in pieces and ("point", 1.0) in pieces
    assert any(p[0] == "open" for p in pieces)
    assert model["frontier"] is True


def test_verify_single_action(capsys, tmp_path):
    out_file = tmp_path / "report.txt"
    code, out = _run(
        capsys, "verify", "s2-zn(5)", "--samples", "30", "--seed", "1",
        "--out", str(out_file),
    )
    assert code == 0
    assert "[PASS]" in out
    assert "[FAIL]" not in out
    text = out_file.read_text()
    assert text.rstrip().splitlines()[-1].startswith("report-sha256:")


def test_payloads_identical_across_runs(capsys):
    _, first = _run(capsys, "classify", "cp2-u1", "P1", "--seed", "4")
    _, second = _run(capsys, "classify", "cp2-u1", "P1", "--seed", "4")
    d1, s1 = _parse_report(first)
    d2, s2 = _parse_report(second)
    assert s1 == s2
    d1.pop("generated_at")
    d2.pop("generated_at")
    assert d1 == d2


def test_env_seed_is_the_default(capsys, monkeypatch):
    monkeypatch.setenv("ORTHOFOLD_SEED", "11")
    _, out = _run(capsys, "classify", "s2-zn(5)", "north")
    assert _parse_report(out)[0]["payload"]["seed"] == 11
    # an explicit flag still wins
    _, out = _run(capsys, "classify", "s2-zn(5)", "north", "--seed", "2")
    assert _parse_report(out)[0]["payload"]["seed"] == 2


def test_degenerate_interval_model_is_a_failed_check(capsys, monkeypatch):
    # a cloud whose blocks all project to points leaves no interval model;
    # the endpoint check must report that instead of crashing
    def degenerate(*args, **kwargs):
        raise InputError("every block projects to a point")

    monkeypatch.setattr(cli.quotient, "quotient_interval_model", degenerate)
    code, out = _run(capsys, "verify", "s2xs2-so3", "--samples", "30", "--seed", "0")
    assert code == 1
    assert (
        "[FAIL] s2xs2-so3 :: interval-endpoints-singular (every block projects to a point)"
        in out
    )
    assert out.rstrip().splitlines()[-1].startswith("report-sha256:")


def test_near_half_turn_witness_seed_passes(capsys):
    # at seed 2 one t = 0 point (stabilizer SO2) has a refined fixer that is
    # a rotation by pi - 4.3e-6 about the stabilizer axis; it lies in the
    # identity component and must not be counted as a second component
    code, out = _run(capsys, "verify", "cp2-so3", "--samples", "100", "--seed", "2")
    assert "[FAIL]" not in out
    assert code == 0


def test_sparse_principal_block_stays_open(capsys):
    # at seed 28 no two of the 100 generic projection values lie within
    # 1e-3, so every cluster of the principal block is a single value; the
    # block is still open and dense, not a union of point strata
    code, out = _run(capsys, "verify", "s2xs2-so3", "--samples", "100", "--seed", "28")
    assert "[FAIL]" not in out
    assert code == 0
    _, out = _run(capsys, "analyze", "s2xs2-so3", "--samples", "100", "--seed", "28")
    model = _parse_report(out)[0]["payload"]["interval_model"]
    assert model["strata"] == [[["open", -1, 1]], [["point", -1], ["point", 1]]]
    assert model["frontier"] is True


def test_rp2_t0_window_follows_the_fixer_cut(capsys):
    # uniform sample 27 sits at t = 4.6e-10: inside a fixed 1e-9 window, but
    # the half-turn moves it by 4.3e-5, far above the fixer cut, so its
    # stabilizer is trivial and the t = 0 checks must not select it
    code, out = _run(capsys, "verify", "rp2-so2", "--samples", "100", "--seed", "24")
    assert "[FAIL]" not in out
    assert code == 0
    a = actions.get_action("rp2-so2")
    cloud = strata.build_cloud(a, 100, seed=24)
    on0 = cli._rp2_t0_locus(a.interval.projection(cloud.points))
    # 100 uniform samples, the pole, then the 32 equator specials
    assert np.flatnonzero(on0).tolist() == list(range(101, 133))


@pytest.mark.parametrize(
    "target, error, check",
    [
        ("correspondence", CorrespondenceError(1, (0, 2)), "correspondence-defined"),
        ("orbifold_criterion",
         ClassificationError("dimension map and local structure disagree on orbifoldness"),
         "orbifold-criterion-consistent"),
    ],
)
def test_stage_errors_fail_their_named_check(capsys, monkeypatch, target, error, check):
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli.quotient, target, broken)
    code, out = _run(capsys, "verify", "s2-zn(5)", "--samples", "30", "--seed", "1")
    assert code == 1
    assert f"[FAIL] s2-zn(5) :: {check} ({error})" in out
    assert "pipeline" not in out
    # analyze has no checks to fail and keeps the pipeline-failure exit
    code = cli.main(["analyze", "s2-zn(5)", "--samples", "30", "--seed", "1"])
    assert code == 3
    assert str(error) in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [("--match-eps", "nan"), ("--rank-eps", "0"), ("--cluster-eps-factor", "-1"),
     ("--match-eps", "inf")],
)
def test_bad_tolerance_exit_code(capsys, flag, value):
    code = cli.main(["analyze", "rp2-so2", "--samples", "20", flag, value])
    err = capsys.readouterr().err
    assert code == 2
    assert flag[2:].replace("-", "_") in err


def test_bad_env_seed_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("ORTHOFOLD_SEED", "abc")
    code = cli.main(["classify", "s2-zn(5)", "north"])
    assert code == 2
    assert "ORTHOFOLD_SEED" in capsys.readouterr().err
    # an explicit flag does not consult the variable
    code, _ = _run(capsys, "classify", "s2-zn(5)", "north", "--seed", "2")
    assert code == 0


def test_cli_runs_without_scipy():
    probe = (
        "import sys\n"
        "from orthofold import cli\n"
        "assert cli.main(['catalog']) == 0\n"
        "assert cli.main(['classify', 's2-zn(5)', 'north']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"
