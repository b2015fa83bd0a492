"""Command line surface: subcommands, exit codes, report shape."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from orthofold import actions, cli, numerics, quotient, strata
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


@pytest.mark.parametrize(
    "name",
    ["s2-zn(1)", "s2-zn(65)", "s2-zn(1000000000)", "s2-zn(" + "9" * 5000 + ")", "cn-tn(9)"],
    ids=["s2-zn(1)", "s2-zn(65)", "s2-zn(1000000000)", "s2-zn(5000-digits)", "cn-tn(9)"],
)
def test_family_parameter_out_of_range_exit_code(capsys, monkeypatch, name):
    # the range is checked before the group is built, so a huge n
    # allocates nothing
    def unbuilt(*args, **kwargs):
        raise AssertionError("group built before the range check")

    monkeypatch.setattr(actions.groups, "finite", unbuilt)
    monkeypatch.setattr(actions.groups, "torus", unbuilt)
    code, _ = _run(capsys, "analyze", name, "--samples", "5")
    assert code == 2


@pytest.mark.parametrize(
    "name, message",
    [("s2-zn(65)", "s2-zn supports 2 <= n <= 64"), ("nope", "no catalog action named 'nope'")],
)
def test_unknown_action_message_is_unquoted(capsys, name, message):
    # the message itself, not the repr that KeyError's str() would give
    code = cli.main(["analyze", name, "--samples", "5"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_malformed_point_exit_code(capsys):
    code, _ = _run(capsys, "classify", "s2-zn(5)", "one,two")
    assert code == 2
    code, _ = _run(capsys, "classify", "s2-zn(5)", "1,2")
    assert code == 2


def test_analyze_payload_shape(capsys):
    code, out = _run(capsys, "analyze", "s2-zn(5)", "--samples", "25", "--seed", "3")
    assert code == 0
    doc, _ = _parse_report(out)
    assert doc["schema_version"] == "2"
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


@pytest.mark.parametrize("value", ["11", "abc"])
def test_env_seed_is_ignored(capsys, monkeypatch, value):
    # --seed is the one source of the seed; the environment has no say
    monkeypatch.setenv("ORTHOFOLD_SEED", value)
    code, out = _run(capsys, "classify", "s2-zn(5)", "north")
    assert code == 0
    assert _parse_report(out)[0]["payload"]["seed"] == 0
    code, out = _run(capsys, "classify", "s2-zn(5)", "north", "--seed", "2")
    assert code == 0
    assert _parse_report(out)[0]["payload"]["seed"] == 2


def test_degenerate_interval_model_is_a_failed_check(capsys, monkeypatch):
    # a cloud whose blocks all project to points leaves no interval model;
    # the endpoint check must report that instead of crashing
    def degenerate(*args, **kwargs):
        raise InputError("every block projects to a point")

    monkeypatch.setattr(quotient, "quotient_interval_model", degenerate)
    code, out = _run(capsys, "verify", "s2xs2-so3", "--samples", "30", "--seed", "0")
    assert code == 1
    assert (
        "[FAIL] s2xs2-so3 :: interval-endpoints-singular (every block projects to a point)"
        in out
    )
    assert out.rstrip().splitlines()[-1].startswith("report-sha256:")


def test_near_half_turn_witness_seed_passes(capsys):
    # at seed 2 one t = 0 point (stabilizer SO2) led the Haar search to a
    # fixer that is a rotation by pi - 4.3e-6 about the stabilizer axis, in
    # the identity component; it must not be counted as a second component
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

    monkeypatch.setattr(quotient, target, broken)
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
    # the numeric cuts are constants: every subcommand rejects the flags
    # that once set them, as any unknown flag
    for argv in (["analyze", "rp2-so2"], ["verify", "rp2-so2"], ["classify", "rp2-so2", "k"]):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_subcommand_options():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    want = {
        "analyze": {"--samples", "--seed", "--out"},
        "verify": {"--samples", "--seed", "--out"},
        "classify": {"--seed", "--out"},
        "catalog": set(),
    }
    for name, options in want.items():
        p = sub.choices[name]
        assert {o for a in p._actions for o in a.option_strings} == {"-h", "--help", *options}
        assert "eps" not in p.format_help()


def test_payload_tolerance_block_reads_the_constants(capsys):
    code, out = _run(capsys, "analyze", "s2-zn(5)", "--samples", "20", "--seed", "0")
    assert code == 0
    assert _parse_report(out)[0]["payload"]["tolerance"] == {
        "rank_eps": numerics.RANK_EPS,
        "match_eps": numerics.MATCH_EPS,
        "cluster_eps_factor": strata.CLUSTER_EPS_FACTOR,
    }


def test_catalog_loads_no_pipeline_layer():
    # catalog lists actions only; cli imports the pipeline layers in the
    # functions that use them
    probe = (
        "import sys\n"
        "from orthofold import cli\n"
        "assert cli.main(['catalog']) == 0\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.strip().splitlines()[-1].split())
    assert "orthofold.actions" in loaded
    assert not loaded & {"orthofold.isotropy", "orthofold.strata", "orthofold.quotient"}


def test_cli_runs_without_scipy():
    probe = (
        "import sys\n"
        "from orthofold import cli\n"
        "assert cli.main(['catalog']) == 0\n"
        "assert cli.main(['classify', 's2-zn(5)', 'north']) == 0\n"
        # one action per group kind runs every import on the pipeline path
        "for name in ('cp2-so3', 'cn-tn(2)', 's2-zn(5)'):\n"
        "    assert cli.main(['analyze', name, '--samples', '5']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"


# analyze --samples 100 --seed 0 report hashes; the exact torus solve
# reproduced the numeric angle search's payloads byte for byte
_TORUS_SHAS = {
    "rp2-so2": "8d87df616de55054c37d9961c0abefaa8a548c9d38a93107312530de5d6c82d9",
    "cp2-u1": "60dd1b8f897c29c9f264a632cce5be8a65da76bf2e2d5b456354f774cca826da",
    "cn-tn(2)": "d3dfb0e54e954900b13029046edae38f33ee6b4d83d31f658c1920ccacff774c",
}


@pytest.mark.parametrize("name", sorted(_TORUS_SHAS))
def test_torus_payloads_are_pinned(capsys, name):
    code, out = _run(capsys, "analyze", name, "--samples", "100", "--seed", "0")
    assert code == 0
    assert _parse_report(out)[1] == _TORUS_SHAS[name]


# analyze report-sha256 at seed 0 before the decomposition scans were
# blocked; speed work must keep these payloads byte-identical
_PAYLOAD_SHAS = {
    ("s2-zn(5)", "1500"): "23ce79b4ca33f974d0143eaf0748f7109f614d4580f9eb8b0e75224e3d1e9878",
    ("s2xs2-so3", "100"): "525142ac088d54bf3dac1841952b0ec7604c659eeed9fb8445b882213e59490b",
    ("cp2-so3", "100"): "e36b635dad8e9884985a1f49d5c4a7fb0f3a7269b79013baac219e8f262a58b2",
    # the origin's FullGroup weights have three rows, one per torus factor;
    # the T^2 of an axis point reads rows (0, 1) and (1, 0) with one fixed
    # direction, and its profile shows a U1 on each rotating plane
    ("cn-tn(3)", "20"): "b35e25952db0c9e9c13bc138223af1e478443eaecf4db9a620da8969756d98f3",
    # the cheapest payload whose slice profiles solve a rank-4 congruence
    ("cn-tn(4)", "10"): "8a3147e44e4860bf5284cb19d111c44220c2a3d662e68ba496c795fa78033cb8",
}


@pytest.mark.parametrize("name, samples", sorted(_PAYLOAD_SHAS))
def test_payloads_are_pinned(capsys, name, samples):
    code, out = _run(capsys, "analyze", name, "--samples", samples, "--seed", "0")
    assert code == 0
    assert _parse_report(out)[1] == _PAYLOAD_SHAS[(name, samples)]


# analyze --samples 1000 --seed 0 report-sha256, recorded before the
# distance scans were banded: at this size the row blocks and the band
# windows cover only part of the cloud, on four manifold kinds
_DENSE_SHAS = {
    "rp2-so2": "a31aed1d4c35431b51606d0d37ed8f18fb9f465d99154c1a1236160354f07921",
    "cp2-u1": "4ee5ecdfa175e5e13f9edfe70ad0ca28d9e55f57f49ece3a46416b3e42f99b96",
    "s2xs2-so3": "98f59fa3f9fd57a978cd0afc10a38861237cb053cccab7111577a9759539ef15",
    "cn-tn(2)": "4e7520b906e5a2fb2ce31749bad73506e99b70111be52d32817082fda8e89bb3",
}


@pytest.mark.parametrize("name", sorted(_DENSE_SHAS))
def test_dense_payloads_are_pinned(capsys, name):
    code, out = _run(capsys, "analyze", name, "--samples", "1000", "--seed", "0")
    assert code == 0
    assert _parse_report(out)[1] == _DENSE_SHAS[name]


# verify --samples 100 report-sha256 of the SO(3) actions at the four seeds
# the so3-search benchmark runs; speed work on the SO(3) solve must keep
# these payloads byte-identical
_SO3_VERIFY_SHAS = {
    ("s2xs2-so3", 0): "7306cb55c3b502dab016557e3cdf9e22abae0bcd05dbe08ea22afbf16dec310e",
    ("s2xs2-so3", 1): "ffb7ee578c3cc8d6c402a18f1905875b066bc3c76ebc82817c82fea6f264e3f8",
    ("s2xs2-so3", 2): "668b52aa814001d44fa7a050414da955dcc44c84c0f6cc4d0c18fc49b09425ce",
    ("s2xs2-so3", 3): "5b4992aaa1fa8fad399c48a77e5dc73ce65210f30e0fdfa38250bdbc0f82cecf",
    ("cp2-so3", 0): "3cb38b22c45f47c9cfc9ea7906e0b2e6f890ad3e47b7d624d810e427955dc114",
    ("cp2-so3", 1): "4b58448a3f25cb44addc4c6985bdb53fb174c3994485d9cc078f0f52ee0cec0a",
    ("cp2-so3", 2): "99a195bb64c29a2129a3c9b86ff1f7384d791f9d0c782a6be862268eeace42c0",
    ("cp2-so3", 3): "af40562577f0fec014b3fad525922a52a0c55dfbf92416d44ff1be0f17c6e61e",
}


@pytest.mark.parametrize("name, seed", sorted(_SO3_VERIFY_SHAS))
def test_so3_verify_payloads_are_pinned(capsys, name, seed):
    code, out = _run(capsys, "verify", name, "--samples", "100", "--seed", str(seed))
    assert code == 0
    assert out.rstrip().splitlines()[-1] == f"report-sha256: {_SO3_VERIFY_SHAS[(name, seed)]}"


# verify --samples 100 report-sha256 of the torus-search actions at the four
# seeds that benchmark runs, recorded before the slice representations and
# local models were batched over the cloud
_TORUS_VERIFY_SHAS = {
    ("cn-tn(2)", 0): "42c81fce13b86c7f2fd96712711578cab822a4bfd455b68ac0e82e4add3d2ab6",
    ("cn-tn(2)", 1): "a23fc28a6b7d94962ccf4d48b9369a6c7e9fbf07a9c4114e3d030847470ca06c",
    ("cn-tn(2)", 2): "0837669bf3deea981e2ed2488e95a23cbf2df376c748d81790c9e8d6320dda8f",
    ("cn-tn(2)", 3): "c7b0efc862b7f04e883cbf1c28b712cc4e48517dec761578d566d26cc811936b",
    ("cp2-u1", 0): "89d7e9d4dba221d1a6d0b2812bfba3539a1fd8463864d525191649031a18fd05",
    ("cp2-u1", 1): "196f7e9a802bce3c6715de65cd531bcf978e7478c20b36614bda3b6ef173f380",
    ("cp2-u1", 2): "053471bfd0784a91a41f49fc1c3e4a4f7f2be74cdc9d715e711eb8763ad6e177",
    ("cp2-u1", 3): "6a1cbef98c5dcd95af76ab61171b4892ac25c39432dbe9e99c55cbcdd3888747",
    ("rp2-so2", 0): "f7015b50d0964e3f69d625f2ff5e35dc2368981060be3f0409c5d327ad98dc2d",
    ("rp2-so2", 1): "03c2f483ad1790e981c19b76801b0824fe99185df184fdf00929d12eddfeca5c",
    ("rp2-so2", 2): "af9ff9c33e9019498ead682d61e1ec237818db275fc129dd0e5fa2e42ec43efe",
    ("rp2-so2", 3): "6ee36d557b17e16801ade7f79dcccb64ba4802b46d734db11559b019344cf9c7",
}


@pytest.mark.parametrize("name, seed", sorted(_TORUS_VERIFY_SHAS))
def test_torus_verify_payloads_are_pinned(capsys, name, seed):
    code, out = _run(capsys, "verify", name, "--samples", "100", "--seed", str(seed))
    assert code == 0
    assert out.rstrip().splitlines()[-1] == f"report-sha256: {_TORUS_VERIFY_SHAS[(name, seed)]}"


# analyze s2-zn(5) --samples 3000 report-sha256 at the four seeds of the
# finite-dense benchmark, recorded before the same change
_FINITE_DENSE_SHAS = {
    0: "c0eed97dbae05d8ef4fdeb9a6da3f8be3747032be780e7ef313ad2db2a3822b8",
    1: "a4741f692e2d84b589eefcc003f9327019f46f3814b7e4150827de2519cbd2e5",
    2: "0416ac786253d82527ccd0170c9caec3e79b574bd80fed753a865c2d05f655b6",
    3: "cb09fe25887e982e4ce05fcfe607ce05a383609b7320d1823d3e8b8fc847d3b1",
}


@pytest.mark.parametrize("seed", sorted(_FINITE_DENSE_SHAS))
def test_finite_dense_payloads_are_pinned(capsys, seed):
    code, out = _run(capsys, "analyze", "s2-zn(5)", "--samples", "3000", "--seed", str(seed))
    assert code == 0
    assert _parse_report(out)[1] == _FINITE_DENSE_SHAS[seed]


# analyze report-sha256 of finite actions with many and with few witnesses
# per pole, recorded before the fixer test became one flattened product
_FINITE_ORDER_SHAS = {
    ("s2-zn(64)", "2000", 0): "755bc7d220c2f5eb14ab55544d1483ec3d3fba20d3a4e8633569a765e728e1bc",
    ("s2-zn(64)", "2000", 1): "14c72ae78dd6e3f24ceaefd855a631d7e09f0a8faeffb1adf52f416a09ca8546",
    ("s2-zn(2)", "1000", 0): "c3f5023f64f844f79048377f145856ca16cc4e1e968e4756cb251f58f456220d",
    ("s2-zn(2)", "1000", 1): "b9b15487041fb397da9c3b8bb24335ca4ffdec77f6408152179600821e84a1bf",
}


@pytest.mark.parametrize("name, samples, seed", sorted(_FINITE_ORDER_SHAS))
def test_finite_order_payloads_are_pinned(capsys, name, samples, seed):
    code, out = _run(capsys, "analyze", name, "--samples", samples, "--seed", str(seed))
    assert code == 0
    assert _parse_report(out)[1] == _FINITE_ORDER_SHAS[(name, samples, seed)]


# classify --seed 0 report-sha256 of every named point and of a cn-tn(2)
# coordinate point, recorded while the numeric cuts could still be set per run
_CLASSIFY_SHAS = {
    ("rp2-so2", "k"): "bfd043d85e40de42607cc8ad824f10d7fa62eae6c883d27c4a2fb84abde28fcc",
    ("cp2-u1", "P0"): "8dd80dedf6bf80ab5bef33db542be1273065e138ef312223d0e8ed1a739af2f7",
    ("cp2-u1", "P1"): "43c2478f37a49ab6dacca30295ad4d613ca78cd5851f4f33b907691d4f030865",
    ("cp2-u1", "P2"): "00be086949761f59e07753af5559c4dc22ce2395558da67322881caf980aab98",
    ("s2xs2-so3", "diag"): "f0cb3491fd6ff332cae1a7cdaedd29e7a796d2d165a996cb25c943c94a402557",
    ("s2xs2-so3", "antidiag"): "f18ef67cc03c0d8954a011c41610846241566b14e4a46634171d89f539fa1e64",
    ("s2-zn(5)", "north"): "84b17466a1518528b33c16ab62b7b641f4c5893e30ba742e5e8c82cd698c947f",
    ("s2-zn(5)", "south"): "3a901a867f815a5a8ba44a7a9bb0782f24850244b958345019257c85bf64ab26",
    ("cn-tn(2)", "(0,1)"): "a6ff33c386e21ded2c88225e6ac3b0ee30129b0f1764ced3e2807f8c31168550",
}


@pytest.mark.parametrize("name, point", sorted(_CLASSIFY_SHAS))
def test_classify_points_are_pinned(capsys, name, point):
    code, out = _run(capsys, "classify", name, point, "--seed", "0")
    assert code == 0
    assert _parse_report(out)[1] == _CLASSIFY_SHAS[(name, point)]


def test_classify_cn_t3_axis_point_is_pinned(capsys):
    code, out = _run(capsys, "classify", "cn-tn(3)", "1,0,0", "--seed", "0")
    assert code == 0
    doc, sha = _parse_report(out)
    assert doc["payload"]["fingerprint"]["weights"] == [[0, 1], [1, 0]]
    assert sha == "bd6f042876fa3ceb0f516d3723ffbd8e64b024fde001c68876d0dab7638bc4fa"


def test_verify_cn_t5_small_cloud(capsys):
    code, out = _run(capsys, "verify", "cn-tn(5)", "--samples", "20", "--seed", "0")
    assert "[FAIL]" not in out
    assert code == 0


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", [*actions.catalog_ids(), "cn-tn(3)"])
def test_verify_passes_across_seeds(capsys, name, seed):
    # the invariant battery must hold for any seed, not only the pinned 0
    code, out = _run(capsys, "verify", name, "--samples", "40", "--seed", str(seed))
    assert "[FAIL]" not in out
    assert code == 0


@pytest.mark.parametrize("seed", range(6))
def test_rp2_small_cloud_elects_the_sampled_class(capsys, seed):
    # the 32 equator specials outnumber 20 samples; the principal class must
    # still come from the samples
    code, out = _run(capsys, "verify", "rp2-so2", "--samples", "20", "--seed", str(seed))
    assert "[FAIL]" not in out
    assert code == 0
