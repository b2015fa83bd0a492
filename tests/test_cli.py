"""Command line surface: subcommands, exit codes, report shape."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from orthofold import actions, cli, quotient, strata
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
    assert doc["schema_version"] == "3"
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


def test_payload_has_no_tolerance_block(capsys):
    # the numeric cuts are module constants, and no cut depends on the cloud
    code, out = _run(capsys, "analyze", "s2-zn(5)", "--samples", "20", "--seed", "0")
    assert code == 0
    doc = _parse_report(out)[0]
    assert doc["schema_version"] == cli.SCHEMA_VERSION == "3"
    assert list(doc["payload"])[:4] == ["action", "samples", "seed", "cloud"]


def test_split_iso_piece_fails_the_component_counts(capsys, monkeypatch):
    # a decomposition that cuts the trivial piece in two
    original = strata.isostabilizer_decomposition

    def split(cloud):
        iso = original(cloud)
        b = max(range(len(iso.blocks)), key=lambda j: len(iso.blocks[j]))
        head, tail = iso.blocks[b][:1], iso.blocks[b][1:]
        lab = iso.block_labels[b]
        return strata.PartitionOfM(
            blocks=(*iso.blocks[:b], head, tail, *iso.blocks[b + 1 :]),
            block_labels=(*iso.block_labels[:b], lab, lab, *iso.block_labels[b + 1 :]),
        )

    monkeypatch.setattr(strata, "isostabilizer_decomposition", split)
    code, out = _run(capsys, "verify", "s2-zn(5)", "--samples", "30", "--seed", "1")
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    assert fails == [
        "[FAIL] s2-zn(5) :: iso-component-counts (got {'Trivial': 2, 'Zn(5)': 2},"
        " expected {'Trivial': 1, 'Zn(5)': 2})"
    ]


def test_orbit_across_klein_blocks_fails_its_check(capsys, monkeypatch):
    # an orbit identification that joins the north pole, a Klein block of
    # its own, to the first sample
    original = quotient.identify_orbits

    def joined(cloud):
        north = len(cloud) - 2
        rest = [o for o in original(cloud) if 0 not in o and north not in o]
        return tuple(sorted([(0, north), *rest]))

    monkeypatch.setattr(quotient, "identify_orbits", joined)
    code, out = _run(capsys, "verify", "s2-zn(5)", "--samples", "30", "--seed", "1")
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    assert fails == ["[FAIL] s2-zn(5) :: orbit-in-one-klein-block (orbit (0, 30) meets klein blocks [0, 1])"]


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
# reproduced the numeric angle search's payloads byte for byte. Every
# analyze hash below was re-pinned when the isostabilizer pieces became
# exact (schema 3): the payloads lost their tolerance block, and only the
# isostabilizer partition and the correspondence changed besides
_TORUS_SHAS = {
    "rp2-so2": "48f84bab0a6f483e7a589c39972d26d8002d06d8d6480132094db888361db990",
    "cp2-u1": "88ede0e166ce523067eee5691e7921d9f11b6851d29d0d7222f52a5bc5a903b0",
    "cn-tn(2)": "531d594e4d2e3368839a85f48ad2f93f4cdafcbffa709570ed9eac80fc77da66",
}


@pytest.mark.parametrize("name", sorted(_TORUS_SHAS))
def test_torus_payloads_are_pinned(capsys, name):
    code, out = _run(capsys, "analyze", name, "--samples", "100", "--seed", "0")
    assert code == 0
    assert _parse_report(out)[1] == _TORUS_SHAS[name]


# analyze report-sha256 at seed 0 before the decomposition scans were
# blocked; speed work must keep these payloads byte-identical
_PAYLOAD_SHAS = {
    ("s2-zn(5)", "1500"): "8616b689d1f39919d5a0b604991d2f60fb874e2d8ebe9fb142e5d8506316dc24",
    ("s2xs2-so3", "100"): "e6d9f860a25ec562ed684d85edf05e7eec16e7202e78a5f0175987ca0443610e",
    ("cp2-so3", "100"): "381ae75f747e0491413364d2dd707501d11fe6fecfec2a5e96b6c0f34830d644",
    # the origin's FullGroup weights have three rows, one per torus factor;
    # the T^2 of an axis point reads rows (0, 1) and (1, 0) with one fixed
    # direction, and its profile shows a U1 on each rotating plane
    ("cn-tn(3)", "20"): "1922bde0eaee0fd43b664878f18b00dee6ee0995e9957672ce20b1c90a67c099",
    # the cheapest payload whose slice profiles solve a rank-4 congruence
    ("cn-tn(4)", "10"): "15dfd638cc181ee2b5cf5cf87d4f7c4386d5d47582d2db47e703810b8493fc57",
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
    "rp2-so2": "3724039782c5c6f3da70a0f03a16b8851302157980fd95888cd69cad3b0c9843",
    "cp2-u1": "6147e65c12d6ac9764b45c2db308c555af607e025ed823dbbb5a2e766ae78165",
    "s2xs2-so3": "aeaaa6475e6a23c590ad450857bea4ba4203b5f390a38b1b378d6f874e6fa858",
    "cn-tn(2)": "0af47589372a3fa0b0c93945dd86ccd12908b21e7a739f37e14579cb262ff1b2",
}


@pytest.mark.parametrize("name", sorted(_DENSE_SHAS))
def test_dense_payloads_are_pinned(capsys, name):
    code, out = _run(capsys, "analyze", name, "--samples", "1000", "--seed", "0")
    assert code == 0
    assert _parse_report(out)[1] == _DENSE_SHAS[name]


# verify --samples 100 report-sha256 of the SO(3) actions at the four seeds
# the so3-search benchmark runs; speed work on the SO(3) solve must keep
# these payloads byte-identical. Every verify hash below was re-pinned when
# the checks iso-component-counts and orbit-in-one-klein-block were added,
# the only change to these payloads
_SO3_VERIFY_SHAS = {
    ("s2xs2-so3", 0): "44e544640663942fdd817ac58d266c09afa655f16e2c2736ba666dc3031f537f",
    ("s2xs2-so3", 1): "2d33564b4186d92dd792ff79befc44bcf60d01409d979778b56e2d67761feea4",
    ("s2xs2-so3", 2): "125b78b4c39330d00a2e02bf9bb3443e303c64a30919484bedd00b2c91b049cc",
    ("s2xs2-so3", 3): "7d585e946ed7409772208958579b63d2faf744edcf039307a307e0583d6146e1",
    ("cp2-so3", 0): "0286bf6c887cfa44aeffaae8c779551a0fbd3acb4f87767a12056ac8ec0c3ed3",
    ("cp2-so3", 1): "bc57ae6a20f5a31003c73b3890d972d0b79e9b45f738e928826ba41ce8247884",
    ("cp2-so3", 2): "5d73586ec9ff83a8e0a6a584e18e9a10574006bc1842826075f96cd158085bd5",
    ("cp2-so3", 3): "30d347071a4ffbffebf50d9856121e1ecf92fbcb3767b40202ee1c2d90c5ef3c",
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
    ("cn-tn(2)", 0): "b9f8ad423c29745a1e493ace913f2b1b8866b2c915135396a55ac1320e0f0f74",
    ("cn-tn(2)", 1): "57d2889f48aa8348285aaf662444368bcf7e9c06061eadc534626207a667fe7c",
    ("cn-tn(2)", 2): "504e81c49e069c57e41f346a2a5552ce5e29d8bf7565ba087ff60f8f30171855",
    ("cn-tn(2)", 3): "77637544f1f4824f6b26e761232670b2a93885bd86c6222fa09979f19f14d236",
    ("cp2-u1", 0): "c6e24bb022fddf22fef1356053c20e218503f009ee9a2007eb4af69952b3ca39",
    ("cp2-u1", 1): "df7d650dd49ed1a012a17509e8972c44252476472030cf13bd78a7aa6a79eabc",
    ("cp2-u1", 2): "940f54a652db3be1618d8b25925a776f3ed5aa0dff15e7ab9cbb08ae175e7323",
    ("cp2-u1", 3): "4c44ac6534fba7bf87d32edbbb2d05fe539e7c16685399f7947e0de6705849c0",
    ("rp2-so2", 0): "e952bd4c6ef80734b725324cf678194900d1de7702907840740e799d8d599fdf",
    ("rp2-so2", 1): "99fb50a2e0246cc7ff3ee9c17a17108aac8cd86eedbf0d796fa9cbe89b783300",
    ("rp2-so2", 2): "b203f1d2371b457d80db3b98b226ebab2fd2efa3d0ee6957dae9db4919e9170c",
    ("rp2-so2", 3): "39ac83df9b00892d2dea4cac942bd6cc4d29471c993e6473f4959b940fcdc90a",
}


@pytest.mark.parametrize("name, seed", sorted(_TORUS_VERIFY_SHAS))
def test_torus_verify_payloads_are_pinned(capsys, name, seed):
    code, out = _run(capsys, "verify", name, "--samples", "100", "--seed", str(seed))
    assert code == 0
    assert out.rstrip().splitlines()[-1] == f"report-sha256: {_TORUS_VERIFY_SHAS[(name, seed)]}"


# analyze s2-zn(5) --samples 3000 report-sha256 at the four seeds of the
# finite-dense benchmark, recorded before the same change
_FINITE_DENSE_SHAS = {
    0: "c476da171df64bf63ebd30724a0505015d81931c82c453127ac49bed16f08786",
    1: "a916f96c91c7fa315a62cb7e69a02cd09a459a573afc2df89c7b26747a22f60a",
    2: "3cc889dfd15427a9dca94c05ffc6ae745e3eacf0adaaabd80502c24a7548da97",
    3: "6f1bb9134d14df977088c428ea815057ea47d2d3839c7ee6b4443f321d4ac41d",
}


@pytest.mark.parametrize("seed", sorted(_FINITE_DENSE_SHAS))
def test_finite_dense_payloads_are_pinned(capsys, seed):
    code, out = _run(capsys, "analyze", "s2-zn(5)", "--samples", "3000", "--seed", str(seed))
    assert code == 0
    assert _parse_report(out)[1] == _FINITE_DENSE_SHAS[seed]


# analyze report-sha256 of finite actions with many and with few witnesses
# per pole, recorded before the fixer test became one flattened product
_FINITE_ORDER_SHAS = {
    ("s2-zn(64)", "2000", 0): "8f1fc8ae1300f5ffd55054053228b086d78f61d1f54b87165aec2c776e3f71c9",
    ("s2-zn(64)", "2000", 1): "27bc1aa1ffbd0c29d4f0027f93a12dd22cd7c570e20e751cb7b91cb0e12bffd8",
    ("s2-zn(2)", "1000", 0): "5d777159befa9a47d38703ca203cd36aa0aabdc7ebaa4894d289ce3a3c5cde94",
    ("s2-zn(2)", "1000", 1): "c6268ba86b3de122952a8507e96a2fd56e49d465353abc5c1b18a596af470253",
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
