"""Command-line front end.

Subcommands: analyze (full pipeline on one action), verify (the invariant
battery over catalog actions, one PASS/FAIL line per check), classify (a
single user-specified point), catalog (list the built-in actions). Reports
are JSON-shaped with a stable field order and a sha256 trailer over the
payload region, so identical invocations are byte-comparable.

The pipeline layers (isotropy, strata, quotient) are imported inside the
functions that use them and reached through their module attributes at
call time, so catalog loads only actions and what it imports.

The process entry, run(), is the only code that sets the cyclic garbage
collector's policy; main() and the library leave it alone.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    # A `python -m orthofold.cli` process runs one command and exits, and
    # reference counting frees its memory, so it runs no cyclic collection
    # at all: not the ones its imports would trigger, and none during the
    # command. This comes before numpy, whose import alone triggers dozens.
    gc.disable()

import argparse
import hashlib
import json
import math
import os
import sys
from collections import Counter
from datetime import datetime, timezone
from types import SimpleNamespace

import numpy as np

from . import __version__, actions, groups, numerics
from .errors import (
    ClassificationError,
    CorrespondenceError,
    InputError,
    OrthofoldError,
    UnknownActionError,
)
from .seeding import rng_for

SCHEMA_VERSION = "3"

# principal-class probe size for classify; small because only the class of
# the generic stabilizer is needed, not a stratification
_CLASSIFY_PROBE = 160

_POINT_ALIASES = {
    "rp2-so2": {"k": "0,0,1"},
    "cp2-u1": {"P0": "1,0,0", "P1": "0,1,0", "P2": "0,0,1"},
    "s2xs2-so3": {"diag": "0,0,1,0,0,1", "antidiag": "0,0,1,0,0,-1"},
    "s2-zn": {"north": "0,0,1", "south": "0,0,-1"},
}


# ---------------------------------------------------------------------------
# deterministic JSON-shaped serialization
# ---------------------------------------------------------------------------


def _num(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    f = float(x)
    if not math.isfinite(f):
        raise InputError("reports cannot carry non-finite numbers")
    return format(f, ".12g")


def _json_value(v, indent: int) -> str:
    pad = " " * indent
    inner = " " * (indent + 1)
    if v is None:
        return "null"
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (bool, np.bool_, int, np.integer, float, np.floating)):
        return _num(v)
    if isinstance(v, dict):
        if not v:
            return "{}"
        rows = [f'{inner}{json.dumps(str(k))}: {_json_value(u, indent + 1)}' for k, u in v.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(v, (list, tuple, np.ndarray)):
        items = list(v)
        if not items:
            return "[]"
        flat = all(
            isinstance(u, (str, bool, np.bool_, int, np.integer, float, np.floating))
            for u in items
        )
        if flat:
            return "[" + ", ".join(_json_value(u, indent) for u in items) + "]"
        rows = [f"{inner}{_json_value(u, indent + 1)}" for u in items]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    raise InputError(f"unserializable report value of type {type(v).__name__}")


def render_report(payload: dict, stream) -> str:
    """Write the report document; returns the payload hash.

    The sha256 covers exactly the serialized payload region, so documents
    from identical runs differ only in the timestamp outside it.
    """
    body = _json_value(payload, 1)
    sha = hashlib.sha256(body.encode("utf-8")).hexdigest()
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    doc = (
        "{\n"
        f' "schema_version": {json.dumps(SCHEMA_VERSION)},\n'
        f' "tool_version": {json.dumps(__version__)},\n'
        f' "generated_at": {json.dumps(stamp)},\n'
        f' "payload": {body}\n'
        "}\n"
        f"report-sha256: {sha}\n"
    )
    stream.write(doc)
    return sha


def _write_report(payload: dict, path) -> None:
    """render_report to the file at path, or to stdout when path is None."""
    if path is None:
        render_report(payload, sys.stdout)
        return
    with open(path, "w", encoding="utf-8") as stream:
        render_report(payload, stream)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


class _CheckFailure(OrthofoldError):
    """A pipeline stage raised, and its error is the verdict of one verify check."""

    def __init__(self, check: str, err: OrthofoldError):
        self.check = check
        super().__init__(str(err))


def run_pipeline(a, samples: int, seed: int) -> SimpleNamespace:
    """Every derived structure of one action, computed once."""
    from . import quotient, strata

    cloud = strata.build_cloud(a, samples, seed=seed)
    orbit_type = strata.orbit_type_partition(cloud)
    iso = strata.isostabilizer_decomposition(cloud)
    orbits = quotient.identify_orbits(cloud)
    klein = quotient.klein_partition(cloud)
    try:
        corr = quotient.correspondence(iso, klein)
    except CorrespondenceError as e:
        raise _CheckFailure("correspondence-defined", e) from e
    principal = strata.principal_dimension(cloud, orbit_type)
    labels = strata.singularity_labels(cloud, principal)
    interval = None
    frontier = None
    interval_note = ""
    if a.interval is not None:
        try:
            interval = quotient.quotient_interval_model(cloud, orbits, klein, principal)
            frontier = quotient.frontier_check(interval)
        except InputError as e:
            # a too-small cloud can push every block into point strata;
            # keep the report valid and record the degeneracy
            interval = None
            interval_note = str(e)
    try:
        orbifold = quotient.orbifold_criterion(cloud, labels)
    except ClassificationError as e:
        raise _CheckFailure("orbifold-criterion-consistent", e) from e
    return SimpleNamespace(
        action=a,
        cloud=cloud,
        orbit_type=orbit_type,
        iso=iso,
        orbits=orbits,
        klein=klein,
        corr=corr,
        principal=principal,
        labels=labels,
        interval=interval,
        frontier=frontier,
        interval_note=interval_note,
        orbifold=orbifold,
    )


def _signature_doc(sig: tuple):
    return [list(s) if isinstance(s, tuple) else s for s in sig]


def _fingerprint_doc(fp) -> dict:
    kind, rows, zero_dims, characters = fp.rep_fingerprint
    return {
        "slice_dim": fp.slice_dim,
        "stabilizer": fp.stab_class.display(),
        "rep_kind": kind,
        "weights": [list(r) for r in rows],
        "zero_dims": zero_dims,
        "characters": list(characters),
        "slice_stab_profile": list(fp.slice_stab_profile),
        "free_away_from_origin": all(label == "Trivial" for label in fp.slice_stab_profile),
        "effective_signature": _signature_doc(fp.effective_signature),
    }


def _partition_doc(part) -> dict:
    return {
        "blocks": len(part.block_labels),
        "sizes": np.bincount(part.owner).tolist(),
        "labels": [lab["label"] for lab in part.block_labels],
    }


def _interval_doc(model) -> dict:
    return {
        "endpoints": list(model.endpoints),
        "strata": [[list(piece) for piece in stratum] for stratum in model.strata],
        "klein_labels": list(model.labels),
    }


def _analysis_payload(r, samples: int, seed: int) -> dict:
    a = r.action
    cloud = r.cloud
    # a singularity label is decided per class, so it is counted per pair
    sing = {}
    first, slot = cloud.pairs
    for i, count in zip(first, np.bincount(slot, minlength=len(first)).tolist()):
        name = r.labels[i].display()
        sing[name] = sing.get(name, 0) + count
    merge_doc = [
        {"iso_blocks": list(pair), "klein_block": kid}
        for pair, kid in r.corr.merge_witnesses
    ]
    split_doc = [
        {"class": cls, "klein_blocks": list(kids)}
        for cls, kids in r.corr.split_witnesses
    ]
    return {
        "action": a.name,
        "samples": samples,
        "seed": seed,
        "cloud": {
            "points": len(cloud),
            "orbits": int(r.orbits.owner.max()) + 1,
            "intrinsic_dim": a.manifold.intrinsic_dim,
        },
        "dimension": {
            "principal": r.principal.value,
            "values": sorted(set(cloud.quotient_dims.tolist())),
            "exceptional_points": int(r.principal.exceptional.sum()),
        },
        "partitions": {
            "orbit_type": _partition_doc(r.orbit_type),
            "isostabilizer": _partition_doc(r.iso),
            "klein": {
                "blocks": len(r.klein.block_labels),
                "sizes": np.bincount(r.klein.owner).tolist(),
                "dims": [lab["dim"] for lab in r.klein.block_labels],
                "fingerprints": [
                    _fingerprint_doc(lab["fingerprint"]) for lab in r.klein.block_labels
                ],
            },
        },
        "correspondence": {
            "mapping": list(r.corr.mapping),
            "surjective": r.corr.surjective,
            "injective": r.corr.injective,
            "merge_witnesses": merge_doc,
            "split_witnesses": split_doc,
        },
        "singularities": dict(sorted(sing.items())),
        "interval_model": (
            {"degenerate": r.interval_note}
            if r.interval is None and r.interval_note
            else None
            if r.interval is None
            else {**_interval_doc(r.interval), "frontier": bool(r.frontier)}
        ),
        "orbifold_criterion": r.orbifold,
    }


# ---------------------------------------------------------------------------
# verify battery
# ---------------------------------------------------------------------------


def _check(results, name, ok, detail=""):
    results.append({"name": name, "ok": bool(ok), "detail": detail if not ok else ""})


def _generic_checks(r, results, seed: int):
    from . import quotient

    a = r.action
    cloud = r.cloud
    lhs = cloud.quotient_dims + cloud.orbit_dims
    bad = int(np.count_nonzero(lhs != a.manifold.intrinsic_dim))
    _check(results, "dimension-identity", bad == 0, f"{bad} violations")

    # each block's dimension is read at its smallest member
    block_dims = np.array([lab["dim"] for lab in r.klein.block_labels])
    const = np.array_equal(block_dims[r.klein.owner], cloud.quotient_dims)
    _check(results, "klein-dimension-constant", const, "a klein block mixes dimensions")

    bad = quotient.block_image(r.orbits, r.klein)[1]
    _check(results, "orbit-in-one-klein-block", bad is None, "" if bad is None else
           f"orbit {tuple(np.flatnonzero(r.orbits.owner == bad[0]).tolist())} meets klein blocks {list(bad[1])}")

    # a straddling block raises in run_pipeline and fails this check there
    _check(results, "correspondence-defined", True)
    _check(results, "correspondence-surjective", r.corr.surjective, "missed klein blocks")

    rel_ot = quotient.compare_partitions(r.iso, r.orbit_type)
    _check(
        results,
        "iso-refines-orbit-type",
        rel_ot in ("PRefinesQ", "Equal"),
        f"relation {rel_ot}",
    )
    rel_ik = quotient.compare_partitions(r.iso, r.klein)
    _check(
        results,
        "iso-refines-klein",
        rel_ik in ("PRefinesQ", "Equal"),
        f"relation {rel_ik}",
    )

    # orbifold_criterion raises when local structure and dimension-map
    # constancy disagree, which fails this check in run_pipeline
    _check(results, "orbifold-criterion-consistent", isinstance(r.orbifold, bool))

    if a.interval is not None:
        vals = np.asarray(a.interval.projection(cloud.points))
        take = cloud.points[: min(len(cloud), 256)]
        els = groups.sample_elements(a.group, 32, rng_for(seed, a.name, "pi-invariance"))
        worst = 0.0
        for g in els:
            moved = actions.normalize(a.manifold, take @ a.amb(g).T)
            worst = max(
                worst,
                float(np.abs(np.asarray(a.interval.projection(moved)) - vals[: take.shape[0]]).max()),
            )
        _check(
            results,
            "pi-orbit-invariant",
            worst <= numerics.MATCH_EPS,
            f"max drift {worst:.3e}",
        )
        _check(
            results,
            "frontier-condition",
            bool(r.frontier),
            r.interval_note or "frontier fails",
        )


def _point_strata_values(model) -> set:
    out = set()
    for stratum in model.strata:
        if all(piece[0] == "point" for piece in stratum):
            out.update(piece[1] for piece in stratum)
    return out


def _klein_block_of_point(r, point: np.ndarray):
    # the cloud's representatives aligned onto point, as in the fixer test
    aligned = actions.aligned(r.action.manifold, r.cloud.points, point)
    d = np.linalg.norm(aligned - point, axis=1)
    i = int(d.argmin())
    return int(r.klein.owner[i]) if d[i] <= 1e-7 else None


def _rp2_t0_locus(vals: np.ndarray) -> np.ndarray:
    """Mask of rp2-so2 points at t = 0 as the stabilizer solve resolves them.

    The half-turn moves a point at height z by 2|z|, a squared displacement
    of 4t, so the solve drops the z coordinate and keeps the half-turn
    exactly when 4t <= ACCEPT_D2. Points just above that cut have a trivial
    stabilizer and are labelled so, however small t is.
    """
    from . import isotropy

    return 4.0 * vals <= isotropy.ACCEPT_D2


def _iso_pieces_expected(a, cloud) -> dict | None:
    """Isostabilizer pieces per class display, worked out by hand.

    Each generic set is connected. On s2xs2-so3, SO(2)_u fixes only
    (+-u, +-u), so each of the 12 circle specials (two per axis) is a piece
    of its own; the three U(1) fixed points of cp2-u1 share H = U(1) and
    are isolated too, as are the two poles of s2-zn(n). On cp2-so3 every
    generic Zn(2) point, and each of the 16 real (O2) and 16 null-quadric
    (SO2) specials, has its own axis, so its own H. The half-turn circle of
    rp2-so2 and the C* at z1 = 0 of cp2-u1 are connected. cn-tn(n) has one
    piece per zero pattern, classed by its count z of zero coordinates.
    """
    name = a.name
    if name == "s2xs2-so3":
        return {"Trivial": 1, "SO2": 12}
    if name == "rp2-so2":
        return {"Trivial": 1, "Zn(2)": 1, "SO2": 1}
    if name == "cp2-so3":
        generic = sum(1 for st in cloud.stabs if st.subgroup.display() == "Zn(2)")
        return {"Zn(2)": generic, "O2": 16, "SO2": 16}
    if name == "cp2-u1":
        return {"Trivial": 1, "Zn(2)": 1, "U1": 3}
    n = a.params.get("n")
    if name.startswith("s2-zn"):
        return {"Trivial": 1, f"Zn({n})": 2}
    if name.startswith("cn-tn"):
        out: Counter = Counter()
        for z in range(n + 1):
            # the full circle of cn-tn(1) is labelled as a circle, U1
            label = {0: "Trivial", n: "FullGroup", 1: "U1"}.get(z, "Other")
            out[label] += math.comb(n, z)
        return out
    return None


def _pinned_checks(r, results, seed: int):
    from . import isotropy, quotient, strata

    a = r.action
    cloud = r.cloud
    name = a.name
    klein_dims = sorted(lab["dim"] for lab in r.klein.block_labels)

    want = _iso_pieces_expected(a, cloud)
    if want is not None:
        got = Counter(lab["subgroup"].display() for lab in r.iso.block_labels)
        _check(results, "iso-component-counts", got == want,
               f"got {dict(sorted(got.items()))}, expected {dict(sorted(want.items()))}")

    if name == "s2xs2-so3":
        _check(results, "klein-block-count-2", len(r.klein.block_labels) == 2,
               f"got {len(r.klein.block_labels)}")
        _check(results, "klein-dims-1-2", klein_dims == [1, 2], f"got {klein_dims}")
        if r.interval is None:
            _check(results, "interval-endpoints-singular", False, r.interval_note)
        else:
            pts = _point_strata_values(r.interval)
            _check(results, "interval-endpoints-singular", pts == {-1.0, 1.0},
                   f"point strata at {sorted(pts)}")

    elif name == "rp2-so2":
        _check(results, "klein-block-count-3", len(r.klein.block_labels) == 3,
               f"got {len(r.klein.block_labels)}")
        _check(results, "klein-dims-1-1-2", klein_dims == [1, 1, 2],
               f"got {klein_dims}")
        vals = np.asarray(a.interval.projection(cloud.points))
        on0 = _rp2_t0_locus(vals)
        at0 = {r.labels[i].display() for i in np.where(on0)[0]}
        at1 = {r.labels[i].display() for i in np.where(np.abs(vals - 1.0) < 1e-9)[0]}
        _check(results, "t0-orbifold-point-2", at0 == {"OrbifoldPoint(2)"}, f"got {at0}")
        _check(results, "t1-orthofold-point", at1 == {"OrthofoldPoint"}, f"got {at1}")
        _check(results, "exceptional-locus-flagged",
               bool(r.principal.exceptional[on0].all()),
               "t=0 points not flagged exceptional")
        _check(results, "orbifold-criterion-false", r.orbifold is False, f"got {r.orbifold}")

    elif name == "cp2-so3":
        ot_labels = sorted(lab["label"] for lab in r.orbit_type.block_labels)
        _check(results, "orbit-type-blocks-3", ot_labels == ["O2", "SO2", "Zn(2)"],
               f"got {ot_labels}")
        _check(results, "klein-block-count-2", len(r.klein.block_labels) == 2,
               f"got {len(r.klein.block_labels)}")
        _check(results, "correspondence-non-injective", not r.corr.injective,
               "correspondence is injective")
        merged = set()
        for (i, j), _ in r.corr.merge_witnesses:
            merged.add(r.iso.block_labels[i]["subgroup"].label)
            merged.add(r.iso.block_labels[j]["subgroup"].label)
        _check(results, "merge-witness-so2-o2", {"SO2", "O2"} <= merged,
               f"merged classes {sorted(merged)}")
        rel = quotient.compare_partitions(r.klein, r.orbit_type)
        _check(results, "inverse-klein-coarser-than-orbit-type", rel == "QRefinesP",
               f"relation {rel}")

    elif name == "cp2-u1":
        fixed = {
            "P0": ("1,0,0", ((1,), (2,))),
            "P1": ("0,1,0", ((-1,), (1,))),
            "P2": ("0,0,1", ((-2,), (-1,))),
        }
        reps = {}
        kids = {}
        for label, (spec, want) in fixed.items():
            x = actions.parse_point(a, spec)
            [rep] = isotropy.slice_representations(a, [isotropy.stabilizer(a, x)])
            reps[label] = rep
            kids[label] = _klein_block_of_point(r, x)
            _check(results, f"slice-weights-{label}", rep.weights == want,
                   f"got {rep.weights}")
        _check(results, "reps-p0-p2-equivalent",
               isotropy.reps_equivalent(reps["P0"], reps["P2"]), "not equivalent")
        _check(results, "reps-p0-p1-inequivalent",
               not isotropy.reps_equivalent(reps["P0"], reps["P1"]), "unexpectedly equivalent")
        same = kids["P0"] is not None and kids["P0"] == kids["P2"]
        other = kids["P1"] is not None and kids["P1"] != kids["P0"]
        _check(results, "p0-p2-share-klein-block", same, f"blocks {kids}")
        _check(results, "p1-separate-klein-block", other, f"blocks {kids}")
        _check(results, "split-witness-present", len(r.corr.split_witnesses) > 0,
               "no split witnesses")
        rel = quotient.compare_partitions(r.klein, r.orbit_type)
        _check(results, "inverse-klein-finer-than-orbit-type", rel == "PRefinesQ",
               f"relation {rel}")

    elif name.startswith("s2-zn"):
        rel = quotient.compare_partitions(r.orbit_type, r.klein)
        _check(results, "klein-equals-orbit-type", rel == "Equal", f"relation {rel}")
        dims = sorted({int(d) for d in cloud.quotient_dims})
        _check(results, "constant-dimension-2", dims == [2], f"got {dims}")
        _check(results, "orbifold-criterion-true", r.orbifold is True, f"got {r.orbifold}")

    elif name.startswith("cn-tn"):
        n = a.params["n"]
        # the dimension n + depth of each moment image against the cloud's
        bad = [x for x, q in zip(cloud.points, cloud.quotient_dims)
               if strata.toric_depth(x[0::2] ** 2 + x[1::2] ** 2)[1] != q]
        _check(results, "toric-dimension-formula", not bad,
               f"formula fails at {np.round(bad[0], 4)}" if bad else "")
        # the orthant's depth strata, depth 0 to n
        blocks = len(r.klein.block_labels)
        _check(results, f"klein-block-count-{n + 1}", blocks == n + 1, f"got {blocks}")


def verify_action(a, samples: int, seed: int) -> list:
    results = []
    try:
        r = run_pipeline(a, samples, seed)
    except _CheckFailure as e:
        _check(results, e.check, False, str(e))
        return results
    except InputError:
        # bad input is not a failing check: the command exits 2
        raise
    except OrthofoldError as e:
        _check(results, "pipeline", False, str(e))
        return results
    _generic_checks(r, results, seed)
    _pinned_checks(r, results, seed)
    return results


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    a = actions.get_action(args.action)
    r = run_pipeline(a, args.samples, args.seed)
    payload = _analysis_payload(r, args.samples, args.seed)
    _write_report(payload, args.out)
    return 0


def cmd_verify(args) -> int:
    if len(args.actions) == 1 and args.actions[0] == "all":
        models = actions.catalog()
    else:
        models = [actions.get_action(t) for t in args.actions]
    action_docs = []
    failures = 0
    for a in models:
        results = verify_action(a, args.samples, args.seed)
        for res in results:
            tag = "PASS" if res["ok"] else "FAIL"
            line = f"[{tag}] {a.name} :: {res['name']}"
            if not res["ok"] and res["detail"]:
                line += f" ({res['detail']})"
            print(line)
            failures += 0 if res["ok"] else 1
        action_docs.append({"action": a.name, "checks": results})
    print(f"{'FAIL' if failures else 'PASS'}: {failures} failing check(s)")
    payload = {
        "command": "verify",
        "samples": args.samples,
        "seed": args.seed,
        "actions": action_docs,
        "failures": failures,
    }
    _write_report(payload, args.out)
    return 1 if failures else 0


def _resolve_point(a, spec: str) -> np.ndarray:
    text = spec.strip()
    family = a.name.split("(")[0]
    alias = _POINT_ALIASES.get(a.name, _POINT_ALIASES.get(family, {}))
    text = alias.get(text, text)
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    return actions.parse_point(a, text)


def cmd_classify(args) -> int:
    from . import isotropy, quotient, strata

    a = actions.get_action(args.action)
    x = _resolve_point(a, args.point)
    # the probe cloud elects the principal class the singularity label needs
    probe = strata.build_cloud(a, _CLASSIFY_PROBE, seed=args.seed)
    st = isotropy.stabilizer(a, x)
    [rep] = isotropy.slice_representations(a, [st])
    principal = strata.principal_dimension(probe, strata.orbit_type_partition(probe))
    label = strata.classify_singularity(st, principal.subgroup)
    [fp] = quotient.local_models(a, [st], [rep], seed=args.seed)
    payload = {
        "action": a.name,
        "point": [float(t) for t in x],
        "seed": args.seed,
        "stabilizer": st.subgroup.display(),
        "orbit_dim": st.orbit_dim,
        "quotient_dim": a.manifold.intrinsic_dim - st.orbit_dim,
        "principal_dim": principal.value,
        "singularity": label.display(),
        "fingerprint": _fingerprint_doc(fp),
    }
    _write_report(payload, args.out)
    return 0


def cmd_catalog(args) -> int:
    del args
    for a in actions.catalog():
        m = a.manifold
        print(
            f"{a.name:12s} group={a.group.name:8s} manifold={m.kind}"
            f" ambient={m.ambient_dim} intrinsic={m.intrinsic_dim}"
        )
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, with_samples: bool = True):
    if with_samples:
        p.add_argument("--samples", type=int, default=2000,
                       help="points sampled per action (default 2000)")
    p.add_argument("--seed", type=int, default=0, help="seed for all sampling (default 0)")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="orthofold",
        description="Stratification toolkit for compact matrix group actions.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="run the full pipeline on one action")
    pa.add_argument("action", help="catalog action id, e.g. cp2-so3 or s2-zn(5)")
    _add_common(pa)
    pa.set_defaults(func=cmd_analyze)

    pv = sub.add_parser("verify", help="run the invariant battery as checks")
    pv.add_argument("actions", nargs="+", help="action ids, or 'all'")
    _add_common(pv)
    pv.set_defaults(func=cmd_verify)

    pc = sub.add_parser("classify", help="classify a single point")
    pc.add_argument("action")
    pc.add_argument("point", help="comma-separated coordinates, or a named point")
    _add_common(pc, with_samples=False)
    pc.set_defaults(func=cmd_classify)

    pt = sub.add_parser("catalog", help="list the built-in actions")
    pt.set_defaults(func=cmd_catalog)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UnknownActionError, InputError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OrthofoldError as e:
        print(f"pipeline failure: {e}", file=sys.stderr)
        return 3


def run() -> int:
    """Process entry of the orthofold command: main() on sys.argv, then exit.

    After the command, gc.freeze() moves every object the process holds
    into the collector's permanent generation, so interpreter exit frees
    them by reference counts without the final collections traversing the
    heap, which took most of a 30-50 ms teardown. A reader that closes the pipe
    early, as `| head` does, ends the command with exit code 1 and no
    traceback; stdout is pointed at os.devnull so that the flush at exit
    does not raise again (the Python docs' note on SIGPIPE).
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
