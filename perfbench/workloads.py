"""The benchmark's three workloads and their output checks.

Each workload has a set-up step (what a user pays before the first
degree level: config validation and lattice/chart construction), a pass
through the package's public entry points, and a check of that pass's
outputs against reference values recorded at the commit that added the
benchmark (``perfbench/reference``).  One operation is one degree level,
or one frame build on ``density-build``; it fails if the pass raises, a
hard invariant is false, or an output differs from the reference.
"""

from __future__ import annotations

import json
import os

from flatsections import cli, frame
from flatsections.cli import RunConfig
from flatsections.geometry import cp1_latlon_cover
from flatsections.kernel import dimension

from tracing import rebound

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# the ROADMAP's drift tolerance, in cli.compare_manifests' relative-above-1,
# absolute-below-1 sense
TOL = 1e-6

# spec fields that depend on the seed and are left out of the comparison
SEEDED_SPEC_FIELDS = ("distortion_samples",)


def _close(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a == b
    return abs(a - b) / max(abs(a), abs(b), 1.0) <= TOL


def _plain(obj):
    """JSON-ready copy (numpy scalars become Python numbers)."""
    return json.loads(json.dumps(obj, default=lambda v: v.item()))


def _without_seed(core: dict, seed: int) -> dict:
    out = dict(core)
    out["config"] = dict(core["config"], seed=seed)
    out["spec"] = {k: v for k, v in core["spec"].items() if k not in SEEDED_SPEC_FIELDS}
    return out


def compare_levels(reference_core: dict, core: dict, levels) -> tuple:
    """(failed levels, notes) from cli.compare_manifests(reference, current).

    The reference goes first, so every field it holds is checked; drift in
    the spec, which feeds every level, fails all of them.
    """
    ref = {"core": _without_seed(reference_core, reference_core["config"]["seed"])}
    cur = {"core": _without_seed(_plain(core), reference_core["config"]["seed"])}
    try:
        report = cli.compare_manifests(ref, cur, tol=TOL)
    except cli.CompareError as exc:
        return set(levels), ["compare: %s" % exc]
    failed, notes = set(), []
    for entry in report["drift"]:
        where = entry["where"]
        failed |= set(levels) if where == "spec" else {int(where[2:])}
        notes.append("drift %s %s: %r vs %r" % (where, entry["field"], entry["a"], entry["b"]))
    notes += ["%s %s permuted" % (e["where"], e["field"]) for e in report["permuted"]]
    return failed, notes


def load_reference(name: str):
    path = os.path.join(REFERENCE_DIR, name + ".json")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class M1Run:
    """``cli.run`` then ``cli.write_outputs`` with binary dumps, m = 1."""

    name = "m1-run"

    def __init__(self, seed: int, out_dir: str, k=(200, 800)):
        self.out_dir = out_dir
        self.cfg = RunConfig(
            m=1, k=tuple(k), lattice="cubic", spacing=1.945, eta=0.995,
            epsilon=0.005, cover={"name": "latlon", "radius": 0.35}, delta=1e-9,
            beta=0.8, seed=seed, out=out_dir, dumps=True,
        )
        self.operations = len(self.cfg.k)

    def params(self) -> dict:
        return dict(self.cfg.echo(), dumps=True)

    def setup(self):
        cli.lattice_spec(self.cfg.validate())

    def run_pass(self):
        manifest = cli.run(self.cfg)
        paths = cli.write_outputs(manifest, self.cfg)
        return manifest, paths

    def _sizes(self) -> dict:
        # manifest.json holds wall-clock data, so its size varies; its core
        # is checked separately
        return {name: os.path.getsize(os.path.join(self.out_dir, name))
                for name in sorted(os.listdir(self.out_dir)) if name != "manifest.json"}

    def snapshot(self, result) -> dict:
        manifest, _ = result
        return {"core": _plain(manifest["core"]), "file_bytes": self._sizes()}

    def check(self, result, reference) -> tuple:
        manifest, paths = result
        levels = self.cfg.k
        failed, notes = compare_levels(reference["core"], manifest["core"], levels)
        if manifest["core"]["status"] != reference["core"]["status"]:
            failed |= set(levels)
            notes.append("status %r" % manifest["core"]["status"])
        with open(os.path.join(self.out_dir, "manifest.json"), "r", encoding="utf-8") as fh:
            written = json.load(fh)
        if cli.core_bytes(written) != cli.core_bytes(_plain(manifest)):
            failed |= set(levels)
            notes.append("manifest.json core differs from the returned manifest")
        sizes = self._sizes()
        if sizes != reference["file_bytes"] or len(paths) != 2:
            failed |= set(levels)
            notes.append("written files %r" % sizes)
        return len(levels), len(failed), notes


class M2Emit:
    """``cli.emit_polys`` for m = 2 on the disjoint-ball cover, mesh 6.

    emit_polys returns no level rows, so ``cli._run_level`` is wrapped, in
    traced and untraced passes alike, to keep each row for the check.
    """

    name = "m2-emit"

    def __init__(self, seed: int, out_dir: str, k=(20, 40), mesh=6):
        self.cfg = RunConfig(
            m=2, k=tuple(k), lattice="cubic", spacing=2.4, eta=0.9,
            cover={"name": "balls", "radius": 0.4}, mesh=mesh, seed=seed,
        )
        self.operations = len(self.cfg.k)

    def params(self) -> dict:
        return self.cfg.echo()

    def setup(self):
        cli.lattice_spec(self.cfg.validate())

    def run_pass(self):
        rows = []
        level = cli._run_level

        def keep_row(*args, **kwargs):
            out = level(*args, **kwargs)
            rows.append(out[0])
            return out

        with rebound([(cli, "_run_level", keep_row)]):
            result = cli.emit_polys(self.cfg)
        return result, rows

    def snapshot(self, out) -> dict:
        result, rows = out
        emitted = {
            k: {
                "sups": [r["sup"]["value"] for r in records],
                "l2": [r["l2"] for r in records],
                "sphere_ratios": [r["sphere ratio"] for r in records],
            }
            for k, records in result["levels"].items()
        }
        core = {"mode": "full", "config": self.cfg.echo(), "spec": result["spec"],
                "rows": rows}
        return _plain({
            "core": core,
            "emitted": emitted,
            "selected": {k: r["sphere ratio"] for k, r in result["selected"].items()},
            "eigen_residuals": {k: e["residual"] for k, e in result["eigenfunctions"].items()},
            "status": result["status"],
        })

    def check(self, out, reference) -> tuple:
        result, rows = out
        levels = self.cfg.k
        current = self.snapshot(out)
        if len(rows) != len(levels):
            return len(levels), len(levels), ["%d level rows" % len(rows)]
        failed, notes = compare_levels(reference["core"], current["core"], levels)
        for k in levels:
            key = str(k)
            ref, cur = reference["emitted"][key], current["emitted"].get(key)
            same = cur is not None and all(
                len(ref[f]) == len(cur[f]) and all(map(_close, ref[f], cur[f]))
                for f in ref)
            same = same and all(
                _close(reference[part][key], current[part].get(key))
                for part in ("selected", "eigen_residuals"))
            if not same:
                failed.add(k)
                notes.append("k=%d emitted records differ" % k)
        if current["status"] != reference["status"]:
            failed |= set(levels)
            notes.append("status %r" % current["status"])
        return len(levels), len(failed), notes


# the paper's density claim: cubic lattice above 0.8 of d_k, hexagonal
# crossing 0.9 between k = 64000 and k = 128000
DENSITY_BUILDS = (
    ("cubic", 0.35, 1.945, 0.8, ((16000, ">"), (32000, ">"))),
    ("hexagonal", 0.2, 1.971, 0.9, ((64000, "<"), (128000, ">"))),
)


class DensityBuild:
    """``frame.build`` for the multichart density claim, m = 1."""

    name = "density-build"

    def __init__(self, seed: int, out_dir: str, builds=DENSITY_BUILDS):
        self.builds = builds
        self.specs = None
        self.operations = sum(len(levels) for *_, levels in builds)

    def params(self) -> dict:
        return {"builds": [
            {"lattice": kind, "cover": {"name": "latlon", "radius": r}, "spacing": a,
             "eta": 0.995, "epsilon": 0.005, "delta": 1e-9, "beta": beta,
             "k": [k for k, _ in levels]}
            for kind, r, a, beta, levels in self.builds]}

    def setup(self):
        self.specs = []
        for kind, radius, a, beta, levels in self.builds:
            charts = tuple(cp1_latlon_cover(radius))
            spec = frame.LatticeSpec(
                kind=kind, m=1, a=a, eta=0.995, gamma=max(c.gamma for c in charts),
                epsilon=0.005, charts=charts, delta=1e-9, beta_target=beta)
            if not spec.certified:
                raise frame.FrameError("%s spec fails its theta certificate" % kind)
            self.specs.append((spec, beta, levels))

    def run_pass(self):
        out = []
        for spec, beta, levels in self.specs:
            for k, side in levels:
                built = frame.build(spec, k)
                out.append({"kind": spec.kind, "k": k, "n": built.n,
                            "dropped": built.dropped, "beta": beta, "side": side})
        return out

    def snapshot(self, out) -> dict:
        return {"builds": [{key: row[key] for key in ("kind", "k", "n", "dropped")}
                           for row in out]}

    def check(self, out, reference) -> tuple:
        failed, notes = 0, []
        expected = {(r["kind"], r["k"]): r for r in reference["builds"]}
        for row in out:
            ref = expected.get((row["kind"], row["k"]))
            ratio = row["n"] / dimension(1, row["k"])
            above = ratio > row["beta"]
            ok = (ref is not None and ref["n"] == row["n"]
                  and ref["dropped"] == row["dropped"] and above == (row["side"] == ">"))
            if not ok:
                failed += 1
                notes.append("%s k=%d: n=%d dropped=%d ratio=%.6f"
                             % (row["kind"], row["k"], row["n"], row["dropped"], ratio))
        missing = len(expected) - len(out)
        return len(expected), failed + max(missing, 0), notes


WORKLOADS = {w.name: w for w in (M1Run, M2Emit, DensityBuild)}
