"""Driver-level tests: config handling, manifests, exit codes, compare."""

import copy
import dataclasses
import hashlib
import json
import math
import os
import struct

import numpy as np
import pytest

from flatsections import certify, cli
from flatsections.cli import CliError, CompareError, RunConfig
from flatsections.flatten import FlattenError, load_family
from flatsections.frame import FrameError, choose_spacing
from flatsections.geometry import GeometryError
from flatsections.kernel import dimension
from flatsections.whitening import WhiteningError, load_matrix


def _ortho_cfg(**kw):
    """Dense single-chart parameters used across the pipeline tests."""
    base = dict(spacing=2.2, eta=0.7, gamma=1.27, t=0.4, k=(50,))
    base.update(kw)
    return RunConfig(**base)


class TestConfig:
    def test_defaults_validate(self):
        cfg = RunConfig().validate()
        assert cfg.k == (50, 100, 200, 400)
        assert cfg.mode == "full"

    def test_from_file_and_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"m": 1, "k": [60], "lattice": "hex", "eta": 0.6}))
        cfg = RunConfig.from_file(str(path))
        assert cfg.lattice == "hexagonal"  # short form normalized
        assert cfg.k == (60,)
        merged = cfg.merged({"eta": 0.4, "k": (80, 90)})
        assert merged.eta == 0.4 and merged.k == (80, 90)
        assert merged.lattice == "hexagonal"  # untouched fields survive

    def test_unknown_key_rejected(self):
        with pytest.raises(CliError):
            RunConfig.from_dict({"spacinggg": 2.0})

    def test_empty_k_rejected(self):
        with pytest.raises(CliError):
            RunConfig(k=()).validate()

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(CliError):
            RunConfig(neumann_tol=0.0).validate()
        with pytest.raises(CliError):
            RunConfig(drift_tol=-1e-6).validate()

    def test_beta_must_stay_below_critical(self):
        # cubic critical density at m=1 is 0.99220; hexagonal is 0.99564
        with pytest.raises(CliError):
            RunConfig(beta=0.995).validate()
        RunConfig(beta=0.99).validate()
        RunConfig(beta=0.995, lattice="hexagonal").validate()

    def test_mode_and_mesh_gates(self):
        with pytest.raises(CliError):
            RunConfig(mesh=3).validate()
        with pytest.raises(CliError):
            RunConfig(mode="plot").validate()
        with pytest.raises(CliError):
            RunConfig(m=3).validate()  # full mode caps at m=2
        with pytest.raises(CliError):
            RunConfig(m=2, lattice="hexagonal").validate()

    def test_k_floor_per_mode(self):
        with pytest.raises(CliError):
            RunConfig(k=(0,)).validate()
        with pytest.raises(CliError):
            RunConfig(k=(1,), mode="kernel-check").validate()
        RunConfig(k=(2,), mode="kernel-check").validate()


class TestLatticeResolution:
    def test_auto_spacing_is_certified(self):
        spec, info = cli.lattice_spec(RunConfig(eta=0.5, spacing=None))
        assert spec.a == pytest.approx(choose_spacing(1, 0.5, 1.27), rel=1e-12)
        assert info["certified"] and info["abound"]
        assert info["chart_count"] == 1

    def test_single_chart_injectivity_gate(self):
        # halfwidth 1.2 reaches 1.2 sqrt(2) > pi/2
        with pytest.raises(GeometryError):
            cli.lattice_spec(RunConfig(t=1.2))

    def test_cover_resolution(self):
        cfg = RunConfig(
            k=(100,), spacing=1.945, eta=0.995, epsilon=0.005,
            cover={"name": "latlon", "radius": 0.35}, delta=1e-9, beta=0.8,
        ).validate()
        spec, info = cli.lattice_spec(cfg)
        assert info["chart_count"] == 17
        assert spec.gamma == pytest.approx(1.0876758180988426, rel=1e-9)
        assert info["covering_defect"] < 1e-9  # cells tile the line
        assert info["certified"]
        # sampled distortion never exceeds the declared bound of its chart
        for est, chart in zip(info["distortion_samples"], spec.charts):
            assert est <= chart.gamma * (1 + 1e-9)

    def test_delta_budget_enforced(self):
        cfg = RunConfig(
            k=(100,), spacing=1.945, eta=0.995, epsilon=0.005,
            cover={"name": "latlon", "radius": 0.35}, delta=0.5, beta=0.8,
        )
        with pytest.raises(FrameError):
            cli.lattice_spec(cfg)

    def test_cover_dimension_gates(self):
        with pytest.raises(GeometryError):
            cli.build_charts(RunConfig(m=2, cover={"name": "latlon", "radius": 0.3}))
        with pytest.raises(GeometryError):
            cli.build_charts(RunConfig(m=1, cover={"name": "balls", "radius": 0.4}))


class TestRunManifest:
    def test_dense_run_rows(self):
        manifest = cli.run(_ortho_cfg(k=(50, 100)))
        rows = manifest["core"]["rows"]
        assert [r["k"] for r in rows] == [50, 100]
        assert [r["n_k"] for r in rows] == [9, 9]
        assert rows[0]["eta_hat"] == pytest.approx(0.368536, abs=1e-5)
        assert rows[1]["eta_hat"] == pytest.approx(0.377913, abs=1e-5)
        for row in rows:
            assert all(row["invariants"].values()), row["invariants"]
            assert row["max_sup"] <= row["chain_bound"]
            assert row["max_sup"] <= row["flat_bound"]
            # small families sit well above the 5% flatness window
            assert not row["soft"]["flat_within_5pct"]
        assert manifest["core"]["status"]["exit_code"] == 2

    def test_singleton_run_is_degenerate(self):
        # auto spacing at eta 0.5 leaves one lattice point per chart; the
        # single section is the coherent state and saturates the flat bound,
        # but one coherent state is no flat family, so the run fails
        manifest = cli.run(RunConfig(k=(50,), eta=0.5, spacing=None))
        row = manifest["core"]["rows"][0]
        assert row["n_k"] == 1
        assert row["eta_hat"] == 0.0
        assert row["b_norm"] == pytest.approx(1.0, abs=1e-12)
        peak = math.sqrt(51 / math.pi)
        assert row["max_sup"] == pytest.approx(peak, rel=5e-3)
        status = manifest["core"]["status"]
        assert status["hard_failures"] == ["k=50:frame_nondegenerate"]
        assert status["exit_code"] == 1

    def test_core_is_deterministic(self):
        cfg_a = _ortho_cfg(out="/tmp/det-a")
        cfg_b = _ortho_cfg(out="/tmp/det-b")
        ma, mb = cli.run(cfg_a), cli.run(cfg_b)
        assert cli.core_bytes(ma) == cli.core_bytes(mb)
        assert "wall_clock_s" in ma["envelope"]

    def test_summary_csv_columns(self, tmp_path):
        cfg = _ortho_cfg(k=(50, 100), out=str(tmp_path))
        manifest = cli.run(cfg)
        cli.write_outputs(manifest, cfg)
        lines = (tmp_path / "summary.csv").read_text().strip().splitlines()
        assert lines[0] == "k,n_k,d_k,ratio,eta_hat,b_norm,fk_norm,max_sup,bound"
        assert len(lines) == 3
        assert lines[2].startswith("100,9,101,")
        # the bound column is the row's chain bound, at full precision
        assert float(lines[2].split(",")[-1]) == manifest["core"]["rows"][1]["chain_bound"]

    def test_binary_dumps_roundtrip(self, tmp_path):
        cfg = _ortho_cfg(out=str(tmp_path), dumps=True)
        manifest = cli.run(cfg)
        m, k, gram, _ = load_matrix(str(tmp_path / "gram-k50.bin"))
        assert (m, k) == (1, 50) and gram.shape == (9, 9)
        _, _, b, tag = load_matrix(str(tmp_path / "whitening-k50.bin"))
        norm = float(np.max(np.sum(np.abs(b), axis=1)))
        assert norm == pytest.approx(manifest["core"]["rows"][0]["b_norm"], rel=1e-12)
        fam = load_family(str(tmp_path / "family-k50.bin"))
        assert fam.n == 9 and fam.k == 50

    def test_dump_layout(self, tmp_path):
        # one layout for every dump: magic, <IIII (m, k, rows, tag length),
        # tag, row-major complex128
        cli.run(_ortho_cfg(out=str(tmp_path), dumps=True))
        paths = {}
        for name, tag, cols in (("gram", "gram", 9),
                                ("whitening", "whitening neumann", 9),
                                ("family", "flat family", dimension(1, 50))):
            paths[name] = tmp_path / ("%s-k50.bin" % name)
            blob = paths[name].read_bytes()
            assert struct.unpack("<IIII", blob[4:20]) == (1, 50, 9, len(tag))
            assert blob[20:20 + len(tag)] == tag.encode("utf-8")
            assert len(blob) == 20 + len(tag) + 16 * 9 * cols
        for name in ("gram", "whitening"):
            with pytest.raises(FlattenError, match="not a flat-family dump"):
                load_family(paths[name])
        with pytest.raises(WhiteningError, match="not a matrix dump"):
            load_matrix(paths["family"])

    def test_constants_mode(self, tmp_path):
        cfg = RunConfig(mode="constants-only", out=str(tmp_path))
        manifest = cli.run(cfg)
        core = manifest["core"]
        assert len(core["rows"]) == 6
        assert core["beta"][0] == pytest.approx(0.99220, abs=5e-6)
        assert core["beta_prime"][5] == pytest.approx(0.01024, abs=5e-6)
        assert core["status"]["exit_code"] == 0
        cli.write_outputs(manifest, cfg)
        header = (tmp_path / "constants.csv").read_text().splitlines()[0]
        assert header.startswith("m,a_m,beta_m")

    def test_kernel_mode(self):
        manifest = cli.run(RunConfig(mode="kernel-check", k=(16, 64)))
        for row in manifest["core"]["rows"]:
            assert row["dual_route_rel"] <= 1e-10
            assert row["soft"]["near_regime"] and row["soft"]["far_regime"]
        assert manifest["core"]["status"]["exit_code"] == 0
        # the Gaussian window has not opened yet at k=4: soft deviation
        early = cli.run(RunConfig(mode="kernel-check", k=(4,)))
        assert early["core"]["status"]["exit_code"] == 2
        assert not early["core"]["rows"][0]["soft"]["near_regime"]

    def test_dual_route_capped_on_dimension(self):
        # the second route's cost follows d_k: m=1 k=800 (d_k = 801) runs
        # it, m=3 k=200 (d_k = 1,373,701) skips it
        row = cli.run(RunConfig(mode="kernel-check", k=(800,)))["core"]["rows"][0]
        assert row["dual_route_rel"] <= 1e-10
        assert row["invariants"]["dual_route_agree"]
        row = cli.run(RunConfig(mode="kernel-check", m=3, k=(200,)))["core"]["rows"][0]
        assert row["dual_route_rel"] is None


class TestCompare:
    def test_identical_runs_empty_diff(self):
        cfg = _ortho_cfg()
        report = cli.compare_manifests(cli.run(cfg), cli.run(cfg))
        assert report["identical"]
        assert report["drift"] == [] and report["permuted"] == []

    def test_reversed_order_keeps_gram_quantities(self, monkeypatch):
        # the frame order is no parameter of the construction: reversing a
        # built frame before Gram, whitening, mixing and certification
        # moves no Gram quantity, only the section labels
        cfg = _ortho_cfg(k=(60,))
        ma = cli.run(cfg)
        build = cli.build

        def reversed_build(spec, k):
            fr = build(spec, k)
            return dataclasses.replace(
                fr, points=fr.points[::-1].copy(), chart_index=fr.chart_index[::-1].copy(),
                mu=fr.mu[::-1].copy(), tangent=fr.tangent[::-1].copy())

        monkeypatch.setattr(cli, "build", reversed_build)
        mb = cli.run(cfg)
        report = cli.compare_manifests(ma, mb)
        assert all(e["field"].startswith("section_sups[") for e in report["drift"])
        # reversing the frame maps section j to n-j up to phase
        sa = ma["core"]["rows"][0]["section_sups"]
        sb = mb["core"]["rows"][0]["section_sups"]
        n = len(sa)
        for j in range(n):
            assert sb[j] == pytest.approx(sa[(n - j) % n], rel=1e-9)

    def test_manifest_with_frame_order_compares_identical(self):
        # manifests written while the frame order was a config field carry
        # "order" in their config and spec
        ma = cli.run(_ortho_cfg(k=(60,)))
        old = copy.deepcopy(ma)
        old["core"]["config"]["order"] = "lex"
        old["core"]["spec"]["order"] = "lex"
        for first, second in ((old, ma), (ma, old)):
            report = cli.compare_manifests(first, second)
            assert report["identical"] and report["drift"] == []

    def test_drift_flagged_above_tolerance(self):
        ma = cli.run(_ortho_cfg())
        mb = copy.deepcopy(ma)
        mb["core"]["rows"][0]["eta_hat"] += 1e-3
        report = cli.compare_manifests(ma, mb)
        assert len(report["drift"]) == 1
        assert report["drift"][0]["field"] == "eta_hat"
        # and the same tamper stays invisible below the tolerance
        mc = copy.deepcopy(ma)
        mc["core"]["rows"][0]["eta_hat"] += 1e-8
        assert cli.compare_manifests(ma, mc)["drift"] == []

    def test_kernel_manifests_compare_in_memory(self):
        cfg = RunConfig(mode="kernel-check", k=(16, 64))
        ma = cli.run(cfg)
        report = cli.compare_manifests(ma, cli.run(cfg))
        assert report["identical"] and report["checked"] > 0
        mb = copy.deepcopy(ma)
        mb["core"]["rows"][1]["near"]["max deviation"] *= 1.01
        drifted = [(d["where"], d["field"]) for d in cli.compare_manifests(ma, mb)["drift"]]
        assert drifted == [("k=64", "near.max deviation")]

    def test_constants_manifests_compare_every_constant(self):
        cfg = RunConfig(mode="constants-only", constants_max_m=2)
        ma = cli.run(cfg)
        report = cli.compare_manifests(ma, cli.run(cfg))
        # eight fields per row, the two core-level lists and the invariant
        assert report["identical"] and report["checked"] == 2 * 8 + 2 * 2 + 1
        mb = copy.deepcopy(ma)
        for row in mb["core"]["rows"]:
            row["beta_m"] *= 1.5
            row["beta_prime_m"] *= 1.5
        mb["core"]["beta"] = [1.5 * b for b in mb["core"]["beta"]]
        report = cli.compare_manifests(ma, mb)
        assert not report["identical"]
        drifted = {(d["where"], d["field"]) for d in report["drift"]}
        assert drifted == {("m=1", "beta_m"), ("m=2", "beta_m"), ("m=1", "beta_prime_m"),
                           ("m=2", "beta_prime_m"), ("core", "beta[0]"), ("core", "beta[1]")}
        mc = copy.deepcopy(ma)
        mc["core"]["beta_prime"][1] *= 1.5
        mc["core"]["rows"][0]["a_m"] += 1e-3
        mc["core"]["rows"][1]["truncation"] += 1
        drifted = {(d["where"], d["field"]) for d in cli.compare_manifests(ma, mc)["drift"]}
        assert drifted == {("core", "beta_prime[1]"), ("m=1", "a_m"), ("m=2", "truncation")}

    def test_missing_field_is_drift_only_in_the_second(self):
        ma = cli.run(_ortho_cfg(k=(60,)))
        mb = copy.deepcopy(ma)
        del mb["core"]["rows"][0]["nn"]
        del mb["core"]["rows"][0]["invariants"]["orthonormal"]
        del mb["core"]["spec"]["gamma"]
        drifted = {(d["where"], d["field"]): d["rel"]
                   for d in cli.compare_manifests(ma, mb)["drift"]}
        assert drifted == {("k=60", "nn"): math.inf,
                           ("k=60", "invariants.orthonormal"): math.inf,
                           ("spec", "gamma"): math.inf}
        # the first manifest's fields drive the walk: fields only the
        # second holds (a newer writer's, say) are not drift
        assert cli.compare_manifests(mb, ma)["drift"] == []

    def test_incompatible_configs_error(self):
        ma = cli.run(_ortho_cfg(k=(50,)))
        mb = cli.run(_ortho_cfg(k=(60,)))
        with pytest.raises(CompareError):
            cli.compare_manifests(ma, mb)


class TestMainEntry:
    def test_run_subcommand_writes_outputs(self, tmp_path):
        code = cli.main([
            "run", "--spacing", "2.2", "--eta", "0.7", "--gamma", "1.27",
            "--k", "50", "--out", str(tmp_path),
        ])
        assert code == 2  # flatness spread soft deviation at n=9
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["core"]["config"]["k"] == [50]
        assert (tmp_path / "summary.csv").exists()

    def test_config_error_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"k": []}))
        code = cli.main(["run", "--config", str(path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error:")

    def test_chart_error_diagnostic(self, capsys):
        code = cli.main(["run", "--t", "1.2", "--k", "50"])
        assert code == 1
        assert capsys.readouterr().err.startswith("chart error:")

    def test_whitening_divergence_diagnostic(self, capsys):
        # spacing 0.5 packs the lattice so densely the row sums pass 1
        code = cli.main(["run", "--spacing", "0.5", "--eta", "0.9", "--k", "60"])
        assert code == 1
        assert capsys.readouterr().err.startswith("whitening error:")

    def test_default_run_has_no_hard_failure(self, capsys):
        # the default dense single chart builds 9 to 49 points per level;
        # families that small miss only the soft 5% flatness window
        assert cli.main(["run"]) == 2
        out = capsys.readouterr().out
        assert "hard failure" not in out
        for k in RunConfig().k:
            assert "soft deviation: k=%d:flat_within_5pct" % k in out
        assert "status: soft deviation (exit 2)" in out

    def test_default_emit_polys_has_no_hard_failure(self, capsys):
        assert cli.main(["emit-polys", "--k", "50,100"]) == 0
        out = capsys.readouterr().out
        assert "hard failure" not in out
        assert "status: pass (exit 0)" in out

    @pytest.mark.parametrize("core", [
        {},
        {"mode": "full", "config": {}, "rows": [1]},
        {"mode": "full", "config": []},
    ], ids=["no-mode", "row-not-object", "config-not-object"])
    def test_compare_rejects_broken_core(self, tmp_path, capsys, core):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"core": core}))
        assert cli.main(["compare", str(path), str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("compare error:") and captured.err.count("\n") == 1

    def test_hard_invariant_failure_exit(self):
        # a sloppy series tolerance leaves the family visibly non-orthonormal
        manifest = cli.run(_ortho_cfg(neumann_tol=1e-2))
        status = manifest["core"]["status"]
        assert status["exit_code"] == 1
        assert "k=50:orthonormal" in status["hard_failures"]

    def test_compare_subcommand_exit_codes(self, tmp_path):
        for name in ("a", "b"):
            code = cli.main([
                "run", "--spacing", "2.2", "--eta", "0.7", "--gamma", "1.27",
                "--k", "50", "--out", str(tmp_path / name),
            ])
            assert code == 2
        code = cli.main([
            "compare", str(tmp_path / "a" / "manifest.json"),
            str(tmp_path / "b" / "manifest.json"),
        ])
        assert code == 0
        # tampered copy must flag drift through the exit code
        mpath = tmp_path / "b" / "manifest.json"
        tampered = json.loads(mpath.read_text())
        tampered["core"]["rows"][0]["fk_norm"] *= 1.001
        mpath.write_text(json.dumps(tampered))
        code = cli.main([
            "compare", str(tmp_path / "a" / "manifest.json"), str(mpath),
        ])
        assert code == 1

    @pytest.mark.parametrize("field", ["section_sups", "eta_hat"])
    def test_compare_subcommand_malformed_field(self, tmp_path, capsys, field):
        assert cli.main(["run", "--spacing", "2.2", "--eta", "0.7", "--gamma", "1.27",
                         "--k", "50", "--out", str(tmp_path)]) == 2
        apath = tmp_path / "manifest.json"
        tampered = json.loads(apath.read_text())
        row = tampered["core"]["rows"][0]
        if field == "section_sups":
            row[field].remove(max(row[field]))  # a short list is no permutation
        else:
            row[field] = "0.37"
        bpath = tmp_path / "tampered.json"
        bpath.write_text(json.dumps(tampered))
        capsys.readouterr()
        assert cli.main(["compare", str(apath), str(bpath)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("drift k=50 %s:" % field)

    def test_emit_polys_outputs(self, tmp_path):
        code = cli.main([
            "emit-polys", "--spacing", "2.2", "--eta", "0.7", "--gamma", "1.27",
            "--k", "50", "--out", str(tmp_path),
        ])
        assert code == 0
        selected = json.loads((tmp_path / "polynomials.json").read_text())["selected"]
        assert selected["50"]["sphere ratio"] == pytest.approx(2.6458, abs=2e-3)
        eigen = json.loads((tmp_path / "eigenfunctions.json").read_text())
        assert eigen["50"]["residual"] < 1e-6
        assert eigen["50"]["lambda"] == 50 * 52

    def test_constants_subcommand_stdout(self, capsys):
        assert cli.main(["constants"]) == 0
        out = capsys.readouterr().out
        assert "0.99220" in out and "0.01024" in out
        assert cli.main(["constants", "--max-m", "2"]) == 0
        out = capsys.readouterr().out
        assert "m=2 " in out and "m=3 " not in out

    def test_m2_ball_cover_run(self):
        cfg = RunConfig(
            m=2, k=(20,), spacing=2.4, eta=0.9,
            cover={"name": "balls", "radius": 0.4}, mesh=6,
        )
        manifest = cli.run(cfg)
        row = manifest["core"]["rows"][0]
        assert row["n_k"] == 7
        assert all(row["invariants"].values())
        assert manifest["core"]["status"]["exit_code"] == 0


class TestAtomicOutputs:
    def test_kernel_check_writes_valid_manifest(self, tmp_path):
        code = cli.main(["kernel-check", "--k", "16,64", "--out", str(tmp_path)])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        invariants = manifest["core"]["rows"][0]["invariants"]
        assert invariants["dual_route_agree"] is True
        assert sorted(os.listdir(tmp_path)) == ["manifest.json"]

    def test_failed_write_keeps_old_file_and_no_temp(self, tmp_path, monkeypatch):
        cfg = RunConfig(mode="kernel-check", k=(16,), out=str(tmp_path))
        manifest = cli.run(cfg)
        cli.write_outputs(manifest, cfg)
        before = (tmp_path / "manifest.json").read_bytes()

        def broken_dump(obj, fh, **kwargs):
            fh.write('{"core": ')
            raise TypeError("not serializable")

        monkeypatch.setattr(cli.json, "dump", broken_dump)
        with pytest.raises(TypeError):
            cli.write_outputs(manifest, cfg)
        assert (tmp_path / "manifest.json").read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["manifest.json"]

    def test_full_run_leaves_only_outputs(self, tmp_path):
        cfg = _ortho_cfg(out=str(tmp_path))
        paths = cli.write_outputs(cli.run(cfg), cfg)
        assert sorted(os.listdir(tmp_path)) == ["manifest.json", "summary.csv"]
        assert sorted(os.path.basename(p) for p in paths) == sorted(os.listdir(tmp_path))

    @pytest.mark.parametrize("text", ['{"core": {"mode": "kernel-', "", "[1, 2]"])
    def test_compare_bad_manifest_one_line_error(self, tmp_path, capsys, text):
        good = tmp_path / "good"
        assert cli.main(["kernel-check", "--k", "16", "--out", str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        for pair in ((bad, good / "manifest.json"), (good / "manifest.json", bad)):
            code = cli.main(["compare", str(pair[0]), str(pair[1])])
            err = capsys.readouterr().err
            assert code == 1
            assert err.startswith("compare error:") and err.count("\n") == 1
            assert "Traceback" not in err

    def test_compare_missing_manifest(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert cli.main(["compare", missing, missing]) == 1
        err = capsys.readouterr().err
        assert err.startswith("io error:") and err.count("\n") == 1


class TestEmitReuse:
    def test_each_sup_evaluated_once(self, monkeypatch):
        seen = []
        original = certify.sup_norm

        def counted(s, *args, **kwargs):
            seen.append((s.k, hashlib.blake2b(s.ortho_coeffs.tobytes()).digest()))
            return original(s, *args, **kwargs)

        monkeypatch.setattr(certify, "sup_norm", counted)
        cfg = RunConfig(m=2, k=(6, 10), spacing=2.4, eta=0.9,
                        cover={"name": "balls", "radius": 0.4}, mesh=4)
        result = cli.emit_polys(cfg)
        emitted = sum(len(records) for records in result["levels"].values())
        assert len(seen) == len(set(seen)) == emitted > 2
