import dataclasses
import json
import math
import time

import pytest

import gibbslab.cli as cli
import gibbslab.harness as harness
from gibbslab.errors import ArgumentError, ConfigError, ResolutionError
from gibbslab.harness import (
    CSV_COLUMNS,
    THEOREMS,
    load_config,
    run_experiment,
    validate_config,
)
from gibbslab.oracles import Estimate


def minimal_config(**overrides):
    cfg = {
        "landscape": {"name": "quadratic", "params": {"dimension": 1}},
        "gibbs": {"gamma": [10.0], "ridge": 0.0, "m": [100]},
        "radius": {"relative": [0.3]},
        "theorems": ["local_excess"],
        "master_seed": 11,
    }
    for key, value in overrides.items():
        cfg[key] = value
    return cfg


def huge_gamma_config():
    """A d = 1 double well at gamma = 1e13, whose quadrature would need
    about 7.2e8 nodes per axis."""
    raw = minimal_config(
        landscape={"name": "double_well", "params": {"dimension": 1}},
        theorems=["ellipsoid_mass"],
    )
    raw["gibbs"] = {"gamma": [1e13], "ridge": 0.0, "m": [100]}
    return raw


def _gibbs(**fields):
    return lambda raw: {**raw, "gibbs": {**raw["gibbs"], **fields}}


def _landscape(name, dimension):
    return lambda raw: {**raw, "landscape": {"name": name, "params": {"dimension": dimension}}}


# (violated path, case tag, edit turning the minimal config into a malformed one);
# the test id is the path, followed by the tag when there is one
MALFORMED = [
    ("gibbs.gamma", "", _gibbs(gamma="abc")),
    ("radius.relative", "", lambda raw: {**raw, "radius": {"relative": "abc"}}),
    ("master_seed", "", lambda raw: {**raw, "master_seed": "abc"}),
    ("config", "", lambda raw: [raw]),
    ("oracle.nodes_per_dim", "", lambda raw: {**raw, "oracle": {"nodes_per_dim": "lots"}}),
    (
        "oracle.mc_trials",
        "",
        lambda raw: {
            **raw,
            "landscape": {"name": "rls", "params": {}},
            "theorems": ["generalization"],
            "oracle": {"mc_trials": 10},
        },
    ),
    ("sampler.steps", "", lambda raw: {**raw, "sampler": {"steps": True}}),
    ("sampler.steps", "zero", lambda raw: {**raw, "sampler": {"steps": 0}}),
    ("sampler.steps", "fractional", lambda raw: {**raw, "sampler": {"steps": 2.5}}),
    ("sampler.steps", "string", lambda raw: {**raw, "sampler": {"steps": "400"}}),
    ("gibbs.m", "", _gibbs(m=[True])),
    ("gibbs.m", "fractional", _gibbs(m=[1.5])),
    ("gibbs.m", "string", _gibbs(m=["1000"])),
    ("gibbs.gamma", "string", _gibbs(gamma=["20"])),
    ("gibbs.ridge", "empty", _gibbs(ridge=[])),
    ("master_seed", "fractional", lambda raw: {**raw, "master_seed": 2.9}),
    ("oracle.nodes_per_dim", "fractional", lambda raw: {**raw, "oracle": {"nodes_per_dim": 10.7}}),
    ("oracle.mc_trials", "fractional", lambda raw: {**raw, "oracle": {"mc_trials": 60.5}}),
    ("landscape.params", "double_well-d0", _landscape("double_well", 0)),
    ("landscape.params", "double_well-d-1", _landscape("double_well", -1)),
    ("landscape.params", "quadratic-d0", _landscape("quadratic", 0)),
    ("landscape.params", "quadratic-d-1", _landscape("quadratic", -1)),
    (
        "landscape.params",
        "bounds-string",
        lambda raw: {**raw, "landscape": {"name": "double_well", "params": {"bounds": "ab"}}},
    ),
    (
        "landscape.params",
        "quadratic-empty-matrix",
        lambda raw: {**raw, "landscape": {"name": "quadratic", "params": {"matrix": []}}},
    ),
    ("theorems", "repeated", lambda raw: {**raw, "theorems": ["local_excess", "local_excess"]}),
    (
        "landscape.params",
        "quadratic-dimension-disagrees-with-matrix",
        lambda raw: {
            **raw,
            "landscape": {"name": "quadratic", "params": {"dimension": 5, "matrix": [[2.0]]}},
        },
    ),
]


class TestValidation:
    def test_minimal_config_valid(self):
        cfg = validate_config(minimal_config())
        assert cfg.gammas == (10.0,)
        assert cfg.theorems == ("local_excess",)

    def test_roundtrip_identity(self, tmp_path):
        raw = minimal_config()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        first = load_config(path)
        second = validate_config(json.loads(json.dumps(first.raw)))
        assert first == second

    def test_unknown_keys_listed(self):
        raw = minimal_config()
        raw["typo_section"] = {}
        raw["gibbs"]["gamm"] = 3
        raw["sampler"] = {"kind": "sgld", "step_size": 0.1, "burn_in": 10, "chains": 2}
        raw["gibbs"]["gen_bound_variant"] = "theorem"
        raw["radius"]["absolute"] = [0.1]
        raw["oracle"] = {"use_quadrature_weights": True}
        # M and σ = M/2 are the landscape's; a config cannot override them
        raw["gibbs"].update(loss_bound=-1, sigma=0.0)
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        text = str(err.value)
        assert "typo_section" in text and "gibbs.gamm" in text
        for key in ("kind", "step_size", "burn_in", "chains"):
            assert f"sampler.{key}: unknown key" in text
        for path in (
            "gibbs.gen_bound_variant", "radius.absolute", "oracle.use_quadrature_weights",
            "gibbs.loss_bound", "gibbs.sigma",
        ):
            assert f"{path}: unknown key" in text

    def test_all_violations_collected(self):
        raw = minimal_config()
        del raw["master_seed"]
        raw["gibbs"]["gamma"] = [-1.0]
        raw["theorems"] = ["nonsense"]
        raw["sampler"] = {"steps": 0}
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        assert len(err.value.violations) >= 4
        assert any(v.startswith("sampler.steps") for v in err.value.violations)

    def test_malformed_values_listed_together(self):
        raw = minimal_config(master_seed="abc", oracle={"nodes_per_dim": "lots"})
        raw["gibbs"].update(gamma="abc")
        raw["radius"] = {"relative": "abc"}
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        paths = {v.split(":")[0] for v in err.value.violations}
        assert {"gibbs.gamma", "radius.relative", "master_seed", "oracle.nodes_per_dim"} <= paths

    def test_integral_sampler_steps_accepted(self):
        cfg = validate_config(minimal_config(sampler={"steps": 400.0}))
        assert cfg.sampler["steps"] == 400 and isinstance(cfg.sampler["steps"], int)

    def test_tuned_radius_validated_per_gamma(self):
        raw = minimal_config(radius={"tuning_p": [1.0 / 3.0]})
        raw["gibbs"]["gamma"] = [1e-6]  # r = gamma^{-1/3} = 100 > r0
        with pytest.raises(ConfigError, match="tuning_p"):
            validate_config(raw)

    def test_generalization_needs_data_model(self):
        raw = minimal_config(theorems=["generalization"])
        with pytest.raises(ConfigError, match="data model"):
            validate_config(raw)

    def test_radius_mode_exclusive(self):
        raw = minimal_config(radius={"relative": [0.3], "tuning_p": [0.2]})
        with pytest.raises(ConfigError, match="exactly one"):
            validate_config(raw)


class TestRunExperiment:
    def test_smoke_run_passes_and_writes_reports(self, tmp_path):
        cfg = validate_config(minimal_config())
        result = run_experiment(cfg, out_dir=tmp_path)
        assert result.all_passed
        written = {p.name for p in result.run_dir.iterdir()}
        assert written == {"report.csv", "report.json", "run_meta.json"}
        header = (result.run_dir / "report.csv").read_text().splitlines()[0]
        assert header.split(",") == CSV_COLUMNS

    def test_run_meta_telemetry(self, tmp_path):
        cfg = validate_config(minimal_config())
        result = run_experiment(cfg, out_dir=tmp_path)
        meta = json.loads((result.run_dir / "run_meta.json").read_text())
        assert set(meta) == {
            "wall_time_seconds", "quadrature_s", "generalization_s", "quadrature",
            "peak_rss_mb", "versions",
        }
        assert 0.0 < meta["quadrature_s"] <= meta["wall_time_seconds"]
        assert meta["generalization_s"] == 0.0
        assert isinstance(meta["peak_rss_mb"], float) and meta["peak_rss_mb"] > 0.0
        assert set(meta["versions"]) == {"python", "numpy", "scipy"}
        assert all(isinstance(v, str) and v for v in meta["versions"].values())

    def test_reports_append_only(self, tmp_path):
        cfg = validate_config(minimal_config())
        first = run_experiment(cfg, out_dir=tmp_path)
        before = (first.run_dir / "report.csv").read_bytes()
        second = run_experiment(cfg, out_dir=tmp_path)
        assert second.run_dir != first.run_dir
        assert (first.run_dir / "report.csv").read_bytes() == before

    def test_byte_identical_reruns(self, tmp_path):
        cfg = validate_config(
            minimal_config(
                theorems=["local_excess", "ellipsoid_mass", "minima_distribution"]
            )
        )
        a = run_experiment(cfg, out_dir=tmp_path / "a")
        b = run_experiment(cfg, out_dir=tmp_path / "b")
        assert (a.run_dir / "report.csv").read_bytes() == (
            b.run_dir / "report.csv"
        ).read_bytes()

    def test_only_one_worker(self, tmp_path):
        cfg = validate_config(minimal_config())
        with pytest.raises(ArgumentError, match="workers"):
            run_experiment(cfg, out_dir=tmp_path, workers=2)
        assert not tmp_path.joinpath("run-0001").exists()

    def test_one_quadrature_pass_per_gamma_ridge(self, tmp_path, monkeypatch):
        points = []
        measure = harness.quadrature_measure

        def counting_measure(potential, *args, **kwargs):
            def counted(w):
                points.append(len(w))
                return potential(w)

            return measure(counted, *args, **kwargs)

        monkeypatch.setattr(harness, "quadrature_measure", counting_measure)
        raw = minimal_config(
            landscape={
                "name": "quadratic",
                "params": {"dimension": 2, "matrix": [[1.0, 0.3], [0.3, 2.0]]},
            },
            theorems=[t for t in THEOREMS if t != "generalization"],
        )
        raw["gibbs"] = {"gamma": [100.0], "ridge": 0.0, "m": [100, 1000]}
        raw["radius"] = {"relative": [0.8]}
        result = run_experiment(validate_config(raw), out_dir=tmp_path)
        # a coarse grid and its doubling, shared by both m and all six theorems
        assert sum(points) == 400**2 + 800**2
        assert {r["m"] for r in result.rows} == {100, 1000}

    def test_one_landscape_per_run(self, tmp_path, monkeypatch):
        built = []
        make_landscape = harness.make_landscape

        def counting_landscape(*args, **kwargs):
            built.append(args)
            return make_landscape(*args, **kwargs)

        monkeypatch.setattr(harness, "make_landscape", counting_landscape)
        cfg = validate_config(minimal_config())
        run_experiment(cfg, out_dir=tmp_path)
        assert len(built) == 1

    def test_one_data_model_per_run(self, tmp_path, monkeypatch):
        built = []
        make_data_model = harness.make_data_model

        def counting_data_model(*args, **kwargs):
            built.append(args)
            return make_data_model(*args, **kwargs)

        monkeypatch.setattr(harness, "make_data_model", counting_data_model)
        raw = minimal_config(
            landscape={"name": "rls", "params": {}},
            theorems=["generalization"],
            sampler={"steps": 50},
            oracle={"mc_trials": 50},
        )
        raw["gibbs"] = {"gamma": [1.0, 10.0], "ridge": 0.1, "m": [100]}
        result = run_experiment(validate_config(raw), out_dir=tmp_path)
        assert len({row["gamma"] for row in result.rows}) == 2
        assert len(built) == 1

    def test_one_minima_distribution_per_point(self, tmp_path, monkeypatch):
        calls = []
        minima_distribution = harness.bnd.minima_distribution

        def counting_distribution(*args, **kwargs):
            calls.append(args)
            return minima_distribution(*args, **kwargs)

        monkeypatch.setattr(harness.bnd, "minima_distribution", counting_distribution)
        raw = minimal_config(
            landscape={"name": "double_well", "params": {"dimension": 1}},
            theorems=[t for t in THEOREMS if t != "generalization"],
        )
        raw["gibbs"] = {"gamma": [20.0, 100.0], "ridge": 0.0, "m": [100, 1000]}
        raw["radius"] = {"relative": [0.3, 0.6]}
        result = run_experiment(validate_config(raw), out_dir=tmp_path)
        assert {row["m"] for row in result.rows} == {100, 1000}
        points = {(row["gamma"], row["ridge"], row["radius"]) for row in result.rows}
        assert len(points) == 4
        # one per (γ, λ, r), shared by every m and by both table entries
        assert len(calls) == len(points)

    @pytest.mark.parametrize(
        "landscape, method, nodes",
        [
            ({"name": "quadratic", "params": {"dimension": 1}}, "tensor", [[3088], [6192]]),
            (
                {"name": "quadratic", "params": {"dimension": 2, "matrix": [[1.0, 0.3], [0.3, 2.0]]}},
                "tensor",
                [[400, 400], [800, 800]],
            ),
            ({"name": "double_well", "params": {"dimension": 2}}, "product", [[3120, 3120], [6240, 6240]]),
        ],
        ids=["d1", "non_diagonal", "separable"],
    )
    def test_run_meta_records_each_quadrature(self, tmp_path, landscape, method, nodes):
        raw = minimal_config(landscape=landscape, radius={"relative": [0.8]})
        raw["gibbs"] = {"gamma": [100.0, 200.0], "ridge": [0.0, 0.1], "m": [100]}
        result = run_experiment(validate_config(raw), out_dir=tmp_path)
        meta = json.loads((result.run_dir / "run_meta.json").read_text())
        points = [(q["gamma"], q["ridge"]) for q in meta["quadrature"]]
        assert points == [(100.0, 0.0), (100.0, 0.1), (200.0, 0.0), (200.0, 0.1)]
        for q in meta["quadrature"]:
            assert set(q) == {"gamma", "ridge", "method", "nodes_per_axis", "seconds"}
            assert q["method"] == method
            coarse, fine = q["nodes_per_axis"]
            assert len(coarse) == len(fine) == int(landscape["params"]["dimension"])
        assert meta["quadrature"][-1]["nodes_per_axis"] == nodes
        assert meta["quadrature_s"] == pytest.approx(sum(q["seconds"] for q in meta["quadrature"]))

    def test_no_quadrature_without_quadrature_theorems(self, tmp_path):
        raw = minimal_config(
            landscape={"name": "rls", "params": {}}, theorems=["generalization"]
        )
        raw["sampler"] = {"steps": 20}
        raw["oracle"] = {"mc_trials": 50}
        result = run_experiment(validate_config(raw), out_dir=tmp_path)
        meta = json.loads((result.run_dir / "run_meta.json").read_text())
        assert meta["quadrature"] == [] and meta["quadrature_s"] == 0.0
        assert 0.0 < meta["generalization_s"] <= meta["wall_time_seconds"]

    @pytest.mark.parametrize("z, passed", [(-2.99, True), (-3.01, False)])
    def test_generalization_row_fails_below_zero(self, tmp_path, monkeypatch, z, passed):
        # the true gap is >= 0: an estimate more than 3 standard errors
        # below 0 fails its rows, whatever their bounds
        se = 1e-3
        stub = Estimate(value=z * se, halfwidth_95=2.0 * se, n=50)
        monkeypatch.setattr(harness, "empirical_generalization_gap", lambda *a, **k: stub)
        raw = minimal_config(
            landscape={"name": "rls", "params": {}}, theorems=["generalization"]
        )
        raw["oracle"] = {"mc_trials": 50}
        rows = run_experiment(validate_config(raw), out_dir=tmp_path).rows
        assert rows and all(row["margin"] > 0.0 for row in rows)
        assert [row["passed"] for row in rows] == [passed] * len(rows)

    @pytest.mark.parametrize(
        "landscape, gamma, relative",
        [
            ({"name": "double_well", "params": {"dimension": 2}}, 100.0, 0.3),
            ({"name": "quadratic", "params": {"dimension": 3}}, 100.0, 0.8),
        ],
        ids=["double_well2", "quadratic3"],
    )
    def test_separable_points_that_raised_on_the_tensor_grid(
        self, tmp_path, landscape, gamma, relative
    ):
        # both raised ResolutionError on the masked tensor grid, whose
        # drift on doubling falls only to first order
        raw = minimal_config(
            landscape=landscape,
            theorems=[t for t in THEOREMS if t != "generalization"],
        )
        raw["gibbs"] = {"gamma": [gamma], "ridge": 0.0, "m": [1000]}
        raw["radius"] = {"relative": [relative]}
        result = run_experiment(validate_config(raw), out_dir=tmp_path)
        assert result.rows and all(math.isfinite(r["oracle_value"]) for r in result.rows)
        meta = json.loads((result.run_dir / "run_meta.json").read_text())
        assert [q["method"] for q in meta["quadrature"]] == ["product"]
        assert meta["quadrature_s"] < 0.1

    def test_ellipsoid_masses_hold_when_the_box_is_tighter_than_the_wells(self, tmp_path):
        # on [−1.2, 1.2] the pairwise radius √8 would put each well's
        # ellipsoid past the box edge, where the lower mass bound counts mass
        # the box does not hold
        raw = minimal_config(
            landscape={"name": "double_well", "params": {"dimension": 1, "bounds": [-1.2, 1.2]}},
            theorems=["ellipsoid_mass"],
        )
        raw["gibbs"] = {"gamma": [1e-3], "ridge": 0.0, "m": [1000]}
        raw["radius"] = {"relative": [0.5, 0.8, 1.0]}
        rows = run_experiment(validate_config(raw), out_dir=tmp_path).rows
        assert len(rows) == 6 and all(row["passed"] for row in rows)
        assert max(row["radius"] for row in rows) == pytest.approx(0.2 * math.sqrt(8.0))

    def test_gamma_beyond_the_node_cap_raises(self, tmp_path):
        cfg = validate_config(huge_gamma_config())
        with pytest.raises(ResolutionError, match=f"above the cap of {2**22}"):
            run_experiment(cfg, out_dir=tmp_path)

    def test_radius_sweep_matches_separate_runs(self, tmp_path):
        theorems = [t for t in THEOREMS if t != "generalization"]
        raw = minimal_config(
            landscape={"name": "double_well", "params": {"dimension": 1}},
            theorems=theorems,
            radius={"relative": [0.3, 0.6]},
        )
        swept = run_experiment(validate_config(raw), out_dir=tmp_path / "swept").rows
        single = []
        for rel in (0.3, 0.6):
            raw["radius"] = {"relative": [rel]}
            single += run_experiment(validate_config(raw), out_dir=tmp_path / str(rel)).rows
        single.sort(key=lambda r: (r["theorem"], r["key"]))
        assert [r["key"] for r in swept] == [r["key"] for r in single]
        for a, b in zip(swept, single):
            assert a["passed"] == b["passed"]
            for col in ("bound_total", "oracle_value"):
                assert a[col] == pytest.approx(b[col], rel=1e-9, abs=1e-12)

    def test_complement_series_decreasing_under_tuned_radius(self, tmp_path):
        raw = minimal_config(
            landscape={"name": "double_well", "params": {"dimension": 1}},
            radius={"tuning_p": [1.0 / 3.0]},
            theorems=["complement_mass"],
        )
        raw["gibbs"]["gamma"] = [10.0, 100.0, 1000.0]
        cfg = validate_config(raw)
        result = run_experiment(cfg, out_dir=tmp_path)
        assert result.all_passed
        series = [
            r
            for r in result.rows
            if r["theorem"] == "complement_mass" and r["variant"] == ""
        ]
        masses = [r["oracle_value"] for r in sorted(series, key=lambda r: r["gamma"])]
        assert all(b < a for a, b in zip(masses, masses[1:]))
        monotone = [r for r in result.rows if r["variant"] == "monotone_decreasing"]
        assert len(monotone) == 1 and monotone[0]["passed"]


class TestCli:
    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_config()))
        assert cli.main(["validate", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_bad_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        bad = minimal_config()
        del bad["master_seed"]
        path.write_text(json.dumps(bad))
        assert cli.main(["validate", str(path)]) == 2

    @pytest.mark.parametrize(
        "path, tag, edit", MALFORMED, ids=[p + (f"-{t}" if t else "") for p, t, _ in MALFORMED]
    )
    def test_malformed_config_exit_2(self, path, tag, edit, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(edit(minimal_config())))
        assert cli.main(["validate", str(cfg)]) == 2
        assert f"{path}:" in capsys.readouterr().err
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"{path}:" in capsys.readouterr().err

    def test_validate_refuses_quadrature_in_high_dimension(self, tmp_path, capsys):
        # a d = 40 diagonal quadratic: its loss bound never visits the 2^40 corners
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(minimal_config(
            landscape={"name": "quadratic", "params": {"dimension": 40}}
        )))
        assert cli.main(["validate", str(cfg)]) == 2
        assert "quadrature-backed theorems need dimension <= 3, got d=40" in (
            capsys.readouterr().err
        )

    def test_file_that_is_not_json_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"landscape": ')
        assert cli.main(["validate", str(cfg)]) == 2
        assert cli.main(["run", str(cfg)]) == 2

    def test_run_exit_0_and_seed_override(self, tmp_path):
        raw = minimal_config(master_seed=77)
        raw["output_dir"] = str(tmp_path / "runs")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["run", str(path)]) == 0
        report = json.loads(
            (tmp_path / "runs" / "run-0001" / "report.json").read_text()
        )
        assert report["rows"][0]["master_seed"] == 77

    def test_run_out_flag_and_theorem_filter(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_config()))
        rc = cli.main(["run", str(path), "--out", str(tmp_path / "o")])
        assert rc == 0
        report = json.loads((tmp_path / "o" / "run-0001" / "report.json").read_text())
        assert {row["theorem"] for row in report["rows"]} == {"local_excess"}

    @pytest.mark.parametrize(
        "flag",
        [["--seed", "1"], ["--theorem", "local_excess"], ["--workers", "2"]],
        ids=["--seed", "--theorem", "--workers"],
    )
    def test_removed_run_flags_exit_2(self, flag, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_config()))
        with pytest.raises(SystemExit) as exit_:
            cli.main(["run", str(path), "--out", str(tmp_path / "o"), *flag])
        assert exit_.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "out", [lambda f: f, lambda f: f / "runs"], ids=["existing_file", "under_a_file"]
    )
    def test_unusable_output_directory_exit_2(self, out, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_config()))
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert cli.main(["run", str(path), "--out", str(out(blocker))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error:") and "Traceback" not in err

    def test_numerical_error_exit_3(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_config()))

        def boom(*args, **kwargs):
            raise ResolutionError("grid too coarse", suggested_nodes=(4096,))

        monkeypatch.setattr(cli, "run_experiment", boom)
        assert cli.main(["run", str(path)]) == 3

    def test_gap_oracle_refusal_exit_3(self, tmp_path, capsys, monkeypatch):
        # the gap oracle takes only a model declared quadratic
        make_data_model = harness.make_data_model
        monkeypatch.setattr(
            harness,
            "make_data_model",
            lambda *a, **k: dataclasses.replace(make_data_model(*a, **k), quadratic=False),
        )
        raw = minimal_config(
            landscape={"name": "rls", "params": {}}, theorems=["generalization"]
        )
        raw["oracle"] = {"mc_trials": 50}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 3
        assert "'rls' is not declared quadratic" in capsys.readouterr().err

    def test_gamma_beyond_the_node_cap_exit_3(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(huge_gamma_config()))
        start = time.perf_counter()
        assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 3
        assert time.perf_counter() - start < 10.0
        assert "nodes per axis" in capsys.readouterr().err

    def test_large_gamma_ellipsoid_mass_exit_0(self, tmp_path):
        # log Z is about -2e3 here, so Z itself underflows to 0.0
        raw = minimal_config(
            landscape={"name": "rls", "params": {}},
            theorems=["ellipsoid_mass"],
        )
        raw["gibbs"] = {"gamma": [2e4], "ridge": 0.1, "m": [100]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize(
        "name, bounds",
        [
            ("double_well", [0.5, 2.0]),
            ("double_well", [-1.0, 2.0]),
            ("quadratic", [0.0, 5.0]),
            ("quadratic", [1.0, 5.0]),
        ],
        ids=["one_well_outside", "one_of_two_wells_on_the_edge", "minimum_on_the_edge",
             "minimum_outside"],
    )
    def test_minimum_outside_the_box_exit_2(self, name, bounds, tmp_path, capsys):
        raw = minimal_config(
            landscape={"name": name, "params": {"dimension": 1, "bounds": bounds}},
            theorems=[t for t in THEOREMS if t != "generalization"],
        )
        raw["gibbs"]["gamma"] = [20.0]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["validate", str(path)]) == 2
        assert "landscape:" in capsys.readouterr().err

    def test_failing_rows_exit_1_and_are_listed(self, tmp_path, capsys, monkeypatch):
        per_minimum, bound, oracle, _ = harness._TABLE["local_excess"]
        monkeypatch.setitem(
            harness._TABLE, "local_excess", (per_minimum, bound, oracle, lambda row: False)
        )
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_config(radius={"relative": [0.3, 0.6]})))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
        out = capsys.readouterr().out
        assert "(2 rows, 2 failures)" in out
        fails = [line.split() for line in out.splitlines() if "FAIL" in line]
        assert [f[:2] for f in fails] == [["FAIL", "local_excess"]] * 2
        assert all(f[2].startswith("gamma=10;ridge=0;m=100;r=") for f in fails)

    def test_non_diagonal_quadratic_in_three_dimensions_exit_3(self, tmp_path, capsys):
        # the tensor grid's cap of 80 nodes per axis in d = 3 leaves its
        # masked region masses under-resolved
        raw = minimal_config(
            landscape={
                "name": "quadratic",
                "params": {"matrix": [[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]]},
            },
            theorems=["ellipsoid_mass"],
        )
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error:") and "Traceback" not in err
        assert "nodes_per_dim=320" in err

    def test_list_landscapes(self, capsys):
        assert cli.main(["list-landscapes"]) == 0
        out = capsys.readouterr().out
        for name in ("quadratic", "double_well", "spline_double_well", "rls"):
            assert name in out


class TestReportFormats:
    def test_csv_numbers_have_12_significant_digits(self, tmp_path):
        cfg = validate_config(minimal_config())
        result = run_experiment(cfg, out_dir=tmp_path)
        lines = (result.run_dir / "report.csv").read_text().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        printed = row["bound_total"]
        in_memory = result.rows[0]["bound_total"]
        assert printed == f"{in_memory:.12g}"

    def test_json_roundtrips_exactly(self, tmp_path):
        cfg = validate_config(minimal_config())
        result = run_experiment(cfg, out_dir=tmp_path)
        payload = json.loads((result.run_dir / "report.json").read_text())
        for loaded, original in zip(payload["rows"], result.rows):
            assert loaded["bound_total"] == original["bound_total"]
            assert loaded["oracle_value"] == original["oracle_value"]
