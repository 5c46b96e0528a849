import argparse
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import weakref
from dataclasses import FrozenInstanceError, asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypns.experiments import (
    FIT_UNDEFINED,
    SKIP_REASON,
    ConfigError,
    ExperimentConfig,
    RateFit,
    SweepResult,
    SweepRow,
    build_reference_field,
    fit_rate,
    load_field,
    normalized_dump,
    parse_config,
    rate_failures,
    run_convergence,
    run_existence_probe,
    run_inequality_audit,
)
from hypns.diagnostics import make_energy_report
from hypns.initial_data import SMALLNESS_BOUND, HypothesisReport, truncate_initial_data
from hypns.ns import default_dt, ns_solve
from hypns.reporting import emit_report
from hypns.spectral import base_sigma, inverse_transform, make_grid
from hypns import cli, experiments, nlw, ns, spectral

from conftest import (
    POISON,
    beltrami_field,
    nan_ut_on_step,
    oracle_mode,
    poison_from_step,
    shell_masses,
    taylor_green_cross_term,
)

DATA = Path(__file__).parent / "data"


def golden_config(**overrides):
    base = dict(
        dim=2, n=16, s=0.5, delta=0.5, eps_list=[0.1, 0.01], T=0.1, dt=2e-3,
        seed=9, amplitude=1.0, sample_stride=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def energy_series(row):
    return [(r.t, r.e_base, r.e_delta, r.linf) for r in row.reports]


class TestConfigParsing:
    def test_minimal_valid_with_defaults(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("dim = 2\nn = 16\neps_list = 0.1, 0.01  # two values\n")
        cfg = parse_config(p)
        assert cfg.dim == 2 and cfg.eps_list == (0.1, 0.01)
        assert cfg.s == 0.5  # default filled
        dump = normalized_dump(cfg)
        assert "s = 0.5" in dump and "eps_list = 0.1, 0.01" in dump

    def test_normalized_dump_reparses(self, tmp_path):
        cfg = golden_config()
        p = tmp_path / "c.cfg"
        p.write_text(normalized_dump(cfg))
        assert parse_config(p) == cfg

    def test_ascending_eps_named(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("dim = 2\nn = 16\neps_list = 0.001, 0.1\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(p)
        assert any("eps_list" in v for v in exc.value.violations)

    def test_s_out_of_range(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("dim = 2\nn = 16\neps_list = 0.1\ns = 1.5\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(p)
        assert any(v.startswith("s:") for v in exc.value.violations)

    def test_all_violations_collected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("dim = 5\nn = 7\nbogus = 1\ns = 1.5\nnot a line\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(p)
        text = "\n".join(exc.value.violations)
        for frag in ("line 3", "bogus", "line 5", "dim", "n:", "s:"):
            assert frag in text
        assert len(exc.value.violations) >= 5

    def test_non_finite_values_named_with_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(
            "dim = 2\nn = 16\nT = nan\ndt = inf\neps_list = 0.1, nan\n"
            "amplitude = -inf\ndelta = nan\n"
        )
        with pytest.raises(ConfigError) as exc:
            parse_config(p)
        for lineno, key in enumerate(("T", "dt", "eps_list", "amplitude", "delta"), start=3):
            assert any(v.startswith(f"line {lineno}: {key}: must be finite") for v in exc.value.violations)
        assert len(exc.value.violations) == 5

    @pytest.mark.parametrize(
        "kw",
        [
            {"T": math.nan}, {"T": math.inf}, {"dt": math.nan}, {"eps_list": [0.1, math.nan]},
            {"amplitude": math.nan}, {"delta": math.nan}, {"s": math.nan},
        ],
    )
    def test_validate_rejects_non_finite(self, kw):
        (key,) = kw
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(**kw)
        assert [v for v in exc.value.violations if v.startswith(f"{key}:")] != []

    def test_validate_rejects_negative_seed(self):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(seed=-1)
        assert exc.value.violations == ["seed: must be >= 0, got -1"]
        assert ExperimentConfig(seed=0).seed == 0

    @pytest.mark.parametrize(
        "key, value", [("dim", 2.0), ("dim", 2.5), ("n", 16.0), ("n", True), ("seed", -0.5), ("sample_stride", 2.5)],
    )
    def test_integer_fields_reject_non_integers(self, key, value):
        # the field's range check is skipped: the one violation is the type
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(**{key: value})
        assert exc.value.violations == [f"{key}: must be an integer, got {value}"]

    @pytest.mark.parametrize(
        "key, value, violation",
        [
            ("s", "0.5", "s: must be a real number, got '0.5'"),
            ("delta", np.True_, "delta: must be a real number, got np.True_"),
            ("T", True, "T: must be a real number, got True"),
            ("dt", "1e-3", "dt: must be a real number, got '1e-3'"),
            ("amplitude", None, "amplitude: must be a real number, got None"),
            ("eps_list", ("0.1",), "eps_list: must be a real number, got '0.1'"),
            ("eps_list", (0.1, True), "eps_list: must be a real number, got True"),
        ],
    )
    def test_float_fields_reject_non_numbers(self, key, value, violation):
        # the field's range check is skipped: the one violation is the type
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(**{key: value})
        assert exc.value.violations == [violation]

    @pytest.mark.parametrize(
        "key, value, violation",
        [
            ("eps_list", 0.1, "eps_list: must be a sequence of numbers, got float"),
            ("eps_list", None, "eps_list: must be a sequence of numbers, got NoneType"),
            ("T", 10**400, "T: must be finite, got a number beyond the float range"),
            ("amplitude", 10**400, "amplitude: must be finite, got a number beyond the float range"),
            ("dt", -(10**400), "dt: must be finite, got a number beyond the float range"),
            ("eps_list", (10**400,), "eps_list: must be finite, got a number beyond the float range"),
        ],
    )
    def test_non_sequences_and_huge_integers_are_violations(self, key, value, violation):
        # a ConfigError, not the TypeError of tuple() or the OverflowError
        # of math.isfinite; the field's range checks are skipped
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(**{key: value})
        assert exc.value.violations == [violation]

    def test_non_sequence_listed_beside_other_violations(self):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(eps_list=None, T=10**400, s=2.0, seed=-1)
        assert exc.value.violations == [
            "eps_list: must be a sequence of numbers, got NoneType",
            "T: must be finite, got a number beyond the float range",
            "s: s in (0,1) is required for the convergence-rate claims, got 2.0",
            "seed: must be >= 0, got -1",
        ]

    def test_float_fields_take_integers_and_numpy_floats(self):
        cfg = ExperimentConfig(s=np.float32(0.25), T=2, dt=None, amplitude=np.int64(3), eps_list=(np.float64(0.1), 1e-2))
        assert (cfg.s, cfg.T, cfg.dt, cfg.amplitude, cfg.eps_list) == (0.25, 2, None, 3, (0.1, 0.01))

    def test_integer_fields_take_numpy_integers(self):
        cfg = ExperimentConfig(dim=np.int64(3), n=np.int32(16), seed=np.uint8(1), sample_stride=np.int16(2))
        assert (cfg.dim, cfg.n, cfg.seed, cfg.sample_stride) == (3, 16, 1, 2)
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(n=16.0, seed=-1, dim=3.0)
        assert exc.value.violations == [
            "dim: must be an integer, got 3.0", "n: must be an integer, got 16.0", "seed: must be >= 0, got -1",
        ]

    @pytest.mark.parametrize("key, value", [("data_file", 5), ("data_file", b"field.npz"), ("data_source", 5)])
    def test_string_fields_reject_non_strings(self, key, value):
        # an integer data_file is a file descriptor to open(): loading it
        # would read and close a descriptor the caller owns
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(**{"data_source": "file", "data_file": "field.npz", key: value})
        assert exc.value.violations == [f"{key}: must be a string or a path, got {value!r}"]

    def test_string_fields_take_paths(self, tmp_path):
        cfg = ExperimentConfig(data_source="file", data_file=tmp_path / "field.npz")
        assert cfg.data_file == tmp_path / "field.npz"

    @pytest.mark.parametrize(
        "key, text, value, got", [("T", "nan", math.nan, "nan"), ("dt", "-inf", -math.inf, "-inf"),
                                  ("eps_list", "0.1, inf", (0.1, math.inf), "inf")],
    )
    def test_parser_and_constructor_share_the_kind_rule(self, tmp_path, key, text, value, got):
        # a line's violation is the constructor's, after the line number
        p = tmp_path / "c.cfg"
        p.write_text(f"dim = 2\n{key} = {text}\n")
        with pytest.raises(ConfigError) as parsed:
            parse_config(p)
        with pytest.raises(ConfigError) as built:
            ExperimentConfig(**{key: value})
        assert built.value.violations == [f"{key}: must be finite, got {got}"]
        assert parsed.value.violations == [f"line 2: {key}: must be finite, got {got}"]

    def test_config_is_frozen(self):
        cfg = golden_config()
        with pytest.raises(FrozenInstanceError):
            cfg.seed = -1
        assert cfg.seed == 9

    def test_config_survives_pickle(self):
        # the pool workers receive the config pickled
        cfg = golden_config()
        assert pickle.loads(pickle.dumps(cfg)) == cfg

    def test_config_is_a_value(self):
        # eps_list is a tuple: the config hashes, and no caller can append
        # an unchecked eps after the constructor's check
        cfg = golden_config()
        assert hash(cfg) == hash(golden_config())
        assert cfg.eps_list == (0.1, 0.01)
        with pytest.raises(AttributeError):
            cfg.eps_list.append(0.5)

    @pytest.mark.parametrize(
        "line", ["u1_scale = 0.5", "threshold_c = 2.0", "composite_n = 3", "energy_ceiling = 1e3",
                 "slope_tol = 0.2", "r2_min = 0.5", "eta = 0.01", "out_dir = out"],
    )
    def test_removed_keys_unknown(self, tmp_path, line):
        p = tmp_path / "c.cfg"
        p.write_text(f"dim = 2\nn = 16\n{line}\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(p)
        key = line.split(" =")[0]
        assert exc.value.violations == [f"line 3: unknown key {key!r}"]

    def test_unknown_and_duplicate_keys(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("dim = 2\ndim = 3\nn = 16\neps_list = 0.1\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(p)
        assert any("duplicate" in v for v in exc.value.violations)


class TestFitRate:
    def test_exact_power_law(self):
        eps = [1e-1, 3e-2, 1e-2, 1e-3]
        fit = fit_rate([(e, 3.0 * e**0.25) for e in eps])
        assert abs(fit.slope - 0.25) < 1e-12
        assert abs(fit.r2 - 1.0) < 1e-12

    def test_two_points_exact(self):
        fit = fit_rate([(0.1, 2.0), (0.01, 0.5)])
        expect = math.log(2.0 / 0.5) / math.log(10.0)
        assert abs(fit.slope - expect) < 1e-12

    def test_constant_values(self):
        fit = fit_rate([(0.1, 2.0), (0.01, 2.0), (0.001, 2.0)])
        assert abs(fit.slope) < 1e-12
        assert fit.r2 == 1.0

    def test_nonpositive_excluded(self):
        fit = fit_rate([(0.1, 1.0), (0.01, 0.0), (0.001, 0.5)])
        assert fit.n_points == 2 and fit.excluded == 1

    def test_iterator_counts_exclusions_once(self):
        pairs = [(1e-1, 1.0), (1e-2, 0.3), (1e-3, 0.0)]
        fit = fit_rate(p for p in pairs)
        assert fit.n_points == 2 and fit.excluded == 1
        assert fit == fit_rate(pairs)

    def test_single_usable_point_undefined(self):
        assert fit_rate([(0.1, 1.0), (0.01, -1.0)]) is None

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(
        gaps=st.lists(st.floats(0.2, 1.0), min_size=2, max_size=8),
        rate=st.floats(0.1, 3.0),
        log_c=st.floats(-7.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_agrees_with_polyfit(self, gaps, rate, log_c, seed):
        # noisy power laws on eps lists at least 10^0.2 apart, as a sweep has;
        # the intercept is compared on the scale max(|intercept|, 1)
        eps = 10.0 ** -np.cumsum(gaps)
        vals = np.exp(log_c + rate * np.log(eps) + 0.3 * np.random.default_rng(seed).standard_normal(len(eps)))
        fit = fit_rate(zip(eps, vals))
        slope, intercept = np.polyfit(np.log(eps), np.log(vals), 1)
        assert abs(fit.slope - slope) <= 1e-12 * abs(slope)
        assert abs(fit.intercept - intercept) <= 1e-12 * max(abs(intercept), 1.0)


class TestDataSources:
    def test_file_round_trip(self, tmp_path):
        g = make_grid(2, 16)
        cfg = golden_config()
        v0 = build_reference_field(cfg, g)
        path = tmp_path / "field.npz"
        np.savez(path, dim=2, n=16, coeffs=v0.coeffs)
        back = load_field(path, g)
        assert np.array_equal(back.coeffs, v0.coeffs)
        cfg2 = golden_config(data_source="file", data_file=str(path))
        assert np.array_equal(build_reference_field(cfg2, g).coeffs, v0.coeffs)
        # the full-spectrum layout of files written before half-spectrum
        # storage is not read
        full = np.fft.fftn(inverse_transform(v0), axes=(1, 2)) * g.fwd_scale
        old = tmp_path / "full.npz"
        np.savez(old, dim=2, n=16, coeffs=full)
        assert full.shape == (2, 16, 16)
        with pytest.raises(ValueError, match="does not match the half spectrum"):
            load_field(old, g)

    def test_file_dimension_mismatch(self, tmp_path):
        g = make_grid(2, 16)
        v0 = build_reference_field(golden_config(), g)
        np.savez(tmp_path / "f.npz", dim=2, n=16, coeffs=v0.coeffs)
        with pytest.raises(ValueError):
            load_field(tmp_path / "f.npz", make_grid(2, 32))

    def test_file_missing_keys_named(self, tmp_path):
        g = make_grid(2, 16)
        np.savez(tmp_path / "f.npz", dim=2, n=16)
        with pytest.raises(ValueError, match="lacks the keys coeffs$"):
            load_field(tmp_path / "f.npz", g)
        np.save(tmp_path / "f.npy", np.zeros((2,) + g.spec_shape, dtype=np.complex128))
        with pytest.raises(ValueError, match="lacks the keys dim, n, coeffs$"):
            load_field(tmp_path / "f.npy", g)

    def test_taylor_green_requires_2d(self):
        with pytest.raises(ConfigError) as exc:
            golden_config(dim=3, n=8, data_source="taylor_green")
        assert exc.value.violations == ["data_source: taylor_green is 2D only"]

    def test_file_of_no_real_field_rejected(self, tmp_path):
        # a Leray-projected random half spectrum breaks c(-k) = conj c(k)
        # on the planes k_last = 0 and n/2; its L^2 norm is not that of
        # the real field it would stand for
        g = make_grid(2, 16)
        rng = np.random.default_rng(0)
        c = rng.standard_normal((2,) + g.spec_shape) + 1j * rng.standard_normal((2,) + g.spec_shape)
        f = spectral.leray_project(spectral.SpectralField(g, c))
        np.savez(tmp_path / "f.npz", dim=2, n=16, coeffs=f.coeffs)
        with pytest.raises(ValueError, match="no real field.* at k_last = 0 and k_last = n/2$"):
            load_field(tmp_path / "f.npz", g)

    @pytest.mark.parametrize("key, value", [("n", np.array([16, 16])), ("dim", 2.0)])
    def test_file_non_scalar_dim_or_n_rejected(self, tmp_path, key, value):
        g = make_grid(2, 16)
        keys = dict(dim=2, n=16, coeffs=build_reference_field(golden_config(), g).coeffs)
        keys[key] = value
        np.savez(tmp_path / "f.npz", **keys)
        with pytest.raises(ValueError, match=f": {key} must be an integer scalar"):
            load_field(tmp_path / "f.npz", g)


# Largest relative gaps of test_beltrami_file_closed_forms measured over
# the data seeds 0-9: 1.2e-14 in a column, 4.9e-14 in a report series
# (err_sq, relative to its largest value; the others 2.1e-15).
BELTRAMI_PIPELINE_TOL = 2e-13
# Largest relative gap of test_linear_pipeline_closed_forms per sample:
# 5.1e-12 in 2D (err_sq, where the relaxation error is small beside the
# data gap) and 3.3e-13 in 3D; the cross term agrees to 3.2e-15.
LINEAR_PIPELINE_TOL = 1e-11


class TestRunConvergence:
    def test_single_eps_flagged(self):
        cfg = golden_config(eps_list=[0.1], T=0.05)
        res = run_convergence(cfg)
        assert len(res.rows) == 1
        assert res.fit is None
        assert rate_failures(res) == [FIT_UNDEFINED]

    def test_unset_dt_is_the_cfl_bound(self):
        # amplitude 200 puts the advective bound below its 1e-3 cap
        cfg = golden_config(dt=None, T=0.01, amplitude=200.0)
        res = run_convergence(cfg)
        assert res.dt_used == default_dt(build_reference_field(cfg, make_grid(2, 16))) < 1e-3
        assert not any(row.blowup for row in res.rows)

    def test_taylor_green_family_slope(self):
        cfg = ExperimentConfig(
            dim=2, n=32, s=0.5, delta=0.5, eps_list=[1e-1, 3e-2, 1e-2],
            T=0.5, dt=1e-3, seed=0, data_source="taylor_green", sample_stride=5,
        )
        res = run_convergence(cfg)
        assert res.fit.slope >= 0.9  # smooth data decays at least linearly in eps

    def test_deterministic_across_jobs(self):
        cfg = golden_config()
        a = run_convergence(cfg, jobs=1)
        b = run_convergence(cfg, jobs=2)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.sup_err_sq == rb.sup_err_sq
            assert ra.cross_term == rb.cross_term

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rows_in_eps_list_order(self, jobs):
        cfg = golden_config(eps_list=[0.1, 0.03, 0.01], T=0.02)
        for entry in (run_convergence, run_existence_probe):
            assert tuple(r.eps for r in entry(cfg, jobs=jobs).rows) == cfg.eps_list

    def test_spawned_pool_writes_the_same_csv(self, monkeypatch, tmp_path):
        # a spawned worker gets the config and the reference samples by
        # pickle alone, as under the forkserver default of Python 3.14, and
        # takes v0 from the samples
        spawn = multiprocessing.get_context("spawn")

        class SpawnPool(experiments.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                super().__init__(max_workers=max_workers, mp_context=spawn, **kwargs)

        cfg = golden_config(T=0.02)
        emit_report(run_convergence(cfg, jobs=1), tmp_path / "one")
        probe = run_existence_probe(cfg, jobs=1)
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", SpawnPool)
        emit_report(run_convergence(cfg, jobs=2), tmp_path / "two")
        assert (tmp_path / "two" / "sweep.csv").read_bytes() == (tmp_path / "one" / "sweep.csv").read_bytes()
        spawned = run_existence_probe(cfg, jobs=2)
        # repr compares every field of the rows exactly, NaN columns included
        assert repr(spawned.rows) == repr(probe.rows)
        assert [energy_series(r) for r in spawned.rows] == [energy_series(r) for r in probe.rows]

    def test_pool_task_payload_independent_of_reference_length(self, monkeypatch):
        sizes = []  # pickled size of each submitted task, one list per run

        class RecordingPool(experiments.ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                sizes[-1].append(len(pickle.dumps((fn, args, kwargs))))
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        for T in (0.02, 0.2):  # 3 and 21 reference samples
            sizes.append([])
            run_convergence(golden_config(T=T), jobs=2)
        short, long = sizes
        assert short == long and len(long) == len(golden_config().eps_list)
        # a single stored reference sample would not fit
        assert max(long) < 16**2 * 16

    def test_probe_pool_payload_smaller_than_a_field(self, monkeypatch):
        # a probe's worker starts from the config alone: v0 is not sent
        initargs = []

        class RecordingPool(experiments.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                initargs.append(kwargs["initargs"])
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        cfg = golden_config(T=0.02)
        run_existence_probe(cfg, jobs=2)
        field = build_reference_field(cfg, make_grid(cfg.dim, cfg.n))
        (payload,) = initargs
        assert len(pickle.dumps(payload)) < field.coeffs.nbytes

    @pytest.mark.parametrize("entry", [run_convergence, run_existence_probe])
    def test_pool_forks_no_more_workers_than_eps(self, monkeypatch, entry):
        workers = []

        class RecordingPool(experiments.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                workers.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        entry(golden_config(T=0.02), jobs=8)
        assert workers == [len(golden_config().eps_list)]

    def test_single_process_run_loads_no_pool(self):
        # a fresh interpreter: this one has loaded the pool for the tests above
        code = (
            "import sys\n"
            "import hypns\n"
            "from hypns import experiments\n"
            f"experiments.run_convergence(experiments.ExperimentConfig(**{asdict(golden_config(T=0.02))!r}), jobs=1)\n"
            "assert 'multiprocessing' not in sys.modules\n"
            "print(experiments.ProcessPoolExecutor.__name__)\n"
            "assert 'multiprocessing' in sys.modules\n"
        )
        src = str(Path(experiments.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["ProcessPoolExecutor"]
        with pytest.raises(AttributeError, match="no_such_name"):
            experiments.__getattr__("no_such_name")

    @pytest.mark.parametrize("entry", [run_convergence, run_existence_probe])
    def test_one_grid_per_run(self, monkeypatch, entry):
        built = []
        post_init = spectral.Grid.__post_init__

        def counted(grid):
            built.append((grid.dim, grid.n))
            post_init(grid)

        monkeypatch.setattr(spectral.Grid, "__post_init__", counted)
        rows = entry(golden_config(), jobs=1).rows
        assert built == [(2, 16)] and len(rows) == len(golden_config().eps_list)

    @pytest.mark.parametrize("entry, grids", [(run_convergence, 1), (run_existence_probe, 0)])
    def test_pool_parent_builds_only_what_it_solves(self, monkeypatch, entry, grids):
        # with jobs > 1 a converge worker takes v0 and its grid from the
        # reference run and a probe worker builds them from the config;
        # this process builds one only for the Navier-Stokes reference
        built = []
        post_init = spectral.Grid.__post_init__

        def counted(grid):
            built.append((grid.dim, grid.n))
            post_init(grid)

        monkeypatch.setattr(spectral.Grid, "__post_init__", counted)
        rows = entry(golden_config(T=0.02), jobs=2).rows
        assert built == [(2, 16)] * grids and len(rows) == len(golden_config().eps_list)

    @pytest.mark.parametrize("entry, worker_builds", [(run_convergence, False), (run_existence_probe, True)])
    def test_converge_pool_worker_builds_no_reference_field(self, monkeypatch, tmp_path, entry, worker_builds):
        # a converge worker's v0 is the reference run's t = 0 sample; a probe
        # has no reference run, so its workers build v0 from the config.
        # The workers are forked, so they inherit the patched builder.
        fork = multiprocessing.get_context("fork")

        class ForkPool(experiments.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                super().__init__(max_workers=max_workers, mp_context=fork, **kwargs)

        parent, build = os.getpid(), experiments.build_reference_field

        def guarded(cfg, grid):
            if os.getpid() != parent:
                if not worker_builds:
                    raise AssertionError("a converge pool worker built the reference field again")
                (tmp_path / f"built-{os.getpid()}").touch()
            return build(cfg, grid)

        cfg = golden_config(T=0.02)
        one = entry(cfg, jobs=1)
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", ForkPool)
        monkeypatch.setattr(experiments, "build_reference_field", guarded)
        two = entry(cfg, jobs=2)
        assert [energy_series(r) for r in two.rows] == [energy_series(r) for r in one.rows]
        assert any(tmp_path.iterdir()) == worker_builds

    def test_reference_samples_passed_without_copy(self, monkeypatch):
        stored, passed = [], []

        def recording_solve(v0, T, observer, **kwargs):
            def keep(state):
                stored.append(state.v)
                observer(state)

            return ns_solve(v0, T, observer=keep, **kwargs)

        def recording_report(state, delta, *, v=None):
            passed.append(v)
            return make_energy_report(state, delta, v=v)

        monkeypatch.setattr(experiments, "ns_solve", recording_solve)
        monkeypatch.setattr(experiments, "make_energy_report", recording_report)
        cfg = golden_config()
        run_convergence(cfg)
        assert len(stored) == 11  # t = 0, 0.01, ..., 0.1: every 5th step of dt 2e-3
        assert len(passed) == len(cfg.eps_list) * len(stored)
        assert all(p is s for p, s in zip(passed, stored * len(cfg.eps_list), strict=True))

    def test_row_threshold_time_and_sup_energy(self, monkeypatch, tmp_path):
        # the sup-norm threshold fails from t = 0.05 on: the row records the
        # first failing sample, and sweep.csv prints it
        def failing_from(state, delta, *, v=None):
            rep = make_energy_report(state, delta, v=v)
            rep.threshold_ok = state.t < 0.05 - 1e-12
            return rep

        monkeypatch.setattr(experiments, "make_energy_report", failing_from)
        cfg = golden_config()
        res = run_convergence(cfg)
        for row in res.rows:
            assert row.first_threshold_violation_t == 0.05
            assert row.sup_eps_delta_e == row.eps**cfg.delta * max(r.e_delta for r in row.reports)
        emit_report(res, tmp_path)
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        col = lines[0].split(",").index("first_threshold_violation_t")
        assert [line.split(",")[col] for line in lines[1:]] == ["0.05", "0.05"]

    @pytest.mark.parametrize("entry", [run_convergence, run_existence_probe])
    def test_wave_run_frees_the_wave_data_after_the_first_step(self, monkeypatch, entry):
        # the wave run keeps no name for u0 over the solve: the sample
        # after the first step finds it freed
        build, report = experiments.build_wave_data, experiments.make_energy_report
        refs, alive = [], []

        def tracked_build(v0, eps):
            data = build(v0, eps)
            refs.append(weakref.ref(data[0].coeffs))
            return data

        def tracked_report(state, delta, **kw):
            if state.t > 0.0:
                alive.append(refs[-1]() is not None)
            return report(state, delta, **kw)

        monkeypatch.setattr(experiments, "build_wave_data", tracked_build)
        monkeypatch.setattr(experiments, "make_energy_report", tracked_report)
        entry(golden_config(T=0.01, sample_stride=1))
        assert len(refs) == 2 and alive == [False] * 2 * 5

    def test_cross_term_taylor_green_closed_form(self):
        # every step sampled, so the trapezoidal quadrature of the sweep's
        # cross term resolves the initial layer of width eps
        cfg = ExperimentConfig(
            dim=2, n=16, eps_list=[0.05], T=0.5, dt=2.5e-4, data_source="taylor_green", sample_stride=1,
        )
        got = run_convergence(cfg).rows[0].cross_term
        want = taylor_green_cross_term(0.05, 0.5)
        assert abs(got - want) <= 1e-6 * abs(want)

    def test_beltrami_file_closed_forms(self, tmp_path):
        # A Beltrami field on the shell |k|^2 = 9 as a data file: v(t) =
        # exp(-9 t) v0 and, from rest, u(t) = a(t) v0, because the wave
        # data keep the shell at every eps here (cutoff eps^(-1/2) > 3).
        # On one shell each H^sigma norm is K^sigma = 3^sigma times the L^2
        # norm, so every report and every error column is a closed form in
        # a, a' and exp(-9 t); eps = 0.1 takes the oscillating branch.
        k2, K = 9, 3.0
        v0 = beltrami_field(16, k2, 3, 0.05)
        path = tmp_path / "beltrami.npz"
        np.savez(path, dim=3, n=16, coeffs=v0.coeffs)
        cfg = ExperimentConfig(
            dim=3, n=16, eps_list=[0.1, 1e-2, 1e-3], T=0.1, dt=5e-3, sample_stride=1,
            data_source="file", data_file=str(path),
        )
        size, peak = spectral.sobolev_norm(v0, 0.0) ** 2, spectral.linf_norm(v0)
        for row in run_convergence(cfg).rows:
            eps, weight = row.eps, row.eps**cfg.delta
            t = np.array([r.t for r in row.reports])
            a, at = np.array([[x.real for x in nlw.propagate_mode(eps, k2, ti, 1.0, 0.0)] for ti in t]).T
            e = np.exp(-k2 * t)
            shared = 0.5 * eps**2 * at**2 + eps * k2 * a**2
            energy = size * (0.5 * (a + eps * at) ** 2 + shared)  # at sigma = 0
            want = {
                "e_base": K * energy,
                "e_delta": K ** (1.0 + 2.0 * cfg.delta) * energy,
                "linf": np.abs(a) * peak,
                "err_sq": K * size * (a - e) ** 2,
                "dafermos": K * size * (0.5 * (a - e + eps * at) ** 2 + shared),
            }
            for name, series in want.items():
                got = np.array([getattr(r, name) for r in row.reports])
                assert np.max(np.abs(got - series)) <= BELTRAMI_PIPELINE_TOL * np.max(series)
            # the cross term pairs u_t = a' v0 with dt_v(v) = -9 v
            columns = [
                (row.sup_err_sq, np.max(want["err_sq"])),
                (row.sup_dafermos, np.max(want["dafermos"])),
                (row.sup_eps_delta_e, weight * np.max(want["e_delta"])),
                (row.initial_eps_delta_e, weight * want["e_delta"][0]),
                (row.cross_term, eps * np.trapezoid(-k2 * K * size * at * e, t)),
            ]
            for got, closed in columns:
                assert abs(got - closed) <= BELTRAMI_PIPELINE_TOL * abs(closed)
            assert row.blowup_t is None and row.first_threshold_violation_t is None

    @pytest.mark.parametrize(
        "cfg",
        [
            ExperimentConfig(dim=2, n=32, eps_list=[0.1, 3e-2, 1e-2, 3e-3], T=0.2, dt=2e-3, sample_stride=10, seed=3),
            ExperimentConfig(dim=3, n=16, eps_list=[0.1, 1e-2], T=0.2, dt=5e-3, sample_stride=4, seed=3),
        ],
        ids=["2d", "3d"],
    )
    def test_linear_pipeline_closed_forms(self, monkeypatch, cfg):
        # With the forcing switched off both solvers run linear systems:
        # from rest u = P11(t) u0 and u_t = P21(t) u0 (the 50-digit
        # oracle_mode), and v = exp(-|k|^2 t) v0, per |k|^2 shell.  u0 is v0
        # on the shells below the cutoff, so every report series and the
        # cross term are sums over shells of the masses U of u0 and V of v0.
        zero = lambda grid, b: np.zeros_like(b)
        monkeypatch.setattr(ns, "_box_forcing", zero)
        monkeypatch.setattr(nlw, "_box_forcing", zero)
        v0 = build_reference_field(cfg, make_grid(cfg.dim, cfg.n))
        s0 = base_sigma(cfg.dim)
        k2, V = shell_masses(v0, s0)
        for row in run_convergence(cfg).rows:
            eps = row.eps
            u0 = truncate_initial_data(v0, eps)
            U, U_delta = shell_masses(u0, s0)[1], shell_masses(u0, s0 + cfg.delta)[1]
            on = U > 0
            t = np.array([r.t for r in row.reports])
            p11, p21 = np.zeros((2, len(t), len(k2)))
            for i, ti in enumerate(t):
                p11[i, on], p21[i, on] = np.array([[z.real for z in oracle_mode(eps, k, ti, 1, 0)] for k in k2[on]]).T
            e = np.exp(-np.outer(t, k2))
            a = p11 + eps * p21
            shared = 0.5 * eps**2 * p21**2 + eps * k2 * p11**2
            gap = e**2 * (V - U)  # the shells of v above the cutoff, which u lacks
            want = {
                "err_sq": (p11 - e) ** 2 * U + gap,
                "dafermos": (0.5 * (a - e) ** 2 + shared) * U + 0.5 * gap,
                "e_base": (0.5 * a**2 + shared) * U,
                "e_delta": (0.5 * a**2 + shared) * U_delta,
            }
            for name, terms in want.items():
                got, closed = np.array([getattr(r, name) for r in row.reports]), terms.sum(axis=1)
                assert np.max(np.abs(got - closed) / closed) <= LINEAR_PIPELINE_TOL, (eps, name)
            # the cross term pairs u_t = P21 u0 with dt_v(v) = -|k|^2 v
            cross = eps * np.trapezoid((-k2 * p21 * e * U).sum(axis=1), t)
            assert abs(row.cross_term - cross) <= LINEAR_PIPELINE_TOL * abs(cross)

    def test_cross_term_zero_for_zero_data(self):
        res = run_convergence(golden_config(amplitude=0.0, T=0.05))
        assert [r.cross_term for r in res.rows] == [0.0] * len(res.rows)

    @pytest.mark.parametrize("misalign", ["shifted", "short"])
    def test_misaligned_reference_rejected(self, misalign):
        cfg = golden_config(T=0.02)
        v0 = build_reference_field(cfg, make_grid(cfg.dim, cfg.n))
        ref = []
        ns_solve(v0, cfg.T, dt=cfg.dt, observer=ref.append, stride=cfg.sample_stride)
        if misalign == "shifted":
            ref = [replace(st, t=st.t + cfg.dt / 2) for st in ref]
        else:
            ref = ref[:-1]
        with pytest.raises(RuntimeError, match="drifted out of alignment"):
            experiments._wave_run(cfg, cfg.eps_list[0], v0, cfg.dt, ref, True)

    def test_cross_term_decays_with_eps(self):
        cfg = golden_config(n=32, eps_list=[1e-1, 1e-2, 1e-3], T=0.25)
        res = run_convergence(cfg)
        cross = [abs(r.cross_term) for r in res.rows]
        fit = fit_rate(list(zip(cfg.eps_list, cross)))
        assert fit.slope >= cfg.s / 2.0 - 0.15


# Controls of the existence probe on 2D n = 64 data, seed 1, at the default
# dt.  In 2D the admissibility ratios are a norm of u0 over a norm of v0, so
# the amplitude does not change them: check_hypotheses passes both controls.
EDGE_CONTROL = dict(dim=2, n=64, s=0.5, delta=0.5, eps_list=[0.1], seed=1, sample_stride=10)


class TestExistenceProbe:
    def test_zero_data_trivial_pass(self):
        cfg = golden_config(amplitude=0.0, T=0.05)
        res = run_existence_probe(cfg)
        assert all(not r.blowup and r.composite_monotone for r in res.rows)

    def test_admissible_family_bounded(self):
        cfg = golden_config(n=32, T=0.2)
        res = run_existence_probe(cfg)
        assert res.sup_bound_ok
        assert all(r.n_star == 0 for r in res.rows)

    def test_inadmissible_gated_until_forced(self):
        cfg = ExperimentConfig(dim=3, n=16, s=0.5, delta=0.5, eps_list=[0.1],
                               T=0.05, dt=5e-3, seed=2, amplitude=0.9, sample_stride=5)
        res = run_existence_probe(cfg)
        assert res.rows[0].skipped
        assert res.rows[0].hypothesis.smallness > 1.0 / 16.0
        forced = run_existence_probe(cfg, force=True)
        assert not forced.rows[0].skipped

    def test_blowup_control_fails(self):
        # Amplitude 256 hits the energy ceiling at t = 0.33896 (dt = 1.468e-4)
        # and at 0.33829 with dt/2: the blow-up time moves by 6.7e-4, less
        # than one sample spacing, so it is the dynamics', not the step's.
        cfg = ExperimentConfig(**EDGE_CONTROL, T=0.4, amplitude=256.0)
        res = run_existence_probe(cfg)
        row = res.rows[0]
        assert row.hypothesis.passed  # the 2D check cannot see this case
        assert row.blowup and not res.sup_bound_ok
        assert row.n_star is None and not row.composite_monotone
        dt = default_dt(build_reference_field(cfg, make_grid(2, 64)))
        half = run_existence_probe(replace(cfg, dt=dt / 2)).rows[0]
        assert half.blowup and abs(half.blowup_t - row.blowup_t) < cfg.sample_stride * dt

    def test_control_inside_the_edge_bounded(self):
        cfg = ExperimentConfig(**EDGE_CONTROL, T=0.5, amplitude=64.0)
        res = run_existence_probe(cfg)
        row = res.rows[0]
        assert row.hypothesis.passed and not row.blowup
        assert res.sup_bound_ok and row.n_star == 0

    def test_blowup_between_samples_reported(self):
        # At eps = 3e-3 and amplitude 181.02 the energy grows past float64
        # between two samples: the steps overflow before the next sample's
        # ceiling test, which reports the blow-up, not a numpy RuntimeWarning
        cfg = ExperimentConfig(**dict(EDGE_CONTROL, eps_list=[3e-3]), T=0.5, amplitude=181.02)
        res = run_existence_probe(cfg)
        row = res.rows[0]
        assert row.blowup and not res.sup_bound_ok
        assert abs(row.blowup_t - 0.0934) < 1e-4

    def test_beltrami_far_outside_hypotheses_bounded(self, tmp_path):
        # A Beltrami field's forcing vanishes, so its wave solution is
        # a(t) u0 at any size.  At ||u0||_{H^1/2} = 100, 1600 times the 3D
        # smallness bound, the data fail the hypotheses and the probe must
        # still report them bounded: the hypotheses are sufficient, not
        # necessary.  Each eps keeps the shell K = 3 (cutoff eps^(-1/2) > 3):
        # a cutoff below K leaves only rounding residue, which the solver's
        # divergence guard rejects.
        size = 1600 * SMALLNESS_BOUND
        v0 = beltrami_field(16, 9, 3, 1.0)
        v0 = v0 * (size / spectral.sobolev_norm(v0, 0.5))
        path = tmp_path / "beltrami.npz"
        np.savez(path, dim=3, n=16, coeffs=v0.coeffs)
        cfg = ExperimentConfig(
            dim=3, n=16, eps_list=[0.1, 0.01], T=0.1, sample_stride=10, data_source="file", data_file=str(path),
        )
        forced = run_existence_probe(cfg, force=True)
        assert forced.sup_bound_ok
        for row in forced.rows:
            assert not row.blowup and row.n_star == 0 and row.composite_monotone
            assert row.hypothesis.smallness == pytest.approx(size, rel=1e-12)
            assert not row.hypothesis.passed
        assert all(row.skipped for row in run_existence_probe(cfg).rows)

    def test_deterministic_across_jobs(self):
        cfg = golden_config(eps_list=[0.1, 0.03, 0.01])
        a = run_existence_probe(cfg, jobs=1)
        b = run_existence_probe(cfg, jobs=2)
        # repr compares every field of the rows, their hypothesis checks and
        # energy reports exactly, and NaN columns equal
        assert repr(a.rows) == repr(b.rows)
        assert (a.max_initial_eps_delta_e, a.sup_bound_ok) == (b.max_initial_eps_delta_e, b.sup_bound_ok)
        assert len(a.rows) == 3 and all(r.reports for r in a.rows)

    def test_solver_failure_recorded_as_blowup(self, monkeypatch):
        poison_from_step(monkeypatch, nlw, 2, POISON.step)
        cfg = golden_config(eps_list=[0.1], T=POISON.T, dt=POISON.dt, sample_stride=POISON.stride)
        row = run_existence_probe(cfg, force=True).rows[0]
        assert row.blowup and row.blowup_t == POISON.fail_t
        assert [r.t for r in row.reports] == POISON.clean_times

    def test_non_finite_ut_recorded_at_its_sample(self, monkeypatch):
        # a NaN u_t beside a finite u ends the row at its own sample, and no
        # NaN reaches the reports
        nan_ut_on_step(monkeypatch, round(POISON.fail_t / POISON.dt))
        cfg = golden_config(eps_list=[0.1], T=POISON.T, dt=POISON.dt, sample_stride=POISON.stride)
        row = run_convergence(cfg).rows[0]
        assert row.blowup and row.blowup_t == POISON.fail_t
        assert [r.t for r in row.reports] == POISON.clean_times
        values = [(r.e_base, r.e_delta, r.linf, r.composite, r.dafermos, r.err_sq) for r in row.reports]
        assert np.all(np.isfinite(values))

    def test_energy_blowup_recorded_as_blowup(self, monkeypatch):
        # a ceiling below the initial energy trips at the first sample after 0
        monkeypatch.setattr(nlw, "BLOWUP_FACTOR", 0.5)
        cfg = golden_config(eps_list=[0.1], T=0.1, dt=0.01, sample_stride=3)
        row = run_existence_probe(cfg, force=True).rows[0]
        assert row.blowup and row.blowup_t == 3 * (0.1 / 10)
        assert [r.t for r in row.reports] == [0.0]

    def test_probe_and_sweep_run_the_same_wave_solve(self):
        cfg = golden_config()
        probe = run_existence_probe(cfg, force=True)
        sweep = run_convergence(cfg)
        shared = ("eps", "sup_eps_delta_e", "initial_eps_delta_e", "n_star", "composite_monotone",
                  "blowup", "first_threshold_violation_t")
        for p, s in zip(probe.rows, sweep.rows, strict=True):
            assert [getattr(p, name) for name in shared] == [getattr(s, name) for name in shared]
            assert energy_series(p) == energy_series(s)
            assert math.isnan(p.sup_err_sq) and math.isnan(p.sup_dafermos) and math.isnan(p.cross_term)


def shrink_audit(monkeypatch, fields, trilinear_fields, trilinear_ns):
    """Set the audit's sample sizes for one test: the default sizes take seconds."""
    monkeypatch.setattr(experiments, "AUDIT_FIELDS", fields)
    monkeypatch.setattr(experiments, "TRILINEAR_FIELDS", trilinear_fields)
    monkeypatch.setattr(experiments, "TRILINEAR_NS", trilinear_ns)


class TestInequalityAudit:
    def test_small_audit_sections(self, monkeypatch):
        shrink_audit(monkeypatch, fields=40, trilinear_fields=40, trilinear_ns=(8, 16))
        cfg = golden_config(n=16, eps_list=[0.1, 0.01])
        audit = run_inequality_audit(cfg)
        assert audit.gn_ok and audit.interp_ok
        assert audit.bernstein_ok and audit.jackson_ok
        assert set(audit.trilinear_max) == {8, 16}


class TestEmitReport:
    def test_empty_results_headers_only(self, tmp_path):
        from hypns.experiments import SweepResult

        res = SweepResult(config=golden_config(), dt_used=1e-3, rows=[], fit=None)
        paths = emit_report(res, tmp_path)
        sweep = (tmp_path / "sweep.csv").read_text()
        assert sweep.count("\n") == 1 and sweep.startswith("epsilon,")
        assert not (tmp_path / "sweep_rate.svg").exists()
        assert (tmp_path / "fit.txt").read_text() == f"fit: undefined\nnote: {FIT_UNDEFINED}\n"

    def test_single_row_no_fit_line(self, tmp_path):
        res = run_convergence(golden_config(eps_list=[0.1], T=0.05))
        emit_report(res, tmp_path)
        assert (tmp_path / "sweep.csv").read_text().count("\n") == 2
        svg = (tmp_path / "sweep_rate.svg").read_text()
        assert "fit slope" not in svg
        assert "reference slope" in svg

    def test_golden_sweep_csv(self, tmp_path):
        res = run_convergence(golden_config())
        emit_report(res, tmp_path)
        golden = (DATA / "golden_sweep.csv").read_bytes()
        assert (tmp_path / "sweep.csv").read_bytes() == golden

    def test_golden_sweep_near_c2c_pin(self, tmp_path):
        # sweep.csv as pinned when the solvers stepped the full c2c spectrum;
        # the byte-exact pin above may only move by rounding away from it
        header = "epsilon,sup_err_sq,sup_dafermos,sup_eps_delta_E,cross_term,blowup,first_threshold_violation_t"
        c2c_rows = [
            [0.1, 0.05037653040179185, 0.09004085186106911, 0.10259410405308562,
             0.006431217954562998, 0, math.nan],
            [0.01, 0.0010767902208327364, 0.019642285143614647, 0.04148702349779585,
             0.0065434091753529405, 0, math.nan],
        ]
        emit_report(run_convergence(golden_config()), tmp_path)
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == header
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        assert len(rows) == len(c2c_rows)
        for row, pinned in zip(rows, c2c_rows):
            for got, want in zip(row, pinned):
                if math.isnan(want):
                    assert math.isnan(got)
                else:
                    assert abs(got - want) <= 1e-12 * abs(want)


class TestCli:
    def _write_cfg(self, tmp_path, **overrides):
        cfg = golden_config(**overrides)
        p = tmp_path / "exp.cfg"
        p.write_text(normalized_dump(cfg))
        return p

    def test_converge_pass_exit_zero(self, tmp_path, capsys):
        p = self._write_cfg(tmp_path, n=32, eps_list=[0.1, 0.01], T=0.2)
        rc = cli.main(["converge", "--config", str(p), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "sweep.csv").exists()
        assert "PASS" in capsys.readouterr().out

    def test_converge_fail_exit_two(self, tmp_path, capsys):
        # single eps leaves the rate fit undefined: acceptance failure
        p = self._write_cfg(tmp_path, eps_list=[0.1], T=0.05)
        rc = cli.main(["converge", "--config", str(p), "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_taylor_green_pass_exit_zero(self, capsys):
        assert cli.main(["taylor-green"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "taylor-green: PASS"

    @pytest.mark.parametrize("bound, rc, verdict", [(None, 0, "PASS"), (0.0, 2, "FAIL")])
    def test_audit_exit_code(self, tmp_path, capsys, monkeypatch, bound, rc, verdict):
        # One trilinear grid, because the max ratio over few fields differs
        # between grids by more than the 10% stability margin (20 fields:
        # 8.5e-4 at n=8, 6.8e-4 at n=16).
        shrink_audit(monkeypatch, fields=20, trilinear_fields=20, trilinear_ns=(16,))
        if bound is not None:
            monkeypatch.setattr("hypns.diagnostics.TRILINEAR_RATIO_BOUND", bound)
        assert cli.main(["audit", "--config", str(self._write_cfg(tmp_path))]) == rc
        assert capsys.readouterr().out.splitlines()[-1] == f"audit: {verdict}"

    def test_bad_config_exit_one(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("dim = 2\nn = 16\neps_list = 0.001, 0.1\n")
        rc = cli.main(["normalize-config", "--config", str(p)])
        assert rc == 1
        assert "eps_list" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "dim, r2, smallness, rc",
        [(3, 0.87, 0.04, 0), (3, 0.87, 0.07, 2), (2, 0.87, None, 2), (2, 0.95, None, 0)],
    )
    def test_converge_rate_gate_by_dimension(self, tmp_path, capsys, monkeypatch, dim, r2, smallness, rc):
        # 3D gates the slope at s/2 - 0.15 and the critical norm below 1/16,
        # with no R^2 gate; 2D gates the slope at s/2 - 0.1 and R^2 >= 0.9
        p = self._write_cfg(tmp_path, dim=dim, n=8, eps_list=[0.1, 0.01, 0.001])
        cfg = parse_config(p)
        rows = [
            SweepRow(eps, sup_err_sq=eps**2.3,
                     hypothesis=HypothesisReport(smallness=smallness))
            for eps in cfg.eps_list
        ]
        canned = SweepResult(cfg, 2e-3, rows, RateFit(2.3, 0.0, r2, len(rows)))
        monkeypatch.setattr(cli, "run_convergence", lambda cfg, jobs: canned)
        assert cli.main(["converge", "--config", str(p), "--out", str(tmp_path / "out")]) == rc
        assert ("PASS" if rc == 0 else "FAIL") in capsys.readouterr().out.splitlines()[-1]
        floor = (tmp_path / "out" / "fit.txt").read_text().splitlines()[-1]
        assert floor == f"slope_floor = {cfg.s / 2.0 - (0.1 if dim == 2 else 0.15)!r}"

    def test_env_out_dir(self, tmp_path, capsys, monkeypatch):
        p = self._write_cfg(tmp_path, eps_list=[0.1, 0.01], T=0.05)
        monkeypatch.setenv("HYPNS_OUT", str(tmp_path / "envout"))
        rc = cli.main(["converge", "--config", str(p)])
        assert rc == 0
        assert (tmp_path / "envout" / "sweep.csv").exists()

    def test_exist_force_flag(self, tmp_path, capsys):
        p = self._write_cfg(tmp_path, dim=3, n=8, amplitude=0.9, eps_list=[0.1], T=0.05, dt=5e-3)
        rc = cli.main(["exist", "--config", str(p), "--out", str(tmp_path / "o1")])
        assert rc == 2  # gated rows count as failure
        rc = cli.main(["exist", "--config", str(p), "--out", str(tmp_path / "o2"), "--force"])
        out = capsys.readouterr().out
        assert "skipped" not in out.splitlines()[-3]

    def test_exist_csv_bytes(self, tmp_path, capsys):
        # eps = 0.1 passes the 3D smallness check (0.0613 < 1/16), eps = 0.01
        # fails it (0.0638) and is skipped: its n_star is written None
        p = self._write_cfg(tmp_path, dim=3, n=8, amplitude=0.098, eps_list=[0.1, 0.01], T=0.05, dt=5e-3)
        assert cli.main(["exist", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "eps=0.1 sup eps^d E=0.00141173 N*=0 monotone=True blowup=False",
            f"eps=0.01 skipped: {SKIP_REASON}",
            f"wrote {tmp_path / 'out' / 'exist.csv'}",
            "uniform bound sup_t eps^delta E <= 2 max initial: True",
            "exist: FAIL",
        ]
        assert (tmp_path / "out" / "exist.csv").read_bytes() == (
            b"epsilon,skipped,blowup,initial_eps_delta_E,sup_eps_delta_E,n_star,composite_monotone\n"
            b"0.1,0,0,0.0014117251648917465,0.0014117251648917465,0,1\n"
            b"0.01,1,0,nan,nan,None,0\n"
        )

    @pytest.mark.parametrize("command", ["converge", "exist"])
    @pytest.mark.parametrize(
        "case", [".npz", ".npy", "1-component", "3-component", "vector-dim", "no-real-field"]
    )
    def test_malformed_data_file_exit_one(self, tmp_path, capsys, command, case):
        # an .npz without coeffs, a plain .npy array, coefficients with
        # other than one component per axis, a dim that is no scalar, or
        # coefficients of no real field is an error, not a traceback
        if case == ".npy":
            path = tmp_path / "field.npy"
            np.save(path, np.zeros((2, 16, 9), dtype=np.complex128))
        else:
            path = tmp_path / "field.npz"
            if case == ".npz":
                np.savez(path, dim=2, n=16)
            elif case == "vector-dim":
                np.savez(path, dim=np.array([2, 2]), n=16, coeffs=np.zeros((2, 16, 9), dtype=np.complex128))
            elif case == "no-real-field":
                c = np.zeros((2, 16, 9), dtype=np.complex128)
                c[1, 1, 0] = 1.0  # a divergence-free mode (1, 0) without its conjugate (-1, 0)
                np.savez(path, dim=2, n=16, coeffs=c)
            else:
                np.savez(path, dim=2, n=16, coeffs=np.zeros((int(case[0]), 16, 9), dtype=np.complex128))
        p = self._write_cfg(tmp_path, data_source="file", data_file=str(path))
        assert cli.main([command, "--config", str(p), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        if case.endswith("component"):
            assert err.startswith(f"error: coefficient shape ({case[0]}, 16, 9) does not match")
        elif case == "vector-dim":
            assert err.startswith("error: field file") and "dim must be an integer scalar" in err
        elif case == "no-real-field":
            assert err == "error: coefficients of no real field: c(-k) != conj c(k) at k_last = 0\n"
        else:
            assert err.startswith("error: field file") and "lacks the keys" in err and "coeffs" in err

    @pytest.mark.parametrize("command", ["converge", "exist"])
    def test_malformed_data_file_in_pool_exit_one(self, tmp_path, capsys, command):
        # a probe's pool workers load the file themselves: its error still
        # reaches the parent, not as a broken pool
        path = tmp_path / "field.npz"
        np.savez(path, dim=2, n=16)
        p = self._write_cfg(tmp_path, data_source="file", data_file=str(path))
        assert cli.main([command, "--config", str(p), "--out", str(tmp_path / "out"), "--jobs", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: field file") and "lacks the keys" in err and "coeffs" in err

    @pytest.mark.parametrize("argv", [
        ["audit", "--config", "c.cfg", "--jobs", "2"],
        ["taylor-green", "--jobs", "2"],
        ["normalize-config", "--config", "c.cfg", "--jobs", "2"],
        ["converge", "--config", "c.cfg", "--force"],
        ["audit", "--config", "c.cfg", "--force"],
        ["taylor-green", "--force"],
        ["normalize-config", "--config", "c.cfg", "--force"],
    ])
    def test_flag_rejected_where_not_read(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["converge"],
        ["converge", "--config", "c.cfg", "--bogus"],
        ["converge", "--config", "c.cfg", "--force"],
        ["taylor-green", "--jobs", "2"],
        ["frobnicate"],
    ])
    def test_usage_error_exit_one(self, argv, capsys):
        # exit 2 is a failed check; a usage error is an error
        assert cli.main(argv) == 1
        assert "usage: hypns" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["converge", "exist"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_one(self, tmp_path, capsys, command, jobs):
        p = self._write_cfg(tmp_path)
        assert cli.main([command, "--config", str(p), "--out", str(tmp_path / "out"), "--jobs", jobs]) == 1
        assert f"argument --jobs: must be >= 1, got {int(jobs)}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_help_exit_zero(self, capsys):
        assert cli.main(["converge", "--help"]) == 0
        assert "--jobs" in capsys.readouterr().out

    # each subcommand's options: only those its handler reads
    OPTIONS = {
        "converge": {"--config", "--out", "--jobs"},
        "exist": {"--config", "--out", "--jobs", "--force"},
        "audit": {"--config"},
        "taylor-green": set(),
        "normalize-config": {"--config"},
    }

    def test_option_sets(self):
        (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        got = {
            name: {o for a in sp._actions for o in a.option_strings} - {"-h", "--help"}
            for name, sp in sub.choices.items()
        }
        assert got == self.OPTIONS

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        p = self._write_cfg(tmp_path)
        p.write_text(p.read_text().replace("seed = 9", "seed = -1"))
        assert cli.main(["converge", "--config", str(p), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "config error: seed: must be >= 0, got -1\n"
        assert not (tmp_path / "out").exists()

    def test_jobs_and_force_parse_where_read(self):
        parser = cli.build_parser()
        args = parser.parse_args(["exist", "--config", "c.cfg", "--force", "--jobs", "2"])
        assert args.force and args.jobs == 2
        assert parser.parse_args(["converge", "--config", "c.cfg", "--jobs", "2"]).jobs == 2

    def test_normalize_config_round_trip(self, tmp_path, capsys):
        p = self._write_cfg(tmp_path)
        rc = cli.main(["normalize-config", "--config", str(p)])
        assert rc == 0
        dumped = capsys.readouterr().out
        q = tmp_path / "again.cfg"
        q.write_text(dumped)
        assert parse_config(q) == parse_config(p)
