import math
import multiprocessing
import os
import pickle
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypns.experiments import (
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
    run_convergence,
    run_existence_probe,
    run_inequality_audit,
)
from hypns.diagnostics import make_energy_report
from hypns.initial_data import HypothesisReport
from hypns.ns import ns_solve
from hypns.reporting import emit_report
from hypns.spectral import inverse_transform, make_grid
from hypns import cli, experiments, nlw, spectral

from conftest import POISON, poison_from_step, taylor_green_cross_term

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
        assert cfg.dim == 2 and cfg.eps_list == [0.1, 0.01]
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
            "amplitude = -inf\neta = nan\ndelta = nan\n"
        )
        with pytest.raises(ConfigError) as exc:
            parse_config(p)
        for lineno, key in enumerate(("T", "dt", "eps_list", "amplitude", "eta", "delta"), start=3):
            assert any(v.startswith(f"line {lineno}: {key}: must be finite") for v in exc.value.violations)
        assert len(exc.value.violations) == 6

    @pytest.mark.parametrize(
        "kw",
        [
            {"T": math.nan}, {"T": math.inf}, {"dt": math.nan}, {"eps_list": [0.1, math.nan]},
            {"amplitude": math.nan}, {"eta": math.nan}, {"delta": math.nan}, {"s": math.nan},
        ],
    )
    def test_validate_rejects_non_finite(self, kw):
        (key,) = kw
        assert [v for v in ExperimentConfig(**kw).validate() if v.startswith(f"{key}:")] != []

    @pytest.mark.parametrize(
        "line", ["u1_scale = 0.5", "threshold_c = 2.0", "composite_n = 3", "energy_ceiling = 1e3",
                 "slope_tol = 0.2", "r2_min = 0.5"],
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
        cfg = golden_config(dim=3, n=8, data_source="taylor_green")
        assert any("taylor_green" in v for v in cfg.validate())


class TestRunConvergence:
    def test_single_eps_flagged(self):
        cfg = golden_config(eps_list=[0.1], T=0.05)
        res = run_convergence(cfg)
        assert len(res.rows) == 1
        assert res.fit is None
        assert "undefined" in res.fit_note

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

    def test_spawned_pool_writes_the_same_csv(self, monkeypatch, tmp_path):
        # a spawned worker gets v0 and the reference samples by pickle
        # alone, as under the forkserver default of Python 3.14
        spawn = multiprocessing.get_context("spawn")

        class SpawnPool(experiments.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                super().__init__(max_workers=max_workers, mp_context=spawn, **kwargs)

        cfg = golden_config(T=0.02)
        emit_report(run_convergence(cfg, jobs=1), tmp_path / "one")
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", SpawnPool)
        emit_report(run_convergence(cfg, jobs=2), tmp_path / "two")
        assert (tmp_path / "two" / "sweep.csv").read_bytes() == (tmp_path / "one" / "sweep.csv").read_bytes()

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
        assert max(long) < make_grid(2, 16).npoints * 16

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

    def test_cross_term_taylor_green_closed_form(self):
        # every step sampled, so the trapezoidal quadrature of the sweep's
        # cross term resolves the initial layer of width eps
        cfg = ExperimentConfig(
            dim=2, n=16, eps_list=[0.05], T=0.5, dt=2.5e-4, data_source="taylor_green", sample_stride=1,
        )
        got = run_convergence(cfg).rows[0].cross_term
        want = taylor_green_cross_term(0.05, 0.5)
        assert abs(got - want) <= 1e-6 * abs(want)

    def test_cross_term_zero_for_zero_data(self):
        res = run_convergence(golden_config(amplitude=0.0, T=0.05))
        assert [r.cross_term for r in res.rows] == [0.0] * len(res.rows)

    @pytest.mark.parametrize("misalign", ["shifted", "short"])
    def test_misaligned_reference_rejected(self, misalign):
        cfg = golden_config(T=0.02)
        v0 = build_reference_field(cfg, make_grid(cfg.dim, cfg.n))
        ref = []
        ns_solve(v0, cfg.T, dt=cfg.dt, observer=lambda st: ref.append((st.t, st.v)), stride=cfg.sample_stride)
        if misalign == "shifted":
            ref = [(t + cfg.dt / 2, v) for t, v in ref]
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


class TestInequalityAudit:
    def test_small_audit_sections(self):
        cfg = golden_config(n=16, eps_list=[0.1, 0.01])
        audit = run_inequality_audit(cfg, n_fields=40, trilinear_fields=40, trilinear_ns=(8, 16))
        assert audit.gn_ok and audit.interp_ok
        assert audit.bernstein_ok and audit.jackson_ok
        assert set(audit.trilinear_max) == {8, 16}


class TestEmitReport:
    def test_empty_results_headers_only(self, tmp_path):
        from hypns.experiments import SweepResult

        res = SweepResult(config=golden_config(), dt_used=1e-3, rows=[], fit=None, fit_note="empty")
        paths = emit_report(res, tmp_path)
        sweep = (tmp_path / "sweep.csv").read_text()
        assert sweep.count("\n") == 1 and sweep.startswith("epsilon,")
        assert not (tmp_path / "sweep_rate.svg").exists()
        assert "undefined" in (tmp_path / "fit.txt").read_text()

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

    @pytest.mark.parametrize("command", ["converge", "exist"])
    @pytest.mark.parametrize("suffix", [".npz", ".npy"])
    def test_malformed_data_file_exit_one(self, tmp_path, capsys, command, suffix):
        # an .npz without coeffs, or a plain .npy array, is an error, not a traceback
        path = tmp_path / f"field{suffix}"
        if suffix == ".npz":
            np.savez(path, dim=2, n=16)
        else:
            np.save(path, np.zeros((2, 16, 9), dtype=np.complex128))
        p = self._write_cfg(tmp_path, data_source="file", data_file=str(path))
        assert cli.main([command, "--config", str(p), "--out", str(tmp_path / "out")]) == 1
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
