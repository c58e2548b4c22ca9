import dataclasses
import json
import math
import os
import re

import numpy as np
import pytest

from sil import harness
from sil.cli import build_parser, main
from sil.errors import ConfigError, DomainError
from sil.extremals import adams_family
from sil.functionals import holder_split_inequality
from sil.grids import RadialFunction, log_grid
from sil.harness import (RATE_FIT_EPS_MAX, Scenario, default_scenarios,
                         parse_config, run_all, run_scenario)
from sil.kernels import bessel_kernel_spec, gradient_kernel, riesz_kernel
from sil.oneil import (garsia_integral, garsia_transform, kernel_profile,
                       level_set_measure)
from sil.params import Params
from sil.potentials import radial_convolve
from sil.rearrange import decreasing_rearrangement


class TestScenarioPlumbing:
    def test_unknown_id(self):
        with pytest.raises(ConfigError):
            Scenario("nonsense", Params(2, 1.0))

    def test_verdict_that_flips_at_half_resolution_is_inconclusive(
            self, monkeypatch):
        def by_resolution(sc):
            verdict = "bounded" if sc.resolution >= 400 else "violated"
            return harness.ScenarioResult(sc.id, [], {}, verdict, {})

        monkeypatch.setitem(harness._RUNNERS, "bessel", by_resolution)
        result = run_scenario(Scenario("bessel", Params(3, 1.0)))
        assert result.verdict == "inconclusive"
        assert result.fit["half_resolution_verdict"] == "violated"
        # a verdict that both resolutions give stands
        flat = Scenario("bessel", Params(3, 1.0), resolution=1000)
        kept = run_scenario(flat)
        assert kept.verdict == "bounded"
        assert "half_resolution_verdict" not in kept.fit

    def test_default_sweeps_monotone(self):
        for sc in default_scenarios():
            if sc.sweep:
                diffs = np.diff(sc.sweep)
                assert np.all(diffs > 0) or np.all(diffs < 0)

    @pytest.mark.parametrize("sid,sigma", [("ruf_supercritical", 1.0),
                                           ("trace_sharp", 0.5)])
    @pytest.mark.parametrize("sweep", [[1e-1, 1e-2], [0.1, 0.01, 1e-3],
                                       [3e-2, 1e-2, 1e-3]])
    def test_rate_fit_window_needs_two_points(self, sid, sigma, sweep):
        # the driver slope is fitted over eps <= RATE_FIT_EPS_MAX only
        with pytest.raises(ConfigError, match="two distinct points"):
            Scenario(sid, Params(2, 1.0, sigma=sigma), sweep=sweep)
        Scenario(sid, Params(2, 1.0, sigma=sigma), sweep=sweep + [1e-4, 1e-5])

    @pytest.mark.parametrize("sweep", [[1e-2, 1e-2], [1e-1, 1e-2, 1e-2],
                                       [1e-1, 1e-3, 1e-2]])
    def test_sweep_is_strictly_monotone(self, sweep, tmp_path, capsys):
        # a repeated point gave the fits a repeated abscissa, and a slope
        # fitted through one abscissa
        with pytest.raises(ConfigError, match="strictly monotone"):
            Scenario("ruf_sharp", Params(2, 1.0), sweep=sweep)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 0, "scenarios": [
            {"id": "ruf_sharp", "sweep": sweep}]}))
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "strictly monotone" in err and "Warning" not in err

    def test_fit_through_one_abscissa_is_a_domain_error(self):
        with pytest.raises(DomainError, match="rank-deficient"):
            harness._fit_slope(np.array([2.0, 2.0]), np.array([1.0, 3.0]))

    def test_shipped_sweeps_fill_the_rate_fit_window(self):
        bench = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "bench", "scenarios.json")
        with open(bench) as fh:
            entries = json.load(fh)["scenarios"]
        pairs = [(e["id"], e["sweep"]) for e in entries] \
            + [(sc.id, sc.sweep) for sc in default_scenarios()]
        for sid, sweep in pairs:
            if sid in ("ruf_supercritical", "trace_sharp"):
                assert len([e for e in sweep if e <= RATE_FIT_EPS_MAX]) >= 2
                Scenario(sid, Params(2, 1.0), sweep=sweep)

    def test_empty_scenario_list(self, tmp_path):
        summary = run_all([], out_dir=str(tmp_path))
        assert summary["counts"] == {} and summary["violations"] == 0
        assert (tmp_path / "summary.csv").exists()

    def test_parse_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 5,
            "scenarios": [{"id": "ruf_sharp", "n": 2, "alpha": 1.0,
                           "sweep": [1e-1, 1e-2]}],
        }))
        scenarios = parse_config(str(cfg))
        assert len(scenarios) == 1
        assert scenarios[0].seed == 5 and scenarios[0].sweep == [0.1, 0.01]

    def test_config_without_q_matches_defaults(self, tmp_path):
        # only adachi_rate names q; the others take the default 2.0
        entries = [{"id": sc.id, "n": sc.params.n, "alpha": sc.params.alpha,
                    "sigma": sc.params.sigma} for sc in default_scenarios(3)]
        entries[2]["q"] = 2.0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3, "scenarios": entries}))
        scenarios = parse_config(str(cfg))
        assert scenarios == default_scenarios(3)
        bessel = next(sc for sc in scenarios if sc.id == "bessel")
        result = run_scenario(bessel, check_resolution=False)
        assert result.provenance["q"] == 2.0

    def test_parse_config_q_inf(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenarios": [{"id": "adachi_rate",
                                                  "q": "inf"}]}))
        assert parse_config(str(cfg))[0].params.q == math.inf

    def test_parse_config_bad(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        with pytest.raises(ConfigError):
            parse_config(str(cfg))
        cfg.write_text(json.dumps({"scenarios": [{"id": "nope"}]}))
        with pytest.raises(ConfigError):
            parse_config(str(cfg))


class TestDeterminism:
    def test_repeat_runs_identical_modulo_timestamp(self):
        sc = lambda: Scenario("lemma_suite", Params(2, 1.0), seed=7,
                              sweep=[1e-1, 1e-2])
        r1 = run_scenario(sc(), check_resolution=False)
        r2 = run_scenario(sc(), check_resolution=False)
        j1 = json.loads(r1.to_json())
        j2 = json.loads(r2.to_json())
        j1["provenance"].pop("timestamp")
        j2["provenance"].pop("timestamp")
        assert j1 == j2
        assert r1.provenance["config_hash"] == r2.provenance["config_hash"]

    def test_output_does_not_depend_on_blas_threads(self, tmp_path):
        # `sil run` in two processes, OpenBLAS pinned to 1 and to 2 threads:
        # every file and stdout byte-identical apart from the timestamp
        import os
        import re
        import subprocess
        import sys

        import sil
        src = os.path.dirname(os.path.dirname(os.path.abspath(sil.__file__)))
        procs = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
            procs[threads] = subprocess.Popen(
                [sys.executable, "-m", "sil.cli", "run", "--seed", "0",
                 "--out", str(tmp_path / threads)],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        out = {t: p.communicate(timeout=600) for t, p in procs.items()}
        assert all(p.returncode == 0 for p in procs.values()), out
        assert out["1"][0] == out["2"][0]
        names = sorted(os.listdir(tmp_path / "1"))
        assert len(names) == 9 and names == sorted(os.listdir(tmp_path / "2"))
        stamp = re.compile(r'"timestamp": "[^"]*"')
        for name in names:
            one, two = ((tmp_path / t / name).read_text() for t in ("1", "2"))
            assert stamp.sub("", one) == stamp.sub("", two), name

    def test_persistence(self, tmp_path):
        sc = Scenario("lemma_suite", Params(2, 1.0), seed=1, sweep=[1e-1])
        summary = run_all([sc], out_dir=str(tmp_path))
        payload = json.loads((tmp_path / "lemma_suite.json").read_text())
        assert payload["schema"] == 1
        assert payload["verdict"] in ("bounded", "divergent", "rate_confirmed",
                                      "violated", "inconclusive")
        lines = (tmp_path / "summary.csv").read_text().strip().splitlines()
        assert lines[0] == "scenario,verdict" and len(lines) == 2
        assert summary["counts"]


GOLDEN_RUN = os.path.join(os.path.dirname(__file__), "golden",
                          "sil_run_seed0.json")


def _golden_moves(got, want, path="$"):
    """Where got departs from want: keys, strings, ints and bools exactly,
    floats within 1e-12 relative; one line per JSON path, with the move."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{path}: keys {sorted(want)} became "
                    f"{sorted(got) if isinstance(got, dict) else got!r}"]
        return [m for k in sorted(want)
                for m in _golden_moves(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: a list of {len(want)} became {got!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _golden_moves(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and type(got) is float:
        if got == want or (math.isnan(got) and math.isnan(want)):
            return []
        rel = abs(got - want) / abs(want) if want else math.inf
        return [] if rel <= 1e-12 else \
            [f"{path}: {want!r} -> {got!r} (relative move {rel:.3g})"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {want!r} -> {got!r}"]
    return []


class TestGoldenRun:
    """`sil run --seed 0` against the committed output of an earlier tree:
    a numeric move above 1e-12 relative, or any changed verdict, key or
    text, must come with a new golden file."""

    def test_compare_moves(self):
        want = {"a": [1.0, "bounded"], "n": 3}
        assert _golden_moves({"a": [1.0 + 1e-13, "bounded"], "n": 3}, want) == []
        assert _golden_moves({"a": [1.0 + 1e-9, "bounded"], "n": 3}, want) == [
            "$.a[0]: 1.0 -> 1.000000001 (relative move 1e-09)"]
        assert _golden_moves({"a": [1.0, "violated"], "n": 3}, want) == [
            "$.a[1]: 'bounded' -> 'violated'"]
        assert _golden_moves({"a": [1.0, "bounded"]}, want)[0].startswith("$: keys")

    def test_seed_0_matches_golden(self, tmp_path):
        import subprocess
        import sys

        import sil
        src = os.path.dirname(os.path.dirname(os.path.abspath(sil.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        proc = subprocess.run(
            [sys.executable, "-m", "sil.cli", "run", "--seed", "0",
             "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        got = {"stdout": proc.stdout,
               "summary.csv": (tmp_path / "summary.csv").read_text(),
               "scenarios": {}}
        for name in sorted(os.listdir(tmp_path)):
            if name.endswith(".json"):
                payload = json.loads((tmp_path / name).read_text())
                payload["provenance"].pop("timestamp")
                got["scenarios"][name] = payload
        with open(GOLDEN_RUN) as fh:
            want = json.load(fh)
        moves = _golden_moves(got, want)
        assert not moves, "\n".join(moves)


class TestSplitLattice:
    """lemma_suite checks the Hoelder split inequality on a fixed lattice."""

    def test_lattice_reaches_equality(self):
        # the last theta of every (a, b) is the maximizer theta*, where both
        # sides are equal
        assert harness._SPLIT_BETAS.size == 16
        for beta in harness._SPLIT_BETAS:
            a, b, theta = harness._split_lattice(beta)
            assert np.broadcast(a, b, theta).shape == (24, 24, 18)
            lhs, rhs = holder_split_inequality(a, b, theta, beta)
            at_max, rhs = lhs[..., -1], rhs[..., -1]
            assert np.all(np.abs(at_max - rhs) <= 1e-15 * rhs)
        assert harness._split_violations() == 0

    def test_broken_inequality_is_counted(self, monkeypatch):
        # lower the right side by 1%: the theta* points now violate it
        def broken(*args):
            lhs, rhs = holder_split_inequality(*args)
            return lhs, 0.99 * rhs

        monkeypatch.setattr(harness, "holder_split_inequality", broken)
        # the count is cached per process: drop it on the way in and out
        harness._split_violations.cache_clear()
        try:
            assert harness._split_violations() >= 24 * 24 * 16
            sc = Scenario("lemma_suite", Params(2, 1.0), sweep=[1e-1],
                          resolution=50)
            result = run_scenario(sc, check_resolution=False)
            assert result.fit["split_violations"] > 0
            assert result.verdict == "violated"
        finally:
            harness._split_violations.cache_clear()

    def test_lattice_is_counted_once_per_process(self, monkeypatch):
        # the lattice depends on no seed or resolution, so lemma_suite's
        # half-resolution rerun reuses the first count
        calls = []

        def counting(*args):
            calls.append(args[-1])
            return holder_split_inequality(*args)

        monkeypatch.setattr(harness, "holder_split_inequality", counting)
        harness._split_violations.cache_clear()
        try:
            sc = Scenario("lemma_suite", Params(2, 1.0), sweep=[1e-1],
                          resolution=100)
            result = run_scenario(sc)
        finally:
            harness._split_violations.cache_clear()
        assert result.fit["split_violations"] == 0
        assert calls == list(harness._SPLIT_BETAS)


def _clear_memos():
    harness._riesz_family.cache_clear()


def _array_fields(obj, prefix=""):
    """(name, array) for every numpy array held by a dataclass, recursively."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            yield prefix + f.name, value
        elif dataclasses.is_dataclass(value):
            yield from _array_fields(value, f"{prefix}{f.name}.")


class TestFamilyMemo:
    """sil run builds each Riesz family once per process, and a memo hit
    gives the bits a cold build gives."""

    @staticmethod
    def _bench_scenarios(tmp_path, seed=0):
        # the seven scenarios of the benchmark's config, seed filled in
        path = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                            "scenarios.json")
        with open(path) as fh:
            cfg = json.load(fh)
        cfg["seed"] = seed
        for entry in cfg["scenarios"]:
            entry["seed"] = seed
        out = tmp_path / "config.json"
        out.write_text(json.dumps(cfg))
        return parse_config(str(out))

    def test_each_family_is_built_once(self, tmp_path, monkeypatch):
        families = []

        def counting_family(*args, **kwargs):
            families.append(args)
            return adams_family(*args, **kwargs)

        monkeypatch.setattr(harness, "adams_family", counting_family)
        scenarios = self._bench_scenarios(tmp_path)
        assert len(scenarios) == 7
        _clear_memos()
        try:
            run_all(scenarios)
            info = harness._riesz_family.cache_info()
        finally:
            _clear_memos()
        # 22 Riesz families of ruf_sharp, ruf_supercritical, trace_sharp and
        # lemma_suite at both resolutions, plus adachi_rate's 12
        assert len(families) == 34
        assert info.misses == info.currsize == 22 and info.hits == 52

    def test_profiles_draw_where_the_monte_carlo_leaves_rng(self, monkeypatch):
        # cold or warm, the sandwich profiles start 4 * 10^6 draws on, where
        # a Monte Carlo of the split inequality once left the stream
        expected = np.random.default_rng(11)
        expected.bit_generator.advance(4 * 10**6)
        states = []

        class Drawn(Exception):
            pass

        def recording(rng, *args, **kwargs):
            states.append(rng.bit_generator.state)
            raise Drawn

        monkeypatch.setattr(harness, "_random_profile", recording)
        sc = Scenario("lemma_suite", Params(2, 1.0), seed=11, sweep=[1e-1])
        _clear_memos()
        for _ in range(2):
            with pytest.raises(Drawn):
                run_scenario(sc, check_resolution=False)
        assert states == [expected.bit_generator.state] * 2

    def test_memo_hits_are_read_only(self):
        fam = harness._riesz_family(2, 1.0, 1e-2, 100)
        assert harness._riesz_family(2, 1.0, 1e-2, 100) is fam
        arrays = dict(_array_fields(fam))
        assert {"profile.grid", "profile.values", "potential.grid",
                "potential.values", "proj_coeffs"} <= set(arrays)
        for array in arrays.values():
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_hyperbolic_builds_one_log_family_per_eps(self, monkeypatch):
        # the hyperbolic family is the Euclidean one with its measure
        # swapped, so each eps is built once at each resolution
        from sil import extremals

        builds = []
        build = extremals.moser_log_family

        def counting(n, alpha, eps, smoothing_width=None, per_decade=400):
            builds.append((eps, per_decade))
            return build(n, alpha, eps, smoothing_width, per_decade)

        monkeypatch.setattr(harness, "moser_log_family", counting)
        monkeypatch.setattr(extremals, "moser_log_family", counting)
        sc = Scenario("hyperbolic", Params(3, 2.0), sweep=[1e-1, 1e-2, 1e-3],
                      resolution=120)
        assert run_scenario(sc).verdict == "rate_confirmed"
        assert sorted(builds) == sorted((eps, res) for eps in sc.sweep
                                        for res in (120, 60))

    def test_warm_runs_equal_cold_runs(self):
        stamp = re.compile(r'"timestamp": "[^"]*"')

        def output(sc, check):
            result = run_scenario(sc, check_resolution=check)
            return stamp.sub("", result.to_json())

        runs = []
        for sc in default_scenarios(0):
            runs.append((sc, True))
            # run_scenario's half-resolution rerun, whose output it drops
            half = dataclasses.replace(sc, resolution=max(sc.resolution // 2, 50))
            runs.append((half, False))
        cold = []
        for sc, check in runs:
            _clear_memos()
            cold.append(output(sc, check))
        for sc, check in runs:  # every memo entry of the runs is now built
            output(sc, check)
        warm = [output(sc, check) for sc, check in runs]
        assert warm == cold


def _every_kind_config(tmp_path):
    """A short config that runs every scenario kind once (adachi_rate on two
    theta, so its three-term fit is underdetermined)."""
    scenarios = [
        {"id": "ruf_sharp"},
        {"id": "ruf_supercritical", "sweep": [1e-2, 1e-3, 1e-4]},
        {"id": "adachi_rate", "sweep": [0.92, 0.95]},
        {"id": "trace_sharp", "sigma": 0.5, "sweep": [1e-2, 1e-3, 1e-4]},
        {"id": "hyperbolic", "n": 3, "alpha": 2.0},
        {"id": "bessel", "n": 3, "sweep": []},
        {"id": "oneil_garsia"},
        {"id": "lemma_suite"}]
    for sc in scenarios:
        sc.setdefault("sweep", [1e-1, 1e-2, 1e-3])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 0, "scenarios": scenarios}))
    return cfg, scenarios


class TestImportGraph:
    def test_import_and_run_load_no_scipy(self, tmp_path):
        # a fresh process: importing sil and its CLI loads no scipy module,
        # and a run of every scenario kind imports none either
        import os
        import subprocess
        import sys

        import sil
        src = os.path.dirname(os.path.dirname(os.path.abspath(sil.__file__)))
        cfg, scenarios = _every_kind_config(tmp_path)
        script = (
            "import contextlib, io, json, sys\n"
            "import sil\n"
            "from sil import cli\n"
            "before = set(sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    cli.main(['run', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}])\n"
            "added = sorted(m for m in set(sys.modules) - before if m.startswith('scipy'))\n"
            "print(json.dumps({'loaded': sorted(before), 'added': added}))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.splitlines()[-1])
        assert [m for m in out["loaded"] if m.startswith("scipy")] == []
        assert len(os.listdir(tmp_path / "out")) == len(scenarios) + 1
        assert out["added"] == []

    def test_no_path_calls_lapack(self, tmp_path):
        # a fresh process with every routine of numpy's LAPACK module
        # counted: a run of every scenario kind, the Cartesian engine at
        # n = 2 and 3 and `sil extremal` make no call and load no
        # numpy.polynomial
        import subprocess
        import sys

        import sil
        src = os.path.dirname(os.path.dirname(os.path.abspath(sil.__file__)))
        cfg, _ = _every_kind_config(tmp_path)
        script = (
            "import contextlib, io, json, sys\n"
            "import numpy as np\n"
            "from numpy.linalg import _umath_linalg as lapack\n"
            "calls = []\n"
            "def counted(name, fn):\n"
            "    def call(*args, **kwargs):\n"
            "        calls.append(name)\n"
            "        return fn(*args, **kwargs)\n"
            "    return call\n"
            "for name in dir(lapack):\n"
            "    fn = getattr(lapack, name)\n"
            "    if callable(fn) and not name.startswith('_'):\n"
            "        setattr(lapack, name, counted(name, fn))\n"
            "from sil import CartesianField, Params, riesz_kernel\n"
            "from sil import cli\n"
            "from sil.potentials import cartesian_convolve\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    cli.main(['run', '--config', {str(cfg)!r},"
            f" '--out', {str(tmp_path / 'out')!r}])\n"
            "    cli.main(['extremal', '--eps', '1e-3',"
            f" '--out', {str(tmp_path / 'adams.csv')!r}])\n"
            "bump = lambda *x: np.exp(-sum(c * c for c in x))\n"
            "for n, res in ((2, 64), (3, 16)):\n"
            "    cartesian_convolve(CartesianField.from_callable("
            "bump, n, 2.0, res), riesz_kernel(Params(n, 1.0)))\n"
            "ran = list(calls)\n"
            "np.linalg.solve(np.eye(2), np.ones(2))\n"
            "print(json.dumps({'calls': ran, 'probe': calls[len(ran):],"
            " 'polynomial': 'numpy.polynomial' in sys.modules}))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.splitlines()[-1])
        assert out["probe"] == ["solve1"]  # the counters do count
        assert out["calls"] == []
        assert out["polynomial"] is False
        assert (tmp_path / "adams.csv").stat().st_size > 0


class TestLazyIntegrate:
    def test_import_loads_no_scipy(self):
        # built-in measures have closed-form ball masses and tails, and the
        # kernels and FFTs need no scipy, so a fresh `import sil, sil.cli`
        # loads no scipy module at all
        import subprocess
        import sys

        import sil
        src = os.path.dirname(os.path.dirname(os.path.abspath(sil.__file__)))
        script = ("import json, sys\n"
                  "import sil, sil.cli\n"
                  "print(json.dumps(sorted(m for m in sys.modules"
                  " if m.startswith('scipy'))))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == []

    @staticmethod
    def _loaded(statements):
        """Which of numpy.polynomial, numpy.fft, hashlib and _hashlib a fresh
        process holds after `import sil, sil.cli`, and after the
        statements that follow it."""
        import subprocess
        import sys

        import sil
        src = os.path.dirname(os.path.dirname(os.path.abspath(sil.__file__)))
        script = ("import json, sys\n"
                  "watched = ('numpy.polynomial', 'numpy.fft', 'hashlib',"
                  " '_hashlib')\n"
                  "def loaded():\n"
                  "    return sorted(m for m in watched if m in sys.modules)\n"
                  "import sil, sil.cli\n"
                  "before = loaded()\n"
                  + statements +
                  "print(json.dumps([before, loaded()]))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def test_import_does_no_numerical_work(self):
        # the Gauss-Legendre rules and numpy.fft load on first use, and
        # OpenSSL only when sil run hashes a scenario's provenance
        assert self._loaded("") == [[], []]

    def test_first_convolution_loads_the_rule_and_the_fft(self):
        statements = (
            "from sil import Params, RadialFunction, log_grid, riesz_kernel\n"
            "from sil.potentials import radial_convolve\n"
            "g = log_grid(1e-3, 10.0, 200)\n"
            "radial_convolve(RadialFunction(g, 1.0 / (1.0 + g**4), 2),"
            " riesz_kernel(Params(2, 1.0)))\n")
        before, after = self._loaded(statements)
        assert "numpy.fft" not in before and "numpy.polynomial" not in before
        # the rules are built by Newton's method, not by numpy.polynomial
        assert "numpy.fft" in after and "numpy.polynomial" not in after

    @pytest.mark.parametrize("order", [16, 32])
    def test_gauss_legendre_rules_are_cached_read_only(self, order):
        import mpmath

        from sil import potentials

        nodes, weights = potentials._leggauss(order)
        # a 30-digit rule: Newton on mpmath's own Legendre function from
        # the Tricomi guesses, weights 2 / ((1 - x^2) P'(x)^2)
        with mpmath.workdps(30):
            ref = []
            for k in range(order, 0, -1):
                x = mpmath.cos(mpmath.pi * (k - 0.25) / (order + 0.5))
                for _ in range(20):
                    p, p_prev = (mpmath.legendre(order, x),
                                 mpmath.legendre(order - 1, x))
                    dp = order * (x * p - p_prev) / (x * x - 1)
                    x -= p / dp
                p, p_prev = (mpmath.legendre(order, x),
                             mpmath.legendre(order - 1, x))
                dp = order * (x * p - p_prev) / (x * x - 1)
                ref.append((x, 2 / ((1 - x * x) * dp * dp)))
            assert all(a[0] < b[0] for a, b in zip(ref, ref[1:]))
            for x, w, (ref_x, ref_w) in zip(nodes, weights, ref):
                assert abs(x - ref_x) <= 1e-16
                assert abs(w - ref_w) <= 1e-14 * ref_w
        # exact for x^{2k}, k < order; odd powers cancel by symmetry
        for k in range(order):
            assert math.isclose(float(np.sum(weights * nodes ** (2 * k))),
                                2.0 / (2 * k + 1), rel_tol=1e-14)
        assert np.array_equal(nodes, -nodes[::-1])
        assert np.array_equal(weights, weights[::-1])
        assert potentials._leggauss(order)[0] is nodes
        for array in (nodes, weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_csv_density_goes_through_quad(self, tmp_path, monkeypatch):
        # a user's density has no closed-form ball mass: the head cell of
        # the rearrangement comes from the lazily imported quad, and w = 1
        # reproduces the Lebesgue rearrangement
        import scipy.integrate

        calls = []
        quad = scipy.integrate.quad

        def counting_quad(*args, **kwargs):
            calls.append(args[1:3])
            return quad(*args, **kwargs)

        monkeypatch.setattr(scipy.integrate, "quad", counting_quad)
        g = log_grid(1e-6, 1e2, 1024)
        src = tmp_path / "f.csv"
        src.write_text(RadialFunction(g, np.exp(-g), 2).to_csv())
        dens = tmp_path / "w.csv"
        dens.write_text(RadialFunction(g, np.ones_like(g), 2).to_csv())
        tables = {}
        for name, extra in (("lebesgue", []), ("density", ["--measure",
                                                            str(dens)])):
            dst = tmp_path / f"{name}.csv"
            assert main(["rearrange", "--in", str(src), "--out", str(dst)]
                        + extra) == 0
            tables[name] = np.loadtxt(dst, delimiter=",", skiprows=1)
            assert len(calls) == (0 if name == "lebesgue" else 1)
        np.testing.assert_allclose(tables["density"], tables["lebesgue"],
                                   rtol=1e-10, atol=0.0)


class TestDichotomyScenarios:
    def test_supercritical_rate_on_deep_sweep(self):
        # the center blow-up driver reaches its predicted rate once the
        # sweep clears the families' O(1) normalization deficit
        sc = Scenario("ruf_supercritical", Params(2, 1.0), seed=0)
        res = run_scenario(sc, check_resolution=False)
        assert res.verdict == "rate_confirmed"
        assert abs(res.fit["driver_slope"] - 0.5) <= 0.1
        assert res.fit["driver_ratio"] >= 10.0

    def test_trace_rate_on_deep_sweep(self):
        sc = Scenario("trace_sharp", Params(2, 1.0, sigma=0.5), seed=0)
        res = run_scenario(sc, check_resolution=False)
        assert res.verdict == "rate_confirmed"
        assert abs(res.fit["driver_slope"] - 0.25) <= 0.05
        assert res.fit["sharp_ratio"] < 10.0

    def test_sharp_side_bounded(self):
        sc = Scenario("ruf_sharp", Params(2, 1.0), seed=0)
        res = run_scenario(sc, check_resolution=False)
        assert res.verdict == "bounded"
        assert res.fit["ratio"] < 10.0

    def test_half_resolution_checks_its_own_phi_states(self):
        # the phi grid is sized by resolution, so the rerun at half
        # resolution draws other admissible states than the full run
        runs = [harness._RUNNERS["oneil_garsia"](
                    Scenario("oneil_garsia", Params(2, 1.0), seed=0,
                             resolution=res)) for res in (400, 200)]
        assert [r.verdict for r in runs] == ["bounded", "bounded"]
        assert runs[0].fit["f_min_margin"] != runs[1].fit["f_min_margin"]


class TestCli:
    def test_constants_json(self, capsys):
        code = main(["constants", "--n", "2", "--alpha", "1"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["gamma"] == pytest.approx(4 * math.pi, rel=1e-12)
        assert out["schema"] == 1

    def test_constants_with_kernel(self, capsys):
        code = main(["constants", "--n", "2", "--alpha", "1",
                     "--kernel", "riesz"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["A_g"] == pytest.approx(math.pi, rel=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_constants_gradient_kernel(self, capsys, n):
        # A_g of the gradient kernel is closed form in every dimension and
        # is the reciprocal of the first-order sharp constant
        code = main(["constants", "--kernel", "gradient", "--n", str(n),
                     "--alpha", "1"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["A_g"] * out["gamma"] - 1.0) <= 1e-14

    @pytest.mark.parametrize("kernel", ["bessel", "hyperbolic"])
    @pytest.mark.parametrize("command", ["constants", "potential"])
    def test_homogeneous_commands_refuse_other_kernels(self, tmp_path, capsys,
                                                       command, kernel):
        # the sharp constants and the radial engine take homogeneous kernels
        # only, so the parser refuses the others as a config error instead
        # of a numeric failure
        argv = [command, "--kernel", kernel, "--n", "3", "--alpha", "2"]
        if command == "potential":
            src = tmp_path / "f.csv"
            g = log_grid(1e-6, 1e3, 512)
            src.write_text(RadialFunction(g, np.exp(-g**2), 3).to_csv())
            argv += ["--in", str(src), "--out", str(tmp_path / "tf.csv")]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not (tmp_path / "tf.csv").exists()

    @pytest.mark.parametrize("kernel",
                             ["riesz", "gradient", "bessel", "hyperbolic"])
    def test_garsia_offers_every_kernel(self, kernel):
        args = build_parser().parse_args(
            ["garsia", "--kernel", kernel, "--f", "f.csv"])
        assert args.kernel == kernel

    @pytest.mark.parametrize("kernel", ["riesz", "gradient"])
    def test_potential_roundtrip(self, tmp_path, capsys, kernel):
        # the kernel decides the reduction: the gradient kernel takes the
        # magnitude profile of a radial-vector field, as the library does
        if kernel == "riesz":
            k = riesz_kernel(Params(2, 1.0))
            g = log_grid(1e-6, 1e3, 2048)
            f = RadialFunction(g, np.exp(-g**2), 2)
        else:
            k = gradient_kernel(2, 1)
            f = adams_family(k, 1e-2, per_decade=50).profile
        src = tmp_path / "f.csv"
        src.write_text(f.to_csv())
        dst = tmp_path / "tf.csv"
        code = main(["potential", "--kernel", kernel, "--n", "2",
                     "--alpha", "1", "--in", str(src), "--out", str(dst)])
        assert code == 0
        tf = RadialFunction.from_csv(dst.read_text())
        assert np.all(np.isfinite(tf.values))
        if kernel == "riesz":
            assert tf.values[0] > 0
        expected = radial_convolve(RadialFunction.from_csv(src.read_text()), k)
        assert dst.read_text() == expected.to_csv()

    @pytest.mark.parametrize("command", ["potential", "constants"])
    def test_gradient_kernel_rejects_fractional_order(self, tmp_path, capsys,
                                                      command):
        # a non-integer order is a config error, not the integer part's
        # potential or constants
        argv = [command, "--kernel", "gradient", "--n", "2", "--alpha", "1.5"]
        if command == "potential":
            src = tmp_path / "f.csv"
            g = log_grid(1e-6, 1e3, 512)
            src.write_text(RadialFunction(g, np.exp(-g**2), 2).to_csv())
            dst = tmp_path / "tf.csv"
            argv += ["--in", str(src), "--out", str(dst)]
        assert main(argv) == 2
        assert "integer order" in capsys.readouterr().err
        if command == "potential":
            assert not dst.exists()

    def test_rearrange_roundtrip(self, tmp_path):
        g = log_grid(1e-6, 1e2, 1024)
        f = RadialFunction(g, np.exp(-g), 2)
        src = tmp_path / "f.csv"
        src.write_text(f.to_csv())
        dst = tmp_path / "fstar.csv"
        assert main(["rearrange", "--in", str(src), "--out", str(dst)]) == 0
        rows = dst.read_text().strip().splitlines()
        assert rows[0] == "t,fstar,fstarstar"
        vals = np.array([[float(x) for x in row.split(",")]
                         for row in rows[1:]])
        assert np.all(np.diff(vals[:, 1]) <= 1e-12)

    def test_functional_json(self, tmp_path, capsys):
        g = log_grid(1e-6, 1e2, 1024)
        f = RadialFunction(g, 0.5 * np.exp(-g), 2)
        src = tmp_path / "u.csv"
        src.write_text(f.to_csv())
        code = main(["functional", "--coeff", "sharp", "--set", "ball:1",
                     "--in", str(src), "--n", "2", "--alpha", "1"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] > math.pi  # integrand above 1 on the disk

    @pytest.mark.parametrize("text", ["ball:abc", "annulus:1", "halfspace:x",
                                      "halfspace:1", "bogus", "slab:0,-1,1",
                                      "ball:-1"])
    def test_functional_malformed_set_is_config_error(self, text, tmp_path,
                                                      capsys):
        g = log_grid(1e-6, 1e2, 64)
        src = tmp_path / "u.csv"
        src.write_text(RadialFunction(g, np.exp(-g), 2).to_csv())
        code = main(["functional", "--set", text, "--in", str(src)])
        assert code == 2
        assert "config error: cannot parse domain" in capsys.readouterr().err

    def test_extremal_emits_profile(self, tmp_path):
        dst = tmp_path / "prof.csv"
        code = main(["extremal", "--kind", "moser", "--eps", "1e-3",
                     "--n", "2", "--alpha", "1", "--out", str(dst)])
        assert code == 0
        prof = RadialFunction.from_csv(dst.read_text())
        assert prof.values[0] == pytest.approx(math.log(1e3), rel=1e-9)

    def test_garsia_json(self, tmp_path, capsys):
        g = log_grid(1e-6, 1e2, 1024)
        vals = np.exp(-((np.log(g) + 2.0) / 0.5) ** 2)
        f = RadialFunction(g, vals, 2)
        from sil.norms import lp_norm
        f = f.with_values(f.values / lp_norm(f, 2.0))
        src = tmp_path / "f.csv"
        src.write_text(f.to_csv())
        code = main(["garsia", "--kernel", "riesz", "--n", "2", "--alpha",
                     "1", "--f", str(src)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["J"] == pytest.approx(math.log(math.pi), rel=1e-9)
        assert out["integral"] > 0 and np.isfinite(out["fitted_C5"])
        # exactly these keys, each equal to what garsia_integral gives for
        # the same profile
        p2 = Params(2, 1.0)
        prof = kernel_profile(riesz_kernel(p2), truncation_radius=1.0)
        state = garsia_transform(decreasing_rearrangement(
            RadialFunction.from_csv(src.read_text())), prof, p2)
        res = garsia_integral(state)
        lams = np.linspace(-state.d_star, 10.0, 40)
        c5 = np.max(level_set_measure(lams, res["y_grid"], res["f_values"])
                    / (np.abs(lams) + state.d_star))
        assert out == {"schema": 1, "J": prof.J, "d_star": state.d_star,
                       "fitted_C5": float(c5), "integral": res["integral"]}

    def test_garsia_gradient_kernel_is_truncated_like_riesz(self, tmp_path,
                                                            capsys):
        # the gradient kernel's |g| = |a| r^{alpha-n} is profiled as a
        # homogeneous kernel truncated at radius 1; the chain reads the
        # profile through A^{1/beta} t^{-1/beta} only, so the gradient
        # (|a| = 1/(2 pi)) and Riesz (|a| = 1) JSON agree to roundoff
        g = log_grid(1e-6, 1e2, 1024)
        f = RadialFunction(g, np.exp(-((np.log(g) + 2.0) / 0.5) ** 2), 2)
        from sil.norms import lp_norm
        f = f.with_values(f.values / lp_norm(f, 2.0))
        src = tmp_path / "f.csv"
        src.write_text(f.to_csv())
        out = {}
        for kernel in ("gradient", "riesz"):
            assert main(["garsia", "--kernel", kernel, "--n", "2",
                         "--alpha", "1", "--f", str(src)]) == 0
            out[kernel] = json.loads(capsys.readouterr().out)
        assert out["gradient"]["J"] == out["riesz"]["J"] == math.log(math.pi)
        for key, value in out["riesz"].items():
            assert out["gradient"][key] == pytest.approx(value, rel=1e-14), key

    @pytest.mark.parametrize("n", [2, 3])
    def test_garsia_runs_bessel_kernel(self, tmp_path, capsys, n):
        # the exact Bessel profile meets the power bound with no log
        # correction, so the chain runs over all of R^n with d* = C2 + J,
        # and its integrals hold the 1% of the level-set benchmark check
        import importlib.util
        path = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                            "checks.py")
        spec = importlib.util.spec_from_file_location("bench_checks", path)
        checks = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(checks)
        g = log_grid(1e-6, 1e2, 1024)
        src = tmp_path / "f.csv"
        src.write_text(RadialFunction(g, np.exp(-g), n).to_csv())
        assert main(["garsia", "--kernel", "bessel", "--n", str(n),
                     "--alpha", "1", "--f", str(src)]) == 0
        out = json.loads(capsys.readouterr().out)
        p = Params(n, 1.0)
        prof = kernel_profile(bessel_kernel_spec(p))
        state = garsia_transform(decreasing_rearrangement(
            RadialFunction.from_csv(src.read_text())), prof, p)
        assert out["J"] == prof.J
        assert out["d_star"] == state.c2 + prof.J
        assert math.isfinite(out["d_star"])
        res = garsia_integral(state)
        exact = checks.exact_exp_integral(res["y_grid"], res["f_values"])
        for key in ("integral", "layer_cake"):
            assert res[key] == pytest.approx(exact, rel=0.01), key

    def test_garsia_rejects_hyperbolic_plane(self, tmp_path, capsys):
        # the hyperbolic Green kernel has order 2: on the plane alpha = n,
        # which leaves no finite beta, and any other --alpha is refused
        # rather than silently replaced by 2
        g = log_grid(1e-6, 1e2, 1024)
        for n in (2, 3):
            src = tmp_path / "f.csv"
            src.write_text(RadialFunction(g, np.exp(-g), n).to_csv())
            code = main(["garsia", "--kernel", "hyperbolic", "--n", str(n),
                         "--alpha", "1", "--f", str(src)])
            assert code == 2
            assert "order 2" in capsys.readouterr().err

    def test_garsia_rejects_sigma_below_one(self, tmp_path, capsys):
        # the chain knows O'Neil's constant for sigma = 1 only
        g = log_grid(1e-6, 1e2, 1024)
        src = tmp_path / "f.csv"
        src.write_text(RadialFunction(g, np.exp(-g), 2).to_csv())
        assert main(["garsia", "--sigma", "0.5", "--f", str(src)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "sigma" in err

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        dst = tmp_path / "missing" / "x.csv"
        assert main(["extremal", "--kind", "moser", "--eps", "1e-3",
                     "--out", str(dst)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and str(dst) in err

    def test_functional_with_density_measure(self, tmp_path, capsys):
        g = log_grid(1e-6, 1e2, 1024)
        u = RadialFunction(g, 0.3 * np.exp(-g), 2)
        src = tmp_path / "u.csv"
        src.write_text(u.to_csv())
        dens = RadialFunction(g, 1.0 / np.sqrt(g), 2)
        dpath = tmp_path / "w.csv"
        dpath.write_text(dens.to_csv())
        code = main(["functional", "--coeff", "sharp", "--set", "ball:1",
                     "--in", str(src), "--measure", str(dpath),
                     "--n", "2", "--alpha", "1"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] > 0 and math.isfinite(out["value"])

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{broken")
        assert main(["run", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("seed", [None, "x", [3]])
    def test_bad_seed_exit_code(self, tmp_path, capsys, seed):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": seed, "scenarios": []}))
        assert main(["run", "--config", str(cfg)]) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg", [
        [], {"scenarios": {"id": "ruf_sharp"}}, {"scenarios": "ruf_sharp"},
        {"scenarios": [["ruf_sharp"]]}, {"scenarios": [3]},
        {"scenarios": [{"id": "ruf_supercritical", "sweep": [0.1, 0.01]}]}])
    def test_malformed_config_exit_code(self, tmp_path, capsys, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_hyperbolic_one_point_sweep_exit_code(self, tmp_path, capsys):
        # the log-family slopes need two points; one is a config error
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 0, "scenarios": [
            {"id": "hyperbolic", "n": 3, "alpha": 2.0, "sweep": [0.01]}]}))
        assert main(["run", "--config", str(path)]) == 2
        assert "two distinct points" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--q", "0"), ("--sigma", "0"),
                                            ("--q", "0.5"), ("--eps", "0"),
                                            ("--eps", "1"), ("--eps", "2"),
                                            ("--eps", "-1")])
    def test_bad_parameter_exit_code(self, capsys, flag, value):
        # a parameter outside its range is a config error, never rewritten
        commands = ([["extremal", "--kind", kind] for kind in ("adams", "moser")]
                    if flag == "--eps" else [["constants"]])
        for command in commands:
            assert main(command + [flag, value]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error") and value in err

    @pytest.mark.parametrize("case", ["cell", "ragged", "nonfinite", "missing"])
    @pytest.mark.parametrize("command", ["rearrange", "measure"])
    def test_bad_input_csv_exit_code(self, tmp_path, capsys, case, command):
        # an unparsable cell, a ragged row, a row starting nan or inf or a
        # missing file is a config error (exit 2), not a traceback with the
        # verdict-violation code or a silently dropped row
        good = tmp_path / "good.csv"
        g = log_grid(1e-3, 1e2, 64)
        good.write_text(RadialFunction(g, np.exp(-g), 2).to_csv())
        bad = tmp_path / "bad.csv"
        rows = good.read_text().splitlines()
        if case == "cell":
            rows[-1] = rows[-1].split(",")[0] + ",abc"
        elif case == "ragged":
            rows[-1] += ",1.0"
        elif case == "nonfinite":
            for k, head in ((-3, "nan"), (-1, "inf")):
                rows[k] = head + "," + rows[k].split(",")[1]
        if case != "missing":
            bad.write_text("\n".join(rows) + "\n")
        argv = ["rearrange", "--in", str(bad)] if command == "rearrange" \
            else ["rearrange", "--in", str(good), "--measure", str(bad)]
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and str(bad) in err

    def test_potential_on_three_nodes(self, tmp_path, capsys):
        # a grid shorter than the corrected band around the diagonal
        src = tmp_path / "f.csv"
        g = np.array([0.1, 0.2, 0.4])
        src.write_text(RadialFunction(g, np.array([1.0, 0.5, 0.25]), 2).to_csv())
        dst = tmp_path / "tf.csv"
        assert main(["potential", "--in", str(src), "--out", str(dst)]) == 0
        tf = RadialFunction.from_csv(dst.read_text())
        assert tf.grid.size == 3 and np.all(np.isfinite(tf.values))

    @pytest.mark.parametrize("kernel,n", [("riesz", "3"), ("gradient", "4")])
    def test_potential_rejects_other_dimension(self, tmp_path, capsys,
                                               kernel, n):
        # the CSV says n = 2; a kernel in another dimension is an error,
        # not a potential relabelled n = 3 or 4
        src = tmp_path / "f.csv"
        g = np.array([0.1, 0.2, 0.4])
        src.write_text(RadialFunction(g, np.array([1.0, 0.5, 0.25]), 2).to_csv())
        dst = tmp_path / "tf.csv"
        assert main(["potential", "--kernel", kernel, "--n", n, "--alpha", "1",
                     "--in", str(src), "--out", str(dst)]) != 0
        assert "dimension" in capsys.readouterr().err
        assert not dst.exists()

    def test_run_writes_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 3,
            "scenarios": [{"id": "lemma_suite", "n": 2, "alpha": 1.0,
                           "sweep": [1e-1]}],
        }))
        out_dir = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out_dir)])
        captured = capsys.readouterr().out
        assert "lemma_suite" in captured
        assert (out_dir / "lemma_suite.json").exists()
        assert code in (0, 1)


class TestBenchTrace:
    def test_traced_levelset_reports_every_layer(self):
        # a traced round wraps library functions by name and fails when
        # one is missing, so deleting or renaming a traced function shows
        # here rather than only in the per-layer benchmark
        import subprocess
        import sys

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        proc = subprocess.run(
            [sys.executable, os.path.join(root, "bench", "run.py"),
             "--workload", "levelset", "--seed", "0", "--seconds", "0",
             "--trace", "1"],
            cwd=root, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] is True
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            names = [m["name"] for m in json.load(fh)["per_layer"]]
        assert set(names) <= set(result["metrics"])
