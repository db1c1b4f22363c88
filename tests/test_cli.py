"""Scenario runner surface: exit codes, file emission, determinism."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gfn_lab import cli
from gfn_lab.cli import main
from gfn_lab.scenarios import SCENARIO_NAMES, ScenarioConfig, run_scenario


def read_bytes_excluding_log(d):
    out = {}
    for name in sorted(os.listdir(d)):
        if name == "run_log.txt":
            continue
        out[name] = open(os.path.join(d, name), "rb").read()
    return out


class TestCliSurface:
    def test_unknown_scenario_nonzero_exit_no_files(self, tmp_path):
        out = tmp_path / "nope"
        rc = main(["spiral", "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_mollifier_run(self, tmp_path):
        out = tmp_path / "m"
        rc = main(["mollifier", "--q", "2", "--out", str(out), "--quiet"])
        assert rc == 0
        rows = list(csv.DictReader(open(out / "mollifier_moments.csv")))
        assert {r["k"] for r in rows} == {"0", "1", "2"}
        for r in rows:
            if r["k"] != "0":
                assert abs(float(r["moment"])) <= 1e-10

    def test_flag_overrides_config_file(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"q": 1, "seed": 3}))
        out = tmp_path / "o"
        rc = main(["mollifier", "--config", str(cfgfile), "--q", "3",
                   "--out", str(out), "--quiet"])
        assert rc == 0
        rows = list(csv.DictReader(open(out / "mollifier_moments.csv")))
        assert {r["q"] for r in rows} == {"3"}

    def test_config_seed_and_out_hold_without_flags(self, tmp_path,
                                                     monkeypatch):
        """Only explicit flags override the file's seed and out."""
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "from-file"
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"q": 1, "seed": 99, "out": str(out)}))
        rc = main(["mollifier", "--config", str(cfgfile), "--quiet"])
        assert rc == 0
        assert "seed=99" in (out / "run_log.txt").read_text()
        assert not (tmp_path / "out").exists()

    def test_battery_addressable_from_config(self, tmp_path):
        """Battery (mode, q, count, seed) resolves from the config file."""
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"battery_mode": "eps_path",
                                       "battery_count": 2, "q": 0,
                                       "eps_max": 10, "k_points": 11}))
        out = tmp_path / "b"
        rc = main(["delta-scaling", "--config", str(cfgfile), "--seed", "5",
                   "--out", str(out), "--quiet"])
        assert rc == 0
        rows = list(csv.DictReader(open(out / "delta-scaling_sweep.csv")))
        assert all(r["member_id"].startswith("eps_path-") for r in rows)

    def test_config_for_another_scenario_rejected(self, tmp_path, capsys):
        """A file naming another scenario exits 2 and writes nothing."""
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"scenario": "d1-form", "seed": 3}))
        out = tmp_path / "x"
        rc = main(["mollifier", "--config", str(cfgfile), "--quiet",
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "'d1-form'" in err and "'mollifier'" in err

    def test_config_naming_the_same_scenario_runs(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"scenario": "mollifier", "q": 1,
                                       "seed": 3}))
        cfg = ScenarioConfig.from_sources("mollifier", str(cfgfile))
        assert (cfg.scenario, cfg.q, cfg.seed) == ("mollifier", 1, 3)
        out = tmp_path / "m"
        rc = main(["mollifier", "--config", str(cfgfile), "--quiet",
                   "--out", str(out)])
        assert rc == 0
        assert (out / "mollifier_summary.csv").exists()

    def test_unknown_diffeo_nonzero_exit(self, tmp_path):
        rc = main(["counterexample", "--diffeo", "moebius", "--quiet",
                   "--out", str(tmp_path / "d")])
        assert rc == 2

    def test_k_points_sets_the_grid_of_a_scenario_with_its_own_size(
            self, tmp_path):
        """association sizes K itself (21 points); --k-points overrides it."""
        sweeps = []
        for tag, extra in (("default", []), ("k3", ["--k-points", "3"])):
            out = tmp_path / tag
            rc = main(["association", "--seed", "0", "--quiet",
                       "--out", str(out), *extra])
            assert rc in (0, 1)
            sweeps.append((out / "association_sweep.csv").read_bytes())
        assert sweeps[0] != sweeps[1]

    def test_every_flag_is_in_both_synopses(self, capsys):
        """The flags ``gfn --help`` prints are those of the synopsis in the
        README and in the cli module's docstring."""
        with pytest.raises(SystemExit):
            main(["--help"])
        flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        flags.discard("--help")
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        synopses = [readme.split("## CLI", 1)[1].split("```")[1],
                    cli.__doc__.split("\n\n")[1]]
        for text in synopses:
            assert text.lstrip().startswith("gfn <scenario>")
            assert set(re.findall(r"--[a-z][a-z-]*", text)) == flags

    @pytest.mark.parametrize("data", [
        pytest.param({"qq": 1}, id="unknown-key"),
        pytest.param({"s": 2}, id="dimension-key"),
        pytest.param({"quad_n": 101}, id="quad-n-not-power-of-two"),
        pytest.param({"quad_n": 32}, id="quad-n-too-small"),
        pytest.param({"battery_count": 0}, id="count-zero"),
        pytest.param({"k_points": 0}, id="k-points-zero"),
        pytest.param({"q": -1}, id="q-negative"),
        pytest.param({"q": 99}, id="q-above-cap"),
        pytest.param({"eps_min": 1}, id="eps-min-below-2"),
        pytest.param({"eps_max": 30}, id="eps-max-above-20"),
        pytest.param({"eps_min": 12, "eps_max": 10}, id="eps-min-above-max"),
        pytest.param({"eps_min": 10, "eps_max": 10}, id="eps-min-equals-max"),
        pytest.param({"fit_window": 2}, id="fit-window-below-4"),
        pytest.param({"omega": [1.0, -1.0]}, id="omega-reversed"),
        pytest.param({"omega": [-1.0, float("inf")]}, id="omega-infinite"),
        pytest.param({"omega": [1.0]}, id="omega-one-number"),
        pytest.param({"diffeo": "nope"}, id="diffeo-not-in-catalog"),
        pytest.param({"battery_mode": "cm"}, id="battery-mode-unknown"),
    ])
    def test_bad_config_key_rejected(self, tmp_path, data):
        """Unknown keys and out-of-range numbers exit 2 (bad usage), never
        1, which means a failed verdict."""
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(data))
        out = tmp_path / "x"
        rc = main(["mollifier", "--config", str(cfgfile), "--quiet",
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("data", [
        pytest.param({"k_points": 5.5}, id="k-points-float"),
        pytest.param({"seed": 7.5}, id="seed-float"),
        pytest.param({"battery_count": True}, id="count-true"),
        pytest.param({"q": 1.0}, id="q-whole-float"),
        pytest.param({"eps_min": 3.0}, id="eps-min-float"),
        pytest.param({"eps_max": 12.0}, id="eps-max-float"),
        pytest.param({"fit_window": 6.0}, id="fit-window-float"),
        pytest.param({"quad_n": 1024.0}, id="quad-n-float"),
        pytest.param({"seed": -1}, id="seed-negative"),
        pytest.param({"out": 3}, id="out-not-a-string"),
    ])
    def test_config_value_of_the_wrong_type_is_bad_usage(self, tmp_path,
                                                         monkeypatch, data):
        """A JSON float or boolean where an integer belongs, a negative
        seed, or an out that is not a string exits 2 before anything runs:
        not 1 from a traceback mid-run, and no run with true taken for 1."""
        monkeypatch.chdir(tmp_path)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(data))
        assert main(["delta-scaling", "--config", str(cfgfile),
                     "--quiet"]) == 2
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("scenario", ["counterexample", "delta-scaling"])
    def test_an_omega_left_mid_run_is_bad_usage(self, tmp_path, capsys,
                                                scenario):
        """An omega that the scenario's points or supports leave raises
        ``DomainError`` mid-run; it exits 2 with a one-line message, not 1
        with a traceback."""
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"omega": [-0.9, 0.9]}))
        assert main([scenario, "--config", str(cfgfile), "--quiet",
                     "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("gfn: ") and err.count("\n") == 1

    def test_run_all_scenarios_from_a_fresh_checkout(self, tmp_path):
        """The script finds the lab without PYTHONPATH or an install."""
        script = Path(__file__).resolve().parent.parent / "scripts" / \
            "run_all_scenarios.py"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        res = subprocess.run([sys.executable, str(script), "--help"],
                             cwd=tmp_path, env=env, capture_output=True,
                             text=True, timeout=60)
        assert res.returncode == 0, res.stderr
        assert "--seed" in res.stdout and "--seeds A-B" in res.stdout

    def test_surface_from_a_fresh_checkout(self, tmp_path):
        """scripts/surface.py runs without PYTHONPATH or an install, counts
        the src/ lines as wc -l does, in total and per module, and the code
        lines, which sum to their total and never exceed a module's lines;
        at most every value has a default; then every value, sorted, by
        module-qualified name; last the unused names, sorted."""
        root = Path(__file__).resolve().parent.parent
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        res = subprocess.run([sys.executable,
                              str(root / "scripts" / "surface.py")],
                             cwd=tmp_path, env=env, capture_output=True,
                             text=True, timeout=60)
        assert res.returncode == 0, res.stderr
        out = [line.split(": ") for line in res.stdout.splitlines()]
        got = dict(kv for kv in out if kv[0] not in ("value", "unused"))
        values = [v for k, v in out if k == "value"]
        unused = [v for k, v in out if k == "unused"]
        assert out[len(out) - len(values) - len(unused):] == \
            [["value", v] for v in values] + [["unused", v] for v in unused]
        assert unused == sorted(unused)
        lines = sum(p.read_text().count("\n")
                    for p in (root / "src" / "gfn_lab").glob("*.py"))
        assert int(got["src lines"]) == lines
        modules = {k: int(v) for k, v in got.items()
                   if k.startswith("src lines ")}
        names = [p.name for p in (root / "src" / "gfn_lab").glob("*.py")]
        assert sorted(modules) == sorted(f"src lines {n}" for n in names)
        assert sum(modules.values()) == lines
        code = {k[len("src code lines "):]: int(v) for k, v in got.items()
                if k.startswith("src code lines ")}
        assert sorted(code) == sorted(names)
        assert sum(code.values()) == int(got["src code lines"]) > 0
        assert all(0 < v <= modules[f"src lines {k}"] for k, v in code.items())
        assert 0 < int(got["with a default"]) \
            <= int(got["settable public values"]) == len(values)
        assert values == sorted(values)
        assert {v.split(".")[0] for v in values} <= {p[:-3] for p in names}
        assert "basic_space.embed_C(omega)" in values

    #: public names that nothing in src/ or scripts/ uses, each with the
    #: reason it stays
    UNUSED = {
        "testfunc.moments_upto": "perfbench binds and times it",
        "diffeo.Diffeomorphism.inverted": "tier-1 builds inverse maps by it",
    }

    def test_every_public_name_is_used_or_allowed(self, monkeypatch, capsys):
        """The names surface.py reports unused are exactly the allow-list:
        a public function, class or method that no scenario, script or
        other module calls is deleted, or listed here with its reason."""
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parent.parent / "scripts"))
        import surface
        assert surface.main() == 0
        unused = [line.split(": ")[1]
                  for line in capsys.readouterr().out.splitlines()
                  if line.startswith("unused: ")]
        assert unused == sorted(self.UNUSED)

    def test_unused_names_read_names_attributes_and_imports(
            self, monkeypatch):
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parent.parent / "scripts"))
        import ast
        import surface
        src = """
import a.b as c
from d import e
def f(): pass
def _g(): pass
class H:
    def m(self): pass
    def _n(self): pass
class _I:
    def k(self): pass
x = y.z
"""
        tree = ast.parse(src)
        assert surface.definitions(tree) == [("f", "f"), ("H", "H"),
                                             ("H.m", "m")]
        assert surface.used_names(tree) == {"a", "b", "e", "x", "y", "z"}

    def test_surface_is_quiet_when_its_reader_closes_the_pipe(self):
        """A reader gone before the first line, as after ``| head -1``,
        ends the run with no traceback on standard error."""
        script = Path(__file__).resolve().parent.parent / "scripts" / \
            "surface.py"
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails
        try:
            res = subprocess.run([sys.executable, str(script)],
                                 stdout=write_end, stderr=subprocess.PIPE,
                                 text=True, timeout=60)
        finally:
            os.close(write_end)
        assert res.stderr == ""

    def test_code_lines_leave_out_blanks_comments_and_docstrings(
            self, monkeypatch):
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parent.parent / "scripts"))
        import surface
        src = '''"""Module
docstring."""

# a comment
X = """a string
that is code"""  # trailing comment


class C:
    """Class docstring."""

    def f(self, a,
          b):
        """One line."""
        return (a +
                b)
'''
        assert surface.code_lines(src) == 2 + 1 + 2 + 2

    def test_surface_counts_public_parameters_and_fields(self, monkeypatch):
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parent.parent / "scripts"))
        import ast
        import surface
        src = """
from dataclasses import dataclass
def f(a, b=1, *args, c, d=2, **kw): pass
def _hidden(a): pass
class C:
    def __init__(self, x, y=0): pass
    def m(self, z): pass
    @classmethod
    def k(cls, w=1): pass
    def _p(self, v): pass
    def __call__(self, u): pass
@dataclass
class D:
    n: int
    s: str = ""
    plain = 3
class _E:
    def __init__(self, t): pass
"""
        got = surface.settable_values(ast.parse(src))
        assert got == [("f(a)", False), ("f(b)", True), ("f(c)", False),
                       ("f(d)", True), ("f(args)", False), ("f(kw)", False),
                       ("C.__init__(x)", False), ("C.__init__(y)", True),
                       ("C.m(z)", False), ("C.k(w)", True),
                       ("D.n", False), ("D.s", True)]

    @pytest.mark.parametrize("args, message", [
        (["--seed", "3", "--seeds", "1-2"], "not allowed with"),
        (["--seeds", "3-1"], "empty seed range"),
        (["--seeds", "7"], "expected A-B")])
    def test_run_all_scenarios_rejects_bad_seeds(self, tmp_path, args,
                                                 message):
        script = Path(__file__).resolve().parent.parent / "scripts" / \
            "run_all_scenarios.py"
        res = subprocess.run([sys.executable, str(script), *args,
                              "--out", str(tmp_path / "o")],
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 2 and message in res.stderr
        assert not (tmp_path / "o").exists()

    @pytest.fixture
    def run_all(self, monkeypatch):
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parent.parent / "scripts"))
        import run_all_scenarios
        return run_all_scenarios

    def test_run_all_scenarios_seeds_print_in_seed_order(self, tmp_path,
                                                         capsys, run_all):
        """Seeds run in worker processes print what one process prints,
        seed by seed."""
        seeds = range(3, 7)
        for s in seeds:
            assert run_all.run_seed(s, str(tmp_path / "one" / f"seed{s}"),
                                    f"seed={s} ", ("mollifier",)) == []
        one = capsys.readouterr().out
        assert run_all.run_seeds(seeds, str(tmp_path / "pool"),
                                 ("mollifier",)) == []
        assert capsys.readouterr().out == one
        assert [line.split()[0] for line in one.splitlines()] == \
            [f"seed={s}" for s in seeds]

    def test_run_all_scenarios_keeps_the_lines_before_a_raise(self,
                                                               tmp_path,
                                                               run_all):
        lines, failed, error = run_all.run_seed_task(
            (3, str(tmp_path), "", ("mollifier", "no-such-scenario")))
        assert [line.split()[:2] for line in lines] == [["mollifier",
                                                         "PASS"]]
        assert failed == [] and "no-such-scenario" in error

    @pytest.mark.parametrize("args", [
        ["delta-scaling", "--eps-min", "12"],
        ["delta-scaling", "--eps-max", "5"],
        ["embed-order", "--eps-min", "12"]])
    def test_sweep_shorter_than_its_fit_window_is_bad_usage(self, tmp_path,
                                                            args):
        """Values valid on their own that leave one of the scenario's sweeps
        fewer rows than its fit window exit 2 before anything runs."""
        out = tmp_path / "x"
        assert main([*args, "--quiet", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("q", ["0", "8"])
    def test_moment_invariance_q_outside_its_range_is_bad_usage(self, tmp_path,
                                                                q):
        """q = 0 leaves no moment to fit and q = 8 needs an A_14 source:
        both exit 2 before anything runs, not 1 mid-run."""
        out = tmp_path / "x"
        assert main(["moment-invariance", "--q", q, "--quiet",
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_moment_invariance_runs_at_q_1(self, tmp_path):
        """The sources need at least q vanishing moments, more than the
        2q - 2 of the default q."""
        assert main(["moment-invariance", "--q", "1", "--count", "1",
                     "--k-points", "3", "--quiet",
                     "--out", str(tmp_path / "x")]) == 0

    def test_count_sizes_a_fixed_size_battery(self, tmp_path):
        """counterexample's eps battery has 4 members; --count overrides it."""
        sweeps = []
        for tag, extra in (("default", []), ("c2", ["--count", "2"])):
            out = tmp_path / tag
            rc = main(["counterexample", "--seed", "0", "--quiet",
                       "--out", str(out), *extra])
            assert rc == 0
            sweeps.append((out / "counterexample_sweep.csv").read_bytes())
        assert sweeps[0] != sweeps[1]

    def test_scenario_names_all_registered(self):
        from gfn_lab.scenarios import _SCENARIOS
        assert set(SCENARIO_NAMES) == set(_SCENARIOS)

    def test_seed_mandatory(self):
        with pytest.raises(ValueError):
            ScenarioConfig("mollifier", seed=None)


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, tmp_path):
        """Same config and seed: every emitted CSV byte-identical; only the
        run-log sidecar carries timestamps."""
        outs = []
        for tag in ("a", "b"):
            cfg = ScenarioConfig("delta-scaling", battery_count=2,
                                 k_points=11, eps_max=10, seed=5,
                                 out=str(tmp_path / tag))
            res = run_scenario(cfg)
            assert res.passed
            outs.append(read_bytes_excluding_log(tmp_path / tag))
        assert outs[0].keys() == outs[1].keys()
        for name in outs[0]:
            assert outs[0][name] == outs[1][name], name

    def test_summary_schema(self, tmp_path):
        cfg = ScenarioConfig("mollifier", q=1, seed=5,
                             out=str(tmp_path / "s"))
        run_scenario(cfg)
        rows = list(csv.reader(open(tmp_path / "s" / "mollifier_summary.csv")))
        assert rows[0] == ["scenario", "assertion", "observed", "threshold",
                          "passed"]
        assert all(r[4] in ("pass", "FAIL") for r in rows[1:])

    def test_d1_form_sweep_holds_both_tables(self, tmp_path):
        """d1-form writes its d1 and insertion tables in the sweep schema,
        each member id prefixed by its catalog representative."""
        cfg = ScenarioConfig("d1-form", eps_max=7, seed=5,
                             out=str(tmp_path / "d"))
        res = run_scenario(cfg)
        names = sorted(os.path.basename(f) for f in res.files)
        assert names == ["d1-form_summary.csv", "d1-form_sweep.csv",
                         "d1-form_verdicts.csv"]
        rows = list(csv.DictReader(open(tmp_path / "d" / "d1-form_sweep.csv")))
        catalog = ["iota-delta", "iota-H", "iota-sin", "sigma-sin",
                   "counterexample"]
        ids = list(dict.fromkeys(r["member_id"] for r in rows))
        assert [i.split("|")[0] for i in ids] == \
            [name for name in catalog for _ in range(4 * 5 + 4)]
        d1 = [i for i in ids if "|k" in i]
        assert len(d1) == 5 * 4 * 5
        assert {i.rsplit("|", 1)[1] for i in d1} == \
            {"k0t0", "k1t0", "k1t1", "k2t0", "k2t1"}
        alphas = {(r["member_id"], r["alpha"]) for r in rows}
        assert len(alphas) == 5 * (4 * 5 + 4 * 2)
        assert len(rows) == len(alphas) * 6  # eps rows 2^-2 .. 2^-7
