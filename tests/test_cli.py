import argparse
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from varmms.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run(args):
    return main([str(a) for a in args])


def run_child(*args, **kwargs):
    """A fresh interpreter that imports varmms from this checkout's src."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, **kwargs)


def test_space_gen_round_trip_bytes(tmp_path):
    out = tmp_path / "space.json"
    assert run(["--out", out, "space-gen", "grid2d", '{"nx": 4}']) == 0
    first = out.read_bytes()
    from varmms import MetricMeasureSpace
    from varmms.cli import canonical_json
    sp = MetricMeasureSpace.from_json(first.decode())
    assert (canonical_json(sp.to_json()) + "\n").encode() == first
    # regeneration is byte-identical
    out2 = tmp_path / "space2.json"
    assert run(["--out", out2, "space-gen", "grid2d", '{"nx": 4}']) == 0
    assert out2.read_bytes() == first


def test_space_gen_kinds(tmp_path):
    for kind, params in [("grid1d", {"n": 8}), ("cantor", {"level": 3}),
                         ("ball_grid_with_atom", {"n_dim": 1, "m": 9}),
                         ("two_zone_glued", {"n_line": 4, "n_grid": 2})]:
        out = tmp_path / f"{kind}.json"
        assert run(["--out", out, "space-gen", kind, json.dumps(params)]) == 0
    data = json.loads((tmp_path / "grid1d.json").read_text())
    assert data["n"] == 8
    assert data["weights"] == [0.125] * 8
    cantor = json.loads((tmp_path / "cantor.json").read_text())
    assert cantor["n"] == 8 and cantor["weights"] == [0.125] * 8


def test_cmd_norm_constant_function(tmp_path):
    scenario = {
        "name": "constnorm",
        "space": {"kind": "grid1d", "params": {"n": 4}},
        "exponents": {"p": {"constant": 2.0}},
        "function": {"family": "constant", "value": -3.0},
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scenario))
    assert run(["--out", tmp_path / "out", "norm", path]) == 0
    result = json.loads((tmp_path / "out" / "constnorm.json").read_text())
    assert result["value"] == pytest.approx(3.0, rel=1e-8)


def test_cmd_gradient_hand_lp(tmp_path):
    space_file = tmp_path / "pair.json"
    space_payload = {"n": 2, "metric": {"type": "euclidean", "coords": [[0.0], [1.0]]},
                     "weights": [1.0, 1.0]}
    space_file.write_text(json.dumps(space_payload))
    scenario = {
        "name": "twopoint",
        "space": {"file": "pair.json"},
        "exponents": {"s": {"constant": 1.0}, "p": {"constant": 1.0}},
        "function": {"values": [0.0, 1.0]},
    }
    path = tmp_path / "grad.json"
    path.write_text(json.dumps(scenario))
    assert run(["--out", tmp_path / "out", "gradient", path]) == 0
    result = json.loads((tmp_path / "out" / "twopoint.json").read_text())
    assert result["objective"] == pytest.approx(1.0, abs=1e-8)
    assert result["certificate"] <= 1e-9


def test_cmd_verify_deterministic_reports(tmp_path):
    scenario = {
        "name": "gridsob",
        "space": {"kind": "grid2d", "params": {"nx": 8}},
        "exponents": {"s": {"constant": 1.0}, "p": {"constant": 1.0},
                      "Q": {"constant": 2.0}},
        "function": {"family": "coordinate", "axis": 0},
        "checks": [
            {"op": "sobolev_local", "ball": {"center": 27, "radius": 0.25}},
            {"op": "local_embedding", "ball": {"center": 27, "radius": 0.25}},
        ],
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scenario))
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert run(["--out", out1, "verify", path]) == 0
    assert run(["--out", out2, "verify", path]) == 0
    assert (out1 / "gridsob.json").read_bytes() == (out2 / "gridsob.json").read_bytes()
    assert (out1 / "gridsob.csv").read_bytes() == (out2 / "gridsob.csv").read_bytes()
    rows = (out1 / "gridsob.csv").read_text().strip().splitlines()
    assert rows[0] == "scenario,theorem,hypotheses_ok,lhs,rhs,constant,pass"
    assert len(rows) == 3


def test_cmd_verify_exit_code_on_failure(tmp_path):
    scenario = {
        "name": "failing",
        "space": {"kind": "grid2d", "params": {"nx": 6}},
        "exponents": {"s": {"constant": 1.0}, "p": {"constant": 1.0},
                      "Q": {"constant": 2.0}},
        "function": {"family": "coordinate", "axis": 0},
        "checks": [{"op": "sobolev_local", "ball": {"center": 14, "radius": 0.3},
                    "C": 1e-9}],
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scenario))
    assert run(["--out", tmp_path / "out", "verify", path]) == 2


def test_cmd_verify_counterexample(tmp_path):
    scenario = {
        "name": "atomfail",
        "space": {"kind": "ball_grid_with_atom", "params": {"n_dim": 1, "m": 9}},
        "checks": [{"op": "counterexample", "n_dim": 1, "beta": 0.5, "p": 2.0,
                    "theta": 0.6, "refinements": [15, 31]}],
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scenario))
    assert run(["--out", tmp_path / "out", "verify", path]) == 0
    payload = json.loads((tmp_path / "out" / "atomfail.json").read_text())
    assert payload[0]["extras"]["divergence_certified"] is True


def test_cmd_necessity(tmp_path):
    scenario = {
        "name": "necc",
        "space": {"kind": "grid2d", "params": {"nx": 6}},
        "exponents": {"s": {"constant": 0.5}, "p": {"constant": 1.5},
                      "gamma": {"constant": 2.4}},
        "function": {"family": "coordinate", "axis": 0},
        "checks": [{"op": "necessity", "mode": "sobolev_global"}],
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scenario))
    assert run(["--out", tmp_path / "out", "necessity", path]) == 0
    payload = json.loads((tmp_path / "out" / "necc.json").read_text())
    assert payload[0]["extras"]["b_empirical"] > 0


def test_parser_built_once_per_process(tmp_path, monkeypatch, capsys):
    from varmms import cli
    made = []  # the prog of every parser and subparser constructed
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: made.append(kw.get("prog")) or init(self, *a, **kw))
    cli._parser.cache_clear()
    scenario = {"name": "twice", "space": {"kind": "grid1d", "params": {"n": 4}},
                "exponents": {"s": {"constant": 0.5}, "p": {"constant": 1.5},
                              "gamma": {"constant": 2.4}},
                "checks": [{"op": "necessity", "mode": "sobolev_global"}]}
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scenario))
    for _ in range(2):
        assert run(["--out", tmp_path / "out", "verify", path]) == 0
    assert made.count("varmms") == 1 and len(made) == 5  # the parser and its 4 subcommands
    # the shared parser still rejects bad arguments with argparse's usage error
    for bad in (["verify"], ["--jobs", "two", "verify", path], ["frobnicate"]):
        with pytest.raises(SystemExit) as exc:
            run(bad)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: varmms")
    assert len(made) == 5


def test_cmd_necessity_without_function(tmp_path):
    scenario = {
        "name": "necc_nofn",
        "space": {"kind": "grid2d", "params": {"nx": 6}},
        "exponents": {"s": {"constant": 0.5}, "p": {"constant": 1.5},
                      "gamma": {"constant": 2.4}},
        "checks": [{"op": "necessity", "mode": "sobolev_global"}],
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scenario))
    assert run(["--out", tmp_path / "out", "verify", path]) == 0
    payload = json.loads((tmp_path / "out" / "necc_nofn.json").read_text())
    assert payload[0]["extras"]["b_empirical"] > 0


def test_cmd_verify_affine_exponent(tmp_path, capsys):
    p_affine = {"formula": {"type": "affine", "axis": 0, "intercept": 1.4, "slope": 0.2}}
    scenario = {
        "name": "affine_p",
        "space": {"kind": "grid2d", "params": {"nx": 6}},
        "exponents": {"s": {"constant": 0.5}, "p": p_affine, "Q": {"constant": 2.0}},
        "function": {"family": "coordinate", "axis": 0},
        "checks": [{"op": "sobolev_local", "ball": {"center": 14, "radius": 0.3}}],
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scenario))
    assert run(["--out", tmp_path / "out", "verify", path]) == 0
    payload = json.loads((tmp_path / "out" / "affine_p.json").read_text())
    assert payload[0]["verdict"] == "pass"
    # the same formula on a space without coordinates is a malformed scenario
    space_file = tmp_path / "matrix.json"
    space_file.write_text(json.dumps({"n": 2, "metric": {"type": "matrix",
                                                          "values": [[0.0, 1.0], [1.0, 0.0]]},
                                      "weights": [1.0, 1.0]}))
    scenario["space"] = {"file": "matrix.json"}
    path.write_text(json.dumps(scenario))
    assert run(["--out", tmp_path / "out2", "verify", path]) == 1
    assert "affine formula needs a space with coordinates" in capsys.readouterr().err


def test_jobs_parallel_matches_sequential(tmp_path):
    def scenario(name, nx):
        return {
            "name": name,
            "space": {"kind": "grid2d", "params": {"nx": nx}},
            "exponents": {"s": {"constant": 1.0}, "p": {"constant": 1.0},
                          "Q": {"constant": 2.0}},
            "function": {"family": "coordinate", "axis": 0},
            "checks": [{"op": "sobolev_local",
                        "ball": {"center": nx + 1, "radius": 0.3}}],
        }

    paths = []
    for i, nx in enumerate((5, 6)):
        p = tmp_path / f"s{i}.json"
        p.write_text(json.dumps(scenario(f"s{i}", nx)))
        paths.append(p)
    seq_dir = tmp_path / "seq"
    par_dir = tmp_path / "par"
    assert run(["--out", seq_dir, "verify", *paths]) == 0
    assert run(["--out", par_dir, "--jobs", 2, "verify", *paths]) == 0
    for i in range(2):
        assert ((seq_dir / f"s{i}.json").read_bytes()
                == (par_dir / f"s{i}.json").read_bytes())


def test_reports_embed_settings(tmp_path):
    scenario = {
        "name": "withsettings",
        "space": {"kind": "grid2d", "params": {"nx": 5}},
        "exponents": {"s": {"constant": 1.0}, "p": {"constant": 1.0},
                      "Q": {"constant": 2.0}},
        "function": {"family": "coordinate", "axis": 0},
        "checks": [{"op": "sobolev_local", "ball": {"center": 6, "radius": 0.3}}],
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scenario))
    with pytest.raises(SystemExit) as rejected:
        run(["--out", tmp_path / "out", "--seed", 7, "verify", path])
    assert rejected.value.code == 2
    assert run(["--out", tmp_path / "out", "--tol", 1e-5, "verify", path]) == 0
    payload = json.loads((tmp_path / "out" / "withsettings.json").read_text())
    assert payload[0]["settings"]["tol"] == 1e-5
    assert "seed" not in payload[0]["settings"]


def test_malformed_scenario_exit_one(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(["verify", path]) == 1
    path2 = tmp_path / "incomplete.json"
    path2.write_text(json.dumps({"name": "x", "space": {"kind": "grid1d", "params": {"n": 4}},
                                 "checks": [{"op": "unknown_op"}]}))
    assert run(["verify", path2]) == 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_malformed_scenarios_do_not_stop_siblings(tmp_path, capsys, jobs):
    good = {
        "name": "good",
        "space": {"kind": "grid2d", "params": {"nx": 5}},
        "exponents": {"s": {"constant": 1.0}, "p": {"constant": 1.0},
                      "Q": {"constant": 2.0}},
        "function": {"family": "coordinate", "axis": 0},
        "checks": [{"op": "sobolev_local", "ball": {"center": 6, "radius": 0.3}}],
    }
    bad = {
        "checks_int": dict(good, name="checks_int", checks=5),
        "bogus_param": dict(good, name="bogus_param",
                            space={"kind": "grid2d", "params": {"nx": 5, "bogus": 3}}),
        "far_center": dict(good, name="far_center",
                           checks=[{"op": "sobolev_local",
                                    "ball": {"center": 1e6, "radius": 0.3}}]),
    }
    paths = []
    for name, scenario in [("checks_int", bad["checks_int"]), ("good", good),
                           ("bogus_param", bad["bogus_param"]),
                           ("far_center", bad["far_center"])]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(scenario))
        paths.append(path)
    out = tmp_path / "out"
    assert run(["--out", out, "--jobs", jobs, "verify", *paths]) == 1
    assert json.loads((out / "good.json").read_text())[0]["verdict"] == "pass"
    assert sorted(p.name for p in out.iterdir()) == ["good.csv", "good.json"]
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 3
    for name, line in zip(("checks_int", "bogus_param", "far_center"), err):
        assert line.startswith("error: malformed scenario") and f"{name}.json" in line


def test_cmd_necessity_unknown_family_is_one_error_line(tmp_path, capsys):
    scenario = {
        "name": "necc_family",
        "space": {"kind": "grid2d", "params": {"nx": 6}},
        "exponents": {"s": {"constant": 0.5}, "p": {"constant": 1.5},
                      "gamma": {"constant": 2.4}},
        "checks": [{"op": "necessity", "mode": "sobolev_global", "family": "Besov"}],
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scenario))
    assert run(["--out", tmp_path / "out", "verify", path]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: malformed scenario")
    assert "family" in err[0]


@pytest.mark.parametrize("second", [{"op": "sobolev_local", "ball": {"center": 6}},
                                    {"op": "necessity"},
                                    {"op": "counterexample", "n_dim": 1, "beta": 0.5},
                                    {"op": "no_such_op"}])
def test_malformed_later_check_fails_before_the_first_runs(tmp_path, capsys, monkeypatch,
                                                          second):
    import varmms.cli as cli
    calls = []
    check_global = cli.check_global
    monkeypatch.setattr(cli, "check_global",
                        lambda *a, **k: calls.append(1) or check_global(*a, **k))
    scenario = {
        "name": "late",
        "space": {"kind": "grid2d", "params": {"nx": 4}},
        "exponents": {"s": {"constant": 0.5}, "p": {"constant": 1.0},
                      "Q": {"constant": 2.0}},
        "function": {"family": "coordinate", "axis": 0},
        "checks": [{"op": "global", "theorem": "bounded", "mode": "M"}, second],
    }
    path = tmp_path / "late.json"
    path.write_text(json.dumps(scenario))
    assert run(["--out", tmp_path / "out", "verify", path]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: malformed scenario")
    assert "check 1" in err[0]
    assert calls == []
    # the first check alone runs its solver once
    path.write_text(json.dumps(dict(scenario, checks=scenario["checks"][:1])))
    assert run(["--out", tmp_path / "out", "verify", path]) in (0, 2)
    assert calls == [1]


def test_verify_never_imports_scipy_optimize(tmp_path):
    # the import of scipy.optimize is about 0.5 s, most of a one-shot verify,
    # and that of scipy.linalg 0.26 s; the package loads only scipy's HiGHS
    # binding (by file), so neither the import nor any benchmark scenario's
    # verify may pull either in lazily
    code = ("import glob, sys\n"
            "import varmms.cli\n"
            "heavy = {'scipy.optimize', 'scipy.linalg'}\n"
            "assert not heavy & set(sys.modules)\n"
            "files = sorted(glob.glob(sys.argv[1] + '/*/*.json'))\n"
            "for f in files:\n"
            "    varmms.cli.main(['--jobs', '1', '--out', sys.argv[2], 'verify', f])\n"
            "    assert not heavy & set(sys.modules), f\n"
            "print(len(files))\n")
    res = run_child("-c", code, str(ROOT / "bench" / "reference" / "seed0"), str(tmp_path),
                    timeout=600)
    assert res.returncode == 0, res.stderr
    assert int(res.stdout.split()[-1]) == 21


def test_scipy_loads_on_the_first_lp_only(tmp_path):
    # scipy (16-26 ms and 4.6 MiB of a bare process) is imported for the
    # HiGHS binding on the first p == 1 LP: the local-gradient scenarios
    # solve none, and a p == 1 solve after them still runs its LP
    code = ("import glob, sys\n"
            "import numpy as np\n"
            "import varmms.cli\n"
            "from varmms import minimal_scalar_gradient\n"
            "from varmms.generators import line_space\n"
            "assert 'scipy' not in sys.modules\n"
            "files = sorted(glob.glob(sys.argv[1] + '/local_gradients/*.json'))\n"
            "for f in files:\n"
            "    varmms.cli.main(['--jobs', '1', '--out', sys.argv[2], 'verify', f])\n"
            "    assert 'scipy' not in sys.modules, f\n"
            "sol = minimal_scalar_gradient(line_space(4), np.arange(4.0), 0.5, 1.0)\n"
            "assert 'scipy.optimize._highspy._core' in sys.modules\n"
            "print(len(files), sol.info['path'], sol.info['certified'])\n")
    res = run_child("-c", code, str(ROOT / "bench" / "reference" / "seed0"), str(tmp_path),
                    timeout=600)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split()[-3:] == ["6", "lp", "True"]


def test_highs_qp_crash_scenario_exits_zero(tmp_path):
    # HiGHS 1.12's QP solver died with SIGSEGV in the 6th Newton-step QP of
    # this constant-p solve's first round; the steps are _dual_qp's now
    scenario = {"name": "seg", "space": {"kind": "grid2d", "params": {"nx": 8}},
                "exponents": {"s": {"constant": 0.6924780160265377},
                              "p": {"constant": 2.4443732334942525},
                              "Q": {"constant": 2.0}},
                "function": {"family": "log_bump", "center": 55, "scale": 0.3},
                "checks": [{"op": "global", "theorem": "bounded", "mode": "M"}]}
    path = tmp_path / "seg.json"
    path.write_text(json.dumps(scenario))
    res = run_child("-m", "varmms.cli", "--out", str(tmp_path / "out"), "verify", str(path),
                    timeout=600)
    assert res.returncode == 0, res.returncode
