"""The batch driver: configs, reports, exit codes, JSON interfaces."""

import json
from pathlib import Path

import pytest

from hkrlab.coeff import CoeffAlgebra
from hkrlab.extension_dg import build_extension
from hkrlab.cech_twist import Nerve, circle_nerve
from hkrlab import cli_report, hkr_local
from hkrlab.cli_report import ConfigError, SuiteConfig, main, run_suite


def test_unknown_suite_rejected():
    with pytest.raises(ConfigError):
        run_suite(SuiteConfig(suite="nope"))


def test_caps_enforced():
    with pytest.raises(ConfigError):
        SuiteConfig(max_rank=9)
    # every suite stops at rank 3, so rank 4 would run the rank-3 cases
    with pytest.raises(ConfigError, match="max rank capped at 3"):
        SuiteConfig(max_rank=4)


def test_malformed_config_reports_location(tmp_path):
    bad = tmp_path / "cfg.json"
    bad.write_text("{broken")
    with pytest.raises(ConfigError) as err:
        SuiteConfig.from_json(bad)
    assert "line" in str(err.value)


def test_unknown_config_keys_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": "signs", "bogus": 1}))
    with pytest.raises(ConfigError):
        SuiteConfig.from_json(cfg)


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--seed", "5"], "--seed"),
        (["--suite", "koszul_duality", "--seed", "7"], "--suite, --seed"),
        (["--format", "md", "--max-rank", "2", "--nerve", "torus", "--out", "r.md"], "--max-rank, --nerve, --out, --format"),
    ],
    ids=["seed", "suite-and-seed", "four-flags"],
)
def test_cli_config_with_any_other_flag_is_usage_error(tmp_path, capsys, monkeypatch, flags, named):
    # the config file alone would run: the flags beside it must not be dropped silently
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "r.json"
    cfg.write_text(json.dumps({"suite": "signs", "seed": 3, "out": str(out)}))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli_report, "run_suite", _refuse_to_run)
    with pytest.raises(SystemExit) as err:
        main(["--config", str(cfg)] + flags)
    assert err.value.code == 2
    (line,) = [text for text in capsys.readouterr().err.splitlines() if "error" in text]
    assert line.endswith(f"--config takes no other flag, got {named}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_cli_without_flags_runs_the_default_config(monkeypatch, capsys):
    ran = []

    def record(config):
        ran.append(config)
        return run_suite(config)

    monkeypatch.setattr(cli_report, "run_suite", record)
    assert main([]) == 0
    default = SuiteConfig()
    assert ran == [default]
    echoed = json.loads(capsys.readouterr().out)["config"]
    assert echoed == {k: getattr(default, k) for k in ("suite", "max_rank", "nerve", "seed")}


def test_cli_runs_signs_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["--suite", "signs", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["failures"] == 0
    assert data["checks"][0]["id"] == "sign-census"


def test_cli_markdown_format(tmp_path):
    out = tmp_path / "r.md"
    code = main(["--suite", "contraction_action", "--out", str(out), "--format", "md"])
    assert code == 0
    text = out.read_text()
    assert text.startswith("# verification report")
    assert "| contraction-action | pass |" in text


def test_cli_empty_config_is_usage_error(tmp_path, capsys):
    empty = tmp_path / "cfg.json"
    empty.write_text("")
    with pytest.raises(SystemExit) as err:
        main(["--config", str(empty)])
    assert err.value.code == 2  # argparse usage error


@pytest.mark.parametrize(
    "data, message",
    [
        ({"max_rank": "3"}, "'max_rank' must be int"),
        ({"seed": True}, "'seed' must be int"),
        ({"nerve": 5}, "'nerve' must be str"),
        ([1], "must be a JSON object"),
        ({"suite": "signs", "fmt": "xml"}, "format must be 'json' or 'md'"),
        ({"suite": "signs", "degree_bound": 3}, "unknown config keys: ['degree_bound']"),
    ],
    ids=["str-for-int", "bool-for-int", "int-for-str", "not-an-object", "unknown-format", "deleted-degree-bound"],
)
def test_cli_config_of_wrong_type_is_usage_error(tmp_path, capsys, data, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as err:
        main(["--config", str(cfg)])
    assert err.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "data",
    [
        {"vertices": [0, 1, 2], "simplices": [[0, 1], [1, 5]]},
        {"vertices": [0, 1, 2]},
        {"vertices": [0, 1, 2], "simplices": [[0, 1], 2]},
    ],
    ids=["unknown-vertex", "missing-key", "non-list-simplex"],
)
def test_cli_malformed_nerve_is_usage_error(tmp_path, capsys, data):
    nerve_file = tmp_path / "bad.json"
    nerve_file.write_text(json.dumps(data))
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as err:
        main(["--suite", "comparison_wedge", "--nerve", str(nerve_file), "--out", str(out)])
    assert err.value.code == 2
    assert "malformed nerve file" in capsys.readouterr().err
    assert not out.exists()


def test_cli_oversized_simplex_is_rejected_before_its_faces_are_built(tmp_path, capsys, monkeypatch):
    # the face closure of a 30-vertex simplex has 2^30 - 1 faces: it must never be formed
    def refuse_build(*args):
        raise AssertionError("face closure formed for a simplex beyond the depth cap")

    monkeypatch.setattr(Nerve, "build", classmethod(refuse_build))
    nerve_file = tmp_path / "big.json"
    nerve_file.write_text(json.dumps({"vertices": list(range(30)), "simplices": [list(range(30))]}))
    with pytest.raises(SystemExit) as err:
        main(["--suite", "signs", "--nerve", str(nerve_file)])
    assert err.value.code == 2
    assert "depth cap 5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--max-rank", "0"], "max rank must be at least 2"),
        (["--max-rank", "1"], "max rank must be at least 2"),
        (["--degree-bound", "3"], "unrecognized arguments: --degree-bound 3"),
    ],
    ids=["max-rank-0", "max-rank-1", "deleted-degree-bound"],
)
def test_cli_rank_or_degree_below_every_suite_is_usage_error(tmp_path, capsys, flags, message):
    # too small a rank would leave some checks with nothing to run, yet passing;
    # the degree bound drove no check, so it is no flag at all
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as err:
        main(["--suite", "all", "--out", str(out)] + flags)
    assert err.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "suite,key,ran",
    [
        ("signs", "ranks", [2]),
        ("comparison_wedge", "ranks", [2]),
        ("comparison_last_level", "ranks", [2]),
        ("hkr", "models", [[1, 1, 3], [1, 2, 3], [2, 2, 3]]),
        ("cycle_class", "models", [[1, 1, 3], [1, 2, 3], [2, 2, 3]]),
    ],
)
def test_cli_detail_names_what_ran_at_max_rank_two(tmp_path, suite, key, ran):
    out = tmp_path / "r.json"
    assert main(["--suite", suite, "--max-rank", "2", "--out", str(out)]) == 0
    check = json.loads(out.read_text())["checks"][0]
    assert check["status"] == "pass"
    assert check["detail"][key] == ran


def test_cli_unreadable_config_or_nerve_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["--config", str(tmp_path / "absent.json")])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["--suite", "signs", "--nerve", str(tmp_path)])  # a directory
    assert err.value.code == 2


def test_cli_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "r.json"
    cfg.write_text(json.dumps({"suite": "signs", "seed": 3, "out": str(out)}))
    assert main(["--config", str(cfg)]) == 0
    assert json.loads(out.read_text())["config"]["seed"] == 3


def _refuse_to_run(config):
    raise AssertionError("a check ran before the report path was rejected")


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("kind", ["missing-parent", "directory"])
def test_cli_unusable_report_path_is_usage_error_before_any_check(tmp_path, capsys, monkeypatch, via, kind):
    out = tmp_path / "absent" / "r.json" if kind == "missing-parent" else tmp_path
    argv = ["--suite", "signs", "--out", str(out)]
    if via == "config":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suite": "signs", "out": str(out)}))
        argv = ["--config", str(cfg)]
    before = sorted(tmp_path.rglob("*"))
    monkeypatch.setattr(cli_report, "run_suite", _refuse_to_run)
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert str(out) in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def test_cli_failed_report_write_is_usage_error(tmp_path, capsys, monkeypatch):
    def refuse_write(self, text):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "write_text", refuse_write)
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as err:
        main(["--suite", "signs", "--out", str(out)])
    assert err.value.code == 2
    assert f"cannot write report {str(out)!r}: Permission denied" in capsys.readouterr().err


def test_custom_nerve_file(tmp_path):
    nerve_file = tmp_path / "nerve.json"
    nerve_file.write_text(json.dumps(circle_nerve().to_json()))
    cfg = SuiteConfig(suite="comparison_last_level", nerve=str(nerve_file), max_rank=2)
    report = run_suite(cfg)
    assert not report.failed


def test_probe_report_is_informational():
    report = run_suite(SuiteConfig(suite="conjecture"))
    assert report.records[0]["status"] == "exploratory"
    assert not report.failed


# reports written by an earlier commit: the bytes must not drift across commits
GOLDEN = Path(__file__).parent / "golden"


GOLDEN_RUNS = {
    "cycle_class_circle_seed0": {"suite": "cycle_class", "nerve": "circle", "seed": 0},
    "comparison_last_level_sphere2_seed1": {"suite": "comparison_last_level", "nerve": "sphere2", "seed": 1},
    "comparison_wedge_sphere2_seed0": {"suite": "comparison_wedge", "nerve": "sphere2", "seed": 0},
    "comparison_wedge_torus_rank2_seed0": {"suite": "comparison_wedge", "nerve": "torus", "max_rank": 2, "seed": 0},
    "conjecture_seed0": {"suite": "conjecture", "seed": 0},
    "all_circle_rank2_seed0": {"suite": "all", "max_rank": 2, "nerve": "circle", "seed": 0},
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_report_matches_golden_file(name):
    report = run_suite(SuiteConfig(**GOLDEN_RUNS[name]))
    assert report.to_json().encode() == (GOLDEN / f"{name}.json").read_bytes()


def test_reports_byte_identical_for_same_seed():
    a = run_suite(SuiteConfig(suite="signs", seed=11)).to_json()
    b = run_suite(SuiteConfig(suite="signs", seed=11)).to_json()
    assert a.encode() == b.encode()


def test_complex_json_serialization():
    ext = build_extension(CoeffAlgebra.rationals(), 2)
    from hkrlab.ak_complexes import build_p_complex

    data = build_p_complex(ext).to_json()
    text = json.dumps(data, sort_keys=True)
    assert json.loads(text) == data
    assert data["0"]["rank"] == 3
    # maps serialize degree by degree to dense matrices of strings
    d = build_p_complex(ext).diff(-1).to_json()
    assert all(isinstance(e, str) for row in d for e in row)


def test_cli_byte_identical_across_processes(tmp_path):
    import subprocess
    import sys

    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "hkrlab.cli_report", "--suite", "signs", "--seed", "9",
             "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def _raising_check(config):
    return {}["missing"]


def test_failing_check_gives_nonzero_exit(tmp_path):
    from hkrlab import cli_report, hkr_local

    cli_report.SUITES["__selftest__"] = [
        ("always-fails", "synthetic failure for exit-code coverage", lambda cfg: ("fail", {"w": 1})),
        ("always-raises", "synthetic crash for witness coverage", _raising_check),
    ]
    try:
        out = tmp_path / "r.json"
        code = main(["--suite", "__selftest__", "--out", str(out)])
        assert code == 1
        data = json.loads(out.read_text())
        assert data["failures"] == 2
        assert data["checks"][0]["detail"] == {"w": 1}  # witness carried
        crash = data["checks"][1]["detail"]
        assert crash["exception"] == "KeyError('missing')"
        # the end of the traceback names the raising function, without absolute paths
        assert crash["traceback"][-1].startswith("test_cli.py:")
        assert crash["traceback"][-1].endswith(" in _raising_check")
        assert not any("/" in frame for frame in crash["traceback"])
    finally:
        del cli_report.SUITES["__selftest__"]


def test_all_suite_registers_each_check_once():
    from hkrlab.cli_report import SUITES

    ids = [c[0] for c in SUITES["all"]]
    assert len(ids) == len(set(ids))
    for name, checks in SUITES.items():
        if name in ("all",):
            continue
        for c in checks:
            assert c[0] in ids


def test_json_driven_model_cycle_class():
    from hkrlab.hkr_local import LocalModel, cycle_class_local, dual_hkr_sign

    model = LocalModel(1, 2, 3, chi=[["x1", "1"]])
    qs = cycle_class_local(model, dual_hkr_sign)
    assert qs[0] == 1 and all(q == 0 for q in qs[1:])


def test_json_driven_last_level_comparison():
    from fractions import Fraction
    from hkrlab.cech_twist import (
        TwistFamily,
        TwistCocycle,
        build_cochain,
        cohomologous,
        delta_matrix,
        hom_lam_module,
    )

    ext = build_extension(CoeffAlgebra.rationals(), 1)
    nerve = circle_nerve()
    hom = hom_lam_module(ext, 0, 1)
    edges = {(0, 1): 1, (1, 2): 1, (0, 2): 2}
    values = {s: hom.basis_vec(hom.labels[0], c) for s, c in edges.items()}
    lam_tw = TwistCocycle(ext, nerve, 0, build_cochain(nerve, 1, hom, values))
    mu_tw = TwistCocycle.zero(ext, nerve, 0)
    lam = TwistFamily(ext, nerve, [lam_tw])
    mu = TwistFamily(ext, nerve, [mu_tw])
    delta = delta_matrix(ext, nerve, lam, mu, "last-level")
    want = lam_tw.cochain.scale(Fraction(1, 1))
    assert cohomologous(nerve, delta.entry(1, 0), want)


def test_a_run_chases_each_dual_sign_rank_once(monkeypatch):
    # dual-signs chases ranks 1..3 and cycle-class reads ranks 1, 2, 2, 3;
    # each chase builds its double complex once
    built = []
    double_complex_n = hkr_local.double_complex_n

    def counted(r):
        built.append(r)
        return double_complex_n(r)

    monkeypatch.setattr(hkr_local, "double_complex_n", counted)
    report = run_suite(SuiteConfig(suite="all"))
    statuses = {rec["id"]: rec["status"] for rec in report.records}
    assert statuses["dual-signs"] == statuses["cycle-class"] == "pass"
    assert sorted(built) == [1, 2, 3]
