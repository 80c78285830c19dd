import filecmp
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from priorlab.cli import SCHEMAS, _check_config, _experiment_config, dispatch, main, parse_config
from priorlab.outcomes import DEFAULT_BUDGET
from priorlab.ratelab import ExperimentConfig, build_setup

# child processes import priorlab from src/, installed or not
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")])
    ),
}


def write_config(tmp_path: Path, name: str, text: str) -> Path:
    p = tmp_path / name
    p.write_text(text)
    return p


def test_parse_config_minimal_rates(tmp_path):
    p = write_config(
        tmp_path,
        "rates.cfg",
        "m = 3\nd = 2\nL = 1.0\nalpha = 1.0\nT_grid = 10,100\n# a comment\n",
    )
    cfg = parse_config(p, "rates")
    assert cfg["m"] == 3
    assert cfg["T_grid"] == (10, 100)
    assert cfg["family"] == "parity"  # documented default
    assert cfg["replicates"] == 100


def test_parse_config_unknown_key(tmp_path):
    p = write_config(tmp_path, "bad.cfg", "m = 3\nfoo = 1\n")
    with pytest.raises(ValueError, match="foo"):
        parse_config(p, "rates")


def test_parse_config_missing_required(tmp_path):
    p = write_config(tmp_path, "bad.cfg", "m = 3\n")
    with pytest.raises(ValueError, match="required"):
        parse_config(p, "rates")


def test_parse_config_type_error(tmp_path):
    p = write_config(tmp_path, "bad.cfg", "m = x\nd = 1\nL = 1\nalpha = 1\nT_grid = 10\n")
    with pytest.raises(ValueError, match="'m'"):
        parse_config(p, "rates")


def test_dispatch_rejects_nonincreasing_grid(tmp_path):
    p = write_config(
        tmp_path, "bad.cfg", "m = 3\nd = 1\nL = 1\nalpha = 1\nT_grid = 100,10\nfamily = twopoint\n"
    )
    assert dispatch("rates", p, 0, tmp_path / "out") == 1


def test_dispatch_invalid_subcommand(tmp_path):
    assert dispatch("nope", None, 0, tmp_path / "out") == 1


def test_main_invalid_subcommand_usage_text(capsys):
    rc = main(["frobnicate", "--out", "/tmp/x"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage" in err and "frobnicate" in err


def test_coinbound_default_grid(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "coin.cfg", "gammas = 0.1,0.3\nn_max = 30\n")
    rc = dispatch("coinbound", cfg, 0, out)
    assert rc == 0
    lines = (out / "coinbound.csv").read_text().splitlines()
    assert lines[0] == "gamma,n,bayes_error,floor,pass"
    assert len(lines) == 1 + 2 * 31
    assert all(line.endswith("true") for line in lines[1:])
    assert "all_pass=True" in (out / "summary.txt").read_text()
    manifest = dict(
        line.split("=", 1) for line in (out / "manifest.txt").read_text().splitlines()
    )
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    assert int(manifest["nproc"]) >= 1
    assert (out / "plot_coinbound.py").exists()
    compile((out / "plot_coinbound.py").read_text(), "plot.py", "exec")


def test_lemmas_small_instance_all_pass(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "lem.cfg", "m = 2\nd = 1\nk_max = 3\npairs = 5\n")
    rc = dispatch("lemmas", cfg, 0, out)
    assert rc == 0
    text = (out / "lemmas.csv").read_text()
    assert text.splitlines()[0] == "check,instance,k,lhs,rhs,pass"
    assert "false" not in text
    assert "all_pass=True" in (out / "summary.txt").read_text()


def test_smoothness_small(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path, "s.cfg",
        "m_max = 4\nd_max = 2\nL_list = 0.5,1.0\nalpha_list = 1.0\nsigns_per_instance = 2\n",
    )
    rc = dispatch("smoothness", cfg, 0, out, exact_rational=True)
    assert rc == 0
    assert "all_pass=True" in (out / "summary.txt").read_text()


def test_cover_info(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "c.cfg", "m = 2\nd = 1\nepsilons = 0.5,0.4\n")
    rc = dispatch("cover-info", cfg, 0, out)
    assert rc == 0
    lines = (out / "cover_info.csv").read_text().splitlines()
    assert len(lines) == 3
    assert "parity_family_size=4" in (out / "summary.txt").read_text()


def test_cover_info_budget_exit_code(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "c.cfg", "m = 3\nd = 2\nepsilons = 0.05\nbudget = 10\n")
    assert dispatch("cover-info", cfg, 0, out) == 2


def test_rates_budget_exit_code(tmp_path):
    # m=5, d=2: 1,024 members, whose Yatracos sets would need about 8 GiB
    cfg = write_config(
        tmp_path, "r.cfg", "m = 5\nd = 2\nL = 1.0\nalpha = 1.0\nT_grid = 10\nreplicates = 2\n"
    )
    assert dispatch("rates", cfg, 0, tmp_path / "out") == 2


PARITY_M5 = "m = 5\nd = 2\nL = 1.0\nalpha = 1.0\nT_grid = 10\nreplicates = 2\n"


@pytest.mark.parametrize(
    "subcommand, config, reason",
    [
        # 2^13 members: wrote manifest.txt and cover_info.csv, then exited
        ("cover-info", "m = 13\nd = 1\n", "2^13 sign vectors"),
        # 1,024 members on 90 outcomes: wrote manifest.txt, then exited
        ("rates", PARITY_M5, "1047552 Yatracos pairs x (90 support points + 1024 members)"),
        ("lowerbound", PARITY_M5, "1047552 Yatracos pairs"),
        ("rates", PARITY_M5.replace("m = 5", "m = 6"), "2^15 sign vectors"),
    ],
    ids=["cover-info-m13", "rates-m5", "lowerbound-m5", "rates-m6"],
)
def test_budgets_checked_before_output(tmp_path, capsys, subcommand, config, reason):
    out = tmp_path / "out"
    assert dispatch(subcommand, write_config(tmp_path, "c.cfg", config), 0, out) == 2
    err = capsys.readouterr().err
    assert reason in err and "Traceback" not in err
    assert not out.exists()


def test_rates_budget_matches_the_built_tables():
    # the closed-form outcome support is the estimator's, family by family
    for family, d, k in (("parity", 2, 2), ("parity", 2, 3), ("parity", 3, 3), ("parity", 1, 2),
                         ("twopoint", 1, 1), ("twopoint", 2, 3)):
        exp = ExperimentConfig(m=4, d=d, k=k, family=family, T_grid=(5,), replicates=2)
        setup = build_setup(exp)
        assert exp.outcome_support_size() == len(setup.estimator.support), (family, d, k)
        assert len(setup.space) <= len(setup.estimator.support)


def test_rates_small_run_and_determinism_across_workers(tmp_path):
    cfg = write_config(
        tmp_path, "r.cfg",
        "m = 3\nd = 1\nL = 1.0\nalpha = 1.0\nT_grid = 10,50\nfamily = twopoint\nreplicates = 6\n",
    )
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert dispatch("rates", cfg, 7, out1, workers=1) == 0
    assert dispatch("rates", cfg, 7, out2, workers=2) == 0
    for name in ("rates.csv", "baseline.csv", "skeleton_report.csv", "summary.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    lines = (out1 / "skeleton_report.csv").read_text().splitlines()
    assert lines[0] == "replicate,T,selected,tv_to_truth,max_yatracos_dev"


def test_dispatch_without_config_uses_defaults(tmp_path):
    out = tmp_path / "out"
    assert dispatch("lemmas", None, 0, out) == 0
    assert (out / "lemmas.csv").exists()
    # rates has required keys, so no config is a validation error
    assert dispatch("rates", None, 0, tmp_path / "out2") == 1


def test_rates_rerun_byte_identical(tmp_path):
    cfg = write_config(
        tmp_path, "r.cfg",
        "m = 3\nd = 2\nL = 1.0\nalpha = 1.0\nT_grid = 20,80\nreplicates = 4\ntruth_count = 2\n",
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert dispatch("rates", cfg, 3, out1) == 0
    assert dispatch("rates", cfg, 3, out2) == 0
    assert (out1 / "rates.csv").read_bytes() == (out2 / "rates.csv").read_bytes()


def test_lowerbound_small(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path, "lb.cfg",
        "m = 3\nd = 2\nL = 1.0\nalpha = 1.0\nT_grid = 30\nreplicates = 20\n",
    )
    rc = dispatch("lowerbound", cfg, 1, out)
    assert rc == 0
    summary = (out / "summary.txt").read_text()
    assert "above_floor=True" in summary
    lines = (out / "lowerbound.csv").read_text().splitlines()
    assert lines[0] == "experiment,m,d,L,alpha,k,T,replicate,truth_id,selected_id,tv_error"


def test_rates_twopoint_m2_exits_1_without_traceback(tmp_path, capsys):
    # the two point masses leave no point for the rest of D at m = 2
    cfg = write_config(
        tmp_path, "r.cfg",
        "m = 2\nd = 1\nL = 1.0\nalpha = 1.0\nT_grid = 10,20\nfamily = twopoint\nreplicates = 3\n",
    )
    assert dispatch("rates", cfg, 0, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert "m >= 3" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "subcommand, line, key",
    [
        ("rates", "baseline_T = 0", "'baseline_T'"),  # was replaced by the last T
        ("rates", "baseline_T = -5", "'baseline_T'"),
        ("rates", "replicates = 1", "'replicates'"),  # every *_se would be NaN
        ("lowerbound", "replicates = 1", "'replicates'"),
    ],
)
def test_rates_rejects_bad_config_before_output(tmp_path, capsys, subcommand, line, key):
    out = tmp_path / "out"
    text = "m = 3\nd = 2\nL = 1.0\nalpha = 1.0\nT_grid = 10,20\n"
    assert dispatch(subcommand, write_config(tmp_path, "r.cfg", text + line + "\n"), 0, out) == 1
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "subcommand, text",
    [
        ("rates", "m = 2\nd = 1\nL = 1.0\nalpha = 1.0\nT_grid = 10\nfamily = twopoint\n"),
        ("rates", "m = 3\nd = 2\nL = 1.0\nalpha = 1.0\nT_grid = 20,10\n"),
        ("lowerbound", "m = 3\nd = 2\nL = 1.0\nalpha = 1.0\nT_grid = 20,10\n"),
    ],
    ids=["rates-twopoint-m2", "rates-decreasing-T_grid", "lowerbound-decreasing-T_grid"],
)
def test_rejected_experiment_config_writes_no_output(tmp_path, capsys, subcommand, text):
    # ExperimentConfig's own checks must run before the manifest is written
    out = tmp_path / "out"
    assert dispatch(subcommand, write_config(tmp_path, "r.cfg", text), 0, out) == 1
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


ELICIT_TINY = (
    "epsilon = 0.2\nT = 40\nreplicates = 2\ncalibration_T_grid = 10,20\n"
    "calibration_replicates = 8\nq_trials = 40\n"
)


def test_elicit_tiny_run(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "e.cfg", ELICIT_TINY)
    rc = dispatch("elicit", cfg, 2, out)
    assert rc == 0
    led = (out / "ledger_000.csv").read_text().splitlines()
    assert led[0] == "t,branch,queries,regret,theta_check,R_used"
    assert len(led) == 41
    assert (out / "menu.tsv").exists()
    assert "mean_regret" in (out / "summary.txt").read_text()


def test_elicit_byte_identical_across_workers(tmp_path):
    cfg = write_config(tmp_path, "e.cfg", ELICIT_TINY)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert dispatch("elicit", cfg, 2, out1, workers=1) == 0
    assert dispatch("elicit", cfg, 2, out2, workers=2) == 0
    for name in ("ledger_000.csv", "ledger_001.csv", "summary.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_elicit_does_not_import_numpy_ma(tmp_path):
    # numpy.ma adds about 1 MB to elicit's peak RSS, and a plain np.unique
    # (without return_index or return_inverse) imports it; a fresh process,
    # so that no other test has imported it first
    cfg = write_config(tmp_path, "e.cfg", ELICIT_TINY)
    code = (
        "import sys\n"
        "from priorlab.cli import dispatch\n"
        f"assert dispatch('elicit', {str(cfg)!r}, 2, {str(tmp_path / 'out')!r}) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


@pytest.mark.parametrize(
    "line, key",
    [
        ("T = 0", "'T'"),
        ("T = -3", "'T'"),
        ("replicates = 0", "'replicates'"),
        ("calibration_T_grid = ,", "'calibration_T_grid'"),
        ("calibration_T_grid = 20,10", "'calibration_T_grid'"),
        ("q_trials = 0", "'q_trials'"),
        ("epsilon = 0", "'epsilon'"),
        ("n_items = 3", "'n_items'"),
    ],
)
def test_elicit_rejects_bad_config_before_any_work(tmp_path, capsys, line, key):
    out = tmp_path / "out"
    name = line.split(" =")[0]
    kept = [x for x in ELICIT_TINY.splitlines() if x.split(" =")[0] != name]
    cfg = write_config(tmp_path, "e.cfg", "\n".join(kept + [line]) + "\n")
    assert dispatch("elicit", cfg, 2, out) == 1
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not out.exists()


def test_elicit_single_item_group_exits_instead_of_hanging(tmp_path):
    # one item group: every twin pair pins its only weight, so the family
    # can never reach 8 distinct functions
    cfg = write_config(tmp_path, "e.cfg", ELICIT_TINY + "n_items = 2\n")
    proc = subprocess.run(
        [sys.executable, "-m", "priorlab.cli", "elicit", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60, env=CHILD_ENV,
    )
    assert proc.returncode == 1
    assert "'n_items'" in proc.stderr and "distinct" in proc.stderr


def test_exact_rational_rejected_where_ignored(tmp_path, capsys):
    out = tmp_path / "out"
    assert dispatch("lemmas", None, 0, out, exact_rational=True) == 1
    assert "--exact-rational" in capsys.readouterr().err
    assert not out.exists()
    assert main(["coinbound", "--exact-rational", "true", "--out", str(out)]) == 1


def test_console_entrypoint_runs():
    rc = subprocess.run(
        [sys.executable, "-m", "priorlab.cli", "--help"], capture_output=True, text=True,
        env=CHILD_ENV,
    )
    assert rc.returncode == 0
    assert "priorlab" in rc.stdout


LEMMAS_OK = "m = 3\nd = 2\nk_max = 3\npairs = 2\n"
RATES_OK = "m = 3\nd = 2\nL = 1.0\nalpha = 1.0\nT_grid = 10,20\n"
COVER_OK = "m = 2\nd = 1\nL = 1.0\nalpha = 1.0\nepsilons = 0.5\n"
SMOOTH_OK = "m_max = 3\nd_max = 1\nL_list = 1.0\nalpha_list = 1.0\nsigns_per_instance = 1\n"


@pytest.mark.parametrize(
    "subcommand, text, key",
    [
        # each of these ran nothing, then reported rows=0 violations=0 all_pass=True
        ("coinbound", "n_max = -1\n", "'n_max'"),
        ("coinbound", "gammas =\n", "'gammas'"),
        ("smoothness", "m_max = 1\n", "'m_max'"),
        ("smoothness", "d_max = 0\n", "'d_max'"),
        ("smoothness", "signs_per_instance = 0\n", "'signs_per_instance'"),
        ("smoothness", "L_list =\n", "'L_list'"),
        ("cover-info", COVER_OK.replace("epsilons = 0.5", "epsilons ="), "'epsilons'"),
        ("smoothness", SMOOTH_OK.replace("L_list = 1.0", "L_list = -1"), "'L_list'"),
        ("smoothness", SMOOTH_OK.replace("L_list = 1.0", "L_list = 4,8"), "'L_list'"),
        # each of these wrote manifest.txt, then failed deep inside the run
        ("lemmas", "m = 3\nd = 2\nk_max = 1\n", "'k_max'"),
        ("lemmas", "m = 2\nd = 3\nk_max = 3\n", "'d'"),
        ("lemmas", "m = 3\nd = 0\n", "'d'"),
        ("cover-info", "m = 2\nd = 3\n", "'d'"),
        ("rates", RATES_OK.replace("d = 2", "d = 4"), "'d'"),
        ("elicit", ELICIT_TINY + "family_seed = -1\n", "'family_seed'"),
        ("rates", RATES_OK.replace("alpha = 1.0", "alpha = 2"), "'alpha'"),
        ("rates", RATES_OK.replace("L = 1.0", "L = 0"), "'L'"),
        ("rates", RATES_OK.replace("L = 1.0", "L = 8"), "'L'"),  # gamma_m = 4/3 at m = 3
        ("rates", RATES_OK.replace("T_grid = 10,20", "T_grid = 0,10"), "'T_grid'"),
        ("rates", RATES_OK + "truth_count = -1\n", "'truth_count'"),
        ("rates", RATES_OK + "family = twopoint\ntwopoint_weight = 0.6\n", "'twopoint_weight'"),
        ("lowerbound", RATES_OK.replace("alpha = 1.0", "alpha = 2"), "'alpha'"),
        ("lowerbound", RATES_OK.replace("T_grid = 10,20", "T_grid = 0,10"), "'T_grid'"),
        ("coinbound", "gammas = 0.7\n", "'gammas'"),
        ("coinbound", "gammas = 0.25,0\n", "'gammas'"),
        ("cover-info", COVER_OK.replace("alpha = 1.0", "alpha = 0"), "'alpha'"),  # was a traceback
        ("cover-info", COVER_OK.replace("alpha = 1.0", "alpha = -1"), "'alpha'"),
        ("cover-info", COVER_OK.replace("L = 1.0", "L = -1"), "'L'"),
        ("cover-info", COVER_OK.replace("epsilons = 0.5", "epsilons = -0.5"), "'epsilons'"),
        ("cover-info", COVER_OK + "budget = -1\n", "'budget'"),
        ("smoothness", SMOOTH_OK.replace("alpha_list = 1.0", "alpha_list = 0"), "'alpha_list'"),
        # this one silently ran zero pairs
        ("lemmas", LEMMAS_OK.replace("pairs = 2", "pairs = -2"), "'pairs'"),
        # these ran the parity family and ignored the two-point weight
        ("rates", RATES_OK + "twopoint_weight = 0.3\n", "'twopoint_weight'"),
        ("rates", RATES_OK + "family = parity\ntwopoint_weight = 0.05\n", "'twopoint_weight'"),
        # this one ran truths 0 and 1 whatever the count
        ("rates", RATES_OK + "family = twopoint\ntruth_count = 5\n", "'truth_count'"),
    ],
)
def test_config_without_work_rejected_before_output(tmp_path, capsys, subcommand, text, key):
    out = tmp_path / "out"
    assert dispatch(subcommand, write_config(tmp_path, "c.cfg", text), 0, out) == 1
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not out.exists()


def test_twopoint_weight_defaults_on_the_twopoint_family_only(tmp_path):
    twopoint = parse_config(write_config(tmp_path, "t.cfg", RATES_OK + "family = twopoint\n"), "rates")
    assert _experiment_config(twopoint, 0).twopoint_weight == 0.05
    parity = parse_config(write_config(tmp_path, "p.cfg", RATES_OK), "rates")
    assert parity["twopoint_weight"] is None
    assert _experiment_config(parity, 0).twopoint_weight is None


# one rejected value for every key that has a rule in SCHEMAS; a config of
# each subcommand sets it on top of RATES_OK or the defaults
RULE_CASES = {
    ("rates", "m"): "64",  # point 64 would need the int64 masks' sign bit
    ("rates", "replicates"): "1",
    ("rates", "baseline_T"): "0",
    ("lowerbound", "m"): "64",
    ("lowerbound", "replicates"): "1",
    ("coinbound", "gammas"): "0.25,0",
    ("coinbound", "n_max"): "-1",
    ("lemmas", "m"): "64",
    ("lemmas", "pairs"): "-1",
    ("smoothness", "m_max"): "64",
    ("smoothness", "d_max"): "0",
    ("smoothness", "L_list"): "1.0,-1",
    ("smoothness", "alpha_list"): "1.5",
    ("smoothness", "signs_per_instance"): "0",
    ("elicit", "epsilon"): "2",
    ("elicit", "T"): "0",
    ("elicit", "replicates"): "0",
    ("elicit", "n_items"): "18",
    ("elicit", "calibration_T_grid"): "10,10",
    ("elicit", "calibration_replicates"): "0",
    ("elicit", "q_trials"): "0",
    ("elicit", "family_seed"): "-1",
    ("cover-info", "m"): "64",
    ("cover-info", "epsilons"): "0.5,0",
    ("cover-info", "budget"): "0",
}


def test_every_schema_rule_has_a_rejection_case():
    ruled = {
        (sub, key) for sub, schema in SCHEMAS.items()
        for key, (_, _, rule) in schema.items() if rule is not None
    }
    assert ruled == set(RULE_CASES)


@pytest.mark.parametrize("subcommand, key", sorted(RULE_CASES))
def test_schema_rule_rejects_before_output(tmp_path, capsys, subcommand, key):
    base = RATES_OK if subcommand in ("rates", "lowerbound") else ""
    kept = [line for line in base.splitlines() if line.split(" =")[0] != key]
    text = "\n".join(kept + [f"{key} = {RULE_CASES[subcommand, key]}"]) + "\n"
    out = tmp_path / "out"
    assert dispatch(subcommand, write_config(tmp_path, "c.cfg", text), 0, out) == 1
    err = capsys.readouterr().err
    assert f"config key {key!r}" in err and "Traceback" not in err
    assert not out.exists()


def test_elicit_calibration_must_resolve_its_quantile_before_output(tmp_path, capsys):
    # 1 replicate x 8 members cannot give a 0.005 quantile; this wrote
    # manifest.txt and menu.tsv first
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "e.cfg", "epsilon = 0.01\ncalibration_replicates = 1\n")
    assert dispatch("elicit", cfg, 0, out) == 1
    err = capsys.readouterr().err
    assert "'calibration_replicates'" in err and "'epsilon'" in err and "Traceback" not in err
    assert not out.exists()
    # ceil(2 / 0.01) = 200 runs: 25 replicates of 8 members suffice, 24 do not
    config = {**parse_config(None, "elicit"), "epsilon": 0.01, "calibration_replicates": 25}
    _check_config("elicit", config)
    with pytest.raises(ValueError, match="200"):
        _check_config("elicit", {**config, "calibration_replicates": 24})


def test_truth_count_budget_checked_before_output(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "c.cfg", RATES_OK + f"truth_count = {DEFAULT_BUDGET + 1}\n")
    assert dispatch("rates", cfg, 0, out) == 2
    err = capsys.readouterr().err
    assert "'truth_count'" in err and "Traceback" not in err
    assert not out.exists()


def test_lemmas_accepts_zero_pairs(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "c.cfg", LEMMAS_OK.replace("pairs = 2", "pairs = 0"))
    assert dispatch("lemmas", cfg, 0, out) == 0
    assert "all_pass=True" in (out / "summary.txt").read_text()


@pytest.mark.parametrize(
    "subcommand, text",
    [("rates", RATES_OK), ("elicit", ELICIT_TINY), ("coinbound", "n_max = 3\n")],
)
def test_negative_seed_rejected_before_output(tmp_path, capsys, subcommand, text):
    out = tmp_path / "out"
    assert dispatch(subcommand, write_config(tmp_path, "c.cfg", text), -1, out) == 1
    err = capsys.readouterr().err
    assert "seed" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_rejected_before_output(tmp_path, capsys, workers):
    cfg = write_config(tmp_path, "c.cfg", "n_max = 3\n")
    out = tmp_path / "out"
    assert dispatch("coinbound", cfg, 0, out, workers=workers) == 1
    assert "workers" in capsys.readouterr().err
    assert not out.exists()
    argv = ["coinbound", "--config", str(cfg), "--out", str(out), f"--workers={workers}"]
    assert main(argv) == 1
    assert "workers" in capsys.readouterr().err
    assert not out.exists()


def test_code_space_budget_checked_before_output(tmp_path, capsys):
    # k = 40 wrote manifest.txt, then exceeded the (2m)^k budget inside the run
    out = tmp_path / "out"
    assert dispatch("rates", write_config(tmp_path, "c.cfg", RATES_OK + "k = 40\n"), 0, out) == 2
    err = capsys.readouterr().err
    assert "'k'" in err and "Traceback" not in err
    assert not out.exists()

