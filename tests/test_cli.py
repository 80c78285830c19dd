import filecmp
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from priorlab import cli, elicitation, errors, priors
from priorlab.cli import SCHEMAS, SUBCOMMANDS, _experiment_config, _int_list, dispatch, main, parse_config
from priorlab.concepts import enumerate_concepts, uniform_distribution
from priorlab.errors import WORK_BUDGET, BudgetError, check_plan
from priorlab.priors import cover_priors, holder_check, reference_prior
from priorlab.ratelab import (
    ExperimentConfig, build_setup, coin_plan, run_baseline_comparison, run_lower_experiment,
    run_upper_experiment,
)

ROOT = Path(__file__).resolve().parent.parent

# child processes import priorlab from src/, installed or not
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
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


def test_cover_info_counts_the_parity_family_without_building_it(tmp_path, monkeypatch):
    # 2^21 members: counted, never built
    def unbuilt(*args, **kwargs):
        raise AssertionError("cover-info built the parity family")

    for module in (cli, priors):
        monkeypatch.setattr(module, "parity_family", unbuilt)
    out = tmp_path / "out"
    assert dispatch("cover-info", write_config(tmp_path, "c.cfg", "m = 21\nd = 1\n"), 0, out) == 0
    assert (out / "summary.txt").read_text().startswith("parity_family_size=2097152\n")


def test_cover_info_budget_exit_code(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "c.cfg", "m = 3\nd = 2\nepsilons = 0.05\nbudget = 10\n")
    assert dispatch("cover-info", cfg, 0, out) == 2


def test_cover_info_covers_share_one_budget(tmp_path, capsys):
    # each search at epsilon = 0.02 tries about 2.2 million grid values:
    # four fit the run's budget of 10^7, five do not, though each fits alone
    four = write_config(tmp_path, "four.cfg", "budget = 200000\nepsilons = " + ",".join(["0.02"] * 4) + "\n")
    assert dispatch("cover-info", four, 0, tmp_path / "four") == 0
    five = write_config(tmp_path, "five.cfg", "budget = 200000\nepsilons = " + ",".join(["0.02"] * 5) + "\n")
    assert dispatch("cover-info", five, 0, tmp_path / "five") == 2
    assert "cover grid values tried exceed the limit of 10000000" in capsys.readouterr().err
    assert not (tmp_path / "five").exists()
    # the masses a cover holds are in its plan, in bytes: 16,803 members x 3 concepts at 0.05,
    # held three times over as they are gathered, weighed and normalized
    space = enumerate_concepts(2, 1)
    fam = cover_priors(space, 1.0, 1.0, 0.05)
    masses = next(a for a in fam.meta["plan"] if a.name == "cover member masses")
    assert fam.size == 16_803 and masses.shape == (3, 16_803, 3)
    spent = fam.meta["spent"]
    with pytest.raises(BudgetError, match="cover grid values tried exceed the limit of 10000000"):
        cover_priors(space, 1.0, 1.0, 0.05, spent=WORK_BUDGET - spent + 1)
    cover_priors(space, 1.0, 1.0, 0.05, spent=WORK_BUDGET - spent)


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
        # 1,024 members on 90 outcomes: wrote manifest.txt, then exited
        ("rates", PARITY_M5, "Yatracos pair masses, holds 1024x1047552 float64"),
        ("lowerbound", PARITY_M5, "1024x1047552"),
        ("rates", PARITY_M5.replace("m = 5", "m = 6"), "32768x1073709056"),
        # C(40, <=3) = 10,701 concepts' rho table: at C(12, <=3) = 299 concepts
        # smoothness ran m <= 11 after manifest.txt, then exited
        (
            "smoothness",
            "m_max = 40\nd_max = 3\nL_list = 1.0\nalpha_list = 1.0\nsigns_per_instance = 1\n",
            "'m_max': the plan holds",
        ),
        # the cover's members are known only by building it: wrote manifest.txt, then exited
        (
            "cover-info",
            "m = 4\nd = 2\nepsilons = 0.05\nbudget = 10\n",
            "11 cover members exceed the limit of 10",
        ),
        # 211 concepts labelled on 20^4 x-tuples: passed every check, then
        # one member's outcome law ran past 60 s
        (
            "rates",
            "m = 20\nd = 2\nL = 1.0\nalpha = 1.0\nT_grid = 10\nreplicates = 2\nfamily = twopoint\nk = 4\n",
            "label table and its build, holds 5x160000x211 int64",
        ),
        # 42^5 outcomes; at m = 40, k_max = 4 this wrote manifest.txt, then exited at k = 4
        ("lemmas", "m = 21\nd = 1\nk_max = 5\n", "'k_max': the plan holds"),
        # check_sauer would count the traces of 31 concepts on 8,656,936 anchor sets (about 15 s)
        ("lemmas", "m = 30\nd = 1\nk_max = 1\n", "8656936 anchor sets x 31 concepts"),
        # the rho table of 2^62 concepts
        ("cover-info", "m = 63\nd = 31\n", "its largest array, rho bit planes"),
        # the rho table that even a cover of 10 members cuts its cells by: C(50, <=3) = 20,876
        # concepts, 349 GB of bit planes
        ("cover-info", "m = 50\nd = 3\nbudget = 10\n", "its largest array, rho bit planes"),
    ],
    ids=[
        "rates-m5", "lowerbound-m5", "rates-m6", "smoothness-m12", "cover-info-budget",
        "rates-twopoint-m20-k4", "lemmas-m40", "lemmas-sauer-m30", "cover-info-m63-d31", "cover-info-rho-m50",
    ],
)
def test_budgets_checked_before_output(tmp_path, capsys, subcommand, config, reason):
    out = tmp_path / "out"
    assert dispatch(subcommand, write_config(tmp_path, "c.cfg", config), 0, out) == 2
    err = capsys.readouterr().err
    assert reason in err and "Traceback" not in err
    assert not out.exists()


SHIPPED_CONFIGS = sorted(
    p for root in (ROOT / "configs", ROOT / "perfbench" / "configs") for p in root.iterdir()
)


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
def test_shipped_configs_meet_every_budget(path):
    # a config is the subcommand its name starts with (rates-wide.cfg runs
    # rates); a budget that rejects one of these must be a different budget
    subcommand = max((s for s in SCHEMAS if path.stem.startswith(s)), key=len)
    check_plan(SUBCOMMANDS[subcommand][0](parse_config(path, subcommand), 0)[0])


def test_smoothness_pair_guard_is_the_holder_checks():
    # the rho table of C(21, <=3) = 1,562 concepts fits the byte budget; that of C(22, <=3) = 1,794 does not
    config = parse_config(None, "smoothness")
    prepare = SUBCOMMANDS["smoothness"][0]
    check_plan(prepare({**config, "m_max": 21, "d_max": 3}, 0)[0])
    with pytest.raises(BudgetError, match="rho bit planes, holds 2x1794x1794x22"):
        check_plan(prepare({**config, "m_max": 22, "d_max": 3}, 0)[0])
    space = enumerate_concepts(22, 3)
    ref = reference_prior(space)
    with pytest.raises(BudgetError, match="rho bit planes, holds 2x1794x1794x22"):
        holder_check(ref, ref, 1.0, 1.0, uniform_distribution(22))


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


def test_elicit_consistent_set_table_budget_is_met_before_output(tmp_path, capsys, monkeypatch):
    # the outcome model meets its plan, its consistent-set table among it, before it is built
    monkeypatch.setattr(errors, "BYTE_BUDGET", 1)
    out = tmp_path / "out"
    assert dispatch("elicit", write_config(tmp_path, "e.cfg", ELICIT_TINY), 2, out) == 2
    err = capsys.readouterr().err
    assert "'n_items': the plan holds" in err and "Traceback" not in err
    assert not out.exists()


def test_elicit_byte_identical_across_workers(tmp_path):
    cfg = write_config(tmp_path, "e.cfg", ELICIT_TINY)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert dispatch("elicit", cfg, 2, out1, workers=1) == 0
    assert dispatch("elicit", cfg, 2, out2, workers=2) == 0
    for name in ("ledger_000.csv", "ledger_001.csv", "summary.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_elicit_does_not_import_numpy_ma(tmp_path):
    # numpy.ma adds about 1.3 MB to elicit's peak RSS, and np.unique of
    # rows, or a plain np.unique (without return_index or return_inverse),
    # imports it; the shipped config, in a fresh process, so that no other
    # test has imported it first
    code = (
        "import sys\n"
        "from priorlab.cli import dispatch\n"
        f"assert dispatch('elicit', 'configs/elicit.cfg', 0, {str(tmp_path / 'out')!r}) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=300, env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_elicit_writes_ledgers_without_building_rows(tmp_path, monkeypatch):
    # each ledger goes from its columns to the CSV; RunResult.rows is for readers
    def no_rows(self):
        raise AssertionError("RunResult.rows built")

    monkeypatch.setattr(elicitation.RunResult, "rows", property(no_rows))
    cfg = write_config(tmp_path, "e.cfg", ELICIT_TINY)
    assert dispatch("elicit", cfg, 2, tmp_path / "out") == 0
    assert len((tmp_path / "out" / "ledger_001.csv").read_text().splitlines()) == 41


def test_cli_import_leaves_out_concurrent_futures():
    # only a pool of workers > 1 needs concurrent.futures; a fresh process,
    # so that no other test has imported it first
    code = "import sys\nimport priorlab.cli\nprint('concurrent.futures' in sys.modules)\n"
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


@pytest.mark.parametrize("argv", [
    ["coinbound", "--seed", "x"],
    ["coinbound", "--workers", "two"],
    ["smoothness", "--exact-rational", "maybe"],
    ["coinbound", "--bogus", "1"],
], ids=["seed", "workers", "exact-rational", "unknown-flag"])
def test_malformed_flags_exit_1_before_output(tmp_path, capsys, argv):
    # exit 2 is kept for budget errors; argparse's own rejections exit 1
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not out.exists()


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
    assert _experiment_config(twopoint, 0)[1].twopoint_weight == 0.05
    parity = parse_config(write_config(tmp_path, "p.cfg", RATES_OK), "rates")
    assert parity["twopoint_weight"] is None
    assert _experiment_config(parity, 0)[1].twopoint_weight is None


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
    prepare = SUBCOMMANDS["elicit"][0]
    prepare(config, 0)
    with pytest.raises(ValueError, match="200"):
        prepare({**config, "calibration_replicates": 24}, 0)


def test_elicit_needs_two_customers_before_output(tmp_path, capsys):
    # one customer's regret gave se=nan and upper95=nan in summary.txt,
    # and a numpy warning on stderr
    out = tmp_path / "out"
    text = ELICIT_TINY.replace("T = 40\nreplicates = 2", "T = 1\nreplicates = 1")
    cfg = write_config(tmp_path, "e.cfg", text)
    assert dispatch("elicit", cfg, 0, out) == 1
    err = capsys.readouterr().err
    assert "'replicates'" in err and "'T'" in err and "Traceback" not in err
    assert not out.exists()
    config, prepare = parse_config(None, "elicit"), SUBCOMMANDS["elicit"][0]
    prepare({**config, "replicates": 1, "T": 2}, 0)
    prepare({**config, "replicates": 2, "T": 1}, 0)


def test_truth_count_budget_checked_before_output(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "c.cfg", RATES_OK + f"truth_count = {WORK_BUDGET + 1}\n")
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



def _limit_memory():
    # a run that no budget stops fails at 4 GiB, not on the host's memory
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 4 << 30 if hard == resource.RLIM_INFINITY else min(4 << 30, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def _shipped_with(subcommand: str, **keys) -> str:
    """The shipped config of a subcommand with `keys` set on top."""
    lines = (ROOT / "configs" / f"{subcommand}.cfg").read_text().splitlines()
    kept = [line for line in lines if line.split("=")[0].strip() not in keys]
    return "\n".join(kept + [f"{key} = {value}" for key, value in keys.items()]) + "\n"


def _run_cli(tmp_path, subcommand: str, text: str, timeout: float):
    """A CLI run of `text` in a child process; its result and output directory."""
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "priorlab.cli", subcommand, "--config",
         str(write_config(tmp_path, "c.cfg", text)), "--out", str(out)],
        capture_output=True, text=True, timeout=timeout, env=CHILD_ENV, preexec_fn=_limit_memory,
    )
    return proc, out


# integer keys that size nothing a run holds
NOT_SIZES = {("elicit", "family_seed")}
SIZE_KEYS = sorted(
    (subcommand, key)
    for subcommand, schema in SCHEMAS.items()
    for key, (caster, _, _) in schema.items()
    if caster in (int, _int_list) and (subcommand, key) not in NOT_SIZES
)


def test_not_sizes_are_integer_schema_keys():
    assert all(SCHEMAS[sub][key][0] in (int, _int_list) for sub, key in NOT_SIZES)


@pytest.mark.parametrize("subcommand, key", SIZE_KEYS, ids=[f"{s}-{k}" for s, k in SIZE_KEYS])
def test_every_size_key_at_1e11_exits_before_output(tmp_path, subcommand, key):
    # a size key ships with a rule or a budget: at 10^11 on a shipped
    # config the run is rejected at once, as a validation or a budget error
    proc, out = _run_cli(tmp_path, subcommand, _shipped_with(subcommand, **{key: 10**11}), timeout=15)
    assert proc.returncode in (1, 2), proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


# each ended in a traceback (numpy's _ArrayMemoryError or MemoryError)
# after manifest.txt, or was still running after 40 s, its tables growing
BUDGET_PROBES = {
    "rates-replicates-1e11": ("rates", {"replicates": 10**11}, "'replicates'"),
    "rates-replicates-1e7": ("rates", {"replicates": 10**7}, "'replicates'"),
    "lowerbound-replicates": ("lowerbound", {"replicates": 10**11}, "'replicates'"),
    "coinbound-n_max-1e8": ("coinbound", {"n_max": 10**8}, "'n_max'"),
    "coinbound-n_max-1e6": ("coinbound", {"n_max": 10**6}, "'n_max'"),
    "elicit-T": ("elicit", {"T": 10**8, "replicates": 1}, "'T'"),
    "elicit-replicates": ("elicit", {"replicates": 10**11, "T": 1}, "'replicates'"),
    "elicit-q_trials": ("elicit", {"q_trials": 10**11}, "'q_trials'"),
    "elicit-calibration_replicates": (
        "elicit", {"calibration_replicates": 10**11}, "'calibration_replicates'"
    ),
    "elicit-calibration_T_grid": ("elicit", {"calibration_T_grid": f"25,{10**11}"}, "'calibration_T_grid'"),
    "cover-info-epsilons": ("cover-info", {"epsilons": "0.0000001"}, "cover grid values exceed"),
    # the search's grid scans: exit 2 after 59 s, at the member budget
    "cover-info-search": (
        "cover-info", {"epsilons": "0.0001"}, "cover grid values tried exceed the limit of 10000000"
    ),
    "cover-info-budget": ("cover-info", {"m": 3, "d": 2, "epsilons": 0.3, "budget": 10**9}, "'budget'"),
    "smoothness-signs_per_instance": ("smoothness", {"signs_per_instance": 10**11}, "'signs_per_instance'"),
    "lemmas-pairs": ("lemmas", {"pairs": 10**9}, "'pairs'"),
}


@pytest.mark.parametrize("probe", sorted(BUDGET_PROBES))
def test_size_budget_exits_2_before_output(tmp_path, probe):
    subcommand, keys, reason = BUDGET_PROBES[probe]
    proc, out = _run_cli(tmp_path, subcommand, _shipped_with(subcommand, **keys), timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert reason in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


def _table_rows(plan, name: str) -> int:
    return next(a.shape[0] for a in plan if a.name == name)


def test_rates_table_budget_counts_the_kept_tables():
    # the two-point family has exactly two truths; lowerbound one row per (T, replicate)
    upper = ExperimentConfig(m=3, d=2, family="twopoint", T_grid=(5, 10), replicates=3)
    res = run_upper_experiment(upper)
    base = run_baseline_comparison(upper, T=10)
    assert len(res.table[0]) == len(res.report[0])  # an estimation row per rate row
    assert _table_rows(upper.plan("rates"), "rates tables") == len(res.table[0]) + len(base.table[0])
    lower = ExperimentConfig(m=3, d=2, T_grid=(5, 10), replicates=3)
    rows = len(run_lower_experiment(lower).table[0])
    assert _table_rows(lower.plan("lowerbound"), "lowerbound tables") == rows
    # the budget holds at its edge: 4,468,420 replicates of one T make 1,072,420,800 bytes of
    # tables, and the rest of the plan fits beside them
    check_plan(ExperimentConfig(T_grid=(10,), replicates=4_468_420).plan("lowerbound"))
    with pytest.raises(BudgetError, match="'replicates': the plan holds"):
        check_plan(ExperimentConfig(T_grid=(10,), replicates=4_468_421).plan("lowerbound"))


def test_coin_budget_counts_the_exact_pass_and_the_table():
    # gamma = 1/20 steps by (2q)^n = 40^n, 6 bits a step: n_max^2 x 6 / 2 bits
    check_plan(coin_plan((0.05,), 14_000, 14_001))
    with pytest.raises(BudgetError, match="'n_max': 10547578 64-bit words"):
        check_plan(coin_plan((0.05,), 15_000, 15_001))
    # 256 bytes per row: 80 values of n for 52,428 gammas fit, 52,429 do not
    check_plan(coin_plan((0.5,) * 52_428, 79, 80))
    with pytest.raises(BudgetError, match="'gammas': the plan holds .* coin table rows, holds 52429x80x32"):
        check_plan(coin_plan((0.5,) * 52_429, 79, 80))
