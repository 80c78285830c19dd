"""Command-line front end: validated key=value configs, deterministic
seeding, CSV + summary + plot-script emission.

Subcommands: rates, lowerbound, coinbound, lemmas, smoothness, elicit,
cover-info.  Exit codes: 0 success, 1 validation error, 2 budget error.
Same (config, seed) always produces byte-identical CSVs, independent of
the worker count.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import platform
import sys
from math import ceil, comb
from pathlib import Path

import numpy as np

from . import __version__
from .concepts import MAX_POINTS, concept_count, enumerate_concepts, uniform_distribution
from .elicitation import (
    LEDGER_CSV_HEADER,
    PRESENCE_MEMBERS,
    FamilyOutcomeModel,
    _PosteriorCache,
    calibrate_schedule,
    check_presence_args,
    estimate_Q,
    presence_family,
    run_algorithm1,
)
from .errors import BudgetError
from .outcomes import (
    CSV_HEADER as CHECK_CSV_HEADER,
    check_sauer,
    verify_lemma_chain,
    verify_sqrt_bound,
    verify_tree_inequality,
)
from .priors import (
    SmoothPriorParams,
    check_holder_pairs,
    cover_priors,
    density_table,
    holder_check,
    random_prior,
    reference_prior,
    smooth_prior,
    PARITY_RULE,
    parity_family,
    parity_family_size,
    parity_gamma,
)
from .ratelab import (
    BASELINE_CSV_HEADER,
    COIN_CSV_HEADER,
    ESTIMATION_CSV_HEADER,
    RATE_CSV_HEADER,
    ExperimentConfig,
    _pmap,
    coin_bound_table,
    run_baseline_comparison,
    run_lower_experiment,
    run_upper_experiment,
    transpose,
    write_csv,
)
from .sampling import stream

_REQUIRED = object()


def _int_list(s: str) -> tuple[int, ...]:
    return tuple(int(x.strip()) for x in s.split(",") if x.strip())


def _float_list(s: str) -> tuple[float, ...]:
    return tuple(float(x.strip()) for x in s.split(",") if x.strip())


def _bool(s: str) -> bool:
    if s.lower() in ("true", "1", "yes"):
        return True
    if s.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _at_least(least):
    return (lambda v: v >= least), f"be >= {least}"


def _within(lo, hi):
    return (lambda v: lo <= v <= hi), f"lie in {lo}..{hi}"


def _each(ok, text: str):
    """The rule of a list key: at least one value, each passing `ok`."""
    return (lambda vs: len(vs) > 0 and all(ok(v) for v in vs)), f"list values that each {text}"


_POINTS = _within(1, MAX_POINTS)

# per-subcommand schema: key -> (caster, default, rule); _REQUIRED means
# mandatory.  A rule is (test, what a value "must" do), and a key left at
# None (unset) skips it; a None rule marks a key checked only together with
# others, in _check_config or by ExperimentConfig.
SCHEMAS: dict[str, dict] = {
    "rates": {
        "m": (int, _REQUIRED, _POINTS),
        "d": (int, _REQUIRED, None),
        "L": (float, _REQUIRED, None),
        "alpha": (float, _REQUIRED, None),
        "T_grid": (_int_list, _REQUIRED, None),
        "family": (str, "parity", None),
        # a standard error needs two replicates; one gives NaN
        "replicates": (int, 100, _at_least(2)),
        "k": (int, None, None),
        "truth_count": (int, None, None),
        "twopoint_weight": (float, None, None),
        "baseline_T": (int, None, _at_least(1)),
    },
    "lowerbound": {
        "m": (int, _REQUIRED, _POINTS),
        "d": (int, _REQUIRED, None),
        "L": (float, _REQUIRED, None),
        "alpha": (float, _REQUIRED, None),
        "T_grid": (_int_list, _REQUIRED, None),
        "replicates": (int, 200, _at_least(2)),
    },
    "coinbound": {
        "gammas": (
            _float_list, tuple(g / 100 for g in range(5, 55, 5)),
            _each(lambda g: 0 < g <= 0.5, "lie in (0, 1/2]"),
        ),
        "n_max": (int, 200, _at_least(0)),
    },
    "lemmas": {
        "m": (int, 2, _POINTS),
        "d": (int, 1, None),
        "k_max": (int, 3, None),
        "pairs": (int, 50, _at_least(0)),
    },
    "smoothness": {
        "m_max": (int, 8, _within(2, MAX_POINTS)),
        "d_max": (int, 3, _at_least(1)),
        "L_list": (_float_list, (0.5, 1.0, 2.0), _each(lambda L: L > 0, "exceed 0")),
        "alpha_list": (_float_list, (0.5, 1.0), _each(lambda a: 0 < a <= 1, "lie in (0, 1]")),
        "signs_per_instance": (int, 4, _at_least(1)),
    },
    "elicit": {
        "epsilon": (float, 0.2, ((lambda eps: 0 < eps < 2), "lie in (0, 2)")),
        "T": (int, 500, _at_least(1)),
        "replicates": (int, 5, _at_least(1)),
        "n_items": (
            int, 8, ((lambda n: check_presence_args(n) is None), "build the presence family"),
        ),
        "calibration_T_grid": (
            _int_list, (25, 50, 100, 200, 400, 800),
            ((lambda g: len(g) > 0 and g[0] >= 1 and list(g) == sorted(set(g))),
             "be a nonempty strictly increasing list of T >= 1"),
        ),
        "calibration_replicates": (int, 20, _at_least(1)),
        "q_trials": (int, 300, _at_least(1)),
        "family_seed": (int, 0, _at_least(0)),
    },
    "cover-info": {
        "m": (int, 2, _POINTS),
        "d": (int, 1, None),
        "L": (float, 1.0, None),
        "alpha": (float, 1.0, None),
        "epsilons": (_float_list, (0.6, 0.5, 0.4, 0.3), _each(lambda eps: eps > 0, "exceed 0")),
        "budget": (int, 100_000, _at_least(1)),
    },
}


def parse_config(path: str | Path | None, subcommand: str) -> dict:
    """Read `key = value` lines (# comments allowed), cast them by the
    subcommand's schema, fill defaults and run each key's rule; unknown or
    missing keys are errors.  With no path every key takes its default."""
    schema = SCHEMAS[subcommand]
    raw: dict[str, str] = {}
    text = "" if path is None else Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in raw:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ValueError(f"unknown config key(s) for {subcommand}: {', '.join(unknown)}")
    missing = [key for key, (_, default, _) in schema.items() if default is _REQUIRED and key not in raw]
    if missing:
        raise ValueError(f"missing required config key(s) for {subcommand}: {', '.join(missing)}")
    config = {}
    for key, (caster, default, rule) in schema.items():
        try:
            value = config[key] = caster(raw[key]) if key in raw else default
            ok = rule is None or value is None or rule[0](value)
        except ValueError as exc:  # from the caster, or a library check that says why
            raise ValueError(f"config key {key!r}: {exc}") from exc
        if not ok:
            raise ValueError(f"config key {key!r} must {rule[1]}, got {value!r}")
    return config


def _nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _manifest(outdir: Path, subcommand: str, config_path, config: dict, seed: int, workers: int):
    """Write everything that determines a run's outputs: two runs with
    equal manifests produce byte-identical CSVs, whatever the worker count.
    The text also records the run's environment: Python, numpy and the
    number of CPUs the process may use."""
    digest = hashlib.sha256(repr(sorted(config.items())).encode()).hexdigest()
    (outdir / "manifest.txt").write_text(
        f"tool=priorlab {__version__}\n"
        f"subcommand={subcommand}\n"
        f"config={config_path}\n"
        f"config_sha256={digest}\n"
        f"seed={seed}\n"
        f"workers={workers}\n"
        f"out={outdir}\n"
        f"python={platform.python_version()}\n"
        f"numpy={np.__version__}\n"
        f"nproc={_nproc()}\n"
    )


def _emit_plot_script(outdir: Path, subcommand: str, csv_name: str, x: str, y: str, loglog: bool):
    body = f'''"""Plot the {subcommand} results; run from the output directory."""
import csv
from collections import defaultdict

import matplotlib.pyplot as plt

rows = list(csv.DictReader(open("{csv_name}")))
series = defaultdict(list)
for r in rows:
    series[r.get("truth_id", "all")].append((float(r["{x}"]), float(r["{y}"])))

fig, ax = plt.subplots()
for label, pts in sorted(series.items()):
    xs = sorted({{p[0] for p in pts}})
    means = [sum(p[1] for p in pts if p[0] == v) / len([p for p in pts if p[0] == v]) for v in xs]
    ax.plot(xs, means, marker="o", label=str(label))
{"ax.set_xscale('log'); ax.set_yscale('log')" if loglog else "pass"}
ax.set_xlabel("{x}")
ax.set_ylabel("{y}")
ax.legend(fontsize=6)
fig.savefig("{subcommand}.png", dpi=150)
print("wrote {subcommand}.png")
'''
    (outdir / f"plot_{subcommand}.py").write_text(body)


def cmd_rates(
    exp: ExperimentConfig, config: dict, seed: int, outdir: Path, workers: int, exact: bool
) -> int:
    res = run_upper_experiment(exp, workers=workers)
    write_csv(outdir / "rates.csv", RATE_CSV_HEADER, transpose(res.rows, len(RATE_CSV_HEADER)))
    write_csv(
        outdir / "skeleton_report.csv", ESTIMATION_CSV_HEADER,
        transpose(res.report_rows, len(ESTIMATION_CSV_HEADER)),
    )
    baseline_T = config["baseline_T"]
    if baseline_T is None:
        baseline_T = config["T_grid"][-1]
    base = run_baseline_comparison(exp, T=baseline_T, workers=workers)
    write_csv(outdir / "baseline.csv", BASELINE_CSV_HEADER, transpose(base.rows, len(BASELINE_CSV_HEADER)))
    c = res.curve
    lines = [
        f"theory_upper_exponent={c.theory_upper_exponent!r}",
        f"theory_lower_exponent={c.theory_lower_exponent!r}",
        f"fitted_slope={c.fitted_slope!r}",
        f"fit_r2={c.fit_r2!r}",
    ]
    for (T, mean, se), (_, pmean, pse) in zip(c.points, c.pooled_points):
        lines.append(f"T={T} worst_mean={mean!r} worst_se={se!r} pooled_mean={pmean!r} pooled_se={pse!r}")
    lines.append(
        f"baseline_T={baseline_T} skeleton_mean={base.skeleton_mean!r} "
        f"direct_mean={base.direct_mean!r} diff_se={base.diff_se!r} ordered={base.ordered}"
    )
    (outdir / "summary.txt").write_text("\n".join(lines) + "\n")
    _emit_plot_script(outdir, "rates", "rates.csv", "T", "tv_error", loglog=True)
    return 0


def cmd_lowerbound(
    exp: ExperimentConfig, config: dict, seed: int, outdir: Path, workers: int, exact: bool
) -> int:
    res = run_lower_experiment(exp, workers=workers)
    write_csv(outdir / "lowerbound.csv", RATE_CSV_HEADER, transpose(res.rows, len(RATE_CSV_HEADER)))
    lines = []
    for T, cell in sorted(res.per_T.items()):
        lines.append(
            f"T={T} mean={cell['mean']!r} se={cell['se']!r} "
            f"floor={cell['floor']!r} above_floor={cell['pass']}"
        )
    lines.append(
        f"ni_expected_per_task={res.ni_expected_per_task!r} ni_mean={res.ni_mean!r} "
        f"ni_sigma={res.ni_sigma!r} within_3sigma={res.ni_within_3sigma}"
    )
    (outdir / "summary.txt").write_text("\n".join(lines) + "\n")
    _emit_plot_script(outdir, "lowerbound", "lowerbound.csv", "T", "tv_error", loglog=True)
    return 0


def _write_check_table(outdir: Path, csv_name: str, header, rows) -> None:
    """Write a table of checks and a summary.txt counting the rows whose
    last column, "pass", is false."""
    write_csv(outdir / csv_name, header, transpose(rows, len(header)))
    n_fail = sum(1 for r in rows if not r[-1])
    (outdir / "summary.txt").write_text(
        f"rows={len(rows)}\nviolations={n_fail}\nall_pass={n_fail == 0}\n"
    )


def cmd_coinbound(config: dict, seed: int, outdir: Path, workers: int, exact: bool) -> int:
    rows = coin_bound_table(config["gammas"], range(config["n_max"] + 1))
    _write_check_table(outdir, "coinbound.csv", COIN_CSV_HEADER, rows)
    _emit_plot_script(outdir, "coinbound", "coinbound.csv", "n", "bayes_error", loglog=False)
    return 0


def cmd_lemmas(config: dict, seed: int, outdir: Path, workers: int, exact: bool) -> int:
    m, d, k_max = config["m"], config["d"], config["k_max"]
    space = enumerate_concepts(m, d)
    dist = uniform_distribution(m)
    rng = stream(seed, 1)
    rows = []
    for p in range(config["pairs"]):
        pa, pb = random_prior(space, rng), random_prior(space, rng)
        chain = verify_lemma_chain(pa, pb, dist, k_max)
        rows.extend(chain.csv_rows())
        k = int(rng.integers(d, k_max + 1))
        anchors = tuple(int(x) for x in rng.integers(1, m + 1, size=k))
        rows.append(verify_tree_inequality(pa, pb, anchors, d).csv_row())
        rows.extend(r.csv_row() for r in verify_sqrt_bound(pa, pb, dist, d))
    rows.extend(r.csv_row() for r in check_sauer(space))
    _write_check_table(outdir, "lemmas.csv", CHECK_CSV_HEADER, rows)
    _emit_plot_script(outdir, "lemmas", "lemmas.csv", "k", "lhs", loglog=False)
    return 0


def _smoothness_instances(config: dict):
    """The instances a smoothness config runs, in order: (m, d, [(L,
    alpha, gamma), ...]) for each d <= min(d_max, m) at each m whose
    (L, alpha) pairs give some parity family."""
    for m in range(2, config["m_max"] + 1):
        grid = [
            (L, alpha, gamma)
            for L in config["L_list"]
            for alpha in config["alpha_list"]
            if (gamma := parity_gamma(L, alpha, m)) is not None
        ]
        if grid:
            for d in range(1, min(config["d_max"], m) + 1):
                yield m, d, grid


def cmd_smoothness(config: dict, seed: int, outdir: Path, workers: int, exact: bool) -> int:
    rows = []
    rng = stream(seed, 2)
    header = (
        "m", "d", "L", "alpha", "gamma", "mass_gap", "density_lo", "density_hi",
        "holder_ok", "pass",
    )
    for m, d, grid in _smoothness_instances(config):
        space = enumerate_concepts(m, d)
        dist = uniform_distribution(m)
        refs = {}  # the reference measure, float or exact, is fixed per space
        for L, alpha, gamma in grid:
            use_exact = exact and float(alpha).is_integer()
            if use_exact not in refs:
                refs[use_exact] = reference_prior(space, exact=use_exact)
            ref = refs[use_exact]
            for _ in range(config["signs_per_instance"]):
                b = tuple(rng.choice([-1, 1], size=comb(m, d)).tolist())
                params = SmoothPriorParams(b, L, alpha, m, d)
                pb = smooth_prior(params, space, exact=use_exact)
                if use_exact:
                    mass_gap = 0.0 if sum(pb.exact) == 1 else float(abs(sum(pb.exact) - 1))
                else:
                    mass_gap = abs(float(pb.mass.sum()) - 1.0)
                f = density_table(pb, ref)
                hold = holder_check(pb, ref, L, alpha, dist).ok
                ok = (
                    mass_gap <= 1e-12
                    and f.min() >= 1 - gamma - 1e-12
                    and f.max() <= 1 + gamma + 1e-12
                    and hold
                )
                rows.append(
                    (m, d, L, alpha, gamma, mass_gap, float(f.min()), float(f.max()), hold, ok)
                )
    _write_check_table(outdir, "smoothness.csv", header, rows)
    _emit_plot_script(outdir, "smoothness", "smoothness.csv", "m", "gamma", loglog=False)
    return 0


def _elicit_stream(payload):
    """Serve one customer stream, write its ledger, return (regrets, tail avg, exceedance)."""
    path, cache, *args = payload
    res = run_algorithm1(*args, cache=cache)
    write_csv(path, LEDGER_CSV_HEADER, res.ledger)
    return res.ledger.regret, res.tail_query_avg, res.exceedance_rate


def _experiment_config(config: dict, seed: int) -> ExperimentConfig:
    """The experiment of a rates or lowerbound config; ExperimentConfig
    checks the values it reads, then its family and selection budgets.
    A lowerbound config has no family, k, truth_count or twopoint_weight
    key and runs the parity family."""
    optional = ("family", "k", "truth_count", "twopoint_weight")
    exp = ExperimentConfig(
        m=config["m"], d=config["d"], L=config["L"], alpha=config["alpha"],
        T_grid=config["T_grid"], replicates=config["replicates"], seed=seed,
        **{key: config[key] for key in optional if key in config},
    )
    exp.check_budget(config.get("baseline_T"))
    return exp


def _check_config(subcommand: str, config: dict) -> None:
    """The rules that span keys of a parsed config, naming the keys: a
    concept space needs 1 <= d <= m, a parity-family member needs gamma_m
    in (0, 1/2), each smoothness instance's Hölder check and cover-info's
    parity family must fit their budgets, and elicit's calibration must
    resolve its quantile.  rates and lowerbound leave theirs, their
    budgets among them, to `_experiment_config`; cover-info meets its
    cover budget in `_cover_rows`."""
    if "d" in config and not 1 <= config["d"] <= config["m"]:
        raise ValueError(f"config key 'd' must lie in 1..m = {config['m']}, got {config['d']}")
    if subcommand == "lemmas" and config["k_max"] < config["d"]:
        raise ValueError(f"config key 'k_max' must be >= d = {config['d']}, got {config['k_max']}")
    if subcommand == "smoothness":
        instances = list(_smoothness_instances(config))
        if not instances:
            raise ValueError(f"config keys 'L_list' and 'alpha_list' fit no m <= 'm_max': {PARITY_RULE}")
        for m, d, _ in instances:
            check_holder_pairs(concept_count(m, d))
    if subcommand == "cover-info" and parity_gamma(config["L"], config["alpha"], config["m"]) is None:
        raise ValueError(f"config keys 'L' and 'alpha' at m = {config['m']}: {PARITY_RULE}")
    if subcommand == "cover-info":
        parity_family_size(config["m"], config["d"])
    if subcommand == "elicit":
        # calibrate_schedule pools one run per (replicate, member) for a
        # quantile at level epsilon/2, which needs ceil(2/epsilon) runs
        runs, needed = config["calibration_replicates"] * PRESENCE_MEMBERS, ceil(2 / config["epsilon"])
        if runs < needed:
            raise ValueError(
                f"config keys 'calibration_replicates' and 'epsilon': {runs} calibration runs "
                f"cannot resolve a quantile at level {config['epsilon'] / 2}, which needs {needed}"
            )


def cmd_elicit(config: dict, seed: int, outdir: Path, workers: int, exact: bool) -> int:
    eps = config["epsilon"]
    menu, family = presence_family(seed=config["family_seed"], n_items=config["n_items"])
    (outdir / "menu.tsv").write_text(menu.to_table_text())
    model = FamilyOutcomeModel(family)
    schedule = calibrate_schedule(
        family, model, alpha=eps / 2.0, T_grid=config["calibration_T_grid"],
        replicates=config["calibration_replicates"], seed=seed,
    )
    cache = _PosteriorCache(family)  # one per run: its entries are deterministic
    q_table = [
        estimate_Q(j, family, eps / 4.0, trials=config["q_trials"], seed=seed, cache=cache).mean
        for j in range(family.n_members)
    ]
    truths = [rep % family.n_members for rep in range(config["replicates"])]
    results = _pmap(_elicit_stream, [
        (outdir / f"ledger_{rep:03d}.csv", cache, family, model, schedule, truth, eps,
         config["T"], seed + 1000 + rep, q_table)
        for rep, truth in enumerate(truths)
    ], workers)
    reg = np.concatenate([regrets for regrets, _, _ in results])
    se = float(reg.std(ddof=1) / np.sqrt(len(reg)))
    lines = [
        f"epsilon={eps!r}",
        f"streams={config['replicates']} T={config['T']}",
        f"mean_regret={float(reg.mean())!r} se={se!r} upper95={float(reg.mean() + 1.645 * se)!r}",
        f"exceedance_max={max(e for _, _, e in results)!r} (target <= {eps / 2.0!r})",
    ]
    for truth, (_, tail_avg, _) in zip(truths, results):
        q = q_table[truth]
        lines.append(
            f"truth={truth} tail_query_avg={tail_avg!r} "
            f"q_hat={q!r} budget={q + family.d + 0.5!r}"
        )
    lines.append("schedule_knots=" + ",".join(str(k) for k in schedule.knots))
    lines.append("schedule_R=" + ",".join(repr(r) for r in schedule.R))
    lines.append("schedule_delta=" + ",".join(repr(x) for x in schedule.delta))
    (outdir / "summary.txt").write_text("\n".join(lines) + "\n")
    _emit_plot_script(outdir, "elicit", "ledger_000.csv", "t", "queries", loglog=False)
    return 0


def _cover_rows(config: dict, seed: int) -> list[tuple]:
    """cover-info's table, one measured cover per epsilon.  A cover's
    size, and so its budget, is known only by building it."""
    m, d, L, alpha = config["m"], config["d"], config["L"], config["alpha"]
    space = enumerate_concepts(m, d)
    rows = []
    for eps in config["epsilons"]:
        fam = cover_priors(space, L, alpha, eps, budget=config["budget"])
        rows.append((m, d, L, alpha, eps, fam.size, fam.meta["n_cells"], fam.meta["grid_step"]))
    return rows


def cmd_cover_info(
    rows: list[tuple], config: dict, seed: int, outdir: Path, workers: int, exact: bool
) -> int:
    header = ("m", "d", "L", "alpha", "epsilon", "cover_size", "n_cells", "grid_step")
    write_csv(outdir / "cover_info.csv", header, transpose(rows, len(header)))
    space = enumerate_concepts(config["m"], config["d"])
    _, members = parity_family(space, config["L"], config["alpha"])
    lines = [f"parity_family_size={len(members)}"]
    for r in rows:
        lines.append(f"epsilon={r[4]!r} measured_cover_size={r[5]} cells={r[6]}")
    (outdir / "summary.txt").write_text("\n".join(lines) + "\n")
    _emit_plot_script(outdir, "cover-info", "cover_info.csv", "epsilon", "cover_size", loglog=False)
    return 0


DISPATCH = {
    "rates": cmd_rates,
    "lowerbound": cmd_lowerbound,
    "coinbound": cmd_coinbound,
    "lemmas": cmd_lemmas,
    "smoothness": cmd_smoothness,
    "elicit": cmd_elicit,
    "cover-info": cmd_cover_info,
}

# What a subcommand builds from (config, seed) before any output is
# written, passed to it as its first argument: the budgets met there are
# met before the output directory exists.
PREPARE = {
    "rates": _experiment_config,
    "lowerbound": _experiment_config,
    "cover-info": _cover_rows,
}


def dispatch(
    subcommand: str,
    config_path: str | Path | None,
    seed: int,
    outdir: str | Path,
    workers: int = 1,
    exact_rational: bool = False,
) -> int:
    """Run one subcommand; returns the process exit code."""
    if subcommand not in DISPATCH:
        print(f"unknown subcommand {subcommand!r}; choose from {', '.join(DISPATCH)}",
              file=sys.stderr)
        return 1
    outdir = Path(outdir)
    try:
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if exact_rational and subcommand != "smoothness":
            raise ValueError(f"--exact-rational is read only by smoothness, not {subcommand}")
        # every config check runs before any output is written: each key's
        # rule as it is parsed, then the rules that span keys
        config = parse_config(config_path, subcommand)
        _check_config(subcommand, config)
        command = DISPATCH[subcommand]
        if subcommand in PREPARE:
            command = functools.partial(command, PREPARE[subcommand](config, seed))
        outdir.mkdir(parents=True, exist_ok=True)
        _manifest(outdir, subcommand, config_path, config, seed, workers)
        return command(config, seed, outdir, workers, exact_rational)
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="priorlab",
        description="Simulation workbench for prior estimation over finite VC classes.",
    )
    parser.add_argument("subcommand", help=f"one of: {', '.join(DISPATCH)}")
    parser.add_argument("--config", default=None, help="key = value config file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out",
        default=os.environ.get("PRIORLAB_OUT", "priorlab-out"),
        help="output directory (env PRIORLAB_OUT overrides the default)",
    )
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--exact-rational", type=_bool, default=False, metavar="BOOL")
    args = parser.parse_args(argv)
    if args.subcommand not in DISPATCH:
        parser.print_usage(sys.stderr)  # dispatch names the subcommand and exits 1
    return dispatch(
        args.subcommand, args.config, args.seed, args.out, args.workers, args.exact_rational
    )


if __name__ == "__main__":
    sys.exit(main())
