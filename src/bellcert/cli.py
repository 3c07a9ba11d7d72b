"""Command-line front end; every command is a thin wrapper over a library call.

Exit codes: 0 success (including optimizer non-convergence, which is reported
as a warning), 1 internal error, 2 input/parse error, 3 scenario or data
mismatch.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import gainrates, quantum, sim
from .errors import BellcertError, ScenarioMismatchError, TrialFormatError
from .functionals import build_function_set, catalog_names
from .optim import DEFAULT_CONTROLS, OptimizerControls
from .protocols import DEFAULT_BLOCK, DEFAULT_FLOOR, _run_selection
from .scenario import Scenario, _distribution_json, read_distribution, read_trials, setting_log2_pvalue, write_distribution

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_MISMATCH = 3
# analyze refuses setting counts whose p-value under the declared settings, which every certificate assumes, is below this
SETTING_CHECK_LEVEL = 1e-6


def _parse_scenario(text: str) -> Scenario:
    try:
        l, s, d = (int(v) for v in text.split(","))
    except ValueError:
        raise TrialFormatError(f"--scenario expects 'l,s,d', got {text!r}") from None
    return Scenario(l, s, d)


def _parse_values(text: str) -> list[float]:
    # "2..7" (integer range) or a comma list
    if ".." in text:
        lo, hi = text.split("..", 1)
        if int(hi) < int(lo):
            raise ValueError(f"empty range {text!r}")
        return [float(v) for v in range(int(lo), int(hi) + 1)]
    return [float(v) for v in text.split(",")]


def _controls(args) -> OptimizerControls:
    return OptimizerControls(max_iterations=args.max_iter, rel_tolerance=args.tol)


def _names(text: str | None, option: str) -> tuple[str, ...]:
    """The names of a comma-list option; () when the option is not given."""
    names = tuple(filter(None, (n.strip() for n in (text or "").split(","))))
    if text is not None and not names:
        raise ValueError(f"{option} {text!r} names nothing")
    return names


def _source_distribution(args):
    if args.config is None:
        return read_distribution(args.dist)
    family, _, value = args.config.partition(":")
    return quantum.named_distribution(family, value)


def _print_flags(analyses: dict, prefix: str) -> None:
    for name, analysis in analyses.items():
        for flag in analysis.flags:
            print(f"warning: {prefix}{name}: {flag}", file=sys.stderr)


def cmd_analyze(args) -> int:
    scenario = _parse_scenario(args.scenario)
    encoded = read_trials(args.trials_file, scenario)
    if encoded.size == 0:
        raise ScenarioMismatchError(f"{args.trials_file}: no trial records")
    log2_p = setting_log2_pvalue(scenario, encoded)
    if 2.0**log2_p < SETTING_CHECK_LEVEL:
        bound = f"p <= 2^{log2_p:.1f}, below {SETTING_CHECK_LEVEL:g}"
        raise ScenarioMismatchError(f"{args.trials_file}: the setting counts refute the declared setting distribution ({bound})")
    functions = build_function_set(_names(args.functions, "--functions"), scenario)
    analyses = _run_selection(_names(args.protocol, "--protocol"), encoded, functions, args.block, _controls(args), args.floor)
    for name, analysis in analyses.items():
        print(
            f"protocol={name} n={analysis.n} {analysis.statistic_name}={analysis.statistic:.10g}"
            f" p_value={analysis.pvalue:.10g}"
        )
        if args.out:
            path = Path(args.out) / f"report_{name}.csv"
            Path(args.out).mkdir(parents=True, exist_ok=True)
            sim.write_report(path, analysis, per_block=args.per_block, block_size=args.block)
            print(f"wrote {path}")
    _print_flags(analyses, "")
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.seeds < 1:
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    if args.per_block and args.seeds > 1:
        raise ValueError("--per-block needs --seeds 1: a seed sweep writes only seed_summary.csv")
    source = _source_distribution(args)
    plan = sim.SimulationPlan(
        source=source,
        n_trials=args.trials,
        seed=args.seed,
        protocols=_names(args.protocol, "--protocol"),
        function_names=_names(args.functions, "--functions"),
        block_size=args.block,
        controls=_controls(args),
        floor=args.floor,
    )
    if args.seeds > 1:
        results = sim.run_seed_sweep(plan, range(args.seed, args.seed + args.seeds), out_dir=args.out)
        for res in results:
            finals = " ".join(f"{p}={res.analyses[p].neg_log2_pvalue:.6g}" for p in plan.protocols)
            print(f"seed={res.plan.seed} neg_log2_p: {finals}")
        for res in results:
            _print_flags(res.analyses, f"seed={res.plan.seed} ")
    else:
        res = sim.run_experiment(plan, out_dir=args.out, per_block=args.per_block)
        for protocol in plan.protocols:
            print(
                f"protocol={protocol} n={res.analyses[protocol].n}"
                f" neg_log2_p={res.analyses[protocol].neg_log2_pvalue:.10g}"
                f" p_value={res.analyses[protocol].pvalue:.10g}"
                f" rate={res.rates[protocol]:.10g}"
            )
        _print_flags(res.analyses, "")
    return EXIT_OK


SWEEP_VALUES = {"cglmp": ("d", "2..7"), "chsh": ("theta", "0.19634954,0.39269908,0.58904862")}


def cmd_gain(args) -> int:
    kind, _, arg = (args.config or args.sweep).partition(":")
    values = [arg]
    for sweep, (flag, default) in SWEEP_VALUES.items():
        text = getattr(args, flag)
        if args.sweep == sweep:
            values = _parse_values(default if text is None else text)
        elif text is not None:
            raise ValueError(f"--{flag} applies only to --sweep {sweep}")
    reports = gainrates.gain_curve(
        kind, values, include_optimal=args.with_sq, include_nosignaling=not args.no_ns, controls=_controls(args)
    )
    lines = ["parameter,mean_value,gain_mart,gain_spbr,gain_spbr_extended,optimal"]
    for r in reports:
        ext = "" if r.gain_spbr_extended is None else f"{r.gain_spbr_extended:.10g}"
        opt = "" if r.optimal is None else f"{r.optimal:.10g}"
        lines.append(f"{r.parameter:.10g},{r.mean_value:.10g},{r.gain_mart:.10g},{r.gain_spbr:.10g},{ext},{opt}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_quantum(args) -> int:
    dist = _source_distribution(args)
    if args.out:
        write_distribution(args.out, dist)
        print(f"wrote {args.out}")
    else:
        json.dump(_distribution_json(dist), sys.stdout)
        print()
    return EXIT_OK


def cmd_catalog(args) -> int:
    scenario = _parse_scenario(args.scenario)
    for name in catalog_names(scenario):
        print(name)
    return EXIT_OK


def _apply_config_file(argv: list[str]) -> list[str]:
    # config entries become flags placed right after the subcommand; argparse keeps the
    # last value it sees, so every flag on the command line wins, however it is spelled
    flags = [a.partition("=")[0] for a in argv]
    if "--config-file" not in flags:
        return argv
    if flags.count("--config-file") > 1:
        raise ValueError("--config-file may be given only once")
    i = flags.index("--config-file")
    if argv[i] != "--config-file":  # the --config-file=PATH form
        argv = argv[:i] + ["--config-file", argv[i].partition("=")[2]] + argv[i + 1 :]
    if i + 1 == len(argv):
        return argv  # the parser reports the missing value
    with open(argv[i + 1], "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not (isinstance(cfg, dict) and all(isinstance(v, (str, int, float)) for v in cfg.values())):
        raise ValueError(f"{argv[i + 1]}: config file must be a JSON object of flag values")
    injected: list[str] = []
    for key, value in cfg.items():
        flag = f"--{key.replace('_', '-')}"
        if isinstance(value, bool):
            if value:
                injected.append(flag)
        else:
            injected.extend([flag, str(value)])
    return argv[:1] + injected + argv[1:]


def build_parser() -> argparse.ArgumentParser:
    # no abbreviated flags: an abbreviation of --config-file would escape _apply_config_file
    parser = argparse.ArgumentParser(
        prog="bellcert", description="p-value certificates against local realism", allow_abbrev=False
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, optimizer: bool, protocol: bool):
        # each command gets only the shared flags it reads
        if optimizer:
            d = DEFAULT_CONTROLS
            p.add_argument("--tol", type=float, default=d.rel_tolerance, help="optimizer KKT stationarity gap")
            p.add_argument("--max-iter", type=int, default=d.max_iterations, help="optimizer iteration budget")
        if protocol:
            p.add_argument("--floor", type=float, default=DEFAULT_FLOOR, help="fpbr frequency floor on possible settings' results")
            p.add_argument("--block", type=int, default=DEFAULT_BLOCK, help="trials per prediction update")
            p.add_argument("--per-block", action="store_true", help="report one row per block instead of per trial")
        p.add_argument("--out", default=None, help="output file or directory")
        p.add_argument("--config-file", default=None, help="JSON file of defaults for these flags")

    p = sub.add_parser("analyze", help="run protocols on a recorded trial file", allow_abbrev=False)
    p.add_argument("trials_file")
    p.add_argument("--scenario", required=True, help="l,s,d")
    p.add_argument("--functions", default=None, help="comma list of catalog names (default from scenario)")
    p.add_argument("--protocol", default="mart,spbr", help="comma list from mart,spbr,fpbr")
    common(p, optimizer=True, protocol=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="sample a quantum configuration and run protocols", allow_abbrev=False)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="chsh:<theta> or cglmp:<d>")
    source.add_argument("--dist", help="distribution file to sample instead")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=int, default=1, help="number of consecutive seeds to fan out")
    p.add_argument("--functions", default=None, help="comma list of catalog names (default from config)")
    p.add_argument("--protocol", default="mart,spbr,fpbr")
    common(p, optimizer=True, protocol=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gain", help="emit gain-rate tables", allow_abbrev=False)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="single configuration, e.g. cglmp:3")
    source.add_argument("--sweep", choices=["cglmp", "chsh"])
    p.add_argument("--d", help=f"outcome counts for --sweep cglmp (range or comma list; default {SWEEP_VALUES['cglmp'][1]})")
    p.add_argument("--theta", help=f"angles for --sweep chsh (default {SWEEP_VALUES['chsh'][1]})")
    p.add_argument("--with-sq", action="store_true", help="include the optimal (projection) rate")
    p.add_argument("--no-ns", action="store_true", help="skip the no-signaling column on chsh sweeps")
    common(p, optimizer=True, protocol=False)
    p.set_defaults(func=cmd_gain)

    p = sub.add_parser("quantum", help="emit the trial distribution of a named configuration", allow_abbrev=False)
    p.add_argument("--config", required=True, help="chsh:<theta> or cglmp:<d>")
    common(p, optimizer=False, protocol=False)
    p.set_defaults(func=cmd_quantum)

    p = sub.add_parser("catalog", help="list catalog functional names for a scenario", allow_abbrev=False)
    p.add_argument("--scenario", required=True, help="l,s,d")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except ScenarioMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (BellcertError, ValueError, OSError) as exc:  # ValueError includes json.JSONDecodeError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
