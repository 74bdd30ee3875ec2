"""Command line front end.

Four subcommands: power-sweep, antenna-sweep, convergence, and single-drop.
The sweep commands write raw_rows.csv / aggregate.csv (plus trace.csv for
convergence runs) into --out; single-drop prints one trial's channels,
game trace, and payoffs for eyeballing.
"""

import argparse
import sys
from dataclasses import fields

import numpy as np

from . import coalitions
from .coalitions import ENUMERATION_CAP
from .game import payoff_reports
from .harness import (_INI_FIELDS, METHODS, ExperimentConfig, apply_overrides, build_trial,
                      config_from_ini, run_antenna_sweep,
                      run_convergence_study, run_power_sweep, write_outputs)


# a flag's dest is the ExperimentConfig field it sets; --config and --trial set none
_FIELDS = {f.name for f in fields(ExperimentConfig)}
_PARSE = {entry.name: entry.parse for entry in _INI_FIELDS}


def _build_config(args) -> ExperimentConfig:
    config = config_from_ini(args.config) if args.config else ExperimentConfig()
    config = apply_overrides(config, **{name: value for name, value in vars(args).items()
                                        if name in _FIELDS})
    if config.out_dir is None and args.command != "single-drop":
        config = apply_overrides(config, out_dir=f"results/{args.command}")
    return config


def _print_summary(result, paths):
    by_point = {}
    for row in result.rows:
        key = (row.method, row.sweep_value)
        by_point.setdefault(key, []).append(row.secrecy_rate)
    print("mean secrecy rate by (method, sweep value):")
    for (method, sweep_value), values in sorted(by_point.items()):
        print(f"  {method:24s} {sweep_value:8.3f}  {sum(values) / len(values):10.5f}"
              f"  ({len(values)} trials)")
    for name, path in paths.items():
        print(f"wrote {name}: {path}")


def _cmd_study(args) -> int:
    config = _build_config(args)
    result = args.study(config)
    _print_summary(result, write_outputs(result, config))
    return 0


def _cmd_single_drop(args) -> int:
    config = _build_config(args)
    scenario = config.scenario
    n = config.n_antennas
    power = config.power_dbm
    trial = build_trial(config, 0, args.trial, n, power)
    drop = trial.drop

    print(f"seed {config.master_seed}, trial {args.trial}: "
          f"N={n}, P_t={power:g} dBm, noise {scenario.noise_power_dbm:g} dBm")
    print(f"  bob at ({drop.bob[0]:.4f}, {drop.bob[1]:+.4f}, 0)")
    print(f"  eve at ({drop.eve[0]:.4f}, {drop.eve[1]:+.4f}, 0)")
    print()
    print("   n     x_n      |h_bob|   arg_bob     |h_eve|   arg_eve")
    for i, x in enumerate(trial.layout.positions_x):
        hb = trial.bob_channels[i]
        he = trial.eve_channels[i]
        print(f"  {i:2d}  {x:7.4f}  {abs(hb):.4e}  {np.angle(hb):+8.4f}"
              f"  {abs(he):.4e}  {np.angle(he):+8.4f}")
    print()

    start = METHODS["initial-single-antenna"].run(trial)
    print(f"initial antenna {start.mask.bit_length() - 1} (closest to bob): "
          f"secrecy {start.secrecy_rate:.6f}  (bob {start.bob_rate:.6f}, eve {start.eve_rate:.6f})")
    game = METHODS["shapley"].run(trial)
    trace = game.trace
    print(f"payoff-driven activation ({'converged' if trace.converged else 'cycle cap hit'}, "
          f"{trace.cycles_used} cycles, {len(trace.steps)} antenna examinations):")
    for step in trace.steps:
        if step.action != "none":
            print(f"  cycle {step.cycle}: antenna {step.antenna} {step.action:5s} "
                  f"-> {{{', '.join(str(m) for m in coalitions.members(step.coalition))}}}"
                  f"  v={step.value:.6f}")
    print(f"  final coalition {sorted(coalitions.members(game.mask))}: "
          f"secrecy {game.secrecy_rate:.6f}  (bob {game.bob_rate:.6f}, eve {game.eve_rate:.6f})")
    print("  payoffs at the final coalition:")
    for report in payoff_reports(trial.evaluator, game.mask, n):
        where = "in " if report.in_coalition else "out"
        print(f"    antenna {report.antenna:2d} [{where}] {report.kind:8s} {report.payoff:+.6f}")

    greedy = METHODS["coalition-value"].run(trial)
    print(f"value-driven activation: coalition {sorted(coalitions.members(greedy.mask))} "
          f"secrecy {greedy.secrecy_rate:.6f}")
    if n <= ENUMERATION_CAP:
        best = METHODS["brute-force"].run(trial)
        print(f"exhaustive optimum: coalition {sorted(coalitions.members(best.mask))} "
              f"secrecy {best.secrecy_rate:.6f}  (bob {best.bob_rate:.6f}, eve {best.eve_rate:.6f})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinchsec",
        description="Monte Carlo secrecy-rate experiments for pinching-antenna "
                    "activation along a dielectric waveguide.")

    def flag(target, option, name, **kwargs):
        """An option that sets config field name, parsed as the INI reader parses it."""
        target.add_argument(option, dest=name, type=_PARSE[name], **kwargs)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="INI config file")
    flag(common, "--seed", "master_seed", metavar="U64", help="master seed")
    flag(common, "--antennas", "n_antennas", metavar="N",
         help="antenna count for fixed-N studies")
    # what only a study uses; single-drop refuses these flags
    study = argparse.ArgumentParser(add_help=False, parents=[common])
    flag(study, "--trials", "trials", metavar="N")
    flag(study, "--workers", "workers", metavar="N", help="process pool size")
    flag(study, "--out", "out_dir", metavar="DIR", help="output directory")
    flag(study, "--sa-steps", "sa_steps", metavar="N")
    flag(study, "--sa-temperature", "sa_initial_temperature", metavar="T")
    study.add_argument("--timing", action="store_true", default=None,
                       help="also write per-row wall times (timings.csv)")
    # convergence always runs the two games and its reference
    sweep = argparse.ArgumentParser(add_help=False, parents=[study])
    flag(sweep, "--methods", "methods", metavar="LIST",
         help="comma separated subset of: " + ", ".join(METHODS))

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("power-sweep", parents=[sweep],
                       help="secrecy rate vs transmit power")
    flag(p, "--powers", "power_dbm_axis", metavar="LIST", help="dBm values, comma separated")
    p.set_defaults(entry=_cmd_study, study=run_power_sweep)

    p = sub.add_parser("antenna-sweep", parents=[sweep],
                       help="secrecy rate vs antenna count")
    flag(p, "--antenna-counts", "antenna_axis", metavar="LIST", help="comma separated counts")
    flag(p, "--power", "power_dbm", metavar="DBM", help="fixed transmit power")
    p.set_defaults(entry=_cmd_study, study=run_antenna_sweep)

    p = sub.add_parser("convergence", parents=[study],
                       help="game trajectories vs the exhaustive optimum")
    flag(p, "--power", "convergence_power_dbm", metavar="DBM", help="fixed transmit power")
    p.set_defaults(entry=_cmd_study, study=run_convergence_study)

    p = sub.add_parser("single-drop", parents=[common],
                       help="print channels, trace, and payoffs for one trial")
    flag(p, "--power", "power_dbm", metavar="DBM", help="transmit power")
    p.add_argument("--trial", type=int, default=0, metavar="N")
    p.set_defaults(entry=_cmd_single_drop)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.entry(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
