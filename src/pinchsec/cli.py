"""Command line front end.

Four subcommands: power-sweep, antenna-sweep, convergence, and single-drop.
The sweep commands write raw_rows.csv / aggregate.csv (plus trace.csv for
convergence runs) into --out; single-drop prints one trial's channels,
game trace, and payoffs for eyeballing.
"""

import argparse
import sys

import numpy as np

from . import coalitions
from .coalitions import ENUMERATION_CAP
from .game import payoff_reports
from .harness import (METHODS, ExperimentConfig, apply_overrides, build_trial,
                      config_from_ini, run_antenna_sweep,
                      run_convergence_study, run_power_sweep, write_outputs)


def _parse_floats(text: str) -> tuple:
    return tuple(float(piece) for piece in text.split(",") if piece.strip())


def _parse_ints(text: str) -> tuple:
    return tuple(int(piece) for piece in text.split(",") if piece.strip())


def _build_config(args, command: str) -> ExperimentConfig:
    config = config_from_ini(args.config) if args.config else ExperimentConfig()
    # the sweep flags are absent from single-drop's namespace
    overrides = {
        "master_seed": args.seed,
        "trials": getattr(args, "trials", None),
        "workers": getattr(args, "workers", None),
        "out_dir": getattr(args, "out", None),
        "n_antennas": args.antennas,
        "sa_steps": getattr(args, "sa_steps", None),
        "sa_initial_temperature": getattr(args, "sa_temperature", None),
        "timing": True if getattr(args, "timing", False) else None,
    }
    if getattr(args, "methods", None) is not None:
        overrides["methods"] = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    if getattr(args, "powers", None) is not None:
        overrides["power_dbm_axis"] = _parse_floats(args.powers)
    if getattr(args, "antenna_counts", None) is not None:
        overrides["antenna_axis"] = _parse_ints(args.antenna_counts)
    power = getattr(args, "power", None)
    if power is not None:
        if command == "convergence":
            overrides["convergence_power_dbm"] = power
        else:
            overrides["power_dbm"] = power
    config = apply_overrides(config, **overrides)
    if config.out_dir is None and command != "single-drop":
        config = apply_overrides(config, out_dir=f"results/{command}")
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
    config = _build_config(args, args.command)
    result = args.study(config)
    _print_summary(result, write_outputs(result, config))
    return 0


def _cmd_single_drop(args) -> int:
    config = _build_config(args, "single-drop")
    scenario = config.scenario
    n = config.n_antennas
    power = config.power_dbm if args.power is None else args.power
    trial = build_trial(config, 0, args.trial, n, power)
    drop = trial.drop

    print(f"seed {config.master_seed}, trial {args.trial}: "
          f"N={n}, P_t={power:g} dBm, noise {scenario.noise_power_dbm:g} dBm")
    print(f"  bob at ({drop.bob[0]:.4f}, {drop.bob[1]:+.4f}, 0)")
    print(f"  eve at ({drop.eve[0]:.4f}, {drop.eve[1]:+.4f}, 0)")
    print()
    print("   n     x_n      |h_bob|   arg_bob     |h_eve|   arg_eve")
    for i, x in enumerate(trial.layout.positions_x):
        hb = trial.bob_channels.coefficients[i]
        he = trial.eve_channels.coefficients[i]
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
    for report in payoff_reports(trial.evaluator, game.mask, n, cap=config.shapley_cap):
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="INI config file")
    common.add_argument("--seed", type=int, metavar="U64", help="master seed")
    common.add_argument("--antennas", type=int, metavar="N",
                        help="antenna count for fixed-N studies")
    # what only a study uses; single-drop refuses these flags
    sweep = argparse.ArgumentParser(add_help=False, parents=[common])
    sweep.add_argument("--trials", type=int, metavar="N")
    sweep.add_argument("--workers", type=int, metavar="N", help="process pool size")
    sweep.add_argument("--out", metavar="DIR", help="output directory")
    sweep.add_argument("--methods", metavar="LIST",
                       help="comma separated subset of: " + ", ".join(METHODS))
    sweep.add_argument("--sa-steps", type=int, dest="sa_steps", metavar="N")
    sweep.add_argument("--sa-temperature", type=float, dest="sa_temperature", metavar="T")
    sweep.add_argument("--timing", action="store_true",
                       help="also write per-row wall times (timings.csv)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("power-sweep", parents=[sweep],
                       help="secrecy rate vs transmit power")
    p.add_argument("--powers", metavar="LIST", help="dBm values, comma separated")
    p.set_defaults(entry=_cmd_study, study=run_power_sweep)

    p = sub.add_parser("antenna-sweep", parents=[sweep],
                       help="secrecy rate vs antenna count")
    p.add_argument("--antenna-counts", metavar="LIST", help="comma separated counts")
    p.add_argument("--power", type=float, metavar="DBM", help="fixed transmit power")
    p.set_defaults(entry=_cmd_study, study=run_antenna_sweep)

    p = sub.add_parser("convergence", parents=[sweep],
                       help="game trajectories vs the exhaustive optimum")
    p.add_argument("--power", type=float, metavar="DBM", help="fixed transmit power")
    p.set_defaults(entry=_cmd_study, study=run_convergence_study)

    p = sub.add_parser("single-drop", parents=[common],
                       help="print channels, trace, and payoffs for one trial")
    p.add_argument("--power", type=float, metavar="DBM", help="transmit power")
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
