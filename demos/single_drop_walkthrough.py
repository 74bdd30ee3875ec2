"""One random drop, examined end to end.

Samples a user/eavesdropper pair, prints the per-antenna channels, walks
the payoff-driven activation to its stable coalition, and compares the
result against the value-driven scan and the exhaustive optimum.
"""

import numpy as np

from pinchsec import (
    LinkBudget,
    Scenario,
    SecrecyEvaluator,
    brute_force_secrecy_optimum,
    channel_vector,
    coalitions,
    payoff_reports,
    run_activation,
    coalition_value_activation,
    sample_drop,
    uniform_layout,
)

N_ANTENNAS = 8
POWER_DBM = 10.0
SEED = 2024


def main():
    scenario = Scenario()
    layout = uniform_layout(scenario, N_ANTENNAS)
    drop = sample_drop(scenario, np.random.default_rng(SEED))
    budget = LinkBudget.from_scenario(scenario, POWER_DBM)
    bob = channel_vector(scenario, layout, drop.bob)
    eve = channel_vector(scenario, layout, drop.eve)
    v = SecrecyEvaluator(bob, eve, budget)

    print(f"user at ({drop.bob[0]:.3f}, {drop.bob[1]:+.3f}), "
          f"eavesdropper at ({drop.eve[0]:.3f}, {drop.eve[1]:+.3f})")
    print(f"{N_ANTENNAS} antennas at x = {', '.join(f'{x:.2f}' for x in layout.positions_x)}")
    print()
    print("   n      |h_user|    |h_eve|   v({n})")
    for n in range(N_ANTENNAS):
        print(f"  {n:2d}    {abs(bob[n]):.3e}  "
              f"{abs(eve[n]):.3e}  {v(1 << n):+8.4f}")

    mask, trace = run_activation(v, layout, drop.bob)
    print()
    print(f"payoff-driven scan, {trace.cycles_used} cycles"
          f" ({'converged' if trace.converged else 'cycle cap hit'}):")
    for step in trace.steps:
        if step.action != "none":
            print(f"  cycle {step.cycle}: antenna {step.antenna} {step.action}s, "
                  f"coalition {sorted(coalitions.members(step.coalition))}, "
                  f"secrecy {step.value:+.4f}")
    print(f"  stable coalition {sorted(coalitions.members(mask))}: secrecy {v(mask):+.4f}")

    print()
    print("payoffs at the stable coalition:")
    for report in payoff_reports(v, mask, N_ANTENNAS):
        side = "in " if report.in_coalition else "out"
        print(f"  antenna {report.antenna:2d} [{side}] {report.kind:8s} {report.payoff:+.4f}")

    cv_mask, _ = coalition_value_activation(v, layout, drop.bob)
    best_mask, best_value, _, _ = brute_force_secrecy_optimum(bob, eve, budget)
    print()
    print(f"value-driven scan:     {sorted(coalitions.members(cv_mask))} "
          f"secrecy {v(cv_mask):+.4f}")
    print(f"exhaustive optimum:    {sorted(coalitions.members(best_mask))} "
          f"secrecy {best_value:+.4f}")
    print(f"payoff-driven reaches {v(mask) / best_value:.1%} of the optimum")


if __name__ == "__main__":
    main()
