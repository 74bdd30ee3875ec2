"""Two antennas, one receiver sliding across the floor.

The combined channel magnitude oscillates between the sum and the
difference of the individual magnitudes as the pairwise phase gap sweeps
through 0 and pi.  Prints a coarse profile plus the sharpest peak and
null found on a fine grid.
"""

import numpy as np

from pinchsec import AntennaLayout, Scenario, channel_vector, wavelengths

scenario = Scenario()
layout = AntennaLayout((0.0, 1.0))
Y = 0.5


def combined(x):
    h0, h1 = channel_vector(scenario, layout, (x, Y, 0.0))
    return h0, h1, abs(h0 + h1)


def phase_gap(h0, h1):
    """Total phase of antenna 0 minus that of antenna 1, reduced to [0, 2*pi).

    h_n carries exp(-j * phi_n), so h1 * conj(h0) has the angle phi_0 - phi_1.
    """
    return float(np.angle(h1 * np.conj(h0))) % (2.0 * np.pi)


def main():
    print("x [m]   gap [rad]   |h0+h1|      |h0|+|h1|")
    for i in range(13):
        x = 2.0 + i * 0.5
        h0, h1, mag = combined(x)
        print(f"{x:5.2f}   {phase_gap(h0, h1):9.4f}   {mag:.4e}   {abs(h0) + abs(h1):.4e}")

    # the gap wraps every few millimetres at 28 GHz, so hunt on a fine grid
    samples = [combined(2.0 + k * 1e-4) for k in range(60001)]

    def alignment(sample):
        h0, h1, mag = sample
        return mag / (abs(h0) + abs(h1))

    h0, h1, mag = max(samples, key=alignment)
    print()
    print(f"sharpest peak: |h0+h1| = {mag:.4e} vs |h0|+|h1| = {abs(h0) + abs(h1):.4e} "
          f"({mag / (abs(h0) + abs(h1)):.6f} of the additive bound)")
    h0, h1, mag = min(samples, key=alignment)
    print(f"deepest null:  |h0+h1| = {mag:.4e} vs ||h0|-|h1|| = "
          f"{abs(abs(h0) - abs(h1)):.4e}")
    print()
    print(f"free-space wavelength {wavelengths(scenario).free_space:.6f} m: peaks "
          f"and nulls alternate on a millimetre scale")


if __name__ == "__main__":
    main()
