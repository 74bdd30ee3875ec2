"""Independent checks of a study's written outputs.

Nothing here calls into pinchsec's model code.  Drops are rebuilt from the
documented seeding, ``default_rng(SeedSequence([master_seed, sweep_idx,
trial]))``, channels from the model formula in the README, and rates,
payoffs and exhaustive optima from the benchmark's own arithmetic.  The
checks read the CSV files that ``write_outputs`` produced, so they cover
the formatting as well as the numbers.

Every check appends a message to a list of failures; an empty list means
the outputs passed.
"""

import csv
import math
from pathlib import Path

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0
TWO_PI = 2.0 * math.pi
INV_LN2 = 1.0 / math.log(2.0)

# CSV cells carry 12 significant digits; 1e-9 relative is far above that
# rounding and far below a 1e-6 nudge
REL_TOL = 1e-9

RAW_INT = ("trial", "seed", "coalition_mask", "coalition_size", "iterations")
TRACE_INT = ("trial", "cycle", "step", "antenna", "coalition_mask", "coalition_size")
AGG_INT = ("trials",)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def _typed(row: dict, ints, strs=("method", "action", "reference_method")) -> dict:
    out = {}
    for key, cell in row.items():
        if key in strs:
            out[key] = cell
        elif key in ints:
            out[key] = int(cell)
        else:
            out[key] = float(cell)
    return out


def read_table(path: Path, ints) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return [_typed(row, ints) for row in csv.DictReader(handle)]


def load_outputs(out_dir) -> dict:
    """Parsed raw, aggregate and (if written) trace tables of one study."""
    out_dir = Path(out_dir)
    tables = {"raw": read_table(out_dir / "raw_rows.csv", RAW_INT),
              "aggregate": read_table(out_dir / "aggregate.csv", AGG_INT),
              "trace": []}
    if (out_dir / "trace.csv").exists():
        tables["trace"] = read_table(out_dir / "trace.csv", TRACE_INT)
    return tables


# --- the model, written from the README ------------------------------------

class Model:
    """Channels and rates of one study configuration."""

    def __init__(self, config, n_antennas: int):
        sc = config.scenario
        self.scenario = sc
        self.n = n_antennas
        self.lam = SPEED_OF_LIGHT / sc.carrier_frequency
        self.lam_g = self.lam / sc.effective_refractive_index
        self.eta = self.lam / (4.0 * math.pi)
        self.xs = np.linspace(0.0, sc.waveguide_length, n_antennas)
        half = sc.region_y / 2.0
        self.y_lo, self.y_hi = (0.0, sc.region_y) if sc.one_sided_region else (-half, half)
        self.noise_w = 10.0 ** ((sc.noise_power_dbm - 30.0) / 10.0)

    def drop(self, master_seed: int, sweep_idx: int, trial: int):
        seq = np.random.SeedSequence([master_seed, sweep_idx, trial])
        rng = np.random.default_rng(seq)
        sc = self.scenario
        bob = (rng.uniform(0.0, sc.region_x), rng.uniform(self.y_lo, self.y_hi), 0.0)
        eve = (rng.uniform(0.0, sc.region_x), rng.uniform(self.y_lo, self.y_hi), 0.0)
        return int(seq.generate_state(1, np.uint64)[0]), bob, eve

    def channels(self, point) -> np.ndarray:
        """h_n = eta/dist * exp(-j (2 pi dist / lambda + 2 pi feed_n / lambda_g))."""
        x, y, z = point
        d = self.scenario.waveguide_height
        dist = np.sqrt((x - self.xs) ** 2 + y ** 2 + (z - d) ** 2)
        feed = np.abs(self.scenario.feed_point_x - self.xs)
        phase = TWO_PI * dist / self.lam + TWO_PI * feed / self.lam_g
        return (self.eta / dist) * np.exp(-1j * phase)

    def ula_channels(self, point) -> np.ndarray:
        """Half-wavelength array at the region centre, waveguide height, no feed phase."""
        x, y, z = point
        sc = self.scenario
        xs = sc.region_x / 2.0 + (np.arange(self.n) - (self.n - 1) / 2.0) * (self.lam / 2.0)
        dist = np.sqrt((x - xs) ** 2 + y ** 2 + (z - sc.waveguide_height) ** 2)
        return (self.eta / dist) * np.exp(-1j * TWO_PI * dist / self.lam)

    def rate(self, coeff_sum: complex, k: int, power_dbm: float) -> float:
        rho = 10.0 ** ((power_dbm - 30.0) / 10.0) / (k * self.noise_w)
        return math.log1p(rho * abs(coeff_sum) ** 2) * INV_LN2

    def rates(self, hb, he, mask: int, power_dbm: float) -> tuple[float, float]:
        on = [n for n in range(self.n) if mask >> n & 1]
        k = len(on)
        return (self.rate(complex(hb[on].sum()), k, power_dbm),
                self.rate(complex(he[on].sum()), k, power_dbm))

    def subset_values(self, hb, he, antennas, power_dbm: float):
        """v over every subset of ``antennas`` by local bit mask, v(empty) = 0, and subset sizes."""
        bits = _bits(len(antennas))
        sizes = bits.sum(axis=1)
        values = self._values(bits @ hb[antennas], bits @ he[antennas], sizes, power_dbm)
        values[0] = 0.0
        return values, sizes.astype(np.int64)

    def exhaustive_optimum(self, hb, he, power_dbm: float, chunk_bits: int = 14) -> float:
        """Best v over all nonempty masks, in chunks of 2^chunk_bits masks to bound memory."""
        low = min(chunk_bits, self.n)
        bits = _bits(low)
        sums_b, sums_e, sizes = bits @ hb[:low], bits @ he[:low], bits.sum(axis=1)
        best = -math.inf
        for high in range(1 << (self.n - low)):
            on = [low + i for i in range(self.n - low) if high >> i & 1]
            values = self._values(sums_b + hb[on].sum(), sums_e + he[on].sum(),
                                  sizes + len(on), power_dbm)
            if high == 0:
                values[0] = -math.inf
            best = max(best, float(values.max()))
        return best

    def _values(self, sums_b, sums_e, sizes, power_dbm: float) -> np.ndarray:
        """Secrecy rates from coefficient sums; an empty subset gets a finite dummy."""
        rho = 10.0 ** ((power_dbm - 30.0) / 10.0) / (np.maximum(sizes, 1.0) * self.noise_w)
        return (np.log1p(rho * np.abs(sums_b) ** 2) - np.log1p(rho * np.abs(sums_e) ** 2)) * INV_LN2


def _bits(m: int) -> np.ndarray:
    """Row s holds the bits of s, as floats: the membership matrix of all 2^m subsets."""
    return ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1).astype(np.float64)


def shapley(values: np.ndarray, sizes: np.ndarray, i: int) -> float:
    """Exact payoff of local member i in the coalition whose subset values are given."""
    m = int(sizes[-1])
    subsets = np.flatnonzero((np.arange(values.size) >> i & 1) == 0)
    weights = np.array([math.factorial(k) * math.factorial(m - k - 1) / math.factorial(m)
                        for k in range(m)])
    return math.fsum(weights[sizes[subsets]] * (values[subsets | (1 << i)] - values[subsets]))


def nash_violations(model: Model, hb, he, mask: int, power_dbm: float) -> list[str]:
    """Antennas that strictly gain by joining or leaving, beyond rounding."""
    members = [n for n in range(model.n) if mask >> n & 1]
    inside, sizes = model.subset_values(hb, he, members, power_dbm)
    v_s = inside[-1]
    k = len(members)
    out = []
    for i, n in enumerate(members):
        if k == 1:
            break
        leave = inside[((1 << k) - 1) ^ (1 << i)] - v_s
        payoff = shapley(inside, sizes, i)
        if leave > payoff + REL_TOL * max(1.0, abs(payoff)):
            out.append(f"member {n} gains {leave - payoff:.3g} by leaving {mask:#x}")
    for n in range(model.n):
        if mask >> n & 1:
            continue
        joined = sorted(members + [n])
        table, table_sizes = model.subset_values(hb, he, joined, power_dbm)
        payoff = shapley(table, table_sizes, joined.index(n))
        stay = v_s - table[-1]
        if payoff > stay + REL_TOL * max(1.0, abs(stay)):
            out.append(f"outsider {n} gains {payoff - stay:.3g} by joining {mask:#x}")
    return out


# --- the checks -------------------------------------------------------------

def check_study(kind: str, config, tables: dict, deep_trials=(), exhaustive_trials=()) -> list[str]:
    """Every check on one study's outputs.

    ``deep_trials`` lists (sweep_idx, trial) pairs whose shapley coalition
    is tested for Nash stability (and whose trace values are recomputed);
    ``exhaustive_trials`` lists those checked against the benchmark's own
    2^N optimum.
    """
    failures: list[str] = []
    raw = tables["raw"]
    if kind == "power":
        points = [float(p) for p in config.power_dbm_axis]
        methods = set(config.methods)
    else:
        points = [float(config.convergence_power_dbm)]
        reference = "brute-force" if config.n_antennas <= 24 else "annealing"
        methods = {"shapley", "coalition-value", reference}
    model = Model(config, config.n_antennas)
    full = (1 << model.n) - 1

    expected = {(m, p, t) for m in methods for p in points for t in range(config.trials)}
    seen = [(r["method"], r["sweep_value"], r["trial"]) for r in raw]
    if len(seen) != len(set(seen)) or set(seen) != expected:
        failures.append(f"raw rows cover {len(set(seen))} of {len(expected)} "
                        f"(method, point, trial) keys, {len(seen)} rows")
        return failures

    cache = {}

    def trial_state(j: int, t: int):
        if (j, t) not in cache:
            fingerprint, bob, eve = model.drop(config.master_seed, j, t)
            cache[j, t] = (fingerprint, bob, eve, model.channels(bob), model.channels(eve))
        return cache[j, t]

    by_trial = {}
    for r in raw:
        j = points.index(r["sweep_value"])
        t = r["trial"]
        by_trial.setdefault((j, t), {})[r["method"]] = r
        fingerprint, bob, eve, hb, he = trial_state(j, t)
        where = f"{r['method']} point {j} trial {t}"
        power = points[j]
        mask = r["coalition_mask"]
        if r["seed"] != fingerprint:
            failures.append(f"{where}: seed {r['seed']} != {fingerprint}")
        if not 0 < mask <= full:
            failures.append(f"{where}: mask {mask} out of range")
            continue
        if r["coalition_size"] != mask.bit_count():
            failures.append(f"{where}: size {r['coalition_size']} != popcount {mask.bit_count()}")
        if r["method"] == "fixed-ula":
            if mask != full:
                failures.append(f"{where}: fixed array mask {mask:#x} is not full")
            rb = model.rate(complex(model.ula_channels(bob).sum()), model.n, power)
            re = model.rate(complex(model.ula_channels(eve).sum()), model.n, power)
        else:
            rb, re = model.rates(hb, he, mask, power)
        if r["method"] == "initial-single-antenna":
            closest = int(np.argmin(np.abs(model.xs - bob[0])))
            if mask != 1 << closest:
                failures.append(f"{where}: start {mask:#x} is not antenna {closest}")
        if not close(r["bob_rate"], rb):
            failures.append(f"{where}: bob_rate {r['bob_rate']!r} != {rb!r}")
        if not close(r["eve_rate"], re):
            failures.append(f"{where}: eve_rate {r['eve_rate']!r} != {re!r}")
        secrecy = r["bob_rate"] - r["eve_rate"]
        if not close(r["secrecy_rate"], secrecy):
            failures.append(f"{where}: secrecy_rate {r['secrecy_rate']!r} != bob - eve {secrecy!r}")
        if r["secrecy_rate_clamped"] != max(r["secrecy_rate"], 0.0):
            failures.append(f"{where}: clamped {r['secrecy_rate_clamped']!r} != max(secrecy, 0)")

    if kind == "convergence":
        failures += _check_convergence(by_trial, reference)
        failures += _check_trace(tables["trace"], by_trial, trial_state, model, points,
                                 {t for _, t in deep_trials})
        for j, t in exhaustive_trials:
            _, _, _, hb, he = trial_state(j, t)
            best = model.exhaustive_optimum(hb, he, points[j])
            rows = by_trial[j, t]
            if not close(rows[reference]["secrecy_rate"], best):
                failures.append(f"trial {t}: exhaustive optimum {rows[reference]['secrecy_rate']!r}"
                                f" != benchmark's {best!r}")
            for m, r in rows.items():
                if r["secrecy_rate"] > best and not close(r["secrecy_rate"], best):
                    failures.append(f"{m} trial {t}: {r['secrecy_rate']!r} above the optimum {best!r}")

    for j, t in deep_trials:
        _, _, _, hb, he = trial_state(j, t)
        mask = by_trial[j, t]["shapley"]["coalition_mask"]
        failures += [f"shapley point {j} trial {t}: {msg}"
                     for msg in nash_violations(model, hb, he, mask, points[j])]

    failures += _check_aggregate(raw, tables["aggregate"])
    return failures


def _check_convergence(by_trial, reference) -> list[str]:
    failures = []
    for (j, t), rows in by_trial.items():
        opt = rows[reference]["secrecy_rate"]
        for m, r in rows.items():
            if r["reference_method"] != reference or r["optimum_value"] != opt:
                failures.append(f"{m} trial {t}: reference {r['reference_method']} "
                                f"{r['optimum_value']!r}, expected {reference} {opt!r}")
            ratio = r["secrecy_rate"] / opt if opt > 0.0 else math.nan
            if not (math.isnan(ratio) and math.isnan(r["optimum_ratio"])
                    or close(r["optimum_ratio"], ratio)):
                failures.append(f"{m} trial {t}: optimum_ratio {r['optimum_ratio']!r} != {ratio!r}")
            if reference == "brute-force" and r["secrecy_rate"] > opt and not close(r["secrecy_rate"], opt):
                failures.append(f"{m} trial {t}: {r['secrecy_rate']!r} above the optimum {opt!r}")
    return failures


def _check_trace(trace, by_trial, trial_state, model, points, deep) -> list[str]:
    failures = []
    steps = {}
    for s in trace:
        steps.setdefault((s["method"], s["trial"]), []).append(s)
    for (j, t), rows in by_trial.items():
        for m in ("shapley", "coalition-value"):
            run = steps.get((m, t), [])
            row = rows[m]
            where = f"{m} trial {t} trace"
            if not run or [s["step"] for s in run] != list(range(1, len(run) + 1)):
                failures.append(f"{where}: steps are not 1..{len(run)}")
                continue
            if len(run) != row["iterations"] or run[-1]["coalition_mask"] != row["coalition_mask"]:
                failures.append(f"{where}: ends at {run[-1]['coalition_mask']:#x} after {len(run)} "
                                f"steps, row says {row['coalition_mask']:#x} after {row['iterations']}")
            for s in run:
                if s["coalition_size"] != s["coalition_mask"].bit_count():
                    failures.append(f"{where} step {s['step']}: size != popcount")
            if m == "coalition-value":
                for a, b in zip(run, run[1:]):
                    if b["value"] < a["value"]:
                        failures.append(f"{where} step {b['step']}: value fell "
                                        f"{a['value']!r} -> {b['value']!r}")
            if t in deep:
                _, _, _, hb, he = trial_state(j, t)
                for s in run:
                    rb, re = model.rates(hb, he, s["coalition_mask"], points[j])
                    if not close(s["value"], rb - re):
                        failures.append(f"{where} step {s['step']}: value {s['value']!r} != {rb - re!r}")
    return failures


def _check_aggregate(raw, aggregate) -> list[str]:
    groups = {}
    for r in raw:
        groups.setdefault((r["method"], r["sweep_value"]), []).append(r)
    failures = []
    if len(aggregate) != len(groups):
        failures.append(f"aggregate has {len(aggregate)} rows for {len(groups)} groups")
    columns = {"secrecy_mean": "secrecy_rate", "secrecy_clamped_mean": "secrecy_rate_clamped",
               "bob_rate_mean": "bob_rate", "eve_rate_mean": "eve_rate",
               "coalition_size_mean": "coalition_size", "iterations_mean": "iterations"}
    for a in aggregate:
        rows = groups.get((a["method"], a["sweep_value"]), [])
        if a["trials"] != len(rows):
            failures.append(f"aggregate {a['method']} {a['sweep_value']}: trials {a['trials']} != {len(rows)}")
            continue
        for col, src in columns.items():
            mean = math.fsum(r[src] for r in rows) / len(rows)
            if not close(a[col], mean):
                failures.append(f"aggregate {a['method']} {a['sweep_value']}: {col} {a[col]!r} != {mean!r}")
    return failures


def self_test(kind: str, config, tables: dict) -> list[str]:
    """The checker must pass these outputs and fail two corrupted copies."""
    problems = []
    if check_study(kind, config, tables):
        problems.append("checker fails the untouched outputs")
    target = next(i for i, r in enumerate(tables["raw"]) if r["method"] == "shapley")
    for label, field, change in (("bob_rate nudged by 1e-6", "bob_rate", lambda x: x + 1e-6),
                                 ("one mask bit flipped", "coalition_mask", lambda x: x ^ 1)):
        raw = [dict(r) for r in tables["raw"]]
        raw[target][field] = change(raw[target][field])
        if not check_study(kind, config, {**tables, "raw": raw}):
            problems.append(f"checker passes outputs with {label}")
    return problems
