"""Fixed-seed studies rerun against their recorded outputs.

The CSVs under tests/data/golden were written by these configurations.  A
rerun must reproduce every header, integer and string cell (masks, sizes,
actions, iterations, seeds) exactly, so a flipped game decision or chosen
mask fails here.  Float cells are held to 1e-12 relative, not to their
bytes: rates go through numpy's log1p, whose last bit may depend on the
numpy build.  Cells carry 12 significant digits, so a value that moves by
far less than that can still round across its last digit; the tolerance
adds one unit of that digit, and takes values below 1 as 1 (a secrecy
rate near zero is a difference of two larger rates).
"""

import csv
import math
from pathlib import Path

import pytest

from pinchsec import ExperimentConfig, run_convergence_study, run_power_sweep, write_outputs

GOLDEN = Path(__file__).parent / "data" / "golden"

ALL_METHODS = ("initial-single-antenna", "shapley", "coalition-value", "brute-force",
               "annealing", "fixed-ula")

STUDIES = {
    "power-sweep-n10": (run_power_sweep,
                        dict(n_antennas=10, methods=ALL_METHODS, master_seed=1, trials=2,
                             sa_steps=2000)),
    "convergence-n12": (run_convergence_study,
                        dict(n_antennas=12, master_seed=1, trials=3)),
}


def _read(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def _cells_match(expected: str, got: str) -> bool:
    try:
        int(expected)
    except ValueError:
        pass
    else:
        return got == expected
    try:
        want = float(expected)
    except ValueError:
        return got == expected
    have = float(got)
    if math.isnan(want) or math.isinf(want):
        return have == want or math.isnan(have) and math.isnan(want)
    last_digit = 10.0 ** (math.floor(math.log10(abs(want))) - 11) if want else 0.0
    return abs(have - want) <= 1e-12 * max(abs(want), 1.0) + last_digit


@pytest.mark.parametrize("study", sorted(STUDIES))
def test_study_reproduces_its_golden_rows(study, tmp_path):
    run, kwargs = STUDIES[study]
    config = ExperimentConfig(out_dir=str(tmp_path), **kwargs)
    write_outputs(run(config), config)
    expected_files = sorted(p.name for p in (GOLDEN / study).glob("*.csv"))
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == expected_files
    for name in expected_files:
        expected = _read(GOLDEN / study / name)
        got = _read(tmp_path / name)
        assert got[0] == expected[0], name
        assert len(got) == len(expected), name
        for line, (want_row, got_row) in enumerate(zip(expected[1:], got[1:]), start=2):
            assert len(got_row) == len(want_row), (name, line)
            for column, want, have in zip(expected[0], want_row, got_row):
                assert _cells_match(want, have), (name, line, column, want, have)


@pytest.mark.parametrize("expected, got, same", [
    ("2867", "2867", True),
    ("2867", "2866", False),
    ("merge", "split", False),
    ("10.5037924712", "10.5037924712", True),
    ("10.5037924712", "10.5037924713", True),
    ("10.5037924712", "10.5037924714", False),
    ("-0.827426100491", "-0.82742610049", True),
    ("-0.827426100491", "-0.827426100485", False),
    ("0.0930837347869", "0.093083734787", True),
    ("0.0930837347869", "0.0930837347919", False),
    ("nan", "nan", True),
    ("nan", "1", False),
    ("-inf", "-inf", True),
    ("1", "1.0", False),
])
def test_cell_comparison(expected, got, same):
    assert _cells_match(expected, got) is same
