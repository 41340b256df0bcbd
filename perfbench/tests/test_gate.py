import json
import math

import pytest

import gate
from gate import RTOL, close, reference_failures, repeat_failures, same_bits

STEP = (3544.7238110414837, 5.6, 5.8, 108.8, 0.0)


def test_identical_runs_pass():
    runs = [[STEP, STEP], [STEP, STEP]]
    assert repeat_failures(runs, [STEP, STEP], 2) == 0


def test_raised_run_fails_every_step():
    runs = [[STEP, STEP], None, [STEP, STEP]]
    assert repeat_failures(runs, [STEP, STEP], 2) == 2


def test_one_bit_difference_fails_the_step():
    nudged = (math.nextafter(STEP[0], math.inf),) + STEP[1:]
    runs = [[STEP, STEP], [STEP, nudged]]
    assert repeat_failures(runs, [STEP, STEP], 2) == 1


def test_negative_zero_is_a_different_bit_pattern():
    assert not same_bits((0.0,), (-0.0,))
    assert same_bits((1.5, 2.0), [1.5, 2.0])


def test_non_finite_step_fails_even_when_repeated():
    bad = (math.nan,) + STEP[1:]
    assert repeat_failures([[bad], [bad]], [bad], 1) == 2


def test_reference_admits_reassociation_noise():
    noisy = tuple(v * (1 + 4e-16) for v in STEP)
    assert close(noisy, STEP)
    assert reference_failures([noisy, noisy], [STEP, STEP]) == 0


def test_reference_rejects_a_visible_change():
    moved = (STEP[0] * (1 + 100 * RTOL),) + STEP[1:]
    assert reference_failures([STEP, moved], [STEP, STEP]) == 1


def test_reference_counts_missing_and_raised_steps():
    assert reference_failures([STEP], [STEP, STEP, STEP]) == 2
    assert reference_failures(None, [STEP, STEP, STEP]) == 3


def test_small_values_compare_on_an_absolute_floor():
    assert close((1e-20,), (0.0,))
    assert not close((1e-9,), (0.0,))


def test_reference_file_must_name_the_gate_seed_and_tolerance(tmp_path,
                                                             monkeypatch):
    assert gate.load_reference()["outputs"]
    path = tmp_path / "reference.json"
    path.write_text(json.dumps({"seed": gate.REFERENCE_SEED, "rtol": 1e-6,
                                "outputs": {}}))
    monkeypatch.setattr(gate, "REFERENCE_PATH", str(path))
    with pytest.raises(gate.BenchError, match="rtol"):
        gate.load_reference()
