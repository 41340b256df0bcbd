import gc

import pytest

import pace

REF = pace.REFERENCE_PROBE_S


def test_steps_at_reference_speed_keep_their_time():
    probes = [(t + 0.5, REF) for t in range(10)]
    assert pace.paced([(2.0, 3.0), (5.0, 5.5)], probes) == [1.0, 0.5]
    assert pace.scale(probes) == 1.0


def test_a_slow_phase_is_scaled_away():
    # the machine runs at half speed from t = 10 on: probes and steps both
    # take twice as long there
    probes = [(t + 0.5, REF if t < 10 else 2 * REF) for t in range(20)]
    steps = [(1.0, 2.0), (15.0, 17.0)]
    assert pace.paced(steps, probes) == [1.0, 1.0]


def test_a_step_takes_the_median_of_its_neighbours():
    # one outlying probe beside the step does not move its scale
    probes = [(t + 0.5, REF) for t in range(10)]
    probes[5] = (5.5, 10 * REF)
    assert pace.scale_at(probes, 5.2) == 1.0


@pytest.mark.parametrize("t, factor", [(-5.0, 1.0), (100.0, 0.25)])
def test_steps_outside_the_probes_use_the_nearest(t, factor):
    probes = [(float(i), REF * 2 ** (i // 4)) for i in range(12)]
    assert pace.scale_at(probes, t) == factor


def test_probe_leaves_the_collector_as_it_found_it():
    pace.probe()
    before = gc.get_count()[0], gc.isenabled()
    pace.probe()
    assert (gc.get_count()[0], gc.isenabled()) == before
