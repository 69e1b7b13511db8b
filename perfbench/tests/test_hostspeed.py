"""Host-speed scaling: nearest samples, trimmed mean, scale factor."""

from types import SimpleNamespace

import pytest

from perfbench import hostspeed
from perfbench.hostspeed import NEAREST, REFERENCE_MS, HostSpeed


def _speed(monkeypatch, chunk_ms):
    """A HostSpeed whose chunks take ``chunk_ms`` in order, on a fake clock."""
    clock = [0.0]
    values = iter(chunk_ms)

    def chunk():
        ms = next(values)
        clock[0] += ms / 1e3
        return ms

    monkeypatch.setattr(hostspeed, "chunk", chunk)
    monkeypatch.setattr(hostspeed, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    speed = HostSpeed()
    speed.sample(len(chunk_ms))
    return speed


def test_factor_follows_the_nearest_samples(monkeypatch):
    speed = _speed(monkeypatch, [4.0] * NEAREST + [1.0] * NEAREST)
    first, last = speed._times[0], speed._times[-1]
    assert speed.factor(first) == pytest.approx(REFERENCE_MS / 4.0)
    assert speed.factor(last) == pytest.approx(REFERENCE_MS / 1.0)
    assert speed.scaled_ms(last, last + 0.010) == pytest.approx(10.0 * REFERENCE_MS)


def test_slowest_tenth_is_dropped(monkeypatch):
    speed = _speed(monkeypatch, [2.0] * (NEAREST - 2) + [50.0, 80.0])
    assert speed.local_ms(speed._times[-1]) == pytest.approx(2.0)
    assert speed.median_ms() == pytest.approx(2.0)


def test_fewer_samples_than_the_window(monkeypatch):
    speed = _speed(monkeypatch, [2.0, 4.0, 6.0])
    assert speed.local_ms(speed._times[1]) == pytest.approx(4.0)


def test_no_samples_is_an_error():
    with pytest.raises(ValueError):
        HostSpeed().factor(0.0)


def test_chunk_is_a_positive_time():
    assert hostspeed.chunk() > 0
