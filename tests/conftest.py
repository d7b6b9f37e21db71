"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from loadshift.core import ApplianceSpec, PricingSignal


def make_pricing(peak_price=0.30, off_price=0.10, peak_windows=((35, 44),)):
    prices = np.full(48, off_price, dtype=float)
    for start, end in peak_windows:
        prices[start - 1 : end] = peak_price
    return PricingSignal(prices=prices, peak_windows=peak_windows)


def make_shiftable(
    id="dev",
    power=1.0,
    duration=2,
    window=(1, 48),
    preferred=10,
    max_shift=48,
    count=1,
):
    return ApplianceSpec(
        id=id,
        kind="shiftable",
        power_profile=np.full(duration, float(power)),
        duration_slots=duration,
        window_start=window[0],
        window_end=window[1],
        preferred_start=preferred,
        max_shift=max_shift,
        count=count,
    )


def make_fixed(id="base", power=0.5, duration=4, start=1):
    return ApplianceSpec(
        id=id,
        kind="fixed",
        power_profile=np.full(duration, float(power)),
        duration_slots=duration,
        window_start=start,
        window_end=start + duration - 1,
        preferred_start=start,
        max_shift=0,
    )


@pytest.fixture
def flat_pricing():
    return make_pricing(peak_price=0.10, off_price=0.10)
