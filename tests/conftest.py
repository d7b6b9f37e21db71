"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

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


# any JSON value, for replacing one value of a document
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


def value_slots(node, field=()):
    """(field, container, key) for every value nested anywhere in a JSON document.

    ``field`` is the path of object keys down to the value; list indices are
    left out, so every element of one list shares its list's field.
    """
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        here = field + (key,) if isinstance(node, dict) else field
        yield here, node, key
        if isinstance(value, (dict, list)):
            yield from value_slots(value, here)


@pytest.fixture
def flat_pricing():
    return make_pricing(peak_price=0.10, off_price=0.10)
