"""Bundle IO: round trips, strict parsing, and the collect-all linter."""

import csv
import dataclasses
import datetime
import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadshift import bundle as bundle_module
from loadshift.bundle import (
    _fail,
    _parse_float,
    _parse_int,
    _read_text,
    lint_bundle,
    load_bundle,
    read_appliances_csv,
    read_history_csv,
    read_pricing_csv,
    save_bundle,
    write_appliances_csv,
    write_history_csv,
    write_pricing_csv,
)
from loadshift.core import MAX_CANDIDATE_STARTS, DailyRecord, LoadCurve
from loadshift.errors import FormatError, LoadshiftError
from loadshift.scheduler import feasible_starts
from loadshift.simulate import RunParams, run_day
from loadshift.synth import SyntheticRecipe, generate_fleet

from conftest import json_values, make_fixed, make_pricing, make_shiftable, value_slots


def tiny_fleet(seed=11, households=2):
    recipe = SyntheticRecipe(
        household_count=households,
        history_days=8,
        simulated_days=2,
        daily_energy_kwh=10.0,
        pv_fraction=1.0,
    )
    return generate_fleet(recipe, seed=seed)


def awkward_curve():
    # values picked to stress float round-tripping
    rng = np.random.default_rng(3)
    values = rng.uniform(0.0, 5.0, 48)
    values[0] = 0.1 + 0.2  # 0.30000000000000004
    values[1] = 0.0
    values[2] = 1e-17
    return LoadCurve(values)


# -------------------------------------------------------------- single files


def test_history_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    records = tuple(
        DailyRecord(day=datetime.date(2025, 3, 1) + datetime.timedelta(days=d),
                    curve=LoadCurve(rng.uniform(0, 3, 48)))
        for d in range(5)
    )
    path = write_history_csv(records, tmp_path / "history.csv")
    back = read_history_csv(path)
    assert len(back) == 5
    for a, b in zip(records, back):
        assert a.day == b.day
        assert np.array_equal(a.curve.values, b.curve.values)


def test_history_days_must_ascend(tmp_path):
    records = (
        DailyRecord(day=datetime.date(2025, 3, 2), curve=LoadCurve(np.ones(48))),
        DailyRecord(day=datetime.date(2025, 3, 1), curve=LoadCurve(np.ones(48))),
    )
    path = write_history_csv(records, tmp_path / "history.csv")
    with pytest.raises(FormatError, match=r"out of order"):
        read_history_csv(path)


def test_history_short_day_names_the_day(tmp_path):
    records = (
        DailyRecord(day=datetime.date(2025, 3, 1), curve=LoadCurve(np.ones(48))),
        DailyRecord(day=datetime.date(2025, 3, 2), curve=LoadCurve(np.ones(48))),
    )
    path = write_history_csv(records, tmp_path / "history.csv")
    lines = path.read_text().splitlines()
    del lines[20]  # drop one slot of the first day
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=r"2025-03-01"):
        read_history_csv(path)


# The per-row history reader the streaming one replaced: it lists every row
# first and parses each row's date and slot.  Kept as the reference for records
# and for error text.


def reference_open_rows(path, expected_columns):
    reader = csv.reader(_read_text(path).splitlines())
    try:
        rows = list(reader)
    except csv.Error as exc:
        _fail(path, reader.line_num, f"bad CSV: {exc}")
    if not rows:
        _fail(path, 1, "empty file")
    if tuple(rows[0]) != tuple(expected_columns):
        _fail(path, 1, f"expected columns {','.join(expected_columns)}, got {','.join(rows[0])}")
    return rows[1:]


def reference_read_history_csv(path):
    rows = reference_open_rows(path, ("date", "slot", "value_kw"))
    records = []
    current_day = None
    values = []
    day_line = 2

    def flush(line):
        if current_day is None:
            return
        if len(values) != 48:
            _fail(path, line, f"day {current_day} has {len(values)} slots, expected 48")
        try:
            records.append(DailyRecord(day=current_day, curve=LoadCurve(np.array(values))))
        except LoadshiftError as exc:
            raise FormatError(f"{path}: day {current_day}: {exc}") from exc

    for line, row in enumerate(rows, start=2):
        if len(row) != 3:
            _fail(path, line, f"expected 3 fields, got {len(row)}")
        try:
            day = datetime.date.fromisoformat(row[0])
        except ValueError:
            _fail(path, line, f"bad date: {row[0]!r}")
        slot = _parse_int(row[1], path, line, "slot")
        value = _parse_float(row[2], path, line, "value_kw")
        if day != current_day:
            flush(line)
            if current_day is not None and day <= current_day:
                _fail(path, line, f"days out of order: {current_day} then {day}")
            current_day = day
            values = []
            day_line = line
        if slot != len(values) + 1:
            if slot == 1 and len(values) == 48:
                _fail(path, line, f"day {day} repeats")
            _fail(path, line, f"expected slot {len(values) + 1} for {day}, got {slot}")
        values.append(value)
    flush(day_line + len(values))
    if not records:
        _fail(path, 2, "history holds no days")
    return tuple(records)


def assert_same_records(got, want):
    assert [r.day for r in got] == [r.day for r in want]
    for a, b in zip(got, want):
        assert np.array_equal(a.curve.values, b.curve.values)


def seeded_history(seed, days=6):
    rng = np.random.default_rng(seed)
    start = datetime.date(2024, 12, 28)  # crosses a year boundary
    records = []
    for d in range(days):
        values = rng.uniform(0.0, 5.0, 48)
        values[rng.integers(48)] = 0.0
        values[rng.integers(48)] = rng.uniform(0.0, 1e-300)
        records.append(DailyRecord(day=start + datetime.timedelta(days=d), curve=LoadCurve(values)))
    records.append(DailyRecord(day=start + datetime.timedelta(days=days), curve=awkward_curve()))
    return tuple(records)


@pytest.mark.parametrize("seed", range(4))
def test_history_matches_per_row_reference_on_seeded_files(tmp_path, seed):
    records = seeded_history(seed)
    path = write_history_csv(records, tmp_path / "history.csv")
    got = read_history_csv(path)
    assert_same_records(got, reference_read_history_csv(path))
    assert_same_records(got, records)


def test_history_matches_per_row_reference_on_fleet_files(tmp_path):
    root = save_bundle(tiny_fleet(seed=5), tmp_path / "bundle")
    paths = sorted(root.glob("households/*/*history.csv"))
    assert len(paths) == 4
    for path in paths:
        assert_same_records(read_history_csv(path), reference_read_history_csv(path))


def _history_lines():
    """Header plus three days of rows; days start at indices 1, 49 and 97."""
    records = tuple(
        DailyRecord(day=datetime.date(2025, 3, 1) + datetime.timedelta(days=d),
                    curve=LoadCurve(np.linspace(0.1, 2.0, 48) + d))
        for d in range(3)
    )
    with tempfile.TemporaryDirectory() as scratch:
        return write_history_csv(records, Path(scratch) / "h.csv").read_text().splitlines()


def _set_field(lines, index, field, text):
    row = lines[index].split(",")
    row[field] = text
    lines[index] = ",".join(row)


def _swap_days(lines):
    lines[49:97], lines[97:145] = lines[97:145], lines[49:97]


MALFORMED_HISTORIES = {
    "47-row day": lambda lines: lines.pop(60),
    "47-row last day": lambda lines: lines.pop(),
    "49-row day": lambda lines: lines.insert(49, "2025-03-01,49,1.0"),
    "49-row last day": lambda lines: lines.append("2025-03-03,49,1.0"),
    "bad date inside a day": lambda lines: _set_field(lines, 70, 0, "2025-03-32"),
    "bad date starting a day": lambda lines: _set_field(lines, 97, 0, "March 3"),
    "slot gap": lambda lines: _set_field(lines, 10, 1, "11"),
    "slot zero": lambda lines: _set_field(lines, 49, 1, "0"),
    "non-integer slot": lambda lines: _set_field(lines, 5, 1, "5.0"),
    "non-numeric value": lambda lines: _set_field(lines, 30, 2, "banana"),
    "negative value": lambda lines: _set_field(lines, 100, 2, "-0.5"),
    "NaN value": lambda lines: _set_field(lines, 3, 2, "nan"),
    "infinite value": lambda lines: _set_field(lines, 144, 2, "inf"),
    "two fields": lambda lines: lines.__setitem__(12, "2025-03-01,12"),
    "four fields": lambda lines: lines.__setitem__(50, lines[50] + ",9"),
    "empty row": lambda lines: lines.insert(20, ""),
    "days out of order": _swap_days,
    "repeated day": lambda lines: lines.extend(lines[97:145]),
    "repeated earlier day": lambda lines: lines.extend(lines[1:49]),
    "wrong header": lambda lines: lines.__setitem__(0, "date,slot,kw"),
    "header only": lambda lines: lines.__delitem__(slice(1, None)),
    "empty file": lambda lines: lines.clear(),
    # np.loadtxt reads these unlike the row walk: each must leave the numpy path
    "comment tail": lambda lines: lines.__setitem__(30, lines[30] + "#x"),
    "comment row": lambda lines: lines.insert(40, "#2025-03-01,40,1.0"),
    "blank row after the header": lambda lines: lines.insert(1, ""),
    "blank last row": lambda lines: lines.append(""),
    "overlong date starting a day": lambda lines: _set_field(lines, 97, 0, "2025-03-030"),
    "overlong date inside a day": lambda lines: _set_field(lines, 70, 0, "2025-03-0200"),
    "date with a text tail": lambda lines: _set_field(lines, 49, 0, "2025-03-02xyz"),
    "vertical tab after a value": lambda lines: lines.__setitem__(30, lines[30] + "\v"),
    "form feed after a value": lambda lines: lines.__setitem__(30, lines[30] + "\f"),
    "file separator after a value": lambda lines: lines.__setitem__(30, lines[30] + "\x1c"),
    "lone CR inside a value": lambda lines: _set_field(lines, 30, 2, "1.\r5"),
    "overflowing value": lambda lines: _set_field(lines, 60, 2, "1e999"),
    "negative subnormal value": lambda lines: _set_field(lines, 60, 2, "-1e-320"),
    "NUL in a value": lambda lines: lines.__setitem__(30, lines[30] + "\0"),
    "byte order mark": lambda lines: lines.__setitem__(0, "\ufeff" + lines[0]),
    "finite value over the field limit": lambda lines: _set_field(
        lines, 29, 2, "0." + "0" * 199_998
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_HISTORIES))
def test_history_errors_match_per_row_reference(tmp_path, case):
    lines = _history_lines()
    MALFORMED_HISTORIES[case](lines)
    path = tmp_path / "history.csv"
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(FormatError) as want:
        reference_read_history_csv(path)
    with pytest.raises(FormatError) as got:
        read_history_csv(path)
    assert str(got.value) == str(want.value)
    assert re.match(rf"{re.escape(str(path))}(:\d+)?: ", str(got.value))


VALID_VARIANTS = {
    "spaced slot": lambda text: text.replace("2025-03-02,7,", "2025-03-02, 7,"),
    "signed slot": lambda text: text.replace("2025-03-02,7,", "2025-03-02,+7,"),
    "zero-padded slot": lambda text: text.replace("2025-03-03,9,", "2025-03-03,09,"),
    "quoted fields": lambda text: text.replace("2025-03-01,5,", '"2025-03-01","5",'),
    "compact date text": lambda text: text.replace("2025-03-02,30,", "20250302,30,"),
    "CRLF line endings": lambda text: text.replace("\n", "\r\n"),
    # line breaks for str.splitlines that np.loadtxt does not break at
    "vertical tab line break": lambda text: text.replace("\n", "\v", 7),
    "form feed line break": lambda text: text.replace("\n", "\f", 7),
    "file separator line break": lambda text: text.replace("\n", "\x1c", 7),
    "group separator line break": lambda text: text.replace("\n", "\x1d", 7),
    "record separator line break": lambda text: text.replace("\n", "\x1e", 7),
    "lone CR line break": lambda text: text.replace("\n", "\r", 7),
    "quoted header": lambda text: text.replace("date,slot,value_kw", '"date","slot",value_kw'),
    "quoted value": lambda text: re.sub(r"^(2025-03-03,9,)(.*)$", r'\1"\2"', text, flags=re.M),
}


@pytest.mark.parametrize("case", sorted(VALID_VARIANTS))
def test_history_valid_variants_load_like_the_reference(tmp_path, case):
    if case == "compact date text" and sys.version_info < (3, 11):
        pytest.skip("date.fromisoformat reads only YYYY-MM-DD before Python 3.11")
    text = "".join(line + "\n" for line in _history_lines())
    changed = VALID_VARIANTS[case](text)
    assert changed != text
    path = tmp_path / "history.csv"
    path.write_bytes(changed.encode())
    got = read_history_csv(path)
    assert len(got) == 3
    assert_same_records(got, reference_read_history_csv(path))


# valid number texts other than repr's, in the form the numpy path reads; a "#"
# ends the new text, and the rest of the old value after it is cut
NUMPY_PATH_VARIANTS = {
    "negative zero": lambda text: text.replace("2025-03-01,2,", "2025-03-01,2,-0.0#"),
    "signed value": lambda text: text.replace("2025-03-01,3,", "2025-03-01,3,+"),
    "capital exponent": lambda text: text.replace("2025-03-02,4,", "2025-03-02,4,1E-2#"),
    "bare fraction": lambda text: text.replace("2025-03-02,5,", "2025-03-02,5,.5#"),
    "trailing point": lambda text: text.replace("2025-03-02,6,", "2025-03-02,6,5.#"),
    "leading zeros": lambda text: text.replace("2025-03-03,7,", "2025-03-03,7,007"),
    "subnormal value": lambda text: text.replace("2025-03-03,8,", "2025-03-03,8,1e-320#"),
    "many digits": lambda text: text.replace(
        "2025-03-03,9,", "2025-03-03,9,0.1234567890123456789012345678901234567890123#"
    ),
}


def spy_row_walk(monkeypatch):
    """Record each path that reaches the row walk."""
    walked = []
    real = bundle_module._walk_history_rows

    def spy(path):
        walked.append(Path(path))
        return real(path)

    monkeypatch.setattr(bundle_module, "_walk_history_rows", spy)
    return walked


@pytest.mark.parametrize("case", sorted(NUMPY_PATH_VARIANTS))
def test_numpy_path_variants_load_like_the_reference(tmp_path, monkeypatch, case):
    text = "".join(line + "\n" for line in _history_lines())
    changed = re.sub(r"#[^\n]*", "", NUMPY_PATH_VARIANTS[case](text))
    assert changed != text
    path = tmp_path / "history.csv"
    path.write_bytes(changed.encode())
    walked = spy_row_walk(monkeypatch)
    got = read_history_csv(path)
    assert walked == []
    want = reference_read_history_csv(path)
    assert_same_records(got, want)
    for a, b in zip(got, want):
        assert np.array_equal(a.curve.values.view(np.uint64), b.curve.values.view(np.uint64))


@pytest.mark.parametrize(
    "case", [f"malformed: {c}" for c in sorted(MALFORMED_HISTORIES)]
    + [f"valid: {c}" for c in sorted(VALID_VARIANTS)]
)
def test_every_variant_reaches_the_row_walk(tmp_path, monkeypatch, case):
    kind, name = case.split(": ", 1)
    lines = _history_lines()
    if kind == "malformed":
        MALFORMED_HISTORIES[name](lines)
        text = "".join(line + "\n" for line in lines)
    else:
        text = VALID_VARIANTS[name]("".join(line + "\n" for line in lines))
    path = tmp_path / "history.csv"
    path.write_bytes(text.encode())
    walked = spy_row_walk(monkeypatch)
    try:
        read_history_csv(path)
    except FormatError:
        pass
    assert walked == [path]


def test_saved_histories_never_reach_the_row_walk(tmp_path, monkeypatch):
    fleet = tiny_fleet(seed=5)
    root = save_bundle(fleet, tmp_path / "bundle")
    walked = spy_row_walk(monkeypatch)
    back = load_bundle(root)
    assert lint_bundle(root) == ()
    assert walked == []
    for a, b in zip(fleet.households, back.households):
        assert_same_records(b.history, a.history)
        assert_same_records(b.pv.history, a.pv.history)


@pytest.mark.parametrize("seed", range(3))
def test_repr_floats_read_back_bit_for_bit(tmp_path, monkeypatch, seed):
    rng = np.random.default_rng(seed)
    days = 9
    bits = rng.integers(0, 2**63, size=days * 48, dtype=np.uint64)  # sign bit clear
    values = bits.view(np.float64).copy()
    values[~np.isfinite(values)] = 1.0
    values[rng.integers(len(values), size=24)] = rng.uniform(0.0, 5.0, 24)
    values[:8] = [0.0, -0.0, 5e-324, 2.2250738585072009e-308, 1e-310, 0.1 + 0.2,
                  sys.float_info.max, np.nextafter(sys.float_info.max, 0.0)]
    start = datetime.date(2024, 2, 27)  # crosses a leap day
    records = tuple(
        DailyRecord(day=start + datetime.timedelta(days=d), curve=LoadCurve(values[d * 48:(d + 1) * 48]))
        for d in range(days)
    )
    path = write_history_csv(records, tmp_path / "history.csv")
    walked = spy_row_walk(monkeypatch)
    got = read_history_csv(path)
    assert walked == []
    assert [r.day for r in got] == [r.day for r in records]
    read = np.concatenate([r.curve.values for r in got])
    assert np.array_equal(read.view(np.uint64), values.view(np.uint64))
    assert_same_records(got, reference_read_history_csv(path))


def test_pricing_round_trip_recovers_windows(tmp_path):
    pricing = make_pricing(peak_windows=((10, 14), (35, 44)))
    path = write_pricing_csv(pricing, tmp_path / "pricing.csv")
    back = read_pricing_csv(path)
    assert np.array_equal(back.prices, pricing.prices)
    assert back.peak_windows == ((10, 14), (35, 44))


def reference_peak_windows(mask):
    """The maximal runs of peak slots, found by a walk over the slots."""
    windows = []
    start = None
    for slot, flag in enumerate([*mask, 0], start=1):
        if flag and start is None:
            start = slot
        elif not flag and start is not None:
            windows.append((start, slot - 1))
            start = None
    return tuple(windows)


PEAK_MASKS = {
    "touching slots 1 and 48": [1, 1, 1] + [0] * 42 + [1, 1, 1],
    "single slots": [1, 0, 1] + [0] * 20 + [1] + [0] * 23 + [1],
    "alternating": [1, 0] * 24,
    "every slot": [1] * 48,
    "no slot": [0] * 48,
    "one inner run": [0] * 34 + [1] * 10 + [0] * 4,
}


@pytest.mark.parametrize("case", sorted(PEAK_MASKS))
def test_pricing_windows_match_a_loop_reference(tmp_path, case):
    mask = PEAK_MASKS[case]
    path = tmp_path / "pricing.csv"
    rows = "".join(f"{slot},0.1,{flag}\n" for slot, flag in enumerate(mask, start=1))
    path.write_text("slot,price,is_peak\n" + rows)
    pricing = read_pricing_csv(path)
    assert pricing.peak_windows == reference_peak_windows(mask)
    assert np.array_equal(pricing.peak_mask(), np.array(mask, dtype=bool))


def test_pricing_flag_must_be_binary(tmp_path):
    path = write_pricing_csv(make_pricing(), tmp_path / "pricing.csv")
    lines = path.read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ",2"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=rf"{path}:4: is_peak must be 0 or 1"):
        read_pricing_csv(path)


def test_appliances_round_trip(tmp_path):
    specs = (
        make_shiftable(id="wash", power=0.731, duration=3, preferred=20, max_shift=6),
        make_fixed(id="fridge", power=0.119, duration=48, start=1),
    )
    path = write_appliances_csv(specs, tmp_path / "appliances.csv")
    back = read_appliances_csv(path)
    assert [s.id for s in back] == ["wash", "fridge"]
    for a, b in zip(specs, back):
        assert a.kind == b.kind
        assert a.duration_slots == b.duration_slots
        assert (a.window_start, a.window_end) == (b.window_start, b.window_end)
        assert a.preferred_start == b.preferred_start
        assert a.max_shift == b.max_shift
        assert a.count == b.count
        assert np.array_equal(a.power_profile, b.power_profile)


def test_appliance_constraint_errors_cite_the_row(tmp_path):
    path = tmp_path / "appliances.csv"
    path.write_text(
        "id,kind,duration_slots,window_start,window_end,preferred_start,"
        "max_shift,power_csv,count\n"
        "oven,shiftable,6,10,12,10,2,1.0;1.0;1.0;1.0;1.0;1.0,1\n"
    )
    with pytest.raises(FormatError, match=rf"{path}:2: .*window shorter than one run"):
        read_appliances_csv(path)


WHOLE_NUMBER_COLUMNS = (
    "duration_slots", "window_start", "window_end", "preferred_start", "max_shift", "count",
)


@pytest.mark.parametrize("column", WHOLE_NUMBER_COLUMNS)
def test_appliance_non_integer_field_names_its_column(tmp_path, column):
    path = write_appliances_csv(
        (make_fixed(id="fridge"), make_shiftable(id="wash")), tmp_path / "appliances.csv"
    )
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    fields = lines[2].split(",")
    fields[header.index(column)] = "2.5"
    # every whole-number column after it is bad too: the first one is reported
    for later in WHOLE_NUMBER_COLUMNS[WHOLE_NUMBER_COLUMNS.index(column) + 1 :]:
        fields[header.index(later)] = "x"
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    message = f"{path}:3: non-integer {column}: '2.5'"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        read_appliances_csv(path)


def test_appliance_table_cannot_be_empty(tmp_path):
    path = tmp_path / "appliances.csv"
    path.write_text(
        "id,kind,duration_slots,window_start,window_end,preferred_start,"
        "max_shift,power_csv,count\n"
    )
    with pytest.raises(FormatError, match=r"at least one appliance"):
        read_appliances_csv(path)


# -------------------------------------------------------------- whole bundles


def test_bundle_round_trip_preserves_everything(tmp_path):
    fleet = tiny_fleet()
    root = save_bundle(fleet, tmp_path / "bundle")
    back = load_bundle(root)

    assert back.mode == fleet.mode
    assert back.days == fleet.days
    assert back.recipe == fleet.recipe
    assert np.array_equal(back.pricing.prices, fleet.pricing.prices)
    assert back.pricing.peak_windows == fleet.pricing.peak_windows

    assert [h.id for h in back.households] == [h.id for h in fleet.households]
    for ha, hb in zip(fleet.households, back.households):
        assert [s.id for s in hb.appliances] == [s.id for s in ha.appliances]
        for sa, sb in zip(ha.appliances, hb.appliances):
            assert np.array_equal(sa.power_profile, sb.power_profile)
            assert sa.max_shift == sb.max_shift
        assert len(hb.history) == len(ha.history)
        for ra, rb in zip(ha.history, hb.history):
            assert ra.day == rb.day
            assert np.array_equal(ra.curve.values, rb.curve.values)
        assert (ha.pv is None) == (hb.pv is None)
        if ha.pv is not None:
            assert hb.pv.battery_capacity == ha.pv.battery_capacity
            assert hb.pv.charge_rate == ha.pv.charge_rate
            assert hb.pv.charge_efficiency == ha.pv.charge_efficiency
            assert hb.pv.battery_soc == ha.pv.battery_soc
            for ra, rb in zip(ha.pv.history, hb.pv.history):
                assert ra.day == rb.day
                assert np.array_equal(ra.curve.values, rb.curve.values)


def test_save_is_byte_stable(tmp_path):
    fleet = tiny_fleet()
    a = save_bundle(fleet, tmp_path / "a")
    b = save_bundle(fleet, tmp_path / "b")
    for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_reversed_history_round_trips_and_runs_like_the_sorted_one(tmp_path):
    fleet = tiny_fleet()
    reversed_fleet = dataclasses.replace(fleet, households=tuple(
        dataclasses.replace(
            h, history=h.history[::-1],
            pv=dataclasses.replace(h.pv, history=h.pv.history[::-1]),
        )
        for h in fleet.households
    ))
    root = save_bundle(reversed_fleet, tmp_path / "bundle")
    assert not lint_bundle(root)
    back = load_bundle(root)
    params = RunParams(max_epochs=3)
    for sorted_household, loaded in zip(fleet.households, back.households):
        for day in fleet.days:
            want = run_day(sorted_household, day, fleet.pricing, params=params)
            got = run_day(loaded, day, back.pricing, params=params)
            for name in ("before", "after", "after_total", "predicted", "objective"):
                assert getattr(got, name).values.tobytes() == getattr(want, name).values.tobytes()


def test_manifest_missing_key_rejected(tmp_path):
    root = save_bundle(tiny_fleet(), tmp_path / "bundle")
    doc = json.loads((root / "manifest.json").read_text())
    del doc["pricing"]
    (root / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=r"missing 'pricing'"):
        load_bundle(root)


def test_manifest_version_gate(tmp_path):
    root = save_bundle(tiny_fleet(), tmp_path / "bundle")
    doc = json.loads((root / "manifest.json").read_text())
    doc["format_version"] = 99
    (root / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=r"format_version 99"):
        load_bundle(root)


@pytest.mark.parametrize("version", [True, 1.0, "1", 2], ids=["true", "1.0", "string", "2"])
def test_manifest_version_must_be_the_integer_1(tmp_path, version):
    root = save_bundle(tiny_fleet(), tmp_path / "bundle")
    doc = json.loads((root / "manifest.json").read_text())
    doc["format_version"] = version
    (root / "manifest.json").write_text(json.dumps(doc))
    message = rf"unsupported format_version {re.escape(repr(version))}$"
    with pytest.raises(FormatError, match=message):
        load_bundle(root)
    problems = lint_bundle(root)
    assert len(problems) == 1 and re.search(message, problems[0]), problems


def test_repeated_history_day_is_named_on_load_and_lint(tmp_path):
    root = save_bundle(tiny_fleet(), tmp_path / "bundle")
    history = root / "households" / "h002" / "history.csv"
    lines = history.read_text().splitlines()
    # header, then 48 rows a day: the fourth day, 2025-01-04, is rows 146-193
    lines[193:193] = lines[145:193]
    history.write_text("\n".join(lines) + "\n")
    message = rf"{re.escape(str(history))}:194: day 2025-01-04 repeats"
    with pytest.raises(FormatError, match=message):
        load_bundle(root)
    problems = lint_bundle(root)
    assert len(problems) == 1 and re.match(message, problems[0]), problems


def test_manifest_bad_json_cites_line(tmp_path):
    root = save_bundle(tiny_fleet(), tmp_path / "bundle")
    (root / "manifest.json").write_text('{\n  "mode": "offline",,\n}\n')
    with pytest.raises(FormatError, match=r"manifest.json:2: invalid JSON"):
        load_bundle(root)


def _pv(doc):
    return doc["households"][0]["pv"]


# manifest fields of the wrong JSON type: (mutation, expected message)
WRONG_TYPED_FIELDS = {
    "days": (lambda doc: doc.update(days=5), r"days must be a list, got 5"),
    "mode": (
        lambda doc: doc.update(mode=["offline"]),
        r"mode must be one of \('offline', 'online'\), got \['offline'\]",
    ),
    "pricing": (lambda doc: doc.update(pricing=5), r"pricing must be a string, got 5"),
    "household id": (
        lambda doc: doc["households"][0].update(id=["h001"]),
        r"household id must be a string, got \['h001'\]",
    ),
    "appliances": (
        lambda doc: doc["households"][0].update(appliances=7),
        r"household h001: appliances must be a string, got 7",
    ),
    "pv": (
        lambda doc: doc["households"][0].update(pv=3),
        r"household h001: pv must be an object, got 3",
    ),
    "battery_capacity": (
        lambda doc: _pv(doc).update(battery_capacity="abc"),
        r"household h001: pv battery_capacity must be a number, got 'abc'",
    ),
    "battery_soc": (
        lambda doc: _pv(doc).update(battery_soc=True),
        r"household h001: pv battery_soc must be a number, got True",
    ),
    "charge_rate": (
        lambda doc: _pv(doc).update(charge_rate=10**400),
        r"household h001: pv charge_rate must be a number",
    ),
}


@pytest.mark.parametrize("field", sorted(WRONG_TYPED_FIELDS))
def test_manifest_wrong_typed_field_is_a_format_error(tmp_path, field):
    mutate, message = WRONG_TYPED_FIELDS[field]
    root = save_bundle(tiny_fleet(), tmp_path / "bundle")
    doc = json.loads((root / "manifest.json").read_text())
    mutate(doc)
    (root / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=message):
        load_bundle(root)
    problems = lint_bundle(root)
    assert any(re.search(message, p) for p in problems), problems


def test_load_wraps_fleet_errors_as_format_errors(tmp_path):
    root = save_bundle(tiny_fleet(), tmp_path / "bundle")
    doc = json.loads((root / "manifest.json").read_text())
    doc["days"] = doc["days"][::-1]
    (root / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=r"manifest.json: simulation days must be strictly"):
        load_bundle(root)

    doc["days"] = doc["days"][::-1]
    doc["households"].append(doc["households"][0])
    (root / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=r"manifest.json: duplicate household id 'h001'$"):
        load_bundle(root)


def test_load_raises_first_problem_lint_collects_all(tmp_path):
    root = save_bundle(tiny_fleet(), tmp_path / "bundle")
    # break two different files
    pricing = (root / "pricing.csv").read_text().splitlines()
    pricing[7] = "xx" + pricing[7][1:]
    (root / "pricing.csv").write_text("\n".join(pricing) + "\n")
    history = root / "households" / "h002" / "history.csv"
    lines = history.read_text().splitlines()
    lines[3] = lines[3].replace(",", ",,", 1)
    history.write_text("\n".join(lines) + "\n")

    with pytest.raises(FormatError, match=r"pricing.csv:8"):
        load_bundle(root)

    problems = lint_bundle(root)
    assert len(problems) == 2
    assert any("pricing.csv:8" in p for p in problems)
    assert any("history.csv:4" in p for p in problems)


def test_lint_flags_duplicate_household_ids(tmp_path):
    root = save_bundle(tiny_fleet(), tmp_path / "bundle")
    doc = json.loads((root / "manifest.json").read_text())
    doc["households"].append(doc["households"][0])
    (root / "manifest.json").write_text(json.dumps(doc))
    problems = lint_bundle(root)
    assert any("duplicate household id 'h001'" in p for p in problems)


def test_load_stops_at_a_duplicate_id_before_reading_its_files(tmp_path):
    # the repeated entry names a history file that is not there; the id is
    # refused at the entry, before any of its files is read
    root = save_bundle(tiny_fleet(), tmp_path / "bundle")
    doc = json.loads((root / "manifest.json").read_text())
    doc["households"].insert(1, {**doc["households"][0], "history": "missing.csv"})
    (root / "manifest.json").write_text(json.dumps(doc))
    problems = lint_bundle(root)
    assert problems[0] == f"{root / 'manifest.json'}: duplicate household id 'h001'"
    with pytest.raises(FormatError) as caught:
        load_bundle(root)
    assert str(caught.value) == problems[0]


def test_appliance_count_over_the_candidate_start_limit_cites_the_row(tmp_path):
    root = save_bundle(tiny_fleet(), tmp_path / "bundle")
    path = root / "households" / "h001" / "appliances.csv"
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    rows[2][-1] = str(MAX_CANDIDATE_STARTS + 1)
    with path.open("w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    message = (
        f"{path}:3: appliance {rows[2][0]}: "
        f"count must be <= {MAX_CANDIDATE_STARTS}, got {MAX_CANDIDATE_STARTS + 1}"
    )
    assert lint_bundle(root) == (message,)
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        load_bundle(root)


def test_appliance_profile_errors_cite_the_row(tmp_path):
    root = save_bundle(tiny_fleet(), tmp_path / "bundle")
    path = root / "households" / "h001" / "appliances.csv"
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    duration = int(rows[1][2])
    rows[1][-2] = ";".join(rows[1][-2].split(";")[:-1])  # one power value short
    with path.open("w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    prefix = f"{path}:2: appliance {rows[1][0]}: "
    message = f"{prefix}power profile length ({duration - 1},) != duration {duration}"
    assert lint_bundle(root)[0] == message
    with pytest.raises(FormatError, match=f"^{re.escape(prefix)}"):
        load_bundle(root)


def test_household_over_the_candidate_start_limit_fails_lint_as_load(tmp_path):
    # every row's count is within the limit, but the household's shiftable
    # instances have more candidate starts than one solve may score
    fleet = tiny_fleet()
    root = save_bundle(fleet, tmp_path / "bundle")
    path = root / "households" / "h001" / "appliances.csv"
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    for row in rows[1:]:
        if row[1] == "shiftable":
            row[-1] = "600"
    with path.open("w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    shiftable = [a for a in fleet.households[0].appliances if a.kind == "shiftable"]
    starts = sum(600 * len(feasible_starts(a)) for a in shiftable)
    assert starts > MAX_CANDIDATE_STARTS
    message = (
        f"{root / 'manifest.json'}: household h001: "
        f"{starts} candidate starts exceed MAX_CANDIDATE_STARTS {MAX_CANDIDATE_STARTS}"
    )
    assert lint_bundle(root) == (message,)
    with pytest.raises(FormatError) as caught:
        load_bundle(root)
    assert str(caught.value) == lint_bundle(root)[0]


def test_lint_leaves_entries_without_a_string_id_out_of_the_duplicate_check(tmp_path):
    root = save_bundle(tiny_fleet(), tmp_path / "bundle")
    manifest = root / "manifest.json"
    doc = json.loads(manifest.read_text())
    del doc["households"][0]["id"]
    doc["households"][1]["id"] = 7
    manifest.write_text(json.dumps(doc))
    entry = doc["households"][0]
    assert lint_bundle(root) == (
        f"{manifest}: bad household entry: {entry!r}",
        f"{manifest}: household id must be a string, got 7",
    )


def test_bundle_with_colliding_instance_ids_is_refused(tmp_path):
    # an appliance with count 2 expands to <id>#1 and <id>#2; a row named
    # <id>#1 beside it collides
    root = save_bundle(tiny_fleet(), tmp_path / "bundle")
    path = root / "households" / "h001" / "appliances.csv"
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    name = rows[1][0]
    rows[1][-1] = "2"
    rows.append([f"{name}#1", *rows[1][1:-1], "1"])
    with path.open("w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    message = (
        f"{root / 'manifest.json'}: household h001: household h001: "
        f"appliance instance id '{name}#1' repeats after expansion"
    )
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        load_bundle(root)
    assert lint_bundle(root) == (message,)


def test_save_bundle_refuses_an_unserialisable_recipe_before_writing(tmp_path):
    fleet = tiny_fleet()
    fleet = dataclasses.replace(fleet, recipe={**fleet.recipe, "daily_energy_kwh": np.float32(1.0)})
    out = tmp_path / "bundle"
    out.mkdir()
    with pytest.raises(FormatError, match="manifest cannot be written as JSON: .*float32"):
        save_bundle(fleet, out)
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("emptied", ["history", "pv history"])
def test_save_bundle_refuses_an_empty_history_before_writing(tmp_path, emptied):
    # load_bundle and lint_bundle refuse a history file that holds no day,
    # so save_bundle does not write one
    fleet = tiny_fleet()
    first = fleet.households[0]
    if emptied == "history":
        first = dataclasses.replace(first, history=())
    else:
        first = dataclasses.replace(first, pv=dataclasses.replace(first.pv, history=()))
    fleet = dataclasses.replace(fleet, households=(first, *fleet.households[1:]))
    out = tmp_path / "bundle"
    out.mkdir()
    with pytest.raises(FormatError, match=f"^household h001: {emptied} holds no days$"):
        save_bundle(fleet, out)
    assert list(out.iterdir()) == []


def test_lint_on_clean_bundle_is_quiet(tmp_path):
    root = save_bundle(tiny_fleet(), tmp_path / "bundle")
    assert lint_bundle(root) == ()


@pytest.mark.parametrize("days", [["2025-01-09", "2025-01-08"], ["2025-01-08", "2025-01-08"]])
def test_lint_and_load_agree_on_day_order(tmp_path, days):
    root = save_bundle(tiny_fleet(), tmp_path / "bundle")
    doc = json.loads((root / "manifest.json").read_text())
    doc["days"] = days
    (root / "manifest.json").write_text(json.dumps(doc))
    message = r"manifest.json: simulation days must be strictly increasing: 2025-01-0. then"
    with pytest.raises(FormatError, match=message):
        load_bundle(root)
    problems = lint_bundle(root)
    assert len(problems) == 1 and re.search(message, problems[0]), problems


@pytest.mark.parametrize(
    "name", ["manifest.json", "pricing.csv", "households/h001/appliances.csv"]
)
def test_invalid_utf8_is_a_format_error(tmp_path, name):
    root = save_bundle(tiny_fleet(), tmp_path / "bundle")
    with (root / name).open("ab") as handle:
        handle.write(b"\xff\xfe")
    message = rf"{re.escape(name)}: not UTF-8 text"
    with pytest.raises(FormatError, match=message):
        load_bundle(root)
    problems = lint_bundle(root)
    assert any(re.search(message, p) for p in problems), problems


def test_csv_field_over_the_parser_limit_is_a_format_error(tmp_path):
    root = save_bundle(tiny_fleet(), tmp_path / "bundle")
    path = root / "households" / "h001" / "history.csv"
    lines = path.read_text().splitlines()
    lines[29] = lines[29].rsplit(",", 1)[0] + "," + "1" * 200_000  # line 30, partway through
    path.write_text("\n".join(lines) + "\n")
    message = rf"{re.escape(str(path))}:30: bad CSV: field larger"
    with pytest.raises(FormatError, match=message):
        read_history_csv(path)
    with pytest.raises(FormatError, match=message):
        load_bundle(root)


def test_manifest_integer_over_the_digit_limit_is_a_format_error(tmp_path):
    root = save_bundle(tiny_fleet(), tmp_path / "bundle")
    text = (root / "manifest.json").read_text()
    (root / "manifest.json").write_text(
        text.replace('"format_version": 1', '"format_version": ' + "9" * 5000)
    )
    message = r"manifest.json: invalid JSON: Exceeds the limit"
    with pytest.raises(FormatError, match=message):
        load_bundle(root)
    assert re.search(message, lint_bundle(root)[0])


# each manifest file path: (how to set it, its name in the error, the file it names)
FILE_FIELDS = {
    "pricing": (lambda doc, value: doc.update(pricing=value), "pricing", "pricing.csv"),
    "appliances": (
        lambda doc, value: doc["households"][0].update(appliances=value),
        "household h001: appliances",
        "households/h001/appliances.csv",
    ),
    "history": (
        lambda doc, value: doc["households"][0].update(history=value),
        "household h001: history",
        "households/h001/history.csv",
    ),
    "generation_history": (
        lambda doc, value: _pv(doc).update(generation_history=value),
        "household h001: pv generation_history",
        "households/h001/pv_history.csv",
    ),
}


@pytest.mark.parametrize("where", ["absolute", "parent"])
@pytest.mark.parametrize("field", sorted(FILE_FIELDS))
def test_manifest_paths_must_stay_inside_the_bundle(tmp_path, field, where):
    set_path, what, source = FILE_FIELDS[field]
    root = save_bundle(tiny_fleet(), tmp_path / "bundle")
    # a valid file outside the bundle, so only the path check can refuse it
    outside = tmp_path / "outside.csv"
    shutil.copy(root / source, outside)
    value = str(outside) if where == "absolute" else "../outside.csv"
    doc = json.loads((root / "manifest.json").read_text())
    set_path(doc, value)
    (root / "manifest.json").write_text(json.dumps(doc))
    message = f"{what} {value!r} is not a path inside the bundle"
    with pytest.raises(FormatError, match=re.escape(message)):
        load_bundle(root)
    problems = lint_bundle(root)
    assert any(message in p for p in problems), problems


def test_manifest_paths_may_wander_inside_the_bundle(tmp_path):
    root = save_bundle(tiny_fleet(), tmp_path / "bundle")
    doc = json.loads((root / "manifest.json").read_text())
    doc["pricing"] = "households/../pricing.csv"
    (root / "manifest.json").write_text(json.dumps(doc))
    assert lint_bundle(root) == ()
    load_bundle(root)


@pytest.mark.parametrize("household_id", ["../x", "ABSOLUTE", "a/b", "a\\b", ".", ".."])
def test_save_refuses_ids_that_are_not_one_path_component(tmp_path, household_id):
    if household_id == "ABSOLUTE":
        household_id = str(tmp_path / "elsewhere")
    fleet = tiny_fleet()
    first = dataclasses.replace(fleet.households[0], id=household_id)
    fleet = dataclasses.replace(fleet, households=(first, *fleet.households[1:]))
    with pytest.raises(FormatError, match="cannot name a bundle directory"):
        save_bundle(fleet, tmp_path / "bundle")
    assert list(tmp_path.iterdir()) == []


# -------------------------------------------------------------- mutated bundles


@pytest.fixture(scope="module")
def clean_bundle(tmp_path_factory):
    return save_bundle(tiny_fleet(), tmp_path_factory.mktemp("clean") / "bundle")


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_bundle_loads_or_raises_a_loadshift_error(clean_bundle, data):
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(shutil.copytree(clean_bundle, Path(scratch) / "bundle"))
        kind = data.draw(st.sampled_from(["manifest value", "truncate", "append"]))
        if kind == "manifest value":
            doc = json.loads((root / "manifest.json").read_text())
            _, node, key = data.draw(st.sampled_from(list(value_slots(doc))))
            old = node[key]
            node[key] = data.draw(json_values.filter(lambda v: type(v) is not type(old)))
            (root / "manifest.json").write_text(json.dumps(doc))
        else:
            files = sorted(p for p in root.rglob("*") if p.is_file())
            path = data.draw(st.sampled_from(files))
            content = path.read_bytes()
            if kind == "truncate":
                content = content[: data.draw(st.integers(0, len(content) - 1))]
            else:
                content += data.draw(st.binary(min_size=1, max_size=64))
            path.write_bytes(content)

        try:
            load_bundle(root)
            failure = None
        except LoadshiftError as exc:
            failure = exc
        problems = lint_bundle(root)
        assert all(isinstance(p, str) for p in problems)
        assert (failure is None) == (problems == ()), problems
        if failure is not None:
            assert isinstance(failure, FormatError)
            assert str(failure) == problems[0]
