"""Fleet bundle IO: a manifest JSON plus per-household CSV files.

Layout under a bundle directory::

    manifest.json                      roles, days, mode, household index
    pricing.csv                        slot,price,is_peak (48 rows)
    households/<id>/appliances.csv     one appliance per row
    households/<id>/history.csv        date,slot,value_kw (48 rows per date)
    households/<id>/pv_history.csv     same layout, PV generation (optional)

Floats are written with ``repr`` so a save/load round trip is bit-exact.
Every parse failure raises a :class:`FormatError` citing the file and line.
"""

from __future__ import annotations

import csv
import datetime
import json
from pathlib import Path

import numpy as np

from .core import (
    SLOT_COUNT,
    ApplianceSpec,
    DailyRecord,
    Household,
    LoadCurve,
    PricingSignal,
    PvSystem,
)
from .errors import FormatError, LoadshiftError
from .simulate import MODES, FleetConfig

BUNDLE_FORMAT_VERSION = 1

HISTORY_COLUMNS = ("date", "slot", "value_kw")
PRICING_COLUMNS = ("slot", "price", "is_peak")
APPLIANCE_COLUMNS = (
    "id",
    "kind",
    "duration_slots",
    "window_start",
    "window_end",
    "preferred_start",
    "max_shift",
    "power_csv",
    "count",
)


def _fail(path, line: int | None, message: str):
    place = f"{path}:{line}" if line is not None else str(path)
    raise FormatError(f"{place}: {message}")


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"{path}: cannot read: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


def read_json(path):
    """Parse a UTF-8 JSON file; any unreadable or malformed input is a ``FormatError``."""
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # int digit limit, or nesting deeper than the parser's recursion limit
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc


def _open_rows(path, expected_columns):
    """Yield the data rows of a CSV file, lazily and once, after checking its header.

    Lines split as ``str.splitlines`` splits them; callers number the rows
    from line 2.  An empty file, a header other than ``expected_columns`` or a
    CSV syntax error met partway through the stream raises a
    :class:`FormatError` naming ``file:line``.
    """
    reader = csv.reader(_read_text(path).splitlines())
    try:
        header = next(reader, None)
        if header is None:
            _fail(path, 1, "empty file")
        if tuple(header) != tuple(expected_columns):
            _fail(path, 1, f"expected columns {','.join(expected_columns)}, got {','.join(header)}")
        yield from reader
    except csv.Error as exc:
        _fail(path, reader.line_num, f"bad CSV: {exc}")


def _parse_float(text, path, line, column) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        _fail(path, line, f"non-numeric {column}: {text!r}")


def _parse_int(text, path, line, column) -> int:
    try:
        return int(text)
    except (TypeError, ValueError):
        _fail(path, line, f"non-integer {column}: {text!r}")


# ---------------------------------------------------------------- history


def write_history_csv(records, path) -> Path:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(HISTORY_COLUMNS)
        for record in records:
            day = record.day.isoformat()
            for idx, value in enumerate(record.curve.values, start=1):
                writer.writerow([day, idx, repr(float(value))])
    return path


# canonical slot texts, so a well-formed row skips int()
_SLOT_NUMBERS = {str(slot): slot for slot in range(1, SLOT_COUNT + 1)}


def _day_record(path, line, day, values) -> DailyRecord:
    if len(values) != SLOT_COUNT:
        _fail(path, line, f"day {day} has {len(values)} slots, expected {SLOT_COUNT}")
    try:
        return DailyRecord(day=day, curve=LoadCurve(np.array(values)))
    except LoadshiftError as exc:
        raise FormatError(f"{path}: day {day}: {exc}") from exc


def read_history_csv(path) -> tuple[DailyRecord, ...]:
    """Read stacked daily curves, streaming the rows once without holding them all.

    Each row is checked as it arrives; a date is parsed only when its text
    changes.  The first malformed row, day or CSV syntax error raises a
    :class:`FormatError` naming ``file:line``.
    """
    records = []
    day_text = day = None
    values = []
    for line, row in enumerate(_open_rows(path, HISTORY_COLUMNS), start=2):
        if len(row) != 3:
            _fail(path, line, f"expected 3 fields, got {len(row)}")
        if row[0] != day_text:
            try:
                row_day = datetime.date.fromisoformat(row[0])
            except ValueError:
                _fail(path, line, f"bad date: {row[0]!r}")
            day_text = row[0]
        slot = _SLOT_NUMBERS.get(row[1]) or _parse_int(row[1], path, line, "slot")
        value = _parse_float(row[2], path, line, "value_kw")
        if row_day != day:
            if day is not None:
                records.append(_day_record(path, line, day, values))
                if row_day < day:
                    _fail(path, line, f"days out of order: {day} then {row_day}")
            day = row_day
            values = []
        if slot != len(values) + 1:
            _fail(path, line, f"expected slot {len(values) + 1} for {day}, got {slot}")
        values.append(value)
    if day is None:
        _fail(path, 2, "history holds no days")
    records.append(_day_record(path, line + 1, day, values))
    return tuple(records)


# ---------------------------------------------------------------- pricing


def write_pricing_csv(pricing: PricingSignal, path) -> Path:
    path = Path(path)
    mask = pricing.peak_mask()
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(PRICING_COLUMNS)
        for idx in range(SLOT_COUNT):
            writer.writerow([idx + 1, repr(float(pricing.prices[idx])), int(mask[idx])])
    return path


def read_pricing_csv(path) -> PricingSignal:
    rows = list(_open_rows(path, PRICING_COLUMNS))
    if len(rows) != SLOT_COUNT:
        _fail(path, len(rows) + 1, f"pricing has {len(rows)} rows, expected {SLOT_COUNT}")
    prices = np.empty(SLOT_COUNT)
    peak = np.zeros(SLOT_COUNT, dtype=bool)
    for line, row in enumerate(rows, start=2):
        if len(row) != 3:
            _fail(path, line, f"expected 3 fields, got {len(row)}")
        slot = _parse_int(row[0], path, line, "slot")
        if slot != line - 1:
            _fail(path, line, f"expected slot {line - 1}, got {slot}")
        prices[slot - 1] = _parse_float(row[1], path, line, "price")
        flag = row[2].strip()
        if flag not in ("0", "1"):
            _fail(path, line, f"is_peak must be 0 or 1, got {flag!r}")
        peak[slot - 1] = flag == "1"

    windows = []
    idx = 0
    while idx < SLOT_COUNT:
        if peak[idx]:
            start = idx + 1
            while idx < SLOT_COUNT and peak[idx]:
                idx += 1
            windows.append((start, idx))
        else:
            idx += 1
    try:
        return PricingSignal(prices=prices, peak_windows=tuple(windows))
    except LoadshiftError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------- appliances


def write_appliances_csv(appliances, path) -> Path:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(APPLIANCE_COLUMNS)
        for spec in appliances:
            writer.writerow(
                [
                    spec.id,
                    spec.kind,
                    spec.duration_slots,
                    spec.window_start,
                    spec.window_end,
                    spec.preferred_start,
                    spec.max_shift,
                    ";".join(repr(float(p)) for p in spec.power_profile),
                    spec.count,
                ]
            )
    return path


def read_appliances_csv(path) -> tuple[ApplianceSpec, ...]:
    rows = list(_open_rows(path, APPLIANCE_COLUMNS))
    if not rows:
        _fail(path, 2, "households need at least one appliance")
    specs = []
    for line, row in enumerate(rows, start=2):
        if len(row) != len(APPLIANCE_COLUMNS):
            _fail(path, line, f"expected {len(APPLIANCE_COLUMNS)} fields, got {len(row)}")
        name = row[0].strip()
        if not name:
            _fail(path, line, "empty appliance id")
        profile = [
            _parse_float(piece, path, line, "power_csv") for piece in row[7].split(";") if piece
        ]
        try:
            specs.append(
                ApplianceSpec(
                    id=name,
                    kind=row[1].strip(),
                    power_profile=np.array(profile),
                    duration_slots=_parse_int(row[2], path, line, "duration_slots"),
                    window_start=_parse_int(row[3], path, line, "window_start"),
                    window_end=_parse_int(row[4], path, line, "window_end"),
                    preferred_start=_parse_int(row[5], path, line, "preferred_start"),
                    max_shift=_parse_int(row[6], path, line, "max_shift"),
                    count=_parse_int(row[8], path, line, "count"),
                )
            )
        except FormatError:
            raise
        except LoadshiftError as exc:
            _fail(path, line, str(exc))
    return tuple(specs)


# ---------------------------------------------------------------- manifest


def _manifest_entry(household: Household) -> dict:
    base = f"households/{household.id}"
    entry = {
        "id": household.id,
        "appliances": f"{base}/appliances.csv",
        "history": f"{base}/history.csv",
        "pv": None,
    }
    if household.pv is not None:
        entry["pv"] = {
            "generation_history": f"{base}/pv_history.csv",
            "battery_capacity": float(household.pv.battery_capacity),
            "battery_soc": float(household.pv.battery_soc),
            "charge_rate": float(household.pv.charge_rate),
            "charge_efficiency": float(household.pv.charge_efficiency),
        }
    return entry


def save_bundle(config: FleetConfig, path) -> Path:
    """Write the fleet as a bundle directory; returns its root."""
    for household in config.households:
        if household.id in (".", "..") or any(c in household.id for c in "/\\\0"):
            raise FormatError(
                f"household id {household.id!r} cannot name a bundle directory"
            )
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    write_pricing_csv(config.pricing, root / "pricing.csv")
    for household in config.households:
        base = root / "households" / household.id
        base.mkdir(parents=True, exist_ok=True)
        write_appliances_csv(household.appliances, base / "appliances.csv")
        write_history_csv(household.history, base / "history.csv")
        if household.pv is not None:
            write_history_csv(household.pv.history, base / "pv_history.csv")
    manifest = {
        "format_version": BUNDLE_FORMAT_VERSION,
        "mode": config.mode,
        "days": [day.isoformat() for day in config.days],
        "pricing": "pricing.csv",
        "recipe": config.recipe,
        "households": [_manifest_entry(h) for h in config.households],
    }
    (root / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return root


_JSON_NAMES = {str: "a string", list: "a list", dict: "an object"}


def _expect(value, kind: type, path, what: str):
    """A manifest field of the JSON type ``kind``; anything else fails."""
    if not isinstance(value, kind):
        _fail(path, None, f"{what} must be {_JSON_NAMES[kind]}, got {value!r}")
    return value


def _expect_number(value, path, what: str) -> float:
    """A manifest field that must be a JSON number, as a float."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    _fail(path, None, f"{what} must be a number, got {value!r}")


def _bundle_path(root: Path, value, manifest_path, what: str) -> Path:
    """A manifest file path, which must be a string naming a file inside the bundle."""
    _expect(value, str, manifest_path, what)
    try:
        inside = not Path(value).is_absolute() and (
            (root / value).resolve().is_relative_to(root.resolve())
        )
    except (OSError, ValueError):
        inside = False
    if not inside:
        _fail(manifest_path, None, f"{what} {value!r} is not a path inside the bundle")
    return root / value


def _parse_days(doc: dict, manifest_path) -> tuple[datetime.date, ...]:
    """The manifest's simulation days, which must be ISO dates in strictly increasing order."""
    days = []
    for raw in _expect(doc["days"], list, manifest_path, "days"):
        try:
            day = datetime.date.fromisoformat(raw)
        except (TypeError, ValueError):
            _fail(manifest_path, None, f"bad day: {raw!r}")
        if days and day <= days[-1]:
            message = f"simulation days must be strictly increasing: {days[-1]} then {day}"
            _fail(manifest_path, None, message)
        days.append(day)
    if not days:
        _fail(manifest_path, None, "no simulation days")
    return tuple(days)


def _load_manifest(root: Path) -> dict:
    path = root / "manifest.json"
    doc = read_json(path)
    if not isinstance(doc, dict):
        _fail(path, None, "manifest must be a JSON object")
    for key in ("format_version", "mode", "days", "pricing", "households"):
        if key not in doc:
            _fail(path, None, f"manifest is missing {key!r}")
    if doc["format_version"] != BUNDLE_FORMAT_VERSION:
        _fail(path, None, f"unsupported format_version {doc['format_version']!r}")
    if not isinstance(doc["households"], list) or not doc["households"]:
        _fail(path, None, "manifest lists no households")
    if doc["mode"] not in MODES:
        _fail(path, None, f"mode must be one of {MODES}, got {doc['mode']!r}")
    return doc


def _load_household(root: Path, entry, manifest_path) -> Household:
    if not isinstance(entry, dict) or "id" not in entry:
        _fail(manifest_path, None, f"bad household entry: {entry!r}")
    hid = _expect(entry["id"], str, manifest_path, "household id")
    files = {}
    for key in ("appliances", "history"):
        if key not in entry:
            _fail(manifest_path, None, f"household {hid}: missing {key!r}")
        files[key] = _bundle_path(root, entry[key], manifest_path, f"household {hid}: {key}")
    appliances = read_appliances_csv(files["appliances"])
    history = read_history_csv(files["history"])

    pv = None
    pv_entry = entry.get("pv")
    if pv_entry is not None:
        _expect(pv_entry, dict, manifest_path, f"household {hid}: pv")
        for key in ("generation_history", "battery_capacity", "battery_soc",
                    "charge_rate", "charge_efficiency"):
            if key not in pv_entry:
                _fail(manifest_path, None, f"household {hid}: pv missing {key!r}")
        generation_path = _bundle_path(root, pv_entry["generation_history"], manifest_path,
                                       f"household {hid}: pv generation_history")
        numbers = {
            key: _expect_number(pv_entry[key], manifest_path, f"household {hid}: pv {key}")
            for key in ("battery_capacity", "battery_soc", "charge_rate", "charge_efficiency")
        }
        pv_history = read_history_csv(generation_path)
        try:
            pv = PvSystem(
                generation=np.zeros(SLOT_COUNT), history=pv_history, **numbers
            )
        except LoadshiftError as exc:
            raise FormatError(f"{manifest_path}: household {hid}: {exc}") from exc

    try:
        return Household(id=hid, appliances=appliances, pv=pv, history=history)
    except LoadshiftError as exc:
        raise FormatError(f"{manifest_path}: household {hid}: {exc}") from exc


def load_bundle(path) -> FleetConfig:
    """Read a bundle directory back into a validated fleet.

    Raises:
        FormatError: on the first structural problem, citing file and line.
    """
    root = Path(path)
    manifest_path = root / "manifest.json"
    doc = _load_manifest(root)
    days = _parse_days(doc, manifest_path)
    pricing = read_pricing_csv(_bundle_path(root, doc["pricing"], manifest_path, "pricing"))
    households = tuple(
        _load_household(root, entry, manifest_path) for entry in doc["households"]
    )
    try:
        return FleetConfig(
            households=households,
            pricing=pricing,
            days=days,
            mode=doc["mode"],
            recipe=doc.get("recipe"),
        )
    except LoadshiftError as exc:
        raise FormatError(f"{manifest_path}: {exc}") from exc


def lint_bundle(path) -> tuple[str, ...]:
    """Collect every problem found in a bundle instead of stopping at one."""
    root = Path(path)
    manifest_path = root / "manifest.json"
    problems = []
    try:
        doc = _load_manifest(root)
    except LoadshiftError as exc:
        return (str(exc),)

    try:
        _parse_days(doc, manifest_path)
    except LoadshiftError as exc:
        problems.append(str(exc))
    try:
        read_pricing_csv(_bundle_path(root, doc["pricing"], manifest_path, "pricing"))
    except LoadshiftError as exc:
        problems.append(str(exc))

    seen = set()
    for entry in doc["households"]:
        hid = entry.get("id") if isinstance(entry, dict) else None
        if not isinstance(hid, str):
            hid = None
        if hid in seen:
            problems.append(f"{manifest_path}: duplicate household id {hid!r}")
        seen.add(hid)
        try:
            _load_household(root, entry, manifest_path)
        except LoadshiftError as exc:
            problems.append(str(exc))
    return tuple(problems)
