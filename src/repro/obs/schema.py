"""Dependency-free validation of emitted trace and metrics files.

CI validates every emitted artifact against the checked-in schemas in
``src/repro/obs/schemas/``, and the container deliberately carries no
``jsonschema`` package — so this module implements the small JSON
Schema subset those schemas use: ``type`` (string or list of strings),
``required``, ``properties``, ``additionalProperties`` (boolean form),
``items``, ``enum``, ``minimum``, and ``oneOf``.  Anything outside the
subset raises immediately rather than passing silently, so a schema
edit cannot quietly disable validation.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

SCHEMA_DIR = Path(__file__).resolve().parent / "schemas"

#: JSON Schema "type" name -> accepted Python types.  bool is checked
#: separately: it is an int subclass but not a JSON integer/number.
_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}

_KNOWN_KEYS = {
    "type", "required", "properties", "additionalProperties",
    "items", "enum", "minimum", "oneOf",
    # annotations, ignored for validation
    "$schema", "$id", "title", "description",
}


def _type_ok(value: Any, name: str) -> bool:
    expected = _TYPES[name]
    if name in ("integer", "number") and isinstance(value, bool):
        return False
    return isinstance(value, expected)


def validate(instance: Any, schema: Dict[str, Any], path: str = "$") -> List[str]:
    """All violations of ``schema`` by ``instance`` (empty = valid)."""
    unknown = set(schema) - _KNOWN_KEYS
    if unknown:
        raise ValueError(
            f"schema at {path} uses unsupported keywords {sorted(unknown)}"
        )
    errors: List[str] = []

    if "oneOf" in schema:
        branches = [validate(instance, sub, path) for sub in schema["oneOf"]]
        if not any(not errs for errs in branches):
            summary = "; ".join(errs[0] for errs in branches if errs)
            errors.append(f"{path}: matched no oneOf branch ({summary})")
        return errors

    if "type" in schema:
        names = schema["type"]
        if isinstance(names, str):
            names = [names]
        if not any(_type_ok(instance, n) for n in names):
            errors.append(
                f"{path}: expected {'/'.join(names)}, "
                f"got {type(instance).__name__}"
            )
            return errors  # structural checks below would just cascade

    if "enum" in schema and instance not in schema["enum"]:
        errors.append(f"{path}: {instance!r} not in {schema['enum']}")

    if "minimum" in schema and isinstance(instance, (int, float)):
        if instance < schema["minimum"]:
            errors.append(f"{path}: {instance} < minimum {schema['minimum']}")

    if isinstance(instance, dict):
        for key in schema.get("required", ()):
            if key not in instance:
                errors.append(f"{path}: missing required key {key!r}")
        props = schema.get("properties", {})
        for key, sub in props.items():
            if key in instance:
                errors.extend(validate(instance[key], sub, f"{path}.{key}"))
        if schema.get("additionalProperties") is False:
            for key in instance:
                if key not in props:
                    errors.append(f"{path}: unexpected key {key!r}")

    if isinstance(instance, list) and "items" in schema:
        for i, item in enumerate(instance):
            errors.extend(validate(item, schema["items"], f"{path}[{i}]"))

    return errors


def load_schema(name: str) -> Dict[str, Any]:
    """A checked-in schema by stem (``"trace_event"`` / ``"metrics"``)."""
    with open(SCHEMA_DIR / f"{name}.schema.json", encoding="utf-8") as fh:
        return json.load(fh)


def validate_trace_file(path: str) -> List[str]:
    """Violations of the Chrome-trace-event schema by a trace file."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            return [f"$: not valid JSON ({exc})"]
    return validate(data, load_schema("trace_event"))


def validate_metrics_file(path: str) -> List[str]:
    """Violations of the metrics schema by a JSONL metrics file.

    Checks every line against the per-record schema plus the stream
    invariants the schema cannot express: the first line is ``meta``,
    exactly one ``meta``/``final`` per stream, and sample timestamps
    are strictly increasing.
    """
    schema = load_schema("metrics")
    errors: List[str] = []
    types: List[str] = []
    last_ts = -1
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"line {lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(f"{where}: not valid JSON ({exc})")
                continue
            errors.extend(validate(record, schema, where))
            rtype = record.get("type") if isinstance(record, dict) else None
            types.append(rtype)
            ts = record.get("ts", 0) if rtype == "sample" else None
            # A ts that is no number is already a violation above.
            if isinstance(ts, (int, float)) and not isinstance(ts, bool):
                if ts <= last_ts:
                    errors.append(
                        f"{where}: sample ts {ts} not after previous {last_ts}"
                    )
                last_ts = ts
    if not types:
        errors.append("$: empty metrics stream")
    else:
        if types[0] != "meta":
            errors.append("line 1: stream must start with a meta record")
        for rtype in ("meta", "final"):
            count = types.count(rtype)
            if count != 1:
                errors.append(f"$: expected exactly one {rtype} record, got {count}")
    return errors
