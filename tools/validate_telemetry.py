#!/usr/bin/env python3
"""Validate fmtree telemetry JSON against tools/telemetry_schema.json.

Usage: validate_telemetry.py <metrics|trace> <file.json> [schema.json]

Self-contained interpreter for the small JSON-Schema subset the telemetry
schemas use (type / const / required / properties / additionalProperties /
items / minimum), so it needs nothing beyond the Python standard library.
The schema is name-agnostic: a metrics document lists every counter and
histogram of fmtree's metric catalogue (src/obs/metrics.hpp) whatever ran.

Exit code 0 = valid, 1 = invalid, 2 = usage/IO error.
"""

import json
import os
import sys


def type_ok(value, expected):
    types = expected if isinstance(expected, list) else [expected]
    for t in types:
        if t == "object" and isinstance(value, dict):
            return True
        if t == "array" and isinstance(value, list):
            return True
        if t == "string" and isinstance(value, str):
            return True
        # bool is an int subclass in Python; JSON booleans are never numbers.
        if t == "integer" and isinstance(value, int) and not isinstance(value, bool):
            return True
        if (t == "number" and isinstance(value, (int, float))
                and not isinstance(value, bool)):
            return True
        if t == "null" and value is None:
            return True
        if t == "boolean" and isinstance(value, bool):
            return True
    return False


def validate(value, schema, path, errors):
    if "type" in schema and not type_ok(value, schema["type"]):
        errors.append(f"{path}: expected type {schema['type']}, "
                      f"got {type(value).__name__}")
        return
    if "const" in schema and value != schema["const"]:
        errors.append(f"{path}: expected {schema['const']!r}, got {value!r}")
    if "minimum" in schema and isinstance(value, (int, float)) \
            and not isinstance(value, bool) and value < schema["minimum"]:
        errors.append(f"{path}: {value} < minimum {schema['minimum']}")
    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required key {key!r}")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties")
        for key, sub in value.items():
            if key in props:
                validate(sub, props[key], f"{path}.{key}", errors)
            elif isinstance(extra, dict):
                validate(sub, extra, f"{path}.{key}", errors)
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            validate(item, schema["items"], f"{path}[{i}]", errors)


def main(argv):
    args = argv[1:]
    if len(args) not in (2, 3) or args[0] not in ("metrics", "trace"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    schema_path = args[2] if len(args) == 3 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "telemetry_schema.json")
    try:
        with open(schema_path) as f:
            schema = json.load(f)[args[0]]
        with open(args[1]) as f:
            document = json.load(f)
    except (OSError, json.JSONDecodeError, KeyError) as e:
        print(f"validate_telemetry: {e}", file=sys.stderr)
        return 2
    errors = []
    validate(document, schema, "$", errors)
    if errors:
        for e in errors:
            print(f"INVALID {args[1]}: {e}", file=sys.stderr)
        return 1
    print(f"OK {args[1]} conforms to fmtree.{args[0]} schema")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
