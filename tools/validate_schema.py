#!/usr/bin/env python3
"""Validate an fmtree JSON document against its checked-in schema.

Usage: validate_schema.py <metrics|trace|request> <file.json|->

  metrics  an `--metrics` file ("fmtree.metrics/v1", tools/telemetry_schema.json)
  trace    a `--trace` file ("fmtree.trace/v1", tools/telemetry_schema.json)
  request  an "fmtree.request/v1" document (tools/request_schema.json)

Self-contained interpreter for the small JSON-Schema subset the schemas use
(type / const / enum / required / properties / additionalProperties / items /
oneOf / anyOf / minimum / maximum / minLength / minItems), so CI needs
nothing beyond the Python standard library. The custom "format": "double"
keyword accepts either a JSON number or a string that parses as a double,
including the canonical C99 hexfloat spelling ("0x1.8p+1") that
`fmtree sweep --emit-request` emits for bit-exact round-trips. The
telemetry schema is name-agnostic: a metrics document lists every counter
and histogram of fmtree's metric catalogue (src/obs/metrics.hpp) whatever
ran.

Reads the document from stdin when the file argument is "-", so the CLI can
be piped straight in:

    fmtree sweep model.fmt --emit-request | validate_schema.py request -
    fmtree fleet model.fmt --joints 100 --emit-request | validate_schema.py request -

Exit code 0 = valid, 1 = invalid, 2 = usage/IO error.
"""

import json
import os
import sys

SCHEMA_FILES = {
    "metrics": "telemetry_schema.json",
    "trace": "telemetry_schema.json",
    "request": "request_schema.json",
}


def is_double(value):
    if isinstance(value, bool):
        return False
    if isinstance(value, (int, float)):
        return True
    if isinstance(value, str):
        try:
            float(value)
            return True
        except ValueError:
            pass
        try:
            float.fromhex(value)
            return True
        except ValueError:
            return False
    return False


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
    if schema.get("format") == "double" and not is_double(value):
        errors.append(f"{path}: expected a number or a numeric/hexfloat "
                      f"string, got {value!r}")
        return
    if "const" in schema and value != schema["const"]:
        errors.append(f"{path}: expected {schema['const']!r}, got {value!r}")
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} is not one of {schema['enum']}")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if "minimum" in schema and value < schema["minimum"]:
            errors.append(f"{path}: {value} < minimum {schema['minimum']}")
        if "maximum" in schema and value > schema["maximum"]:
            errors.append(f"{path}: {value} > maximum {schema['maximum']}")
    if isinstance(value, str) and len(value) < schema.get("minLength", 0):
        errors.append(f"{path}: shorter than minLength {schema['minLength']}")
    if "oneOf" in schema:
        matched = 0
        for sub in schema["oneOf"]:
            trial = []
            validate(value, sub, path, trial)
            matched += not trial
        if matched != 1:
            errors.append(f"{path}: matches {matched} of the oneOf "
                          f"alternatives, expected exactly 1")
    if "anyOf" in schema:
        matched = 0
        for sub in schema["anyOf"]:
            trial = []
            validate(value, sub, path, trial)
            matched += not trial
        if matched == 0:
            errors.append(f"{path}: matches none of the anyOf alternatives")
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
            elif extra is False:
                errors.append(f"{path}: unknown key {key!r}")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            errors.append(f"{path}: fewer than minItems {schema['minItems']}")
        if "items" in schema:
            for i, item in enumerate(value):
                validate(item, schema["items"], f"{path}[{i}]", errors)


def main(argv):
    args = argv[1:]
    if len(args) != 2 or args[0] not in SCHEMA_FILES:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    kind, source = args
    schema_path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               SCHEMA_FILES[kind])
    name = "<stdin>" if source == "-" else source
    try:
        with open(schema_path) as f:
            schema = json.load(f)[kind]
        if source == "-":
            document = json.load(sys.stdin)
        else:
            with open(source) as f:
                document = json.load(f)
    except (OSError, json.JSONDecodeError, KeyError) as e:
        print(f"validate_schema: {e}", file=sys.stderr)
        return 2
    errors = []
    validate(document, schema, "$", errors)
    if errors:
        for e in errors:
            print(f"INVALID {name}: {e}", file=sys.stderr)
        return 1
    print(f"OK {name} conforms to the {kind} schema of "
          f"{os.path.basename(schema_path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
