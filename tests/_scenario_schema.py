"""The scenario format as a JSON Schema (draft 2020-12): the oracle that
``gssf.scenario.validate_scenario`` must match, rejecting a document
with ``SchemaViolation`` exactly when this schema rejects it.

``STRICT`` narrows "integer" to integer literals: the draft also admits
2.0 or 1e308, which are no index, size or seed.  The rules between
fields (a preset needs its ``c``, a check carries only the keys it
reads, ...) are ``BadConfig`` rules in code, not part of the schema.
"""

from jsonschema import Draft202012Validator, validators

from gssf import MAX_M

_NUMBER = {"type": "number"}
_U = {"anyOf": [{"type": "integer", "minimum": 1}, {"const": "all"}]}
_PLANE = {"anyOf": [{"type": "array", "items": {"type": "integer", "minimum": 1},
                      "minItems": 2, "maxItems": 2}, {"const": "all"}]}
_INDEX = {"type": "integer", "minimum": 1}

CHECK_NAMES = ["scalar_identity", "invariant_report", "ricci_bound", "ricci_equality",
               "delta_bound", "global_delta", "classify"]

SCENARIO_SCHEMA = {
    "type": "object",
    "properties": {
        "ambient": {
            "type": "object",
            "properties": {"m": {"type": "integer", "minimum": 1, "maximum": MAX_M}},
            "required": ["m"],
            "additionalProperties": False,
        },
        "structure": {
            "type": "object",
            "properties": {
                "preset": {"enum": ["s_space_form", "c_space_form", "real_space_form"]},
                "c": _NUMBER,
                "values": {"type": "array", "items": _NUMBER, "minItems": 7, "maxItems": 7},
            },
            "additionalProperties": False,
        },
        "frame": {
            "type": "object",
            "properties": {
                "mode": {"enum": ["slant", "invariant", "anti_invariant", "explicit"]},
                "n": _INDEX,
                "theta": _NUMBER,
                "vectors": {"type": "array", "items": {"type": "array", "items": _NUMBER}},
            },
            "required": ["mode"],
            "additionalProperties": False,
        },
        "sigma": {
            "type": "object",
            "properties": {
                "coeffs": {
                    "type": "array",
                    "items": {"type": "array",
                              "prefixItems": [_INDEX, _INDEX, _INDEX, _NUMBER],
                              "minItems": 4, "maxItems": 4},
                },
                "c_compatible": {"type": "boolean"},
                "constraint": {
                    "enum": ["none", "minimal", "c_compatible", "minimal_and_c_compatible"]
                },
                "seed": {"type": "integer", "minimum": 0},
                "scale": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "name": {"enum": CHECK_NAMES},
                    "variant": {"enum": ["general", "s_form", "c_form"]},
                    "u": _U,
                    "plane": _PLANE,
                    "slant_mode": {"type": "boolean"},
                    "expect": {
                        "type": "object",
                        "additionalProperties": {"type": ["number", "boolean", "string"]},
                    },
                },
                "required": ["name"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["ambient", "structure", "frame", "sigma", "checks"],
    "additionalProperties": False,
}

STRICT = validators.extend(
    Draft202012Validator,
    type_checker=Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, value: isinstance(value, int) and not isinstance(value, bool)),
)(SCENARIO_SCHEMA)
