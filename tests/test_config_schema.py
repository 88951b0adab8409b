"""attnlab's own check of the shipped config schema, against jsonschema as its oracle.

``config.check_config`` implements only the keywords the shipped schema uses;
these tests keep the schema inside that set, compare every message with what
``jsonschema.validate`` reports, and keep jsonschema out of a run's imports.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import attnlab
from attnlab.config import _SCHEMA, ConfigError, check_config

SUPPORTED_KEYWORDS = {
    "type", "minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum", "enum",
    "minLength", "minItems", "items", "properties", "additionalProperties", "required",
}
ANNOTATIONS = {"$schema", "title"}
SUPPORTED_TYPES = {"integer", "number", "string", "array", "object", "null"}


def _subschemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])


def test_schema_uses_only_the_supported_keywords():
    for schema in _subschemas(_SCHEMA):
        assert set(schema) <= SUPPORTED_KEYWORDS | ANNOTATIONS, sorted(set(schema))
        assert schema.get("additionalProperties", False) is False
        types = schema.get("type", [])
        assert set(types if isinstance(types, list) else [types]) <= SUPPORTED_TYPES


_VALIDATOR = jsonschema.validators.validator_for(_SCHEMA)(_SCHEMA)


def _jsonschema_message(data):
    """What ``jsonschema.validate`` reports, in ``ConfigError``'s wording, or None.

    ``validate`` raises ``best_match(iter_errors(...))`` after checking the
    schema, which ``test_shipped_schema_passes_check_schema`` does once.
    """
    e = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(data))
    if e is None:
        return None
    return f"config invalid at {'/'.join(str(p) for p in e.absolute_path) or '<root>'}: {e.message}"


# Bools where numbers go, 1.0 where integers go, NaN and +-inf, the enum
# values, and strings, lists and objects anywhere.
_SCALARS = st.one_of(
    st.booleans(),
    st.none(),
    st.integers(-2, 3),
    st.sampled_from([1.0, 0.0, -0.0, 0.5, 1.5, -1.0, float("nan"), float("inf"), float("-inf")]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "early", "scalar", "energy", "joint", "explicit", "fixture", "x"]),
)
_ANY = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)
_UNKNOWN_KEYS = st.sampled_from(["gama", "Window", "zz", "a", "0", "preset_"])
_CANDIDATES = [0, 1, 2, 0.25, 0.5, 1.0, "x", None]


def _sometimes(usual, rare):
    """``rare`` about one time in eight, else ``usual``."""
    flags = st.tuples(st.booleans(), st.booleans(), st.booleans())
    return flags.flatmap(lambda f: rare if all(f) else usual)


def _values(schema):
    """Values for ``schema``: mostly ones it accepts, sometimes anything."""
    if "properties" in schema:
        fitting = st.fixed_dictionaries(
            {}, optional={name: _values(sub) for name, sub in schema["properties"].items()}
        )
        extras = st.dictionaries(_UNKNOWN_KEYS, _ANY, min_size=1, max_size=3)
        near = _sometimes(fitting, st.builds(lambda d, e: {**e, **d}, fitting, extras))
    elif "items" in schema:
        near = st.lists(_values(schema["items"]), max_size=4)
    else:
        accepts = _VALIDATOR.evolve(schema=schema).is_valid
        near = st.sampled_from([v for v in _CANDIDATES + schema.get("enum", []) if accepts(v)])
    return _sometimes(near, _ANY)


@seed(31)
@settings(max_examples=400, deadline=None)
@given(data=_values(_SCHEMA))
def test_check_config_reports_what_jsonschema_reports(data):
    want = _jsonschema_message(data)
    if want is None:
        check_config(data)
    else:
        with pytest.raises(ConfigError) as got:
            check_config(data)
        assert str(got.value) == want


@pytest.mark.parametrize(
    "data, message",
    [
        ({"seed": True}, "config invalid at seed: True is not of type 'integer'"),
        ({"gamma": False}, "config invalid at gamma: False is not of type 'number'"),
        ({"block_gates": {"source": "explicit", "gates": [1, True]}},
         "config invalid at block_gates/gates/1: True is not one of [0, 1]"),
        ({"zz": 1, "gama": 2, "tau": 5},
         "config invalid at <root>: Additional properties are not allowed ('gama', 'zz' were unexpected)"),
        ({"position": ""}, "config invalid at position: '' should be non-empty"),
        ({"gamma": -1, "tau": 2}, "config invalid at tau: 2 is greater than the maximum of 1"),
        ({"block_gates": {"nm": 1}},
         "config invalid at block_gates: Additional properties are not allowed ('nm' was unexpected)"),
        ({"alpha_grid": [1, float("-inf"), 0]},
         "config invalid at alpha_grid/2: 0 is less than or equal to the minimum of 0"),
    ],
)
def test_check_config_messages(data, message):
    assert _jsonschema_message(data) == message
    with pytest.raises(ConfigError) as got:
        check_config(data)
    assert str(got.value) == message


@pytest.mark.parametrize("data", [{"seed": 2.0, "dims": {"d_k": 3.0}}, {"alpha_grid": None}, {}])
def test_check_config_accepts(data):
    assert _jsonschema_message(data) is None
    check_config(data)


def test_a_run_imports_no_jsonschema(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"draws": 3, "format": "json"}))
    code = (
        "import sys\n"
        "from attnlab import cli\n"
        "cli.load_config(cli.build_parser().parse_args(sys.argv[1:]))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'jsonschema'))\n"
    )
    src = str(Path(attnlab.__file__).resolve().parents[1])
    argv = ["verify", "--config", str(cfg_path), "--seed", "2"]
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, timeout=60, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout == "[]\n"


def test_parsing_and_calibrate_import_no_suite_simulator_or_analysis(tmp_path):
    # Each command imports what it runs when it runs: a fresh interpreter that
    # resolves every command's argv, then calibrates in files and synthetic
    # mode, never loads the suites, the simulator or the analysis kernels.
    from test_surface import _write_inputs

    files = _write_inputs(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"draws": 3, "format": "json"}))
    out = ["--out", str(tmp_path / "out")]
    calibrate_files = ["calibrate", "--latent", files["latent"], "--attention", files["attention"]]
    parsed = [
        ["verify", "curvature", "--config", str(cfg_path), "--probes", "2"],
        ["sweep", "--z", "2,1,0", "--alpha-grid", "1,2"],
        ["sweep", "--draws", "3"],
        calibrate_files,
        ["calibrate", "--fixture", "wan2.1"],
        ["simulate", "--steps", "3", "--blocks", "2", "--preset", "all"],
    ]
    runs = [
        calibrate_files + out,
        calibrate_files + ["--mask", files["mask"], *out],
        ["calibrate", "--samples", "2", "--blocks", "2", *out],
    ]
    code = (
        "import contextlib, json, sys\n"
        "import attnlab\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('attnlab.'))\n"
        "before = loaded()\n"
        "from attnlab import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    cli.load_config(cli.build_parser().parse_args(argv))\n"
        "with contextlib.redirect_stdout(sys.stderr):\n"
        "    codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]\n"
        "print(json.dumps([before, codes, loaded()]))\n"
    )
    src = str(Path(attnlab.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(parsed), json.dumps(runs)],
        capture_output=True, text=True, timeout=60, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    before, codes, after = json.loads(done.stdout)
    assert before == []  # import attnlab loads no submodule
    assert codes == [0, 0, 0]
    loaded = set(after)
    assert loaded.isdisjoint({"attnlab.analysis", "attnlab.simulate", "attnlab.verification"})
    assert "attnlab.calibration" in loaded
