"""Property test: an invalid config is refused before any work or output.

One to three keys of a shipped config get an invalid value each: a wrong
type, a value out of range, an unknown name, or null; a removed key or the
unknown key `bogus` may be added.  `output` points into a
temporary directory unless it is an edited key.  `cli.main` then exits 2
with one stderr line that names an edited key, makes no output directory,
and raises nothing (every error it meets is an `SbfemError`).
"""
import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from sbfem.cli import main

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))

# key -> invalid values; `level`, `threads`, the three error-rule keys and
# `dump_eigenvalues` are removed keys, refused as unknown whatever their value
INVALID = {
    "command": ["nosuch", 5],
    "mesh": [5, ["quad"], "nosuch", None],
    "level": ["2", 1.5, True, 0, -1],
    "levels": [1.5, True, {"a": 1}, "a", -1, "0..2", "2,1", [2, 1], [1, 1], [], None],
    "k": [1.5, True, "x", 0, 9, "7..9", [], None, "2,2", [2, 1]],
    "problem": [5, "nosuch", None],
    "output": [5, ["out"], None],
    "bc": [5, "foo", None],
    "threads": ["x", 0, -4, None],
    "facet_order": [8, "x", None],
    "radial_points": [20, 0, None],
    "composite_levels": [8, -1, None],
    "dump_eigenvalues": [True, False, None],
    "bogus": [1],
}


@settings(max_examples=150, deadline=None)
@given(path=st.sampled_from(CONFIGS),
       keys=st.lists(st.sampled_from(sorted(INVALID)), min_size=1, max_size=3,
                     unique=True),
       data=st.data())
def test_invalid_config_edit_exits_2_and_writes_nothing(path, keys, data):
    config = json.loads(path.read_text())
    command = config["command"]
    with tempfile.TemporaryDirectory() as tmp:
        config["output"] = str(Path(tmp) / "out")
        for key in keys:
            config[key] = data.draw(st.sampled_from(INVALID[key]), label=key)
        edited = Path(tmp) / "edited.json"
        edited.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main([command, "--config", str(edited)])
        assert sorted(p.name for p in Path(tmp).iterdir()) == ["edited.json"]
    assert rc == 2
    line = err.getvalue()
    assert line.startswith("sbfem: config error: ") and line.count("\n") == 1
    assert any(re.search(rf"\b{key}\b", line) for key in keys), line
