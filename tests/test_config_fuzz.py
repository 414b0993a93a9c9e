"""Fuzzed `forge run` inputs: mutated shipped configs and raw bytes.

Whatever the config, `forge run` ends with an exit code of 0, 2, 3 or 4,
prints no traceback, and creates nothing outside its output directory.
Grids keep n <= 201 (or beyond the reader's bound), so each run is short.
"""

import contextlib
import copy
import io
import json
import os
import pathlib
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from solvforge import cli

REPO = pathlib.Path(__file__).resolve().parent.parent
SMALL_N = 201


def _shipped():
    configs = []
    for path in sorted((REPO / "configs").glob("*.json")):
        cfg = json.loads(path.read_text())
        cfg["grid"]["n"] = SMALL_N
        configs.append(cfg)
    return configs


SHIPPED = _shipped()

# every key and word the schema knows, so that mutations often stay near it
_WORDS = [
    "grid", "a", "b", "n", "base", "V0", "h", "mode", "direction", "seeds", "eval_gammas",
    "tolerance", "output", "dir", "prefix", "gamma_sq", "C", "expr", "bc", "value", "slope", "at",
    "gamma_prime_sq", "c", "darboux", "chain", "bargmann", "multichannel", "from_left",
    "from_right", "regular_at_left", "jost_at_right", "left", "right", "job", "", ".", "..",
]
_EXPRESSIONS = [
    "0", "1", "r", "-1", "1/r", "log(r)", "sqrt(r - 1)", "exp(r)", "exp(exp(r))", "cosh(r)",
    "sinh(r - 1)", "sech(r)^2", "1 + exp(-r)", "(1+r)^4", "-2/(1+r)^2", "r^-2", "0^0", "1 + (",
    "foo(r)", "1e999", "+".join(["r"] * 150), "(" * 150 + "r" + ")" * 150,
]
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10, SMALL_N),
    st.integers(cli.MAX_NODES + 1, 2**70),
    st.floats(),
    st.sampled_from(_WORDS + _EXPRESSIONS),
    st.text(max_size=8),
)
# numbers that keep a config well formed: near the shipped values, or anywhere
_NUMBERS = st.one_of(
    st.integers(-10, SMALL_N), st.floats(-10.0, 10.0), st.floats(allow_nan=False, allow_infinity=False)
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(_WORDS), inner, max_size=4),
    max_leaves=12,
)


def _slots(cfg):
    """(container, key) for every value in a config, and for one new key in
    each object and one new index at the end of each list."""
    out = []
    if isinstance(cfg, dict):
        keys = [*cfg, "new"]
    elif isinstance(cfg, list):
        keys = range(len(cfg) + 1)
    else:
        return out
    for key in keys:
        out.append((cfg, key))
        if isinstance(cfg, dict) and key in cfg or isinstance(cfg, list) and key < len(cfg):
            out.extend(_slots(cfg[key]))
    return out


@st.composite
def mutated_configs(draw):
    cfg = copy.deepcopy(draw(st.sampled_from(SHIPPED)))
    for _ in range(draw(st.integers(1, 3))):
        container, key = draw(st.sampled_from(_slots(cfg)))
        if isinstance(container, dict) and key == "new":
            key = draw(st.sampled_from(_WORDS))
        exists = key in container if isinstance(container, dict) else key < len(container)
        number = exists and type(container[key]) in (int, float)
        if number and draw(st.booleans()):
            container[key] = draw(_NUMBERS)
        elif exists and draw(st.booleans()):
            del container[key]
        elif isinstance(container, list) and not exists:
            container.append(draw(_VALUES))
        else:
            container[key] = draw(_VALUES)
    return json.dumps(cfg).encode()


def _run_in_fresh_directory(raw: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        (root / "job.json").write_bytes(raw)
        out = root / "out"
        before = os.getcwd()
        err = io.StringIO()
        os.chdir(root)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = cli.main(["run", "job.json", "--out-dir", str(out)])
        finally:
            os.chdir(before)
        outside = [p.name for p in root.iterdir() if p.name not in ("job.json", "out")]
        return rc, err.getvalue(), outside


def _check(raw: bytes):
    rc, err, outside = _run_in_fresh_directory(raw)
    assert rc in (0, 2, 3, 4), (rc, err)
    assert "Traceback" not in err, err
    assert outside == [], outside
    if rc in (2, 3):
        assert err.startswith("error: ") and err.count("\n") == 1, err


_FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestConfigFuzz:
    @_FUZZ
    @given(mutated_configs())
    def test_mutated_shipped_configs(self, raw):
        _check(raw)

    @_FUZZ
    @given(st.binary(max_size=200) | mutated_configs().map(lambda raw: raw[: len(raw) // 2]))
    def test_raw_bytes(self, raw):
        _check(raw)
