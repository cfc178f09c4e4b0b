import json
from fractions import Fraction

import numpy as np
import pytest

import polarkit as pk
from polarkit.serialize import load_json

from conftest import random_matrix


def test_matrix_round_trip(tmp_path, rng):
    a = random_matrix(rng, 3)
    path = tmp_path / "m.json"
    pk.write_matrix(str(path), a)
    back = pk.read_matrix(str(path))
    assert np.array_equal(a, back)  # bit-faithful, not merely close


def test_matrix_round_trip_reference_shift(tmp_path, shift4):
    path = tmp_path / "shift.json"
    pk.write_matrix(str(path), shift4)
    back = pk.read_matrix(str(path))
    assert pk.operator_norm(shift4 - back) == 0.0


def test_matrix_json_shape():
    obj = pk.matrix_to_json(np.eye(2, dtype=complex))
    assert obj["dim"] == 2
    assert obj["entries"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]


def test_matrix_from_json_rejects_wrong_count():
    obj = {"dim": 2, "entries": [[1.0, 0.0]] * 3}
    with pytest.raises(pk.ParseError) as err:
        pk.matrix_from_json(obj)
    assert "expected" in str(err.value)


def test_matrix_from_json_rejects_bad_entry():
    with pytest.raises(pk.ParseError):
        pk.matrix_from_json({"dim": 1, "entries": [[1.0]]})
    with pytest.raises(pk.ParseError):
        pk.matrix_from_json({"dim": 0, "entries": []})
    with pytest.raises(pk.ParseError):
        pk.matrix_from_json([1, 2, 3])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_matrix_from_json_rejects_non_finite_entry(bad):
    obj = json.loads(json.dumps({"dim": 2, "entries": [[0.0, 0.0], [1.0, bad], [0.0, 0.0], [1.0, 0.0]]}))
    with pytest.raises(pk.ParseError, match=r"entries\[1\] is not finite"):
        pk.matrix_from_json(obj)


def test_load_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 2,\n  "entries": [[1,]]}\n')
    with pytest.raises(pk.ParseError) as err:
        load_json(str(path))
    msg = str(err.value)
    assert "broken.json" in msg and "line" in msg


def test_load_json_missing_file(tmp_path):
    with pytest.raises(pk.ParseError):
        load_json(str(tmp_path / "absent.json"))


def test_normal_form_round_trip():
    phi = pk.PhiMap.affine(0.5, 1.0)
    nf = pk.normal_order(pk.parse_word("a a a*"), phi)
    obj = pk.normal_form_to_json(nf)
    assert obj["deg"] == 1
    back = pk.normal_form_from_json(obj)
    assert (back.l, back.m) == (nf.l, nf.m)
    assert np.allclose([complex(c) for c in back.p], [complex(c) for c in nf.p])


def test_exact_normal_form_round_trip():
    phi = pk.PhiMap.affine_exact("1/3", "1")
    nf = pk.normal_order(pk.parse_word("a a a* a* a*"), phi)
    obj = json.loads(json.dumps(pk.normal_form_to_json(nf)))
    assert obj["p"] == ["52/27", "17/81", "1/243"]
    back = pk.normal_form_from_json(obj)
    assert back == nf
    assert all(isinstance(c, Fraction) for c in back.p)


def test_exact_coefficient_must_be_a_fraction():
    with pytest.raises(pk.ParseError):
        pk.normal_form_from_json({"l": 0, "m": 0, "p": ["1/0"]})


@pytest.mark.parametrize(
    "obj",
    [
        {"l": 0, "m": 0, "p": [None]},
        {"l": 0, "m": 0, "p": 5},
        {"l": 0, "m": 0, "p": [[1, "x"]]},
        {"l": "x", "m": 0, "p": [1]},
        {"l": 0, "m": 0, "p": [float("nan")]},
        {"l": 0, "m": 0, "p": [[1.0, float("nan")]]},
        {"l": -1, "m": 0, "p": [1]},
        {"l": 0, "m": -2, "p": [1]},
        {"l": True, "m": 0, "p": [1.0]},
        {"l": 1, "m": False, "p": [1.0]},
    ],
    ids=["null", "number_p", "bad_pair", "string_l", "nan", "nan_pair", "negative_l", "negative_m",
         "bool_l", "bool_m"],
)
def test_malformed_normal_form_is_a_parse_error(obj):
    with pytest.raises(pk.ParseError):
        pk.normal_form_from_json(obj)


def test_model_spec_round_trip():
    specs = [
        pk.weighted_shift((1.0, 2.0)),
        pk.q_oscillator(6, 0.5, 1.0),
        pk.normal((1.0, 1.0j)),
        pk.jordan_block(3),
        pk.custom(np.eye(2, dtype=complex)),
    ]
    for spec in specs:
        back = pk.model_spec_from_json(pk.model_spec_to_json(spec))
        assert back.kind == spec.kind
        assert np.allclose(pk.build(back), pk.build(spec))


def test_model_spec_from_json_names_missing_field():
    with pytest.raises(pk.ParseError) as err:
        pk.model_spec_from_json({"kind": "q_oscillator", "dim": 4, "q": 0.5})
    assert "h" in str(err.value)
    with pytest.raises(pk.ParseError):
        pk.model_spec_from_json({"kind": "nonsense"})


def test_dumps_canonical_is_stable():
    obj = {"b": 1.5, "a": [1e-9, 2.0], "c": {"y": True, "x": None}}
    s1 = pk.dumps_canonical(obj)
    s2 = pk.dumps_canonical(json.loads(s1))
    assert s1 == s2
    assert s1.endswith("\n")
    assert s1.index('"a"') < s1.index('"b"') < s1.index('"c"')


def test_dumps_canonical_floats_round_trip():
    vals = [0.1, 1.0 / 3.0, 2.0 ** 0.5, 1e-300]
    s = pk.dumps_canonical(vals)
    assert json.loads(s) == vals
