"""JSON round trips with deterministic output."""

import hashlib
import json
import math
from dataclasses import asdict
from fractions import Fraction

import pytest

from natspec.decomposition import DecompositionOptions, decompose
from natspec.errors import SchemaError
from natspec.kronecker import KroneckerProblem, KroneckerSolution
from natspec.measures import MixedMeasure, TrigPolyDensity, as_mixed
from natspec.sampling import default_rng, random_basis, random_discrete, random_mixed
from natspec.serialize import (angle_from_json, angle_to_json, basis_from_json,
                               basis_to_json, dumps, kronecker_problem_from_json,
                               kronecker_solution_to_json, measure_from_json,
                               measure_to_json, read_json, write_json)


def test_dumps_is_sorted_and_newline_terminated():
    text = dumps({"b": 1, "a": [1.5, "x"]})
    assert text == '{\n  "a": [\n    1.5,\n    "x"\n  ],\n  "b": 1\n}\n'
    assert dumps({"b": 1, "a": 2}) == dumps({"a": 2, "b": 1})


def test_json_file_round_trip(tmp_path):
    path = tmp_path / "obj.json"
    write_json(path, {"x": [1, 2, 3]})
    assert read_json(path) == {"x": [1, 2, 3]}


def test_read_json_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(SchemaError):
        read_json(path)


def test_basis_round_trip(basis):
    assert basis_from_json(basis_to_json(basis)) == basis


def test_angle_round_trip(basis):
    ang = basis.angle(Fraction(5, 6), (2, -3))
    obj = angle_to_json(ang, basis)
    assert obj["turns"] == "5/6"
    assert obj["coeffs"] == {"a": 2, "b": -3}
    assert angle_from_json(obj, basis) == ang
    plain = angle_to_json(basis.zero(), basis)
    assert plain["coeffs"] == {}
    assert angle_from_json(plain, basis) == basis.zero()


def test_discrete_measure_round_trip(basis):
    rng = default_rng(101)
    for _ in range(5):
        mu = random_discrete(rng, basis)
        obj = measure_to_json(mu)
        assert obj["kind"] == "discrete"
        back = measure_from_json(obj)
        assert back == mu


def test_mixed_measure_round_trip(basis):
    rng = default_rng(202)
    for _ in range(5):
        mu = random_mixed(rng, basis)
        obj = measure_to_json(mu)
        assert obj["kind"] == "mixed"
        back = measure_from_json(obj)
        assert back == mu


def test_measure_round_trip_is_byte_stable(basis):
    mu = random_mixed(default_rng(7), basis)
    once = dumps(measure_to_json(mu))
    twice = dumps(measure_to_json(measure_from_json(measure_to_json(mu))))
    assert once == twice


def test_discrete_kind_rejects_density_payload(basis):
    obj = measure_to_json(as_mixed(MixedMeasure.from_density(basis, {1: 1.0})))
    obj["kind"] = "discrete"
    with pytest.raises(SchemaError):
        measure_from_json(obj)


def test_measure_schema_errors(basis):
    with pytest.raises(SchemaError):
        measure_from_json({"kind": "unknown", "basis": basis_to_json(basis)})
    with pytest.raises(SchemaError):
        measure_from_json({"kind": "discrete"})
    with pytest.raises(SchemaError):
        measure_from_json([1, 2, 3])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("section,key", [("atoms", "re"), ("atoms", "im"), ("ac", "re"),
                                         ("ac", "im"), ("basis", "value")])
def test_measure_parse_rejects_non_finite_numbers(basis, section, key, bad):
    obj = measure_to_json(random_mixed(default_rng(7), basis))
    obj[section][-1][key] = bad
    with pytest.raises(SchemaError, match="must be finite"):
        measure_from_json(obj)
    # Python's json module reads and writes the NaN/Infinity tokens
    with pytest.raises(SchemaError, match="must be finite"):
        measure_from_json(json.loads(json.dumps(obj)))


def test_kronecker_problem_round_trip():
    problem = KroneckerProblem(alpha=math.sqrt(2), beta=math.sqrt(3), target_x=1.0,
                               target_y=2.0, epsilon=0.05, n_max=12345,
                               method="lattice", min_abs_n=3, parity="odd")
    assert kronecker_problem_from_json(asdict(problem)) == problem
    defaults = kronecker_problem_from_json(
        {"alpha": 1.0, "beta": 2.0, "target_x": 0.0, "target_y": 0.0, "epsilon": 0.1})
    assert defaults.n_max == 10 ** 6 and defaults.parity == "any"
    assert defaults == KroneckerProblem(1.0, 2.0, 0.0, 0.0, 0.1)
    partial = kronecker_problem_from_json(
        {"alpha": 1.0, "beta": 2.0, "target_x": 0.0, "target_y": 0.0, "epsilon": 0.1,
         "n_max": 500.0, "min_abs_n": "4"})
    assert partial == KroneckerProblem(1.0, 2.0, 0.0, 0.0, 0.1, n_max=500, min_abs_n=4)
    with pytest.raises(SchemaError):
        kronecker_problem_from_json({"alpha": 1.0})


def test_kronecker_solution_serializes():
    sol = KroneckerSolution(40, 0.0198744032001446, 0.16679995163153874, 79)
    obj = kronecker_solution_to_json(sol)
    assert obj["n"] == 40 and obj["evaluations"] == 79
    assert json.loads(dumps(obj)) == obj


# sha256 of dumps(measure_to_json(nu)) for nu0, nu1 and nu2
PINNED_PIECES = [
    ("20f6d18ca5dbb1c3763f366cc6b3affdf4a6551078d824c9e70fafa6e3fd444a",
     "817d4c76b3b87086fe768afe88ad9bf42ab9225d255e4fb770d23710b3de2b0b",
     "d7eb0ddc0c5aa66f08445045645d2241e2e111e7dde688140e23b69743abe83f"),
    ("6119252347713257029edbfca65c269ce68f3f55d8d8d8742980cc7f88cdd733",
     "df9f074d029db4602eb5f93dcf908aa11f48428f19d915ccbd4f2c9faa0b7a72",
     "9af519a9e4cf87d75c195ac1b7a4f8bb3f1a5f7f32b8f0762f5ca8549b88412d"),
    ("b760a01efd673efb62c9237d88fd72e5f5bcd9582af72a88567acc315e4b2296",
     "2667c5969f58da0e7a304ea7fed0af0daebdbc2e8a77957c67346a703225fb00",
     "ebbe51b350630229ba4c02ee0ac780a40d387fc52cd9570cfaad2fd33b21bf88"),
]


def test_manual_radius_pieces_keep_their_pinned_bytes():
    # frozen files of the three pieces: the parity split, the half-turn
    # pairs, the merges of nu0, nu1 and nu2 and the atoms' JSON all reach
    # these bytes; manual radii keep the radius walk out of them.  The
    # inputs have half-turn partners (denominators 2, 4 and 6), and the
    # radii are not dyadic, so nu2's merged weights round
    basis = random_basis(2)
    inputs = [(random_discrete(default_rng(2601), basis, n_atoms=6, denominators=(1, 2, 4)),
               (7.3, 9.1)),
              (random_discrete(default_rng(2602), basis, n_atoms=8, denominators=(2, 3, 6)),
               (5.9, 6.7)),
              (random_mixed(default_rng(2603), basis), (4.1, 3.7))]
    for (mu, radii), pinned in zip(inputs, PINNED_PIECES):
        result = decompose(mu, DecompositionOptions(radius_mode="manual", manual_radii=radii,
                                                    verify=False))
        assert tuple(hashlib.sha256(dumps(measure_to_json(nu)).encode()).hexdigest()
                     for nu in (result.nu0, result.nu1, result.nu2)) == pinned
