"""Tests of the benchmark's own oracles and checks.

    python3 -m pytest bench/test_bench.py -q

Each oracle is tested on cases worked out by hand, and each workload check
is fed a wrong answer that it must catch.
"""

import json
from fractions import Fraction
from pathlib import Path

import oracles as O
import run
import workloads as W
from oracles import Series, Tower, Value

from troplift import errors, series

XY, XYZ = W.XY, W.XYZ


def test_principal_rule():
    cusp = O.parse_poly_text("y^2 - x^3", XY)
    assert O.principal_member(cusp, (2, 3))
    assert not O.principal_member(cusp, (1, 1))
    xy = O.parse_poly_text("x*y", XY)
    assert not O.principal_member(xy, (1, 1))
    assert O.principal_member(xy, (None, 3))  # x = 0 kills the only monomial
    node = O.parse_poly_text("y^2 - x^2 - x^3", XY)
    assert O.principal_member(node, (Fraction(5, 2), Fraction(5, 2)))


def test_circuit_rule():
    forms = [[1, 1, 1], [1, 0, -1]]  # circuits {x,y}, {x,z}, {y,z}
    assert O.linear_member(forms, (2, 2, 2))
    assert not O.linear_member(forms, (1, 2, 1))
    assert not O.linear_member(forms, (None, 1, 1))  # y and z alone are circuits
    assert O.linear_member([[1, 1, 1]], (1, 1, 5))
    assert not O.linear_member([[1, 1, 1]], (1, 2, 3))


def test_monomial_curve_rule():
    assert O.curve_member((1, 2, 3), (2, 4, 6))
    assert not O.curve_member((1, 2, 3), (1, 2, 4))
    assert O.curve_member((1, 2, 3), (None, None, None))
    assert not O.curve_member((1, 2, 3), (1, None, 3))


def test_value_group_order():
    r2 = Value(0, 1, 2)
    assert Value(1) < r2 < Value(Fraction(3, 2))
    assert Value(Fraction(1, 2), Fraction(1, 2), 2) * 2 == Value(1) + r2
    assert (Value(3) + Value(0, -2, 2)).sign() == 1  # 3 > 2*sqrt(2)
    assert (Value(2) + Value(0, -2, 2)).sign() == -1


def test_tower_arithmetic():
    root2 = Tower([(-2, 0, 1)])  # Q(sqrt 2)
    a = (Fraction(0), Fraction(1))
    assert root2.mul(a, a) == root2.embed(Fraction(2))
    both = Tower([(-2, 0, 1), (-3, 0, 1)])  # Q(sqrt 2)(sqrt 3)
    s2 = (a, both.zero(1))
    s3 = (both.zero(1), both.embed(Fraction(1), 1))
    assert both.mul(s3, s3) == both.embed(Fraction(3))
    s6 = both.mul(s2, s3)
    assert both.mul(s6, s6) == both.embed(Fraction(6))
    assert not both.is_zero(both.add(s6, s2))


def test_series_substitution():
    tower = Tower()
    cusp = O.parse_poly_text("y^2 - x^3", XY)
    point = [Series.rational(tower, [(2, 1)]), Series.rational(tower, [(3, 1)])]
    assert O.residual_at_least(tower, cusp, point, 100)
    wrong = [Series.rational(tower, [(2, 1)]), Series.rational(tower, [(3, 2)])]
    assert O.residual_at_least(tower, cusp, wrong, 6)  # 3*t^6 remains
    assert not O.residual_at_least(tower, cusp, wrong, 7)
    # y = t^3 + O(t^7): y^2 is known below t^10 only
    tail = [Series.rational(tower, [(2, 1)]), Series.rational(tower, [(3, 1)], Value(7))]
    assert O.residual_at_least(tower, cusp, tail, 10)
    assert not O.residual_at_least(tower, cusp, tail, 11)


def test_binomial_series():
    assert [c for _, c in O.node_branch(1, 4)] == [1, Fraction(1, 2), Fraction(-1, 8),
                                                   Fraction(1, 16)]
    assert O.binomial_half(5) == Fraction(7, 256)


def test_text_parsers():
    terms, trunc = O.parse_series_text("-t^(1) - 1/2*t^(2) + 1/8*t^(3) + O(t^(8))")
    assert terms == [(1, -1), (2, Fraction(-1, 2)), (3, Fraction(1, 8))] and trunc == 8
    assert O.parse_poly_text("-x^3 + 2*x*y^2", XY) == {(3, 0): -1, (1, 2): 2}
    assert O.poly_text({(3, 0): -1, (0, 2): 1}, XY) == "-x^3 + y^2"


def _run_and_check(op):
    out = op.run()
    assert op.check(out) is None
    return out


def test_membership_check_catches_a_wrong_answer():
    op = W._member_op(W.CORPUS[1], (2, 3))
    out = _run_and_check(op)
    flipped = W.tropical.TropMembership(False, out.query, out.initial, None)
    assert op.check(flipped) is not None


def test_lift_check_catches_a_wrong_point():
    op = W._lift_op(XY, ("y^2 - x^2 - x^3",), (1, 1), 3)
    ring, result, report = _run_and_check(op)
    fld = ring.field
    result.point = (result.point[0], series.ValuedSeries(fld, [(1, 2)]))  # y = 2t
    assert "does not vanish" in op.check((ring, result, report))
    result.point = (series.ValuedSeries(fld, [(2, 1)]), result.point[1])  # x = t^2
    assert "valuation" in op.check((ring, result, report))


def test_node_check_uses_the_binomial_series():
    op = W._lift_op(XY, ("y^2 - x^2 - x^3",), (1, 1), 3, node=True)
    ring, result, report = _run_and_check(op)
    y = result.point[1]
    bent = [(e, c * 3 if k == 2 else c) for k, (e, c) in enumerate(y.terms)]
    result.point = (result.point[0], series.ValuedSeries(ring.field, bent, y.truncation))
    assert op.check((ring, result, report)) is not None


def test_newton_check_catches_a_wrong_root():
    tower = Tower()
    f = Series.rational(tower, [(1, 2), (2, -1)])
    op = W._newton_op([f], [(3, Series.rational(tower, [(1, 1), (2, 1)]))], 6)
    fld, roots = _run_and_check(op)
    assert len(roots) == 3
    bad = [series.ValuedSeries(fld, [(1, 2), (2, 1)])] + list(roots[1:])
    assert op.check((fld, bad)) is not None
    assert op.check((fld, roots[:2])) is not None


def test_cli_checks_catch_wrong_output():
    for argv, check in W.build_cli_argv(7):
        code, text = W.run_in_process(argv)
        assert check(code, text) is None, argv
    argv, check = W.build_cli_argv(7)[-1]  # np-solve
    code, text = W.run_in_process(argv)
    assert check(code, text.replace("1/8", "1/7")) is not None
    assert check(3, text) is not None


def test_known_faults_fail_as_described():
    op = W._lift_op(XY, ("y^9 - x^9 - x^10",), (1, 1), 3,
                    expect_error=errors.DescentWitnessError)
    try:
        op.run()
    except errors.DescentWitnessError as exc:
        assert "degree 9" in str(exc)
    else:
        raise AssertionError("the degree-9 edge polynomial lifted")


def test_inputs_depend_only_on_the_seed():
    for name in ("tropical", "lift", "newton"):
        a, b = W.build(name, 5), W.build(name, 5)
        assert [op.label for op in a.ops] == [op.label for op in b.ops]
        assert len(W.build(name, 6).ops) == len(a.ops)
    assert W.build_cli_argv(3) and [a for a, _ in W.build_cli_argv(3)] == [
        a for a, _ in W.build_cli_argv(3)]


def test_benchmark_json_matches_the_metrics_printed():
    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "bench/run.py"] and doc["paths"] == ["bench"]
    assert [w["name"] for w in doc["workloads"]] == list(W.WORKLOADS) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == run.PER_LAYER
    setup = next(m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup for m in doc["end_to_end"])
