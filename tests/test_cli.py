"""Command line behaviour: goldens, exit codes, files, determinism."""

import io
import json
import signal
from contextlib import contextmanager
from pathlib import Path

import pytest

from test_acceptance import _GOLDEN_ARGVS
from troplift import cli
from troplift.cli import run
from troplift.errors import InternalInvariantError

# the cone at w=(1,1) whose ineq=-1,201 row, like init-ideal's y^201 + x,
# comes from the 200-reduction cap on local tails
_CAP_ARGV = ["cone", "--vars", "x,y", "--ideal", "x+y;x-y^2", "--w", "1,1"]

# lift paths: an algebraic coefficient, a descent with a rank-one quadric,
# two descents, a 300-node Newton chain, and a lift beyond the extension
# bounds (one failure per parameter set)
_LIFT_ARGVS = [
    ["lift", "--vars", "x,y", "--ideal", "y^2-2*x^2", "--w", "1,1", "--N", "5"],
    ["lift", "--vars", "x,y,z", "--ideal", "x*y-z^2", "--w", "1,3,2",
     "--N", "6", "--json"],
    ["lift", "--vars", "x1,x2,x3,x4", "--ideal", "x1+x2+x3+x4",
     "--w", "1,1,1,1", "--N", "4", "--json"],
    ["np-solve", "--coeffs=-1;1-t", "--N", "300"],
    ["lift", "--vars", "x,y", "--ideal", "y^3-2*x^3", "--w", "1,1", "--N", "5"],
]


def cap(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def test_member_true_example():
    code, out, err = cap(
        ["trop-member", "--vars", "x,y", "--ideal", "y^2-x^3", "--w", "2,3"]
    )
    assert code == 0
    assert out == "w=2,3: member=true\n"
    assert err == ""


def test_member_false_example():
    code, out, err = cap(
        ["trop-member", "--vars", "x,y", "--ideal", "x+y", "--w", "1,2"]
    )
    assert code == 1
    assert out == "w=1,2: member=false witness=x\n"


def test_member_false_witness_past_the_64th_power():
    """Witnesses beyond (x*y)^64 are found, and lift reports the non-member."""
    base = ["--vars", "x,y", "--w", "1,1"]
    assert cap(["trop-member", "--ideal", "x^65"] + base) == (
        1, "w=1,1: member=false witness=x^65\n", "")
    assert cap(["trop-member", "--ideal", "x^70*y-x^70*y^2"] + base) == (
        1, "w=1,1: member=false witness=x^70*y\n", "")
    assert cap(["lift", "--ideal", "x^65", "--N", "3"] + base) == (
        1, "", "non-member: the initial ideal contains the monomial x^65\n")


@contextmanager
def _alarm(seconds):
    """Turn a hang into a failure after the given seconds."""

    def hang(signum, frame):
        raise TimeoutError("ran past %d s" % seconds)

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_member_false_within_seconds():
    """A local standard basis that Mora's algorithm did not finish in 40 s."""
    with _alarm(20):
        code, out, err = cap(
            ["trop-member", "--vars", "x,y", "--w", "2,5",
             "--ideal=-3*x^3*y-x^2*y^2+1/3*x*y^3-3*x^3;-x^2*y^2+2*x-y"]
        )
    assert (code, out, err) == (1, "w=2,5: member=false witness=x\n", "")


def test_large_radicand_is_a_usage_error():
    """sqrt(n) in a weight and --d refuse n above 10^12 before any trial
    division; 10^12 itself is accepted."""
    base = ["trop-member", "--vars", "x,y", "--ideal", "y-x", "--w"]
    big = "1000000000000000000000000000057"
    with _alarm(5):
        assert cap(base + ["sqrt(%s),1" % big]) == (
            2, "", "usage error: sqrt(%s) is above the bound 10^12\n" % big)
        assert cap(base + ["1,1", "--d", "1000000000001"]) == (
            2, "", "usage error: d=1000000000001 is above the bound 10^12\n")
        assert cap(base + ["sqrt(1000000000000),1"]) == (
            1, "w=1000000,1: member=false witness=y\n", "")


def test_lift_cusp_json_example():
    code, out, _ = cap(
        ["lift", "--vars", "x,y", "--ideal", "y^2-x^3",
         "--w", "2,3", "--N", "10", "--json"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "achieved": ["2", "3"],
        "descents": [],
        "point": ["t^(2)", "t^(3)"],
        "residual_bounds": ["inf"],
    }


def test_lift_node_text():
    code, out, _ = cap(
        ["lift", "--vars", "x,y", "--ideal", "y^2-x^2-x^3",
         "--w", "1,1", "--N", "5"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("point=t^(1); ")
    assert "1/2*t^(2)" in lines[0]
    assert "5/128*t^(5)" in lines[0]
    assert lines[1] == "achieved=1; 1"


def test_lift_descent_text():
    code, out, _ = cap(
        ["lift", "--vars", "x,y,z", "--ideal", "x+y+z",
         "--w", "1,1,1", "--N", "6"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "point=t^(1); -2*t^(1); t^(1)"
    assert lines[1] == "achieved=1; 1; 1"
    assert lines[2] == "residual_bounds=inf"
    assert lines[3] == "descent: f=2*x + y dim 2->1"


def test_lift_hahn_json():
    code, out, _ = cap(
        ["lift", "--vars", "x,y,z", "--ideal", "x*y-z^2",
         "--w", "1,sqrt(2),(1+sqrt(2))/2", "--N", "4",
         "--mode", "hahn", "--d", "2", "--json"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["point"] == ["t^(1)", "t^(sqrt(2))", "t^(1/2+1/2*sqrt(2))"]
    assert obj["achieved"] == ["1", "sqrt(2)", "1/2+1/2*sqrt(2)"]


@pytest.mark.parametrize(
    "w, extra, lines",
    [
        ("1,sqrt(2)", ["--mode", "hahn", "--d", "2"], ["point=t^(1); t^(sqrt(2))"]),
        ("1,2", [], ["point=t^(1); t^(2)", "descent: f=-x^2 + y dim 2->1"]),
    ],
)
def test_lift_of_the_zero_ideal(w, extra, lines):
    """After the descents the weight rank equals the number of variables,
    so every variable is a parameter and the one set of all of them is
    taken without a test."""
    code, out, err = cap(
        ["lift", "--vars", "x,y", "--ideal", "0", "--w", w, "--N", "3", *extra]
    )
    assert (code, err) == (0, "")
    shown = [ln for ln in out.splitlines() if ln.startswith(("point=", "descent:"))]
    assert shown == lines


def test_init_form_text():
    code, out, _ = cap(
        ["init-form", "--vars", "x,y", "--ideal", "y^2-x^3", "--w", "2,3"]
    )
    assert code == 0
    assert out == "w_order=6\ninit_form=-x^3 + y^2\n"


def test_init_ideal_text():
    code, out, _ = cap(
        ["init-ideal", "--vars", "x,y", "--ideal", "x+y;x-y^2", "--w", "1,1"]
    )
    assert code == 0
    assert out == "init=x\ninit=y\nmonomial_free=false\n"


def test_coset_val_text():
    code, out, _ = cap(
        ["coset-val", "--vars", "x,y", "--ideal", "x-y-y^2",
         "--w", "1,1", "--g", "x-y"]
    )
    assert code == 0
    assert out == "value=2\n"


def test_cone_json_and_text():
    argv = ["cone", "--vars", "x,y", "--ideal", "y^2-x^3", "--w", "2,3"]
    code, out, _ = cap(argv + ["--json"])
    assert code == 0
    assert json.loads(out) == {
        "dim": 1, "eq": [[3, -2]], "ineq": [[0, 1], [1, 0]]
    }
    code, out, _ = cap(argv)
    assert code == 0
    assert out == "eq=3,-2\nineq=0,1\nineq=1,0\ndim=1\n"


def test_trop_hyper_text():
    code, out, _ = cap(["trop-hyper", "--vars", "x,y", "--ideal", "y^2-x^3"])
    assert code == 0
    assert out == "cone: eq=[3,-2] ineq=[0,1;1,0] sample=2/3,1\ncones=1\n"


def test_trop_enum_json():
    code, out, _ = cap(
        ["trop-enum", "--vars", "x,y", "--ideal", "x+y", "--json"]
    )
    assert code == 0
    lines = out.splitlines()
    assert json.loads(lines[-1]) == {
        "cones": 3, "members": 1, "truncated": False
    }
    members = [json.loads(l) for l in lines[:-1] if json.loads(l)["member"]]
    assert len(members) == 1
    assert members[0]["eq"] == [[1, -1]]


def test_trop_enum_budget_truncates():
    code, out, _ = cap(
        ["trop-enum", "--vars", "x,y", "--ideal", "y^2-x^3",
         "--budget", "1", "--json"]
    )
    assert code == 0
    assert json.loads(out.splitlines()[-1])["truncated"] is True


def test_np_solve_text():
    code, out, _ = cap(["np-solve", "--coeffs=-t^(3);0;1", "--N", "10"])
    assert code == 0
    assert out == "root=-t^(3/2)\nroot=t^(3/2)\nroots=2\n"


def test_np_solve_insufficient_truncation():
    code, out, err = cap(
        ["np-solve", "--coeffs=t^(1) + O(t^(2));1", "--N", "5"]
    )
    assert code == 3
    assert err.startswith("capability limit:")


def test_np_solve_truncation_errors_name_their_exponents():
    """The two truncation errors of the Newton walk, with the separation
    bound printed in t's exponents, not in the walk's units, also when a
    truncation is irrational."""
    code, out, err = cap(["np-solve", "--coeffs=O(t^(5));O(t^(9));1", "--N", "3"])
    assert (code, out) == (3, "")
    assert err == (
        "capability limit: roots near the accumulator are only separated"
        " up to t^(5/2)\n"
    )
    code, out, err = cap(
        ["np-solve", "--coeffs=O(t^(sqrt(2)));O(t^(sqrt(2)));1", "--N", "1"]
    )
    assert (code, out) == (3, "")
    assert err.endswith(" up to t^(1/2*sqrt(2))\n")
    code, out, err = cap(["np-solve", "--coeffs=t^(1);O(t^(1));t^(4)", "--N", "3"])
    assert (code, out) == (3, "")
    assert err == (
        "capability limit: coefficient 1 is only known above the Newton polygon\n"
    )


def test_np_solve_goldens():
    for argv, want in (
        (["np-solve", "--coeffs=-2*t^(2);0;1", "--N", "4"],
         "root=-a1*t^(1)\nroot=a1*t^(1)\nroots=2\n"),
        (["np-solve", "--mode", "hahn", "--d", "2",
          "--coeffs=-t^(2*sqrt(2));0;1", "--N", "4"],
         "root=-t^(sqrt(2))\nroot=t^(sqrt(2))\nroots=2\n"),
        (["np-solve", "--coeffs=-t^(2)+O(t^(9));t^(3);1", "--N", "4"],
         "root=-t^(1) - 1/2*t^(3) + O(t^(5))\n"
         "root=t^(1) - 1/2*t^(3) + O(t^(5))\nroots=2\n"),
    ):
        assert cap(argv) == (0, want, ""), argv


def test_np_solve_degenerate_polynomials():
    """A zero polynomial is refused as input; one whose coefficients all
    vanish below their truncations is beyond what the walk can decide."""
    assert cap(["np-solve", "--coeffs=0;0", "--N", "3"]) == (
        2, "", "usage error: the polynomial is identically zero\n"
    )
    assert cap(["np-solve", "--coeffs=O(t^(2));O(t^(3))", "--N", "3"]) == (
        3, "", "capability limit: every coefficient vanishes below its truncation\n"
    )


def test_np_solve_precision_target_checks():
    base = ["np-solve", "--coeffs=-t^(2);0;1", "--N"]
    assert cap(base + ["inf"]) == (
        2, "", "usage error: the precision target must be finite\n"
    )
    for N in ("0", "-1"):
        assert cap(base + [N]) == (
            2, "", "usage error: the precision target must be positive\n"
        )


def test_verify_pass_and_fail():
    base = ["verify", "--vars", "x,y", "--ideal", "y^2-x^3",
            "--w", "2,3", "--N", "10"]
    code, out, _ = cap(base + ["--point", "t^(2); t^(3)"])
    assert code == 0
    assert out.splitlines()[0] == "ok=true"
    assert "residual[0]: valuation=inf exact_zero=true ok=true" in out

    code, out, _ = cap(base + ["--point", "t^(1); t^(1)"])
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "ok=false"
    assert "valuation[0]: expected=2 observed=1 ok=false" in lines


def test_tensor_text():
    code, out, _ = cap(
        ["tensor", "--vars", "x1,x2", "--ideal", "x1+x2", "--w", "1,1",
         "--vars2", "y1,y2", "--ideal2", "y1+y2", "--w2", "2,2"]
    )
    assert code == 0
    assert out.splitlines()[-1] == "ok=true"


def test_tensor_checks_the_second_variable_list():
    code, out, err = cap(
        ["tensor", "--vars", "x1,x2", "--ideal", "x1+x2", "--w", "1,1",
         "--vars2", "1y,y2", "--ideal2", "y2", "--w2", "1,1"]
    )
    assert (code, out, err) == (2, "", "usage error: bad variable name '1y'\n")


def test_signed_factor_after_a_product():
    # "x*-y" is x times -y, the same ideal as "y^3-x*y"
    base = ["trop-member", "--vars", "x,y", "--w", "2,1", "--ideal"]
    expected = (0, "w=2,1: member=true\n", "")
    assert cap(base + ["y^3+x*-y"]) == expected
    assert cap(base + ["y^3-x*y"]) == expected


def test_sqrt_of_a_square_is_positive():
    code, out, err = cap(
        ["init-form", "--vars", "x,y", "--ideal", "sqrt(4)*x+y", "--w", "1,1"]
    )
    assert (code, out, err) == (0, "w_order=1\ninit_form=2*x + y\n", "")


def test_weight_sqrt_takes_out_the_square_part():
    # sqrt(4) is 2 and sqrt(8) is 2*sqrt(2); --d is checked against the
    # squarefree part
    base = ["trop-member", "--vars", "x,y", "--ideal", "y-x", "--w"]
    assert cap(base + ["sqrt(4),2"]) == (0, "w=2,2: member=true\n", "")
    assert cap(base + ["sqrt(8),2*sqrt(2)", "--d", "2"]) == (
        0, "w=2*sqrt(2),2*sqrt(2): member=true\n", "")
    assert cap(base + ["sqrt(9)/3,1", "--d", "5"]) == (0, "w=1,1: member=true\n", "")
    assert cap(base + ["sqrt(8),1", "--d", "3"]) == (
        2, "", "usage error: sqrt(8) conflicts with the session constant d=3\n")
    # --d itself must be a positive squarefree integer
    for d in ("12", "0", "-3"):
        assert cap(base + ["1,1", "--d", d]) == (
            2, "", f"usage error: d={d} is not a positive squarefree integer\n")
    assert cap(base + ["sqrt(12),2*sqrt(3)", "--d", "3"]) == (
        0, "w=2*sqrt(3),2*sqrt(3): member=true\n", "")


def test_sqrt_is_not_a_variable_name():
    code, out, err = cap(
        ["trop-member", "--vars", "sqrt,y", "--ideal", "sqrt+y", "--w", "1,1"]
    )
    assert (code, out, err) == (2, "", "usage error: bad variable name 'sqrt'\n")


def test_verify_point_with_a_square_root_coefficient():
    code, out, err = cap(
        ["verify", "--vars", "x,y", "--ideal", "y^2-3*x^2", "--w", "1,1",
         "--N", "5", "--point", "t;sqrt(3)*t"]
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "ok=true"


def test_ideal_fixture_file(tmp_path):
    fixture = tmp_path / "cusp.ideal"
    fixture.write_text(
        "# plane cusp\nvars: x, y\norder: local\nw: 2, 3\ny^2 - x^3\n"
    )
    code, out, _ = cap(["trop-member", "--ideal", "@%s" % fixture, "--w", "2,3"])
    assert code == 0
    assert out == "w=2,3: member=true\n"
    # fixture weights feed commands that need a single w
    code, out, _ = cap(["cone", "--ideal", "@%s" % fixture, "--json"])
    assert code == 0
    assert json.loads(out)["eq"] == [[3, -2]]
    # --vars must agree with the header when both are given
    code, _, err = cap(
        ["trop-member", "--vars", "a,b", "--ideal", "@%s" % fixture,
         "--w", "2,3"]
    )
    assert code == 2


def test_batch_query_file(tmp_path):
    queries = tmp_path / "queries.txt"
    queries.write_text("2,3\n1,1\n# comment\n4,6\ninf,1\n")
    code, out, _ = cap(
        ["trop-member", "--vars", "x,y", "--ideal", "y^2-x^3",
         "--w", "@%s" % queries, "--json"]
    )
    # batch mode reports rather than signals: exit stays 0
    assert code == 0
    rows = [json.loads(l) for l in out.splitlines()]
    assert [r["w"] for r in rows] == [
        ["2", "3"], ["1", "1"], ["4", "6"], ["inf", "1"]
    ]
    assert [r["member"] for r in rows] == [True, False, True, False]
    assert rows[1]["witness"] == {"monomial": "y^2"}


def test_deterministic_reruns():
    for argv in (
        ["lift", "--vars", "x,y,z", "--ideal", "x+y+z",
         "--w", "1,1,1", "--N", "6", "--json"],
        ["trop-enum", "--vars", "x,y", "--ideal", "y^2-x^3", "--json"],
        ["np-solve", "--coeffs=-t^(2)-t^(3);0;1", "--N", "8"],
    ):
        first = cap(argv)
        second = cap(argv)
        assert first == second
        assert first[0] == 0


def test_usage_errors_exit_two():
    bad = [
        [],
        ["frobnicate"],
        ["trop-member", "--vars", "x,y", "--ideal", "x+y"],
        ["trop-member", "--ideal", "x+y", "--w", "1,1"],
        ["trop-member", "--vars", "x,y", "--ideal", "x+*y", "--w", "1,1"],
        ["trop-member", "--vars", "x,y", "--ideal", "x+y", "--w", "1,zebra"],
        ["trop-member", "--vars", "x,y", "--ideal", "x+y", "--w", "0,1"],
        ["trop-member", "--vars", "x,x", "--ideal", "x", "--w", "1,1"],
        ["lift", "--vars", "x,y", "--ideal", "y^2-x^3", "--w", "2,3"],
        ["lift", "--vars", "x,y", "--ideal", "y^2-x^3", "--w", "2,3",
         "--N", "-1"],
        ["np-solve", "--coeffs=;;", "--N", "3"],
        ["np-solve", "--coeffs=t^(", "--N", "3"],
        ["init-form", "--vars", "x,y", "--ideal", "x;y", "--w", "1,1"],
        ["trop-member", "--ideal", "@/no/such/file", "--w", "1,1"],
        ["verify", "--vars", "x,y", "--ideal", "y^2-x^3", "--w", "2,3",
         "--N", "10", "--point", "t^(2)"],
    ]
    for argv in bad:
        code, _, err = cap(argv)
        assert code == 2, argv
        assert err.startswith("usage error:"), argv


def test_capability_exit_three():
    terms = "+".join("x^%d*y" % i for i in range(1, 20))
    code, _, err = cap(["trop-hyper", "--vars", "x,y", "--ideal", terms])
    assert code == 3
    assert err.startswith("capability limit:")


def test_pair_guard_exits_three(monkeypatch):
    """The S-pair bound of the standard basis engine is a capability limit."""
    from troplift import ideals

    monkeypatch.setattr(ideals, "_MAX_SPAIRS", 2)
    code, out, err = cap(
        ["init-ideal", "--vars", "x,y", "--ideal", "x+y;x-y^2", "--w", "1,1"]
    )
    assert (code, out) == (3, "")
    assert err == "capability limit: standard basis needs over 2 S-pairs\n"


def test_division_step_bound_exits_three(monkeypatch):
    """The reduction bound of divide is a capability limit, like the
    S-pair bound."""
    from troplift import ideals

    monkeypatch.setattr(ideals, "_MAX_REDUCTION_STEPS", 2)
    code, out, err = cap(
        ["init-ideal", "--vars", "x,y", "--ideal", "x+y;x-y^2", "--w", "1,1"]
    )
    assert (code, out) == (3, "")
    assert err == "capability limit: division needs over 2 reductions\n"


def test_internal_invariant_errors_propagate(monkeypatch):
    """A violated invariant is a bug, not an exit code: it leaves cli.run."""

    def broken(I, query):
        raise InternalInvariantError("broken invariant")

    monkeypatch.setattr(cli, "trop_member", broken)
    with pytest.raises(InternalInvariantError, match="broken invariant"):
        cap(["trop-member", "--vars", "x,y", "--ideal", "y^2-x^3", "--w", "2,3"])


_CUSP = ["--vars", "x,y", "--ideal", "y^2-x^3"]
_CUSP_AT = _CUSP + ["--w", "2,3"]


def test_seed_only_where_a_witness_search_reads_it():
    for argv in (
        ["init-form"] + _CUSP_AT,
        ["init-ideal"] + _CUSP_AT,
        ["coset-val", "--g", "x"] + _CUSP_AT,
        ["cone"] + _CUSP_AT,
        ["trop-member"] + _CUSP_AT,
        ["trop-hyper"] + _CUSP,
        ["tensor", "--vars2", "z", "--ideal2", "z", "--w2", "1"] + _CUSP_AT,
        ["verify", "--N", "3", "--point", "t^(2);t^(3)"] + _CUSP_AT,
        ["np-solve", "--coeffs=-t^(2);1", "--N", "3"],
    ):
        assert cap(argv)[0] == 0, argv
        assert cap(argv + ["--seed", "1"]) == (
            2, "", "usage error: unrecognized arguments: --seed 1\n"
        ), argv
    for argv in (["lift", "--N", "3"] + _CUSP_AT, ["trop-enum"] + _CUSP):
        assert cap(argv + ["--seed", "1"])[0] == 0, argv


def test_help_exits_zero():
    code, _, _ = cap(["--help"])
    assert code == 0
    code, _, _ = cap(["lift", "--help"])
    assert code == 0


def test_irrational_weight_inline():
    code, out, _ = cap(
        ["trop-member", "--vars", "x,y", "--ideal", "y^2-x^3",
         "--w", "3,sqrt(2)"]
    )
    assert code == 1
    assert out == "w=3,sqrt(2): member=false witness=y^2\n"


def test_malformed_inputs_never_crash():
    fragments = [
        "", ";", "x+", "((", "))", "x^^2", "x^-1", "1/0*x", "sqrt(-1)*x",
        "x$y", "x 2 y", "@", "t^(1/0)", "..", "x+y+", "*x", "x*", "-",
    ]
    for frag in fragments:
        for argv in (
            ["trop-member", "--vars", "x,y", "--ideal", frag, "--w", "1,1"],
            ["trop-member", "--vars", "x,y", "--ideal", "x+y", "--w", frag],
            ["np-solve", "--coeffs=%s" % frag, "--N", "3"],
        ):
            code, _, _ = cap(argv)
            assert code in (1, 2, 3), (argv, code)


def test_recorded_goldens_byte_identical():
    """Exit code, stdout and stderr of criterion 11's argvs, _CAP_ARGV and
    _LIFT_ARGVS, byte for byte as recorded in golden_cli.json."""
    recorded = json.loads(Path(__file__).with_name("golden_cli.json").read_text())
    argvs = _GOLDEN_ARGVS + [_CAP_ARGV] + _LIFT_ARGVS
    assert [entry["argv"] for entry in recorded] == argvs
    for entry in recorded:
        got = cap(entry["argv"])
        assert got == (entry["exit"], entry["stdout"], entry["stderr"]), entry["argv"]
