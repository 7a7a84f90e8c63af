"""Command-line interface: grammar, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import hyperbisect
from hyperbisect import cli
from hyperbisect.cli import EXIT_BROKEN_PIPE, main
from hyperbisect.momentcurve import (IntervalFamily, arrangement_from_jsonable,
                                     arrangement_to_jsonable, check_shape,
                                     enumerate_bisections,
                                     hyperplane_to_jsonable, verify_bisection,
                                     well_separated_family)

# the acceptance suite's count-law tuples (d, k, ell)
COUNT_LAW = ((1, 2, 0), (2, 2, 0), (1, 3, 0), (2, 3, 0),
             (2, 2, 1), (2, 3, 1), (3, 2, 1), (3, 3, 1))


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lambda_check_in(capsys):
    code, out, _ = _run(capsys, ["lambda", "check", "2", "4", "2"])
    assert code == 0
    assert "IN" in out
    assert "THM25_I(d0=2, a=1)" in out


def test_lambda_check_not_in(capsys):
    code, out, _ = _run(capsys, ["lambda", "check", "1", "3", "2"])
    assert code == 0
    assert "NOT_IN" in out
    assert "MOMENT_CURVE_NECESSITY" in out


def test_lambda_check_expect_in_failure(capsys):
    code, out, _ = _run(capsys, ["lambda", "check", "1", "3", "2",
                                 "--expect-in"])
    assert code == 1


def test_lambda_check_expect_in_success(capsys):
    code, _, _ = _run(capsys, ["lambda", "check", "2", "4", "2", "--expect-in"])
    assert code == 0


def test_lambda_check_json(capsys):
    code, out, _ = _run(capsys, ["lambda", "check", "2", "4", "2",
                                 "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "IN"
    assert data["certificate"] == {"kind": "THM25_I", "d0": 2, "a": 1}


def test_lambda_check_bad_triple_is_usage_error(capsys):
    code, _, err = _run(capsys, ["lambda", "check", "0", "3", "2"])
    assert code == 2
    assert "error" in err


def test_lambda_table_csv(capsys):
    code, out, _ = _run(capsys, ["lambda", "table", "--k", "2", "--jmax", "6"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "j,d_conjecture,d_thm1,d_thm25i,d_thm25ii"
    assert len(lines) == 7


def test_lambda_table_deterministic(capsys):
    argv = ["lambda", "table", "--k", "3", "--jmax", "9"]
    _, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    assert out1 == out2


def test_lambda_table_json(capsys):
    code, out, _ = _run(capsys, ["lambda", "table", "--k", "2", "--jmax", "4",
                                 "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert [r["j"] for r in data["rows"]] == [1, 2, 3, 4]


@pytest.mark.parametrize("argv", [
    ["lambda", "table", "--k", "2", "--jmax", "4"],
    ["lambda", "figure", "--k", "2", "--jmax", "4", "--out", os.devnull],
], ids=["table", "figure"])
def test_dmax_search_is_an_unknown_argument(capsys, argv):
    # every least d0 is at most j, so a search bound only blanked cells
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--dmax-search", "1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "--dmax-search" in err


def test_lambda_figure(capsys, tmp_path):
    out_path = tmp_path / "frontier.svg"
    code, _, _ = _run(capsys, ["lambda", "figure", "--k", "2", "--jmax", "10",
                               "--out", str(out_path)])
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")


def test_lambda_figure_unwritable_out_is_usage_error(capsys, tmp_path):
    # exit 1 means NOT_FOUND or not IN; an --out that cannot be opened is
    # the caller's mistake, exit 2, with a message and no traceback
    out_path = tmp_path / "no_such_dir" / "frontier.svg"
    code, out, err = _run(capsys, ["lambda", "figure", "--k", "2", "--jmax",
                                   "5", "--out", str(out_path)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {out_path}: ")
    assert not out_path.exists()


def test_ideal_member_true(capsys):
    code, out, _ = _run(capsys, ["ideal", "member", "1", "2", "2"])
    assert code == 0
    assert out.strip() == "member=true surviving_monomials=0"


def test_ideal_member_false(capsys):
    code, out, _ = _run(capsys, ["ideal", "member", "2", "3", "2"])
    assert code == 0
    assert out.strip() == "member=false surviving_monomials=2"


def test_ideal_member_large_j_answers_at_once(capsys):
    start = time.perf_counter()
    code, out, _ = _run(capsys, ["ideal", "member", "4000", "4000", "3"])
    assert time.perf_counter() - start < 0.5
    assert code == 0
    assert out == "member=false surviving_monomials=729\n"


def test_ideal_member_json(capsys):
    code, out, _ = _run(capsys, ["ideal", "member", "2", "3", "2",
                                 "--format", "json"])
    data = json.loads(out)
    assert data == {"d": 2, "j": 3, "k": 2, "member": False,
                    "surviving_monomials": 2}


def test_parity_commands(capsys):
    code, out, _ = _run(capsys, ["parity", "lemma1", "2", "2"])
    assert code == 0 and out.strip() == "odd"
    code, out, _ = _run(capsys, ["parity", "lemma1", "3", "2"])
    assert code == 0 and out.strip() == "even"
    code, out, _ = _run(capsys, ["parity", "lemma2", "3", "3", "1"])
    assert code == 0 and out.strip() == "odd"
    code, out, _ = _run(capsys, ["parity", "lemma2", "3", "2", "1"])
    assert code == 0 and out.strip() == "even"


def test_parity_bad_range_is_usage_error(capsys):
    code, _, _ = _run(capsys, ["parity", "lemma2", "3", "2", "5"])
    assert code == 2


@pytest.mark.parametrize("argv, expect", [
    (["parity", "lemma1", "4", "3"],
     '{\n  "d": 4,\n  "k": 3,\n  "parity": "odd"\n}\n'),
    (["parity", "lemma1", "3", "1"],
     '{\n  "d": 3,\n  "k": 1,\n  "parity": "odd"\n}\n'),
    (["parity", "lemma2", "3", "3", "1"],
     '{\n  "d": 3,\n  "k": 3,\n  "ell": 1,\n  "parity": "odd"\n}\n'),
    (["parity", "lemma2", "3", "2", "1"],
     '{\n  "d": 3,\n  "k": 2,\n  "ell": 1,\n  "parity": "even"\n}\n'),
    (["count", "2", "3", "--ell", "1"],
     '{\n  "d": 2,\n  "k": 3,\n  "ell": 1,\n  "count": 6\n}\n'),
    (["count", "2", "2"],
     '{\n  "d": 2,\n  "k": 2,\n  "ell": 0,\n  "count": 3\n}\n'),
])
def test_parity_and_count_json_bytes(capsys, argv, expect):
    code, out, err = _run(capsys, [*argv, "--format", "json"])
    assert code == 0 and err == ""
    assert out == expect


@pytest.mark.parametrize("argv, text, json_out", [
    (["lambda", "check", "2", "4", "2"],
     "(d=2, j=4, k=2): IN\ncertificate: THM25_I(d0=2, a=1)\n",
     '{\n  "d": 2,\n  "j": 4,\n  "k": 2,\n  "status": "IN",\n'
     '  "certificate": {\n    "kind": "THM25_I",\n    "d0": 2,\n'
     '    "a": 1\n  },\n  "witness_d0": 2\n}\n'),
    (["lambda", "check", "1", "3", "2"],
     "(d=1, j=3, k=2): NOT_IN\ncertificate: MOMENT_CURVE_NECESSITY\n",
     '{\n  "d": 1,\n  "j": 3,\n  "k": 2,\n  "status": "NOT_IN",\n'
     '  "certificate": {\n    "kind": "MOMENT_CURVE_NECESSITY"\n  }\n}\n'),
    (["lambda", "check", "3", "5", "2"],
     "(d=3, j=5, k=2): UNKNOWN\ncertificate: NONE\n",
     '{\n  "d": 3,\n  "j": 5,\n  "k": 2,\n  "status": "UNKNOWN",\n'
     '  "certificate": {\n    "kind": "NONE"\n  }\n}\n'),
    (["lambda", "check", "3", "3", "1"],
     "(d=3, j=3, k=1): IN\ncertificate: HAM_SANDWICH\n",
     '{\n  "d": 3,\n  "j": 3,\n  "k": 1,\n  "status": "IN",\n'
     '  "certificate": {\n    "kind": "HAM_SANDWICH"\n  },\n'
     '  "witness_d0": 3\n}\n'),
    (["ideal", "member", "1", "2", "2"],
     "member=true surviving_monomials=0\n",
     '{\n  "d": 1,\n  "j": 2,\n  "k": 2,\n  "member": true,\n'
     '  "surviving_monomials": 0\n}\n'),
    (["ideal", "member", "2", "3", "2"],
     "member=false surviving_monomials=2\n",
     '{\n  "d": 2,\n  "j": 3,\n  "k": 2,\n  "member": false,\n'
     '  "surviving_monomials": 2\n}\n'),
], ids=["in", "not-in", "unknown", "ham-sandwich", "member", "not-member"])
def test_check_and_member_bytes_in_both_formats(capsys, argv, text, json_out):
    # the exact stdout, the default text and --format json alike
    for extra, expect in (([], text), (["--format", "text"], text),
                          (["--format", "json"], json_out)):
        code, out, err = _run(capsys, [*argv, *extra])
        assert code == 0 and err == ""
        assert out == expect


def test_count_command(capsys):
    code, out, _ = _run(capsys, ["count", "2", "2"])
    assert code == 0 and out.strip() == "3"
    code, out, _ = _run(capsys, ["count", "3", "3", "--ell", "1"])
    assert code == 0 and out.strip() == "105"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int-to-str digit limit")
@pytest.mark.parametrize("argv", [["300", "300"], ["1000", "1000"],
                                  ["300", "300", "--format", "json"],
                                  ["100000", "2"],
                                  ["3000", "4", "--ell", "1"]])
def test_count_too_long_to_print_is_refused_at_once(capsys, argv):
    # more digits than Python converts to a string: refused before the
    # count is computed, with its size (1000 1000 ran factorial(10**6))
    from hyperbisect.cli import _count_digits
    start = time.perf_counter()
    code, out, err = _run(capsys, ["count", *argv])
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    d, k = int(argv[0]), int(argv[1])
    ell = int(argv[3]) if "--ell" in argv else 0
    digits = _count_digits(d, k, ell)
    assert digits > sys.get_int_max_str_digits()
    assert err.startswith("error:") and f"about {digits} decimal digits" in err


@pytest.mark.parametrize("argv", [["40", "40"], ["3000", "3", "--ell", "1"],
                                  ["1000000", "1"], ["1", "1000000000"]])
def test_count_large_but_printable_prints_at_once(capsys, argv):
    from hyperbisect.momentcurve import count_bisections
    start = time.perf_counter()
    code, out, _ = _run(capsys, ["count", *argv])
    assert time.perf_counter() - start < 0.5
    ell = int(argv[3]) if "--ell" in argv else 0
    assert code == 0
    assert out == f"{count_bisections(int(argv[0]), int(argv[1]), ell)}\n"


def test_count_digits_estimate_is_exact():
    from hyperbisect.cli import _count_digits
    from hyperbisect.momentcurve import count_bisections
    for d in range(1, 41):
        for k in range(1, 41):
            for ell in range(d) if k >= 2 else (0,):
                assert _count_digits(d, k, ell) == len(str(count_bisections(d, k, ell)))
    # next to the default limit of 4300 digits
    assert _count_digits(3000, 3, 1) == len(str(count_bisections(3000, 3, 1))) == 4289


def test_enumerate_round_trip(capsys):
    fam = well_separated_family(2, 2, 0)
    params = ",".join(str(t) for t in fam.parameters)
    code, out, _ = _run(capsys, ["enumerate", "2", "2", "--params", params])
    assert code == 0
    data = json.loads(out)
    assert len(data) == 3
    for raw in data:
        arr = arrangement_from_jsonable(raw)
        assert verify_bisection(arr, fam)


def test_enumerate_bad_params_is_input_error(capsys):
    code, _, err = _run(capsys, ["enumerate", "2", "2", "--params", "1,2,x"])
    assert code == 3
    code, _, err = _run(capsys, ["enumerate", "2", "2", "--params", "1,2,3"])
    assert code == 3
    # wrong interval count for d*k
    code, _, err = _run(capsys, ["enumerate", "2", "2", "--params", "1,2,3,4"])
    assert code == 3


def test_enumerate_bad_shape_is_usage_error(capsys):
    # the (d, k, ell) that count rejects, whatever the endpoints
    for argv in (["2", "0"], ["0", "2"], ["2", "2", "--ell", "-1"],
                 ["2", "2", "--ell", "5"], ["3", "1", "--ell", "1"]):
        code, _, err = _run(capsys, ["count", *argv])
        assert code == 2 and err.startswith("error:")
        for params in ("1,2,3,4,5,6,7,8", "1,2,x"):
            code, out, err = _run(capsys, ["enumerate", *argv,
                                           "--params", params])
            assert code == 2 and out == "" and err.startswith("error:")


def test_enumerate_refuses_families_over_the_cap(capsys):
    import time
    from hyperbisect.cli import ENUMERATE_CAP
    from hyperbisect.momentcurve import count_bisections
    fam = well_separated_family(6, 4, 0)  # 48 intervals
    params = ",".join(str(t) for t in fam.parameters)
    start = time.perf_counter()
    code, out, err = _run(capsys, ["enumerate", "6", "4", "--params", params])
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    count = count_bisections(6, 4, 0)
    assert count == 96_197_645_544 > ENUMERATE_CAP
    assert err.startswith("error:") and str(count) in err
    # a family that does not match (d, k, ell) is still malformed input
    code, _, _ = _run(capsys, ["enumerate", "6", "5", "--params", params])
    assert code == 3


@pytest.mark.parametrize("params", ["1,,2,3,4", "1,2,3,4,", ",1,2,3,4",
                                    "1, ,2,3,4", ""])
def test_enumerate_empty_parameter_is_input_error(capsys, params):
    # empty entries used to be dropped, so "1,,2,3,4" enumerated (1,2,3,4)
    code, out, err = _run(capsys, ["enumerate", "1", "2", "--params", params])
    assert code == 3 and out == ""
    assert err == f"error: bad parameter list {params!r}: empty entry\n"
    code, _, _ = _run(capsys, ["enumerate", "1", "2", "--params", "1, 2,3 ,4"])
    assert code == 0


def _enumerate_cases():
    rng = random.Random(29)
    for d, k, ell in COUNT_LAW + ((3, 3, 0), (4, 2, 1)):
        yield d, k, ell, well_separated_family(d, k, ell).parameters
        j = check_shape(d, k, ell)
        # rational endpoints p/q after the anchors, as --params spells them
        yield d, k, ell, [Fraction(round((ell + i + rng.uniform(0.1, 0.9))
                                         * q), q)
                          for i, q in enumerate(rng.randint(11, 97)
                                                for _ in range(2 * j))]


def _first_difference(got: str, want: str) -> str:
    for n, (a, b) in enumerate(zip(got.splitlines(), want.splitlines()), 1):
        if a != b:
            return f"line {n}: {a!r} != {b!r}"
    return f"{len(got)} characters against {len(want)}"


@pytest.mark.parametrize("d, k, ell, params", list(_enumerate_cases()))
def test_enumerate_prints_the_arrangements_json(capsys, d, k, ell, params):
    # each hyperplane is rendered once, and the blocks are joined into
    # exactly what json.dumps(..., indent=2) prints for the whole list
    code, out, _ = _run(capsys, ["enumerate", str(d), str(k), "--ell",
                                 str(ell), "--params",
                                 ",".join(map(str, params))])
    assert code == 0
    fam = IntervalFamily(d, tuple(params), ell)
    arrs = enumerate_bisections(fam, k)
    want = json.dumps([arrangement_to_jsonable(a) for a in arrs],
                      indent=2) + "\n"
    # pytest's own diff of two differing 100 kB texts takes minutes
    same = out == want
    assert same, _first_difference(out, want)


def test_enumerate_renders_each_hyperplane_once(capsys, monkeypatch):
    calls = []

    def counting(h):
        calls.append(h)
        return hyperplane_to_jsonable(h)

    monkeypatch.setattr(cli, "hyperplane_to_jsonable", counting)
    params = ",".join(map(str, well_separated_family(3, 3, 0).parameters))
    code, out, _ = _run(capsys, ["enumerate", "3", "3", "--params", params])
    assert code == 0
    assert len(json.loads(out)) == 280
    assert len(calls) == len(set(calls)) == 84


@pytest.mark.parametrize("shape, digest", [
    ((4, 3, 0), "fd70ba3d1bb9e405"), ((3, 4, 0), "44d9a14a2f7ade88"),
    ((5, 3, 1), "ade2bb62f4af51fb")])
def test_enumerate_output_keeps_its_digest(capsys, shape, digest):
    # stdout of the tuple-partition enumeration with json.dumps(indent=2)
    d, k, ell = shape
    params = ",".join(map(str, well_separated_family(d, k, ell).parameters))
    code, out, _ = _run(capsys, ["enumerate", str(d), str(k), "--ell",
                                 str(ell), "--params", params])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest().startswith(digest)


def test_lambda_check_absurd_dimension_answers_at_once(capsys):
    start = time.perf_counter()
    code, out, _ = _run(capsys, ["lambda", "check", "1000000000",
                                 "1500000000", "2"])
    assert time.perf_counter() - start < 0.5
    assert code == 0
    assert out == ("(d=1000000000, j=1500000000, k=2): UNKNOWN\n"
                   "certificate: NONE\n")


def test_lambda_table_large_jmax_answers_at_once(capsys):
    start = time.perf_counter()
    code, out, _ = _run(capsys, ["lambda", "table", "--k", "3",
                                 "--jmax", "20000"])
    assert time.perf_counter() - start < 0.5
    assert code == 0
    lines = out.split("\n")
    assert len(lines) == 20002 and lines[-1] == ""
    assert lines[-2] == "20000,6667,16384,,"


def _child_env() -> dict:
    # a child imports the same hyperbisect as this process
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(hyperbisect.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _cli_child(argv, **kwargs):
    return subprocess.Popen([sys.executable, "-m", "hyperbisect.cli", *argv],
                            stderr=subprocess.PIPE, env=_child_env(), **kwargs)


# a cross-check made to disagree, then the command that runs it, in a child
# started with python -O: the check is raised, not asserted, so it survives
CROSS_CHECKS = {
    "digit sum": ("import hyperbisect.parity as parity\n"
                  "real = parity.digit_sum\n"
                  "parity.digit_sum = lambda n: real(n) + 1\n",
                  ["parity", "lemma1", "3", "2"]),
    "surviving count": ("cli.count_surviving_monomials = lambda j, k, d: 1\n",
                        ["ideal", "member", "2", "4", "2"]),
}


@pytest.mark.parametrize("name", CROSS_CHECKS)
def test_cross_checks_fail_under_python_O(name):
    patch, argv = CROSS_CHECKS[name]
    code = ("import sys\n"
            "if __debug__:\n"
            "    sys.exit('assertions are on')\n"
            "from hyperbisect import cli\n"
            f"{patch}"
            f"sys.exit(cli.main({argv!r}))\n")
    env = _child_env()
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
    assert "RuntimeError" in proc.stderr, proc.stderr
    # without the patch the same child prints its answer
    proc = subprocess.run([sys.executable, "-O", "-c",
                           code.replace(patch, "")], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout


def test_stdout_closed_after_first_line_exits_quietly():
    # like `hyperbisect enumerate 3 3 --params 0,...,17 | head -1`: the
    # 100 kB of JSON do not fit in the pipe, so the child hits the closed end
    params = ",".join(str(t) for t in range(18))
    proc = _cli_child(["enumerate", "3", "3", "--params", params],
                      stdout=subprocess.PIPE)
    assert proc.stdout.readline() == b"[\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == EXIT_BROKEN_PIPE
    assert err == b""  # no traceback


def test_stdout_closed_before_start_exits_quietly():
    # the reader is gone before the first write; the short output only
    # reaches the pipe when main flushes
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _cli_child(["lambda", "check", "2", "4", "2"], stdout=write_end)
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == EXIT_BROKEN_PIPE
    assert err == b""  # no traceback


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_solve_rejects_non_finite_input(capsys, tmp_path, literal):
    good = '{"x": [0.0, 0.0], "w": 1.0}, {"x": [1.0, 1.0], "w": 1.0}'
    for bad in ('{"x": [%s, 0.0], "w": 1.0}' % literal,
                '{"x": [0.5, 0.5], "w": %s}' % literal):
        path = tmp_path / "bad.json"
        path.write_text('{"d": 2, "measures": [{"points": [%s, %s]}]}'
                        % (good, bad))
        code, out, err = _run(capsys, ["solve", "--input", str(path),
                                       "--k", "1", "--restarts", "2"])
        assert code == 3 and out == ""
        assert err.startswith("error:")


def _solve_points(capsys, tmp_path, points, weight=1.0, k="1"):
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"d": len(points[0]), "measures": [
        {"points": [{"x": [float(c) for c in x], "w": weight}
                    for x in points]}]}))
    return _run(capsys, ["solve", "--input", str(path), "--k", k,
                         "--restarts", "2"])


def test_solve_refuses_weights_whose_total_overflows(capsys, tmp_path):
    # used to print SUCCESS with an imbalance of -1e+308 and exit 0
    code, out, err = _solve_points(capsys, tmp_path, [[0], [1], [2]],
                                   weight=1e308)
    assert code == 3 and out == ""
    assert err.startswith("error:") and "overflows float64" in err


def test_solve_refuses_coordinates_whose_centring_overflows(capsys,
                                                            tmp_path):
    # a ham-sandwich instance scaled past the squared norm's range used to
    # exit 2 with a pole error, and points near float64's maximum with a
    # claim that they were not finite
    rng = np.random.default_rng(0)
    errors = []
    for points in (rng.normal(size=(40, 2)) * 1e160,
                   np.full((3, 2), 1.7e308)):
        code, out, err = _solve_points(capsys, tmp_path, points.tolist())
        assert code == 3 and out == ""
        errors.append(err)
    assert errors[0] == errors[1]
    assert "overflow float64 when centred" in errors[0]
    # a bad k stays a usage error
    code, _, err = _solve_points(capsys, tmp_path, [[0.0], [1.0]], k="0")
    assert code == 2 and "need k >= 1" in err


def _write_instance(path, seed=0):
    rng = np.random.default_rng(seed)
    measures = []
    for cx, cy in [(-4.0, -4.0), (4.0, -4.0), (-4.0, 4.0), (4.0, 4.0)]:
        ang = rng.uniform(0, 2 * np.pi, 60)
        rad = 1.5 * np.sqrt(rng.uniform(0, 1, 60))
        pts = np.stack([cx + rad * np.cos(ang), cy + rad * np.sin(ang)], axis=1)
        measures.append({"points": [{"x": [float(a), float(b)], "w": 1.0}
                                    for a, b in pts]})
    path.write_text(json.dumps({"d": 2, "measures": measures}))


def test_solve_success_and_determinism(capsys, tmp_path):
    instance = tmp_path / "disks.json"
    _write_instance(instance)
    argv = ["solve", "--input", str(instance), "--k", "2", "--seed", "3"]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["status"] == "SUCCESS"
    assert data["seed"] == 3
    assert len(data["arrangement"]) == 2
    assert max(abs(v) for v in data["relative_imbalances"]) <= 1e-2


def test_solve_ignores_the_environment_seed(tmp_path):
    # the seed comes from --seed alone, so the environment cannot change
    # the bytes of a fixed argv
    instance = tmp_path / "disks.json"
    _write_instance(instance)
    argv = [sys.executable, "-m", "hyperbisect.cli", "solve", "--input",
            str(instance), "--k", "2", "--restarts", "2"]
    env = _child_env()
    env.pop("HYPERBISECT_SEED", None)
    runs = [subprocess.run(argv, env=e, capture_output=True, timeout=120)
            for e in (env, {**env, "HYPERBISECT_SEED": "5"})]
    assert runs[0].returncode == runs[1].returncode
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[0].stdout)["seed"] == 0


def test_solve_not_found_exit_code(capsys, tmp_path):
    rng = np.random.default_rng(1)
    measures = [{"points": [{"x": [float(x)], "w": 1.0}
                            for x in rng.normal(c, 0.4, 30)]}
                for c in (-10.0, 0.0, 10.0)]
    instance = tmp_path / "line.json"
    instance.write_text(json.dumps({"d": 1, "measures": measures}))
    code, out, _ = _run(capsys, ["solve", "--input", str(instance),
                                 "--k", "2", "--restarts", "3"])
    assert code == 1
    assert json.loads(out)["status"] == "NOT_FOUND"


@pytest.mark.parametrize("tol", ["nan", "inf", "1", "2"])
def test_solve_non_finite_tolerance_is_usage_error(capsys, tmp_path, tol):
    # a NaN tolerance fails every restart, and one of 1 or more passes any
    # arrangement (a relative imbalance is at most 1), so all are refused
    # before the solver starts
    instance = tmp_path / "disks.json"
    _write_instance(instance)
    code, out, err = _run(capsys, ["solve", "--input", str(instance),
                                   "--k", "2", "--tol", tol])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "tolerance" in err


def test_solve_missing_file(capsys, tmp_path):
    code, _, err = _run(capsys, ["solve", "--input",
                                 str(tmp_path / "nope.json"), "--k", "2"])
    assert code == 3


def test_solve_malformed_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = _run(capsys, ["solve", "--input", str(bad), "--k", "2"])
    assert code == 3


@pytest.mark.parametrize("key, value", [("d", "2.9"), ("x", '"12"'),
                                        ("w", '"3"'), ("w", "true")])
def test_solve_rejects_values_of_the_wrong_json_type(capsys, tmp_path, key,
                                                     value):
    # each of these used to be coerced into a number and solved
    fields = {"d": "2", "x": "[1.0, 2.0]", "w": "1.0", key: value}
    path = tmp_path / "coerced.json"
    path.write_text('{"d": %(d)s, "measures": [{"points": ['
                    '{"x": %(x)s, "w": %(w)s}, {"x": [3.0, 1.0], "w": 1.0}]}]}'
                    % fields)
    code, out, err = _run(capsys, ["solve", "--input", str(path),
                                   "--k", "1", "--restarts", "2"])
    assert code == 3 and out == ""
    assert err.startswith("error:")


# input files that fail to parse: bytes that are not UTF-8, an integer
# literal past Python's int-to-str digit limit, nesting past the recursion
# limit
_UNPARSABLE = {
    "not_utf8": b'\xff\xfe{"d": 1}',
    "too_many_digits": (b'{"d": 1, "measures": [{"points": [{"x": [%s], '
                        b'"w": 1}]}]}' % (b"1" * 5001)),
    "too_deep": b"[" * 200_000,
}


@pytest.mark.parametrize("case", sorted(_UNPARSABLE))
def test_unparsable_files_make_json_load_raise_what_solve_maps(tmp_path,
                                                                case):
    # solve maps ValueError and RecursionError from json.load to exit 3
    path = tmp_path / "bad.json"
    path.write_bytes(_UNPARSABLE[case])
    with open(path, encoding="utf-8") as fh:
        with pytest.raises((ValueError, RecursionError)):
            json.load(fh)


@pytest.mark.parametrize("case", sorted(_UNPARSABLE))
def test_solve_unparsable_file_is_input_error(capsys, tmp_path, case):
    # these used to exit 2 (or 1 with a RecursionError traceback)
    path = tmp_path / "bad.json"
    path.write_bytes(_UNPARSABLE[case])
    code, out, err = _run(capsys, ["solve", "--input", str(path), "--k", "1"])
    assert code == 3 and out == ""
    assert err.startswith("error: invalid JSON in ")
    assert "Traceback" not in err


@pytest.mark.parametrize("field", ["x", "w"])
def test_solve_integer_too_large_for_float64_is_input_error(capsys, tmp_path,
                                                            field):
    # used to exit 1, NOT_FOUND's code, with an OverflowError traceback
    big = "1" + "0" * 400
    values = {"x": "[1]", "w": "1", field: "[%s]" % big if field == "x" else big}
    path = tmp_path / "big.json"
    path.write_text('{"d": 1, "measures": [{"points": [{"x": %(x)s, '
                    '"w": %(w)s}]}]}' % values)
    code, out, err = _run(capsys, ["solve", "--input", str(path), "--k", "1"])
    assert code == 3 and out == ""
    assert err.startswith("error: measure 0:") and "too large" in err


@pytest.mark.parametrize("data", [
    {"d": 0, "measures": [{"points": [{"x": [], "w": 1.0}]}]},
    {"d": 1, "measures": [{"pts": [{"x": [1.0], "w": 1.0}]}]},
    {"d": 1, "measures": [{"points": [[1.0, 1.0]]}]},
    {"d": 1, "measures": [{"points": [{"x": [1.0]}]}]},
    {"d": 1, "measures": ["nope"]},
])
def test_solve_bad_dimension_or_malformed_measure_is_input_error(
        capsys, tmp_path, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = _run(capsys, ["solve", "--input", str(path), "--k", "1"])
    assert code == 3 and out == ""
    assert err.startswith("error:")


def test_solve_restarts_zero_is_usage_error(capsys, tmp_path):
    instance = tmp_path / "disks.json"
    _write_instance(instance)
    code, out, err = _run(capsys, ["solve", "--input", str(instance),
                                   "--k", "2", "--restarts", "0"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "restart" in err


def test_solve_negative_seed_is_refused_by_name(capsys, tmp_path):
    # --seed -1 used to exit 2 with numpy's "expected non-negative
    # integer"
    instance = tmp_path / "disks.json"
    _write_instance(instance)
    argv = ["solve", "--input", str(instance), "--k", "2"]
    code, out, err = _run(capsys, [*argv, "--seed", "-1"])
    assert code == 2 and out == ""
    assert err == "error: seed must be nonnegative, got -1\n"


def test_lambda_table_bad_k_is_usage_error(capsys):
    code, out, err = _run(capsys, ["lambda", "table", "--k", "0",
                                   "--jmax", "3"])
    assert code == 2 and out == ""
    assert err.startswith("error: need k >= 1")


def test_solve_schema_violation(capsys, tmp_path):
    bad = tmp_path / "schema.json"
    bad.write_text(json.dumps({"d": 2, "measures": [{"points": []}]}))
    code, _, err = _run(capsys, ["solve", "--input", str(bad), "--k", "2"])
    assert code == 3
    assert err == "error: measure 0 malformed: it has no points\n"


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["lambda", "check", "2", "4"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
