"""Golden-file coverage of every CLI path; outputs must stay byte-stable."""

import time

import pytest

from subquad import cli, lpsolver, maxflow
from subquad.reduce_quartic import InvariantError

G6_TEXT = "1 : 1 2 3\n-1 : 1 2\n-1 : 1 3\n-1 : 2 3\n"
QUAD_TEXT = "-1 : 1 2\n1/2 : 1\n"
G10_TEXT = (
    "-1 : 1 2 3 4\n1 : 1 3 4\n1 : 2 3 4\n-1 : 1 3\n-1 : 1 4\n"
    "-1 : 2 3\n-1 : 2 4\n-1 : 3 4\n"
)
CUBE_TEXT = "-1 : 1 2 3\n"
H_CUBE_TEXT = "2 : 4\n-1 : 1 4\n-1 : 2 4\n-1 : 3 4\n"
SUP_TEXT = "1 : 1 2\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (
        ("g6", G6_TEXT),
        ("quad", QUAD_TEXT),
        ("g10", G10_TEXT),
        ("cube", CUBE_TEXT),
        ("h_cube", H_CUBE_TEXT),
        ("sup", SUP_TEXT),
    ):
        p = tmp_path / f"{name}.pbf"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def test_check(files, capsys):
    code, out = run(capsys, ["check", files["g6"]])
    assert (code, out) == (0, "RESULT submodular=true\n")


def test_check_not_submodular(files, capsys):
    code, out = run(capsys, ["check", files["sup"]])
    assert (code, out) == (2, "RESULT submodular=false\n")


def test_minimize(files, capsys):
    code, out = run(capsys, ["minimize", files["quad"]])
    assert (code, out) == (0, "RESULT min=-1/2\nRESULT argmin=1,2\n")


def test_reduce_cube(files, capsys):
    code, out = run(capsys, ["reduce", files["cube"], "--k", "3"])
    assert code == 0
    assert out == (
        "QUADRATIC vars=3 avs=1\n2 : 4\n-1 : 1 4\n-1 : 2 4\n-1 : 3 4\n"
        "GAPS\n- 0\n1 0\n2 0\n1,2 0\n3 0\n1,3 0\n2,3 0\n1,2,3 0\n"
        "RESULT distance=0\nRESULT avs=1\n"
    )


def test_reduce_keeps_a_constant_generator_table(tmp_path, capsys):
    # with k = 1 the generator set is threshold(1, 2), the constant 0 table
    target = tmp_path / "lin.pbf"
    target.write_text("2 : 1\n")
    code, out = run(capsys, ["reduce", str(target), "--k", "1", "--mbfs", "generators"])
    assert code == 0
    assert out == "QUADRATIC vars=1 avs=0\n2 : 1\nGAPS\n- 0\n1 0\nRESULT distance=0\nRESULT avs=0\n"


def test_nearest_same_surface(files, capsys):
    code, out = run(capsys, ["nearest", files["cube"], "--k", "3"])
    assert code == 0
    assert "RESULT distance=0" in out


def test_reduce4_representable(files, capsys):
    code, out = run(capsys, ["reduce4", files["g6"]])
    assert code == 0
    assert out == (
        "RESULT representable=true\n"
        "QUADRATIC vars=4 avs=2\n1 : 6\n-1 : 1 6\n-1 : 2 6\n-1 : 3 6\n"
        "labeling f min_h gap z_argmin\n"
        "- 0 0 0 -\n1 0 0 0 -\n2 0 0 0 -\n1,2 -1 -1 0 2\n3 0 0 0 -\n"
        "1,3 -1 -1 0 2\n2,3 -1 -1 0 2\n1,2,3 -2 -2 0 2\n4 0 0 0 -\n"
        "1,4 0 0 0 -\n2,4 0 0 0 -\n1,2,4 -1 -1 0 2\n3,4 0 0 0 -\n"
        "1,3,4 -1 -1 0 2\n2,3,4 -1 -1 0 2\n1,2,3,4 -2 -2 0 2\n"
    )


def test_reduce4_g10(files, capsys):
    code, out = run(capsys, ["reduce4", files["g10"]])
    assert (code, out) == (2, "RESULT representable=false\n")


def test_invariant_breach_exits_internal_error(files, capsys, monkeypatch):
    def broken(f):
        raise InvariantError("pipeline broke the minimum")

    monkeypatch.setattr(cli, "reduce_quartic", broken)
    code = cli.main(["reduce4", files["g6"]])
    assert code == 3
    assert "internal error: pipeline broke the minimum" in capsys.readouterr().err


def test_lp_breach_exits_internal_error(files, capsys, monkeypatch):
    def broken(f):
        raise lpsolver.LpInternalError("answer is not submodular")

    monkeypatch.setattr(cli, "reduce_quartic", broken)
    code = cli.main(["reduce4", files["g6"]])
    assert code == 3
    assert "internal error: answer is not submodular" in capsys.readouterr().err


def test_flow_certificate_failure_exits_internal_error(files, capsys, monkeypatch):
    blocking_flow = maxflow._blocking_flow
    monkeypatch.setattr(maxflow, "_blocking_flow", lambda *args: blocking_flow(*args) + 1)
    code = cli.main(["minimize", files["quad"]])
    assert code == 3
    assert "internal error: max-flow" in capsys.readouterr().err


def test_reduce4_g10_nearest(files, capsys):
    code, out = run(capsys, ["reduce4", files["g10"], "--nearest"])
    assert code == 0
    assert out.startswith(
        "RESULT representable=false\nRESULT distance=1\nQUADRATIC vars=4 avs=2\n"
    )
    assert "3,4 -1 0 -1 -\n" in out


@pytest.mark.parametrize("extra", [[], ["--nearest"]])
def test_reduce4_prints_the_reductions_own_report(files, capsys, monkeypatch, extra):
    # The report comes with the answer; reduce4 runs no oracle of its own.
    monkeypatch.setattr(cli, "verify_reduction", lambda *args: pytest.fail("reduce4 ran the oracle again"))
    code, out = run(capsys, ["reduce4", files["g6"], *extra])
    assert code == 0
    assert "labeling f min_h gap z_argmin\n- 0 0 0 -\n" in out


def test_verify(files, capsys):
    code, out = run(capsys, ["verify", files["cube"], files["h_cube"], "--avs", "1"])
    assert code == 0
    assert out == (
        "labeling f min_h gap z_argmin\n"
        "- 0 0 0 -\n1 0 0 0 -\n2 0 0 0 -\n1,2 0 0 0 -\n3 0 0 0 -\n"
        "1,3 0 0 0 -\n2,3 0 0 0 -\n1,2,3 -1 -1 0 1\nRESULT pass=true\n"
    )


def test_verify_failure_exits_two(files, tmp_path, capsys):
    zero = tmp_path / "zero.pbf"
    zero.write_text("0\n")
    code, out = run(capsys, ["verify", files["cube"], str(zero), "--avs", "0"])
    assert code == 2
    assert "RESULT pass=false" in out


def test_mbf_count(capsys):
    code, out = run(capsys, ["mbf-count", "4"])
    assert (code, out) == (0, "RESULT count=168\n")


def test_mbf_dump(capsys):
    code, out = run(capsys, ["mbf-dump", "2"])
    assert (code, out) == (0, "0000\n0001\n0101\n0011\n0111\n1111\n")


def test_gen_table(capsys):
    code, out = run(capsys, ["gen-table", "6", "1", "2", "3", "4"])
    assert code == 0
    assert out == (
        "GROUP 6 PATTERN 1 2 3 4\nQUARTIC\n-1 : 1 2\n-1 : 1 3\n-1 : 2 3\n"
        "1 : 1 2 3\nQUADRATIC avs=1\n1 : 5\n-1 : 1 5\n-1 : 2 5\n-1 : 3 5\n"
    )


def test_gen_table_g10(capsys):
    code, out = run(capsys, ["gen-table", "10", "1", "2", "3", "4"])
    assert code == 0
    assert out.endswith("QUADRATIC none\n")


def test_overestimate(files, capsys):
    code, out = run(capsys, ["overestimate", files["sup"], "--k", "2", "--anchor", "1,2"])
    assert code == 0
    assert out == (
        "QUADRATIC vars=2 avs=0\n1 : 1\nGAPS\n- 0\n1 -1\n2 0\n1,2 0\n"
        "RESULT distance=1\nRESULT avs=0\n"
    )


@pytest.mark.parametrize("anchor", ["0", "-1", "x", "1,,2"])
def test_overestimate_rejects_a_bad_anchor(files, capsys, anchor):
    code = cli.main(["overestimate", files["sup"], "--k", "2", "--anchor", anchor])
    err = capsys.readouterr().err
    assert code == 1
    assert f"argument --anchor: expected comma-separated indices >= 1, got {anchor!r}" in err


@pytest.mark.parametrize(
    "argv, name, value",
    [
        (["reduce", "{cube}", "--k", "-1"], "--k", "-1"),
        (["nearest", "{cube}", "--k", "-1"], "--k", "-1"),
        (["overestimate", "{sup}", "--k", "-2", "--anchor", "1"], "--k", "-2"),
        (["verify", "{cube}", "{h_cube}", "--avs", "-1"], "--avs", "-1"),
        (["mbf-count", "-1"], "k", "-1"),
        (["mbf-dump", "-1"], "k", "-1"),
        (["mbf-dump", "x"], "k", "x"),
    ],
)
def test_count_arguments_refuse_negatives(files, capsys, argv, name, value):
    code = cli.main([a.format(**files) for a in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert f"argument {name}: expected an integer >= 0, got {value!r}" in err


@pytest.mark.parametrize(
    "argv, name, message",
    [
        (["gen-table", "11", "1", "2", "3", "4"], "group", "invalid choice: 11"),
        (["gen-table", "0", "1", "2", "3", "4"], "group", "invalid choice: 0"),
        (["gen-table", "6", "1", "2", "3", "3"], "pattern", "expected a permutation of 1 2 3 4, got 1 2 3 3"),
        (["gen-table", "6", "1", "2", "3", "5"], "pattern", "expected a permutation of 1 2 3 4, got 1 2 3 5"),
        (["mbf-count", "6"], "k", "invalid choice: 6"),
        (["mbf-dump", "6"], "k", "invalid choice: 6"),
    ],
)
def test_range_arguments_are_usage_errors(capsys, argv, name, message):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert f"argument {name}: {message}" in captured.err


def test_overestimate_empty_anchor_is_all_zeros(files, capsys):
    code, out = run(capsys, ["overestimate", files["sup"], "--k", "2", "--anchor", ""])
    assert code == 0
    assert "- 0\n" in out


def test_reduce_with_table_file(files, tmp_path, capsys):
    # tables written in the mbf-dump bit-string format round-trip into reduce
    code = cli.main(["mbf-dump", "3"])
    dump = capsys.readouterr().out
    assert code == 0
    tables = tmp_path / "tables.mbf"
    tables.write_text(dump)
    code, out = run(capsys, ["reduce", files["cube"], "--k", "3", "--mbfs", str(tables)])
    assert code == 0
    assert "RESULT distance=0" in out
    assert run(capsys, ["reduce", files["cube"], "--k", "3", "--mbfs", "all"]) == (code, out)


@pytest.mark.parametrize(
    "line,where",
    [
        ("0001011", "line 3, column 8"),
        ("000101111", "line 3, column 9"),
        ("0001x111", "line 3, column 5"),
        ("  00010111 1", "line 3, column 11"),
    ],
)
def test_malformed_table_file_is_a_usage_error(files, tmp_path, capsys, line, where):
    tables = tmp_path / "bad.mbf"
    tables.write_text(f"00000001\n00010111\n{line}\n")
    code = cli.main(["reduce", files["cube"], "--k", "3", "--mbfs", str(tables)])
    assert code == 1
    assert where in capsys.readouterr().err


def test_table_file_skips_comments_and_blank_lines(files, tmp_path, capsys):
    tables = tmp_path / "tables.mbf"
    tables.write_text("# the |S| >= 3 threshold\n\n  00000001  # x1 x2 x3\n\n")
    code, out = run(capsys, ["reduce", files["cube"], "--k", "3", "--mbfs", str(tables)])
    assert code == 0
    assert "RESULT distance=0" in out


def test_non_monotone_table_file_fails(files, tmp_path, capsys):
    tables = tmp_path / "parity.mbf"
    tables.write_text("01101001\n")
    code = cli.main(["reduce", files["cube"], "--k", "3", "--mbfs", str(tables)])
    assert code == 2
    assert "monotone" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.pbf"
    bad.write_text("x : 1\n")
    code = cli.main(["check", str(bad)])
    err = capsys.readouterr().err
    assert code == 1
    assert "line 1" in err


def test_missing_file(capsys):
    assert cli.main(["check", "/nonexistent/path.pbf"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "{dir}"],
        ["reduce", "{cube}", "--k", "3", "--mbfs", "{dir}"],
        ["check", "{binary}"],
        ["reduce", "{cube}", "--k", "3", "--mbfs", "{binary}"],
    ],
)
def test_unreadable_input_is_a_usage_error(files, tmp_path, capsys, argv):
    # a directory, or a file that is not UTF-8 text
    binary = tmp_path / "binary.pbf"
    binary.write_bytes(b"\xff\xfe")
    code = cli.main([a.format(dir=tmp_path, binary=binary, **files) for a in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err


BOM = b"\xef\xbb\xbf"


def test_byte_order_mark_on_a_polynomial_file_is_read_past(files, tmp_path, capsys):
    cube = tmp_path / "bom_cube.pbf"
    cube.write_bytes(BOM + CUBE_TEXT.encode())
    assert run(capsys, ["check", str(cube)]) == (0, "RESULT submodular=true\n")
    assert run(capsys, ["reduce", str(cube), "--k", "3"]) == run(capsys, ["reduce", files["cube"], "--k", "3"])


def test_byte_order_mark_on_a_table_file_is_read_past(files, tmp_path, capsys):
    tables = tmp_path / "bom.mbf"
    tables.write_bytes(BOM + b"00000001\n")
    plain = tmp_path / "plain.mbf"
    plain.write_bytes(b"00000001\n")
    code, out = run(capsys, ["reduce", files["cube"], "--k", "3", "--mbfs", str(tables)])
    assert code == 0 and "RESULT distance=0" in out
    assert run(capsys, ["reduce", files["cube"], "--k", "3", "--mbfs", str(plain)]) == (code, out)


def test_impossible_k_is_refused_before_any_table(tmp_path, capsys):
    constant = tmp_path / "constant.pbf"
    constant.write_text("1 :\n")
    start = time.perf_counter()
    code = cli.main(["reduce", str(constant), "--k", "16"])
    assert time.perf_counter() - start < 2
    assert code == 2
    assert "refusing --k 16" in capsys.readouterr().err


def test_oversized_generators_set_is_not_told_to_use_generators(tmp_path, capsys):
    # k = 7 defaults to its 5 generator tables, a 2907-column program
    constant = tmp_path / "constant.pbf"
    constant.write_text("1 :\n")
    code = cli.main(["reduce", str(constant), "--k", "7"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: refusing a 2907-column program for k=7 with 5 tables (limit 2500); use fewer tables\n"


def test_unknown_flag_rejected(files, capsys):
    assert cli.main(["check", files["g6"], "--bogus"]) == 1


def test_minimize_rejects_supermodular(files, capsys):
    assert cli.main(["minimize", files["sup"]]) == 2
    assert capsys.readouterr().err == "error: bilinear coefficient 1 on (1, 2) is positive\n"


def test_outputs_stable_across_runs(files, capsys):
    first = run(capsys, ["reduce4", files["g6"]])
    second = run(capsys, ["reduce4", files["g6"]])
    assert first == second
