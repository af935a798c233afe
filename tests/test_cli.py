import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from relalg.cli import main


STRUCTURE = json.dumps({
    "universe": 2,
    "relations": {
        "R1": {"arity": 2, "tuples": [[0, 0], [0, 1]]},
        "R2": {"arity": 2, "tuples": [[0, 1], [1, 1]]},
    },
})


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture()
def structure_file(tmp_path):
    path = tmp_path / "structure.json"
    path.write_text(STRUCTURE)
    return str(path)


def test_eval_worked_example(structure_file):
    code, text = run_cli("eval", "--structure", structure_file,
                         "[x] exists y (R1(x,y) & R2(x,y))")
    assert code == 0
    assert text.strip() == "arity=1 universe=2 {(0)}"


def test_eval_equality_diagonal(structure_file):
    code, text = run_cli("eval", "--structure", structure_file, "[x,y] x = y")
    assert code == 0
    assert text.strip() == "arity=2 universe=2 {(0,0),(1,1)}"


def test_eval_modes_agree(structure_file):
    _, compiled = run_cli("eval", "--structure", structure_file, "--mode", "compiled",
                          "[x] exists y (R1(x,y) & R2(x,y))")
    _, naive = run_cli("eval", "--structure", structure_file, "--mode", "naive",
                       "[x] exists y (R1(x,y) & R2(x,y))")
    assert compiled == naive


def test_eval_term_syntax(structure_file):
    code, text = run_cli("eval", "--structure", structure_file, "--syntax", "term",
                         "--mode", "compiled", "exists(and(R1, R2))")
    assert code == 0
    assert text.strip() == "arity=1 universe=2 {(0)}"


def test_eval_formula_file(structure_file, tmp_path):
    formula_path = tmp_path / "formula.txt"
    formula_path.write_text("[x] exists y (R1(x,y) & R2(x,y))\n")
    code, text = run_cli("eval", "--structure", structure_file,
                         "--formula-file", str(formula_path))
    assert code == 0
    assert text.strip() == "arity=1 universe=2 {(0)}"


def test_eval_malformed_formula_exits_2(structure_file, tmp_path, capsys):
    code, _ = run_cli("eval", "--structure", structure_file, "[x] exists y (R1(x,y)")
    assert code == 2
    # nesting deeper than the recursion limit: a one-line error, not a traceback
    for name, text in [("bangs", "[x] " + "!" * 5000 + "R1(x,x)"),
                       ("parens", "[x] " + "(" * 3000 + "R1(x,x)" + ")" * 3000)]:
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        capsys.readouterr()
        code, _ = run_cli("eval", "--structure", structure_file, "--formula-file", str(path))
        assert code == 2, name
        assert capsys.readouterr().err.startswith("error: input nested too deeply")


def test_eval_unknown_symbol_exits_2(structure_file):
    code, _ = run_cli("eval", "--structure", structure_file, "[x] Q(x)")
    assert code == 2


def test_eval_missing_structure_exits_2(tmp_path):
    code, _ = run_cli("eval", "--structure", str(tmp_path / "nope.json"), "[x] true")
    assert code == 2
    no_arity = {"universe": 2, "relations": {"R": {"tuples": [[0]]}}}
    outside = {"universe": 2, "relations": {"R": {"arity": 1, "tuples": [[5]]}}}
    # numbers that are not integers are refused, not truncated
    fractional_universe = {"universe": 2.9, "relations": {}}
    fractional_arity = {"universe": 2, "relations": {"R": {"arity": 1.5, "tuples": [[0]]}}}
    # tuple elements are JSON integers: true is not element 1, nor 1.0
    bool_element = {"universe": 2, "relations": {"R": {"arity": 1, "tuples": [[True]]}}}
    float_element = {"universe": 2, "relations": {"R": {"arity": 1, "tuples": [[1.0]]}}}
    # relations of 2**64 and 2**100 tuples: Python refuses these widths at
    # once (MemoryError, OverflowError), without allocating
    huge_arities = [{"universe": 2, "relations": {"R": {"arity": a, "tuples": []}}}
                    for a in (64, 100)]
    for data in (no_arity, outside, fractional_universe, fractional_arity,
                 bool_element, float_element, *huge_arities):
        path = tmp_path / "structure.json"
        path.write_text(json.dumps(data))
        code, _ = run_cli("eval", "--structure", str(path), "[x] true")
        assert code == 2, data
    # the relation is refused as the file loads, before any evaluator runs
    code, _ = run_cli("eval", "--structure", str(path), "--mode", "naive", "[x] true")
    assert code == 2


def test_axioms_check_concrete_passes():
    code, text = run_cli("axioms", "check", "--algebra", "builtin:concrete:2",
                         "--fragment", "fo+eq", "--max-sort", "2")
    assert code == 0
    assert "fragment-consistent within bounds" in text
    assert "seed: 0" in text


def test_axioms_check_diamond_fails():
    code, text = run_cli("axioms", "check", "--algebra", "builtin:diamond",
                         "--max-sort", "2")
    assert code == 1
    assert "axiom (0): FAIL" in text


def test_axioms_check_jsonl():
    code, text = run_cli("--format", "jsonl", "axioms", "check",
                         "--algebra", "builtin:concrete:1", "--fragment", "pqf",
                         "--max-sort", "2")
    assert code == 0
    lines = [json.loads(line) for line in text.strip().splitlines()]
    assert [entry["axiom"] for entry in lines] == [0, 1, 2, 3, 4]
    assert all(entry["ok"] for entry in lines)


def test_axioms_check_concrete_two_exhaustive_to_sort_three():
    """Every instance of every axiom on concrete(2) up to sort 3, with no
    sampling: axioms (0) and (1) alone have 3.9 and 16.8 million."""
    code, text = run_cli("axioms", "check", "--algebra", "builtin:concrete:2",
                         "--fragment", "fo+eq", "--max-sort", "3",
                         "--exhaustive-cap", "100000000", "--format", "jsonl")
    assert code == 0
    lines = [json.loads(line) for line in text.strip().splitlines()]
    assert [(e["axiom"], e["ok"], e["mode"]) for e in lines] == [
        (ax, True, "exhaustive") for ax in range(14)]
    assert [e["instances"] for e in lines[:2]] == [3_865_061, 16_781_384]


def test_axioms_check_pe_theory_exhaustive_to_sort_two():
    """On the pe-theory gallery algebra (sorts of 2, 10 and 706 elements),
    axiom (0) fails over all of its 28.5 million instances; (1), with 706**3
    tuples at sort 2, stays sampled, and the rest hold exhaustively."""
    code, text = run_cli("axioms", "check", "--algebra", "builtin:pe-theory",
                         "--fragment", "pe", "--max-sort", "2", "--samples", "10000",
                         "--exhaustive-cap", "100000000", "--format", "jsonl")
    assert code == 1
    lines = [json.loads(line) for line in text.strip().splitlines()]
    assert [(e["axiom"], e["ok"], e["mode"]) for e in lines] == [
        (0, False, "exhaustive"), (1, True, "sampled(seed=0,count=10000)")] + [
        (ax, True, "exhaustive") for ax in (2, 3, 4, 7, 8, 9, 10)]
    assert lines[0]["instances"] == 28_546_637
    first = lines[0]["violations"][0]
    assert (first["params"], first["elements"]) == ({"shape": [1, 1]}, [2, 3, 1, 1])


def test_axioms_check_reports_reproduce_byte_for_byte():
    args = ("--seed", "123", "axioms", "check", "--algebra", "builtin:concrete:2",
            "--fragment", "pqf", "--max-sort", "2", "--exhaustive-cap", "100",
            "--samples", "500")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first == second
    assert "sampled(seed=123,count=500)" in first[1]


def test_primefilters_output():
    code, text = run_cli("primefilters", "--algebra", "builtin:concrete:2",
                         "--sort", "1", "--fragment", "pqf")
    assert code == 0
    assert "2 prime filter(s)" in text
    assert "arity=1 universe=2 {(0)}" in text


class ClosedAfterFirstWrite(io.StringIO):
    """Standard output of a reader that stops after the first chunk, as
    ``| head -1`` does: the second write raises BrokenPipeError."""

    def write(self, text):
        if self.tell():
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


@pytest.mark.parametrize("argv, expected", [
    (["primefilters", "--algebra", "builtin:concrete:2", "--sort", "1"], 0),
    (["axioms", "check", "--algebra", "builtin:diamond", "--max-sort", "2"], 1),
])
def test_closed_stdout_keeps_the_verdict(argv, expected, capsys):
    out = ClosedAfterFirstWrite()
    assert main(argv, out=out) == expected
    assert out.getvalue().count("\n") == 1
    assert capsys.readouterr().err == ""


def test_closed_stdout_pipe_exits_0_with_nothing_on_stderr():
    """The listing is some 600 kB, far more than a pipe holds, so the reader
    closing after one line makes the process write into a closed pipe."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "relalg.cli", "primefilters", "--algebra",
                             "builtin:pe-theory", "--sort", "2", "--max-sort", "2"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0, err
    assert first == b"sort 2: 706 elements, 17 join-irreducible(s), 17 prime filter(s)\n"
    assert err == b""


def test_embed_full_certificate():
    code, text = run_cli("embed", "--algebra", "builtin:concrete:1",
                         "--fragment", "pqf", "--scope", "2")
    assert code == 0
    assert "status: full" in text
    assert "target universe size: 3" in text
    assert "sort 1 element 1 -> arity=1 universe=3" in text


def test_embed_diamond_obstruction():
    code, text = run_cli("embed", "--algebra", "builtin:diamond", "--scope", "2")
    assert code == 1
    assert "OBSTRUCTION (axiom (0))" in text


def test_embed_pe_saturates():
    code, text = run_cli("embed", "--algebra", "builtin:concrete:1",
                         "--fragment", "pe", "--scope", "2", "--rounds", "5")
    assert code == 0
    assert "status: full" in text


def test_gallery_diamond():
    code, text = run_cli("gallery", "diamond")
    assert code == 0
    assert "c1(b) v c2(0) >= c1(a) ^ c2(b)" in text
    assert "b is not >= a" in text


def test_gallery_pe_theory():
    code, text = run_cli("gallery", "pe-theory")
    assert code == 0
    assert "sort 0 has exactly 2 elements" in text
    assert "c1(A) ^ c2(B) <= c1(R) v c2(R)" in text


def test_unknown_builtin_exits_2():
    code, _ = run_cli("axioms", "check", "--algebra", "builtin:weird")
    assert code == 2


def test_table_algebra_file_round_trip(tmp_path):
    from relalg import Universe, as_table_algebra, concrete
    from relalg.fragments import PQF

    tables = as_table_algebra(concrete(Universe(2), PQF, 2))
    path = tmp_path / "algebra.json"
    path.write_text(tables.to_json())
    code, text = run_cli("axioms", "check", "--algebra", str(path), "--max-sort", "2")
    assert code == 0
    code, text = run_cli("primefilters", "--algebra", str(path), "--sort", "2")
    assert code == 0
    assert "4 prime filter(s)" in text


def test_invalid_table_entry_exits_2(tmp_path):
    from relalg import Universe, as_table_algebra, concrete
    from relalg.fragments import QF

    text = as_table_algebra(concrete(Universe(1), QF, 1)).to_json()
    bad = [json.loads(text) for _ in range(6)]
    bad[0]["sorts"][1]["neg"][0] = 99
    bad[1]["sorts"][0]["size"] = "two"
    bad[2]["sorts"][0]["meet"][0] = 0  # a row that is a number
    # sizes and the sort bound are JSON integers, not numbers int() accepts
    bad[3]["sorts"][0]["size"] = 2.7
    bad[4]["max_sort"] = 1.9
    bad[5]["sorts"][0]["size"] = "2"
    for data in bad:
        path = tmp_path / "algebra.json"
        path.write_text(json.dumps(data))
        code, _ = run_cli("axioms", "check", "--algebra", str(path), "--fragment", "qf",
                          "--max-sort", "1")
        assert code == 2, data


def test_axioms_check_past_element_cap_exits_2(capsys):
    # sort 14 over two points has 2**16384 elements, a number of more digits
    # than Python prints in decimal
    code, text = run_cli("axioms", "check", "--algebra", "builtin:concrete:2",
                         "--max-sort", "14")
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == (
        "error: sort 14 over universe of size 2 has 2**16384 elements, cap is 1048576\n")
    # sort 14285 has 2**(2**14285) elements, and the width 2**14285 is itself
    # a number of more digits than Python prints in decimal
    code, text = run_cli("axioms", "check", "--algebra", "builtin:concrete:2",
                         "--max-sort", "14285")
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == (
        "error: sort 14285 over universe of size 2 has 2**(2**14285) elements, "
        "cap is 1048576\n")
    # the refusal never builds the width 3**(10**9)
    code, text = run_cli("axioms", "check", "--algebra", "builtin:concrete:3",
                         "--max-sort", "1000000000")
    assert code == 2
    assert capsys.readouterr().err == (
        "error: sort 1000000000 over universe of size 3 has 2**(3**1000000000) elements, "
        "cap is 1048576\n")


def test_element_cap_reaches_table_files_and_galleries(tmp_path, capsys):
    # --element-cap applies to every loaded algebra, not only builtin:concrete
    from relalg import Universe, as_table_algebra, concrete
    from relalg.fragments import FO

    path = tmp_path / "algebra.json"
    path.write_text(as_table_algebra(concrete(Universe(2), FO, 2)).to_json())
    for spec, err in ((str(path), "error: sort 2 has 16 elements, cap is 8\n"),
                      ("builtin:pe-theory", "error: sort 2 has 706 elements, cap is 8\n"),
                      ("builtin:concrete:2",
                       "error: sort 2 over universe of size 2 has 16 elements, cap is 8\n")):
        code, text = run_cli("--element-cap", "8", "primefilters", "--algebra", spec,
                             "--sort", "2", "--max-sort", "2", "--fragment", "fo")
        assert (code, text, capsys.readouterr().err) == (2, "", err), spec


def test_eval_deeply_nested_input_from_a_file(tmp_path, capsys):
    from test_formulas import DEEP_FORMULA, DEEP_LITERALS, DEEP_TERMS

    structure = tmp_path / "structure.json"
    structure.write_text(json.dumps({"universe": 2, "relations": {"P": {"arity": 1, "tuples": [[0]]}}}))
    path = tmp_path / "formula.txt"
    for name, text in DEEP_TERMS.items():
        path.write_text(text)
        code, out = run_cli("eval", "--structure", str(structure), "--syntax", "term",
                            "--mode", "compiled", "--formula-file", str(path))
        assert (code, out.strip()) == (0, DEEP_LITERALS[name]), name
    path.write_text(DEEP_FORMULA)
    for mode in ("both", "naive"):
        code, out = run_cli("eval", "--structure", str(structure), "--mode", mode, "--formula-file", str(path))
        assert (code, out.strip()) == (0, "arity=1 universe=2 {(0)}"), mode
    path.write_text("[x] " + "!" * 5000 + "P(x)")
    capsys.readouterr()
    code, _ = run_cli("eval", "--structure", str(structure), "--formula-file", str(path))
    assert code == 2
    assert capsys.readouterr().err.startswith("error: input nested too deeply")
    # sorts of 2**64 and 2**100 bits over 2 points, refused at once
    for text in ("top 64", "top 100"):
        path.write_text(text)
        code, out = run_cli("eval", "--structure", str(structure), "--syntax", "term",
                            "--mode", "compiled", "--formula-file", str(path))
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: input too large to parse or evaluate\n"


def test_eval_naive_past_element_cap_exits_2(tmp_path, capsys):
    """The naive evaluator enumerates |W|**k context tuples; past the element
    cap it is refused before it starts, in both modes that run it."""
    structure = tmp_path / "structure.json"
    structure.write_text(json.dumps({"universe": 2, "relations": {}}))
    x65 = "[" + ",".join(f"x{i}" for i in range(1, 66)) + "] true"
    for mode in ("naive", "both"):
        capsys.readouterr()
        code, out = run_cli("eval", "--structure", str(structure), "--mode", mode, x65)
        assert (code, out) == (2, ""), mode
        assert capsys.readouterr().err == (
            "error: naive evaluation enumerates 2**65 context tuples, cap is 1048576\n")
    # the cap is --element-cap, and 2**10 tuples are within a cap of 1024
    x10 = "[" + ",".join(f"x{i}" for i in range(1, 11)) + "] x1 = x10"
    code, compiled = run_cli("eval", "--structure", str(structure), "--mode", "compiled",
                             "--element-cap", "1", x10)
    assert code == 0
    for mode in ("naive", "both"):
        assert run_cli("eval", "--structure", str(structure), "--mode", mode,
                       "--element-cap", "1024", x10) == (0, compiled), mode
        capsys.readouterr()
        code, out = run_cli("eval", "--structure", str(structure), "--mode", mode,
                            "--element-cap", "1023", x10)
        assert (code, out) == (2, ""), mode
        assert capsys.readouterr().err == (
            "error: naive evaluation enumerates 2**10 context tuples, cap is 1023\n")


@pytest.mark.parametrize("argv", [
    ("axioms", "check", "--algebra", "builtin:concrete:1", "--max-sort", "1",
     "--samples", "0", "--exhaustive-cap", "0"),
    ("axioms", "check", "--algebra", "builtin:concrete:1", "--max-sort", "1", "--samples", "-5"),
    ("axioms", "check", "--algebra", "builtin:diamond", "--max-sort", "-1"),
    ("embed", "--algebra", "builtin:concrete:1", "--fragment", "pqf", "--max-sort", "1",
     "--scope", "-1"),
    ("embed", "--algebra", "builtin:concrete:1", "--fragment", "pe", "--max-sort", "1",
     "--scope", "1", "--rounds", "-1"),
    ("axioms", "check", "--algebra", "builtin:concrete:x"),
    ("axioms", "check", "--algebra", "builtin:concrete:"),
    ("axioms", "check", "--algebra", "builtin:concrete:-1"),
])
def test_vacuous_bounds_exit_2(argv, capsys):
    """A run that could check nothing, or over a universe size that is not a
    non-negative integer, is refused with one error line, not passed."""
    code, text = run_cli(*argv)
    assert (code, text) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_embed_scope_zero_is_valid():
    code, text = run_cli("embed", "--algebra", "builtin:concrete:1", "--fragment", "pqf",
                         "--max-sort", "1", "--scope", "0")
    assert code == 0
    assert "injective on sorts 0..0: True" in text
