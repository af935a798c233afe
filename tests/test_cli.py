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


def test_eval_both_reports_a_disagreement_and_exits_1(structure_file, monkeypatch):
    """A naive evaluator that answers the empty relation disagrees with the
    compiled one; the two answers are printed and the verdict is exit 1."""
    import relalg.cli
    from relalg import Relation

    monkeypatch.setattr(relalg.cli, "eval_fo_naive",
                        lambda formula, structure: Relation(structure.universe, 1, 0))
    assert run_cli("eval", "--structure", structure_file, "--mode", "both",
                   "[x] exists y (R1(x,y) & R2(x,y))") == (1, (
        "EVALUATOR DISAGREEMENT\n"
        "compiled: arity=1 universe=2 {(0)}\n"
        "naive:    arity=1 universe=2 {}\n"))


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
    ("axioms", "check", "--algebra", "builtin:concrete:1", "--max-sort", "1",
     "--exhaustive-cap", "-1"),
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


def lawless_files(tmp_path):
    """A table file whose substitution table breaks the filter constructions,
    and one whose sort 1 is not a lattice; both parse."""
    from relalg import PQF, Universe, as_table_algebra, concrete

    data = json.loads(as_table_algebra(concrete(Universe(2), PQF.with_equality(), 2)).to_json())
    table = data["subst"]["1->2:[1]"]
    table[0] = (table[0] + 1) % 16
    mut = tmp_path / "mut.json"
    mut.write_text(json.dumps(data))
    data = json.loads(as_table_algebra(concrete(Universe(2), PQF, 1)).to_json())
    data["sorts"][1]["meet"][1][2] = 3
    nonlattice = tmp_path / "nonlattice.json"
    nonlattice.write_text(json.dumps(data))
    return str(mut), str(nonlattice)


def test_lawless_algebra_files_exit_1_with_one_line(tmp_path, capsys):
    """A file that parses but breaks the laws is a mathematical failure: one
    line on stdout naming the failed check, exit 1, nothing on stderr."""
    mut, nonlattice = lawless_files(tmp_path)
    not_a_lattice = ("NOT A LATTICE: meet of sort-1 elements 1,2 is not their "
                     "greatest lower bound\n")
    for argv, line in (
        (("embed", "--algebra", mut, "--scope", "1"),
         "POSTCONDITION FAILED: filter-induced map failed verification: "
         "substitution [1]:1->2 at sort-1 element 0 not preserved\n"),
        (("primefilters", "--algebra", nonlattice, "--sort", "1"), not_a_lattice),
        (("embed", "--algebra", nonlattice, "--scope", "1"), not_a_lattice),
    ):
        assert run_cli(*argv) == (1, line), argv
        assert capsys.readouterr().err == "", argv
    # the axiom checker reports the same file as violated axioms
    code, text = run_cli("axioms", "check", "--algebra", nonlattice)
    assert code == 1 and "verdict: 1 axiom(s) violated" in text
    # adding 2 instead of 1 breaks the master filter's postcondition
    data = json.loads(Path(mut).read_text())
    data["subst"]["1->2:[1]"][0] = (data["subst"]["1->2:[1]"][0] + 1) % 16
    Path(mut).write_text(json.dumps(data))
    assert run_cli("embed", "--algebra", mut, "--scope", "1") == (
        1, "POSTCONDITION FAILED: master filter postcondition fails at block sort 1, element 0\n")
    assert capsys.readouterr().err == ""


def test_ill_defined_filter_map_exits_1(monkeypatch, capsys):
    """The shifted 1->2 tables of test_filter_model_golden that make a filter
    map ambiguous fail another check first under embed, so embed itself is
    replaced by one that raises."""
    from relalg import IllDefinedMapError, Substitution
    import relalg.cli

    def ambiguous(*args, **kwargs):
        raise IllDefinedMapError("merged positions make the sort-1 map ambiguous",
                                 alpha=Substitution(1, 2, (1,)), beta=Substitution(1, 2, (2,)))

    monkeypatch.setattr(relalg.cli, "embed", ambiguous)
    assert run_cli("embed", "--algebra", "builtin:concrete:1", "--scope", "1") == (
        1, "ILL-DEFINED MAP: merged positions make the sort-1 map ambiguous\n")
    assert capsys.readouterr().err == ""


def test_negative_max_sort_exits_2_in_every_subcommand(tmp_path, capsys):
    """Galleries and table files carry their own sort bound; the flag is
    refused all the same."""
    mut, _ = lawless_files(tmp_path)
    for spec in ("builtin:concrete:1", "builtin:diamond", "builtin:pe-theory", mut):
        for argv in (("axioms", "check"), ("primefilters", "--sort", "0"), ("embed", "--scope", "0")):
            assert run_cli(*argv, "--algebra", spec, "--max-sort", "-1") == (2, ""), (spec, argv)
            assert capsys.readouterr().err == "error: max_sort must be >= 0, got -1\n", (spec, argv)


def test_embed_pe_theory_past_the_cap_names_a_pair_obstruction(capsys):
    """The master sort (39) is past the element cap, but two sort-1 filters
    of the separating family already meet the axiom (0) obstruction."""
    code, text = run_cli("embed", "--algebra", "builtin:pe-theory", "--max-sort", "2",
                         "--scope", "2")
    assert code == 1
    assert text.splitlines() == [
        "OBSTRUCTION (axiom (0)): axiom (0) obstruction: the blockwise filter meets "
        "the blockwise ideal",
        "  blocks: [1, 1]  r=[2, 3]  s=[4, 7]",
    ]
    assert capsys.readouterr().err == ""


def test_embed_jsonl_prints_one_record():
    code, text = run_cli("--format", "jsonl", "embed", "--algebra", "builtin:concrete:1",
                         "--fragment", "pqf", "--max-sort", "1", "--scope", "1")
    assert code == 0
    records = [json.loads(line) for line in text.splitlines()]
    assert len(records) == 1
    assert records[0]["status"] == "full"
    assert records[0]["target_size"] == 1


@pytest.mark.parametrize("argv, error", [
    ((), "error: no formula given (positional argument or --formula-file)\n"),
    (("--syntax", "term", "--mode", "naive", "exists(and(R1, R2))"),
     "error: term syntax has no naive evaluator; use --mode compiled\n"),
    (("[R1] R1(R1, R1)",),
     "error: variable 'R1' clashes with a relation symbol (at position 1)\n"),
    (("[x] R1(x,x) )",), "error: trailing input ')' (at position 12)\n"),
    (("[x] R1(x,x) & ",), "error: expected an atom, found 'end of input' (at position 14)\n"),
    (("[x] R1(x,)",), "error: expected a variable, found ')' (at position 9)\n"),
])
def test_eval_refusals_exit_2(structure_file, argv, error, capsys):
    assert run_cli("eval", "--structure", structure_file, *argv) == (2, "")
    assert capsys.readouterr().err == error


def test_unknown_fragment_exits_2(capsys):
    for argv in (("axioms", "check"), ("embed", "--scope", "1")):
        assert run_cli(*argv, "--algebra", "builtin:concrete:1", "--fragment", "bogus") == (2, "")
        assert capsys.readouterr().err == ("error: unknown fragment 'bogus' "
                                           "(expected pqf, qf, pe or fo, optionally +eq)\n")


def refusal_files(tmp_path):
    """Files that are valid JSON but break one rule of their format: a table
    with one sort entry too few, a substitution key without brackets, a
    negative sort bound, and structures whose relation is named like a
    connective or has a negative arity; and a lawful structure with one unary
    relation R, for refused formulas and terms."""
    from relalg import PQF, Universe, as_table_algebra, concrete

    text = as_table_algebra(concrete(Universe(1), PQF, 2)).to_json()
    short, bad_key, negative_bound = json.loads(text), json.loads(text), json.loads(text)
    short["sorts"].pop()
    bad_key["subst"]["1->2:1"] = bad_key["subst"].pop("1->2:[1]")
    negative_bound["max_sort"] = -1
    files = {"short": short, "bad_key": bad_key, "negative_bound": negative_bound,
             "and_structure": {"universe": 2, "relations": {"and": {"arity": 1, "tuples": [[0]]}}},
             "negative_arity": {"universe": 2, "relations": {"R": {"arity": -1, "tuples": []}}},
             "r_structure": {"universe": 2, "relations": {"R": {"arity": 1, "tuples": [[0]]}}}}
    for name, data in files.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(data))
    return files


@pytest.mark.parametrize("argv, error", [
    (("embed", "--algebra", "builtin:concrete:1", "--max-sort", "2", "--scope", "3"),
     "scope 3 exceeds sort bound 2"),
    (("axioms", "check", "--algebra", "{short}"), "expected data for 3 sorts"),
    (("axioms", "check", "--algebra", "{bad_key}"), "bad substitution key '1->2:1'"),
    (("eval", "--structure", "{and_structure}", "[x] true"), "bad relation symbol name 'and'"),
    (("axioms", "check", "--algebra", "{negative_bound}"), "max_sort must be >= 0, got -1"),
    (("eval", "--structure", "{negative_arity}", "[x] true"), "negative arity -1"),
    (("eval", "--structure", "{r_structure}", "[x] " + "!" * 5000 + "R(x)"),
     "input nested too deeply to parse or evaluate"),
    (("eval", "--structure", "{r_structure}", "--syntax", "term", "--mode", "compiled",
      "not(" * 5000 + "R" + ")" * 5000), "input nested too deeply to parse or evaluate"),
    (("eval", "--structure", "{r_structure}", "--syntax", "term", "--mode", "compiled",
      "sub [3]->2 R"), "substitution entry 3 outside 1..2 (at position 0)"),
    (("eval", "--structure", "{r_structure}", "--syntax", "term", "--mode", "compiled",
      "exists(top 0)"), "projection of a sort-0 term (at position 0)"),
    (("eval", "--structure", "{r_structure}", "--syntax", "term", "--mode", "compiled",
      "delta 2 3 1"), "diagonal indices (3,1) outside 1..2 (at position 0)"),
    (("eval", "--structure", "{r_structure}", "--syntax", "term", "--mode", "compiled",
      "or(top 1, top 2)"), "disjunction of sorts 1 and 2 (at position 0)"),
], ids=["scope-above-bound", "short-table", "bad-subst-key", "connective-relation",
        "negative-max-sort-file", "negative-arity", "deep-formula", "deep-term",
        "substitution-entry", "sort-0-projection", "diagonal-index", "sort-mismatch"])
def test_reachable_refusals_exit_2(argv, error, tmp_path, capsys):
    files = refusal_files(tmp_path)
    assert run_cli(*(arg.format(**files) for arg in argv)) == (2, "")
    assert capsys.readouterr().err == f"error: {error}\n"


def test_embed_skips_the_one_element_sort_of_an_empty_universe(capsys):
    """Over the empty universe sort 1 has one element and no pair to
    separate, so the separating family lives on sort 0 alone."""
    code, text = run_cli("embed", "--algebra", "builtin:concrete:0", "--max-sort", "1",
                         "--scope", "1")
    assert code == 0
    assert text.splitlines() == [
        "status: full  fragment: pqf  target universe size: 0",
        "  separating family: 1 prime filter(s) on sorts [0]",
        "  master filter on sort 0, generator 1",
        "  morphic conditions checked: 19, violations: 0",
        "  injective on sorts 0..1: True",
        "  sort 0 element 0 -> arity=0 universe=0 {}",
        "  sort 0 element 1 -> arity=0 universe=0 {()}",
        "  sort 1 element 0 -> arity=1 universe=0 {}",
    ]
    assert capsys.readouterr().err == ""


def test_embed_table_file_without_extension_names_a_pair_obstruction(tmp_path, capsys):
    """A table file cannot build the master sort, but a sort-0 pair of the
    diamond's filters already obstructs; a lawful table keeps its refusal."""
    from relalg import PQF, Universe, as_table_algebra, concrete, gallery_diamond

    diamond, lawful = tmp_path / "diamond.json", tmp_path / "lawful.json"
    diamond.write_text(as_table_algebra(gallery_diamond()[0]).to_json())
    lawful.write_text(as_table_algebra(concrete(Universe(2), PQF, 1)).to_json())
    code, text = run_cli("embed", "--algebra", str(diamond), "--scope", "2")
    assert code == 1
    assert text.splitlines() == [
        "OBSTRUCTION (axiom (0)): axiom (0) obstruction: the blockwise filter meets "
        "the blockwise ideal",
        "  blocks: [0, 0]  r=[1, 2]  s=[2, 1]",
    ]
    assert capsys.readouterr().err == ""
    assert run_cli("embed", "--algebra", str(lawful), "--scope", "1") == (2, "")
    assert capsys.readouterr().err == "error: table algebra has no sorts above 1\n"


def test_embed_almost_certificate_lists_outstanding_requests():
    code, text = run_cli("embed", "--algebra", "builtin:concrete:1", "--fragment", "pe",
                         "--max-sort", "1", "--scope", "0", "--rounds", "0")
    assert code == 1
    lines = text.splitlines()
    assert lines[0].startswith("status: almost")
    assert lines[-1] == "  outstanding: tuple (): filter on sort 1 generated by 1"
