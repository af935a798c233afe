"""Fuzz oracle for the exit-code contract: whatever the input files and
formula text, main() ends with 0, 1 or 2 and no exception escapes."""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relalg import Universe, as_table_algebra, concrete
from relalg.cli import main
from relalg.fragments import QF

from test_cli import STRUCTURE

ALGEBRA = as_table_algebra(concrete(Universe(1), QF, 1)).to_json()

# small values only: a mutation may resize a sort or a universe, and the
# oracle is about exit codes, not about sizes that exhaust memory
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-2, 4), st.floats(-1, 3),
                   st.sampled_from(["", "x", "qf", "fo+eq", "R1", "1->1:[1]", "1:1,1"]))
VALUES = st.recursive(LEAVES, lambda kids: st.lists(kids, max_size=3)
                      | st.dictionaries(st.sampled_from(["size", "arity", "tuples", "meet"]),
                                        kids, max_size=2),
                      max_leaves=6)

TOKENS = ["[", "]", "(", ")", ",", "x", "y", "z", "R1", "R2", "Q", "exists", "!", "&", "|",
          "=", "true", "false", "⊤", "⊥", "sub", "and", "or", "not", "top", "bot", "delta",
          "->", "0", "1", "2", "3", "@"]


def _paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated(draw, text):
    """The JSON text with one to three values replaced or deleted, and
    sometimes cut short."""
    doc = json.loads(text)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(VALUES)
    out = json.dumps(doc)
    return out[:draw(st.integers(0, len(out)))] if draw(st.integers(0, 9)) == 0 else out


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _check_exit(*argv):
    try:
        code = main(list(argv), out=io.StringIO())
    except SystemExit as exc:  # argparse ends usage errors with exit 2
        code = exc.code
    assert code in (0, 1, 2), argv


@given(mutated(STRUCTURE))
@settings(max_examples=150, deadline=None)
def test_mutated_structure_files(fuzz_dir, text):
    path = fuzz_dir / "structure.json"
    path.write_text(text)
    _check_exit("eval", "--structure", str(path), "[x] exists y (R1(x,y) & R2(x,y))")


@given(mutated(ALGEBRA))
@settings(max_examples=150, deadline=None)
def test_mutated_algebra_files(fuzz_dir, text):
    path = fuzz_dir / "algebra.json"
    path.write_text(text)
    _check_exit("axioms", "check", "--algebra", str(path), "--max-sort", "1")
    _check_exit("primefilters", "--algebra", str(path), "--sort", "1", "--max-sort", "1")
    _check_exit("embed", "--algebra", str(path), "--scope", "1")


@given(st.lists(st.sampled_from(TOKENS), max_size=25), st.booleans())
@settings(max_examples=200, deadline=None)
def test_token_soup_formulas(fuzz_dir, tokens, as_term):
    path = fuzz_dir / "structure.json"
    path.write_text(STRUCTURE)
    syntax = ["--syntax", "term", "--mode", "compiled"] if as_term else []
    _check_exit("eval", "--structure", str(path), *syntax, " ".join(tokens))
