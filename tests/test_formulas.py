import re
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relalg import (
    ArityError,
    FormatError,
    FragmentError,
    Relation,
    Signature,
    Structure,
    Substitution,
    Universe,
    UniverseMismatchError,
    compile_fo,
    eval_fo_naive,
    eval_term,
    parse_fo,
    parse_term,
    print_term,
    random_formula,
    random_structure,
)
from relalg.formulas import (
    And,
    Bot,
    Delta,
    Exists,
    FOAnd,
    FOAtom,
    FOBot,
    FOExists,
    FOFormula,
    FONot,
    FOOr,
    FOTop,
    Not,
    Or,
    Sub,
    Sym,
    Top,
    print_fo,
)
from relalg.fragments import FO, PE, PQF, QF

from oracles import as_set, eval_fo_definitional, from_set


SIG = Signature((("R", 1), ("S", 2)))
SIG4 = Signature((("P", 0), ("R1", 1), ("R2", 2), ("R3", 3)))


def test_parse_term_leaf():
    t = parse_term("R", SIG)
    assert t == Sym("R", 1)
    assert t.sort == 1


def test_parse_term_exists_sub():
    t = parse_term("exists(sub [2,1] S)", SIG)
    assert t == Exists(Sub(Substitution(2, 2, (2, 1)), Sym("S", 2)))
    assert t.sort == 1


def test_parse_term_conjunction():
    t = parse_term("and(R, exists(sub [2,1] S))", SIG)
    assert isinstance(t, And)
    assert t.sort == 1


def test_parse_term_constants_and_delta():
    assert parse_term("top 2", SIG) == Top(2)
    assert parse_term("bot 0", SIG) == Bot(0)
    assert parse_term("delta 2 1 2", SIG) == Delta(2, 1, 2)


def test_parse_term_explicit_codomain():
    t = parse_term("sub [1,2]->3 S", SIG)
    assert t == Sub(Substitution(2, 3, (1, 2)), Sym("S", 2))
    assert t.sort == 3


def test_parse_term_errors_carry_position():
    with pytest.raises(FormatError) as exc:
        parse_term("and(R,", SIG)
    assert "position" in str(exc.value)
    with pytest.raises(FormatError):
        parse_term("unknownsym", SIG)
    with pytest.raises(FormatError):
        parse_term("and(R, S)", SIG)  # sort mismatch 1 vs 2
    with pytest.raises(FormatError):
        parse_term("R S", SIG)  # trailing input


def test_print_parse_round_trip_examples():
    for text in (
        "R",
        "exists(sub [2,1] S)",
        "and(R, exists(sub [2,1] S))",
        "or(top 1, not(R))",
        "sub [1,2]->3 S",
        "sub []->2 top 0",
        "delta 3 1 3",
    ):
        t = parse_term(text, SIG)
        assert parse_term(print_term(t), SIG) == t


def _random_term(rng: Random, sig: Signature, sort: int, depth: int):
    opts = ["top", "bot"]
    if depth > 0:
        opts += ["and", "or", "not", "sub", "exists"]
    if sort >= 1:
        opts.append("delta")
    syms = [(n, a) for n, a in sig.symbols if a == sort]
    if syms:
        opts += ["sym", "sym"]
    kind = rng.choice(opts)
    if kind == "sym":
        name, arity = rng.choice(syms)
        return Sym(name, arity)
    if kind == "top":
        return Top(sort)
    if kind == "bot":
        return Bot(sort)
    if kind == "delta":
        return Delta(sort, rng.randint(1, sort), rng.randint(1, sort))
    if kind == "and":
        return And(_random_term(rng, sig, sort, depth - 1), _random_term(rng, sig, sort, depth - 1))
    if kind == "or":
        return Or(_random_term(rng, sig, sort, depth - 1), _random_term(rng, sig, sort, depth - 1))
    if kind == "not":
        return Not(_random_term(rng, sig, sort, depth - 1))
    if kind == "exists":
        return Exists(_random_term(rng, sig, sort + 1, depth - 1))
    dom = rng.randint(0, 3)
    entries = tuple(rng.randint(1, sort) for _ in range(dom)) if sort else ()
    if dom and not sort:
        return Top(sort)
    return Sub(Substitution(dom, sort, entries), _random_term(rng, sig, dom, depth - 1))


def test_print_parse_round_trip_random():
    rng = Random(20250801)
    for _ in range(300):
        t = _random_term(rng, SIG4, rng.randint(0, 3), 4)
        assert parse_term(print_term(t), SIG4) == t


def test_parse_fo_examples():
    sig = Signature((("R1", 2), ("R2", 2)))
    f = parse_fo("[x] exists y (R1(x,y) & R2(x,y))", sig)
    assert len(f.context) == 1
    assert isinstance(f.body, FOExists)

    sig2 = Signature((("R", 2),))
    g = parse_fo("[x,y,z] R(x,y)", sig2)
    assert len(g.context) == 3
    assert g.body == FOAtom("R", (1, 2))

    h = parse_fo("[x,y] x = y", sig2)
    assert len(h.context) == 2


def test_parse_fo_unicode_constants():
    f = parse_fo("[x] ⊥", SIG)
    assert f.body == FOBot()
    assert parse_fo("[x] false", SIG).body == FOBot()


def test_parse_fo_errors():
    sig = Signature((("R", 2),))
    with pytest.raises(FormatError):
        parse_fo("[x] R(x,y)", sig)  # unbound variable
    with pytest.raises(FormatError):
        parse_fo("[x] Q(x)", sig)  # unknown symbol
    with pytest.raises(FormatError):
        parse_fo("[x,y] R(x)", sig)  # arity mismatch
    with pytest.raises(FormatError):
        parse_fo("[x,x] R(x,x)", sig)  # duplicate context variable
    with pytest.raises(FormatError):
        parse_fo("[x] exists x (R(x,x))", sig)  # shadowing binder


def test_compile_repetition_pattern():
    sig = Signature((("R", 4),))
    f = parse_fo("[x,y,z] R(x,x,y,x)", sig)
    t = compile_fo(f)
    assert t == Sub(Substitution(4, 3, (1, 1, 2, 1)), Sym("R", 4))


def test_compile_projection_of_intersection():
    sig = Signature((("R1", 2), ("R2", 2)))
    f = parse_fo("[x] exists y (R1(x,y) & R2(x,y))", sig)
    assert compile_fo(f) == Exists(And(Sym("R1", 2), Sym("R2", 2)))


def test_compile_identity_elimination():
    sig = Signature((("R", 2),))
    f = parse_fo("[x,y] R(x,y)", sig)
    assert compile_fo(f) == Sym("R", 2)


def test_compile_equality():
    sig = Signature((("R", 2),))
    f = parse_fo("[x,y] x = y", sig)
    assert compile_fo(f) == Delta(2, 1, 2)


def test_compile_fragment_violations():
    sig = Signature((("R", 1),))
    f = parse_fo("[x] !R(x)", sig)
    with pytest.raises(FragmentError):
        compile_fo(f, PQF)
    g = parse_fo("[x,y] x = y", sig)
    with pytest.raises(FragmentError):
        compile_fo(g, FO)  # no equality flag


def test_eval_fixed_example():
    u = Universe(2)
    structure = Structure(u, {
        "R1": from_set(2, 2, [(0, 0), (0, 1)]),
        "R2": from_set(2, 2, [(0, 1), (1, 1)]),
    })
    sig = structure.signature()
    f = parse_fo("[x] exists y (R1(x,y) & R2(x,y))", sig)
    t = compile_fo(f)
    assert as_set(eval_term(t, structure)) == {(0,)}
    assert as_set(eval_fo_naive(f, structure)) == {(0,)}


def test_eval_constants():
    u = Universe(2)
    structure = Structure(u, {})
    assert eval_term(Top(2), structure).bits == 0b1111
    assert as_set(eval_term(Delta(2, 1, 2), structure)) == {(0, 0), (1, 1)}
    f = parse_fo("[x] ⊥", Signature(()))
    assert eval_fo_naive(f, structure).bits == 0


def test_eval_sentence_with_witness():
    u = Universe(3)
    structure = Structure(u, {
        "A": from_set(3, 1, [(0,), (1,)]),
        "B": from_set(3, 1, [(1,), (2,)]),
    })
    sig = structure.signature()
    f = parse_fo("[] exists x (A(x) & B(x))", sig)
    assert eval_fo_naive(f, structure).bits == 1
    assert eval_term(compile_fo(f), structure).bits == 1


def test_cylindrification_in_context():
    sig = Signature((("R", 2),))
    f = parse_fo("[x,y,z] R(x,y)", sig)
    u = Universe(2)
    structure = Structure(u, {"R": from_set(2, 2, [(1, 0)])})
    result = eval_term(compile_fo(f), structure)
    assert as_set(result) == {(1, 0, 0), (1, 0, 1)}
    assert result == eval_fo_naive(f, structure)


def test_oracle_equivalence_seeded_fuzz():
    rng = Random(987654321)
    agree = 0
    for _ in range(400):
        size = rng.choice((0, 1, 2, 3, 3))
        structure = random_structure(rng, SIG4, size)
        f = random_formula(rng, SIG4, rng.randint(0, 3), rng.randint(0, 4))
        compiled = eval_term(compile_fo(f), structure)
        naive = eval_fo_naive(f, structure)
        assert compiled == naive, print_fo(f)
        agree += 1
    assert agree == 400


def test_print_fo_round_trips_through_parse_fo():
    rng = Random(2024)
    for _ in range(500):
        f = random_formula(rng, SIG4, rng.randint(0, 3), rng.randint(0, 4))
        assert parse_fo(print_fo(f), SIG4) == f, print_fo(f)


def test_signature_refuses_bad_symbols():
    with pytest.raises(ArityError, match="^negative arity for symbol R$"):
        Signature((("R", -1),))
    with pytest.raises(FormatError, match="^duplicate symbol 'R'$"):
        Signature((("R", 1), ("R", 2)))
    with pytest.raises(FormatError, match="^unknown relation symbol 'S'$"):
        Signature((("R", 1),)).arity("S")


def test_structure_refuses_a_relation_over_another_universe():
    with pytest.raises(UniverseMismatchError,
                       match="^relation R lives over a different universe$"):
        Structure(Universe(2), {"R": Relation(Universe(3), 1, 0b101)})


def test_formulas_refuse_names_that_parse_fo_refuses():
    """A context that repeats a name, or a quantifier that rebinds one in
    scope, is refused as parse_fo refuses its text."""
    for context, body, message in [
        (("x",), FOExists("x", FOAtom("R2", (1, 2))), "variable 'x' already bound"),
        (("x", "x"), FOTop(), "variable 'x' already bound"),
        (("x",), FOExists("y", FOExists("y", FOTop())), "variable 'y' already bound"),
        (("and",), FOTop(), "expected a variable name, found 'and'"),
        (("1x",), FOTop(), "expected a variable name, found '1x'"),
    ]:
        with pytest.raises(FormatError) as caught:
            FOFormula(context, body)
        assert str(caught.value) == message
    with pytest.raises(FormatError) as caught:
        parse_fo("[x] exists x (R2(x,x))", SIG4)
    assert str(caught.value) == "variable 'x' already bound (at position 11)"
    # a name bound in one branch is free again in the other
    f = FOFormula(("x",), FOAnd(FOExists("y", FOTop()), FOExists("y", FOAtom("R2", (1, 2)))))
    assert parse_fo(print_fo(f), SIG4) == f


def _renamed(node, rng, names):
    """node with each quantifier's name drawn from names."""
    if isinstance(node, FOExists):
        return FOExists(rng.choice(names), _renamed(node.body, rng, names))
    if isinstance(node, (FOAnd, FOOr)):
        return type(node)(_renamed(node.left, rng, names), _renamed(node.right, rng, names))
    if isinstance(node, FONot):
        return FONot(_renamed(node.child, rng, names))
    return node


def test_every_formula_that_builds_round_trips_through_parse_fo():
    rng = Random(4242)
    names, built = ["x", "y", "z", "w"], 0
    for _ in range(500):
        f = random_formula(rng, SIG4, rng.randint(0, 3), rng.randint(0, 4))
        context = tuple(rng.choice(names) for _ in f.context)
        try:
            g = FOFormula(context, _renamed(f.body, rng, names))
        except FormatError as refused:
            assert re.fullmatch(r"variable '[xyzw]' already bound", str(refused))
            continue
        built += 1
        assert parse_fo(print_fo(g), SIG4) == g, print_fo(g)
    assert 100 < built < 500


def test_sort_soundness():
    rng = Random(2468)
    for _ in range(100):
        k = rng.randint(0, 3)
        f = random_formula(rng, SIG4, k, 3)
        t = compile_fo(f)
        assert t.sort == k
        structure = random_structure(rng, SIG4, 2)
        assert eval_term(t, structure).arity == k


def test_de_morgan_in_the_image():
    rng = Random(13579)
    u = Universe(2)
    for _ in range(50):
        structure = random_structure(rng, SIG, 2)
        t = _random_term(rng, SIG, 1, 3)
        s = _random_term(rng, SIG, 1, 3)
        lhs = eval_term(Not(And(t, s)), structure)
        rhs = eval_term(Or(Not(t), Not(s)), structure)
        assert lhs == rhs


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_oracle_equivalence_hypothesis(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = Random(seed)
    size = data.draw(st.integers(0, 3))
    structure = random_structure(rng, SIG4, size)
    f = random_formula(rng, SIG4, rng.randint(0, 2), rng.randint(0, 3))
    assert eval_term(compile_fo(f), structure) == eval_fo_naive(f, structure)


SIG5 = Signature(SIG4.symbols + (("R4", 4),))
FRAGMENTS = [None] + [f for base in (PQF, QF, PE, FO) for f in (base, base.with_equality())]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_naive_closures_match_the_definitional_recursion(data):
    rng = Random(data.draw(st.integers(0, 2**32 - 1)))
    structure = random_structure(rng, SIG5, data.draw(st.integers(0, 4)))
    k = data.draw(st.integers(0, 3))
    f = random_formula(rng, SIG5, k, data.draw(st.integers(0, 4)), data.draw(st.sampled_from(FRAGMENTS)))
    assert eval_fo_naive(f, structure) == eval_fo_definitional(f, structure), f


def test_naive_errors_stay_lazy_and_keep_their_messages():
    structure = Structure(Universe(2), {"P": from_set(2, 0, [()]), "R1": from_set(2, 1, [(1,)])})
    unknown, wrong_arity = FOAtom("Q", (1,)), FOAtom("R1", (1, 1))
    for bad in (unknown, wrong_arity):
        assert eval_fo_naive(FOFormula(("x",), FOAnd(FOBot(), bad)), structure).bits == 0
        assert eval_fo_naive(FOFormula(("x",), FOOr(FOTop(), bad)), structure).bits == 0b11
    for error, bad, message in [
        (FormatError, unknown, "structure does not interpret symbol 'Q'"),
        (ArityError, wrong_arity, "symbol R1 has arity 1, atom has 2 arguments"),
    ]:
        for oracle in (eval_fo_naive, eval_fo_definitional):
            with pytest.raises(error) as caught:
                oracle(FOFormula(("x",), FOAnd(FOTop(), bad)), structure)
            assert str(caught.value) == message
    # an arity-0 symbol is a truth value in every context
    for k in range(3):
        f = FOFormula(tuple(f"x{i}" for i in range(1, k + 1)), FOAtom("P", ()))
        assert eval_fo_naive(f, structure).bits == (1 << 2**k) - 1
    # over the empty universe: the empty context holds one tuple and no
    # witness; a nonempty context holds no tuple, so nothing is evaluated
    empty = Structure(Universe(0), {})
    assert eval_fo_naive(FOFormula((), FOTop()), empty).bits == 1
    assert eval_fo_naive(FOFormula((), FOExists("y", FOTop())), empty).bits == 0
    assert eval_fo_naive(FOFormula(("x", "y"), FOAtom("Q", (1, 2))), empty) == Relation(Universe(0), 2, 0)


def test_structure_json_round_trip():
    u = Universe(2)
    structure = Structure(u, {"R": from_set(2, 2, [(0, 1)]), "A": from_set(2, 1, [(1,)])})
    again = Structure.from_json(structure.to_json())
    assert again == structure
    text = '{"universe": 2, "relations": {"R": {"arity": 2, "tuples": [[0,1]]}}}'
    parsed = Structure.from_json(text)
    assert as_set(parsed.relations["R"]) == {(0, 1)}


def test_structure_json_errors():
    with pytest.raises(FormatError):
        Structure.from_json("not json")
    with pytest.raises(FormatError):
        Structure.from_json("[1,2]")
    with pytest.raises(FormatError):
        Structure.from_json('{"universe": 1, "relations": {"R": {"arity": 1, "tuples": [[7]]}}}')


def test_term_sort_invariants():
    with pytest.raises(ArityError):
        And(Top(1), Top(2))
    with pytest.raises(ArityError):
        Sub(Substitution(2, 1, (1, 1)), Sym("R", 1))
    with pytest.raises(ArityError):
        Exists(Top(0))
    with pytest.raises(ArityError):
        Delta(2, 1, 3)


def test_eval_term_unknown_symbol_and_arity_mismatch():
    u = Universe(2)
    structure = Structure(u, {"P": from_set(2, 1, [(0,)])})
    with pytest.raises(FormatError, match=re.escape("structure does not interpret symbol 'Q'")):
        eval_term(parse_term("and(P, Q)", Signature((("P", 1), ("Q", 1)))), structure)
    with pytest.raises(ArityError, match=re.escape(
            "symbol P has arity 1 in the structure, term expects 2")):
        eval_term(parse_term("exists(P)", Signature((("P", 2),))), structure)


def test_eval_term_walks_a_shared_subterm_once():
    class CountingGets(dict):
        gets = 0

        def get(self, *args):
            CountingGets.gets += 1
            return super().get(*args)

    u = Universe(2)
    structure = Structure(u, CountingGets(P=from_set(2, 1, [(0,)])))
    term = Sym("P", 1)
    for _ in range(12):
        term = And(term, term)
    assert str(eval_term(term, structure)) == "arity=1 universe=2 {(0)}"
    assert CountingGets.gets == 1


# Terms and formulas nested 900 deep evaluate as they did before the term
# evaluator was shared with the axiom checker; deeper ones end in RecursionError.
DEPTH = 900
DEEP_TERMS = {
    "not chain": "not(" * DEPTH + "P" + ")" * DEPTH,
    "odd not chain": "not(" * (DEPTH - 1) + "P" + ")" * (DEPTH - 1),
    "and chain": "and(P, " * DEPTH + "P" + ")" * DEPTH,
    "and of two deep copies": "and({0}, {0})".format("not(" * DEPTH + "P" + ")" * DEPTH),
}
DEEP_LITERALS = {"not chain": "arity=1 universe=2 {(0)}",
                 "odd not chain": "arity=1 universe=2 {(1)}",
                 "and chain": "arity=1 universe=2 {(0)}",
                 "and of two deep copies": "arity=1 universe=2 {(0)}"}
DEEP_FORMULA = "[x] " + "!" * DEPTH + "P(x)"


def test_eval_deeply_nested_terms_and_formulas():
    structure = Structure(Universe(2), {"P": from_set(2, 1, [(0,)])})
    sig = structure.signature()
    for name, text in DEEP_TERMS.items():
        assert str(eval_term(parse_term(text, sig), structure)) == DEEP_LITERALS[name], name
    formula = parse_fo(DEEP_FORMULA, sig)
    assert str(eval_term(compile_fo(formula), structure)) == "arity=1 universe=2 {(0)}"
    assert str(eval_fo_naive(formula, structure)) == "arity=1 universe=2 {(0)}"
