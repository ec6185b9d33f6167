"""Term DAGs: evaluation, realization, identities, serialization."""

import gc
import random
import re
from collections import Counter
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st
from oracles import apply_op, projection_index, scalar_evaluate

from idemalg import terms
from idemalg.algebra import quotient, restrict, validate_algebra
from idemalg.congruence import cg
from idemalg.errors import (
    ArityMismatch,
    IdemalgError,
    TermSyntaxError,
    UnknownSymbol,
    ValidationError,
)
from idemalg.terms import (
    Identity,
    app,
    check_identity,
    compose,
    evaluate,
    parse_term,
    power,
    proj,
    realize_table,
    substitute,
    uses_variable,
)


def test_eval_examples(a_ne, z3a):
    f_xy = app("f", [proj(0, 2), proj(1, 2)])
    assert evaluate(f_xy, a_ne, (0, 1)) == 2          # f(a,b) = c
    p0 = proj(0, 3)
    assert evaluate(p0, a_ne, (2, 0, 1)) == 2
    h = app("h", [proj(0, 3), proj(1, 3), proj(2, 3)])
    assert evaluate(h, z3a, (1, 0, 0)) == 1


def test_eval_agrees_with_realize_everywhere(a_ne, z3a, mj2):
    cases = [
        (a_ne, app("f", [app("g", [proj(1, 2), proj(0, 2)]), proj(0, 2)])),
        (z3a, app("h", [proj(0, 3), app("h", [proj(0, 3), proj(1, 3),
                                              proj(2, 3)]), proj(2, 3)])),
        (mj2, app("maj", [proj(2, 3), proj(0, 3), proj(1, 3)])),
    ]
    for alg, t in cases:
        tab = realize_table(t, alg)
        for args in product(range(alg.size), repeat=t.arity):
            assert apply_op(tab, args, alg.size) == evaluate(t, alg, args) \
                == scalar_evaluate(t, alg, args)


def test_realize_maltsev_composition_oracle(z3a):
    # h(x1, h(x1,x2,x3), x3) against direct exhaustive evaluation
    inner = app("h", [proj(0, 3), proj(1, 3), proj(2, 3)])
    t = app("h", [proj(0, 3), inner, proj(2, 3)])
    tab = realize_table(t, z3a)
    for x, y, z in product(range(3), repeat=3):
        expect = (x - ((x - y + z) % 3) + z) % 3
        assert apply_op(tab, (x, y, z), 3) == expect


def test_realize_swap_is_commutative_meet(sl2):
    t = app("meet", [proj(1, 2), proj(0, 2)])
    tab = realize_table(t, sl2)
    assert tab.table == (0, 0, 0, 1)


def test_realize_on_quotient_majority_collapses(a_nms):
    # maj(x, x, y) is the first projection on the two-block quotient
    quot, _ = quotient(a_nms, cg(a_nms, [(0, 2)]).blocks)
    t = app("maj", [proj(0, 2), proj(0, 2), proj(1, 2)])
    assert projection_index(realize_table(t, quot), 2) == 0


def test_terms_transfer_to_subalgebras_and_quotients(a_ne, a_nms):
    t = app("f", [app("g", [proj(0, 2), proj(1, 2)]), proj(0, 2)])
    sub, emb = restrict(a_ne, [0, 2])
    for args in product(range(sub.size), repeat=2):
        parent = tuple(emb[x] for x in args)
        assert emb[evaluate(t, sub, args)] == evaluate(t, a_ne, parent)
    theta = cg(a_nms, [(0, 2)])
    quot, bmap = quotient(a_nms, theta.blocks)
    s = app("maj", [proj(0, 3), proj(1, 3), app("mnr", [proj(0, 3),
                                                        proj(1, 3),
                                                        proj(2, 3)])])
    for args in product(range(4), repeat=3):
        blocks = tuple(bmap[x] for x in args)
        assert bmap[evaluate(s, a_nms, args)] == evaluate(s, quot, blocks)


def test_hash_consing_identity():
    t1 = app("f", [proj(0, 2), app("g", [proj(1, 2), proj(0, 2)])])
    t2 = app("f", [proj(0, 2), app("g", [proj(1, 2), proj(0, 2)])])
    assert t1 is t2
    assert power(t1, 0, 5) is power(t2, 0, 5)


def test_parse_print_roundtrip():
    texts = [
        "f(p0, g(p1, p0, p1))",
        "pow(2520, 1, f(p0, p1))",
        "comp(f(p0, p1), g(p0, p1, p2), p2)",
        "f(pow(12, 0, g(p0, p1)), p1)",
    ]
    for txt in texts:
        t = parse_term(txt)
        assert t.text() == txt
        assert parse_term(t.text(), t.arity) is t


def test_uses_variable_skips_composition_outers():
    # the outer reads its own variables: only p1 and p2 are read here
    t = compose(app("f", [proj(0, 2), proj(1, 2)]), [proj(1, 3), proj(2, 3)])
    assert t.text() == "comp(f(p0, p1), p1, p2)"
    assert [uses_variable(t, i) for i in range(3)] == [False, True, True]
    assert uses_variable(power(app("f", [proj(0, 2), proj(0, 2)]), 1, 3), 1)


@st.composite
def interned_terms(draw, arity=None, depth=4):
    """Random interned terms mixing applications, powers and compositions."""
    if arity is None:
        arity = draw(st.integers(1, 3))
    kinds = ("proj", "app", "pow", "comp") if depth else ("proj",)
    kind = draw(st.sampled_from(kinds))
    if kind == "proj":
        return proj(draw(st.integers(0, arity - 1)), arity)
    if kind == "app":
        return app(draw(st.sampled_from(("f", "g", "h"))),
                   [draw(interned_terms(arity, depth - 1))
                    for _ in range(draw(st.integers(1, 3)))])
    if kind == "pow":
        return power(draw(interned_terms(arity, depth - 1)),
                     draw(st.integers(0, arity - 1)), draw(st.integers(0, 60)))
    outer = draw(interned_terms(None, depth - 1))
    return compose(outer, [draw(interned_terms(arity, depth - 1))
                           for _ in range(outer.arity)])


@settings(deadline=None)
@given(interned_terms())
def test_parse_print_roundtrip_property(t):
    assert parse_term(t.text(), t.arity) is t
    # without an arity, parsing infers one past the largest variable read
    if uses_variable(t, t.arity - 1):
        assert parse_term(t.text()) is t


def test_parse_rejects_garbage():
    with pytest.raises(TermSyntaxError):
        parse_term("f(p0,")
    with pytest.raises(TermSyntaxError):
        parse_term("f(p0) trailing")


@pytest.mark.parametrize("text", [
    "pow(" + "9" * 5000 + ", 0, f(p0, p1))",
    "p" + "1" * 5000,
    "f(p\u00b2, p0)",
], ids=["overlong-count", "overlong-projection", "superscript-digit"])
def test_parse_reports_an_unreadable_number_as_a_syntax_error(text):
    """A digit run that int() cannot convert (past Python's 4300-digit
    limit, or a digit such as the superscript two) is a syntax error."""
    with pytest.raises(TermSyntaxError):
        parse_term(text)


# the synthesized f, g and h of every fixture, as pinned, and a few small terms
TERM_TEXTS = sorted(
    line.split(" = ", 1)[1]
    for path in (Path(__file__).parent / "data" / "synth").glob("*.out")
    for line in path.read_text().splitlines() if line[:4] in ("f = ", "g = ", "h = ")
) + ["p0", "f(p0, p1)", "pow(3, 1, g(p0, p1))", "comp(f(p0, p1), p1, p0)"]
TERM_TOKENS = (st.sampled_from(("(", ")", ",", "pow", "comp", "f", "g", "h", "maj", "9" * 5000))
               | st.integers(0, 3).map(lambda k: f"p{k}")
               | st.integers(2, 10 ** 20).map(str))


@st.composite
def mutated_terms(draw):
    """A term text with one token inserted, deleted or replaced."""
    tokens = re.findall(r"\w+|[(),]", draw(st.sampled_from(TERM_TEXTS)))
    kind = draw(st.sampled_from(("insert", "delete", "replace")))
    at = draw(st.integers(0, len(tokens) - (kind != "insert")))
    if kind == "insert":
        tokens.insert(at, draw(TERM_TOKENS))
    elif kind == "delete":
        del tokens[at]
    else:
        tokens[at] = draw(TERM_TOKENS)
    return " ".join(tokens)


@seed(24)
@settings(max_examples=500, deadline=2000, database=None)
@given(mutated_terms())
def test_mutated_terms_parse_or_raise_a_package_error(text):
    """Every mutated text parses to a term whose text parses back to the
    same object, or raises one of the package's errors.  A parsed text is
    read as written: with no power count below 2 drawn, nothing simplifies,
    so the term prints the same tokens, and every operation is a name."""
    for arity in (None, 2, 3):
        try:
            t = parse_term(text, arity)
        except IdemalgError:
            continue
        assert parse_term(t.text(), t.arity) is t, (text, arity)
        assert re.findall(r"\w+|[(),]", t.text()) == text.split(), (text, arity)
        assert all(re.fullmatch(r"\w+", n.op) for n in t.nodes() if n.kind == "app"), text


def test_power_node_semantics(a_ne):
    # iterating y -> f(a, y) from b: b -> c -> c -> ...
    t = power(app("f", [proj(0, 2), proj(1, 2)]), 1, 2520)
    assert evaluate(t, a_ne, (0, 1)) == scalar_evaluate(t, a_ne, (0, 1)) == 2
    assert realize_table(t, a_ne).table == (0, 2, 2, 1, 1, 2, 2, 2, 2)
    # times=0 collapses to the projection, times=1 to the body
    assert power(app("f", [proj(0, 2), proj(1, 2)]), 1, 0) is proj(1, 2)
    assert power(app("f", [proj(0, 2), proj(1, 2)]), 1, 1) is \
        app("f", [proj(0, 2), proj(1, 2)])


def test_substitute_power_hole_aliasing(sl2):
    # plugging x into both slots of pow(...) must not rewrite structurally:
    # the iterated slot would capture the other occurrence
    body = app("meet", [proj(0, 2), proj(1, 2)])
    t = power(body, 1, 3)
    collapsed = substitute(t, [proj(0, 2), proj(0, 2)])
    for x, y in product(range(2), repeat=2):
        assert evaluate(collapsed, sl2, (x, y)) == evaluate(t, sl2, (x, x))


def test_compose_node(z3a):
    h = app("h", [proj(0, 3), proj(1, 3), proj(2, 3)])
    outer = power(app("h", [proj(0, 2), proj(1, 2), proj(1, 2)]), 0, 2)
    c = compose(outer, [h, proj(1, 3)])
    tab = realize_table(c, z3a)
    for args in product(range(3), repeat=3):
        inner = evaluate(h, z3a, args)
        assert apply_op(tab, args, 3) == evaluate(outer, z3a, (inner, args[1]))
        assert apply_op(tab, args, 3) == scalar_evaluate(c, z3a, args) \
            == scalar_evaluate(outer, z3a, (inner, args[1]))


def test_check_identity_examples(sl2, z3a, a_ne):
    f = app("meet", [proj(0, 2), proj(1, 2)])
    absorb = Identity(app("meet", [proj(0, 2), f]), f)
    assert check_identity(sl2, absorb) is None
    h = app("h", [proj(0, 3), proj(1, 3), proj(2, 3)])
    hyy = substitute(h, [proj(0, 3), proj(1, 3), proj(1, 3)])
    shift = Identity(substitute(h, [hyy, proj(1, 3), proj(1, 3)]), hyy)
    assert check_identity(z3a, shift) is None
    fa = app("f", [proj(0, 2), proj(1, 2)])
    comm = Identity(fa, app("f", [proj(1, 2), proj(0, 2)]))
    assert check_identity(a_ne, comm) == (0, 1)     # f(a,b)=c but f(b,a)=b


def test_unknown_symbol_and_arity_errors(sl2):
    with pytest.raises(UnknownSymbol):
        evaluate(app("nosuch", [proj(0, 1)]), sl2, (0,))
    with pytest.raises(ArityMismatch):
        evaluate(app("meet", [proj(0, 1)]), sl2, (0,))


def test_evaluate_checks_its_elements(a_ne):
    # a negative or large entry would wrap into another entry of the flat
    # table, or of a realized table for composition and power nodes
    t = app("f", [proj(0, 2), proj(1, 2)])
    for term in (t, power(t, 1, 3)):
        for args in ((-1, 0), (0, 5), (3, 0), (0, -1)):
            with pytest.raises(ValidationError):
                evaluate(term, a_ne, args)


def test_evaluate_matches_the_scalar_oracle_on_random_dags(a_ne, a_nms, z3a):
    """Seeded random DAGs with power nodes iterated up to 2**62 times and
    compositions nested in outer and argument positions: `evaluate` at every
    point equals `scalar_evaluate`, which shortcuts power cycles instead of
    squaring; `tree_size` equals the size of the expanded tree."""
    rng = random.Random(1313)
    seen = Counter()

    def random_term(alg, arity, depth):
        if depth == 0 or rng.random() < 0.2:
            return proj(rng.randrange(arity), arity)
        roll = rng.random()
        if roll < 0.4:
            op = rng.choice(alg.operations)
            return app(op.name, [random_term(alg, arity, depth - 1)
                                 for _ in range(op.arity)])
        if roll < 0.7:
            times = rng.choice((rng.randint(2, 50), rng.randint(2 ** 40, 2 ** 62)))
            return power(random_term(alg, arity, depth - 1), rng.randrange(arity), times)
        inner = rng.randint(1, 3)
        return compose(random_term(alg, inner, depth - 1),
                       [random_term(alg, arity, depth - 1) for _ in range(inner)])

    def expanded(t):
        return 1 + sum(expanded(c) for c in t.children or ())

    for alg in (a_ne, a_nms, z3a):
        for _ in range(40):
            arity = rng.randint(1, 3)
            t = random_term(alg, arity, 4)
            for node in t.nodes():
                seen["huge pow"] += node.kind == "pow" and node.times >= 2 ** 40
                seen["nested comp"] += node.kind == "comp" and any(
                    c.kind == "comp" for c in node.children)
            assert t.tree_size == expanded(t)
            for args in product(range(alg.size), repeat=arity):
                assert evaluate(t, alg, args) == scalar_evaluate(t, alg, args), t
            assert realize_table(t, alg) is realize_table(t, alg)
    assert min(seen["huge pow"], seen["nested comp"]) >= 20, seen
    t = proj(0, 2)
    for _ in range(25):
        t = app("f", [t, t])
    assert t.tree_size == 1 << 20


def test_operation_table_name_guard():
    from idemalg.errors import ValidationError
    with pytest.raises(ValidationError):
        validate_algebra("bad", 2, [("pow", 2, [0, 0, 0, 1])])
    with pytest.raises(ValidationError):
        validate_algebra("bad", 2, [("p0", 2, [0, 0, 0, 1])])


def test_random_term_dags_evaluate_consistently(a_ne, a_nms):
    """Random DAGs over the fixture signatures, with power and composition
    nodes mixed in: the realized table, direct evaluation, and the parsed
    round trip must agree pointwise."""
    import random
    rng = random.Random(404)

    def random_term(alg, arity, depth):
        if depth == 0 or rng.random() < 0.3:
            return proj(rng.randrange(arity), arity)
        choice = rng.random()
        if choice < 0.6:
            op = rng.choice(alg.operations)
            return app(op.name, [random_term(alg, arity, depth - 1)
                                 for _ in range(op.arity)])
        if choice < 0.8:
            body = random_term(alg, arity, depth - 1)
            return power(body, rng.randrange(arity), rng.randint(2, 50))
        inner_arity = rng.randint(1, 3)
        outer = random_term(alg, inner_arity, depth - 1)
        return compose(outer, [random_term(alg, arity, depth - 1)
                               for _ in range(inner_arity)])

    for alg in (a_ne, a_nms):
        for _ in range(40):
            arity = rng.randint(1, 3)
            t = random_term(alg, arity, 3)
            tab = realize_table(t, alg)
            reparsed = parse_term(t.text(), arity)
            assert reparsed is t
            for args in product(range(alg.size), repeat=arity):
                assert apply_op(tab, args, alg.size) == evaluate(t, alg, args) \
                    == scalar_evaluate(t, alg, args)


def test_nodes_order_on_a_shared_dag():
    x, y = proj(0, 2), proj(1, 2)
    s = app("g", [y, x])
    left = app("f", [s, x])
    t = app("f", [left, s])
    assert t.nodes() == [y, x, s, left, t]


def test_nodes_without_outers_or_power_bodies():
    x, y = proj(0, 2), proj(1, 2)
    body = app("g", [x, y])
    p = power(body, 0, 3)
    outer = app("h", [x, y])
    t = app("f", [compose(outer, [p, y]), x])
    c = t.children[0]
    assert t.nodes() == [x, y, outer, body, p, c, t]
    assert t.nodes(outers=False) == [x, y, body, p, c, t]
    assert t.nodes(outers=False, bodies=False) == [p, y, c, x, t]


def test_realize_a_chain_deeper_than_the_recursion_limit(a_ne):
    x, y = proj(0, 2), proj(1, 2)
    chain = [x]
    for _ in range(3000):
        chain.append(app("f", [chain[-1], y]))
    assert chain[-1].nodes() == [x, y] + chain[1:]
    expected = []
    for a, b in product(range(3), repeat=2):
        v = a
        for _ in range(3000):
            v = a_ne.apply("f", (v, b))
        expected.append(v)
    assert realize_table(chain[-1], a_ne).table == tuple(expected)


def test_term_traversals_leave_no_reference_cycles(a_ne):
    x, y = proj(0, 2), proj(1, 2)
    t = app("f", [power(app("g", [x, y]), 0, 5), app("g", [y, x])])
    gy = app("g", [y, y])
    was_enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert len(t.nodes()) == 6
        assert evaluate(t, a_ne, (0, 1)) == apply_op(realize_table(t, a_ne), (0, 1), 3)
        substitute(t, [y, x])            # rewritten structurally
        substitute(t, [gy, x])           # blocked at the power node: composed
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def _deep_chain(depth):
    """A left-nested chain of application, power and composition nodes, far
    deeper than the recursion limit, with its text built alongside."""
    x, y = proj(0, 2), proj(1, 2)
    outer = app("g", [x, y])
    t, text = x, "p0"
    for i in range(depth):
        if i % 3 == 0:
            t, text = app("f", [t, y]), f"f({text}, p1)"
        elif i % 3 == 1:
            t, text = power(t, 0, 2), f"pow(2, 0, {text})"
        else:
            t, text = compose(outer, [t, y]), f"comp(g(p0, p1), {text}, p1)"
    return t, text


def test_evaluate_a_deep_chain(a_ne):
    t, _ = _deep_chain(3000)
    table = realize_table(t, a_ne).table
    assert tuple(evaluate(t, a_ne, args) for args in product(range(3), repeat=2)) == table
    assert tuple(scalar_evaluate(t, a_ne, args)
                 for args in product(range(3), repeat=2)) == table


def test_evaluate_compositions_nested_in_arguments(a_ne):
    # every composition is an argument of the next, so all of them are
    # nodes at the root's own variables; one realized table serves them all
    x, y = proj(0, 2), proj(1, 2)
    outer = app("g", [x, y])
    t = x
    for _ in range(3000):
        t = compose(outer, [app("f", [t, y]), y])
    table = realize_table(t, a_ne).table
    for args in product(range(3), repeat=2):
        assert evaluate(t, a_ne, args) == scalar_evaluate(t, a_ne, args) \
            == table[args[0] * 3 + args[1]]


def test_evaluate_keeps_its_node_walk_on_the_evaluated_term_only():
    # kept on the term evaluated, never on its subterms: a chain of n
    # applications keeps n + 2 nodes, not about n**2 / 2
    alg = validate_algebra("left", 2, [("chainop", 2, [0, 0, 1, 1])])
    x, y = proj(0, 2), proj(1, 2)
    chain = [x]
    for _ in range(200):
        chain.append(app("chainop", [chain[-1], y]))
    t = chain[-1]
    for args in product(range(2), repeat=2):
        assert evaluate(t, alg, args) == scalar_evaluate(t, alg, args) == args[0]
    assert len(t._evaluated) == 202
    assert all(c._evaluated is None for c in chain[1:-1])


def test_print_a_deep_chain():
    t, text = _deep_chain(3000)
    assert t.text() == text
    assert repr(t) == f"Term({text})"


def test_parse_a_deep_chain():
    t, text = _deep_chain(3000)
    assert parse_term(text) is t
    assert parse_term(text, 2) is t


def test_substitute_into_a_deep_chain(a_ne):
    t, _ = _deep_chain(3000)
    x, y = proj(0, 2), proj(1, 2)
    swapped = substitute(t, [y, x])
    assert swapped is not t and substitute(swapped, [y, x]) is t
    for a, b in product(range(3), repeat=2):
        assert evaluate(swapped, a_ne, (a, b)) == evaluate(t, a_ne, (b, a)) \
            == scalar_evaluate(swapped, a_ne, (a, b))
