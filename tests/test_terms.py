"""Term DAGs: evaluation, realization, identities, serialization."""

import gc
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from idemalg import terms
from idemalg.algebra import restrict, validate_algebra
from idemalg.congruence import quotient_by, cg
from idemalg.errors import ArityMismatch, TermSyntaxError, UnknownSymbol
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
            assert tab.apply(args, alg.size) == evaluate(t, alg, args)


def test_realize_maltsev_composition_oracle(z3a):
    # h(x1, h(x1,x2,x3), x3) against direct exhaustive evaluation
    inner = app("h", [proj(0, 3), proj(1, 3), proj(2, 3)])
    t = app("h", [proj(0, 3), inner, proj(2, 3)])
    tab = realize_table(t, z3a)
    for x, y, z in product(range(3), repeat=3):
        expect = (x - ((x - y + z) % 3) + z) % 3
        assert tab.apply((x, y, z), 3) == expect


def test_realize_swap_is_commutative_meet(sl2):
    t = app("meet", [proj(1, 2), proj(0, 2)])
    tab = realize_table(t, sl2)
    assert tab.table == (0, 0, 0, 1)


def test_realize_on_quotient_majority_collapses(a_nms):
    # maj(x, x, y) is the first projection on the two-block quotient
    from idemalg.congruence import cg, quotient_by
    quot, _ = quotient_by(a_nms, cg(a_nms, [(0, 2)]))
    t = app("maj", [proj(0, 2), proj(0, 2), proj(1, 2)])
    assert realize_table(t, quot).is_projection(2) == 0


def test_terms_transfer_to_subalgebras_and_quotients(a_ne, a_nms):
    t = app("f", [app("g", [proj(0, 2), proj(1, 2)]), proj(0, 2)])
    sub, emb = restrict(a_ne, [0, 2])
    for args in product(range(sub.size), repeat=2):
        parent = tuple(emb[x] for x in args)
        assert emb[evaluate(t, sub, args)] == evaluate(t, a_ne, parent)
    theta = cg(a_nms, [(0, 2)])
    quot, bmap = quotient_by(a_nms, theta)
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


def test_power_node_semantics(a_ne):
    # iterating y -> f(a, y) from b: b -> c -> c -> ...
    t = power(app("f", [proj(0, 2), proj(1, 2)]), 1, 2520)
    assert evaluate(t, a_ne, (0, 1)) == 2
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
        assert tab.apply(args, 3) == evaluate(outer, z3a, (inner, args[1]))


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
                assert tab.apply(args, alg.size) == evaluate(t, alg, args)


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
        assert evaluate(t, a_ne, (0, 1)) == realize_table(t, a_ne).apply((0, 1), 3)
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
        assert evaluate(swapped, a_ne, (a, b)) == evaluate(t, a_ne, (b, a))
