"""File format round trips and the command-line surface."""

import gc
import json
import time
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from idemalg import algfile, cli, fixtures
from idemalg.algebra import validate_algebra
from idemalg.cli import EXIT_CAP, EXIT_INPUT, EXIT_OK, main
from idemalg.errors import ValidationError

SAMPLE = """\
# a three-element example
algebra demo
size 3
labels a b c
op f 2
0 2 2
1 1 2
2 2 2
op g 2
0 0 2
2 1 2
2 2 2
end
"""


def test_parse_render_roundtrip():
    af = algfile.parse(SAMPLE)
    assert af.name == "demo"
    assert af.labels == ("a", "b", "c")
    rendered = algfile.render(af)
    assert algfile.parse(rendered) == af
    assert algfile.render(algfile.parse(rendered)) == rendered


def test_fixture_files_roundtrip(tmp_path):
    for name in fixtures.FIXTURES:
        alg = fixtures.fixture(name)
        path = tmp_path / f"{name}.alg"
        algfile.save(alg, str(path))
        loaded = algfile.load(str(path))
        assert loaded.operations == alg.operations
        assert loaded.labels == alg.labels


@st.composite
def idempotent_algebras(draw):
    """Random idempotent algebras: 1-5 elements, one to three operations of
    arity 1-3, with or without labels."""
    size = draw(st.integers(1, 5))
    arities = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    names = draw(st.permutations(("f", "g", "meet", "m3")))
    ops = [(name, arity, [args[0] if len(set(args)) == 1 else draw(st.integers(0, size - 1))
                          for args in product(range(size), repeat=arity)])
           for name, arity in zip(names, arities)]
    labels = draw(st.none() | st.permutations([f"e{x}" for x in range(size)]).map(tuple))
    return validate_algebra(draw(st.sampled_from(("a", "demo", "x_1"))), size, ops, labels)


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(idempotent_algebras())
def test_save_load_roundtrip_property(tmp_path, alg):
    path = str(tmp_path / "a.alg")
    algfile.save(alg, path)
    assert algfile.load(path) == alg


def test_parse_errors():
    with pytest.raises(ValidationError):
        algfile.parse("algebra x\nsize 2\nend\n")          # no operations
    with pytest.raises(ValidationError):
        algfile.parse("algebra x\nsize 2\nop f 2\n0 0 0\nend\n")  # short table
    with pytest.raises(ValidationError):
        algfile.parse(SAMPLE + "extra")


def test_cli_edges_ok(capsys):
    assert main(["edges", "--fixture", "no-edge"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ab: not an edge" in out
    assert "semilattice" in out


def test_cli_main_leaves_no_cyclic_garbage(capsys):
    # the parser is built once per process; a later call must leave nothing
    # for the cyclic GC (argparse's formatters and actions form cycles)
    argv = ["edges", "--fixture", "no-edge"]
    assert main(argv) == EXIT_OK
    was_enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == EXIT_OK
        gc.collect()
        leaked = sorted({type(o).__name__ for o in gc.garbage})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert leaked == []
    assert "semilattice" in capsys.readouterr().out


def test_cli_requires_input():
    assert main(["edges"]) == EXIT_INPUT


def test_cli_file_input(tmp_path, capsys):
    path = tmp_path / "demo.alg"
    path.write_text(SAMPLE)
    assert main(["edges", "--file", str(path)]) == EXIT_OK


def _meet_chain(tmp_path, n):
    path = tmp_path / f"chain{n}.alg"
    table = [min(x, y) for x in range(n) for y in range(n)]
    algfile.save(validate_algebra(f"chain{n}", n, [("meet", 2, table)]), str(path))
    return str(path)


def test_cli_max_size_guard(tmp_path):
    assert main(["edges", "--fixture", "no-edge-factor", "--max-size", "4"]) \
        == EXIT_INPUT
    assert main(["edges", "--fixture", "no-edge-factor", "--max-size", "4",
                 "--force"]) == EXIT_OK
    # the limits reach every analysis step, not only loading
    for n in (11, 12):
        path = _meet_chain(tmp_path, n)
        for command in ("edges", "graph"):
            t0 = time.perf_counter()
            assert main([command, "--file", path, "--force", "--max-size", "20"]) \
                == EXIT_OK
            assert time.perf_counter() - t0 < 1.0, (command, n)
            assert main([command, "--file", path, "--max-size", "20"]) == EXIT_OK
            assert main([command, "--file", path]) == EXIT_INPUT


def test_cli_cap_exit_code():
    # a cap of 1 stalls every witness search; every pair becomes unknown
    assert main(["edges", "--fixture", "no-edge", "--cap", "1"]) == EXIT_CAP


def test_cli_graph_writes_dot(tmp_path):
    dot = tmp_path / "g.dot"
    hyper = tmp_path / "h.dot"
    assert main(["graph", "--fixture", "z3-affine", "--dot", str(dot),
                 "--hyper-dot", str(hyper)]) == EXIT_OK
    assert "style=dotted" in dot.read_text()
    assert "shape=box" in hyper.read_text()


def test_cli_thin_writes_dot(tmp_path):
    dot = tmp_path / "thin.dot"
    assert main(["thin", "--fixture", "no-edge", "--dot", str(dot)]) == EXIT_OK
    text = dot.read_text()
    assert '"a" -> "c"' in text


def test_cli_synth_json(tmp_path):
    out = tmp_path / "ops.json"
    rc = main(["synth", "--fixture", "sl2", "--fixture", "mj2",
               "--fixture", "z3-affine", "--json", str(out)])
    assert rc == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["report_version"] == 1
    assert payload["tables"]["sl2"]["f"] == [0, 0, 0, 1]
    assert payload["tables"]["z3-affine"]["h"] == \
        [(x - y + z) % 3 for x in range(3) for y in range(3) for z in range(3)]
    assert all(c["ok"] for c in payload["checks"])


def test_cli_reduct(capsys, tmp_path):
    out = tmp_path / "red.json"
    rc = main(["reduct", "--fixture", "no-edge", "--pair", "0", "2",
               "--arity", "2", "--json", str(out)])
    assert rc == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["preserved_set"] == [0, 2]
    assert payload["changed_pairs"] == []


def test_cli_reduct_bad_pair(capsys):
    for pair in (["0", "0"], ["0", "3"], ["-1", "1"]):
        assert main(["reduct", "--fixture", "no-edge", "--pair", *pair]) \
            == EXIT_INPUT
        assert "--pair needs two distinct elements in 0..2" \
            in capsys.readouterr().err


def test_cli_internal_key_error_is_not_an_input_error(monkeypatch):
    def broken(*args):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "structure_graph", broken)
    with pytest.raises(KeyError):
        main(["edges", "--fixture", "no-edge"])


def test_cli_verify(capsys):
    rc = main(["verify", "--fixture", "no-edge", "--seed", "7"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "[pass]" in out and "[FAIL]" not in out


def test_cli_analyze(capsys):
    rc = main(["analyze", "--fixture", "no-majority-symmetry"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "maximal: {0,2|1,3}" in out
    assert "majority" in out


def test_cli_analyze_cap_bounds_the_absorbing_search(capsys):
    # the arity-2 clone of sl2 has three members, more than a cap of 2
    assert main(["analyze", "--fixture", "sl2", "--cap", "2"]) == EXIT_OK
    assert "absorbing up to arity 1: ['0', '1']" in capsys.readouterr().out
    assert main(["analyze", "--fixture", "sl2"]) == EXIT_OK
    assert "absorbing up to arity 3: ['0']" in capsys.readouterr().out


def test_cli_verify_failure_exit_code(tmp_path, capsys):
    # a non-smooth algebra fails the synthesis suite: exit code 1
    nonsmooth = """\
algebra nonsmooth
size 3
op o0 2
0 0 2
0 1 0
0 0 2
op o1 2
0 1 2
1 1 2
2 2 2
end
"""
    path = tmp_path / "ns.alg"
    path.write_text(nonsmooth)
    assert main(["verify", "--file", str(path), "--seed", "0"]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_cli_verify_all_fixtures_under_budget(capsys):
    import time
    t0 = time.perf_counter()
    args = ["verify", "--seed", "0"]
    for name in sorted(fixtures.FIXTURES):
        args += ["--fixture", name]
    assert main(args) == EXIT_OK
    assert time.perf_counter() - t0 < 60
    out = capsys.readouterr().out
    assert "[FAIL]" not in out
