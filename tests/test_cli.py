"""File format round trips and the command-line surface."""

import gc
import json
import time
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from idemalg import algfile, cli, edges, fixtures, generate
from idemalg.algebra import validate_algebra
from idemalg.cli import EXIT_CAP, EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, main
from idemalg.errors import ValidationError

PINNED = Path(__file__).parent / "data"

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


@pytest.mark.parametrize("name, labels", [
    ("", None), ("a b", None), ("a#b", None), ("a\nb", None), ("a\u2028b", None),
    ("a", ("x y", "z")), ("a", ("x", "")), ("a", ("#", "z")), ("a", ("x\t", "z")),
], ids=["empty", "space", "hash", "newline", "line-separator",
        "label-space", "label-empty", "label-hash", "label-tab"])
def test_render_rejects_names_and_labels_that_do_not_read_back(tmp_path, name, labels):
    alg = validate_algebra(name, 2, [("f", 2, (0, 0, 0, 1))], labels)
    with pytest.raises(ValidationError, match="cannot be written to an algebra file"):
        algfile.render(alg)
    with pytest.raises(ValidationError):
        algfile.save(alg, str(tmp_path / "a.alg"))
    assert not (tmp_path / "a.alg").exists()


def test_names_and_labels_with_quotes_and_backslashes_round_trip(tmp_path):
    alg = validate_algebra('q"', 2, [("f", 2, (0, 0, 0, 1))], ('x"', "y\\"))
    algfile.save(alg, str(tmp_path / "a.alg"))
    assert algfile.load(str(tmp_path / "a.alg")) == alg


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


def test_each_cli_command_starts_with_a_cold_search_cache(capsys, monkeypatch):
    """The pair-search cache lives for one command: a second identical
    command builds every closure the first one built."""
    built = []

    class Counted(generate.TupleClosure):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(generate, "TupleClosure", Counted)
    argv = ["verify", "--fixture", "no-edge-factor", "--seed", "0"]
    counts = []
    for _ in range(2):
        assert main(argv) == EXIT_OK
        counts.append(len(built))
        built.clear()
    assert counts[0] == counts[1] > 0
    assert capsys.readouterr().out.count("[FAIL]") == 0


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


def test_cli_too_large_names_the_library_remedy(tmp_path, capsys):
    assert main(["edges", "--file", _meet_chain(tmp_path, 11)]) == EXIT_INPUT
    assert capsys.readouterr() == ("", "error: universe size 11 exceeds analysis bound 10 "
                                   "(pass --force, or request_scope(Limits(max_size=None)))\n")


MALFORMED = {
    "negative-arity": "operation 'f': arity -2 not in range 1..32",
    "huge-arity": "operation 'f': arity 99999999999999999999 not in range 1..32",
    "huge-entry": "operation 'f': entry 99999999999999999999 not in range 0..1",
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_file_exits_2_with_one_error_line(name, run_cli):
    """Arity and entries are checked before any arithmetic or numpy sees
    them: a negative arity made the table length a float, a huge one a
    power that never finished, a huge entry overflowed numpy's int."""
    assert run_cli("edges", "--file", str(PINNED / "bad" / f"{name}.alg")) \
        == (EXIT_INPUT, "", f"error: {MALFORMED[name]}\n")


def test_malformed_tables_raise_validation_error_under_O(run_optimized):
    code = (
        "from idemalg.algebra import validate_algebra\n"
        "from idemalg.errors import ValidationError\n"
        "for arity, table in ((-2, (0, 1)), (10**20, (0, 1)), (2, (0, 10**20, 1, 1))):\n"
        "    try:\n"
        "        validate_algebra('x', 2, [('f', arity, table)])\n"
        "    except ValidationError as exc:\n"
        "        print(exc)\n")
    assert run_optimized(code, timeout=5) == (
        "operation 'f': arity -2 not in range 1..32\n"
        "operation 'f': arity 100000000000000000000 not in range 1..32\n"
        "operation 'f': entry 100000000000000000000 not in range 0..1\n")


def test_cli_cap_exit_code():
    # a cap of 1 stalls every witness search; every pair becomes unknown
    assert main(["edges", "--fixture", "no-edge", "--cap", "1"]) == EXIT_CAP


def test_cli_rejects_caps_and_arities_below_one(capsys):
    # rejected while parsing: exit 2 before anything reaches stdout
    for argv in (["edges", "--fixture", "sl2", "--cap", "0"],
                 ["edges", "--fixture", "sl2", "--cap", "-5"],
                 ["reduct", "--fixture", "sl2", "--arity", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INPUT, argv
        out, err = capsys.readouterr()
        assert out == "" and f"invalid positive_int value: '{argv[-1]}'" in err


def test_cli_graph_writes_dot(tmp_path):
    dot = tmp_path / "g.dot"
    hyper = tmp_path / "h.dot"
    assert main(["graph", "--fixture", "z3-affine", "--dot", str(dot),
                 "--hyper-dot", str(hyper)]) == EXIT_OK
    assert "style=dotted" in dot.read_text()
    assert "shape=box" in hyper.read_text()


def test_cli_graph_builds_the_hypergraph_only_to_write_it(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "hypergraph", lambda alg: calls.append(alg) or edges.hypergraph(alg))
    dot, hyper = tmp_path / "g.dot", tmp_path / "h.dot"
    assert main(["graph", "--fixture", "no-edge", "--dot", str(dot)]) == EXIT_OK
    assert calls == [] and capsys.readouterr().out == ""
    assert main(["graph", "--fixture", "no-edge", "--dot", str(dot),
                 "--hyper-dot", str(hyper)]) == EXIT_OK
    assert len(calls) == 1 and "shape=box" in hyper.read_text()
    assert main(["graph", "--fixture", "no-edge"]) == EXIT_OK
    assert len(calls) == 2 and "shape=box" in capsys.readouterr().out


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


def test_cli_internal_key_error_is_not_an_input_error(monkeypatch, capsys):
    def broken(*args):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "structure_graph", broken)
    assert main(["edges", "--fixture", "no-edge"]) == EXIT_INTERNAL
    assert capsys.readouterr().err.startswith("error: internal error: KeyError: 'internal' (")


def test_cli_internal_error_exits_4_with_one_line(monkeypatch, capsys):
    # a bug is neither bad input (2) nor a failed verification (1): one
    # line names the exception and the innermost frame, with no traceback
    def broken(*args):
        raise RuntimeError("boom\nsecond line")

    line = broken.__code__.co_firstlineno + 1
    monkeypatch.setattr(cli, "congruence_lattice", broken)
    assert main(["analyze", "--fixture", "no-edge"]) == EXIT_INTERNAL
    assert capsys.readouterr().err == f"error: internal error: RuntimeError: boom second line (test_cli.py:{line})\n"


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


@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
@pytest.mark.parametrize("command", [["verify", "--seed", "0"], ["edges"], ["synth"],
                                     ["analyze"], ["graph"]], ids=lambda command: command[0])
def test_cli_report_stdout_pinned(command, name, capsys):
    """`idemalg COMMAND --fixture NAME` prints exactly the report pinned in
    tests/data/COMMAND/NAME.out."""
    assert main([command[0], "--fixture", name, *command[1:]]) == EXIT_OK
    assert capsys.readouterr().out == (PINNED / command[0] / f"{name}.out").read_text()


@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_cli_reduct_stdout_pinned(name, capsys):
    """`reduct` at arity 3 (2 on no-edge-factor) prints exactly
    tests/data/reduct/NAME.out; z3-affine has no edge to reduce at."""
    arity = "2" if name == "no-edge-factor" else "3"
    code = main(["reduct", "--fixture", name, "--arity", arity])
    out, err = capsys.readouterr()
    if name == "z3-affine":
        assert (code, out) == (EXIT_INPUT, "")
        assert err == (PINNED / "reduct" / f"{name}.err").read_text()
    else:
        assert (code, err) == (EXIT_OK, "")
        assert out == (PINNED / "reduct" / f"{name}.out").read_text()


@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_cli_edges_json_pinned(name, tmp_path):
    path = tmp_path / "edges.json"
    assert main(["edges", "--fixture", name, "--json", str(path)]) == EXIT_OK
    assert path.read_text() == (PINNED / "edges" / f"{name}.json").read_text()


@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
@pytest.mark.parametrize("cap", ["5", "30"])
@pytest.mark.parametrize("command", ["edges", "verify", "analyze", "synth", "reduct"])
def test_cli_output_at_cap_pinned(command, cap, name, capsys):
    """At --cap 5 and --cap 30 the exit code, stdout and stderr of `idemalg
    COMMAND --fixture NAME` are exactly tests/data/capN/COMMAND/NAME.txt:
    these pin where the cap bites (unknown pairs, failing verify rows, a
    reduct or synthesis that exits 3)."""
    extra = {"verify": ["--seed", "0"],
             "reduct": ["--arity", "2" if name == "no-edge-factor" else "3"]}.get(command, [])
    code = main([command, "--fixture", name, "--cap", cap, *extra])
    out, err = capsys.readouterr()
    assert f"exit {code}\n--- stdout\n{out}--- stderr\n{err}" == \
        (PINNED / f"cap{cap}" / command / f"{name}.txt").read_text()


@pytest.mark.parametrize("command", ["analyze", "edges", "graph", "reduct"])
def test_cli_single_algebra_commands_reject_several_inputs(command, capsys):
    assert main([command, "--fixture", "sl2", "--fixture", "mj2"]) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"error: {command} analyses one algebra, got 2 inputs\n")


@pytest.mark.parametrize("argv", [
    ["edges", "--fixture", "no-edge", "--json", "dir"],
    ["graph", "--fixture", "no-edge", "--dot", "dir"],
    ["thin", "--fixture", "no-majority-symmetry", "--dot", "dir"],
], ids=lambda argv: argv[0])
def test_cli_unwritable_output_fails_before_the_analysis(argv, tmp_path, monkeypatch, capsys):
    """An output path that cannot be opened exits 2 with one error line
    before any analysis runs (no pair is classified), so nothing reaches
    stdout."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    monkeypatch.setattr(edges, "classify_pair", lambda *args: pytest.fail("the analysis ran"))
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr() == ("", "error: [Errno 21] Is a directory: 'dir'\n")


def test_cli_failed_command_leaves_its_output_files_as_they_were(tmp_path, capsys):
    """The early check of the output paths creates no file a failing
    command would leave behind, and changes no file that exists."""
    new, old = tmp_path / "new.json", tmp_path / "old.dot"
    old.write_text("kept\n")
    assert main(["synth", "--fixture", "no-edge", "--cap", "5", "--json", str(new)]) == EXIT_CAP
    assert main(["thin", "--fixture", "no-edge", "--cap", "5", "--dot", str(old)]) == EXIT_CAP
    assert not new.exists() and old.read_text() == "kept\n"


@pytest.mark.parametrize("argv, message", [
    (["edges", "--file", "dir"], "[Errno 21] Is a directory: 'dir'"),
    (["edges", "--file", "latin.alg"], "latin.alg is not UTF-8 text: 'utf-8' codec can't "
                                       "decode byte 0xe9 in position 35: invalid continuation byte"),
    (["edges", "--fixture", "sl2", "--json", "dir"], "[Errno 21] Is a directory: 'dir'"),
    (["graph", "--fixture", "sl2", "--dot", "dir"], "[Errno 21] Is a directory: 'dir'"),
], ids=["file-dir", "file-not-utf8", "json-dir", "dot-dir"])
def test_cli_bad_path_is_an_input_error(argv, message, tmp_path, monkeypatch, capsys):
    """A path that cannot be read or written, or a file that is not UTF-8,
    exits 2 with one error line, not a traceback."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    (tmp_path / "latin.alg").write_bytes(SAMPLE.replace("demo", "d\xe9mo").encode("latin-1"))
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"


FIXTURE_TEXTS = {name: algfile.render(fixtures.fixture(name)) for name in fixtures.FIXTURES}
# what a mutation puts in: keywords, names, the numbers around every
# fixture's sizes (1-6), arities (1-3) and entries, one past MAX_ARITY, and
# the huge number pinned under tests/data/bad
FUZZ_TOKENS = (st.sampled_from(("algebra", "size", "labels", "op", "end", "f", "p0", "pow", "#",
                                "2.5", "33", "99999999999999999999"))
               | st.integers(-2, 7).map(str))


@st.composite
def mutated_fixture_files(draw):
    """A rendered fixture file with one to three lines mutated: a token
    replaced, deleted, duplicated, or inserted.  Half the mutations fall on
    a line that is not a table row: few lines, where most parsing happens."""
    lines = FIXTURE_TEXTS[draw(st.sampled_from(sorted(FIXTURE_TEXTS)))].splitlines()
    heads = [i for i, line in enumerate(lines) if not line[0].isdigit()]
    for _ in range(draw(st.integers(1, 3))):
        line = draw(st.sampled_from(heads) | st.integers(0, len(lines) - 1))
        tokens = lines[line].split()
        kind = draw(st.sampled_from(("replace", "delete", "duplicate", "insert")))
        at = draw(st.integers(0, max(0, len(tokens) - (kind != "insert"))))
        if kind == "insert" or not tokens:
            tokens.insert(at, draw(FUZZ_TOKENS))
        elif kind == "replace":
            tokens[at] = draw(FUZZ_TOKENS)
        elif kind == "delete":
            del tokens[at]
        else:
            tokens.insert(at, tokens[at])
        lines[line] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@seed(18)
@settings(max_examples=1000, deadline=5000, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_fixture_files())
def test_mutated_fixture_files_exit_cleanly(tmp_path, capsys, text):
    """Every mutated file is a valid algebra (exit 0, or 3 at the cap) or
    malformed input (exit 2), with at most one line on stderr: never a
    traceback, an internal error (exit 4) or a failed verification (exit 1).
    The small cap bounds the valid algebras that are merely slow."""
    path = tmp_path / "mutated.alg"
    path.write_text(text)
    try:
        code = main(["edges", "--file", str(path), "--max-size", "6", "--cap", "500"])
    except SystemExit as exc:   # argparse; not expected from a file's content
        code = exc.code
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_CAP), (code, err, text)
    assert err.count("\n") <= 1, (err, text)
