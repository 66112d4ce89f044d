import contextlib
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from kkcrystals import kk, partitions, paths, tensor, verify
from kkcrystals.cli import main
from kkcrystals.verify import CheckResult


def run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_convert_partition_to_path(capsys):
    code, out, _ = run(["convert", '{"parts": [8, 6, 3, 1], "charge": 0}'],
                       capsys)
    assert code == 0
    assert json.loads(out) == {"shape": "L0", "n": 4, "steps": [3, 2, 2, 1]}


def test_convert_path_to_partition(capsys):
    code, out, _ = run(["convert", '{"shape": "L0", "n": 4, "steps": [3, 2, 2, 1]}'],
                       capsys)
    assert code == 0
    assert json.loads(out) == {"parts": [8, 6, 3, 1], "charge": 0}


def test_convert_empty_partition(capsys):
    code, out, _ = run(["convert", '{"parts": [], "charge": 0}'], capsys)
    assert code == 0
    assert json.loads(out) == {"shape": "L0", "n": 0, "steps": []}


def test_convert_comma_separated_parts(capsys):
    code, out, _ = run(["convert", "2", "--charge", "1"], capsys)
    assert code == 0
    assert json.loads(out) == {"shape": "L1", "n": 1, "steps": [1]}


def test_convert_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"parts": [1], "charge": 0}'))
    code, out, _ = run(["convert"], capsys)
    assert code == 0
    assert json.loads(out) == {"shape": "L0", "n": 1, "steps": []}


def test_convert_rejects_undecodable_stdin(capsys, monkeypatch):
    undecodable = io.BytesIO(b'{"parts": [1]}\xff')
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
        undecodable, encoding="utf-8", errors="strict"))
    code, out, err = run(["convert"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_convert_rejects_non_regular(capsys):
    code, _, err = run(["convert", '{"parts": [2, 2], "charge": 0}'], capsys)
    assert code == 2
    assert "regular" in err


def test_convert_rejects_malformed_json(capsys):
    code, _, err = run(["convert", '{"parts": [2, 2'], capsys)
    assert code == 2
    assert "JSON" in err


@pytest.mark.parametrize("key", ["parts", "shape"])
def test_convert_rejects_json_nested_past_the_decoder(key, capsys):
    # deeper than the recursion limit lets json.loads follow
    data = '{"%s": %s%s}' % (key, "[" * 3000, "]" * 3000)
    code, out, err = run(["convert", data], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: malformed JSON") and "Traceback" not in err


@pytest.mark.parametrize("data", [
    '{"parts": [3.7, 1], "charge": 0}',
    '{"parts": [3, 1], "charge": true}',
    '{"parts": ["3", 1], "charge": 0}',
    '{"shape": "L0", "n": 4, "steps": [2.5]}',
    '{"shape": "L0", "n": true, "steps": []}',
    '{"parts": [2], "charge": 0, "shape": "L0", "n": 1, "steps": []}',
    "1_0", "+3", "\uff13", ",", "3,,1", "3,1,", "1%s" % ("0" * 5000),
    '{"parts": [2], "charge": 0, "bogus": 1}',
    '{"shape": "L0", "n": 1, "steps": [], "extra": [1]}',
    '{"parts": [2]}', ["--charge", "1", '{"parts": [2], "charge": 0}'],
], ids=["float-part", "bool-charge", "string-part", "float-step", "bool-n",
        "parts-and-shape", "underscore-part", "plus-part", "fullwidth-part",
        "lone-comma", "empty-middle-part", "empty-last-part",
        "bare-part-past-digit-limit", "unknown-partition-key",
        "unknown-path-key", "missing-key", "charge-flag-with-json"])
def test_convert_rejects_non_integers(data, capsys):
    argv = ["convert"] + (data if isinstance(data, list) else [data])
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("data", [
    "100001",
    "3000000",
    '{"shape": "L0", "n": 100001, "steps": []}',
    '{"shape": "L1", "n": 99999, "steps": [1, 1]}',
    '{"parts": [1%s], "charge": 0}' % ("0" * 5000),
], ids=["part-over", "part-far-over", "path-n-over", "path-n-plus-steps-over",
        "json-int-past-digit-limit"])
def test_convert_rejects_oversized_input(data, capsys):
    code, out, err = run(["convert", data], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "limit" in err


@pytest.mark.parametrize("data, message", [
    ("", "empty input"), ("   ", "empty input"),
    ('{"shape": "L2", "n": 0, "steps": []}', "bad LS path"),
], ids=["empty", "blank", "unknown-shape"])
def test_convert_names_what_it_refuses(data, message, capsys):
    code, out, err = run(["convert", data], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: " + message)


def test_convert_accepts_input_at_the_size_limit(capsys):
    code, out, _ = run(["convert", "100000"], capsys)
    assert code == 0
    path = json.loads(out)
    assert path["n"] + len(path["steps"]) == 100000


def test_convert_round_trip(capsys):
    source = '{"parts": [5, 4, 2], "charge": 1}'
    _, out, _ = run(["convert", source], capsys)
    _, back, _ = run(["convert", out.strip()], capsys)
    assert json.loads(back) == json.loads(source)


def test_decompose_tsv(capsys):
    code, out, _ = run(["decompose", "--lambda", "0", "--p", "3",
                        "--cutoff", "4"], capsys)
    assert code == 0
    assert out == ("n\ta_n\tb_n\n"
                   "0\t1\t1\n"
                   "1\t0\t1\n"
                   "2\t1\t0\n"
                   "3\t0\t0\n"
                   "4\t0\t0\n")
    # factors past 2 * cutoff + 1 are skipped, so a huge p is cheap
    stable = run(["decompose", "--lambda", "0", "--p", "7", "--cutoff", "3"],
                 capsys)
    assert run(["decompose", "--lambda", "0", "--p", "30000001",
                "--cutoff", "3"], capsys) == stable


def test_decompose_trivial_case(capsys):
    code, out, _ = run(["decompose", "--lambda", "0", "--p", "0",
                        "--cutoff", "0"], capsys)
    assert code == 0
    assert out == "n\ta_n\tb_n\n0\t1\t0\n"


def test_decompose_json_with_oracle(capsys):
    code, out, _ = run(["decompose", "--lambda", "1", "--p", "4",
                        "--cutoff", "5", "--format", "json", "--oracle"],
                       capsys)
    assert code == 0
    data = json.loads(out)
    assert data["a"] == [1, 1, 1, 1, 0, 0]
    assert data["oracle_agreement"] is True
    assert "b" not in data


def test_decompose_rejects_bad_parity(capsys):
    code, _, err = run(["decompose", "--lambda", "1", "--p", "1",
                        "--cutoff", "2"], capsys)
    assert code == 2
    assert "even" in err


def test_decompose_oracle_has_a_lower_cutoff_limit(capsys):
    code, out, err = run(["decompose", "--lambda", "0", "--p", "1",
                          "--cutoff", "26", "--oracle"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "limit 25" in err
    code, out, _ = run(["decompose", "--lambda", "0", "--p", "1",
                        "--cutoff", "25", "--oracle"], capsys)
    assert code == 0 and out.endswith("# oracle agreement: yes\n")


def test_decompose_rejects_cutoff_above_the_limit(capsys):
    code, out, err = run(["decompose", "--lambda", "0", "--p", "1",
                          "--cutoff", "1001"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "limit" in err
    code, out, _ = run(["decompose", "--lambda", "0", "--p", "1",
                        "--cutoff", "1000"], capsys)
    assert code == 0 and len(out.splitlines()) == 1002


def test_graph_stdout(capsys):
    code, out, _ = run(["graph", "--lambda", "0", "--p", "0",
                        "--max-boxes", "0"], capsys)
    assert code == 0
    assert "digraph" in out
    assert out.rstrip().endswith("vertices 1 edges 0")


def test_graph_to_file(tmp_path, capsys):
    argv = ["graph", "--lambda", "0", "--p", "3", "--max-boxes", "4"]
    target = tmp_path / "ok.dot"
    code, out, _ = run(argv + ["--out", str(target)], capsys)
    assert code == 0
    assert out == "vertices 21 edges 17\n"
    text = target.read_text(encoding="utf-8")
    assert text.startswith("digraph") and text.count("->") == 17
    # the file holds exactly what --out - prints before the count line
    assert run(argv + ["--out", "-"], capsys) == (0, text + out, "")


# every pinned output, one (argv, exit code, stdout sha256) row each: the
# graphs of both families and of the p = 0 branch of the rectangle
# inequality, the enumerations, the decomposition oracles, and two verify
# reports, the second asking the tensor suite for 8 boxes after the
# signatures suite built 6; tools/refdigests.py runs the same table under
# other interpreters
REFERENCE = json.loads(
    (Path(__file__).parent / "reference_digests.json").read_text())


@pytest.mark.parametrize("argv, code, digest", REFERENCE,
                         ids=[" ".join(row[0]) for row in REFERENCE])
def test_pinned_output(argv, code, digest, capsys):
    exit_code, out, _ = run(argv, capsys)
    assert (exit_code, hashlib.sha256(out.encode()).hexdigest()) == \
        (code, digest)


def test_graph_unwritable_path(tmp_path, capsys):
    # a file in a missing directory, and a directory itself
    for target in (tmp_path / "missing" / "x.dot", tmp_path):
        code, out, err = run(["graph", "--lambda", "0", "--p", "0",
                              "--max-boxes", "0", "--out", str(target)],
                             capsys)
        assert (code, out) == (3, "")
        assert err.startswith("error: cannot write") and "Traceback" not in err


def test_enumerate(capsys):
    code, out, _ = run(["enumerate", "--charge", "0", "--max-boxes", "3"],
                       capsys)
    assert code == 0
    assert out.splitlines() == ["(∅ | c=0)", "(1 | c=0)", "(2 | c=0)",
                                "(3 | c=0)", "(2,1 | c=0)"]


def test_enumerate_json(capsys):
    code, out, _ = run(["enumerate", "--charge", "1", "--max-boxes", "1",
                        "--format", "json"], capsys)
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows == [{"parts": [], "charge": 1}, {"parts": [1], "charge": 1}]


def test_verify_passes_at_small_scale(capsys):
    code, out, _ = run(["verify", "bruhat", "--len-max", "5",
                        "--index-max", "6"], capsys)
    assert code == 0
    assert all(line.startswith("ok") for line in out.splitlines())


def test_verify_json_report(capsys):
    code, out, _ = run(["verify", "signatures", "--max-boxes", "6", "--json"],
                       capsys)
    assert code == 0
    report = json.loads(out)
    assert all(entry["ok"] for entry in report)
    assert all(entry["cases"] > 0 for entry in report)


@pytest.mark.parametrize("suite, flag", [
    ("signatures", "--max-boxes"),
    ("tensor", "--side-boxes"),
    ("kk", "--cutoff"),
    ("bruhat", "--len-max"),
    ("bruhat", "--index-max"),
    ("kk", "--p-max"),
])
def test_verify_rejects_negative_sizes(suite, flag, capsys):
    code, out, err = run(["verify", suite, flag, "-1"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("flag, value", [
    ("--p", "1_1"), ("--p", "+3"), ("--max-boxes", "\uff13"),
    ("--max-boxes", " 3"), ("--lambda", "+0"),
], ids=["underscore", "plus", "fullwidth", "space", "plus-label"])
def test_integer_flags_take_ascii_digits_only(flag, value, capsys):
    argv = {"--lambda": "0", "--p": "3", "--max-boxes": "2", flag: value}
    code, out, err = run(["graph"] + [x for kv in argv.items() for x in kv],
                         capsys)
    assert code == 2 and out == ""
    assert "invalid int value" in err


def assert_exits_0_or_2(argv):
    """Exit 0, or 2 with nothing on stdout, and no traceback.  Captures
    without capsys, which hypothesis does not reset between examples;
    stdin is empty, so convert '-' reads nothing."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(sys, "stdin", io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2) and "Traceback" not in err.getvalue()
    assert code == 0 or out.getvalue() == ""


JSON_VALUES = st.recursive(
    st.integers(-2, 7) | st.booleans() | st.floats() | st.none()
    | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=7)
JSON_FIELDS = {"parts": JSON_VALUES, "charge": JSON_VALUES, "n": JSON_VALUES,
               "steps": JSON_VALUES,
               "shape": st.sampled_from(("L0", "L1", "L2")) | JSON_VALUES}


def json_objects(keys):
    """Objects with the given keys, and sometimes an unknown one."""
    return st.fixed_dictionaries({key: JSON_FIELDS[key] for key in keys},
                                 optional={"bogus": JSON_VALUES})


CONVERT_DATA = (
    st.text(max_size=12)
    | st.lists(st.integers(-2, 7), max_size=7).map(
        lambda parts: ",".join(map(str, parts)))
    | (json_objects(("parts", "charge")) | json_objects(("shape", "n", "steps"))
       | st.dictionaries(st.sampled_from(sorted(JSON_FIELDS)), JSON_VALUES,
                         max_size=5)).map(json.dumps))
# ints from -2 to 7 and ints that _int refuses.  Every size stays at 7 or
# below: enumerate, graph and verify put no upper limit on --max-boxes and
# the other sizes, unlike convert and decompose, and their cost grows
# exponentially in them; a fuzz run that passed a 20-digit --max-boxes
# allocated memory until the OOM killer stopped it (exit 137).
FLAG_VALUES = (st.integers(-2, 7).map(str)
               | st.sampled_from(("1_0", "+1", "1.5", "\u0663", "")))
# command -> (flags that take an int, flags that take none)
FUZZED_FLAGS = {
    "decompose": (("--lambda", "--p", "--cutoff"), ("--oracle",
                                                    "--format=json")),
    "graph": (("--lambda", "--p", "--max-boxes"), ("--format=json",)),
    "verify": (("--max-boxes", "--len-max", "--index-max", "--p-max",
                "--cutoff", "--side-boxes"), ("--json",)),
    "enumerate": (("--charge", "--max-boxes"), ("--format=json",)),
}


@st.composite
def fuzzed_argvs(draw):
    command = draw(st.sampled_from(sorted(FUZZED_FLAGS)))
    ints, switches = FUZZED_FLAGS[command]
    argv = [command]
    if command == "verify":
        argv.append(draw(st.sampled_from((*verify.SUITES, "all"))))
    for flag in draw(st.lists(st.sampled_from(ints), max_size=4)):
        argv += [flag, draw(FLAG_VALUES)]
    return argv + draw(st.lists(st.sampled_from(switches), unique=True))


@given(CONVERT_DATA, st.none() | FLAG_VALUES)
def test_convert_fuzz_exits_0_or_2(data, charge):
    assert_exits_0_or_2(
        ["convert", data] + ([] if charge is None else ["--charge", charge]))


@given(fuzzed_argvs())
def test_size_flag_fuzz_exits_0_or_2(argv):
    assert_exits_0_or_2(argv)


@pytest.mark.parametrize("argv, limit", [
    (["graph", "--lambda", "0", "--p", "5", "--max-boxes", "20"], 1),
], ids=["graph"])
def test_pair_loops_list_the_factors_once(argv, limit, capsys,
                                          patch_everywhere):
    # one enumerate_regular call per factor list, not one per left factor;
    # verify all is pinned by test_a_verify_run_shares_one_enumeration
    original = partitions.enumerate_regular
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    patch_everywhere(partitions, "enumerate_regular", counted)
    code, _, _ = run(argv, capsys)
    assert code == 0
    assert 0 < len(calls) <= limit


def test_a_verify_run_shares_one_enumeration(capsys, monkeypatch,
                                             patch_everywhere):
    # every check reads one list per charge, so equal partitions are one
    # object and carry one set of records: 3 lists, (0, 12), (1, 12) and
    # (0, 13), for the 46 enumerate_regular calls at the defaults
    original, build = partitions.enumerate_regular, partitions._distinct_parts
    listed, built = [], []

    def recorded(*args):
        listed.append(original(*args))
        return listed[-1]

    def counted(allowed, max_size):
        built.append(max_size)
        return build(allowed, max_size)

    patch_everywhere(partitions, "enumerate_regular", recorded)
    monkeypatch.setattr(partitions, "_distinct_parts", counted)
    code, _, _ = run(["verify", "all"], capsys)
    assert code == 0
    assert built == [12, 12, 13] and len(listed) == 46
    seen = {}
    assert all(seen.setdefault(cp, cp) is cp for cps in listed for cp in cps)


def test_nothing_outlives_a_verify_run(monkeypatch):
    verify.run_suites(["signatures"], max_boxes=4)
    assert partitions._runs == []

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(verify, "string_length", interrupted)
    with pytest.raises(KeyboardInterrupt):
        verify.run_suites(["signatures"], max_boxes=4)
    assert partitions._runs == []
    first, again = (partitions.enumerate_regular(0, 4) for _ in range(2))
    assert first == again and not any(a is b for a, b in zip(first, again))


# one-line edits of the partition, path and tensor kernels and of the
# membership rule: (module, function, text, replacement, the verify suite
# that must catch it)
MUTATIONS = {
    "rightmost '+' row shifted": (
        partitions, "_reduced", "plus_row = k + 1", "plus_row = k + 2",
        "signatures"),
    "leftmost '-' row shifted": (
        partitions, "_reduced", "minus_row = k\n", "minus_row = k + 1\n",
        "signatures"),
    "top addable '+' dropped": (
        partitions, "_reduced", "range(len(parts) - 1, -2, -1)",
        "range(len(parts) - 1, -1, -1)", "signatures"),
    "f_i adds a box at the leftmost '-' row": (
        partitions, "_kernel", "_add_box(cp, plus_row)",
        "_add_box(cp, minus_row)", "signatures"),
    "e_i gated on phi instead of epsilon": (
        partitions, "_kernel", "if minus else None", "if plus else None",
        "signatures"),
    "reduction cancels the wrong pair": (
        partitions, "reduce_signature", 'stack[-1][0] == "-"',
        'stack[-1][0] == "+"', "signatures"),
    "crossing time one unit late": (
        paths, "_lower", "(Q + 1 - floor", "(Q + 2 - floor", "tensor"),
    "leftmost minimum lowered": (
        paths, "_lower", "p = len(H) - 1 - H[::-1].index((Q, 0))",
        "p = H.index((Q, 0))", "iso"),
    "window starts one piece late": (
        paths, "_lower", "len(H) - 1 - H", "len(H) - H", "iso"),
    "whole-piece reflection keeps the old piece": (
        paths, "_lower", "[y] + dirs[p + 1:]", "[y] + dirs[p:]", "iso"),
    "halves of a cut piece swapped": (
        paths, "_lower", "[y, x]", "[x, y]", "tensor"),
    "endpoint label parity flipped": (
        paths, "LSPath", "j = (self.n + self.shape) % 2",
        "j = (self.n + self.shape + 1) % 2", "iso"),
    "window reflected by the wrong letter": (
        paths, "_lower", "2 - 2 * i - x", "2 * i - x", "iso"),
    "window reflected by the wrong letter, on concatenations": (
        paths, "_lower", "2 - 2 * i - x", "2 * i - x", "tensor"),
    "positive slope decoded one index high": (
        paths, "_rebuild", "x - 1 if x > 0", "x if x > 0", "iso"),
    "positive slope decoded one index high, on concatenations": (
        paths, "_rebuild", "x - 1 if x > 0", "x if x > 0", "tensor"),
    "raising directions not reversed back": (
        paths, "_mirror", "dirs[::-1]", "dirs", "iso"),
    "neighbour merging disabled": (
        paths, "_rebuild", "dirs[j + 1] == x", "False", "iso"),
    "pieces merged across a cut": (
        paths, "_rebuild", "a < q and dirs[j + 1] == x",
        "j < len(dirs) - 1 and dirs[j + 1] == x", "tensor"),
    "f_i acts on the left factor when phi equals epsilon": (
        tensor, "tensor_f", "moves[0] > right_moves[1]",
        "moves[0] >= right_moves[1]", "tensor"),
    "kill only below the least value": (
        paths, "_run_op", "[0] <= Q", "[0] < Q", "iso"),
    "path epsilon one too high": (
        paths, "path_epsilon", "return -_minimum", "return 1 - _minimum",
        "iso"),
    "odd-size highest weight keeps alpha_0": (
        kk, "weight_of_dominant", "top - simple_root(0) if rem else top",
        "top", "tensor"),
    "rectangle bound one part short": (
        kk, "_largest_right_part", "n + spec.p + 1", "n + spec.p", "kk"),
    "K(0, 0) bound one part long": (
        kk, "_largest_right_part", "n if spec", "n + 1 if spec", "kk"),
    "graph arrows from the box bound": (
        tensor, "crystal_graph", "if v.total_boxes >= max_boxes:",
        "if v.total_boxes > max_boxes:", "kk"),
    "graph arrows for label 0 only": (
        tensor, "crystal_graph", "for i in (0, 1):", "for i in (0,):", "kk"),
    "graph arrows labelled with the other label": (
        tensor, "crystal_graph", "edges.append((k, i, target))",
        "edges.append((k, 1 - i, target))", "kk"),
    "graph arrows listed twice": (
        tensor, "crystal_graph", "edges.append((k, i, target))",
        "edges.extend([(k, i, target)] * 2)", "kk"),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_verify_reports_a_broken_path_layer(mutation, capsys,
                                            patch_everywhere):
    module, name, old, new, suite = MUTATIONS[mutation]
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1
    namespace = dict(vars(module))
    exec(source.replace(old, new), namespace)
    # every module that imported the function by name gets the edit too
    patch_everywhere(module, name, namespace[name])
    code, out, _ = run(["verify", suite], capsys)
    assert code == 1
    assert any(line.startswith("FAIL ") for line in out.splitlines())


def test_a_closed_stdout_exits_3_without_a_traceback():
    # more output than a pipe holds, and a reader that stops after a line
    env = dict(os.environ, PYTHONIOENCODING="utf-8",
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    with subprocess.Popen(
            [sys.executable, "-m", "kkcrystals.cli", "enumerate", "--charge",
             "1", "--max-boxes", "40"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as child:
        first = child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read().decode()
        code = child.wait(timeout=60)
    assert first == "(∅ | c=1)\n".encode()
    assert code == 3
    assert err == "error: stdout was closed by its reader\n"


# an f_0 that always applies at row 0, so its string never ends
ENDLESS_STRING = textwrap.dedent("""
    import sys

    from kkcrystals import partitions
    from kkcrystals.cli import main

    partitions._reduced = lambda cp, i: (1, 0, 0, -1)
    sys.exit(main(["verify", "signatures", "--max-boxes", "4"]))
""")


def test_verify_ends_on_an_endless_operator_string():
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", ENDLESS_STRING],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 1, done.stderr
    assert any(line.startswith("FAIL ") for line in done.stdout.splitlines())
    assert "Traceback" not in done.stderr


def test_a_check_that_raises_keeps_its_name_and_cases():
    @verify.check("demo")
    def demo(fail_at):
        yield None
        yield "second case fails"
        raise fail_at("boom")
    # the interrupted third case counts, as a failure of its own
    assert demo(ValueError) == CheckResult(
        "demo", 3, ["second case fails", "ValueError: boom"])
    with pytest.raises(KeyboardInterrupt):
        demo(KeyboardInterrupt)


def test_verify_reports_a_raising_case_source(capsys, monkeypatch):
    def broken(charge, max_boxes):
        raise RuntimeError("no partitions today")

    monkeypatch.setattr(verify, "enumerate_regular", broken)
    code, out, err = run(["verify", "signatures"], capsys)
    assert code == 1 and "Traceback" not in err
    lines = out.splitlines()
    assert len(lines) == 4
    assert all(line.startswith("FAIL ")
               and line.endswith(": RuntimeError: no partitions today")
               for line in lines)


def test_deterministic_output(capsys):
    first = run(["decompose", "--lambda", "0", "--p", "5", "--cutoff", "6"],
                capsys)
    second = run(["decompose", "--lambda", "0", "--p", "5", "--cutoff", "6"],
                 capsys)
    assert first == second
    g1 = run(["graph", "--lambda", "1", "--p", "2", "--max-boxes", "3"], capsys)
    g2 = run(["graph", "--lambda", "1", "--p", "2", "--max-boxes", "3"], capsys)
    assert g1 == g2
    # the second run builds its own enumeration, none is kept between them
    assert run(["verify", "all"], capsys) == run(["verify", "all"], capsys)


def test_missing_subcommand_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
