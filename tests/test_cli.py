import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from kkcrystals import partitions, paths, verify
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
], ids=["float-part", "bool-charge", "string-part", "float-step", "bool-n"])
def test_convert_rejects_non_integers(data, capsys):
    code, out, err = run(["convert", data], capsys)
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
    target = tmp_path / "crystal.dot"
    code, out, _ = run(["graph", "--lambda", "0", "--p", "3",
                        "--max-boxes", "4", "--out", str(target)], capsys)
    assert code == 0
    assert out.strip() == "vertices 21 edges 17"
    text = target.read_text(encoding="utf-8")
    assert text.startswith("digraph") and text.count("->") == 17


# stdout sha256 pins beside the benchmark's lambda 0, p 5 graph: the
# second family, and the p = 0 branch of the rectangle inequality
GRAPH_PINS = [
    ("1 2 4", 20, 18,
     "e0114e213123c964c221e51fd281c01d946b17b7458dcbc3f847d23bda3eae2d"),
    ("1 4 14", 942, 1120,
     "bb4836ceddd7958d0ae4f524a0c92840bc9632e91453e05681aa178befe00d29"),
    ("0 0 12", 193, 224,
     "61b0a9a8a69ea1edbb447d866f34af1badbd38f19bbe009993dbecfaed19849b"),
]


def test_graph_second_family_counts(capsys):
    for spec, vertices, edges, digest in GRAPH_PINS:
        lam, p, max_boxes = spec.split()
        code, out, _ = run(["graph", "--lambda", lam, "--p", p,
                            "--max-boxes", max_boxes], capsys)
        assert code == 0
        assert out.splitlines()[-1] == "vertices %d edges %d" % (vertices, edges)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, spec


def test_graph_unwritable_path(tmp_path, capsys):
    code, _, err = run(["graph", "--lambda", "0", "--p", "0",
                        "--max-boxes", "0",
                        "--out", str(tmp_path / "missing" / "x.dot")], capsys)
    assert code == 3
    assert "cannot write" in err


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


def test_verify_all_at_defaults(capsys):
    code, out, _ = run(["verify", "all", "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert len(report) == 19 and all(entry["ok"] for entry in report)
    assert sum(entry["cases"] for entry in report) == 23006


@pytest.mark.parametrize("argv, limit", [
    (["verify", "all"], 60),
    (["graph", "--lambda", "0", "--p", "5", "--max-boxes", "20"], 2),
], ids=["verify-all", "graph"])
def test_pair_loops_list_the_factors_once(argv, limit, capsys, monkeypatch):
    # one enumerate_regular call per factor list, not one per left factor
    original = partitions.enumerate_regular
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "kkcrystals"
                and getattr(module, "enumerate_regular", None) is original):
            monkeypatch.setattr(module, "enumerate_regular", counted)
    code, _, _ = run(argv, capsys)
    assert code == 0
    assert 0 < len(calls) <= limit


# one-line edits of the partition and path kernels: (module, function, text,
# replacement, the verify suite that must catch it)
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
    "reduction cancels the wrong pair": (
        partitions, "reduce_signature", 'stack[-1][0] == "-"',
        'stack[-1][0] == "+"', "signatures"),
    "crossing time one unit late": (
        paths, "_crossing", "return t0 + dt", "return t0 + dt + 1", "tensor"),
    "leftmost minimum lowered": (
        paths, "_lower", "p = len(H) - 1 - H[::-1].index(Q)",
        "p = H.index(Q)", "iso"),
    "merge test negated": (
        paths, "_lower", "merge = p >= 1 and reflected[0] == idx[p - 1]",
        "merge = not (p >= 1 and reflected[0] == idx[p - 1])", "iso"),
    "raising result not reversed back": (
        paths, "e_path", "idx[::-1], [D - t", "idx, [D - t", "iso"),
    "path epsilon one too high": (
        paths, "path_epsilon", "// D", "// D + 1", "iso"),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_verify_reports_a_broken_path_layer(mutation, capsys, monkeypatch):
    module, name, old, new, suite = MUTATIONS[mutation]
    original = getattr(module, name)
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(old) == 1
    namespace = dict(vars(module))
    exec(source.replace(old, new), namespace)
    # every module that imported the function by name gets the edit too
    for user_name, user in list(sys.modules.items()):
        if (user_name.split(".")[0] == "kkcrystals"
                and getattr(user, name, None) is original):
            monkeypatch.setattr(user, name, namespace[name])
    code, out, _ = run(["verify", suite], capsys)
    assert code == 1
    assert any(line.startswith("FAIL ") for line in out.splitlines())


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


def test_missing_subcommand_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
