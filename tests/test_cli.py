import contextlib
import io
import json
import shlex
import subprocess
from collections import Counter
import sys
from pathlib import Path

import pytest

import plantedmaps
from plantedmaps import bijections, census, cli, oracle, partition, roundtrips
from plantedmaps.cli import _COMMANDS, _plain_args, build_parser, main
from plantedmaps.core import InvariantError, from_np_pairs


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_uni_table(capsys):
    code, out, _ = run(capsys, "count", "--kind", "uni", "--edges", "4")
    assert code == 0
    lines = out.splitlines()
    assert "0 4 14" in lines and "1 4 70" in lines and "2 4 21" in lines


def test_count_tri(capsys):
    code, out, _ = run(capsys, "count", "--kind", "tri", "--edges", "2")
    assert code == 0
    assert "0 2 6" in out.splitlines()


def test_count_trivial(capsys):
    code, out, _ = run(capsys, "count", "--kind", "uni", "--edges", "0")
    assert code == 0
    assert "0 0 1" in out.splitlines()


def test_count_json_format(capsys):
    code, out, _ = run(capsys, "count", "--kind", "uni", "--edges", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "unicellular"
    assert {"g": 1, "n": 2, "count": "1"} in doc["table"]


def test_count_bound_exit_2(capsys):
    code, _, err = run(capsys, "count", "--kind", "uni", "--edges", "12")
    assert code == 2
    assert "error" in err


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "--genus", "2", "--edges", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["g"] == 0 and doc["n"] == 2
    assert doc["classes"]["B"] == "15"
    assert doc["classes"]["II"] == "6"


def test_classify_rejects_low_indices(capsys):
    code, _, _ = run(capsys, "classify", "--genus", "1", "--edges", "4")
    assert code == 2


def test_verify_theorem(capsys):
    code, out, _ = run(capsys, "verify", "--relation", "theorem", "--max-n", "2")
    assert code == 0
    reports = json.loads(out)
    assert any(r["equation"] == "21 = 6 + 0 + 0 - 0 + 15" for r in reports)
    assert all(r["ok"] for r in reports)


def test_verify_hz(capsys):
    code, out, _ = run(capsys, "verify", "--relation", "hz", "--max-n", "5")
    assert code == 0
    assert all(r["ok"] for r in json.loads(out))


def test_verify_bicellular(capsys):
    code, out, _ = run(capsys, "verify", "--relation", "bicellular", "--max-n", "3")
    assert code == 0


def test_roundtrip_psi(capsys):
    code, out, _ = run(capsys, "roundtrip", "--bijection", "psi", "--g", "0", "--n", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["domain_size"] == 15 and rep["image_size"] == 15 and rep["ok"]


def test_empty_roundtrip_says_it_checked_nothing(capsys):
    # No one-face map of genus 2 with 5 edges has a pendant first branch and
    # a wrap pair, so eta5 at (0, 3) has nothing on either side.
    code, out, err = run(capsys, "roundtrip", "--bijection", "eta5", "--g", "0", "--n", "3")
    rep = json.loads(out)
    assert code == 0 and rep["domain_size"] == rep["image_size"] == 0 and rep["ok"]
    assert err == (
        "note: eta5 at (g, n) = (0, 3) has an empty domain and codomain; "
        "the round trip checked nothing\n"
    )
    code, out, err = run(capsys, "roundtrip", "--bijection", "cut", "--g", "0", "--n", "3")
    assert code == 0 and json.loads(out)["domain_size"] == 182 and err == ""


def test_show(capsys):
    doc = '{"k":1,"interiors":[8],"alpha":[[0,9],[1,5],[2,6],[3,7],[4,8]]}'
    code, out, _ = run(capsys, "show", "--map", doc)
    assert code == 0
    shown = json.loads(out)
    assert shown["genus"] == 2
    assert shown["class"] == "B"
    assert shown["kind"] == "unicellular"


def test_show_invalid_map_exit_2(capsys):
    # Malformed JSON, then well-formed documents whose alpha has a fixed
    # point, an id paired twice, an unpaired id, a plant not paired with its root.
    for alpha in (None, [[0, 5], [1, 1], [2, 4]], [[0, 5], [1, 3], [3, 2]], [[0, 5], [1, 3]],
                  [[0, 2], [1, 5], [3, 4]]):
        text = "{broken" if alpha is None else json.dumps({"k": 1, "interiors": [4], "alpha": alpha})
        code, out, err = run(capsys, "show", "--map", text)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_export_csv(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    code, _, _ = run(
        capsys, "export", "--kind", "uni", "--max-edges", "3", "--output", str(out_path)
    )
    assert code == 0
    text = out_path.read_text()
    assert text.splitlines()[0] == "kind,g,n,count"
    assert "unicellular,1,3,10" in text


def test_export_json(tmp_path, capsys):
    out_path = tmp_path / "table.json"
    code, _, _ = run(
        capsys,
        "export", "--kind", "bi", "--max-edges", "2", "--format", "json",
        "--output", str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert {"g": 0, "n": 2, "count": "8"} in doc["table"]


def test_byte_identical_reruns(capsys):
    _, out1, _ = run(capsys, "count", "--kind", "uni", "--edges", "4", "--format", "csv")
    _, out2, _ = run(capsys, "count", "--kind", "uni", "--edges", "4", "--format", "csv")
    assert out1 == out2
    _, out1, _ = run(capsys, "classify", "--genus", "2", "--edges", "5")
    _, out2, _ = run(capsys, "classify", "--genus", "2", "--edges", "5")
    assert out1 == out2


def test_calls_in_one_process_share_one_parser(capsys):
    # Each help or usage call builds its own parser; a usage error, a bound
    # error, help and other commands in between leave no state behind.
    count = ["count", "--kind", "uni", "--edges", "5"]
    argvs = [
        count,
        ["count", "--kind", "quad", "--edges", "2"],
        ["count", "--kind", "uni", "--edges", "12"],
        ["--help"],
        ["roundtrip", "--bijection", "eta1", "--g", "0", "--n", "2"],
        ["--help"],
        count,
    ]
    codes, outs = [], []
    for argv in argvs:
        try:
            codes.append(main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
        outs.append(capsys.readouterr().out)
    assert codes == [0, 2, 2, 0, 0, 0, 0]
    assert outs[0] == outs[6] and "0 5 42" in outs[0].splitlines()
    assert outs[3] == outs[5] and outs[3].startswith("usage: plantedmaps")


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # Each of these costs every short command milliseconds before any work.
    # No site (-S): a .pth file may import typing on its own.
    src = str(Path(plantedmaps.__file__).resolve().parents[1])
    script = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import plantedmaps.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))\n"
    )
    res = subprocess.run(
        [sys.executable, "-I", "-S", "-c", script], capture_output=True, text=True, timeout=60
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def _parsed(argv):
    """``build_parser().parse_args(argv)``, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return build_parser().parse_args(argv)
        except SystemExit:
            return None


def _assert_plain_path_agrees(argv):
    """The plain path reads ``argv`` as argparse does, or leaves it to it:
    the same attributes with the same values, whatever the namespace type."""
    plain = _plain_args(argv)
    if plain is not None:
        parsed = _parsed(argv)
        assert parsed is not None and vars(plain) == vars(parsed), argv
    return plain


@pytest.mark.parametrize(
    "line, plain",
    [
        ("count --kind uni --edges 4", True),
        ("count --edges 3 --kind uni --format csv", True),
        ("count --kind uni --edges ' 3'", True),
        ("count --kind uni --edges +5", True),
        ("count --kind uni --edges 5_0", True),
        ("count --kind uni --edges \u0663", True),
        ("export --kind tri --max-edges 8 --output ''", True),
        ("roundtrip --bijection cut --g 0 --n 3 --output out.json", True),
        ("show --map ''", True),
        ("count --kind uni --edges -1", False),
        ("roundtrip --bijection cut --g 0 --n 3 --output -x", False),
        ("count --kind quad --edges 2", False),
        ("count --kind uni --format xml --edges 2", False),
        ("count --kind uni", False),
        ("verify --max-n 4", False),
        ("count --kind uni --kind bi --edges 3", False),
        ("count --kind uni --edges 3 --edges 4", False),
        ("count --kind uni --edges 3.0", False),
        ("count --kind uni --edges x", False),
        ("count --kind uni --edges ''", False),
        ("count --kind uni --ed 4", False),
        ("count --kind=uni --edges=4", False),
        ("count --kind uni --edges 4 --max-n 2", False),
        ("count --kind uni --edges 4 -h", False),
        ("count --kind uni --edges 4 --", False),
        ("count --kind uni --edges 4 4", False),
        ("count -- --kind uni --edges 4", False),
        ("cou --kind uni --edges 4", False),
        ("count", False),
        ("--help", False),
        ("", False),
    ],
)
def test_plain_path_agrees_with_argparse(line, plain):
    # A line off the plain path is argparse's to read: help, usage errors and
    # the other spellings argparse accepts.
    assert (_assert_plain_path_agrees(shlex.split(line)) is not None) is plain


def test_plain_path_agrees_with_argparse_on_drawn_lines():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    flags = sorted({flag for _, _, options in _COMMANDS.values() for flag in options})
    odd_flags = ["--ed", "--kind=uni", "-h", "--help", "--", "--max", "-x"]
    odd_values = ["-1", "-x", "", " 3", "+5", "5_0", "\u0663", "3.0", "quad", "nope", "-"]

    @st.composite
    def lines(draw):
        # A well-formed line, then up to three edits that may take it off
        # the plain path.
        command = draw(st.sampled_from(list(_COMMANDS)))
        options = _COMMANDS[command][2]

        def good(flag):
            spec = options.get(flag, {})
            if "choices" in spec:
                return st.sampled_from([str(c) for c in spec["choices"]])
            return st.sampled_from(["0", "3", "12"] if "type" in spec else ["x.json", "0"])

        pairs = [
            [flag, draw(good(flag))]
            for flag in draw(st.permutations(list(options)))
            if options[flag].get("required") or draw(st.booleans())
        ]
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, len(pairs)))
            edit = draw(st.sampled_from(["flag", "value", "drop", "repeat", "lone"]))
            if edit == "flag":
                pairs.insert(i, [draw(st.sampled_from(flags + odd_flags)), draw(good(None))])
            elif edit == "value" and i < len(pairs):
                pairs[i][-1] = draw(st.sampled_from(odd_values))
            elif edit == "drop" and i < len(pairs):
                del pairs[i]
            elif edit == "repeat" and i < len(pairs):
                pairs.append([pairs[i][0], draw(good(pairs[i][0]))])
            elif edit == "lone":
                pairs.insert(i, [draw(st.sampled_from(flags + odd_flags + odd_values))])
        return [command] + [token for pair in pairs for token in pair]

    accepted = []

    @hypothesis.settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @hypothesis.given(lines())
    def check(argv):
        if _assert_plain_path_agrees(argv) is not None:
            accepted.append(argv)

    check()
    assert len(accepted) >= 100


def test_well_formed_commands_build_no_parser(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    for argv in (
        ["count", "--kind", "uni", "--edges", "7"],
        ["count", "--kind", "bi", "--edges", "5"],
        ["count", "--kind", "tri", "--edges", "4"],
        ["verify", "--relation", "theorem", "--max-n", "4"],
        ["roundtrip", "--bijection", "eta1", "--g", "0", "--n", "3"],
    ):
        assert main(argv) == 0
    capsys.readouterr()
    assert built == []
    # Any other spelling goes through the parser, built for that call.
    assert main(["count", "--kind=uni", "--edges", "3"]) == 0
    assert built == [1] and capsys.readouterr().out.splitlines()[-1] == "1 3 10"


def test_plain_lines_load_no_argparse_json_re_or_locale():
    # A plain line needs no parser and writes no JSON.  argparse pulls in
    # gettext and re, and its first message lookup imports locale; json pulls
    # in re, which pulls in enum.  No site (-S), since a .pth file may import
    # any of them on its own.  The lines run in one process: a module that one
    # of them loaded would still be there at the end.
    src = str(Path(plantedmaps.__file__).resolve().parents[1])
    lines = [
        "count --kind uni --edges 4",
        "count --kind uni --edges 4 --format csv",
        "export --kind bi --max-edges 3 --format csv",
    ]
    script = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "from plantedmaps.cli import main\n"
        f"codes = [main(line.split()) for line in {lines!r}]\n"
        "unused = {'argparse', 'json', 're', 'enum', 'gettext', 'locale'}\n"
        "print(codes, sorted(unused & set(sys.modules)))\n"
    )
    res = subprocess.run(
        [sys.executable, "-I", "-S", "-c", script], capture_output=True, text=True, timeout=60
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[0, 0, 0] []"


def test_unwritable_output_exit_2(tmp_path, capsys):
    path = tmp_path / "missing" / "x.txt"
    code, out, err = run(
        capsys, "count", "--kind", "uni", "--edges", "2", "--output", str(path)
    )
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize(
    "bijection, attr",
    [
        ("cut", "glue"),
        ("contract", "insert_edge"),
        ("psi", "insert_pair"),
        ("eta1", "eta_inv"),
        ("theta", "theta_inv"),
        ("split5", "join5"),
    ],
)
def test_wrong_inverse_is_a_failed_check(capsys, monkeypatch, bijection, attr):
    wrong = from_np_pairs((8,), [(1, 5), (2, 6), (3, 7), (4, 8)])
    monkeypatch.setattr(bijections, attr, lambda *a: wrong)
    code, out, _ = run(capsys, "roundtrip", "--bijection", bijection, "--g", "0", "--n", "3")
    assert code == 1
    assert json.loads(out)["ok"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--relation", "hz", "--max-n", "-1"),
        ("verify", "--relation", "bicellular", "--max-n", "-1"),
        ("verify", "--relation", "theorem", "--max-n", "-1"),
        ("export", "--kind", "uni", "--max-edges", "-1"),
        ("roundtrip", "--bijection", "eta1", "--g", "-1", "--n", "2"),
        ("roundtrip", "--bijection", "cut", "--g", "0", "--n", "-1"),
    ],
    ids=["hz", "bicellular", "theorem", "export", "roundtrip-g", "roundtrip-n"],
)
def test_vacuous_run_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: ")


def test_theorem_bound_is_checked_before_any_work(capsys, monkeypatch):
    def histogram(*_):
        pytest.fail("the theorem check classified maps before checking its bound")

    monkeypatch.setattr(partition, "histogram", histogram)
    code, out, err = run(capsys, "verify", "--relation", "theorem", "--max-n", "9")
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--kind", "bi", "--edges", "10"),
        ("count", "--kind", "tri", "--edges", "9"),
        ("verify", "--relation", "hz", "--max-n", "12"),
        ("verify", "--relation", "bicellular", "--max-n", "10"),
        ("classify", "--genus", "2", "--edges", "12"),
        ("verify", "--relation", "theorem", "--max-n", "9"),
        ("roundtrip", "--bijection", "cut", "--g", "0", "--n", "7"),
    ],
    ids=["count-bi", "count-tri", "hz", "bicellular", "classify", "theorem", "roundtrip"],
)
def test_bounds_are_checked_before_any_work(capsys, monkeypatch, argv):
    # Only roundtrip enumerates; it keeps its bound below the count bounds.
    def work(*_):
        pytest.fail(f"{argv[0]} started counting before checking its bound")

    monkeypatch.setattr(census, "_pairings", work)
    monkeypatch.setattr(census, "_cycle_census", work)
    monkeypatch.setattr(census, "_connected_census", work)
    monkeypatch.setattr(partition, "_census_class_counts", work)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, passes",
    [
        (("verify", "--relation", "theorem", "--max-n", "4"), [("leaf", 6), (1, 4), (2, 4), (3, 4)]),
        (("verify", "--relation", "hz", "--max-n", "11"), [(1, 11)]),
        (("verify", "--relation", "bicellular", "--max-n", "9"), [(1, 9), (2, 9)]),
        (("export", "--kind", "tri", "--max-edges", "8"), [(1, 8), (2, 8), (3, 8)]),
    ],
    ids=["theorem", "hz", "bicellular", "export"],
)
def test_range_commands_run_one_pass_per_face_count(capsys, monkeypatch, cold_passes, argv, passes):
    # Each pass runs once, to the largest size the command reads.
    ran = Counter()
    cycle_pass, leaf_pass = census._cycle_pass, partition._leaf_pass

    def counted_cycle_pass(k, n):
        ran[k, n] += 1
        return cycle_pass(k, n)

    def counted_leaf_pass(n):
        ran["leaf", n] += 1
        return leaf_pass(n)

    monkeypatch.setattr(census, "_cycle_pass", counted_cycle_pass)
    monkeypatch.setattr(partition, "_leaf_pass", counted_leaf_pass)
    code, _, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert ran == Counter(passes)


@pytest.mark.parametrize(
    "bijection, n, n_max",
    [("cut", 7, 5), ("eta1", 7, 6), ("theta", 7, 5), ("cut", 6, 5), ("split5", 7, 6)],
)
def test_roundtrip_bound_is_stated_in_identity_indices(capsys, monkeypatch, bijection, n, n_max):
    # Rejected before any domain is built, and in the --n the user gave, not
    # in the edge count of the classified maps two above it; cut and theta
    # also read three-face maps with n edges.
    monkeypatch.setattr(roundtrips, "_checks", lambda *_: pytest.fail("domains built"))
    code, out, err = run(capsys, "roundtrip", "--bijection", bijection, "--g", "0", "--n", str(n))
    assert (code, out, err) == (2, "", f"error: roundtrip bounded at n <= {n_max}, got {n}\n")


def test_broken_surgery_invariant_is_a_failed_check(capsys, monkeypatch):
    monkeypatch.setattr(bijections, "insert_edge", lambda u, x, y: u)
    code, out, _ = run(capsys, "roundtrip", "--bijection", "eta1", "--g", "0", "--n", "3")
    assert code == 1
    assert json.loads(out)["ok"] is False


def _entry(bijection="eta1"):
    """Domain and codomain of the one entry of a bijection at (0, 3), as lists."""
    ((domain, _, _, codomain),) = roundtrips._checks(bijection, 0, 3).values()
    return list(domain), list(codomain)


def _failures(capsys, bijection="eta1"):
    """The failures of a round trip at (0, 3) that must fail."""
    code, out, _ = run(capsys, "roundtrip", "--bijection", bijection, "--g", "0", "--n", "3")
    report = json.loads(out)
    assert code == 1 and report["ok"] is False
    return report["failures"]


def _codomain_plus(monkeypatch, extra):
    """Have every entry's codomain stream yield ``extra(codomain)`` after its
    own elements."""
    real = roundtrips._checks

    def checks(*args):
        entries = {}
        for what, (domain, forward, inverse, codomain) in real(*args).items():
            codomain = list(codomain)
            entries[what] = (domain, forward, inverse, codomain + extra(codomain))
        return entries

    monkeypatch.setattr(roundtrips, "_checks", checks)


def test_inverse_wrong_on_one_element_is_a_failed_check(capsys, monkeypatch):
    # y0 goes to the preimage of y1: a domain element, but not the one it came from.
    _, (y0, y1, *_) = _entry()
    real = bijections.eta_inv
    monkeypatch.setattr(bijections, "eta_inv", lambda i, u: real(i, y1 if u == y0 else u))
    x0 = real(1, y0)
    assert _failures(capsys) == [f"eta1: inverse(forward(x)) != x for {x0.encode()}"]


def test_inverse_raising_on_one_element_is_a_failed_check(capsys, monkeypatch):
    _, (y0, *_) = _entry()
    real = bijections.eta_inv

    def eta_inv(i, u):
        if u == y0:
            raise bijections.WrongClass("refused")
        return real(i, u)

    monkeypatch.setattr(bijections, "eta_inv", eta_inv)
    x0 = real(1, y0)
    assert _failures(capsys) == [f"eta1: WrongClass on {x0.encode()}: refused"]


def test_forward_raising_on_one_element_is_a_failed_check(capsys, monkeypatch):
    (x0, *_), codomain = _entry()
    real = bijections.eta

    def eta(i, u):
        if u == x0:
            raise bijections.WrongClass("refused")
        return real(i, u)

    monkeypatch.setattr(bijections, "eta", eta)
    c = len(codomain)
    assert _failures(capsys) == [
        f"eta1: WrongClass on {x0.encode()}: refused",
        f"eta1: image misses 1 of the {c} codomain elements and adds 0 (image has {c - 1})",
    ]


def test_forward_missing_one_codomain_element_is_a_failed_check(capsys, monkeypatch):
    # A valid one-face map with one edge too many lies outside eta1's image.
    outside = roundtrips.uni_maps(2, 5)[0]
    c = len(_entry()[1])
    _codomain_plus(monkeypatch, lambda _: [outside])
    assert _failures(capsys) == [
        f"eta1: image misses 1 of the {c + 1} codomain elements and adds 0 (image has {c})"
    ]


@pytest.mark.parametrize("bijection", ["eta1", "contract"])
def test_codomain_repeating_one_element_is_a_failed_check(capsys, monkeypatch, bijection):
    # The image equals the codomain's set, but the codomain lists one element twice.
    c = len(_entry(bijection)[1])
    _codomain_plus(monkeypatch, lambda codomain: codomain[:1])
    assert _failures(capsys, bijection) == [
        f"{bijection}: image misses 1 of the {c + 1} codomain elements and adds 0 (image has {c})"
    ]


def test_invariant_error_exits_1_with_one_error_line(capsys, monkeypatch):
    def histogram(*_):
        raise InvariantError("two closed branches are impossible")

    monkeypatch.setattr(partition, "histogram", histogram)
    code, out, err = run(capsys, "classify", "--genus", "2", "--edges", "4")
    assert (code, out, err) == (1, "", "error: two closed branches are impossible\n")


def test_a_negative_recurrence_count_is_a_failed_check(capsys, monkeypatch):
    # No input reaches a negative two-face count: it is the oracle's fault,
    # exit 1 with one error line, not invalid input.
    monkeypatch.setattr(oracle.HZTable, "_conv", lambda self, f, h, g, n: 10**6)
    oracle.table.cache_clear()
    oracle.HZTable.bicellular.cache_clear()
    try:
        code, out, err = run(capsys, "verify", "--relation", "bicellular", "--max-n", "2")
    finally:
        oracle.table.cache_clear()
        oracle.HZTable.bicellular.cache_clear()
    assert (code, out) == (1, "")
    assert err == "error: negative two-face count at (g,n)=(0,0)\n"
