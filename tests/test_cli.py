import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sextics import cli
from sextics.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def item5_doc(tmp_path):
    doc = tmp_path / "item5.txt"
    doc.write_text(
        "f2: -y^2 + y - x^2\n"
        "f3: -2*y^3 + (-3*x + 2)*y^2 + (-2*x^2 + 3*x)*y + x^3\n")
    return str(doc)


@pytest.fixture
def smooth_doc(tmp_path):
    doc = tmp_path / "smooth.txt"
    doc.write_text("f: x^6 + y^6 + 1\n")
    return str(doc)


@pytest.fixture
def sweep_doc(tmp_path):
    doc = tmp_path / "sweep.txt"
    doc.write_text(
        "vars: s\n"
        "f2: s*x*y - x^2\n"
        "f3: -y^3 + (x + 1)*y^2 + y*x^2 + x^3\n"
        "param: s\n")
    return str(doc)


class TestAnalyze:
    def test_item5(self, capsys, item5_doc):
        code, out = run_cli(capsys, "analyze", item5_doc)
        assert code == 0
        assert "[C_{3,7},A_8,A_1]" in out

    def test_smooth_sextic(self, capsys, smooth_doc):
        code, out = run_cli(capsys, "analyze", smooth_doc)
        assert code == 0
        assert "configuration: []" in out
        assert "genus=10" in out

    def test_degenerate_pair(self, capsys, tmp_path):
        doc = tmp_path / "bad.txt"
        doc.write_text("f2: x*y\nf3: y*(x^2 + 1)\n")
        code, out = run_cli(capsys, "analyze", str(doc))
        assert code == 2
        assert "share" in out

    def test_nonreduced(self, capsys, tmp_path):
        doc = tmp_path / "nr.txt"
        doc.write_text("f: (x + y)^2\n")
        code, out = run_cli(capsys, "analyze", str(doc))
        assert code == 2

    def test_not_utf8(self, capsys, tmp_path):
        doc = tmp_path / "bad.txt"
        doc.write_bytes(b"\xff\xfe")
        code, out = run_cli(capsys, "analyze", str(doc))
        assert code == 2
        assert out.startswith("error: ")

    def test_bad_defect_value(self, capsys, tmp_path):
        doc = tmp_path / "defects.txt"
        doc.write_text("f: x^6 + y^6 + 1\ndefects: A_1=abc\n")
        code, out = run_cli(capsys, "analyze", str(doc))
        assert code == 2
        assert out.startswith("error: line 2")

    @pytest.mark.parametrize("line", [
        "defects: =5", "no_random: maybe", "hints: x^3 + y^3 + 1",
        "f: x^6 + y^6 - 1", "source: a\nsource: b", "vars: s\nvars: t",
        "values: s=1\nvalues: s=2", "generic: s=1\ngeneric: s=2",
        "no_random: true\nno_random: false", "generic: s=1,s=2",
        "values: s=1; t=2,t=3", "values: t=1",
        "vars: s\ngeneric: s=2,t=1",
        "vars: s\nvalues: s=1\nclaim: generic :: config :: [A_5]",
        "claim: generic :: config :: [A_5]",
        "claim: * :: degress :: 6"],
        ids=["defect-without-type", "no-random-maybe", "hints",
             "duplicate-f", "duplicate-source", "duplicate-vars",
             "duplicate-values", "duplicate-generic", "duplicate-no-random",
             "duplicate-binding", "duplicate-binding-in-values",
             "undeclared-parameter", "binding-beyond-vars",
             "generic-claim-without-generic", "generic-claim-without-vars",
             "misspelled-claim-kind"])
    def test_malformed_key_refused(self, capsys, tmp_path, line):
        doc = tmp_path / "bad.txt"
        doc.write_text("f: x^6 + y^6 + 1\n%s\n" % line)
        code, out = run_cli(capsys, "analyze", str(doc))
        assert code == 2
        # the error names the last line, the offending one
        assert out.startswith("error: line %d" % (2 + line.count("\n")))

    @pytest.mark.parametrize("text, error", [
        ("source: s\nf: x^6 + y^6 + 3/2^2\n",
         "line 2: f: a power of a fraction needs parentheses (at offset 15)"),
        ("f2: x^2 + y^2\nf3: x^3 + y^^3\n",
         "line 2: f3: exponent must be a nonnegative integer (at offset 8)"),
        ("vars: s\nf: x^6 + y^6 + t\nvalues: s=1\n",
         "line 2: f: undeclared symbol 't' (at offset 12)"),
        # only ASCII digits are digits, and no literal reaches int() past
        # the interpreter's limit: neither raises a ValueError
        ("f: x^\u00b2 + y^6 + 1\n",
         "line 1: f: unexpected character '\u00b2' (at offset 2)"),
        ("f: x^6 + y^6 + %s\n" % ("7" * 5000),
         "line 1: f: integer literal of 5000 digits is too long"
         " (at offset 12)"),
        # refused before the expansion, which would take hours
        ("source: s\nf: (x + y + 1)^999\n",
         "line 2: f: power of degree 999 exceeds 32 (at offset 12)"),
        ("source: s\nf: %s\n" % "*".join(["(x + y + 1)"] * 999),
         "line 2: f: product of degree 33 exceeds 32 (at offset 383)"),
        # within the degree bound, but with too many terms
        ("vars: s t u\nf: (x + y + s + t + u + 1)^16\n",
         "line 2: f: power of up to 20349 terms exceeds 4096"
         " (at offset 24)"),
        ("vars: s t u\nf: %s\n" % "*".join(["(x + y + s + t + u + 1)"] * 16),
         "line 2: f: product of up to 4752 terms exceeds 4096"
         " (at offset 167)"),
    ], ids=["fraction-power", "double-caret", "undeclared",
            "superscript-digit", "5000-digits", "huge-power",
            "huge-product", "many-term-power", "many-term-product"])
    def test_parse_error_names_line_and_key(self, capsys, tmp_path, text,
                                            error):
        doc = tmp_path / "bad.txt"
        doc.write_text(text, encoding="utf-8")
        code, out = run_cli(capsys, "analyze", str(doc))
        assert code == 2
        assert out.strip() == "error: " + error

    @pytest.mark.parametrize("text, error", [
        ("source: s\n# no curve\nnote: n\n",
         "line 1: document needs exactly one of f or (f2, f3)"),
        ("f2: x^2 + y^2\nf: x^6 + y^6 + 1\nf3: x^3 + y^3\n",
         "line 2: document needs exactly one of f or (f2, f3)"),
        ("f: x^6 + y^6 + 1\nsource: s\nf3: x^3 + y^3\n",
         "line 3: document needs exactly one of f or (f2, f3)"),
        ("source: s\nf3: x^3 + y^3\n",
         "line 2: torus pair needs both f2 and f3"),
        ("f: x^6 + y^6 + 1\ndefects: A_1=2; A_5=-4\n",
         "line 2: defect A_5=-4 is negative"),
        ("f: x^6 + y^6 + 1\ndefects: A1=2; A_25=7\n",
         "line 2: unknown type name 'A1'"),
        ("source: s\nf: x^6 + y^6 + 1\ndefects: A_1=2; A_25=7\n",
         "line 3: unknown type name 'A_25'"),
    ], ids=["no-curve", "f-and-pair", "pair-after-f", "f3-alone",
            "negative-defect", "defect-name-A1", "defect-name-A_25"])
    def test_curve_key_errors_name_line(self, capsys, tmp_path, text, error):
        doc = tmp_path / "bad.txt"
        doc.write_text(text)
        code, out = run_cli(capsys, "analyze", str(doc))
        assert code == 2
        assert out.strip() == "error: " + error

    @pytest.mark.parametrize("names, error", [
        ("x", "vars: x is implicit; declare only the parameters"),
        ("s y", "vars: y is implicit; declare only the parameters"),
        ("s s", "vars: s is declared twice"),
        ("2s", "vars: '2s' is not a name"),
        ("s t-1", "vars: 't-1' is not a name"),
    ], ids=["x", "y", "repeat", "digit-first", "minus"])
    def test_vars_names_refused(self, capsys, tmp_path, names, error):
        doc = tmp_path / "vars.txt"
        doc.write_text("f: x^6 + y^6 + s\nvars: %s\ngeneric: s=2\n" % names)
        code, out = run_cli(capsys, "analyze", str(doc))
        assert code == 2
        assert out.strip() == "error: line 2: " + error

    def test_deep_parentheses_refused(self, capsys, tmp_path):
        # the parser recurses once per '('; past its bound it refuses the
        # text instead of exhausting the interpreter's stack
        doc = tmp_path / "deep.txt"
        doc.write_text("f: %sx^6 + y^6 + 1%s\n" % ("(" * 250, ")" * 250))
        code, out = run_cli(capsys, "analyze", str(doc))
        assert code == 2
        assert out.startswith("error: line 1: f: parentheses nested deeper"
                              " than")

    @pytest.mark.parametrize("curve, refusal", [
        # a singular point at [0:1:0] rotates the chart first; there the
        # degree-14 cluster is one extension, and its germ needs a tower
        # of degree 28
        pytest.param("(x^7 - 2)^2 + (y^2 - 3)^2",
                     "germ needs a field tower beyond the cap: extension"
                     " degree 28 exceeds the tower cap 12", id="rotated"),
        # no singular point at infinity: the singular points x^7 = 2,
        # y^2 = 3 need a field of degree 14
        pytest.param("(x^7 - 2)^2 + (y^2 - 3)^2*(y^10 + 1)",
                     "extension degree 14 exceeds the tower cap 12",
                     id="affine"),
    ])
    def test_tower_cap_refused(self, capsys, tmp_path, curve, refusal):
        doc = tmp_path / "capped.txt"
        doc.write_text("f: %s\n" % curve)
        code, out = run_cli(capsys, "analyze", str(doc))
        assert code == 2
        assert out == "error: %s\n" % refusal

    def test_deterministic(self, capsys, item5_doc):
        _c1, out1 = run_cli(capsys, "analyze", item5_doc, "--json")
        _c2, out2 = run_cli(capsys, "analyze", item5_doc, "--json")
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["configuration"] == "[C_{3,7},A_8,A_1]"

    def test_flex_counts_with_defects(self, capsys, tmp_path):
        doc = tmp_path / "flex.txt"
        # nodal cubic times a line; defect table supplied in the document
        doc.write_text("f: (y^2 - x^3 - x^2)*(x + y + 5)\n"
                       "defects: A_1=6\n")
        code, out = run_cli(capsys, "analyze", str(doc))
        assert code == 0
        assert "flexes=3" in out  # 3*3*(3-2) - 6 for the nodal cubic

    def test_line_component_counts_no_flexes(self, capsys, tmp_path):
        # the line x = 0 is a component; 3*1*(1 - 2) flexes would be -3
        doc = tmp_path / "line.txt"
        doc.write_text("f2: -y^2\nf3: x^3 - x + y^3 + x*y\n"
                       "defects: A_1=0; A_5=0\n")
        code, out = run_cli(capsys, "analyze", str(doc), "--json")
        assert code == 0
        flexes = {c["degree"]: c["flex_count"]
                  for c in json.loads(out)["components"]}
        assert flexes == {1: None, 2: 0, 3: 9}

    @pytest.mark.parametrize("argv", [
        ["analyze", "{doc}"], ["verify", "5.2-17"],
        ["sweep", "{doc}", "--param", "s", "--values", "1,2"]],
        ids=["analyze", "verify", "sweep"])
    def test_internal_consistency_exit_code(self, capsys, tmp_path,
                                            monkeypatch, argv):
        # a failed delta cross-check is no unverifiable claim or degenerate
        # sweep value: every command ends with exit 3
        import sextics.catalog as catalog_mod
        from sextics.localsing.classify import ConsistencyError

        def boom(*a, **k):
            raise ConsistencyError("delta mismatch: 3 vs 4")
        monkeypatch.setattr(catalog_mod, "analyze_curve", boom)
        doc = tmp_path / "c.txt"
        doc.write_text("vars: s\nf: x^6 + y^6 + s\ngeneric: s=1\n")
        code, out = run_cli(capsys, *(a.format(doc=doc) for a in argv))
        assert code == 3
        assert out == "internal consistency error: delta mismatch: 3 vs 4\n"


class TestVerify:
    def test_single_id(self, capsys):
        code, out = run_cli(capsys, "verify", "5.2-17")
        assert code == 0
        assert "verified" in out and "mismatch=0" in out

    def test_bogus_id(self, capsys):
        code, out = run_cli(capsys, "verify", "no-such-id")
        assert code == 2
        assert out == "error: unknown example id 'no-such-id'\n"

    @pytest.mark.parametrize("rid", ["5.2-5 ", "5.2-05", "5.2-5@0", "[A_5]"])
    def test_near_miss_id(self, capsys, rid):
        # a padded, zero-filled or bound record id, or a configuration,
        # names no record: ids match exactly
        code, out = run_cli(capsys, "verify", rid)
        assert code == 2
        assert out == "error: unknown example id '%s'\n" % rid

    def test_missing_arg(self, capsys):
        code, out = run_cli(capsys, "verify")
        assert code == 2
        assert out == "error: verify needs an id or --all\n"

    def test_id_and_all_refused(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "verify_example",
                            lambda *a, **k: pytest.fail("a record ran"))
        code, out = run_cli(capsys, "verify", "5.2-1", "--all")
        assert code == 2
        assert out == "error: verify takes an id or --all, not both\n"

    def test_json_shape(self, capsys):
        code, out = run_cli(capsys, "verify", "5.2-18", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["records"][0]["id"] == "5.2-18"
        assert payload["records"][0]["counts"]["mismatch"] == 0

    def test_two_jobs_print_what_one_prints(self, capsys):
        # the whole corpus through a real multiprocessing pool
        code, pooled = run_cli(capsys, "verify", "--all", "--json",
                               "--jobs", "2")
        assert code == 0
        code, serial = run_cli(capsys, "verify", "--all", "--json")
        assert code == 0
        assert pooled == serial
        ids = [r["id"] for r in json.loads(pooled)["records"]]
        assert ids == sorted(r.rid for r in cli.builtin_examples())


class TestVerifyJobs:
    CHEAP = ("syn-b66", "5.2-18", "5.2-15")

    @pytest.fixture(autouse=True)
    def cheap_records(self, monkeypatch):
        recs = [r for r in cli.builtin_examples() if r.rid in self.CHEAP]
        monkeypatch.setattr(cli, "builtin_examples", lambda: list(recs))

    def test_pool_capped_and_reports_merged_in_id_order(self, capsys,
                                                        monkeypatch):
        sizes = []

        class InProcessPool:
            """Runs the jobs here and yields the reports in reverse."""

            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap_unordered(self, fn, jobs):
                return reversed([fn(job) for job in jobs])

        monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
        code, pooled = run_cli(capsys, "verify", "--all", "--json",
                               "--jobs", "100000")
        assert code == 0 and sizes == [3]
        code, serial = run_cli(capsys, "verify", "--all", "--json")
        assert code == 0 and sizes == [3]
        assert pooled == serial
        ids = [r["id"] for r in json.loads(pooled)["records"]]
        assert ids == sorted(self.CHEAP)

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_refused(self, capsys, jobs):
        code, out = run_cli(capsys, "verify", "--all", "--jobs", jobs)
        assert code == 2
        assert out.startswith("error: --jobs")


class TestCatalog:
    def test_list_count(self, capsys):
        code, out = run_cli(capsys, "catalog", "list")
        assert code == 0
        assert "total: 138 entries" in out

    def test_show(self, capsys):
        code, out = run_cli(capsys, "catalog", "show", "[A_17]")
        assert code == 0
        assert "B3+B3" in out

    def test_show_needs_config(self, capsys):
        code, out = run_cli(capsys, "catalog", "show")
        assert code == 2
        assert out == "error: catalog show needs a configuration\n"

    # [A_25] and [A_5,,A_2]: names and entries the classifier cannot print
    @pytest.mark.parametrize("config", ["[Q_5]", "[A_5", "[A_5]_x", "[0A_5]",
                                        "[A_25]", "[A_5,,A_2]"])
    def test_show_malformed_config(self, capsys, config):
        code, out = run_cli(capsys, "catalog", "show", config)
        assert code == 2
        assert out.startswith("error: bad configuration: ")

    def test_groups(self, capsys):
        code, out = run_cli(capsys, "catalog", "groups")
        assert code == 0
        assert "realizations" in out

    def test_reader_closes_after_one_line(self):
        # `sextics catalog list | head -1`
        fcntl = pytest.importorskip("fcntl")
        if not hasattr(fcntl, "F_SETPIPE_SZ"):
            pytest.skip("pipe size cannot be set on this platform")
        r, w = os.pipe()
        # a one-page pipe: the 10 KB listing cannot all be written before
        # the reader closes, so the CLI always sees the closed pipe
        fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 4096)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "sextics.cli", "catalog", "list"],
            stdout=w, stderr=subprocess.PIPE, env=env)
        os.close(w)
        with open(r, "rb", buffering=0) as reader:
            first = reader.readline()
        _out, err = proc.communicate(timeout=120)
        assert first.startswith(b"T")
        assert proc.returncode == 2
        assert b"Traceback" not in err and b"Exception ignored" not in err


class TestSweep:
    def test_jump_detection(self, capsys, sweep_doc):
        code, out = run_cli(capsys, "sweep", sweep_doc,
                            "--param", "s", "--values", "2,0")
        assert code == 0
        assert "[D_{4,7},2A_2]" in out and "[D_{4,7},A_5]" in out
        assert "jump between" in out

    def test_constant_family_no_jump(self, capsys, sweep_doc):
        code, out = run_cli(capsys, "sweep", sweep_doc,
                            "--param", "s", "--values", "2,3")
        assert code == 0
        assert "jump" not in out

    def test_degenerate_value_not_fatal(self, capsys, tmp_path):
        doc = tmp_path / "degen.txt"
        doc.write_text("vars: s\nf: (x^2 + y^2 - s)^3 + x*y + s\nparam: s\n")
        # s such that the curve becomes non-reduced is reported, not fatal
        code, out = run_cli(capsys, "sweep", str(doc),
                            "--param", "s", "--values", "1")
        assert code == 0

    def test_not_utf8(self, capsys, tmp_path):
        doc = tmp_path / "bad.txt"
        doc.write_bytes(b"vars: s\nf: x^6 + s*y^6 + 1\n# \xe9\n")
        code, out = run_cli(capsys, "sweep", str(doc),
                            "--param", "s", "--values", "1")
        assert code == 2
        assert out.startswith("error: ")

    @pytest.mark.parametrize("values", ["1,abc", "1,1/0", ""])
    def test_malformed_values(self, capsys, sweep_doc, values):
        code, out = run_cli(capsys, "sweep", sweep_doc,
                            "--param", "s", "--values", values)
        assert code == 2
        assert out.startswith("error: bad values list ")

    def test_unknown_param(self, capsys, sweep_doc):
        code, out = run_cli(capsys, "sweep", sweep_doc,
                            "--param", "q", "--values", "1,2")
        assert code == 2
        assert out == "error: parameter 'q' not declared in the document\n"


@pytest.mark.parametrize("argv", [
    ("catalog", "list", "--json"),
    ("analyze", "DOC", "--seed", "1"),
    ("verify", "--all", "--tower-cap", "12"),
], ids=["catalog-json", "analyze-seed", "verify-tower-cap"])
def test_flag_a_subcommand_does_not_read_refused(capsys, smooth_doc, argv):
    with pytest.raises(SystemExit) as exc:
        main([smooth_doc if a == "DOC" else a for a in argv])
    assert exc.value.code == 2


def test_runtime_never_imports_sympy():
    # one verification, then every module of the package, in a fresh
    # interpreter: sympy is left to the tests as an oracle, and the records
    # are NamedTuples and slotted classes, so neither dataclasses nor the
    # inspect module it pulls in costs start-up time.  inspect is looked
    # for before the module walk, which imports it itself.
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = (
        "import sys\n"
        "from sextics.cli import main\n"
        "code = main(['verify', '5.2-5'])\n"
        "inspect = 'inspect' in sys.modules\n"
        "import importlib, pkgutil, sextics\n"
        "for m in pkgutil.walk_packages(sextics.__path__, 'sextics.'):\n"
        "    importlib.import_module(m.name)\n"
        "print(code, 'sympy' in sys.modules, 'dataclasses' in sys.modules,\n"
        "      inspect)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    assert proc.stdout.splitlines()[-1] == "0 False False False"
