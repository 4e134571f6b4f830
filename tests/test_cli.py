import json

import pytest

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

    def test_tower_cap_refused(self, capsys, tmp_path):
        # the D_4 point at the origin needs Q(sqrt(2)), beyond a cap of 1
        doc = tmp_path / "capped.txt"
        doc.write_text("f: x*y^2 - 2*x^3 + x^6 + y^6\n")
        code, out = run_cli(capsys, "analyze", str(doc), "--tower-cap", "1")
        assert code == 2
        assert out.startswith("error: ")

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

    def test_internal_consistency_exit_code(self, capsys, tmp_path,
                                            monkeypatch):
        import sextics.cli as cli_mod
        from sextics.localsing.classify import ConsistencyError

        def boom(*a, **k):
            raise ConsistencyError("delta mismatch: 3 vs 4")
        monkeypatch.setattr(cli_mod, "analyze_curve", boom)
        doc = tmp_path / "c.txt"
        doc.write_text("f: x^6 + y^6 + 1\n")
        code, out = run_cli(capsys, "analyze", str(doc))
        assert code == 3
        assert "internal consistency" in out


class TestVerify:
    def test_single_id(self, capsys):
        code, out = run_cli(capsys, "verify", "5.2-17")
        assert code == 0
        assert "verified" in out and "mismatch=0" in out

    def test_bogus_id(self, capsys):
        code, out = run_cli(capsys, "verify", "no-such-id")
        assert code == 2

    def test_missing_arg(self, capsys):
        code, out = run_cli(capsys, "verify")
        assert code == 2

    def test_json_shape(self, capsys):
        code, out = run_cli(capsys, "verify", "5.2-18", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["records"][0]["id"] == "5.2-18"
        assert payload["records"][0]["counts"]["mismatch"] == 0


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
        code, _out = run_cli(capsys, "catalog", "show")
        assert code == 2

    def test_groups(self, capsys):
        code, out = run_cli(capsys, "catalog", "groups")
        assert code == 0
        assert "realizations" in out


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

    def test_unknown_param(self, capsys, sweep_doc):
        code, out = run_cli(capsys, "sweep", sweep_doc,
                            "--param", "q", "--values", "1,2")
        assert code == 2
