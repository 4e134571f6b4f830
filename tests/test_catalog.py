import copy
import pickle
import re

import pytest

from sextics import catalog
from sextics.catalog import (
    _CHECKS,
    ExampleRecord,
    analyze_document,
    builtin_catalog,
    builtin_examples,
    verify_example,
    weak_zariski_groups,
)
from sextics import cli, docs
from sextics.docs import DocumentError, parse_document
from sextics.globalinv import ConfigSyntaxError, Configuration, \
    corollary_ceiling, parse_config
from sextics.localsing.classify import SingType, normal_form_germ, \
    recognition_types
from sextics.localsing import analyze_germ
from sextics.numfield import NFElt
from sextics.poly import Poly

# invariants of each type, computed once from normal forms
_GERM_CACHE = {}


def _germ_data(t: SingType):
    key = (t.family, tuple(t.index))
    if key not in _GERM_CACHE:
        _GERM_CACHE[key] = analyze_germ(normal_form_germ(t))
    return _GERM_CACHE[key]


def type_delta(t: SingType) -> int:
    return _germ_data(t).delta


def type_mu(t: SingType) -> int:
    return _germ_data(t).mu


class TestParseConfig:
    def test_counts_and_index(self):
        c = parse_config("[A_5,4A_2,2A_1]_2")
        assert c.index_tag == 2 and not c.mr
        assert dict((e.sing_type.name(), e.count) for e in c.entries) == \
            {"A_5": 1, "A_2": 4, "A_1": 2}

    def test_mr_flag(self):
        assert parse_config("[3A_5,2A_2]^mr").mr

    def test_empty(self):
        c = parse_config("[]")
        assert c.entries == () and str(c) == "[]"

    def test_braced_types(self):
        c = parse_config("[B_{3,6},C_{3,7},D_{4,7},Sp_2]")
        assert len(c.entries) == 4

    def test_bad_type(self):
        with pytest.raises(ConfigSyntaxError):
            parse_config("[F_4]")

    @pytest.mark.parametrize("t", recognition_types(), ids=str)
    def test_every_recognized_type_roundtrips(self, t):
        for count, tag, mr in ((1, None, False), (2, 3, False),
                               (5, None, True), (12, 10, True)):
            c = Configuration.from_items([(t, count)], mr=mr, index_tag=tag)
            text = c.format()
            assert parse_config(text) == c
            assert parse_config(text).format() == text

    def test_all_recognized_types_in_one_configuration(self):
        c = Configuration.from_items(
            [(t, i % 3 + 1) for i, t in enumerate(recognition_types())],
            mr=True, index_tag=2)
        assert len(c.entries) == 48
        assert parse_config(c.format()) == c

    @pytest.mark.parametrize("text", [
        "[A_25]", "[Sp_3]", "[B_{5,5}]", "[A_5,,A_2]", "[A_5]_x", "[0A_5]",
        "[A_5,]", "[,A_5]", "[A_5]_\u0663", "[A_5]^mr_2", "A_5"])
    def test_names_and_entries_outside_the_notation_refused(self, text):
        with pytest.raises(ConfigSyntaxError):
            parse_config(text)

    def test_roundtrip_catalog(self):
        for e in builtin_catalog():
            text = e.reduced.format()
            again = parse_config(text)
            assert again.multiset() == e.reduced.multiset()
            assert again.index_tag == e.reduced.index_tag
            assert again.mr == e.reduced.mr
            assert again.format() == text


class TestCatalogData:
    def test_total_counts(self):
        entries = builtin_catalog()
        t1 = [e for e in entries if e.theorem == 1]
        t2 = [e for e in entries if e.theorem == 2]
        assert len(t1) == 89
        assert len(t2) == 49

    def test_degrees_sum_to_six(self):
        for e in builtin_catalog():
            assert sum(e.component_type) == 6, e.reduced

    def test_inner_subset_of_reduced(self):
        for e in builtin_catalog():
            reduced = {k[:2]: k[2] for k in e.reduced.multiset()}
            for fam, idx, count in e.inner.multiset():
                assert reduced.get((fam, idx), 0) >= count, e.reduced

    def test_lookup_a17(self):
        found = sorted(str(e.reduced) for e in builtin_catalog()
                       if e.inner.multiset() ==
                       parse_config("[A_17]").multiset())
        assert found == ["[A_17,2A_1]^mr", "[A_17,A_1]_2", "[A_17,A_2]_2^mr",
                         "[A_17]_2"]
        for e in builtin_catalog():
            if e.inner.multiset() == parse_config("[A_17]").multiset():
                assert e.component_type == (3, 3)

    def test_lookup_b66(self):
        rows = [e for e in builtin_catalog()
                if any(x == ("B", (6, 6)) for x, _c in
                       [((i.sing_type.family, tuple(i.sing_type.index)),
                         i.count) for i in e.reduced.entries])]
        assert len(rows) == 1 and str(rows[0].reduced) == "[B_{6,6}]"

    def test_stated_component_budgets(self):
        # rows with stated per-component configurations respect Corollary 1
        for e in builtin_catalog():
            if not e.component_sigma:
                continue
            total = 0
            for _deg, cfg in e.component_sigma:
                for fam, idx, count in cfg.multiset():
                    total += count * type_delta(SingType(fam, idx))
            assert total <= corollary_ceiling(e.component_type), e.reduced

    def test_index_subscript_integrity(self):
        # one configuration ([3A_5,2A_2]^mr on two cubics) is enumerated
        # under two inner configurations -- the double torus expression --
        # so the uniqueness key includes the inner configuration
        seen = {}
        for e in builtin_catalog():
            key = (e.inner.multiset(), e.reduced.multiset(),
                   e.component_type,
                   tuple((d, c.multiset()) for d, c in e.component_sigma),
                   e.intersection)
            assert key not in seen, (e.reduced, seen.get(key))
            seen[key] = e.reduced

    def test_mr_flags_match_type_arithmetic(self):
        # mr printed iff every type is simple and the Milnor numbers sum
        # to 19, for all 138 rows
        for e in builtin_catalog():
            total = 0
            simple = True
            for fam, idx, count in e.reduced.multiset():
                t = SingType(fam, idx)
                total += count * type_mu(t)
                simple = simple and t.is_simple()
            assert e.reduced.mr == (simple and total == 19), \
                (str(e.reduced), total, simple)

    def test_double_torus_expression_row(self):
        rows = [e for e in builtin_catalog()
                if e.reduced.multiset() ==
                parse_config("[3A_5,2A_2]").multiset()]
        assert len(rows) == 2
        assert {str(e.inner.format(with_tags=False)) for e in rows} == \
            {"[2A_5,2A_2]", "[3A_5]"}


class TestMalformedCatalog:
    """A bad catalog row is refused with its line number, by the loader
    and by the CLI."""

    @pytest.fixture
    def catalog_text(self, monkeypatch):
        real = catalog._load_data
        rows = []

        def load(name):
            if name != "catalog.txt":
                return real(name)
            return "theorem: 1\ninner: [A_5,4A_2]\n%s\n" % rows[0]
        monkeypatch.setattr(catalog, "_load_data", load)
        builtin_catalog.cache_clear()
        yield rows.append
        builtin_catalog.cache_clear()

    @pytest.mark.parametrize("row, error", [
        ("entry: B | [A_5]", "bad component type 'B'"),
        ("entry: Bx+B2 | [A_5]", "bad component type 'Bx+B2'"),
        ("entry: B1+B5", "entry without a configuration"),
        ("entry: B1+B5 | [A_5,4A_2", "not a configuration"),
        ("entry: B1+B5 | [A_5] | sigma=x@[A_2]", "invalid literal"),
        ("entry: B1+B5 | [A_5] | sigma=5@[Q_2]", "unknown type name"),
        ("entry: B1+B5 | [A_5] | colour=red", "unknown field 'colour'"),
        ("inner: [A_5", "not a configuration"),
        ("theorem: one", "invalid literal"),
        ("lemma: 1", "unknown key 'lemma'"),
    ])
    def test_row_error_names_its_line(self, catalog_text, capsys, row,
                                      error):
        catalog_text(row)
        with pytest.raises(DocumentError, match="^catalog line 3: .*%s"
                           % re.escape(error)):
            builtin_catalog()
        assert cli.main(["catalog", "list"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error: catalog line 3: ") and error in out

    def test_primed_component_type_reads(self, catalog_text):
        catalog_text("entry: B1'+B1''+B4 | [A_5]")
        [entry] = builtin_catalog()
        assert entry.component_type == (1, 1, 4)


class TestWeakZariski:
    def test_a5_4a2_a3_2a1_group(self):
        groups = {g["reduced"]: g for g in
                  weak_zariski_groups(builtin_catalog())}
        g1 = groups["[A_5,A_3,4A_2,2A_1]"]
        assert g1["realizations"] >= 3
        assert g1["implied_irreducible"]

    def test_2a5_2a2_3a1_four_cases(self):
        groups = {g["reduced"]: g for g in
                  weak_zariski_groups(builtin_catalog())}
        g2 = groups["[2A_5,2A_2,3A_1]"]
        assert g2["realizations"] == 4
        assert not g2["implied_irreducible"]

    def test_b66_singleton(self):
        groups = {g["reduced"]: g for g in
                  weak_zariski_groups(builtin_catalog())}
        assert "[B_{6,6}]" not in groups


class TestExamples:
    def test_corpus_size(self):
        records = builtin_examples()
        assert len(records) >= 25
        ids = [r.rid for r in records]
        assert len(set(ids)) == len(ids)

    def test_all_polys_parse(self):
        for rec in builtin_examples():
            assert rec.doc.polys
            assert all(isinstance(p, Poly) for p in rec.doc.polys.values())

    def test_instantiate_parses_nothing(self, monkeypatch):
        # the corpus is parsed (and cached) here, before the counter is in
        records = builtin_examples()
        parse_poly = docs.parse_poly
        calls = []

        def counted(*args):
            calls.append(args)
            return parse_poly(*args)
        monkeypatch.setattr(docs, "parse_poly", counted)
        for rec in records:
            rec.doc.instantiate(rec.doc.generic or ())
        assert calls == []

    def test_single_record_verifies(self):
        recs = {r.rid: r for r in builtin_examples()}
        rep = verify_example(recs["5.2-5"])
        assert rep.clean()
        kinds = {v.claim.kind: v.status for v in rep.verdicts}
        assert kinds["config"] == "verified"

    def test_report_survives_pickling(self):
        # a `verify --jobs N` worker sends its report back pickled
        recs = {r.rid: r for r in builtin_examples()}
        rep = verify_example(recs["5.2-5"])
        assert pickle.loads(pickle.dumps(rep)) == rep

    @pytest.mark.parametrize("round_trip", [
        lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy],
        ids=["pickle", "deepcopy"])
    def test_analysis_over_a_number_field_survives_copying(self,
                                                           round_trip):
        recs = {r.rid: r for r in builtin_examples()}
        doc = recs["5.3-1"].doc
        an = analyze_document(doc, doc.generic or ())
        carried = [s for s in an.sings
                   if s.point.field is not None and s.components]
        assert carried
        back = round_trip(an)
        assert back == an and hash(back) == hash(an)
        assert [s.components for s in back.sings] == \
            [s.components for s in an.sings]

    def test_no_field_element_inverts_one(self, monkeypatch):
        # monic polynomials are used as they are: no division by a leading
        # coefficient or a linear factor's x-coefficient of 1
        recs = {r.rid: r for r in builtin_examples()}
        inverse = NFElt.inverse
        inverted = []

        def recorded(self):
            inverted.append(self)
            return inverse(self)
        monkeypatch.setattr(NFElt, "inverse", recorded)
        assert verify_example(recs["5.2-1"]).clean()
        assert inverted
        assert not [e for e in inverted if e == 1]

    def test_every_claim_kind_has_a_check(self):
        # verify_example reports an unverifiable claim as it is stated
        assert set(_CHECKS) == set(docs.CLAIM_KINDS) - {"unverifiable"}

    def test_type_at_reads_only_printable_names(self):
        doc = parse_document("f: x^6 + y^6 + 1\n"
                             "claim: * :: type-at :: (0,0)=A_25\n")
        [verdict] = verify_example(ExampleRecord("a25", doc)).verdicts
        assert verdict.status == "unverifiable"
        assert verdict.detail == "pipeline error: unknown type name 'A_25'"

    def test_conjugate_cubics_cover_a_three_three_claim(self):
        # f2 = -2 y^2: f = (f3 - sqrt(2)^3 y^3)(f3 + sqrt(2)^3 y^3) is two
        # conjugate smooth cubics over Q(sqrt 2), one Q-irreducible sextic
        # of genus 1
        doc = parse_document("f2: -2*y^2\nf3: x^3 - x + y^3 + x*y\n"
                             "claim: * :: config :: [3A_5]\n"
                             "claim: * :: degrees :: 3,3\n")
        rep = verify_example(ExampleRecord("conjugate-cubics", doc))
        assert [v.status for v in rep.verdicts] == ["verified", "verified"]
        an = analyze_document(doc, ())
        assert an.degrees() == (6,)
        [sextic] = an.components
        assert sextic.genus is None
        assert any("conjugate" in n for n in sextic.notes)
