import random
import re
from fractions import Fraction
from importlib import resources

import pytest

from sextics.docs import (
    DocumentError,
    parse_bindings,
    parse_document,
    parse_documents,
)
from sextics.localsing.classify import recognition_types


class TestBindings:
    def test_single(self):
        assert parse_bindings("s=2") == (("s", Fraction(2)),)

    def test_multi(self):
        assert parse_bindings("u=5/2, t1=11/4") == \
            (("u", Fraction(5, 2)), ("t1", Fraction(11, 4)))

    def test_bad(self):
        with pytest.raises(DocumentError):
            parse_bindings("s")

    def test_repeated_name_refused(self):
        with pytest.raises(DocumentError, match="duplicate parameter 's'"):
            parse_bindings("s=1,s=2")


class TestParseDocument:
    def test_pair_document(self):
        doc = parse_document("f2: -y^2\nf3: x^3 - x\n")
        inst = doc.instantiate()
        assert inst["f2"].degree() == 2

    def test_exactly_one_curve(self):
        with pytest.raises(DocumentError):
            parse_document("f: x^2 + y\nf2: -y^2\nf3: x^3\n")
        with pytest.raises(DocumentError):
            parse_document("f2: -y^2\n")

    def test_comments_and_blanks(self):
        doc = parse_document("# a comment\n\nf: x^3 + y^3 + 1\n")
        assert set(doc.polys) == {"f"}

    def test_denominator(self):
        doc = parse_document(
            "vars: s\nf2: -s*y^2 - x^2\nf2_den: s\nf3: x^3\nparam: s\n")
        inst = doc.instantiate((("s", Fraction(2)),))
        assert inst["f2"].terms[(0, 2)] == Fraction(-1)

    def test_denominator_vanishing(self):
        doc = parse_document(
            "vars: s t\nf2: -s*y^2 - x^2\nf2_den: s*t - 1/2\nf3: x^3\n")
        with pytest.raises(DocumentError) as err:
            doc.instantiate((("s", Fraction(1)), ("t", Fraction(1, 2))))
        # the binding in the document's own syntax
        assert str(err.value) == "denominator of f2 vanishes at s=1,t=1/2"

    def test_unbound_parameter(self):
        doc = parse_document("vars: s t\nf: x^6 + s*t*y^6 + 1\n")
        with pytest.raises(DocumentError) as err:
            doc.instantiate()
        assert str(err.value) == "unbound parameters: s t"

    def test_claims_and_values(self):
        text = ("record: demo\n"
                "vars: s\n"
                "f: x^6 + s*y^6 + 1\n"
                "param: s\n"
                "generic: s=2\n"
                "values: s=1; s=0\n"
                "claim: generic :: config :: []\n"
                "claim: s=1 :: degrees :: 6\n")
        docs = parse_documents(text)
        assert len(docs) == 1
        doc = docs[0]
        assert len(doc.values) == 2
        assert doc.claims[1].selector == "s=1"

    def test_misspelled_claim_kind(self):
        with pytest.raises(DocumentError,
                           match="line 2: unknown claim kind 'degress'"):
            parse_document("f: x^6 + y^6 + 1\nclaim: * :: degress :: 6\n")

    def test_bad_defect_value(self):
        with pytest.raises(DocumentError, match="line 2"):
            parse_document("f: x^2 + y\ndefects: A_1=abc\n")

    def test_defect_without_type(self):
        with pytest.raises(DocumentError, match="line 2"):
            parse_document("f: x^6 + y^6 + 1\ndefects: =5\n")

    @pytest.mark.parametrize("name", ["A1", "A_25", "a_1", "Sp_3", "B_{5,5}",
                                      "A_1 A_2"])
    def test_unknown_defect_name(self, name):
        with pytest.raises(DocumentError,
                           match="line 2: unknown type name"):
            parse_document("f: x^6 + y^6 + 1\ndefects: A_1=2; %s=7\n"
                           % name)

    def test_every_printed_type_name_is_a_defect_name(self):
        names = [t.name() for t in recognition_types()]
        doc = parse_document("f: x^6 + y^6 + 1\ndefects: %s\n"
                             % "; ".join("%s=%d" % (n, i)
                                         for i, n in enumerate(names)))
        assert doc.defects == {n: i for i, n in enumerate(names)}

    @pytest.mark.parametrize("value", ["maybe", "", "on", "truee"])
    def test_bad_no_random(self, value):
        with pytest.raises(DocumentError, match="line 2"):
            parse_document("f: x^6 + y^6 + 1\nno_random: %s\n" % value)

    def test_no_random_words(self):
        read = {value: parse_document("f: x + y\nno_random: %s\n"
                                      % value).no_random
                for value in ("true", "false", "yes", "no", "1", "0",
                              "True", "NO")}
        assert read == {"true": True, "false": False, "yes": True,
                        "no": False, "1": True, "0": False, "True": True,
                        "NO": False}

    def test_unknown_key(self):
        with pytest.raises(DocumentError):
            parse_document("f: x^2 + y\nbogus: 1\n")

    def test_multi_record(self):
        text = ("record: a\nf: x^2 + y\n"
                "record: b\nf2: -y^2\nf3: x^3\n")
        docs = parse_documents(text)
        assert [d.record for d in docs] == ["a", "b"]

    @pytest.mark.parametrize("key,first,second", [
        ("f", "x^6 + y^6 + 1", "x^6 - y^6 + 1"),
        ("source", "a", "b"),
        ("vars", "s", "t"),
        ("values", "s=1", "s=2"),
        ("generic", "s=1", "s=2"),
        ("no_random", "true", "false"),
    ])
    def test_repeated_key_refused(self, key, first, second):
        text = "%s: %s\n%s: %s\nf: x^6 + y^6 + 1\n" % (key, first, key,
                                                       second)
        with pytest.raises(DocumentError,
                           match="line 2: duplicate key '%s'" % key):
            parse_document(text)

    def test_repeated_binding_in_document_refused(self):
        with pytest.raises(DocumentError,
                           match="line 3: duplicate parameter 's'"):
            parse_document("vars: s\nf: x^6 + s*y^6 + 1\n"
                           "generic: s=1,s=2\n")

    @pytest.mark.parametrize("text,line", [
        ("vars: s\ngeneric: s=2,t=1\n", 2),
        ("vars: s\ngeneric: t=1\n", 2),
        ("vars: s\ngeneric:\n", 2),
        ("values: t=1\n", 1),
        ("vars: s t\nvalues: s=1,t=1; s=2\n", 2),
        ("generic: t=1\nvars: s\n", 1),
    ], ids=["extra", "other", "empty", "undeclared", "missing", "vars-later"])
    def test_binding_names_exactly_the_parameters(self, text, line):
        with pytest.raises(DocumentError, match="line %d: " % line):
            parse_document(text + "f: x^6 + s*y^6 + 1\n")

    def test_bindings_may_precede_vars(self):
        doc = parse_document("generic: t=1,s=2\nvalues: s=0,t=3\n"
                             "vars: s t\nf: x^6 + s*y^6 + t\n")
        assert doc.generic == (("t", Fraction(1)), ("s", Fraction(2)))
        assert doc.values == ((("s", Fraction(0)), ("t", Fraction(3))),)

    @pytest.mark.parametrize("selector", ["t=1", "s=1,t=2", "s=1/0", ""],
                             ids=["other", "extra", "bad-rational", "empty"])
    def test_claim_selector_names_exactly_the_parameters(self, selector):
        with pytest.raises(DocumentError, match="line 3: claim selector"):
            parse_document("vars: s\nf: x^6 + s*y^6 + 1\n"
                           "claim: %s :: degrees :: 6\n" % selector)

    def test_claim_selectors_may_precede_vars(self):
        doc = parse_document("claim: t=0,s=1 :: degrees :: 6\n"
                             "claim: generic :: degrees :: 6\n"
                             "claim: * :: config :: [A5]\n"
                             "vars: s t\nf: x^6 + s*y^6 + t\n"
                             "generic: s=2,t=1\n")
        assert [(c.selector, c.line) for c in doc.claims] == [
            ("t=0,s=1", 1), ("generic", 2), ("*", 3)]

    def test_repeated_key_in_another_record_is_fine(self):
        docs = parse_documents("record: a\nvars: s\nf: x^6 + s*y^6 + 1\n"
                               "record: b\nvars: t\nf: x^6 + t*y^6 + 1\n")
        assert [d.params for d in docs] == [("s",), ("t",)]

    def test_annotations_may_repeat(self):
        doc = parse_document("vars: s\nf: x^6 + s*y^6 + 1\nparam: s\n"
                             "note: one\nnote: two\nparam: s\n")
        assert set(doc.polys) == {"f"}


class TestParseFuzz:
    """Documents one character away from a corpus record parse or raise
    DocumentError, never anything else."""

    # non-ASCII digits and a vulgar fraction, signs, brackets, separators,
    # a symbol, ASCII digits and one run longer than the interpreter's
    # int-to-string limit
    ALPHABET = ["\u00b2", "\u0663", "\u00bd", "+", "-", "*", "/", "^",
                "(", ")", "[", "]", "{", "}", ":", "::", "=", ",", ";", "#",
                " ", "\n", "x", "s", "0", "7", "9" * 5000]
    MUTATIONS_PER_RECORD = 40

    @staticmethod
    def _records():
        text = resources.files("sextics.data").joinpath(
            "examples.txt").read_text()
        return [chunk for chunk in re.split(r"(?m)^(?=record:)", text)
                if chunk.startswith("record:")]

    def test_one_character_mutations(self):
        rng = random.Random(0)
        records = self._records()
        assert len(records) == 33
        tried = 0
        for text in records:
            for _ in range(self.MUTATIONS_PER_RECORD):
                i = rng.randrange(len(text))
                piece = rng.choice(self.ALPHABET)
                rest = text[i + 1:] if rng.random() < 0.5 else text[i:]
                mutated = text[:i] + piece + rest
                tried += 1
                try:
                    parse_documents(mutated)
                except DocumentError:
                    pass
        assert tried > 1000
