"""Order-preserving key encodings and QTuple runtime-tuple mechanics
(serialization round-trips used by the external sort's spill runs)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.catalog.keys import (
    decode_int,
    encode_bool,
    encode_float,
    encode_int,
    encode_key,
    encode_text,
)
from repro.errors import IndexError_, QueryError
from repro.query.tuples import QTuple
from repro.storage.record import ValueType
from repro.summaries.functions import SummarySet
from repro.summaries.objects import ClassifierObject, SummaryObject

FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False,
                          width=64)


class TestKeyEncodings:
    @given(st.integers(-(2**63), 2**63 - 1), st.integers(-(2**63), 2**63 - 1))
    def test_int_order_preserved(self, a, b):
        assert (encode_int(a) < encode_int(b)) == (a < b)

    @given(st.integers(-(2**63), 2**63 - 1))
    def test_int_roundtrip(self, a):
        assert decode_int(encode_int(a)) == a

    def test_int_out_of_range(self):
        with pytest.raises(IndexError_):
            encode_int(2**63)

    @given(FINITE_FLOATS, FINITE_FLOATS)
    def test_float_order_preserved(self, a, b):
        if a < b:
            assert encode_float(a) < encode_float(b)
        elif a > b:
            assert encode_float(a) > encode_float(b)

    def test_float_negative_vs_positive(self):
        assert encode_float(-1.5) < encode_float(0.0) < encode_float(2.5)

    @given(st.text(max_size=20), st.text(max_size=20))
    def test_text_order_matches_utf8_bytes(self, a, b):
        assert (encode_text(a) < encode_text(b)) == (
            a.encode() < b.encode()
        )

    def test_bool_order(self):
        assert encode_bool(False) < encode_bool(True)

    @given(st.one_of(st.none(), st.integers(-10**6, 10**6)))
    def test_null_sorts_first(self, value):
        null_key = encode_key(None, ValueType.INT)
        if value is not None:
            assert null_key < encode_key(value, ValueType.INT)

    @given(FINITE_FLOATS)
    def test_encode_key_dispatch_float(self, f):
        assert encode_key(f, ValueType.FLOAT)[0:1] != b"\x00"


def classifier(tuple_id=0, disease=2):
    obj = ClassifierObject(instance_name="C", tuple_id=tuple_id,
                           labels=["Disease", "Other"])
    for i in range(disease):
        obj.add_annotation(i + 1, "Disease", ())
    return obj


class TestQTuple:
    def make(self):
        sset = SummarySet({"C": classifier()})
        return QTuple(
            ["r.name", "r.v"], ["swan", 7],
            {"r": sset}, {"r": ("birds", 3)},
        )

    def test_get_qualified_and_bare(self):
        t = self.make()
        assert t.get("r.name") == "swan"
        assert t.get("name") == "swan"

    def test_get_ambiguous_raises(self):
        t = QTuple(["a.x", "b.x"], [1, 2])
        with pytest.raises(QueryError):
            t.get("x")

    def test_get_missing_raises(self):
        with pytest.raises(QueryError):
            self.make().get("nope")

    def test_has_column(self):
        t = self.make()
        assert t.has_column("r.v")
        assert t.has_column("v")
        assert not t.has_column("w")

    def test_copy_is_deep_for_summaries(self):
        # A tuple's summaries are values: joining never changes either
        # input, and an object read from storage (immutable) refuses an
        # in-place edit, so no tuple needs a private copy.
        t = self.make()
        stored = SummaryObject.from_dict(classifier(1, disease=1).to_dict())
        right = QTuple(["s.v"], [1], {"s": SummarySet({"C": stored})},
                       {"s": ("t", 1)})
        joined = QTuple.join(t, right)
        assert joined.summary_set("r").get_summary_object("C") \
            .get_label_value("Disease") == 2
        with pytest.raises(TypeError):
            stored.add_annotation(99, "Disease", ())
        assert stored.get_label_value("Disease") == 1
        original = t.summary_set("r").get_summary_object("C")
        assert original.get_label_value("Disease") == 2

    def test_join_concatenates_and_merges(self):
        left = self.make()
        right = QTuple(["s.syn"], ["alias"],
                       {"s": SummarySet({"C": classifier(1, 1)})},
                       {"s": ("synonyms", 9)})
        joined = QTuple.join(left, right)
        assert joined.columns == ["r.name", "r.v", "s.syn"]
        assert joined.provenance == {"r": ("birds", 3),
                                     "s": ("synonyms", 9)}
        merged = joined.merged_summary_set()
        # merge with dedup: disjoint annotation ids 1,2 + 1 -> but ids
        # overlap (both use ann id 1), so the union is {1, 2}.
        assert merged.get_summary_object("C").get_label_value("Disease") == 2

    def test_serialization_roundtrip(self):
        t = self.make()
        back = QTuple.from_bytes(t.to_bytes())
        assert back.columns == t.columns
        assert back.values == t.values
        assert back.provenance == t.provenance
        obj = back.summary_set("r").get_summary_object("C")
        assert obj.get_label_value("Disease") == 2

    def test_serialization_preserves_shared_sets(self):
        # Two aliases sharing one summary set must still share after a
        # round-trip (merge semantics depend on distinct sets only).
        sset = SummarySet({"C": classifier()})
        t = QTuple(["a.x", "b.y"], [1, 2], {"a": sset, "b": sset},
                   {"a": ("t", 1), "b": ("t", 1)})
        back = QTuple.from_bytes(t.to_bytes())
        assert len(back.distinct_summary_sets()) == 1

    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=8))
    def test_roundtrip_property_values(self, values):
        cols = [f"c{i}" for i in range(len(values))]
        t = QTuple(cols, list(values))
        back = QTuple.from_bytes(t.to_bytes())
        assert back.values == values
