"""Records against the dataclasses they replaced (``RECORD_TWINS`` in
conftest): made from the same fields, a record and its twin print alike,
hash alike, and compare alike with any other record and its twin."""
import pytest
from conftest import RECORD_TWINS, record_and_twin
from hypothesis import given, settings
from hypothesis import strategies as st

import specsmith.cli  # noqa: F401  (so every record class is defined)
from specsmith.expr import FrozenRecord, Record


def other_of(pair):
    """A second (record, twin): another draw, or the same fields again."""
    return st.one_of(record_and_twin(), record_and_twin(type(pair[0])), st.just(pair))


# Records made from fewer values than their fields (the state a run builds
# up), so no twin is made from the same values.
WITHOUT_TWIN = {"ConversationTranscript", "FamilySlot", "SelectionState"}


def subclasses(cls: type) -> list[type]:
    return [c for sub in cls.__subclasses__() for c in [sub, *subclasses(sub)]]


class TestRecordsMatchTheirTwins:
    def test_every_record_class_has_a_twin(self):
        package = {cls for cls in subclasses(Record) if cls.__module__.startswith("specsmith.")} - {FrozenRecord}
        assert {cls.__name__ for cls in package - set(RECORD_TWINS)} == WITHOUT_TWIN

    @settings(max_examples=400)
    @given(st.data())
    def test_compare_hash_and_print_as_the_twins(self, data):
        first = data.draw(record_and_twin())
        second = data.draw(other_of(first))
        for record, twin in (first, second):
            assert record._fields == tuple(f for f in twin.__dataclass_fields__)
            assert repr(record) == repr(twin)
            if type(twin).__hash__ is None:
                assert type(record).__hash__ is None
            else:
                assert hash(record) == hash(twin)
        (a, twin_a), (b, twin_b) = first, second
        assert (a == b) == (twin_a == twin_b) and (a != b) == (twin_a != twin_b)
        assert (a == twin_a) is False  # a record never equals a value of another class

    @given(st.data())
    def test_frozen_records_refuse_assignment_and_deletion(self, data):
        record, twin = data.draw(record_and_twin())
        if not isinstance(record, FrozenRecord):
            return
        before = repr(record)
        for name in record._fields:
            with pytest.raises(AttributeError, match="cannot assign"):
                setattr(record, name, None)
            with pytest.raises(AttributeError, match="cannot delete"):
                delattr(record, name)
        assert repr(record) == before == repr(twin)

    @given(st.data())
    def test_replace_makes_an_equal_copy_and_refuses_unknown_fields(self, data):
        record, _ = data.draw(record_and_twin())
        if not record._fields:
            return
        name = data.draw(st.sampled_from(record._fields))
        changed = record.replace(**{name: getattr(record, name)})
        assert changed == record and changed is not record
        with pytest.raises(TypeError):
            record.replace(no_such_field=1)
