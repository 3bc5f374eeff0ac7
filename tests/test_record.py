"""Value semantics of the immutable records (``wgames.record.Record``)."""

import pickle

import pytest

from wgames import FiniteSet, Ordering, corpus_model
from wgames.record import Record


def all_records():
    found, todo = [], [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.append(sub)
            todo.append(sub)
    return found


def test_every_record_is_slotted_and_names_its_fields():
    records = all_records()
    assert len(records) >= 23
    for cls in records:
        assert "__slots__" in vars(cls), cls
        assert set(cls._fields) <= set(cls.__slots__), cls
    assert not hasattr(corpus_model("sequential-3"), "__dict__")


def test_records_are_immutable_values():
    rho = Ordering("dm", ("t1", "t2"))
    assert rho == Ordering(player="dm", sequence=("t1", "t2"))
    assert hash(rho) == hash(Ordering("dm", sequence=("t1", "t2")))
    assert rho != Ordering("dm", ("t2", "t1"))
    assert rho != ("dm", ("t1", "t2"))
    assert repr(rho) == "Ordering(player='dm', sequence=('t1', 't2'))"
    with pytest.raises(AttributeError):
        rho.player = "other"
    with pytest.raises(AttributeError):
        del rho.sequence
    assert pickle.loads(pickle.dumps(rho)) == rho


def test_constructor_checks_its_arguments():
    with pytest.raises(TypeError):
        Ordering("dm")
    with pytest.raises(TypeError):
        Ordering("dm", ("t1",), ("t2",))
    with pytest.raises(TypeError):
        Ordering("dm", ("t1",), player="dm")
    with pytest.raises(TypeError):
        Ordering("dm", sequence=("t1",), order=())


def test_derived_slots_stay_out_of_equality_and_repr():
    a, b = FiniteSet("actions", ("0", "1")), FiniteSet("actions", ("0", "1"))
    assert a == b and a.digits == {"0": 0, "1": 1}
    assert repr(a) == "FiniteSet(name='actions', labels=('0', '1'))"
    model, again = corpus_model("alice-bob-nature"), corpus_model("alice-bob-nature")
    assert model == again and hash(model) == hash(again)
    assert hash(model.space) == hash(again.space)


def test_replace_copies_with_changes_and_rechecks():
    model = corpus_model("sequential-3")
    rho = Ordering("dm", ("t1", "t2"))
    assert rho.replace(sequence=("t2",)) == Ordering("dm", ("t2",))
    assert rho.replace() == rho
    with pytest.raises(ValueError):
        rho.replace(sequence=())
    with pytest.raises(TypeError):
        rho.replace(order=("t1",))
    players = (("dm", model.agents_of("dm")),)
    assert model.replace(players=players) == model
    with pytest.raises(ValueError):
        model.replace(players=(("dm", ("t1",)),))
