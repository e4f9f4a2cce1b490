"""The record types: reprs, hashes, equality, immutability and pickling.

The records are NamedTuples and VertexSet a slotted class.  Their reprs and
hashes are pinned, so printed records, and the set and dict orders every
report follows, stay the same.
"""

import pickle
from types import SimpleNamespace

import pytest

from locdom import (
    CactusStats,
    VertexSet,
    bipartition,
    build_associated,
    cactus_stats,
    classify,
    condition_triple,
    extremal,
    label_subgraph,
    lambda_bruteforce,
    path,
    run_census,
)

P5 = "Graph(n=5, adj=(2, 5, 10, 20, 8))"
AG = (f"AssociatedGraph(graph={P5}, s=VertexSet({{1, 3}}), vertices=(0, 2, 4), "
      "edges=((0, 2, 3), (2, 4, 1)), k=2)")
TRIPLE = "ConditionTriple(c1=True, c2=True, c3=True, c3_twin_form=True)"


def _records():
    """One instance of each record type, with its pinned repr."""
    g = path(5)
    ag = build_associated(g, VertexSet.of([1, 3]))
    ls = label_subgraph(ag, VertexSet.of([1]))
    ext = extremal(3, 6)
    entry = next(iter(run_census(7)))
    return [
        (VertexSet.of([0, 2]), "VertexSet({0, 2})"),
        (g, P5),
        (bipartition(g), "Bipartition(U=VertexSet({1, 3}), W=VertexSet({0, 2, 4}), r=2, s=3)"),
        (lambda_bruteforce(g), "LDReport(lam=2, witness=VertexSet({1, 3}))"),
        (ag, AG),
        (ls, f"LabelSubgraph(parent={AG}, selected_labels=VertexSet({{1}}), "
             "edges=((2, 4, 1),), components=(VertexSet({0}), VertexSet({2, 4})))"),
        (cactus_stats(ls), "CactusStats(cc=1, cy=0, ex=1, is_cactus=True)"),
        (condition_triple(ext, bipartition(ext)), TRIPLE),
        (classify(ext),
         "ClassificationReport(r=3, s=6, lambda_g=3, lambda_gbar=4, relation=1, "
         f"conditions={TRIPLE}, predicted_plus_one=True, witness_g=VertexSet({{0, 1, 2}}), "
         "witness_gbar=VertexSet({0, 1, 2, 3}), partial=False)"),
        (entry,
         "CensusEntry(traces=(1, 1, 1, 7), graph=Graph(n=7, adj=(120, 64, 64, 1, 1, 1, 7)), "
         "report=ClassificationReport(r=3, s=4, lambda_g=5, lambda_gbar=4, relation=-1, "
         "conditions=ConditionTriple(c1=False, c2=True, c3=False, c3_twin_form=False), "
         "predicted_plus_one=False, witness_g=VertexSet({0, 1, 2, 3, 4}), "
         "witness_gbar=VertexSet({0, 1, 3, 4}), partial=False), failed=())"),
    ]


def test_reprs_are_pinned():
    records = _records()
    assert len({type(rec) for rec, _ in records}) == 10
    for rec, want in records:
        assert repr(rec) == want
    assert repr(VertexSet()) == "VertexSet({})"


def test_fields_keep_their_names_order_and_defaults():
    fields = {type(rec).__name__: (type(rec)._fields, type(rec)._field_defaults)
              for rec, _ in _records() if not isinstance(rec, VertexSet)}
    assert fields == {
        "Graph": (("n", "adj"), {}),
        "Bipartition": (("U", "W", "r", "s"), {}),
        "LDReport": (("lam", "witness"), {}),
        "AssociatedGraph": (("graph", "s", "vertices", "edges", "level", "k"), {}),
        "LabelSubgraph": (("parent", "selected_labels", "edges", "components"), {}),
        "CactusStats": (("cc", "cy", "ex", "is_cactus"), {}),
        "ConditionTriple": (("c1", "c2", "c3", "c3_twin_form"), {}),
        "ClassificationReport": (("r", "s", "lambda_g", "lambda_gbar", "relation",
                                  "conditions", "predicted_plus_one", "witness_g",
                                  "witness_gbar", "partial"), {"partial": False}),
        "CensusEntry": (("traces", "graph", "report", "failed"), {}),
    }


def test_vertexset_hashes_and_compares_as_a_one_field_record():
    for b in (0, 1, 5, 1 << 40, (1 << 70) - 1):
        assert hash(VertexSet(b)) == hash((b,))
        assert VertexSet(b) == VertexSet(b)
        assert VertexSet(b) != VertexSet(b + 1)
    assert VertexSet(5) != 5
    assert VertexSet(5) != (5,)
    assert VertexSet(5) != SimpleNamespace(bits=5)
    assert VertexSet() == VertexSet(0)


def test_records_hash_as_the_tuple_of_their_fields():
    """An associated graph holds its level dict, so it and its label
    subgraphs are unhashable, as they were."""
    for rec, _ in _records():
        if type(rec).__name__ in ("AssociatedGraph", "LabelSubgraph"):
            with pytest.raises(TypeError, match="unhashable"):
                hash(rec)
        elif not isinstance(rec, VertexSet):
            assert hash(rec) == hash(tuple(getattr(rec, f) for f in rec._fields))
    rep = _records()[8][0]
    assert hash(rep.conditions) == hash((True, True, True, True))


@pytest.mark.parametrize("i", range(10))
def test_fields_refuse_assignment_and_deletion(i):
    rec, _ = _records()[i]
    for name in getattr(type(rec), "_fields", ("bits",)):
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 0


def test_records_unpack_index_and_replace_as_tuples():
    g = path(3)
    n, adj = g
    assert (n, adj) == (3, (2, 5, 2)) == g and g[0] == 3
    stats = CactusStats(1, 0, 1, True)
    assert stats._replace(cy=1) == CactusStats(1, 1, 1, True)
    assert stats == (1, 0, 1, True)


def test_pickling_round_trips_every_census_entry():
    entries = list(run_census(8))
    assert len(entries) > 100
    for e in entries:
        assert pickle.loads(pickle.dumps(e)) == e
    assert VertexSet(6).__reduce__() == (VertexSet, (6,))
    back = pickle.loads(pickle.dumps(VertexSet(6)))
    assert type(back) is VertexSet and back == VertexSet(6)
