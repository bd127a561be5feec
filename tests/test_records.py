"""Every public record against its stdlib twin.

The twin is ``@dataclass(frozen=True)`` built from the record's own fields,
defaults and flags, so its ``__repr__``, ``__eq__`` and ``__hash__`` are the
ones ``dataclasses`` generates. The instances come from the c1-c3 parses,
their analyses, traces and diffs against the edited revisions, and the
parse and validation of the error inputs.

Only the standard library and phasekit are imported, so interpreters without
pytest can run the same checks: ``PYTHONPATH=src python tests/test_records.py``.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
from pathlib import Path

import phasekit
from phasekit import (
    Model,
    RenderOptions,
    Span,
    TraceTree,
    analyze,
    coverage,
    diff,
    impact,
    parse_file,
    trace_loss,
    trace_node,
    validate,
)
from phasekit.diagnostics import record

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ROOT / "tests" / "goldens" / "inputs"

RECORDS = [
    obj
    for obj in map(phasekit.__dict__.get, phasekit.__all__)
    if isinstance(obj, type) and dataclasses.is_dataclass(obj)
]


def _twin(cls: type) -> type:
    """``@dataclass(frozen=True)`` with the fields of ``cls``."""
    spec = []
    for f in dataclasses.fields(cls):
        flags = {"repr": f.repr, "hash": f.hash, "compare": f.compare}
        if f.default is not dataclasses.MISSING:
            flags["default"] = f.default
        if f.default_factory is not dataclasses.MISSING:
            flags["default_factory"] = f.default_factory
        spec.append((f.name, f.type, dataclasses.field(**flags)))
    return dataclasses.make_dataclass(
        cls.__name__, spec, frozen=True, namespace={"__qualname__": cls.__qualname__}
    )


TWINS = {cls: _twin(cls) for cls in RECORDS}


def _as_twin(obj, twin: type | None = None):
    return (twin or TWINS[type(obj)])(
        **{f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    )


def _collect(obj, found: dict[type, dict[int, object]]) -> None:
    """Every record reachable from ``obj``, by class, once each."""
    if type(obj) in TWINS:
        seen = found.setdefault(type(obj), {})
        if id(obj) not in seen:
            seen[id(obj)] = obj
            for f in dataclasses.fields(obj):
                _collect(getattr(obj, f.name), found)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _collect(item, found)
    elif isinstance(obj, dict):
        for item in obj.values():
            _collect(item, found)


def _instances() -> dict[type, list]:
    roots: list[object] = [RenderOptions(), RenderOptions("SB", False, "LR")]
    for name in ("c1", "c2", "c3"):
        parsed = parse_file(str(ROOT / "fixtures" / f"{name}.phase"))
        revised = parse_file(str(INPUTS / f"{name}_rev.phase"))
        model = parsed.model
        changes = diff(model, revised.model)
        roots += [parsed, revised, analyze(model), changes, impact(changes, revised.model)]
        roots += [trace_loss(model, loss.id) for loss in model.losses]
        roots += [trace_node(model, node.id) for node in model.nodes]
    for name in ("parse_errors", "semantic_errors", "coverage_c001"):
        parsed = parse_file(str(INPUTS / f"{name}.phase"))
        roots.append(parsed)
        if parsed.model is not None:
            roots += [validate(parsed.model), coverage(parsed.model)]
    found: dict[type, dict[int, object]] = {}
    _collect(roots, found)
    return {cls: list(seen.values()) for cls, seen in found.items()}


INSTANCES = _instances()


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as error:
        return type(error), str(error)


def _frozen(action, *args) -> bool:
    try:
        action(*args)
    except dataclasses.FrozenInstanceError:
        return True
    return False


def test_every_record_is_a_frozen_dataclass_with_instances():
    assert len(RECORDS) == 28
    for cls in RECORDS:
        assert cls.__dataclass_params__.frozen, cls
        assert INSTANCES.get(cls), cls


def test_records_share_their_methods_and_have_their_own_docstrings():
    for cls in RECORDS:
        for name in ("__eq__", "__hash__", "__repr__"):
            assert getattr(cls, name).__code__ is getattr(Span, name).__code__, (cls, name)
        # dataclasses writes the signature where a class has no docstring.
        assert cls.__doc__ and not cls.__doc__.startswith(f"{cls.__name__}("), cls


def test_repr_hash_and_match_args_equal_the_twins():
    for cls, instances in INSTANCES.items():
        assert cls.__match_args__ == TWINS[cls].__match_args__
        for obj in instances:
            twin = _as_twin(obj)
            assert repr(obj) == repr(twin)
            # Within one process only: hash(None) can vary between runs.
            assert _hash_or_error(obj) == _hash_or_error(twin)


def test_equality_equals_the_twins():
    for cls, instances in INSTANCES.items():
        twins = [_as_twin(obj) for obj in instances]
        pairs = list(zip(instances, twins))
        for (a, ta), (b, tb) in zip(pairs, pairs[1:] + pairs[:1]):
            assert (a == b) is (ta == tb), (a, b)
            assert (a != b) is (ta != tb), (a, b)
        for obj, twin in pairs:
            assert obj == dataclasses.replace(obj)
            assert obj.__eq__(twin) is NotImplemented
            assert twin.__eq__(obj) is NotImplemented
            assert obj != twin and not obj == twin
            assert obj.__eq__(None) is NotImplemented


def test_frozen_fields_replace_copy_and_pickle():
    for cls, instances in INSTANCES.items():
        for a, b in zip(instances, instances[1:] + instances[:1]):
            for f in dataclasses.fields(a):
                assert _frozen(setattr, a, f.name, None), (cls, f.name)
                assert _frozen(delattr, a, f.name), (cls, f.name)
            swapped = dataclasses.replace(
                a, **{f.name: getattr(b, f.name) for f in dataclasses.fields(a) if f.init}
            )
            assert swapped == b and repr(swapped) == repr(b)
            assert dataclasses.asdict(a) == dataclasses.asdict(_as_twin(a))
            for duplicate in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
                assert type(duplicate) is cls
                assert duplicate == a and repr(duplicate) == repr(a)
                assert _hash_or_error(duplicate) == _hash_or_error(a)


def test_records_of_one_field_or_none_equal_their_twins():
    @record
    class One:
        """A record of one field."""
        value: object

    @record
    class Empty:
        """A record of no field."""

    for a, b in ((One(1), One(2)), (One(1), One(1)), (One(None), One(None)), (Empty(), Empty())):
        twin = _twin(type(a))
        ta, tb = _as_twin(a, twin), _as_twin(b, twin)
        assert repr(a) == repr(ta)
        assert (a == b) is (ta == tb) and (a != b) is (ta != tb)
        assert hash(a) == hash(ta)


def test_hidden_fields_are_left_out_of_repr_equality_and_hash():
    model = INSTANCES[Model][0]
    assert model.source_spans
    bare = dataclasses.replace(model, source_spans={})
    assert "source_spans" not in repr(model)
    assert model == bare and hash(model) == hash(bare)


def test_a_record_inside_itself_repeats_as_an_ellipsis():
    tree = TraceTree("loss", "L1")
    twin = _as_twin(tree)
    object.__setattr__(tree, "children", (tree,))
    object.__setattr__(twin, "children", (twin,))
    expected = "TraceTree(element_class='loss', element_id='L1', children=(...,))"
    assert repr(tree) == repr(twin) == expected


def test_equality_compares_tuples_which_match_an_object_to_itself():
    metrics = INSTANCES[phasekit.Metrics][0]
    a = dataclasses.replace(metrics, coverage_ratio=math.nan)
    b = dataclasses.replace(metrics, coverage_ratio=math.nan)
    assert a == b
    assert a != dataclasses.replace(metrics, coverage_ratio=float("nan"))


if __name__ == "__main__":
    for test_name, test in list(globals().items()):
        if test_name.startswith("test_") and callable(test):
            test()
            print("ok", test_name)
