"""Every public record against its stdlib twin.

The twin is ``@dataclass(frozen=True)`` applied to the annotations and
defaults the record's class body declares, so its methods, fields,
signature and errors are the ones ``dataclasses`` generates. The instances
come from the c1-c3 parses, their analyses, traces and diffs against the
edited revisions, and the parse and validation of the error inputs.

Only the standard library and phasekit are imported, so interpreters without
pytest can run the same checks: ``PYTHONPATH=src python tests/test_records.py``.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
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


#: The ``field()`` of each field declared with one; ``record``, like
#: ``dataclasses``, leaves such a field off the class.
FIELD_CALLS = {
    (Model, "source_spans"): {"default_factory": dict, "compare": False, "repr": False},
}


def _twin(cls: type) -> type:
    """``@dataclass(frozen=True)`` on the annotations and defaults of the
    body of ``cls``."""
    annotations = dict(vars(cls).get("__annotations__", {}))
    namespace = {"__annotations__": annotations, "__qualname__": cls.__qualname__}
    for name in annotations:
        if (cls, name) in FIELD_CALLS:
            namespace[name] = dataclasses.field(**FIELD_CALLS[cls, name])
        elif name in vars(cls):
            namespace[name] = vars(cls)[name]
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))


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


def _outcome(action, /, *args, **kwargs):
    """The repr of what ``action`` returns, or the type and text of what it
    raises."""
    try:
        return repr(action(*args, **kwargs))
    except Exception as error:  # the error is the outcome
        return type(error), str(error)


def _calls(names: list[str]) -> list[tuple[tuple, dict]]:
    """Calls of an ``__init__`` with fields ``names``: valid ones, and each
    way of binding its arguments that ``TypeError`` rejects, alone and
    together, so the order of the checks shows too."""
    n = len(names)
    calls = [(tuple(range(k)), {}) for k in range(n + 3)]
    calls += [((), dict(zip(names, range(n)))), ((), dict(zip(names[::-1], range(n))))]
    calls += [
        ((), {"unknown": 0}),
        ((), {"self": 0}),
        (tuple(range(n + 1)), {"unknown": 0}),
    ]
    for name in names:
        calls += [
            ((), {name: 0}),
            ((), {name[:-1] or "x": 0}),  # a near miss, which 3.13 names
            ((0,), {name: 1}),
            (tuple(range(n + 1)), {name: 1, "unknown": 0}),
            (tuple(range(n + 1)), {"unknown": 0, name: 1}),
        ]
    return calls


def test_every_record_is_a_frozen_dataclass_with_instances():
    assert len(RECORDS) == 28
    for cls in RECORDS:
        assert cls.__dataclass_params__.frozen, cls
        assert INSTANCES.get(cls), cls


def test_records_share_their_methods_and_have_their_own_docstrings():
    names = ["__init__", "__setattr__", "__delattr__", "__eq__", "__hash__", "__repr__"]
    if hasattr(copy, "replace"):
        names.append("__replace__")
    for cls in RECORDS:
        for name in names:
            method = vars(cls)[name]
            assert method.__code__ is vars(Span)[name].__code__, (cls, name)
            assert method.__qualname__ == f"{cls.__qualname__}.{name}", (cls, name)
        # dataclasses writes the signature where a class has no docstring.
        assert cls.__doc__ and not cls.__doc__.startswith(f"{cls.__name__}("), cls


def test_signatures_fields_and_dataclass_functions_equal_the_twins():
    def flags(cls_or_obj):
        return [
            (f.name, f.type, f.default, f.default_factory, f.init, f.repr, f.hash,
             f.compare, dict(f.metadata), getattr(f, "kw_only", None))
            for f in dataclasses.fields(cls_or_obj)
        ]

    for cls, twin in TWINS.items():
        assert inspect.signature(cls) == inspect.signature(twin), cls
        assert str(inspect.signature(cls)) == str(inspect.signature(twin)), cls
        assert flags(cls) == flags(twin), cls
        assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(twin), cls
        assert cls.__dataclass_params__.init and cls.__dataclass_params__.frozen, cls
        for obj in INSTANCES[cls]:
            twin_obj = _as_twin(obj)
            assert flags(obj) == flags(twin_obj)
            assert dataclasses.is_dataclass(obj) and dataclasses.is_dataclass(twin_obj)
            assert dataclasses.asdict(obj) == dataclasses.asdict(twin_obj)
            assert dataclasses.astuple(obj) == dataclasses.astuple(twin_obj)


def test_init_accepts_and_rejects_the_calls_the_twins_do():
    for cls, twin in TWINS.items():
        names = [f.name for f in dataclasses.fields(cls)]
        for args, kwargs in _calls(names):
            assert _outcome(cls, *args, **kwargs) == _outcome(twin, *args, **kwargs), (
                cls, args, kwargs
            )


def test_replace_and_frozen_errors_equal_the_twins():
    for cls, instances in INSTANCES.items():
        obj = instances[0]
        twin = _as_twin(obj)
        names = [f.name for f in dataclasses.fields(cls)]
        for changes in ({"unknown": 0}, {names[0]: 0, "unknown": 0}, {names[0]: 0}):
            assert _outcome(dataclasses.replace, obj, **changes) == _outcome(
                dataclasses.replace, twin, **changes
            ), (cls, changes)
            if hasattr(copy, "replace"):
                assert _outcome(copy.replace, obj, **changes) == _outcome(
                    copy.replace, twin, **changes
                ), (cls, changes)
        for name in (*names, "unknown", "__dict__"):
            for action, args in ((setattr, (name, 0)), (delattr, (name,))):
                assert _outcome(action, obj, *args) == _outcome(action, twin, *args), (
                    cls, name
                )


def test_copy_replace_swaps_fields_as_the_twins_do():
    if not hasattr(copy, "replace"):  # Python 3.13 and later
        return
    for cls, instances in INSTANCES.items():
        for a, b in zip(instances, instances[1:] + instances[:1]):
            changes = {f.name: getattr(b, f.name) for f in dataclasses.fields(a)}
            swapped = copy.replace(a, **changes)
            assert type(swapped) is cls
            assert swapped == b
            assert repr(swapped) == repr(copy.replace(_as_twin(a), **changes))


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


def test_parsed_elements_hold_their_own_fields():
    """The parser fills a copy of one template per statement shape and makes
    it the element's ``__dict__``: after many statements of one shape no two
    elements share fields, no template or plan has changed, and each element
    behaves as the one its constructor builds."""
    from phasekit.dsl import _PLANS, _STATEMENTS, _plan, _statement
    from phasekit.model import SCHEMA

    lines = ['model "shapes"', 'loss L "l" category=safety-critical',
             'boundary SB "s" stage=other includes=[A]', 'hazard H "h" boundary=SB leads_to=[L]',
             'node A "a" kind=human', 'node B "b" kind=team process_model="p"']
    for i in range(60):
        lines += [f'{("action", "feedback", "iolink")[i % 3]} E{i} from={"AB"[i % 2]} to=B "e{i}"',
                  f'uca U{i} action=E{i} type=provided category=functional context="c" hazards=[H]',
                  f'scenario S{i} uca=U{i} class=technical "d"',
                  f'requirement R{i} scenarios=[S{i}] "r"']
    lines.append('assess action=E0 type=wrong-timing verdict=not-hazardous rationale="r"')
    model = phasekit.parse("\n".join(lines)).model
    elements = [e for c in SCHEMA for e in model.elements_of(c.name)]
    assert len(elements) == 6 + 4 * 60 and len({id(vars(e)) for e in elements}) == len(elements)
    for c in SCHEMA:
        for keyword in c.keywords:
            assert _STATEMENTS[keyword] == _statement(c, keyword), keyword
    for shape, plan in list(_PLANS.items()):
        assert _plan(shape) == plan, shape
    sources = {edge.id: edge.source for edge in model.edges}
    assert {uca.source for uca in model.ucas} == {"A", "B"}
    for uca in model.ucas:
        assert vars(uca)["source"] == sources[uca.action], uca
    for element in elements:
        built = type(element)(*(getattr(element, f.name) for f in dataclasses.fields(element)))
        assert list(vars(element).items()) == list(vars(built).items())
        assert element == built and hash(element) == hash(built) and repr(element) == repr(built)
        for duplicate in (copy.copy(element), dataclasses.replace(element),
                          pickle.loads(pickle.dumps(element))):
            assert type(duplicate) is type(element) and duplicate == built
            assert repr(duplicate) == repr(built) and vars(duplicate) is not vars(element)


if __name__ == "__main__":
    for test_name, test in list(globals().items()):
        if test_name.startswith("test_") and callable(test):
            test()
            print("ok", test_name)
