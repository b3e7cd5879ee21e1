"""Every exception type defined in ``repro`` survives pickling.

Parallel experiment runs ship a worker's exception back to the parent
process through pickle; a type that cannot be rebuilt from its pickle
turns the real error into a broken process pool.
"""

import importlib
import inspect
import pickle
import pkgutil

import pytest

import repro

#: Constructor arguments by parameter annotation.
_ARG_FOR = {"str": "m0", "float": 10.0, "int": 3}


def _exception_classes():
    modules = [repro]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            modules.append(importlib.import_module(info.name))
    found = {}
    for module in modules:
        for obj in vars(module).values():
            if inspect.isclass(obj) and issubclass(obj, BaseException) \
                    and obj.__module__.startswith("repro"):
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return [found[name] for name in sorted(found)]


EXCEPTIONS = _exception_classes()


def _instance(cls):
    if not inspect.isfunction(cls.__init__):
        return cls("boom")  # the built-in constructor
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    return cls(*(_ARG_FOR.get(p.annotation, "x") for p in params
                 if p.default is p.empty
                 and p.kind is p.POSITIONAL_OR_KEYWORD))


def test_exception_types_found():
    names = {cls.__name__ for cls in EXCEPTIONS}
    assert {"OutOfMemory", "OutOfStorage", "WrongShard",
            "InvariantViolation", "StopSimulation"} <= names


@pytest.mark.parametrize("cls", EXCEPTIONS, ids=lambda c: c.__name__)
def test_exception_pickle_round_trip(cls):
    exc = _instance(cls)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert vars(back) == vars(exc)
