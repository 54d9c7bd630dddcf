"""Records (`syntax.Record`): importing reglock generates no code, and every
record has value equality, a hash of its compared fields (none for the five
mutable ones, nor for a closure, whose bindings are a dict), its repr and
defaults, and immutability.  The compound types are hash-consed
(`syntax._Atom`) instead, with the same fields, repr and immutability, and
equality as identity."""

from __future__ import annotations

import inspect
import json
import pathlib
import pickle
import subprocess
import sys
from typing import get_args

import pytest

import reglock
from reglock.effects import SplitResult
from reglock.interp import (BlockedOn, Config, ExploreResult, Finished, Stepped, Stuck, Terminal,
                            Thread, Trace, TraceStep)
from reglock.meta import Violation
from reglock.parser import Definition, SourceProgram
from reglock.store import Blocked, Counts, RegionNode, Store
from reglock.syntax import (SEQ_MODE, App, BaseType, Closure, Const, Effect, Env, Expr, FnType,
                            FrozenInstanceError, HandleType, Loc, Location, ParMode, Record,
                            RefType, RegionPolyType, UnitType, Var)
from reglock.typecheck import CheckResult, Diagnostic, TypedProgram, _Env

SRC = pathlib.Path(reglock.__file__).resolve().parent.parent

#: Term forms leave their source location out of `==`, `hash` and `repr`.
TERMS = list(get_args(Expr))
#: These compare their location.
LOCATED = [Definition, Diagnostic]
OTHER_FROZEN = [Loc, BaseType, UnitType, FnType, RegionPolyType, RefType, HandleType, ParMode,
                Location, SourceProgram, SplitResult, Counts, Blocked, RegionNode, Store, Thread,
                Config, Stepped, Finished, BlockedOn, Stuck, TraceStep, Terminal, Violation]
#: Not records, but interned: one object per fields, hashed by identity.
INTERNED = [FnType, RegionPolyType, RefType, HandleType]
#: Immutable, but unhashable: a closure's bindings are a dict (`Env`).
UNHASHABLE = [Closure]
#: Assignable and unhashable.
MUTABLE = [Trace, ExploreResult, TypedProgram, CheckResult, _Env]
RECORDS = TERMS + LOCATED + OTHER_FROZEN + UNHASHABLE + MUTABLE


def subclasses(cls: type) -> set[type]:
    found = set(cls.__subclasses__())
    for sub in list(found):
        found |= subclasses(sub)
    return found


def params(cls: type) -> list[str]:
    return list(cls.__slots__) if cls in INTERNED else list(inspect.signature(cls).parameters)


def compared(cls: type) -> list[str]:
    return [name for name in params(cls) if not (cls in TERMS and name == "loc")]


def make(cls: type, **changes):
    """A record whose every field holds a distinct value, hashable but for
    a closure's bindings."""
    values = {name: ("value of", name) for name in params(cls)}
    if cls is Diagnostic:
        values["code"] = "TypeMismatch"
    if cls is Closure:
        values["env"] = Env({"x": Const(1)})
    if cls is FnType:
        values.update(effect_in=Effect(), effect_out=Effect())
    values.update(changes)
    return cls(*values.values()) if cls in INTERNED else cls(**values)


def test_the_table_names_every_record():
    records = {cls for cls in subclasses(Record) if cls.__module__.startswith("reglock.")
               and cls.__name__ != "_Term"}
    assert records == set(RECORDS) - set(INTERNED) and len(RECORDS) == 49


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    a, b = make(cls), make(cls)
    assert a == b and (a is b) == (cls in INTERNED) and not a != b
    assert a.__eq__(object()) is NotImplemented
    names = compared(cls)
    if names:
        assert make(cls, **{names[-1]: "other"}) != a
    if "__repr__" not in vars(cls):
        shown = ", ".join(f"{name}={getattr(a, name)!r}" for name in names)
        assert repr(a) == f"{cls.__qualname__}({shown})"
    assert pickle.loads(pickle.dumps(a)) == a

    with pytest.raises(TypeError):
        cls(*[getattr(a, name) for name in params(cls)], "one too many")
    if any(p.default is inspect.Parameter.empty
           for p in inspect.signature(cls).parameters.values()):
        with pytest.raises(TypeError):
            cls()

    if "loc" in params(cls):
        moved = make(cls, loc=Loc(9, 9))
        if cls in TERMS:
            assert moved == a and hash(moved) == hash(a) and "loc=" not in repr(moved)
        else:
            assert moved != a

    if cls in MUTABLE:
        with pytest.raises(TypeError):
            hash(a)
        a.extra = 1
        setattr(a, params(cls)[0], "changed")
        assert a != b
        del a.extra
    else:
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == (object.__hash__(a) if cls in INTERNED
                               else hash(tuple(getattr(a, name) for name in names)))
        for name in params(cls)[:1] + ["_digest"]:
            with pytest.raises(FrozenInstanceError):
                setattr(a, name, "changed")
            with pytest.raises(FrozenInstanceError):
                delattr(a, name)
        assert a == b


def test_frozen_instance_error_is_an_attribute_error():
    assert issubclass(FrozenInstanceError, AttributeError)


def test_defaults():
    assert Var("x").loc is None and Const(1).loc is None
    assert App(Var("f"), Var("x")).mode is SEQ_MODE
    assert ParMode().transfer is None
    assert Counts() == Counts(0, 0)
    assert SplitResult(1, 2).abstracted == frozenset()
    assert Diagnostic("TypeMismatch", "m") == Diagnostic("TypeMismatch", "m", None, None)
    first, second = Trace(None, None), Trace(None, None)
    assert first.steps == [] and first.steps is not second.steps and first.terminal is None
    one, two = CheckResult(True), CheckResult(True)
    assert one.diagnostics == [] and one.diagnostics is not two.diagnostics
    assert one.typed is None


@pytest.mark.skipif(not __debug__, reason="the code check is an assert")
def test_diagnostic_checks_its_code():
    with pytest.raises(AssertionError):
        Diagnostic("NoSuchCode", "m")


IMPORT_PROBE = """
import json, sys
compiled = []
sys.addaudithook(lambda event, args: event == "compile" and compiled.append(str(args[1])))
import reglock.cli
print(json.dumps({"compiled": [name for name in compiled if not name.endswith(".py")],
                  "modules": [name for name in ("dataclasses", "inspect") if name in sys.modules]}))
"""


def test_import_compiles_no_code():
    """Importing the CLI compiles nothing but its own source files: no
    record generates methods from strings, and no annotation is evaluated."""
    proc = subprocess.run([sys.executable, "-S", "-c", IMPORT_PROBE], capture_output=True,
                          text=True, env={"PYTHONPATH": str(SRC)}, check=True)
    assert json.loads(proc.stdout) == {"compiled": [], "modules": []}
