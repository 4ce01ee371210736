"""The public API as a contract: names, signatures, members and CLI options.

tests/golden/api.txt is the rendering below of the package as it was
before CliffordElement and ChainExpression were moved onto one shared
Novikov-combination base class.  A refactor must keep every line; a
deliberate contract change re-records the file and says why.

Signatures are rendered without annotations, which are documentation,
so that the text does not depend on how a Python version prints them;
an exception is rendered by its bases, which decide what catches it.
Members are the public names of each class, with the signature of each
callable and "attribute" for everything readable that is not callable.
CLI options are read off the argparse actions of build_parser(), not
off --help text.
"""

import argparse
import inspect
from importlib import import_module
from pathlib import Path

import pytest

import toricfloer
from toricfloer import ChainAlgebra, ChainExpression, CliffordElement, NovikovElement
from toricfloer.cli import build_parser

GOLDEN = Path(__file__).parent / "golden" / "api.txt"

CLASSES = (CliffordElement, ChainExpression, NovikovElement, ChainAlgebra)


def _signature(obj) -> str:
    try:
        sig = inspect.signature(obj)
    except (TypeError, ValueError):
        return "<no signature>"
    params = [p.replace(annotation=inspect.Parameter.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params, return_annotation=inspect.Signature.empty))


def _exports() -> list[str]:
    lines = ["__all__:"]
    for name in toricfloer.__all__:
        obj = getattr(toricfloer, name)
        if isinstance(obj, type) and issubclass(obj, BaseException):
            lines.append(f"  {name} <- {', '.join(b.__name__ for b in obj.__bases__)}")
        elif callable(obj):
            lines.append(f"  {name}{_signature(obj)}")
        else:
            lines.append(f"  {name} = {obj!r}")
    return lines


def _members(cls) -> list[str]:
    lines = [f"{cls.__name__} members (hashable: {cls.__hash__ is not None}):"]
    for name in sorted(n for n in dir(cls) if not n.startswith("_")):
        static = inspect.getattr_static(cls, name)
        if isinstance(static, (staticmethod, classmethod)) or inspect.isfunction(static):
            lines.append(f"  {name}{_signature(getattr(cls, name))}")
        else:
            lines.append(f"  {name}: attribute")
    return lines


def _options() -> list[str]:
    parser = build_parser()
    lines = ["cli:"]
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, subparser in sorted(sub.choices.items()):
        lines.append(f"  {command}:")
        for action in subparser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            kind = type(action).__name__
            type_name = getattr(action.type, "__name__", action.type)
            lines.append(
                f"    {', '.join(action.option_strings)}: {kind} dest={action.dest} "
                f"default={action.default!r} choices={action.choices!r} "
                f"required={action.required} type={type_name}"
            )
    return lines


def render_api() -> str:
    lines = _exports()
    for cls in CLASSES:
        lines += _members(cls)
    lines += _options()
    return "\n".join(lines) + "\n"


def test_api_matches_golden():
    assert render_api() == GOLDEN.read_text(encoding="utf-8")


class TestLazyNamespace:
    """The package resolves each public name from its submodule on use
    (PEP 562), and keeps no binding of its own."""

    def test_every_name_is_its_submodules_object(self):
        assert toricfloer.__all__ == sorted(toricfloer._SUBMODULE)
        for module, names in toricfloer._SUBMODULES.items():
            submodule = import_module(f"toricfloer.{module}")
            for name in names:
                assert getattr(toricfloer, name) is getattr(submodule, name)

    def test_dir_lists_every_name(self):
        listed = dir(toricfloer)
        assert set(toricfloer.__all__) <= set(listed)
        assert "__version__" in listed and listed == sorted(listed)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            toricfloer.no_such_name
        assert not hasattr(toricfloer, "chains_map_certificate")

    def test_star_import_binds_exactly_all(self):
        namespace: dict = {}
        exec("from toricfloer import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(toricfloer.__all__)

    def test_names_follow_the_submodules_binding(self, monkeypatch):
        # bench/tracer.py patches the submodules' bindings and restores them
        from toricfloer import floer

        assert toricfloer.hf_rank is floer.hf_rank
        assert "hf_rank" not in vars(toricfloer)
        sentinel = object()
        monkeypatch.setattr(floer, "hf_rank", sentinel)
        assert toricfloer.hf_rank is sentinel
