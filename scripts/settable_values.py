#!/usr/bin/env python3
"""The settable values of the dfsmn package: what a caller can set, and
leaves at its default when it does not.

A settable value is one of:
- a parameter of a public function, or of a public method of a public
  class, that has a default or collects keywords (`**settings`);
- an init field of a public dataclass that has a default or a default
  factory;
- an option of a `dfsmn` subcommand (help left out).

Public means a name without a leading underscore, defined in the module of
src/dfsmn/ that it is found in. A dataclass counts by its fields, not by its
generated `__init__`. Prints one line per value, then their count. Takes no
option:

    PYTHONPATH=src python scripts/settable_values.py
"""

import dataclasses
import importlib
import inspect
import pkgutil
import sys

import dfsmn
from dfsmn.cli import build_parser


def _defaulted(qualname: str, func) -> list:
    return [f"{qualname}({'**' if p.kind is p.VAR_KEYWORD else ''}{p.name})"
            for p in inspect.signature(func).parameters.values()
            if p.default is not p.empty or p.kind is p.VAR_KEYWORD]


def _public(module, pred) -> list:
    return [(name, obj) for name, obj in inspect.getmembers(module, pred)
            if not name.startswith("_") and obj.__module__ == module.__name__]


def values() -> list:
    """Every settable value, as "module.name(param)", "module.Class.field" or
    "dfsmn <command> --option"."""
    found = []
    for info in pkgutil.iter_modules(dfsmn.__path__):
        module = importlib.import_module(f"dfsmn.{info.name}")
        where = module.__name__.removeprefix("dfsmn.")
        for name, func in _public(module, inspect.isfunction):
            found += _defaulted(f"{where}.{name}", func)
        for name, cls in _public(module, inspect.isclass):
            if dataclasses.is_dataclass(cls):
                found += [f"{where}.{name}.{f.name}" for f in dataclasses.fields(cls)
                          if f.init and (f.default is not dataclasses.MISSING
                                         or f.default_factory is not dataclasses.MISSING)]
            elif "__init__" in vars(cls):
                found += _defaulted(f"{where}.{name}", cls.__init__)
            for meth, func in vars(cls).items():
                func = getattr(func, "__func__", func)  # a static or class method's function
                if not meth.startswith("_") and inspect.isfunction(func):
                    found += _defaulted(f"{where}.{name}.{meth}", func)
    subparsers = next(a for a in build_parser()._actions if a.choices)
    for command, sub in subparsers.choices.items():
        found += [f"dfsmn {command} {action.option_strings[-1]}" for action in sub._actions
                  if action.option_strings and action.dest != "help"]
    return found


def main() -> int:
    found = values()
    for value in found:
        print(value)
    print(len(found))
    return 0


if __name__ == "__main__":
    sys.exit(main())
