"""Run one oddtown CLI command with the package's public functions traced.

    python perfbench/trace_child.py SPANS_OUT ITEM_ID -- CLI_ARGS...

Wraps every public function and public method of the modules gf2,
setfamily, constructions, search and cli, rebinding each wrapped function
under every name it is bound to in the package (cli reaches setfamily
through a module alias, __init__ re-exports by name).  Spans are kept in
memory as [name, start, end, parent, error, count] and written to SPANS_OUT
as JSON when the command ends; the exit code is the command's.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from math import comb

MODULES = ("gf2", "setfamily", "constructions", "search", "cli")

# Work counted at the call boundary: (args, result) -> int.
COUNTS = {
    "setfamily.op": lambda args, result: comb(len(args[0]), 2),
    "search.candidate_pool": lambda args, result: len(result),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()

    def wrap(self, name: str, fn):
        spans, local, clock, count = self.spans, self._local, time.perf_counter, COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                span[4] = 0
                if count is not None:
                    span[5] = count(args, result)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        import oddtown.cli  # noqa: F401  (imports the other four modules)

        wrapped = {}
        for short in MODULES:
            module = sys.modules[f"oddtown.{short}"]
            for attr, value in vars(module).items():
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    wrapped[value] = self.wrap(f"{short}.{attr}", value)
                elif inspect.isclass(value):
                    self._wrap_methods(f"{short}.{attr}", value)
        for name, module in list(sys.modules.items()):
            if name == "oddtown" or name.startswith("oddtown."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrapped:
                        setattr(module, attr, wrapped[value])

    def _wrap_methods(self, prefix: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, attr, type(raw)(self.wrap(f"{prefix}.{attr}", raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(f"{prefix}.{attr}", raw))


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: trace_child.py SPANS_OUT ITEM_ID -- CLI_ARGS...", file=sys.stderr)
        return 2
    spans_out, item_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["oddtown.cli"]
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump({"item": item_id, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
