"""The benchmark's span trace must find every function it wraps."""
import importlib

from perfbench.spans import TRACED


def test_every_traced_name_is_defined_in_its_module():
    """perfbench/spans.py wraps the functions it lists in TRACED and the
    benchmark exits 3 when one is missing; a rename or a move shows here
    first."""
    missing = []
    for mod, names in TRACED.items():
        home = importlib.import_module(f"troptorus.{mod}")
        for name in names:
            fn = getattr(home, name, None)
            if not callable(fn) or fn.__module__ != home.__name__:
                missing.append(f"{mod}.{name}")
    assert missing == []
