"""Bundled example algebras, shipped as data files in the package format."""
from __future__ import annotations

from functools import cache
from importlib import resources

from .algebra import FiniteAlgebra, load_algebra

FIXTURE_NAMES = ("2", "4", "4bar", "6", "A", "F3", "F5")


@cache
def fixture(name: str) -> FiniteAlgebra:
    """Load a bundled algebra by name. See FIXTURE_NAMES."""
    if name not in FIXTURE_NAMES:
        raise ValueError(f"no bundled algebra named {name!r}")
    text = resources.files("qba.data").joinpath(f"{name}.alg").read_text("utf-8")
    return load_algebra(text, label=name)


def all_fixtures() -> dict[str, FiniteAlgebra]:
    return {name: fixture(name) for name in FIXTURE_NAMES}
