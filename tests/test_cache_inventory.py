"""Every lru_cache in the library is listed, with its reason and bound, in the README.

A cache holds strong references to its arguments and results for the life
of the process, so each one has to earn its place. This test walks the
package source and requires the decorated functions to be exactly the
bullets of the README's "Caches" section: adding or removing a cache means
adding or removing its line there. Each bullet's first number is the
cache's bound, and must be its maxsize.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chipmunkring"


def is_lru_cache(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
    return name == "lru_cache"


def cached_functions():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    is_lru_cache(d) for d in node.decorator_list):
                found.add(f"{path.stem}.{node.name}")
    return found


def readme_section():
    text = (ROOT / "README.md").read_text()
    return text.split("\n### Caches\n", 1)[1].split("\n#", 1)[0]


def readme_caches():
    return set(re.findall(r"^- `(\w+\.\w+)`", readme_section(), flags=re.MULTILINE))


def readme_bounds():
    """{module.function: the bound the bullet states}"""
    return {name: int(bound) for name, bound in re.findall(
        r"^- `(\w+\.\w+)` \((\d+) ", readme_section(), flags=re.MULTILINE)}


def test_every_cache_is_listed_in_the_readme():
    assert cached_functions() == readme_caches()
    assert {name.split(".")[1] for name in cached_functions()} == {
        "_decode_public_key", "share_proof", "threshold_challenge",
    }


def test_readme_states_each_cache_bound():
    stated = readme_bounds()
    assert set(stated) == readme_caches()
    actual = {}
    for name in stated:
        module, function = name.split(".")
        cached = getattr(importlib.import_module(f"chipmunkring.{module}"), function)
        actual[name] = cached.cache_info().maxsize
    assert stated == actual
    assert stated == {"codec._decode_public_key": 256, "acorn.share_proof": 64,
                      "threshold.threshold_challenge": 1}
