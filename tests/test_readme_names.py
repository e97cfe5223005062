"""The README and the run recipes must not cite names that are gone.

Every dotted ``repro.…`` name in README.md must import (a module) or
resolve by attribute lookup from the longest importable prefix (a class,
function or method), and every ``python -m repro.bench <id>`` (or
``python -m repro bench <id>``) in README.md, the verify recipe and the
CI workflow must name a key of :data:`repro.bench.experiments.EXPERIMENTS`.
"""

import importlib
import re
from pathlib import Path

from repro.bench.experiments import EXPERIMENTS

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
BENCH_COMMAND_FILES = (
    README,
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
    ROOT / ".github" / "workflows" / "ci.yml",
)

DOTTED_NAME = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
BENCH_COMMAND = re.compile(r"python -m repro[. ]bench (\w+)")


def _resolve(name):
    """Import the longest module prefix of ``name``, then walk attributes."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[cut:]:
            target = getattr(target, attribute)
        return target
    raise ModuleNotFoundError(name)


def test_readme_dotted_names_resolve():
    names = set(DOTTED_NAME.findall(README.read_text(encoding="utf-8")))
    assert len(names) >= 10  # the pattern still matches the prose
    dangling = {}
    for name in sorted(names):
        try:
            _resolve(name)
        except (ImportError, AttributeError) as error:
            dangling[name] = str(error)
    assert not dangling, f"README.md cites names that do not resolve: {dangling}"


def test_bench_commands_name_registered_experiments():
    cited = {}
    for path in BENCH_COMMAND_FILES:
        for experiment in BENCH_COMMAND.findall(path.read_text(encoding="utf-8")):
            cited.setdefault(experiment, set()).add(path.relative_to(ROOT).as_posix())
    assert cited  # the pattern still matches the recipes
    unknown = {name: sorted(files) for name, files in cited.items() if name not in EXPERIMENTS}
    assert not unknown, f"bench commands name unregistered experiments: {unknown}"
