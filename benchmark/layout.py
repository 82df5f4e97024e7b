"""Where the benchmark finds its workloads and the program under test."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent  # the checkout: the program's sources are under ROOT/src
WORKLOADS = ("figures", "exact-chains", "mc-chains")


class MissingProgram(RuntimeError):
    """The checkout does not hold the program's sources."""


def config_paths(workload: str) -> list[Path]:
    """The workload's sweep configs, in a fixed order."""
    return sorted((HERE / "configs" / workload).glob("*.json"))


def import_program():
    """Import ``idsched`` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "idsched" / "__init__.py").is_file():
        raise MissingProgram(f"no idsched sources under {src}")
    sys.path.insert(0, str(src))
    import idsched
    import idsched.cli

    if Path(idsched.__file__).resolve().parent != src / "idsched":
        raise MissingProgram(f"idsched was imported from {idsched.__file__}, not from {src}")
    return idsched
