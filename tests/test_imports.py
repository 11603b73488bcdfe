"""What each entry point loads: `import microdiff` is lazy, `microdiff.cli`
keeps microloc, fpx, dataclasses and json out until a command needs them.

Each check runs in a fresh interpreter and compares its modules with those
of a bare one started the same way.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import microdiff

SRC = str(Path(microdiff.__file__).resolve().parents[1])


def _modules(code):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint(' '.join(sorted(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@functools.lru_cache(maxsize=None)
def _bare():
    return frozenset(_modules("pass"))


def loaded_by(code):
    """The modules that running `code` adds to a bare interpreter."""
    return _modules(code) - _bare()


def loaded_by_command(*argv):
    """The modules `python -m microdiff.cli <argv>` adds."""
    code = (
        "import runpy, sys\n"
        f"sys.argv = ['microdiff', *{list(argv)!r}]\n"
        "try:\n"
        "    runpy.run_module('microdiff.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit:\n"
        "    pass"
    )
    return loaded_by(code)


def test_package_import_runs_no_submodule():
    assert {m for m in loaded_by("import microdiff") if m.startswith("microdiff.")} == set()


def test_cli_import_leaves_out_what_no_command_shares():
    new = loaded_by("import microdiff.cli")
    # bench/tracing.py reads sys.modules["microdiff.charvar"] right after this import
    assert "microdiff.charvar" in new
    for name in ("microdiff.microloc", "microdiff.fpx", "dataclasses", "inspect", "json"):
        assert name not in new, name


def test_mul_loads_no_microloc():
    new = loaded_by_command("mul", "--p", "2", "--expr", "(d1 - x1)^3")
    assert "microdiff.microloc" not in new
    assert "json" not in new


def test_json_loads_json():
    assert "json" in loaded_by_command("mul", "--p", "2", "--expr", "d1", "--json")


def test_tinv_atom_loads_microloc():
    assert "microdiff.microloc" in loaded_by_command("mul", "--p", "2", "--expr", "Tinv(xi1)")


def test_invert_loads_microloc():
    new = loaded_by_command("invert", "--p", "2", "--expr", "d1 - x1", "--mprime", "0")
    assert "microdiff.microloc" in new


def test_char_loads_fpx_not_microloc():
    new = loaded_by_command("char", "--p", "2", "--rel", "d1 - x1")
    assert "microdiff.fpx" in new
    assert "microdiff.microloc" not in new


@pytest.mark.parametrize("name", microdiff.__all__)
def test_every_exported_name_resolves_and_is_listed(name):
    assert getattr(microdiff, name) is not None
    assert name in dir(microdiff)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        microdiff.nonexistent  # noqa: B018


def test_norm_bounds_live_in_padic_and_stay_exported():
    from microdiff import microloc, padic

    assert microdiff.normcalc_bounds is padic.normcalc_bounds is microloc.normcalc_bounds
    assert microdiff.alpha_bound is padic.alpha_bound is microloc.alpha_bound
