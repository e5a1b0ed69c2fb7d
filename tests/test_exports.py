"""The package's surface: every export resolves and is listed once, and
files are opened in one place."""

import pathlib
import re

import pxthin


def test_every_export_resolves_once():
    names = pxthin.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(pxthin, name)]
    assert missing == []


def test_one_reader_and_one_writer_open_files():
    # mesh._text_lines and mesh._write_text serve every file pxthin touches
    source = pathlib.Path(pxthin.__file__).parent
    counts = {path.name: path.read_text().count("open(")
              for path in sorted(source.glob("*.py"))}
    assert {name: n for name, n in counts.items() if n} == {"mesh.py": 2}


def test_the_package_imports_no_scipy():
    # numpy kernels on the P1 pattern serve every solve; scipy is a test oracle
    source = pathlib.Path(pxthin.__file__).parent
    importing = re.compile(r"^\s*(import|from)\s+scipy\b", re.MULTILINE)
    assert [path.name for path in sorted(source.glob("*.py"))
            if importing.search(path.read_text())] == []
