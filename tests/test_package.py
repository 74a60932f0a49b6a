"""The package's public surface: every exported name resolves, and the
README's library example runs as printed."""

import contextlib
import io
import re
from pathlib import Path

import solitonlab


def test_every_exported_name_resolves():
    assert len(set(solitonlab.__all__)) == len(solitonlab.__all__)
    assert [name for name in solitonlab.__all__ if not hasattr(solitonlab, name)] == []


def test_star_import_binds_every_exported_name():
    # a name left in __all__ after its definition is gone breaks only this
    namespace: dict = {}
    exec("from solitonlab import *", namespace)
    assert set(solitonlab.__all__) <= namespace.keys()


def test_the_readme_library_block_prints_what_its_comments_say():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"## Library use\n\n```python\n(.*?)```", readme, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    first, second = out.getvalue().splitlines()
    assert first.startswith("0.7237") and second.startswith("0.7233")
