"""The package's metadata: its one version is ``cdconf.__version__``."""

import re
from pathlib import Path

import pytest

import cdconf

_PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_pyproject_declares_no_literal_version():
    # read as text: Python 3.10 has no tomllib
    text = _PYPROJECT.read_text()
    assert not re.search(r'^version\s*=\s*["\']', text, re.M)
    assert re.search(r'^dynamic\s*=\s*\[[^]]*"version"', text, re.M)
    assert re.search(r'^version\s*=\s*\{\s*attr\s*=\s*"cdconf\.__version__"\s*\}', text, re.M)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_setuptools_resolves_the_package_version():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    config = pyprojecttoml.read_configuration(_PYPROJECT)
    assert config["project"]["version"] == cdconf.__version__
