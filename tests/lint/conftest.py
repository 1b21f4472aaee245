"""Shared helpers for the lint tests: in-memory projects."""

import pytest

from repro.lint.core import ModuleSource, Project


@pytest.fixture
def make_project():
    """Build a :class:`Project` from {path: source} without touching disk."""

    def build(files):
        project = Project()
        for path, text in files.items():
            project.modules.append(ModuleSource(path, text))
        return project

    return build
