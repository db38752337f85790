"""Session fixtures shared by the integration and unit suites."""

import pytest

from repro.study.report import figures_context


@pytest.fixture(scope="session")
def paper_ctx(tmp_path_factory):
    """The ``figures`` campaign at the reported configuration (scale 1.0,
    app seed 1234), run once in-process and loaded for the registry."""
    return figures_context(1.0, 1234, tmp_path_factory.mktemp("figures"))
