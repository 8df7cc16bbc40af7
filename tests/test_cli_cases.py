"""Every case of ``cli_cases``, run in process through ``hadstab.cli.main``;
CI runs the same table through the installed console script."""

import pytest
from cli_cases import CASES, check

from hadstab.cli import main


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.id)
def test_cli_case(case, capsys, tmp_path):
    check(case, lambda argv: (main(argv), *capsys.readouterr()), tmp_path)
