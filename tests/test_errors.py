"""Location of a batch row's error by ``lnets.errors.locating``."""

import numpy as np
import pytest

from lnets import CurvatureSignError, LnetsError
from lnets.errors import located, locating


def test_locating_passes_an_error_without_a_row_unchanged():
    inner = LnetsError("no row")
    with pytest.raises(LnetsError) as info:
        with locating(lambda k: f"row {k} ", np.zeros((2, 2))):
            raise inner
    assert info.value is inner
    assert str(info.value) == "no row"
    assert info.value.__cause__ is None


def test_locating_prefixes_the_row_and_keeps_its_fields():
    uv = np.array([[0.1, 0.2], [0.3, 0.4]])
    with pytest.raises(CurvatureSignError, match=r"^line 7 at \(u=0\.3, "
                       r"v=0\.4\): bad$") as info:
        with locating(lambda k: f"line {[5, 7][k]} ", uv,
                      line=np.array([5, 7])):
            raise located(CurvatureSignError, "bad", index=1)
    assert info.value.index == 1
    assert info.value.line == 7 and type(info.value.line) is int
    assert np.array_equal(info.value.uv, uv[1])
    assert not np.shares_memory(info.value.uv, uv)

