import numpy as np
import pytest

from fracshift import catalog


def test_poly_entry_builds_f_and_derivative():
    entry = catalog.get("poly:0,1,0,2")  # x + 2 x^3
    xs = np.array([0.0, 0.5, 2.0])
    assert entry.f(xs) == pytest.approx(xs + 2.0 * xs ** 3, rel=1e-15)
    assert entry.f_prime(xs) == pytest.approx(1.0 + 6.0 * xs ** 2, rel=1e-15)
    assert list(entry.series.coeffs[:4]) == [0.0, 1.0, 0.0, 2.0]


@pytest.mark.parametrize("name, fragment", [
    ("monomial:1.5", "monomial degree must be an integer"),
    ("monomial:-1", "monomial degree must be >= 0"),
    ("poly:1,x", "poly coefficients must be numbers"),
    ("gauss-pair:wide", "gauss-pair parameter must be a number"),
    ("gauss-pair:0", "gauss-pair parameter must be positive"),
])
def test_catalog_refusals(name, fragment):
    with pytest.raises(KeyError, match=fragment):
        catalog.get(name)
